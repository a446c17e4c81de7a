"""Plain-text rendering of the figure results.

The benchmarks and examples print figures as compact text: sparklines
for time series, aligned tables for box statistics -- enough to eyeball
every shape the paper reports without a plotting stack.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import constants
from repro.analysis.fig1_active_devices import Fig1Result
from repro.analysis.fig2_bytes_per_device import Fig2Result
from repro.analysis.fig3_hour_of_week import Fig3Result
from repro.analysis.fig4_subpopulation import Fig4Result
from repro.analysis.fig5_zoom import Fig5Result
from repro.analysis.fig6_social import Fig6Result
from repro.analysis.fig7_steam import Fig7Result
from repro.analysis.fig8_switch import Fig8Result
from repro.analysis.summary import SummaryStats
from repro.devices.types import DeviceClass
from repro.stats.descriptive import BoxStats

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a series as a unicode sparkline of the given width."""
    data = np.asarray(values, dtype=np.float64)
    data = np.where(np.isnan(data), 0.0, data)
    if data.size == 0:
        return ""
    if data.size > width:
        data = _chunk_means(data, width)
    top = data.max()
    if top <= 0:
        return _BLOCKS[0] * len(data)
    scaled = (data / top * (len(_BLOCKS) - 1)).round().astype(int)
    return "".join(_BLOCKS[level] for level in scaled)


def _chunk_means(data: np.ndarray, width: int) -> np.ndarray:
    """Downsample by averaging ``width`` near-equal consecutive chunks.

    Chunks of one length are averaged together by a single fancy-indexed
    ``mean(axis=1)``; an empty chunk averages to 0.
    """
    edges = np.linspace(0, data.size, width + 1).astype(int)
    starts, lengths = edges[:-1], np.diff(edges)
    means = np.zeros(width)
    for length in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == length)
        means[rows] = data[starts[rows, None] + np.arange(length)].mean(axis=1)
    return means


def _fmt_bytes(value: float) -> str:
    if not np.isfinite(value):
        return "   n/a"
    for unit, scale in (("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(value) >= scale:
            return f"{value / scale:6.1f}{unit}"
    return f"{value:6.0f}B "


def _box_row(label: str, stats: BoxStats, fmt=lambda v: f"{v:8.2f}") -> str:
    if stats.n == 0:
        return f"  {label:<22} n=0"
    return (f"  {label:<22} n={stats.n:<5} p1={fmt(stats.p1)} "
            f"q1={fmt(stats.q1)} med={fmt(stats.median)} "
            f"q3={fmt(stats.q3)} p95={fmt(stats.p95)} p99={fmt(stats.p99)}")


def render_fig1(result: Fig1Result) -> str:
    lines = ["Figure 1: active devices per day, by device type"]
    lines.append(f"  total    {sparkline(result.total)}  "
                 f"peak={result.peak} trough={result.trough_after_peak}")
    for name in DeviceClass.all():
        series = result.by_class[name]
        lines.append(f"  {DeviceClass.LABELS[name]:<17}"
                     f"{sparkline(series)}  max={int(series.max())}")
    return "\n".join(lines)


def render_fig2(result: Fig2Result) -> str:
    lines = ["Figure 2: mean vs median bytes per active device per day"]
    for name in DeviceClass.all():
        mean = result.mean_by_class[name]
        median = result.median_by_class[name]
        lines.append(f"  {DeviceClass.LABELS[name]:<17}"
                     f"mean {sparkline(mean, 40)}")
        lines.append(f"  {'':<17}med  {sparkline(median, 40)}  "
                     f"skew x{result.skew_ratio(name):.1f}")
    return "\n".join(lines)


def render_fig3(result: Fig3Result) -> str:
    lines = ["Figure 3: normalized median volume per device per hour of week"]
    for label, values in result.weeks.items():
        lines.append(f"  week {label}  {sparkline(values, 84)}  "
                     f"peak={np.nanmax(values):.1f}")
    return "\n".join(lines)


def render_fig4(result: Fig4Result) -> str:
    lines = ["Figure 4: median bytes per device (Zoom excluded)"]
    for (population, group), series in result.series.items():
        lines.append(f"  {population:<13} {group:<15} "
                     f"{sparkline(series, 50)}")
    return "\n".join(lines)


def render_fig5(result: Fig5Result) -> str:
    lines = ["Figure 5: daily aggregate Zoom traffic"]
    lines.append(f"  daily bytes  {sparkline(result.daily_bytes)}  "
                 f"peak={_fmt_bytes(result.daily_bytes.max()).strip()}")
    lines.append(f"  weekday hours {sparkline(result.weekday_hourly, 24)}  "
                 f"8am-6pm share={result.weekday_business_share():.0%}")
    lines.append(f"  weekend hours {sparkline(result.weekend_hourly, 24)}")
    return "\n".join(lines)


def render_fig6(result: Fig6Result) -> str:
    lines = ["Figure 6: monthly mobile session duration (hours/device)"]
    for platform in ("facebook", "instagram", "tiktok"):
        lines.append(f"  [{platform}]")
        for population in ("domestic", "international"):
            per_month = result.stats[platform][population]
            for month, label in zip(constants.STUDY_MONTHS,
                                    constants.MONTH_LABELS):
                stats = per_month.get(month, BoxStats.empty())
                lines.append(_box_row(f"{population} {label}", stats))
    return "\n".join(lines)


def render_fig7(result: Fig7Result) -> str:
    lines = ["Figure 7: monthly Steam usage per device"]
    lines.append("  (a) bytes per device")
    for population in ("domestic", "international"):
        for month, label in zip(constants.STUDY_MONTHS,
                                constants.MONTH_LABELS):
            stats = result.bytes_stats[population].get(
                month, BoxStats.empty())
            lines.append(_box_row(f"{population} {label}", stats,
                                  fmt=_fmt_bytes))
    lines.append("  (b) connections per device")
    for population in ("domestic", "international"):
        for month, label in zip(constants.STUDY_MONTHS,
                                constants.MONTH_LABELS):
            stats = result.connection_stats[population].get(
                month, BoxStats.empty())
            lines.append(_box_row(f"{population} {label}", stats,
                                  fmt=lambda v: f"{v:8.0f}"))
    return "\n".join(lines)


def render_fig8(result: Fig8Result) -> str:
    lines = ["Figure 8: Switch gameplay traffic (3-day moving average)"]
    lines.append(f"  gameplay  {sparkline(result.smoothed)}")
    lines.append(f"  switches pre={result.switches_pre_shutdown} "
                 f"post={result.switches_post_shutdown} "
                 f"new={result.new_switches} cohort={result.cohort_size}")
    return "\n".join(lines)


def render_summary(stats: SummaryStats) -> str:
    lines = ["Headline statistics (paper Sections 4-5)"]
    lines.append(f"  peak active devices:      {stats.peak_active_devices}")
    lines.append(f"  shutdown trough:          {stats.trough_active_devices}")
    lines.append(f"  post-shutdown devices:    {stats.post_shutdown_devices}")
    lines.append(f"  presumed international:   {stats.international_devices} "
                 f"({stats.international_fraction:.0%})")
    lines.append(f"  traffic Feb -> Apr/May:   "
                 f"{stats.traffic_increase_feb_to_aprmay:+.0%}")
    if stats.traffic_increase_vs_2019 is not None:
        lines.append(f"  traffic vs 2019:          "
                     f"{stats.traffic_increase_vs_2019:+.0%}")
    lines.append(f"  distinct sites Feb:       {stats.distinct_sites_feb:.1f}")
    lines.append(f"  distinct sites Apr/May:   "
                 f"{stats.distinct_sites_aprmay:.1f} "
                 f"({stats.distinct_sites_increase:+.0%})")
    return "\n".join(lines)


def render_full_report(artifacts) -> str:
    """Every section, summary first -- the canonical run report.

    Shared by the CLI ``report`` path and the journaled runner's
    ``report.txt`` stage output, so both render byte-identically.
    """
    sections = [
        render_summary(artifacts.summary()),
        render_fig1(artifacts.fig1()),
        render_fig2(artifacts.fig2()),
        render_fig3(artifacts.fig3()),
        render_fig4(artifacts.fig4()),
        render_fig5(artifacts.fig5()),
        render_fig6(artifacts.fig6()),
        render_fig7(artifacts.fig7()),
        render_fig8(artifacts.fig8()),
    ]
    return "\n\n".join(sections)
