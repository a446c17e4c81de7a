"""The batch workloads: ``study``, ``ingest`` and ``report``.

Each takes a campus from its input to the published report plus the
paper-claim outcomes, along one of the three user paths:

* ``study``  -- seed to report, the serial ``repro run`` path;
* ``ingest`` -- an exported trace directory to report, the
  ``repro ingest --traces`` path;
* ``report`` -- a saved ``flows.npz`` to report, the
  ``repro report --data`` path.

Layer entry points are looked up on their modules at call time so that
a traced run's patches (:mod:`perfbench.layers`) see every call.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import campus as cp
from perfbench import layers
from perfbench.tracing import Tracer

#: Set-ups per run for workloads whose set-up is cheap enough to repeat.
SETUP_REPEATS = 5
#: Campuses whose ``study`` and ``ingest`` reports are checked against a
#: second implementation computed at set-up (every campus of ``report``
#: is, at no extra cost).
CHECKED_CAMPUSES = 8
#: Each campus runs at least this often, so its median is not one sample.
MIN_PASSES = 2
#: ``tail_ms`` is this percentile of the per-campus median times.
TAIL_PERCENTILE = 75.0


@dataclass
class OpResult:
    report: str
    outcomes: str
    stats: Any
    flows: int
    context_builds: int


@dataclass
class Campus:
    label: str
    config: Any
    #: Input directory on disk (``ingest`` and ``report``).
    path: Optional[str] = None
    #: Report text the same campus yields along another path; a
    #: mismatch fails the operation.
    expected_report: Optional[str] = None
    input_bytes: int = 0
    sizes: Dict[str, int] = field(default_factory=dict)


def _finish(artifacts: Any, stats: Any, flows: int) -> OpResult:
    """compute_all -> outcomes -> report, the shared tail of every path."""
    import repro.analysis.expectations as expectations
    import repro.core.report as core_report

    artifacts.compute_all()
    outcomes = expectations.evaluate_all(artifacts)
    report = core_report.render_full_report(artifacts)
    return OpResult(
        report=report,
        outcomes=json.dumps([dataclasses.astuple(o) for o in outcomes]),
        stats=stats, flows=flows,
        context_builds=sum(artifacts.context.stats.values()))


def study_op(campus: Campus) -> OpResult:
    import repro.core.study as study

    artifacts = study.LockdownStudy(campus.config).run()
    return _finish(artifacts, artifacts.pipeline_stats,
                   len(artifacts.dataset_unfiltered))


def ingest_op(campus: Campus) -> OpResult:
    import repro.core.study as study
    import repro.io.tracedir as tracedir
    import repro.pipeline.visitors as visitors
    import repro.synth.generator as generator
    from repro.pipeline.pipeline import MonitoringPipeline

    config = cp.load_config(campus.path)
    plan = generator.CampusTraceGenerator(config).plan
    pipeline = MonitoringPipeline(
        config, plan.excluded_blocks(config.excluded_operators))
    tracedir.ingest_trace_dir(pipeline, campus.path)
    unfiltered = pipeline.finalize()
    dataset = visitors.apply_visitor_filter(unfiltered,
                                            config.visitor_min_days)
    artifacts = study.LockdownStudy.artifacts_from_dataset(config, dataset)
    return _finish(artifacts, pipeline.stats, len(unfiltered))


def report_op(campus: Campus) -> OpResult:
    import repro.core.study as study
    import repro.pipeline.store as pstore

    config = cp.load_config(campus.path)
    dataset = pstore.load_dataset(os.path.join(campus.path, "flows.npz"))
    artifacts = study.LockdownStudy.artifacts_from_dataset(config, dataset)
    return _finish(artifacts, artifacts.pipeline_stats, 0)


def _sizes(config: Any, stats: Any, flows: int) -> Dict[str, int]:
    return {"students": config.n_students,
            "days": stats.days_ingested, "bursts": stats.bursts_seen,
            "dns_records": stats.dns_records,
            "dhcp_records": stats.dhcp_records, "flows": flows}


def _dir_bytes(path: str) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(directory, name))
                     for name in files)
    return total


# -- set-up ---------------------------------------------------------------

def _campuses(ctx: Any) -> List[Campus]:
    return [Campus(label=f"campus{index:02d}", config=config)
            for index, config in enumerate(cp.campus_configs(ctx.seed))]


def setup_study(ctx: Any, clock: cp.HostClock) -> List[Campus]:
    """Start a fresh interpreter on the ``repro run`` imports, several times.

    The study path's input is the config itself, so its set-up is what
    every ``repro run`` process pays before the first study: importing
    the package.  Untimed, the first :data:`CHECKED_CAMPUSES` campuses
    are then run once on the per-flow reference pipeline
    (``use_columnar=False``); that run's report is the expected output
    of the default columnar path.  A small campus then warms this
    process's first-use state of that path.
    """
    import subprocess

    for _ in range(SETUP_REPEATS):
        clock.timed(lambda: subprocess.run(
            [sys.executable, "-c", "import repro.cli"], check=True))
    campuses = _campuses(ctx)
    for campus in campuses[:CHECKED_CAMPUSES]:
        reference = dataclasses.replace(campus.config, use_columnar=False)
        campus.expected_report = study_op(
            Campus(label=campus.label, config=reference)).report
    study_op(Campus(label="warmup", config=cp.campus_configs(
        cp.sub_seed(ctx.seed, cp.CAMPUSES), 1, students=4)[0]))
    return campuses


def setup_ingest(ctx: Any, clock: cp.HostClock) -> List[Campus]:
    """Export each campus's day as a trace directory.

    For the first :data:`CHECKED_CAMPUSES` campuses, the report the
    ``study`` path yields for the same campus is the expected output.
    """
    import repro.io.tracedir as tracedir
    import repro.synth.generator as generator

    campuses = _campuses(ctx)
    for campus in campuses:
        config = campus.config
        campus.path = os.path.join(ctx.workdir, campus.label)

        def export() -> None:
            days = generator.CampusTraceGenerator(config).iter_days()
            tracedir.export_traces(days, campus.path, extra_manifest={
                "seed": config.seed, "n_students": config.n_students})
            cp.save_config(config, campus.path)

        clock.timed(export)
        campus.input_bytes = _dir_bytes(campus.path)
    for campus in campuses[:CHECKED_CAMPUSES]:
        campus.expected_report = study_op(campus).report
    return campuses


def setup_report(ctx: Any, clock: cp.HostClock) -> List[Campus]:
    """Run each campus's study and save its dataset, as ``repro run --out``.

    The study run's own report is the expected output.
    """
    import repro.core.report as core_report
    import repro.core.study as study
    import repro.pipeline.store as pstore

    campuses = _campuses(ctx)
    for campus in campuses:
        config = campus.config
        campus.path = os.path.join(ctx.workdir, campus.label)

        def save() -> Any:
            artifacts = study.LockdownStudy(config).run()
            os.makedirs(campus.path, exist_ok=True)
            cp.save_config(config, campus.path)
            pstore.save_dataset(artifacts.dataset,
                                os.path.join(campus.path, "flows.npz"))
            return artifacts

        artifacts = clock.timed(save)[1]

        artifacts.compute_all()
        campus.expected_report = core_report.render_full_report(artifacts)
        campus.sizes = _sizes(config, artifacts.pipeline_stats,
                              len(artifacts.dataset_unfiltered))
    return campuses


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "study": (setup_study, study_op),
    "ingest": (setup_ingest, ingest_op),
    "report": (setup_report, report_op),
}


# -- measurement -----------------------------------------------------------

@dataclass
class _Tally:
    attempted: int = 0
    failed: int = 0
    #: campus label -> report+outcomes digest of its first good run
    digests: Dict[str, str] = field(default_factory=dict)
    reports: Dict[str, str] = field(default_factory=dict)
    #: (campus label, host-normalized seconds) of each good operation
    times: List[Tuple[str, float]] = field(default_factory=list)
    rss: List[float] = field(default_factory=list)
    clock: cp.HostClock = field(default_factory=cp.HostClock)
    results: List[Tuple[Campus, OpResult]] = field(default_factory=list)


def _run_one(campus: Campus, op: Callable, tally: _Tally) -> None:
    """Run one operation, timing it and checking its output."""
    cp.quiesce()
    cp.reset_peak_rss()
    tally.attempted += 1
    try:
        elapsed, result = tally.clock.timed(lambda: op(campus))
    except Exception as error:  # noqa: BLE001 - counted, not fatal
        tally.failed += 1
        print(f"perfbench: {campus.label} failed: {error!r}",
              file=sys.stderr)
        return
    rss = cp.peak_rss_mb()
    digest = cp.sha256_text(result.report, result.outcomes)
    problems = []
    if (campus.expected_report is not None
            and result.report != campus.expected_report):
        problems.append("report differs from the other path's")
    if tally.digests.setdefault(campus.label, digest) != digest:
        problems.append("report/outcomes differ between repetitions")
    if problems:
        tally.failed += 1
        print(f"perfbench: {campus.label}: {'; '.join(problems)}",
              file=sys.stderr)
        return
    tally.reports.setdefault(campus.label, result.report)
    tally.times.append((campus.label, elapsed))
    tally.rss.append(rss)
    tally.results.append((campus, result))


def _passes(campuses: List[Campus], op: Callable, seconds: float,
            tally: _Tally) -> float:
    """Whole passes over the campuses, at least :data:`MIN_PASSES`, until
    ``seconds`` have passed.

    Every campus runs equally often whatever the program's speed, so
    the figures of a faster and a slower commit weigh the same mix.
    """
    started = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        for campus in campuses:
            _run_one(campus, op, tally)
        passes += 1
    return time.perf_counter() - started


def _end_to_end(tally: _Tally, elapsed: float,
                setup_times: List[float]) -> Dict[str, float]:
    per_campus: Dict[str, List[float]] = {}
    for label, seconds in tally.times:
        per_campus.setdefault(label, []).append(seconds)
    all_times = [seconds for _, seconds in tally.times] or [elapsed]
    # Medians over campuses are robust to the heavy-tailed campuses, and
    # do not depend on how many passes fit in the window.
    campus_times = [cp.median(v) for v in per_campus.values()] or [elapsed]
    return {
        "setup_s": cp.median(setup_times),
        "wall_s": cp.median(campus_times),
        "p50_ms": 1000.0 * cp.median(all_times),
        "tail_ms": 1000.0 * cp.percentile(campus_times, TAIL_PERCENTILE),
        "ops_per_s": len(all_times) / sum(all_times),
        "peak_rss_mb": cp.median(tally.rss) if tally.rss else
        cp.peak_rss_mb(),
        "success_ratio": 1.0 - tally.failed / max(tally.attempted, 1),
    }


def _input_sizes(campuses: List[Campus], tally: _Tally) -> Dict[str, int]:
    sizes: Dict[str, int] = {}
    seen = set()
    for campus, result in tally.results:
        if campus.label in seen:
            continue
        seen.add(campus.label)
        own = campus.sizes or _sizes(campus.config, result.stats,
                                     result.flows)
        for key, value in own.items():
            sizes[key] = sizes.get(key, 0) + value
    sizes["campuses"] = len(campuses)
    return sizes


def _layer_metrics(tracer: Tracer, tally: _Tally, ops: int,
                   traced_total: float, untraced_total: float,
                   ) -> Dict[str, float]:
    """Per-operation layer figures from one traced pass."""
    from repro.pipeline.pipeline import PipelineStats

    metrics = layers.layer_metrics(tracer, ops, traced_total,
                                   untraced_total / ops)
    results = [result for _, result in tally.results]
    stats = PipelineStats.merged(result.stats for result in results)
    flows = sum(result.flows for result in results)
    if flows:
        metrics["pipeline.attribution_rate"] = stats.attribution_rate
        metrics["pipeline.anon_cache_hit_rate"] = stats.anon_cache_hit_rate
    metrics["pipeline.flows_out"] = flows / ops
    metrics["pipeline.records_quarantined"] = stats.records_quarantined / ops
    if metrics["io.records_read"]:
        metrics["io.records_quarantined"] = metrics[
            "pipeline.records_quarantined"]
    metrics["analysis.context_builds"] = sum(
        result.context_builds for result in results) / ops
    return metrics


def run(name: str, ctx: Any) -> Dict[str, Any]:
    """Set up, measure and check one batch workload."""
    setup, op = WORKLOADS[name]
    setup_clock = cp.HostClock()
    campuses = setup(ctx, setup_clock)
    setup_times = setup_clock.scaled
    tally = _Tally()
    info: Dict[str, Any] = {"setup_runs": len(setup_times)}
    if not ctx.trace:
        elapsed = _passes(campuses, op, ctx.seconds, tally)
        metrics = _end_to_end(tally, elapsed, setup_times)
    else:
        for campus in campuses:
            _run_one(campus, op, tally)
        untraced_total = sum(tally.clock.raw)
        traced = _Tally(digests=dict(tally.digests))
        tracer = Tracer(run_id=f"{name}-{ctx.seed}")
        with tracer.installed(layers.targets()):
            for campus in campuses:
                before = len(traced.results)
                _run_one(campus, op, traced)
                if len(traced.results) > before:
                    tracer.count("io.bytes_read", campus.input_bytes)
        traced_total = sum(traced.clock.raw)
        metrics = _layer_metrics(tracer, traced, len(campuses),
                                 traced_total, untraced_total)
        tracer.write_spans(os.path.join(ctx.outdir,
                                        f"{name}-seed{ctx.seed}.spans.jsonl"))
        info["spans"] = len(tracer.spans)
        tally.attempted += traced.attempted
        tally.failed += traced.failed
    info["sizes"] = _input_sizes(campuses, tally)
    info["samples"] = len(tally.times)
    info["campus_s"] = {label: cp.median([t for name, t in tally.times
                                          if name == label])
                        for label in sorted({n for n, _ in tally.times})}
    info["setup_raw_s"] = setup_clock.raw
    info["setup_scaled_s"] = setup_times
    info["raw_op_seconds_median"] = cp.median(tally.clock.raw or [0.0])
    info["kernel_seconds_median"] = cp.median(tally.clock.kernels or [0.0])
    info["report_sha256"] = cp.sha256_text(
        *[tally.reports.get(c.label, "") for c in campuses])
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "info": info}
