"""The layer boundaries the traced run records, and its metric names.

Each :class:`~perfbench.tracing.Target` names a public callable of one
``repro`` layer; the span name's prefix is the layer (``synth``,
``pipeline``, ``columnar`` ...) and ``<span>_s`` is the layer metric
holding its self time.  Counts are read at the same boundaries.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from perfbench.tracing import EACH, EAGER, Target


def _day_trace_counts(trace: Any) -> Dict[str, float]:
    return {"synth.sessions": trace.session_count,
            "synth.connections": trace.connection_count,
            "synth.bursts": len(trace.bursts),
            "dhcp.records": len(trace.dhcp_records),
            "dns.records": len(trace.dns_records)}


def _day_files_counts(day: Any) -> Dict[str, float]:
    return {"io.records_read": (len(day.dhcp_records)
                                + len(day.dns_records) + len(day.bursts))}


def targets() -> List[Target]:
    """Every patch point, across all layers a workload may call."""
    import repro.analysis.expectations as expectations
    import repro.core.report as core_report
    import repro.core.study as study
    import repro.io.tracedir as tracedir
    import repro.pipeline.store as pstore
    import repro.pipeline.visitors as visitors
    import repro.serve.server as server
    import repro.serve.service as service
    import repro.serve.store as sstore
    import repro.synth.generator as generator
    from repro.columnar.batch import BurstBatch
    from repro.columnar.dnsindex import ColumnarDnsIndex
    from repro.columnar.engine import ColumnarFlowEngine
    from repro.columnar.ingest import BatchRegistrar
    from repro.columnar.leases import ColumnarLeaseIndex
    from repro.devices.classifier import DeviceClassifier
    from repro.dhcp.server import DhcpServer
    from repro.dns.resolver import SyntheticResolver
    from repro.geo.international import InternationalClassifier
    from repro.pipeline.pipeline import MonitoringPipeline
    from repro.synth.wiregen import WireGenerator
    from repro.util.rng import RngFactory
    from repro.world.geo import GeoDatabase

    return [
        # synth (+ the DHCP server and DNS resolver it drives)
        Target(generator.CampusTraceGenerator, "__init__",
               "synth.generator_init"),
        Target(generator.CampusTraceGenerator, "generate_day",
               "synth.generate_day", counts=_day_trace_counts),
        Target(generator, "sample_day_sessions", "synth.sample_sessions",
               mode=EAGER),
        Target(WireGenerator, "expand_session", "synth.expand_session"),
        Target(RngFactory, "stream", "synth.rng_stream"),
        Target(DhcpServer, "acquire", "dhcp.acquire"),
        Target(SyntheticResolver, "resolve", "dns.resolve"),
        # io
        Target(tracedir, "iter_trace_days", "io.read_day", mode=EACH,
               counts=_day_files_counts),
        # pipeline
        Target(MonitoringPipeline, "ingest_day", "pipeline.ingest_day"),
        Target(MonitoringPipeline, "finalize", "pipeline.finalize"),
        Target(study, "visitor_filter_mask", "pipeline.visitor_filter"),
        Target(visitors, "apply_visitor_filter",
               "pipeline.visitor_filter"),
        Target(pstore, "load_dataset", "pipeline.store_load"),
        Target(pstore, "save_dataset", "pipeline.store_save"),
        # columnar
        Target(BurstBatch, "from_bursts", "columnar.from_bursts"),
        Target(ColumnarFlowEngine, "process_batch",
               "columnar.process_batch"),
        Target(ColumnarFlowEngine, "flush_batch", "columnar.process_batch"),
        Target(ColumnarLeaseIndex, "ingest", "columnar.lease_join"),
        Target(ColumnarLeaseIndex, "mac_ids_at", "columnar.lease_join"),
        Target(ColumnarLeaseIndex, "mac_ids_at_stale",
               "columnar.lease_join"),
        Target(ColumnarDnsIndex, "ingest_batch", "columnar.dns_join"),
        Target(ColumnarDnsIndex, "domain_ids_at", "columnar.dns_join"),
        Target(ColumnarDnsIndex, "domain_ids_at_degraded",
               "columnar.dns_join"),
        Target(BatchRegistrar, "register", "columnar.register"),
        # world / geo / devices
        Target(GeoDatabase, "lookup", "world.geo_lookup"),
        Target(InternationalClassifier, "classify", "geo.classify"),
        Target(DeviceClassifier, "classify", "devices.classify"),
        # core orchestration and analysis
        Target(study.LockdownStudy, "run", "core.study_run"),
        Target(study.LockdownStudy, "artifacts_from_dataset",
               "core.artifacts_from_dataset"),
        Target(study.StudyArtifacts, "compute_all", "analysis.compute_all"),
        *[Target(study.StudyArtifacts, f"fig{n}", f"analysis.fig{n}")
          for n in range(1, 9)],
        Target(study.StudyArtifacts, "summary", "analysis.summary"),
        Target(study.AnalysisContext, "stitch", "analysis.stitch"),
        Target(expectations, "evaluate_all", "analysis.evaluate_all"),
        Target(core_report, "render_full_report", "core.render_report"),
        # serve
        Target(server._Handler, "do_GET", "serve.request"),
        Target(sstore.ArtifactStore, "get", "serve.store_get"),
        Target(sstore.ArtifactStore, "put", "serve.store_put"),
        Target(service.StudyService, "query", "serve.query"),
        Target(service, "artifact_payload", "serve.payload"),
        Target(expectations, "outcomes_payload", "serve.payload"),
        # reliability: the atomic-write chokepoint behind every store put
        Target(sstore, "write_text", "reliability.atomic_write"),
    ]


#: Layer spans whose self time is reported as ``<span>_s``.
SPANS: Tuple[str, ...] = (
    "synth.generator_init", "synth.generate_day", "synth.sample_sessions",
    "synth.expand_session", "synth.rng_stream", "dhcp.acquire",
    "dns.resolve", "io.read_day", "pipeline.ingest_day",
    "pipeline.finalize", "pipeline.visitor_filter", "pipeline.store_load",
    "pipeline.store_save", "columnar.from_bursts",
    "columnar.process_batch", "columnar.lease_join", "columnar.dns_join",
    "columnar.register", "world.geo_lookup", "geo.classify",
    "devices.classify", "core.study_run", "core.artifacts_from_dataset",
    "analysis.compute_all", "analysis.fig1", "analysis.fig2",
    "analysis.fig3", "analysis.fig4", "analysis.fig5", "analysis.fig6",
    "analysis.fig7", "analysis.fig8", "analysis.summary",
    "analysis.stitch", "analysis.evaluate_all", "core.render_report",
    "serve.request", "serve.store_get", "serve.store_put", "serve.query",
    "serve.payload", "reliability.atomic_write",
)

#: Call counts of spans, reported under their own names.
CALL_COUNTS: Dict[str, str] = {
    "synth.rng_streams": "synth.rng_stream",
    "dhcp.acquires": "dhcp.acquire",
    "dns.resolves": "dns.resolve",
    "world.geo_lookups": "world.geo_lookup",
    "serve.store_gets": "serve.store_get",
    "serve.store_puts": "serve.store_put",
    "reliability.atomic_writes": "reliability.atomic_write",
}

#: Counts and ratios the workloads read at layer boundaries.
COUNTS: Tuple[Tuple[str, str], ...] = (
    ("synth.sessions", "count"), ("synth.connections", "count"),
    ("synth.bursts", "count"), ("dhcp.records", "count"),
    ("dns.records", "count"), ("io.records_read", "count"),
    ("io.bytes_read", "bytes"), ("io.records_quarantined", "count"),
    ("pipeline.flows_out", "count"), ("pipeline.attribution_rate", "ratio"),
    ("pipeline.anon_cache_hit_rate", "ratio"),
    ("pipeline.records_quarantined", "count"),
    ("analysis.context_builds", "count"), ("serve.studies_run", "count"),
    ("serve.artifacts_served", "count"),
    ("serve.artifacts_computed", "count"),
    ("serve.requests_coalesced", "count"), ("serve.requests_shed", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.compute_lateness_ms", "ms"),
)

#: Whole-run figures of the traced run itself.
TRACE: Tuple[Tuple[str, str], ...] = (
    ("other_s", "s"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {f"{span}_s": "s" for span in SPANS}
    units.update({name: "count" for name in CALL_COUNTS})
    units.update(dict(COUNTS))
    units.update(dict(TRACE))
    return units


def layer_metrics(tracer: Any, ops: int, traced_total: float,
                  untraced_per_op: float) -> Dict[str, float]:
    """Every per-layer metric from one traced run, per operation.

    Self times, call counts and boundary counts are divided by ``ops``;
    metrics nothing recorded stay 0.  ``traced_total`` is the traced
    operations' wall time, ``untraced_per_op`` the same operations'
    mean wall time without tracing.
    """
    metrics = {name: 0.0 for name in per_layer_units()}
    for span in SPANS:
        metrics[f"{span}_s"] = tracer.self_time.get(span, 0.0) / ops
    for name, span in CALL_COUNTS.items():
        metrics[name] = tracer.calls.get(span, 0) / ops
    for name, value in tracer.counts.items():
        metrics[name] = value / ops
    covered = sum(tracer.self_time.values())
    metrics["trace.wall_s"] = traced_total / ops
    metrics["trace.untraced_wall_s"] = untraced_per_op
    metrics["trace.overhead_s"] = traced_total / ops - untraced_per_op
    metrics["other_s"] = (traced_total - covered) / ops
    metrics["trace.coverage"] = covered / max(traced_total, 1e-9)
    return metrics

