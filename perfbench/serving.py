"""The ``serve`` workload: ``repro serve`` under reads beside computes.

Set-up fills a fresh artifact store: :data:`STORED` campuses are
computed and stored (every artifact); the campuses of the open loop get
meta-only entries, so a ``?compute=1`` request for them is a cold miss.  Then a
``python -m repro serve --port 0`` process is started on the store.

One load-generator process drives it over two connections:

* **reads** -- a closed loop of ``GET /artifacts/<fp>/<name>`` store
  hits in a seeded order over every stored artifact, as callers such as
  ``repro query`` wait for each reply;
* **computes** -- an open loop, one request every
  :data:`COMPUTE_INTERVAL` seconds, of ``?compute=1`` cold misses.  Each
  runs a study and backfills ten envelopes through atomic writes.
  Latency is timed from when the request was due, so a stall also
  charges the requests queued behind it.

A change that speeds hits but stalls the server while it computes
shows up in the read tail.  Every run starts from the same store state.
The window is cut into one-second segments; between two, both loops
stop while the host's speed is timed (:func:`drive_segmented`).

Every 200 reply is checked: a read's payload must equal what set-up
stored, a compute's must equal what a cold compute of its config
yields in this process.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import os
import random
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from perfbench import campus as cp
from perfbench import layers
from perfbench.tracing import Tracer

#: Campuses computed into the store at set-up (the read targets), and
#: the benchmark seed all campuses of this workload are taken from.
STORED = 8
CAMPUS_SEED = 0
#: Students per campus of the cold computes, and seconds between them;
#: a compute takes well under half the interval.
COMPUTE_STUDENTS = 1
COMPUTE_INTERVAL = 0.4
SETUP_REPEATS = 3
#: The traffic window is cut into segments this long.  Between two,
#: both loops stop and :data:`IDLE_KERNELS` kernel runs time the host.
SEGMENT_SECONDS = 1.0
IDLE_KERNELS = 10
READ_TIMEOUT = 10.0
COMPUTE_TIMEOUT = 60.0
START_TIMEOUT = 30.0


@dataclass
class _Stream:
    """Outcome of one request stream."""

    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    lateness: List[float] = field(default_factory=list)
    #: (fingerprint, name, payload) of each good compute reply
    computed: List[Tuple[str, str, Any]] = field(default_factory=list)
    elapsed: float = 0.0


def _get(port: int, path: str, timeout: float) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _fail(stream: _Stream, message: str, latency: float) -> None:
    """A failed request counts against the stream and misses every
    latency figure (it is charged the stream's timeout)."""
    stream.failed += 1
    stream.latencies.append(latency)
    print(f"perfbench: serve: {message}", file=sys.stderr)


#: What decoding a 200 reply that is not an artifact envelope raises.
BAD_BODY = (ValueError, KeyError, TypeError)


def _payload(body: bytes) -> Any:
    return json.loads(body.decode("utf-8"))["payload"]


def read_loop(port: int, targets: List[Tuple[str, str]],
              expected: Dict[Tuple[str, str], Any], stop_at: float,
              stream: _Stream) -> None:
    """Closed loop: the next read is sent when the previous one is done."""
    started = time.perf_counter()
    index = 0
    try:
        while time.perf_counter() < stop_at:
            fingerprint, name = targets[index % len(targets)]
            index += 1
            stream.attempted += 1
            sent = time.perf_counter()
            try:
                status, body = _get(port, f"/artifacts/{fingerprint}/{name}",
                                    READ_TIMEOUT)
            except OSError as error:
                _fail(stream, f"read {name}: {error!r}", READ_TIMEOUT)
                continue
            latency = time.perf_counter() - sent
            if status != 200:
                _fail(stream, f"read {name}: HTTP {status}", READ_TIMEOUT)
                continue
            try:
                good = _payload(body) == expected[(fingerprint, name)]
            except BAD_BODY as error:
                _fail(stream, f"read {name}: not an envelope: {error!r}",
                      READ_TIMEOUT)
                continue
            if not good:
                _fail(stream, f"read {name}: payload differs from the "
                              f"stored one", READ_TIMEOUT)
            else:
                stream.latencies.append(latency)
    finally:
        stream.elapsed = time.perf_counter() - started


def compute_loop(port: int, plan: List[Tuple[str, str]], started: float,
                 stop_at: float, stream: _Stream) -> None:
    """Open loop: request ``i`` is due at ``started + i * interval``."""
    try:
        for index, (fingerprint, name) in enumerate(plan):
            due = started + index * COMPUTE_INTERVAL
            if due >= stop_at:
                break
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            stream.lateness.append(max(0.0, time.perf_counter() - due))
            stream.attempted += 1
            try:
                status, body = _get(
                    port, f"/artifacts/{fingerprint}/{name}?compute=1",
                    COMPUTE_TIMEOUT)
            except OSError as error:
                _fail(stream, f"compute {name}: {error!r}", COMPUTE_TIMEOUT)
                continue
            latency = time.perf_counter() - due
            if status != 200:
                _fail(stream, f"compute {name}: HTTP {status}",
                      COMPUTE_TIMEOUT)
                continue
            try:
                payload = _payload(body)
            except BAD_BODY as error:
                _fail(stream, f"compute {name}: not an envelope: {error!r}",
                      COMPUTE_TIMEOUT)
                continue
            stream.latencies.append(latency)
            stream.computed.append((fingerprint, name, payload))
    finally:
        stream.elapsed = time.perf_counter() - started


def _guarded(loop: Any, stream: _Stream, *args: Any) -> None:
    """Run a request loop; an exception that escapes it fails the request
    in flight instead of ending the stream unnoticed."""
    try:
        loop(*args, stream)
    except Exception as error:  # noqa: BLE001 - counted, then reported
        stream.attempted = max(stream.attempted, stream.failed + 1)
        stream.failed += 1
        print(f"perfbench: serve: {loop.__name__} stopped: {error!r}",
              file=sys.stderr)


# -- set-up -----------------------------------------------------------------

@dataclass
class _Store:
    root: str
    expected: Dict[Tuple[str, str], Any]
    fresh: List[Tuple[str, Any]]


def fill_store(root: str, stored: List[Any], fresh: List[Any]) -> _Store:
    """Compute ``stored`` into a new store; meta-only entries for ``fresh``."""
    from repro.serve.fingerprint import fingerprint_payload, study_fingerprint
    from repro.serve.service import DEFAULT_SCENARIO, StudyService
    from repro.serve.store import ArtifactStore

    store = ArtifactStore(root)
    service = StudyService(store)
    expected: Dict[Tuple[str, str], Any] = {}
    for config in stored:
        fingerprint = service.query(config).fingerprint
        for name in store.artifact_names(fingerprint):
            expected[(fingerprint, name)] = store.get(fingerprint, name)
    entries = []
    for config in fresh:
        fingerprint = study_fingerprint(config)
        store.put_meta(fingerprint, {
            "fingerprint": fingerprint, "scenario": DEFAULT_SCENARIO,
            "config": config.to_payload(),
            "fingerprinted": fingerprint_payload(config)})
        entries.append((fingerprint, config))
    return _Store(root=root, expected=expected, fresh=entries)


class ServerProcess:
    """``python -m repro serve --port 0`` on a store, stopped on close."""

    def __init__(self, store_root: str, log_path: str) -> None:
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store_root,
             "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.port = self._await_port()
        except BaseException:
            self.close()
            raise

    def _await_port(self) -> int:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=START_TIMEOUT):
                raise RuntimeError("repro serve did not start in time")
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("listening on http://"):
            raise RuntimeError(f"unexpected repro serve output {line!r}")
        return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return cp.peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        """SIGTERM (graceful drain), then kill if it lingers; always reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def idle_kernels() -> List[float]:
    """Kernel times taken while the server and the load generator are
    idle, so the program's own CPU use does not enter the host speed."""
    return [cp.kernel_seconds() for _ in range(IDLE_KERNELS)]


# -- run --------------------------------------------------------------------

def _plan(filled: _Store, seed: int,
          ) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
    """The seeded read order over stored artifacts, and the artifact each
    fresh campus's cold compute asks for."""
    rng = random.Random(seed)
    targets = sorted(filled.expected)
    rng.shuffle(targets)
    names = sorted({name for _, name in targets})
    return targets, [(fingerprint, rng.choice(names))
                     for fingerprint, _ in filled.fresh]


def _drive(port: int, targets: List[Tuple[str, str]],
           expected: Dict[Tuple[str, str], Any],
           plan: List[Tuple[str, str]], seconds: float,
           ) -> Tuple[_Stream, _Stream]:
    """Both request loops against ``port`` for ``seconds``."""
    reads, computes = _Stream(), _Stream()
    started = time.perf_counter()
    stop_at = started + seconds
    threads = [
        threading.Thread(target=_guarded, name="perfbench-reads",
                         args=(read_loop, reads, port, targets, expected,
                               stop_at)),
        threading.Thread(target=_guarded, name="perfbench-computes",
                         args=(compute_loop, computes, port, plan, started,
                               stop_at)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + COMPUTE_TIMEOUT + READ_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    return reads, computes


def _segments(seconds: float) -> List[float]:
    count = max(1, round(seconds / SEGMENT_SECONDS))
    return [seconds / count] * count


def _merge(into: _Stream, part: _Stream) -> None:
    """Add a segment's outcome to ``into``."""
    into.latencies += part.latencies
    into.attempted += part.attempted
    into.failed += part.failed
    into.lateness += part.lateness
    into.computed += part.computed
    into.elapsed += part.elapsed


def _rescale(stream: _Stream, scale: float) -> _Stream:
    return dataclasses.replace(
        stream, latencies=[scale * latency for latency in stream.latencies],
        elapsed=scale * stream.elapsed)


def drive_segmented(port: int, filled: _Store, seed: int, seconds: float,
                    ) -> Tuple[_Stream, _Stream, Dict[str, Any]]:
    """Drive the server for ``seconds``, cut into segments, and rescale
    the times to the reference host.

    Between two segments both loops have stopped, so the kernel is timed
    on an idle host, and the program's own CPU use does not enter the
    host speed.  The host flips between a fast and a slow state within
    a second, so the kernel runs at the boundaries sample the share of
    time it spent slow; the window's scale is the reference kernel time
    over the mean of the boundaries' median kernel times.  Reads go on
    through the seeded order and computes through the plan from one
    segment to the next.  The measured times go to the returned record.
    """
    targets, plan = _plan(filled, seed)
    reads, computes = _Stream(), _Stream()
    boundaries = [cp.median(idle_kernels())]
    for length in _segments(seconds):
        offset = reads.attempted % len(targets)
        part_reads, part_computes = _drive(
            port, targets[offset:] + targets[:offset], filled.expected,
            plan[computes.attempted:], length)
        boundaries.append(cp.median(idle_kernels()))
        _merge(reads, part_reads)
        _merge(computes, part_computes)
    scale = cp.KERNEL_REFERENCE_S * len(boundaries) / sum(boundaries)
    raw = _end_to_end(reads, computes, 0.0, 0.0, 0, 1)
    record = {"boundary_kernels_s": boundaries, "scale": scale,
              "raw_mean_s": (sum(reads.latencies) + sum(computes.latencies))
              / max(1, len(reads.latencies) + len(computes.latencies)),
              **{f"raw_{name}": raw[name]
                 for name in ("wall_s", "p50_ms", "tail_ms", "ops_per_s")}}
    return _rescale(reads, scale), _rescale(computes, scale), record


def _health(port: int) -> Dict[str, Any]:
    status, body = _get(port, "/health", READ_TIMEOUT)
    if status != 200:
        raise RuntimeError(f"/health answered {status}")
    return json.loads(body.decode("utf-8"))["resilience"]


def _verify_computes(computes: _Stream, filled: _Store,
                     workdir: str) -> int:
    """Cold-compute every computed config here; count payload mismatches."""
    from repro.serve.service import StudyService
    from repro.serve.store import ArtifactStore

    configs = dict(filled.fresh)
    mismatches = 0
    for index, (fingerprint, name, payload) in enumerate(computes.computed):
        root = os.path.join(workdir, f"verify{index}")
        result = StudyService(ArtifactStore(root)).query(
            configs[fingerprint], names=(name,))
        expected = json.loads(json.dumps(result.payloads[name]))
        if payload != expected:
            mismatches += 1
            print(f"perfbench: serve: computed {name} differs from a cold "
                  f"compute of its config", file=sys.stderr)
        shutil.rmtree(root, ignore_errors=True)
    return mismatches


def _configs(seconds: float) -> Tuple[List[Any], List[Any]]:
    """The stored campuses and the smaller campuses the open loop computes.

    Both are taken from benchmark seed :data:`CAMPUS_SEED`, whatever the
    seed: the stored ones are that seed's first batch campuses.  Per-campus
    work is heavy-tailed, so campuses that changed with the seed would
    make set-up, read and compute times swing with it.  The seed orders
    the reads and picks the artifact each compute asks for.
    """
    per_segment = max(math.ceil(length / COMPUTE_INTERVAL)
                      for length in _segments(seconds))
    fresh = max(len(_segments(seconds)) * per_segment,
                int(seconds // COMPUTE_INTERVAL) + 1)
    return (cp.campus_configs(CAMPUS_SEED, STORED),
            cp.campus_configs(CAMPUS_SEED, fresh, students=COMPUTE_STUDENTS,
                              first=STORED))


def _setup(ctx: Any, stored: List[Any], fresh: List[Any],
           ) -> Tuple[_Store, ServerProcess, Dict[str, Any]]:
    """Fill the store, then start a server on it several times.

    Set-up time is the fill plus the median server start, each timed
    between two kernel runs (:class:`~perfbench.campus.HostClock`); the
    last server started is kept.
    """
    root = os.path.join(ctx.workdir, "store")
    clock = cp.HostClock()
    fill, filled = clock.timed(lambda: fill_store(root, stored, fresh))
    starts: List[float] = []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.close()
                server = None
            log = os.path.join(ctx.workdir, f"serve{attempt}.log")
            elapsed, server = clock.timed(lambda: ServerProcess(root, log))
            starts.append(elapsed)
    except BaseException:
        if server is not None:
            server.close()
        raise
    return filled, server, {"fill_s": fill, "server_start_s": starts,
                            "setup_raw_s": clock.raw,
                            "setup_s": fill + cp.median(starts)}


def _end_to_end(reads: _Stream, computes: _Stream, setup: float,
                rss: float, failed: int, attempted: int) -> Dict[str, float]:
    """End-to-end figures from streams whose times are already rescaled.

    ``wall_s`` is the mean cold-compute latency: with a few dozen
    computes per run, the mean varies less from run to run than the
    median.
    """
    lat = reads.latencies or [READ_TIMEOUT]
    compute = computes.latencies or [COMPUTE_TIMEOUT]
    return {
        "setup_s": setup,
        "wall_s": sum(compute) / len(compute),
        "p50_ms": 1000.0 * cp.median(lat),
        "tail_ms": 1000.0 * cp.percentile(lat, 99.0),
        "ops_per_s": (len(reads.latencies) - reads.failed)
        / max(reads.elapsed, 1e-9),
        "peak_rss_mb": rss,
        "success_ratio": 1.0 - failed / max(attempted, 1),
    }


def _traced(ctx: Any, stored: List[Any], fresh: List[Any],
            untraced_mean: float) -> Tuple[Dict[str, float], _Stream,
                                           _Stream, _Store]:
    """The same traffic against an in-process server, every layer traced.

    ``untraced_mean`` is the untraced run's mean request latency, as
    measured (not rescaled), for the tracing overhead.
    """
    from repro.serve.server import ArtifactServer
    from repro.serve.store import ArtifactStore

    root = os.path.join(ctx.workdir, "store-traced")
    filled = fill_store(root, stored, fresh)
    targets, plan = _plan(filled, ctx.seed)
    tracer = Tracer(run_id=f"serve-{ctx.seed}")
    with tracer.installed(layers.targets()):
        server = ArtifactServer(ArtifactStore(root), port=0)
        server.start_background()
        try:
            reads, computes = _drive(server.address[1], targets,
                                     filled.expected, plan, ctx.seconds)
            health = _health(server.address[1])
        finally:
            server.shutdown()
    tracer.write_spans(os.path.join(ctx.outdir,
                                    f"serve-seed{ctx.seed}.spans.jsonl"))

    ops = max(1, len(reads.latencies) + len(computes.latencies))
    traced_total = sum(reads.latencies) + sum(computes.latencies)
    metrics = layers.layer_metrics(tracer, ops, traced_total, untraced_mean)
    for name in ("studies_run", "artifacts_served", "artifacts_computed",
                 "requests_coalesced", "requests_shed"):
        metrics[f"serve.{name}"] = health[name] / ops
    metrics["serve.queue_high_water"] = health["queue_high_water"]
    metrics["serve.compute_lateness_ms"] = 1000.0 * cp.median(
        computes.lateness or [0.0])
    return metrics, reads, computes, filled


def run(ctx: Any) -> Dict[str, Any]:
    """Set up, drive and check the ``serve`` workload."""
    stored, fresh = _configs(ctx.seconds)
    filled, server, setup = _setup(ctx, stored, fresh)
    try:
        reads, computes, raw = drive_segmented(server.port, filled,
                                               ctx.seed, ctx.seconds)
        health = _health(server.port)
        rss = server.peak_rss_mb()
    finally:
        server.close()
    attempted = reads.attempted + computes.attempted
    failed = (reads.failed + computes.failed
              + _verify_computes(computes, filled, ctx.workdir))
    info: Dict[str, Any] = {
        "server_starts": SETUP_REPEATS,
        "reads": len(reads.latencies), "computes": len(computes.latencies),
        "compute_s": computes.latencies,
        "compute_lateness_ms": [1000.0 * x for x in computes.lateness],
        "health": health,
        "sizes": {"campuses": len(stored) + len(fresh),
                  "students": sum(c.n_students for c in stored + fresh),
                  "stored_artifacts": len(filled.expected)},
        **raw, **setup,
    }
    if not ctx.trace:
        metrics = _end_to_end(reads, computes, setup["setup_s"], rss,
                              failed, attempted)
    else:
        metrics, t_reads, t_computes, t_filled = _traced(
            ctx, stored, fresh, raw["raw_mean_s"])
        attempted += t_reads.attempted + t_computes.attempted
        failed += (t_reads.failed + t_computes.failed
                   + _verify_computes(t_computes, t_filled, ctx.workdir))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "info": info}
