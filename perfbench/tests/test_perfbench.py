"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/tests -q

The smoke runs shrink the seeded input (two campuses of four students)
so every workload finishes in seconds; the checks below corrupt one
output at a time and assert that the benchmark counts it as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import batch, campus, layers, run, serving  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink the seeded input to two four-student campuses."""
    monkeypatch.setattr(campus, "CAMPUSES", 2)
    monkeypatch.setattr(campus, "CAMPUS_STUDENTS", 4)
    monkeypatch.setattr(batch, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serving, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serving, "STORED", 1)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fileobj:
        return json.load(fileobj)


def _run(capsys, workload, seed=3, seconds=1.0, trace=0):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[-2].split()[-1]


def test_spec_names_every_emitted_metric():
    spec = _spec()
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(small, capsys, workload):
    spec = _spec()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = _run(capsys, workload, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[group]}
        assert {name: value["unit"]
                for name, value in result["metrics"].items()} == expected
        if group == "end_to_end":
            assert all(value["value"] > 0
                       for value in result["metrics"].values())


def test_batch_paths_yield_byte_identical_reports(small, capsys):
    digests = {workload: _run(capsys, workload, seed=5)[1]
               for workload in ("study", "ingest", "report")}
    assert len(set(digests.values())) == 1, digests


def test_traced_batch_covers_its_wall_time(small, capsys):
    result, _ = _run(capsys, "study", trace=1)
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95


# -- each output check trips on a corrupted output ---------------------------

def _fixed_op(reports):
    calls = iter(reports)

    def op(_campus):
        return batch.OpResult(report=next(calls), outcomes="[]",
                              stats=None, flows=0, context_builds=0)
    return op


def test_report_check_trips_on_one_changed_byte():
    good = "figure report\n"
    target = batch.Campus(label="c", config=None, expected_report=good)
    tally = batch._Tally()
    batch._run_one(target, _fixed_op([good]), tally)
    assert tally.failed == 0
    bad = good.replace("f", "F", 1)
    batch._run_one(target, _fixed_op([bad]), tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_repetition_check_trips_when_a_rerun_differs():
    target = batch.Campus(label="c", config=None)
    tally = batch._Tally()
    op = _fixed_op(["one\n", "one\n", "One\n"])
    for _ in range(3):
        batch._run_one(target, op, tally)
    assert (tally.attempted, tally.failed) == (3, 1)


def test_batch_runs_whole_passes_only():
    campuses = [batch.Campus(label=f"c{i}", config=None) for i in range(3)]
    tally = batch._Tally()
    batch._passes(campuses, _fixed_op(["r\n"] * 1000), 0.0, tally)
    assert tally.attempted == batch.MIN_PASSES * len(campuses)
    tally = batch._Tally()
    batch._passes(campuses, _fixed_op(["r\n"] * 1000), 0.3, tally)
    assert tally.attempted % len(campuses) == 0


@pytest.fixture
def served_store(small, tmp_path):
    from repro.serve.server import ArtifactServer
    from repro.serve.store import ArtifactStore

    stored, fresh = campus.campus_configs(9, 2)[:1], []
    filled = serving.fill_store(str(tmp_path / "store"), stored, fresh)
    server = ArtifactServer(ArtifactStore(filled.root), port=0)
    server.start_background()
    try:
        yield filled, server.address[1]
    finally:
        server.shutdown()


def _tamper(filled, fix_hash):
    from repro.serve.store import ArtifactStore, _payload_sha256

    fingerprint, name = sorted(filled.expected)[0]
    path = ArtifactStore(filled.root).entry_path(fingerprint, name)
    with open(path) as fileobj:
        envelope = json.load(fileobj)
    envelope["payload"] = {"tampered": True}
    if fix_hash:
        envelope["sha256"] = _payload_sha256(envelope["payload"])
    with open(path, "w") as fileobj:
        json.dump(envelope, fileobj)
    return fingerprint, name


@pytest.mark.parametrize("fix_hash", [False, True],
                         ids=["torn-envelope", "consistent-wrong-payload"])
def test_read_check_trips_on_a_tampered_envelope(served_store, fix_hash):
    filled, port = served_store
    target = _tamper(filled, fix_hash)
    stream = serving._Stream()
    serving.read_loop(port, [target], filled.expected,
                      time.perf_counter() + 0.5, stream)
    assert stream.attempted >= 1
    assert stream.failed == stream.attempted


def test_read_check_passes_an_untouched_store(served_store):
    filled, port = served_store
    stream = serving._Stream()
    serving.read_loop(port, sorted(filled.expected), filled.expected,
                      time.perf_counter() + 0.5, stream)
    assert stream.attempted >= 1 and stream.failed == 0


@pytest.fixture
def bad_body_server():
    """An HTTP server answering every GET with 200 and a given body."""
    import http.server
    import threading

    bodies = {}

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = bodies["body"]
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server.server_address[1], bodies
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.mark.parametrize("body", [b"not json", b'{"no": "payload"}',
                                  b"[1, 2]"],
                         ids=["not-json", "no-payload-key", "not-an-object"])
def test_a_200_reply_that_is_not_an_envelope_fails(bad_body_server, body):
    port, bodies = bad_body_server
    bodies["body"] = body
    target = ("f" * 64, "fig1")
    # Each loop counts the bad reply and goes on to the next request.
    reads = serving._Stream()
    serving.read_loop(port, [target], {target: {"x": 1}},
                      time.perf_counter() + 0.3, reads)
    assert reads.attempted >= 2 and reads.failed == reads.attempted
    assert reads.elapsed > 0
    computes = serving._Stream()
    started = time.perf_counter()
    serving.compute_loop(port, [target] * 2, started, started + 0.5,
                         computes)
    assert computes.attempted == 2 and computes.failed == 2
    assert computes.computed == [] and computes.elapsed > 0


def test_an_exception_escaping_a_loop_counts_as_failed():
    def broken(stream):
        stream.attempted += 1
        raise RuntimeError("boom")

    stream = serving._Stream()
    serving._guarded(broken, stream)
    assert (stream.attempted, stream.failed) == (1, 1)


def test_compute_check_trips_on_a_wrong_payload(small, tmp_path):
    from repro.serve.service import StudyService
    from repro.serve.store import ArtifactStore

    config = campus.campus_configs(4, 1)[0]
    filled = serving.fill_store(str(tmp_path / "store"), [], [config])
    fingerprint = filled.fresh[0][0]
    good = StudyService(ArtifactStore(str(tmp_path / "cold"))).query(
        config, names=("fig1",)).payloads["fig1"]
    good = json.loads(json.dumps(good))
    stream = serving._Stream(computed=[(fingerprint, "fig1", good)])
    assert serving._verify_computes(stream, filled, str(tmp_path)) == 0
    stream.computed.append((fingerprint, "fig1", {"wrong": 1}))
    assert serving._verify_computes(stream, filled, str(tmp_path)) == 1


# -- whole-command behaviour -------------------------------------------------

def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "_work",
                                                  "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_study_at_seed_7_passes_the_eval_baseline():
    """The committed eval-small golden baseline still holds at seed 7."""
    from repro.analysis.expectations import evaluate_all, outcomes_payload
    from repro.config import StudyConfig
    from repro.core.study import LockdownStudy
    from repro.serve.evaluate import REGRESSED, compare_to_baseline, \
        load_baseline
    from repro.serve.fingerprint import study_fingerprint

    config = StudyConfig.eval_scale(seed=7)
    artifacts = LockdownStudy(config).run()
    artifacts.compute_all()
    outcomes = outcomes_payload(evaluate_all(artifacts))["outcomes"]
    report = compare_to_baseline(
        load_baseline(os.path.join(ROOT, "baselines", "eval_small.json")),
        outcomes, artifacts.summary().metrics(),
        fingerprint=study_fingerprint(config))
    assert not [r for r in report.records if r.status == REGRESSED]
