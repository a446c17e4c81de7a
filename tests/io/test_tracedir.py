"""Tests for trace-directory export and replay."""

import gzip
import json
import os
from unittest import mock

import numpy as np
import pytest

from repro import StudyConfig
from repro.columnar.batch import BurstBatch
from repro.io.tracedir import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    burst_from_json,
    burst_to_json,
    export_traces,
    ingest_trace_dir,
    iter_trace_days,
    read_manifest,
)
from repro.net.wire import SegmentBurst
from repro.pipeline.pipeline import MonitoringPipeline
from repro.reliability.errors import CATEGORY_VALUE, RecordError
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import utc_ts

_CONFIG = StudyConfig(n_students=5, seed=31)


@pytest.fixture(scope="module")
def generated():
    generator = CampusTraceGenerator(_CONFIG)
    traces = list(generator.iter_days(utc_ts(2020, 2, 3),
                                      utc_ts(2020, 2, 6)))
    excluded = generator.plan.excluded_blocks(_CONFIG.excluded_operators)
    return traces, excluded


class TestBurstSerialization:
    def test_round_trip(self):
        burst = SegmentBurst(
            ts=12.5, client_ip=0x64400001, client_port=40123,
            server_ip=0x32000001, server_port=443, proto="udp",
            orig_bytes=111, resp_bytes=222,
            user_agent="Mozilla/5.0 (iPad)", is_final=True)
        assert burst_from_json(burst_to_json(burst)) == burst

    def test_optional_fields_omitted(self):
        burst = SegmentBurst(
            ts=1.0, client_ip=1, client_port=2, server_ip=3,
            server_port=4, proto="tcp", orig_bytes=5, resp_bytes=6)
        line = burst_to_json(burst)
        assert "ua" not in json.loads(line)
        assert burst_from_json(line) == burst


class TestExportAndReplay:
    def test_export_layout(self, generated, tmp_path):
        traces, _ = generated
        root = str(tmp_path / "traces")
        assert export_traces(traces, root) == 3
        manifest = read_manifest(root)
        assert manifest["days"] == ["2020-02-03", "2020-02-04",
                                    "2020-02-05"]
        for label in manifest["days"]:
            for name in ("wire.jsonl.gz", "dhcp.jsonl.gz", "dns.jsonl.gz"):
                assert os.path.exists(os.path.join(root, label, name))

    def test_round_trip_records(self, generated, tmp_path):
        traces, _ = generated
        root = str(tmp_path / "traces")
        export_traces(traces, root)
        replayed = list(iter_trace_days(root))
        assert len(replayed) == len(traces)
        for original, restored in zip(traces, replayed):
            assert restored.day_start == original.day_start
            assert restored.dhcp_records == original.dhcp_records
            assert restored.dns_records == original.dns_records
            assert restored.bursts == original.bursts

    def test_replay_equivalent_to_live_ingest(self, generated, tmp_path):
        traces, excluded = generated
        root = str(tmp_path / "traces")
        export_traces(traces, root)

        live = MonitoringPipeline(_CONFIG, excluded)
        for trace in traces:
            live.ingest_day(trace)
        live_dataset = live.finalize()

        replay = MonitoringPipeline(_CONFIG, excluded)
        assert ingest_trace_dir(replay, root) == 3
        replay_dataset = replay.finalize()

        assert len(replay_dataset) == len(live_dataset)
        assert np.array_equal(replay_dataset.ts, live_dataset.ts)
        assert np.array_equal(replay_dataset.total_bytes,
                              live_dataset.total_bytes)
        assert np.array_equal(replay_dataset.domain, live_dataset.domain)
        assert ([p.token for p in replay_dataset.devices]
                == [p.token for p in live_dataset.devices])

    def test_version_guard(self, generated, tmp_path):
        traces, _ = generated
        root = str(tmp_path / "traces")
        export_traces(traces, root)
        manifest_path = os.path.join(root, MANIFEST_NAME)
        with open(manifest_path) as fileobj:
            payload = json.load(fileobj)
        payload["format_version"] = FORMAT_VERSION + 1
        with open(manifest_path, "w") as fileobj:
            json.dump(payload, fileobj)
        with pytest.raises(ValueError):
            read_manifest(root)

    def test_extra_manifest_fields(self, generated, tmp_path):
        traces, _ = generated
        root = str(tmp_path / "traces")
        export_traces(traces, root, extra_manifest={"seed": 31})
        assert read_manifest(root)["seed"] == 31


class TestColumnarReplay:
    def test_replay_decodes_into_a_batch(self, generated, tmp_path):
        """Replay hands the pipeline columns: from_bursts never runs."""
        traces, excluded = generated
        root = str(tmp_path / "traces")
        export_traces(traces, root)
        pipeline = MonitoringPipeline(_CONFIG, excluded)
        with mock.patch.object(BurstBatch, "from_bursts",
                               side_effect=AssertionError):
            days = list(iter_trace_days(root))
            for day in days:
                pipeline.ingest_day(day)
        assert all(isinstance(day.bursts, BurstBatch) for day in days)
        assert pipeline.stats.bursts_seen == sum(
            len(trace.bursts) for trace in traces)

    def test_batch_reads_as_burst_rows(self, generated):
        traces, _ = generated
        bursts = traces[0].bursts
        batch = BurstBatch.from_bursts(bursts)
        assert len(batch) == len(bursts)
        assert batch[0] == bursts[0]
        assert batch[-1] == bursts[-1]
        assert list(batch) == bursts
        assert batch == bursts and bursts == batch
        assert batch == tuple(bursts)
        assert batch != bursts[:-1]
        with pytest.raises(IndexError):
            batch[len(bursts)]

    def test_dirty_file_falls_back_to_the_line_reader(self, generated,
                                                     tmp_path):
        """One bad line: strict raises at its line, lenient keeps the
        rest -- the same records the clean file gave, minus that one."""
        traces, _ = generated
        root = str(tmp_path / "traces")
        export_traces(traces[:1], root)
        path = os.path.join(root, read_manifest(root)["days"][0],
                            "wire.jsonl.gz")
        with gzip.open(path, "rt") as fileobj:
            lines = fileobj.read().splitlines()
        bad = json.loads(lines[2])
        bad["cp"] = "not a port"
        lines[2] = json.dumps(bad)
        with gzip.open(path, "wt") as fileobj:
            fileobj.write("\n".join(lines) + "\n")

        with pytest.raises(RecordError) as excinfo:
            list(iter_trace_days(root))
        assert excinfo.value.category == CATEGORY_VALUE
        assert excinfo.value.line_no == 3
        (day,) = iter_trace_days(root, mode="lenient")
        expected = traces[0].bursts[:2] + traces[0].bursts[3:]
        assert day.bursts == expected
