"""Differential tests: replay's whole-file decode vs the per-line reader.

:func:`repro.io.tracedir.iter_trace_days` decodes a clean day file in
one pass (wire straight into a :class:`~repro.columnar.batch.BurstBatch`)
and hands any other file to the per-line strict/lenient reader. The
oracle here is that reader alone -- ``read_jsonl_records`` with the
stream's ``from_json`` parser, plus :meth:`BurstBatch.from_bursts` for
the wire stream. For any mix of valid and broken lines, both must give:

* the same batch columns and string tables, and the same DHCP/DNS
  record lists;
* in strict mode, the same exception type, and for a ``RecordError``
  the same source, category and ``line_no``;
* in lenient mode, the same quarantine counts, samples and blank count.

Small chunk sizes are drawn too, so chunk boundaries fall anywhere. A
fixed list of single defects among clean lines backs the random search
with the cases that must never slip through.
"""

import gzip
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.io.tracedir as tracedir
from repro.columnar.batch import BurstBatch
from repro.dhcp.log import DhcpLogRecord
from repro.dns.records import DnsLogRecord
from repro.net.ip import int_to_ip
from repro.reliability.errors import RecordError
from repro.reliability.parsing import read_jsonl_records
from repro.reliability.quarantine import QuarantineSink

_DAY = "2020-02-03"

_IPS = st.integers(min_value=0, max_value=2**32 - 1).map(int_to_ip)
_BAD_IPS = st.sampled_from([
    "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.-4", "a.b.c.d", "", "1..2.3",
    " 1.2.3.4", 7, None, [1, 2], {"a": 1}, True,
])
_BIG_INTS = st.sampled_from([2**63, 2**70, -2**63 - 1, 10**30, 10**400])
_FIN = st.sampled_from([1, 0, "0", "", True, False, None, [], 2.5])
_ODD_VALUES = st.sampled_from([
    "443", "1.5", " 12 ", "1_0", "x", 1.5, True, None, [], {}, "nan", 1e400,
])
#: Lines no record may be built from, whatever the stream.
_JUNK_LINES = st.sampled_from([
    "", " ", "\t", "   \t ", "{", "not json", '{"ts": }', "1", "[]", "null",
    '"text"', "{}", "{} {}", "[{}]", '{"a": 1}}', "\ufeff{}", "{\"a\":NaN}",
])
#: Two lines that parse as JSON only once they are joined.
_JOINED_ONLY = ['{"a":[[{}', '{}]]}']
_STRINGS = st.sampled_from([
    "Mozilla/5.0 (iPad)", "curl/7.1", "", "a b", "tab\there",
    "café", "x\x0cy", "v\x85w", "q\"uote",
])


@st.composite
def _wire_payload(draw):
    payload = {
        "ts": draw(st.floats(min_value=0, max_value=2e9,
                             allow_nan=False) | st.integers(0, 2**31)),
        "ch": draw(_IPS),
        "cp": draw(st.integers(0, 65535)),
        "sh": draw(_IPS),
        "sp": draw(st.integers(0, 65535)),
        "pr": draw(st.sampled_from(["tcp", "udp", "icmp"])),
        "ob": draw(st.integers(0, 2**40)),
        "rb": draw(st.integers(0, 2**40)),
    }
    for key in ("ua", "hh"):
        if draw(st.booleans()):
            payload[key] = draw(_STRINGS | st.none())
    if draw(st.booleans()):
        payload["fin"] = draw(_FIN)
    return payload


@st.composite
def _dns_payload(draw):
    return {
        "ts": draw(st.floats(min_value=0, max_value=2e9, allow_nan=False)),
        "client": draw(_IPS),
        "qname": draw(st.sampled_from(["a.example", "b.example", "c"])),
        "answers": draw(st.lists(_IPS, max_size=3)),
        "ttl": draw(st.sampled_from([300.0, 60, 0.5])),
    }


@st.composite
def _dhcp_payload(draw):
    return {
        "ts": draw(st.floats(min_value=0, max_value=2e9, allow_nan=False)),
        "mac": draw(st.sampled_from(["9c:1a:00:00:00:01",
                                     "02-00-00-00-00-0a",
                                     "AA:BB:CC:DD:EE:FF"])),
        "ip": draw(_IPS),
        "lease_end": draw(st.floats(min_value=0, max_value=2e9,
                                    allow_nan=False)),
    }


#: Per-stream mutation targets: (IP fields, numeric fields).
_FIELDS = {
    "wire": (("ch", "sh"), ("ts", "cp", "sp", "ob", "rb")),
    "dns": (("client",), ("ts", "ttl")),
    "dhcp": (("ip",), ("ts", "lease_end")),
}


#: Per-stream values of the wrong type for a stream-specific field.
_ODD_FIELDS = {
    "wire": (("ua", "hh"), [5, 1.5, True, [1], {"a": 1}]),
    "dns": (("answers",), ["1.2.3.4", 5, [None], {"1.2.3.4": 1},
                           ["300.1.1.1"]]),
    "dhcp": (("mac",), ["zz:00:00:00:00:00", "00:00:00:00:00", 5, None]),
}


@st.composite
def _mutated(draw, payload, source):
    """One JSON line holding a record broken in a single way."""
    payload = dict(payload)
    ips, numbers = _FIELDS[source]
    kind = draw(st.sampled_from(["drop", "odd", "bad_ip", "big", "type"]))
    if kind == "drop":
        payload.pop(draw(st.sampled_from(sorted(payload))))
    elif kind == "odd":
        payload[draw(st.sampled_from(numbers))] = draw(_ODD_VALUES)
    elif kind == "bad_ip":
        payload[draw(st.sampled_from(ips))] = draw(_BAD_IPS)
    elif kind == "big":
        payload[draw(st.sampled_from(numbers))] = draw(_BIG_INTS)
    else:
        keys, values = _ODD_FIELDS[source]
        payload[draw(st.sampled_from(keys))] = draw(st.sampled_from(values))
    return json.dumps(payload)


#: Whitespace a clean record may carry around it (stripped on read).
_PADDING = st.sampled_from(["", "", "", " ", "\t", "  \t", "\x0b", "\xa0"])
#: Trailing data that turns a valid record line into a broken one.
_TRAILING = st.sampled_from([" {}", "x", "]", " 1", ",", "}"])


@st.composite
def _clean_lines(draw, payloads):
    """Valid records, some padded with whitespace or not ASCII-escaped."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        line = json.dumps(draw(payloads), ensure_ascii=draw(st.booleans()))
        lines.append(draw(_PADDING) + line + draw(_PADDING))
    return lines


@st.composite
def _bad_lines(draw, payloads, source):
    """One defect: junk, the joined-only pair, trailing data, or a
    record broken in a single way."""
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return [draw(_JUNK_LINES)]
    if choice == 1:
        return list(_JOINED_ONLY)
    if choice == 2:
        return [json.dumps(draw(payloads)) + draw(_TRAILING)]
    return [draw(_mutated(draw(payloads), source))]


_STREAMS = {
    tracedir.WIRE_FILE: (_wire_payload(), "wire"),
    tracedir.DNS_FILE: (_dns_payload(), "dns"),
    tracedir.DHCP_FILE: (_dhcp_payload(), "dhcp"),
}


@st.composite
def _day_files(draw, dirty=st.booleans()):
    """Clean day files; when dirty, with one to three defects spliced
    in at random streams and positions (mostly exactly one, the case
    where a single bad line must send a file to the per-line reader)."""
    files = {name: draw(_clean_lines(payloads))
             for name, (payloads, _) in _STREAMS.items()}
    if draw(dirty):
        for _ in range(draw(st.integers(1, 3))):
            name = draw(st.sampled_from(sorted(_STREAMS)))
            payloads, source = _STREAMS[name]
            at = draw(st.integers(0, len(files[name])))
            files[name][at:at] = draw(_bad_lines(payloads, source))
    files["newline"] = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    files["final_newline"] = draw(st.booleans())
    # Split each file's bytes into this many gzip members (or pad one
    # with NULs): readers must see the same text either way.
    files["members"] = draw(st.sampled_from([1, 1, 2, "padded"]))
    return files


def _write_day(root, files):
    day_dir = os.path.join(root, _DAY)
    os.makedirs(day_dir)
    newline = files["newline"]
    for name in (tracedir.WIRE_FILE, tracedir.DNS_FILE, tracedir.DHCP_FILE):
        text = newline.join(files[name])
        if files["final_newline"] and files[name]:
            text += newline
        data = text.encode("utf-8")
        if files.get("members", 1) == 2:
            # Cut after a line, so each member alone holds whole records.
            cut = data.rfind(newline.encode(), 0, len(data) // 2) + 1
            blob = gzip.compress(data[:cut]) + gzip.compress(data[cut:])
        else:
            blob = gzip.compress(data)
            if files.get("members") == "padded":
                blob += b"\0" * 8
        with open(os.path.join(day_dir, name), "wb") as fileobj:
            fileobj.write(blob)
    with open(os.path.join(root, tracedir.MANIFEST_NAME), "w") as fileobj:
        json.dump({"format_version": tracedir.FORMAT_VERSION,
                   "days": [_DAY]}, fileobj)


def _oracle(root, mode, sink):
    """Per-line reader for every stream, in replay's order."""
    day_dir = os.path.join(root, _DAY)

    def read(name, parse, source):
        with gzip.open(os.path.join(day_dir, name), "rt") as fileobj:
            return list(read_jsonl_records(fileobj, parse, source=source,
                                           mode=mode, sink=sink))

    dhcp = read(tracedir.DHCP_FILE, DhcpLogRecord.from_json, "dhcp")
    dns = read(tracedir.DNS_FILE, DnsLogRecord.from_json, "dns")
    bursts = BurstBatch.from_bursts(
        read(tracedir.WIRE_FILE, tracedir.burst_from_json, "wire"))
    return dhcp, dns, bursts


def _replay(root, mode, sink):
    (day,) = tracedir.iter_trace_days(root, mode=mode, sink=sink)
    return day.dhcp_records, day.dns_records, day.bursts


def _outcome(read, root, mode, sink):
    try:
        return read(root, mode, sink), None
    except Exception as exc:  # compared below, type and all
        return None, exc


def _assert_same_batch(got, want):
    for name in BurstBatch.__slots__:
        left, right = getattr(got, name), getattr(want, name)
        if isinstance(right, np.ndarray):
            assert left.dtype == right.dtype, name
            assert np.array_equal(left, right, equal_nan=True), name
        else:
            assert left == right, name


def _assert_same_error(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, RecordError):
        assert ((got.source, got.category, got.line_no)
                == (want.source, want.category, want.line_no))


def _assert_same_sink(got, want):
    assert got.counts == want.counts
    for source in ("wire", "dns", "dhcp"):
        assert got.samples(source) == want.samples(source)
    assert got.malformed() == want.malformed()
    assert got.blank() == want.blank()


def _assert_replay_equals_oracle(files, mode, chunk):
    with tempfile.TemporaryDirectory() as root:
        _write_day(root, files)
        want_sink, got_sink = QuarantineSink(), QuarantineSink()
        want, want_error = _outcome(_oracle, root, mode, want_sink)
        with mock.patch.object(tracedir, "_CHUNK_LINES", chunk):
            got, got_error = _outcome(_replay, root, mode, got_sink)
    if want_error is not None:
        _assert_same_error(got_error, want_error)
    else:
        assert got_error is None, got_error
        # repr: exact for floats, and NaN (accepted from "nan") equal.
        assert repr(got[0]) == repr(want[0])
        assert repr(got[1]) == repr(want[1])
        _assert_same_batch(got[2], want[2])
    if mode == "lenient":
        _assert_same_sink(got_sink, want_sink)
        assert want_error is None  # lenient never raises on bad lines


_WIRE = {"ts": 1.5, "ch": "100.64.0.1", "cp": 40000, "sh": "50.0.0.1",
         "sp": 443, "pr": "tcp", "ob": 10, "rb": 20}
_DNS = {"ts": 1.0, "client": "100.64.0.1", "qname": "a.example",
        "answers": ["50.0.0.1"], "ttl": 300.0}
_DHCP = {"ts": 1.0, "mac": "9c:1a:00:00:00:01", "ip": "100.64.0.1",
         "lease_end": 2.0}


_DROP = object()


def _with(base, **changes):
    payload = {**base, **changes}
    return json.dumps({k: v for k, v in payload.items() if v is not _DROP})

#: One line each, spliced between clean records: (file, lines).
_SINGLE_DEFECTS = [
    (tracedir.WIRE_FILE, [""]),
    (tracedir.WIRE_FILE, ["  \t"]),
    (tracedir.WIRE_FILE, [json.dumps(_WIRE) + " {}"]),
    (tracedir.WIRE_FILE, [json.dumps(_WIRE) + "x"]),
    (tracedir.WIRE_FILE, ["[]"]),
    (tracedir.WIRE_FILE, ["1"]),
    (tracedir.WIRE_FILE, _JOINED_ONLY),
    (tracedir.WIRE_FILE, [_with(_WIRE, cp=_DROP)]),
    (tracedir.WIRE_FILE, [_with(_WIRE, cp="443", ts="1.5", fin="0")]),
    (tracedir.WIRE_FILE, [_with(_WIRE, ua=5)]),
    (tracedir.WIRE_FILE, [_with(_WIRE, hh=[1])]),
    (tracedir.WIRE_FILE, [_with(_WIRE, ch="1.2.3")]),
    (tracedir.WIRE_FILE, [_with(_WIRE, sh=7)]),
    (tracedir.WIRE_FILE, [_with(_WIRE, ob=2**63)]),
    (tracedir.WIRE_FILE, [_with(_WIRE, ts=float("inf"))]),
    (tracedir.DNS_FILE, [_with(_DNS, answers="50.0.0.1")]),
    (tracedir.DNS_FILE, [_with(_DNS, client="300.0.0.1")]),
    (tracedir.DNS_FILE, [_with(_DNS, ttl="x")]),
    (tracedir.DNS_FILE, [_with(_DNS, ts=10**400)]),
    (tracedir.DHCP_FILE, [_with(_DHCP, mac=5)]),
    (tracedir.DHCP_FILE, [_with(_DHCP, mac="zz:00:00:00:00:00")]),
    (tracedir.DHCP_FILE, [_with(_DHCP, ip=None)]),
]


class TestDecodeMatchesPerLineReader:
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("name, bad", _SINGLE_DEFECTS)
    def test_single_defect_equals_oracle(self, name, bad, mode):
        files = {tracedir.WIRE_FILE: [json.dumps(_WIRE)] * 3,
                 tracedir.DNS_FILE: [json.dumps(_DNS)] * 3,
                 tracedir.DHCP_FILE: [json.dumps(_DHCP)] * 3,
                 "newline": "\n", "final_newline": True}
        files[name][1:1] = bad
        _assert_replay_equals_oracle(files, mode, chunk=2)

    @given(files=_day_files(), mode=st.sampled_from(["strict", "lenient"]),
           chunk=st.sampled_from([1, 2, 3, 4096]))
    @settings(max_examples=250, deadline=None)
    def test_replay_equals_oracle(self, files, mode, chunk):
        _assert_replay_equals_oracle(files, mode, chunk)

    @given(files=_day_files(dirty=st.just(False)),
           chunk=st.sampled_from([1, 2, 3, 4096]))
    @settings(max_examples=60, deadline=None)
    def test_clean_files_skip_the_per_line_reader(self, files, chunk):
        """The whole-file decode handles a clean one-member file on its own."""
        with tempfile.TemporaryDirectory() as root:
            _write_day(root, {**files, "members": 1})
            with mock.patch.object(tracedir, "read_jsonl_records",
                                   side_effect=AssertionError), \
                    mock.patch.object(tracedir, "_CHUNK_LINES", chunk):
                day = next(tracedir.iter_trace_days(root))
        assert len(day.bursts) == len(files[tracedir.WIRE_FILE])
