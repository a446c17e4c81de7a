"""Trace-directory layout and (de)serialization.

Layout::

    <root>/manifest.json
    <root>/2020-02-01/wire.jsonl.gz   # segment bursts seen by the tap
    <root>/2020-02-01/dhcp.jsonl.gz   # DHCP ACK log
    <root>/2020-02-01/dns.jsonl.gz    # DNS query log
    <root>/2020-02-02/...

The wire file holds the tap's *input* (pre-exclusion), so replaying a
directory exercises the full measurement path including the mirror's
excluded-network filtering.

Replay decodes a day's wire file straight into a
:class:`~repro.columnar.batch.BurstBatch`: no per-record
:class:`~repro.net.wire.SegmentBurst` is built. That fast path takes a
file only when every line is a clean record -- exactly one JSON object
per line, every field present and coercible. Any other file goes
through the per-line reader
(:func:`~repro.reliability.parsing.read_jsonl_records` with
:func:`burst_from_json` and the DHCP/DNS ``from_json``), which alone
decides strict errors, quarantine entries and blank-line counts. So
both paths yield the same records, and a dirty file costs only speed.
"""

from __future__ import annotations

import gzip
import json
import locale
import os
import zlib
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar)

import numpy as np

from repro.columnar.batch import BurstBatch
from repro.dhcp.log import DhcpLogRecord
from repro.dns.records import DnsLogRecord
from repro.net.ip import int_to_ip, ip_to_int
from repro.net.mac import MacAddress
from repro.net.wire import SegmentBurst
from repro.reliability.atomic import replacing, write_text
from repro.reliability.errors import (
    CATEGORY_FIELD,
    CATEGORY_VALUE,
    RecordError,
)
from repro.reliability.parsing import (
    check_mode,
    parse_json_object,
    read_jsonl_records,
)
from repro.reliability.quarantine import QuarantineSink
from repro.util.timeutil import format_day, parse_day

MANIFEST_NAME = "manifest.json"
WIRE_FILE = "wire.jsonl.gz"
DHCP_FILE = "dhcp.jsonl.gz"
DNS_FILE = "dns.jsonl.gz"

#: Format marker in the manifest; bump on breaking changes.
FORMAT_VERSION = 1


#: Lines scanned per column fill; bounds the decoded dicts alive at once.
_CHUNK_LINES = 1024

#: The C scanner behind ``json.loads``: decodes one JSON value at an
#: index and returns ``(value, end)``, leaving the end check to us.
_SCAN_ONCE = json.decoder.JSONDecoder().scan_once

ResultT = TypeVar("ResultT")


@dataclass(frozen=True)
class TraceDayFiles:
    """One day's worth of trace files, parsed.

    ``bursts`` is a columnar :class:`~repro.columnar.batch.BurstBatch`;
    it also reads as a sequence of :class:`~repro.net.wire.SegmentBurst`
    rows (O(1) ``len``, row iteration and ``==``).
    """

    day_start: float
    dhcp_records: List[DhcpLogRecord]
    dns_records: List[DnsLogRecord]
    bursts: BurstBatch


# ---------------------------------------------------------------------------
# Burst serialization (DHCP/DNS serializers live in their packages).

def burst_to_json(burst: SegmentBurst) -> str:
    payload = {
        "ts": burst.ts,
        "ch": int_to_ip(burst.client_ip),
        "cp": burst.client_port,
        "sh": int_to_ip(burst.server_ip),
        "sp": burst.server_port,
        "pr": burst.proto,
        "ob": burst.orig_bytes,
        "rb": burst.resp_bytes,
    }
    if burst.user_agent is not None:
        payload["ua"] = burst.user_agent
    if burst.http_host is not None:
        payload["hh"] = burst.http_host
    if burst.is_final:
        payload["fin"] = 1
    return json.dumps(payload)


def _int64(value) -> int:
    """``int(value)``, refused unless it fits a batch's int64 column."""
    number = int(value)
    if not -2**63 <= number < 2**63:
        raise ValueError(f"integer out of int64 range: {number}")
    return number


def _optional_str(value):
    """``value`` itself when it is a string or None; TypeError otherwise."""
    if value is not None and not isinstance(value, str):
        raise TypeError(f"expected a string or null, not "
                        f"{type(value).__name__}")
    return value


def burst_from_json(line: str, line_no: Optional[int] = None) -> SegmentBurst:
    payload = parse_json_object(line, source="wire", line_no=line_no)
    try:
        return SegmentBurst(
            ts=float(payload["ts"]),
            client_ip=ip_to_int(payload["ch"]),
            client_port=_int64(payload["cp"]),
            server_ip=ip_to_int(payload["sh"]),
            server_port=_int64(payload["sp"]),
            proto=str(payload["pr"]),
            orig_bytes=_int64(payload["ob"]),
            resp_bytes=_int64(payload["rb"]),
            user_agent=_optional_str(payload.get("ua")),
            http_host=_optional_str(payload.get("hh")),
            is_final=bool(payload.get("fin", 0)),
        )
    except KeyError as exc:
        raise RecordError(
            f"wire record missing field {exc}", source="wire",
            category=CATEGORY_FIELD, line_no=line_no, line=line) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise RecordError(
            f"wire record has a bad value: {exc}", source="wire",
            category=CATEGORY_VALUE, line_no=line_no, line=line) from exc


def _write_gz_lines(path: str, lines: Iterable[str]) -> int:
    count = 0
    with replacing(path) as staged:
        with gzip.open(staged, "wt") as fileobj:
            for line in lines:
                fileobj.write(line)
                fileobj.write("\n")
                count += 1
    return count


# ---------------------------------------------------------------------------
# Clean-file fast path: whole-file decode, no per-line error handling.

class _IpMemo(dict):
    """Dotted quad -> integer, calling ``ip_to_int`` once per string."""

    __slots__ = ()

    def __missing__(self, text):
        value = self[text] = ip_to_int(text)
        return value


def _read_lines(path: str) -> List[str]:
    """The file's lines, split exactly as iterating it in text mode
    splits them: same default encoding, universal newlines.

    One inflate and one decode for the whole file beat the streaming
    reader and hold one copy of the content at a time. Only a file of
    exactly one gzip member is taken; any other raises, and the caller
    falls back to the streaming reader.
    """
    with open(path, "rb") as fileobj:
        raw = fileobj.read()
    # A gzip member ends with its content size: capping the output there
    # inflates into one buffer, not a chain of growing blocks.
    size = int.from_bytes(raw[-4:], "little")
    inflater = zlib.decompressobj(wbits=31)  # gzip header + trailer
    content = inflater.decompress(raw, size + 1)
    if not inflater.eof or inflater.unused_data:
        raise ValueError("not exactly one complete gzip member")
    text = content.decode(locale.getpreferredencoding(False))
    del content
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    del text  # only the lines outlive the split
    if lines[-1] == "":
        lines.pop()  # the final newline ends a line, it opens none
    return lines


def _scan_objects(lines: List[str]) -> Sequence[dict]:
    """Each line decoded as exactly one JSON object.

    Raises ValueError on any line that is not one: blank, invalid JSON,
    trailing data or a non-object value.
    """
    stripped = list(map(str.strip, lines))
    # A line with no JSON value raises StopIteration inside map, which
    # ends the list early: the length check below catches it.
    scanned = list(map(_SCAN_ONCE, stripped, repeat(0)))
    if len(scanned) != len(stripped):
        raise ValueError("a line holds no JSON value")
    if not scanned:
        return ()
    payloads, ends = zip(*scanned)
    if (list(ends) != list(map(len, stripped))
            or not {dict}.issuperset(map(type, payloads))):
        raise ValueError("a line is not exactly one JSON object")
    return payloads


#: The wire fields every record must carry: JSON key, column dtype and
#: coercion (None: dotted quad through the file's IP memo). Mirrors
#: :func:`burst_from_json`, which the differential tests hold it to.
_WIRE_FIELDS = (
    ("ts", "ts", np.float64, float),
    ("client_ip", "ch", np.int64, None),
    ("client_port", "cp", np.int64, int),
    ("server_ip", "sh", np.int64, None),
    ("server_port", "sp", np.int64, int),
    ("orig_bytes", "ob", np.int64, int),
    ("resp_bytes", "rb", np.int64, int),
)

#: Wire fields held as object columns: ``pr`` (coerced with ``str``)
#: and the optional strings (None when absent).
_WIRE_OBJECTS = (("proto", "pr"), ("user_agent", "ua"), ("http_host", "hh"))
_STRING_OR_NONE = frozenset({str, type(None)})


def _scanned_chunks(lines: List[str]) -> Iterator[Sequence[dict]]:
    """The lines as JSON objects, :data:`_CHUNK_LINES` at a time, so
    only one chunk of dicts is alive at once."""
    for start in range(0, len(lines), _CHUNK_LINES):
        yield _scan_objects(lines[start:start + _CHUNK_LINES])


def _fields(payloads: Sequence[dict], *keys: str) -> Tuple[Iterator, ...]:
    """One lazy column per key; a missing key raises KeyError."""
    return tuple(map(itemgetter(key), payloads) for key in keys)


def _decode_wire(lines: List[str]) -> BurstBatch:
    """A clean wire file's lines as one batch, chunk by chunk into
    preallocated columns; raises on any line that is not clean."""
    n = len(lines)
    memo = _IpMemo()
    numeric = {name: np.empty(n, dtype)
               for name, _, dtype, _ in _WIRE_FIELDS}
    numeric["is_final"] = np.empty(n, bool)
    objects = {name: np.empty(n, object) for name, _ in _WIRE_OBJECTS}
    stop = 0
    for payloads in _scanned_chunks(lines):
        start, stop = stop, stop + len(payloads)
        for name, key, dtype, coerce in _WIRE_FIELDS:
            values = map(itemgetter(key), payloads)  # KeyError: missing
            numeric[name][start:stop] = np.fromiter(
                map(coerce or memo.__getitem__, values), dtype,
                stop - start)
        numeric["is_final"][start:stop] = np.fromiter(
            map(bool, map(dict.get, payloads, repeat("fin"), repeat(0))),
            bool, stop - start)
        objects["proto"][start:stop] = list(
            map(str, map(itemgetter("pr"), payloads)))
        for name, key in _WIRE_OBJECTS[1:]:
            strings = list(map(dict.get, payloads, repeat(key)))
            if not _STRING_OR_NONE.issuperset(map(type, strings)):
                raise TypeError(f"{key} must be a string or null")
            objects[name][start:stop] = strings
    return BurstBatch.from_columns(numeric, objects)


def _decode_dns(lines: List[str]) -> List[DnsLogRecord]:
    """A clean DNS file's lines as records, built field by field with
    the coercions of :meth:`DnsLogRecord.from_json` and the per-file IP
    memo; raises on any unclean line."""
    ip = _IpMemo().__getitem__
    records: List[DnsLogRecord] = []
    for payloads in _scanned_chunks(lines):
        ts, client, qname, answers, ttl = _fields(
            payloads, "ts", "client", "qname", "answers", "ttl")
        records.extend(map(
            DnsLogRecord, map(float, ts), map(ip, client), map(str, qname),
            map(tuple, map(map, repeat(ip), answers)), map(float, ttl)))
    return records


def _decode_dhcp(lines: List[str]) -> List[DhcpLogRecord]:
    """A clean DHCP file's lines as records, built field by field with
    the coercions of :meth:`DhcpLogRecord.from_json` and the per-file
    IP memo; raises on any unclean line."""
    ip = _IpMemo().__getitem__
    records: List[DhcpLogRecord] = []
    for payloads in _scanned_chunks(lines):
        ts, mac, address, lease_end = _fields(
            payloads, "ts", "mac", "ip", "lease_end")
        records.extend(map(
            DhcpLogRecord, map(float, ts), map(MacAddress.parse, mac),
            map(ip, address), map(float, lease_end)))
    return records


def _read_stream(path: str, decode: Callable[[List[str]], ResultT],
                 parse: Callable[[str, int], object],
                 collect: Callable[[list], ResultT], *, source: str,
                 mode: str, sink: Optional[QuarantineSink]) -> ResultT:
    """Decode a clean file whole; hand any other to the per-line reader.

    ``decode(lines)`` is the fast path and raises on the first line
    that is not a clean record. The file then goes through
    :func:`~repro.reliability.parsing.read_jsonl_records` with
    ``parse``, and ``collect`` shapes the surviving records. That reader
    owns strict errors, quarantine entries and blank counts, so the
    fast path never has to say which line was wrong, or why.
    """
    check_mode(mode)
    try:
        return decode(_read_lines(path))
    except Exception:  # reprolint: allow[RL004] -- the per-line reader below re-reads the file and raises or quarantines the offending line
        pass
    with gzip.open(path, "rt") as fileobj:
        return collect(list(read_jsonl_records(
            fileobj, parse, source=source, mode=mode, sink=sink)))


# ---------------------------------------------------------------------------
# Export / import.

def export_traces(traces, root: str,
                  extra_manifest: Optional[dict] = None) -> int:
    """Write an iterable of day traces to a directory; returns day count.

    ``traces`` yields objects with ``day_start``, ``dhcp_records``,
    ``dns_records`` and ``bursts`` (e.g.
    :class:`~repro.synth.generator.DayTrace`).
    """
    os.makedirs(root, exist_ok=True)
    days: List[str] = []
    for trace in traces:
        label = format_day(trace.day_start)
        day_dir = os.path.join(root, label)
        os.makedirs(day_dir, exist_ok=True)
        _write_gz_lines(os.path.join(day_dir, DHCP_FILE),
                        (record.to_json()
                         for record in trace.dhcp_records))
        _write_gz_lines(os.path.join(day_dir, DNS_FILE),
                        (record.to_json() for record in trace.dns_records))
        _write_gz_lines(os.path.join(day_dir, WIRE_FILE),
                        (burst_to_json(burst) for burst in trace.bursts))
        days.append(label)

    manifest = {
        "format_version": FORMAT_VERSION,
        "days": days,
        **(extra_manifest or {}),
    }
    write_text(os.path.join(root, MANIFEST_NAME),
               json.dumps(manifest, indent=2) + "\n")
    return len(days)


def read_manifest(root: str) -> dict:
    """Load and validate a trace directory's manifest."""
    with open(os.path.join(root, MANIFEST_NAME)) as fileobj:
        manifest = json.load(fileobj)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(expected {FORMAT_VERSION})")
    return manifest


def iter_trace_days(root: str, *, mode: str = "strict",
                    sink: Optional[QuarantineSink] = None,
                    ) -> Iterator[TraceDayFiles]:
    """Yield each day's parsed records, in manifest (time) order.

    In strict mode (default) a malformed line raises
    :class:`~repro.reliability.errors.RecordError`; in lenient mode it
    is quarantined into ``sink`` and the replay continues with the
    surviving records.
    """
    manifest = read_manifest(root)
    for label in manifest["days"]:
        day_dir = os.path.join(root, label)
        yield TraceDayFiles(
            day_start=parse_day(label),
            dhcp_records=_read_stream(
                os.path.join(day_dir, DHCP_FILE), _decode_dhcp,
                DhcpLogRecord.from_json, list, source="dhcp",
                mode=mode, sink=sink),
            dns_records=_read_stream(
                os.path.join(day_dir, DNS_FILE), _decode_dns,
                DnsLogRecord.from_json, list, source="dns",
                mode=mode, sink=sink),
            bursts=_read_stream(
                os.path.join(day_dir, WIRE_FILE), _decode_wire,
                burst_from_json, BurstBatch.from_bursts, source="wire",
                mode=mode, sink=sink),
        )


def ingest_trace_dir(pipeline, root: str, *, mode: str = "strict",
                     sink: Optional[QuarantineSink] = None) -> int:
    """Replay a trace directory through a pipeline; returns day count.

    Equivalent to live ingestion: the pipeline receives the same
    records in the same order. With ``mode="lenient"`` malformed lines
    are quarantined instead of raising, and the exact per-stream counts
    are folded into the pipeline's stats
    (:meth:`~repro.pipeline.pipeline.MonitoringPipeline.absorb_quarantine`).
    """
    own_sink = sink
    if mode == "lenient" and own_sink is None:
        own_sink = QuarantineSink()
    count = 0
    for day in iter_trace_days(root, mode=mode, sink=own_sink):
        pipeline.ingest_day(day)
        count += 1
    if own_sink is not None and hasattr(pipeline, "absorb_quarantine"):
        pipeline.absorb_quarantine(own_sink)
    return count
