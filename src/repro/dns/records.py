"""DNS query-log records and JSONL serialization.

Parsing follows the repo-wide strict/lenient contract (see
:mod:`repro.reliability.parsing`): strict raises a structured
:class:`~repro.reliability.errors.RecordError`; lenient quarantines the
line and continues; blank lines are skipped and counted in both modes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Tuple

from repro.net.ip import int_to_ip, ip_to_int
from repro.reliability.errors import (
    CATEGORY_FIELD,
    CATEGORY_VALUE,
    RecordError,
)
from repro.reliability.parsing import parse_json_object, read_jsonl_records
from repro.reliability.quarantine import QuarantineSink

_SOURCE = "dns"


@dataclass(frozen=True)
class DnsLogRecord:
    """One resolver transaction as recorded by the campus DNS logs."""

    ts: float
    client_ip: int
    qname: str
    answers: Tuple[int, ...]
    ttl: float

    def to_json(self) -> str:
        return json.dumps({
            "ts": self.ts,
            "client": int_to_ip(self.client_ip),
            "qname": self.qname,
            "answers": [int_to_ip(a) for a in self.answers],
            "ttl": self.ttl,
        })

    @classmethod
    def from_json(cls, line: str,
                  line_no: Optional[int] = None) -> "DnsLogRecord":
        payload = parse_json_object(line, source=_SOURCE, line_no=line_no)
        try:
            return cls(
                ts=float(payload["ts"]),
                client_ip=ip_to_int(payload["client"]),
                qname=str(payload["qname"]),
                answers=tuple(ip_to_int(a) for a in payload["answers"]),
                ttl=float(payload["ttl"]),
            )
        except KeyError as exc:
            raise RecordError(
                f"dns record missing field {exc}", source=_SOURCE,
                category=CATEGORY_FIELD, line_no=line_no, line=line) from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise RecordError(
                f"dns record has a bad value: {exc}", source=_SOURCE,
                category=CATEGORY_VALUE, line_no=line_no, line=line) from exc


def write_dns_log(records: Iterable[DnsLogRecord], fileobj: IO[str]) -> int:
    """Serialize records as JSONL; returns the number written."""
    count = 0
    for record in records:
        fileobj.write(record.to_json())
        fileobj.write("\n")
        count += 1
    return count


def read_dns_log(fileobj: IO[str], *, mode: str = "strict",
                 sink: Optional[QuarantineSink] = None,
                 ) -> Iterator[DnsLogRecord]:
    """Parse a JSONL DNS log (strict/lenient; blank lines counted)."""
    yield from read_jsonl_records(
        fileobj, DnsLogRecord.from_json, source=_SOURCE,
        mode=mode, sink=sink)
