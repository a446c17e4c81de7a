"""Shared strict/lenient JSONL parsing machinery.

Every log reader in the repo (conn, DHCP, DNS, wire) is the same loop:
strip the line, skip-and-count blanks, parse, and either raise a
structured :class:`~repro.reliability.errors.RecordError` (strict mode)
or quarantine the line and continue (lenient mode). This module is that
loop, written once.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from repro.reliability.errors import CATEGORY_JSON, RecordError
from repro.reliability.quarantine import QuarantineSink

#: The two parse modes accepted by every reader.
MODE_STRICT = "strict"
MODE_LENIENT = "lenient"

#: Whatever record type a reader's ``parse`` callback produces.
RecordT = TypeVar("RecordT")


def check_mode(mode: str) -> None:
    """Refuse a parse mode no reader accepts."""
    if mode not in (MODE_STRICT, MODE_LENIENT):
        raise ValueError(f"unknown parse mode: {mode!r}")


def parse_json_object(line: str, *, source: str,
                      line_no: Optional[int] = None) -> dict:
    """Decode one JSONL line into a dict; raises :class:`RecordError`."""
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise RecordError(
            f"{source} record is not valid JSON: {exc}", source=source,
            category=CATEGORY_JSON, line_no=line_no, line=line) from exc
    if not isinstance(payload, dict):
        raise RecordError(
            f"{source} record is not a JSON object "
            f"({type(payload).__name__})", source=source,
            category=CATEGORY_JSON, line_no=line_no, line=line)
    return payload


def read_jsonl_records(lines: Iterable[str],
                       parse: Callable[[str, int], RecordT], *,
                       source: str,
                       mode: str = MODE_STRICT,
                       sink: Optional[QuarantineSink] = None,
                       ) -> Iterator[RecordT]:
    """The one strict/lenient line loop behind every log reader.

    ``parse`` is ``(line, line_no) -> record`` raising
    :class:`RecordError` on malformed input. Blank/whitespace-only
    lines are skipped in both modes and counted when a ``sink`` is
    given -- a partially flushed log file must never abort a run.
    """
    check_mode(mode)
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            if sink is not None:
                sink.add_blank(source, line_no)
            continue
        try:
            yield parse(line, line_no)
        except RecordError as exc:
            if mode == MODE_STRICT:
                raise
            if sink is not None:
                sink.add(exc)
