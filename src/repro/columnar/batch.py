"""Record batches: parallel column sets for the columnar ingest path.

Two batch shapes cross the columnar ingest path:

* :class:`BurstBatch` -- one column per :class:`~repro.net.wire.
  SegmentBurst` field. Live generation hands the pipeline a day of
  burst objects, which :meth:`BurstBatch.from_bursts` takes apart in a
  single pass; a replayed trace day is decoded straight from its
  JSONL lines into a batch (:func:`repro.io.tracedir.iter_trace_days`)
  and never becomes row objects at all. Either way, everything
  downstream is numpy.
* :class:`FlowBatch` -- closed flows in *emission order* (the exact
  order the scalar engine would have returned them), produced by
  :class:`~repro.columnar.engine.ColumnarFlowEngine` and consumed by
  :class:`~repro.columnar.ingest.BatchRegistrar`.

Low-cardinality string columns (protocol names, user agents, HTTP
hosts) are dictionary-encoded: an int id column plus a batch-local
string table, with ``-1`` standing for None.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.net.wire import SegmentBurst
from repro.zeek.conn import ConnRecord


def _encode_strings(values: Union[np.ndarray, Sequence[Optional[str]]]
                    ) -> Tuple[np.ndarray, List[str]]:
    """Dictionary-encode a nullable string column.

    Returns ``(ids, table)``: ``ids[i] == -1`` where ``values[i]`` is
    None, otherwise an index into ``table``. The table is sorted
    (np.unique), which is fine -- ids are batch-local and only ever
    dereferenced back through the table.
    """
    obj = np.asarray(values, dtype=object)
    ids = np.full(len(obj), -1, dtype=np.int32)
    present = obj != None  # noqa: E711  (elementwise null test)
    if present.any():
        uniq, inverse = np.unique(obj[present].astype(str), return_inverse=True)
        ids[present] = inverse.astype(np.int32)
        return ids, [str(name) for name in uniq]
    return ids, []


def _encode_protocols(protos: np.ndarray) -> Tuple[np.ndarray, List[str]]:
    """Dictionary-encode the (tiny-cardinality) protocol column.

    One vectorized equality sweep per distinct protocol beats a full
    unicode conversion + sort: the column holds a handful of distinct
    interned strings ("tcp", "udp"), never None.
    """
    n = len(protos)
    ids = np.empty(n, dtype=np.int64)
    table: List[str] = []
    remaining = np.ones(n, dtype=bool)
    while remaining.any():
        name = str(protos[int(remaining.argmax())])
        mask = protos == name
        ids[mask] = len(table)
        table.append(name)
        remaining &= ~mask
    return ids, table


#: SegmentBurst fields, pulled in two fromiter passes over structured
#: dtypes -- attrgetter yields a tuple per row and numpy scatters it
#: straight into the record array. Numeric and object fields go in
#: separate passes: a homogeneous record scatter is measurably faster
#: than one mixing machine types with refcounted pointers.
_NUMERIC_DTYPE = np.dtype([
    ("ts", "<f8"), ("client_ip", "<i8"), ("client_port", "<i8"),
    ("server_ip", "<i8"), ("server_port", "<i8"),
    ("orig_bytes", "<i8"), ("resp_bytes", "<i8"), ("is_final", "?"),
])
_OBJECT_DTYPE = np.dtype([
    ("user_agent", "O"), ("http_host", "O"), ("proto", "O"),
])
_NUMERIC_GETTER = attrgetter(*_NUMERIC_DTYPE.names)
_OBJECT_GETTER = attrgetter(*_OBJECT_DTYPE.names)


#: Named columns: a structured array or a dict of arrays by field name.
Columns = Union[np.ndarray, Mapping[str, np.ndarray]]


class BurstBatch:
    """One day (or chunk) of wire bursts as parallel columns.

    Also a read-only sequence of :class:`~repro.net.wire.SegmentBurst`
    rows (``len``, indexing, iteration and row-wise ``==``): a compat
    surface for the row-at-a-time engine and for tests that compare a
    replayed day with the generator's burst list. ``len`` is O(1); the
    rest materializes rows and never runs on the columnar hot path.
    """

    __slots__ = ("n", "ts", "client_ip", "client_port", "server_ip",
                 "server_port", "proto_id", "proto_table", "orig_bytes",
                 "resp_bytes", "ua_id", "ua_table", "host_id",
                 "host_table", "is_final")

    def __init__(self, *, ts: np.ndarray, client_ip: np.ndarray,
                 client_port: np.ndarray, server_ip: np.ndarray,
                 server_port: np.ndarray, proto_id: np.ndarray,
                 proto_table: List[str], orig_bytes: np.ndarray,
                 resp_bytes: np.ndarray, ua_id: np.ndarray,
                 ua_table: List[str], host_id: np.ndarray,
                 host_table: List[str], is_final: np.ndarray) -> None:
        self.n = len(ts)
        self.ts = ts
        self.client_ip = client_ip
        self.client_port = client_port
        self.server_ip = server_ip
        self.server_port = server_port
        self.proto_id = proto_id
        self.proto_table = proto_table
        self.orig_bytes = orig_bytes
        self.resp_bytes = resp_bytes
        self.ua_id = ua_id
        self.ua_table = ua_table
        self.host_id = host_id
        self.host_table = host_table
        self.is_final = is_final

    @classmethod
    def from_columns(cls, numeric: Columns,
                     objects: Columns) -> "BurstBatch":
        """Build a batch from one column per SegmentBurst field.

        ``numeric`` holds the number and flag fields (the names of
        ``_NUMERIC_DTYPE``), taken as they are; ``objects`` holds
        ``proto``, ``user_agent`` and ``http_host`` (None for absent),
        dictionary-encoded here. Either may be a structured array or a
        dict of arrays.
        """
        ua_id, ua_table = _encode_strings(objects["user_agent"])
        host_id, host_table = _encode_strings(objects["http_host"])
        proto_id, proto_table = _encode_protocols(objects["proto"])
        return cls(
            ts=numeric["ts"],
            client_ip=numeric["client_ip"],
            client_port=numeric["client_port"],
            server_ip=numeric["server_ip"],
            server_port=numeric["server_port"],
            proto_id=proto_id,
            proto_table=proto_table,
            orig_bytes=numeric["orig_bytes"],
            resp_bytes=numeric["resp_bytes"],
            ua_id=ua_id,
            ua_table=ua_table,
            host_id=host_id,
            host_table=host_table,
            is_final=numeric["is_final"],
        )

    @classmethod
    def from_bursts(cls, bursts: "Iterable[SegmentBurst]") -> "BurstBatch":
        """Extract columns from SegmentBurst-like row objects.

        The two fromiter passes below are the extraction boundary: the
        one deliberate scan over Python objects that buys every later
        stage its vector form.
        """
        rows = bursts if isinstance(bursts, list) else list(bursts)
        n = len(rows)
        rec = np.fromiter(map(_NUMERIC_GETTER, rows), _NUMERIC_DTYPE,
                          count=n)
        obj = np.fromiter(map(_OBJECT_GETTER, rows), _OBJECT_DTYPE,
                          count=n)
        return cls.from_columns(rec, obj)

    # -- read-only row view (compat surface) --------------------------------

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[SegmentBurst]:
        """Materialize SegmentBurst rows (compat/testing surface only)."""
        protos = [self.proto_table[code] for code in self.proto_id.tolist()]
        uas = [None if code < 0 else self.ua_table[code]
               for code in self.ua_id.tolist()]
        hosts = [None if code < 0 else self.host_table[code]
                 for code in self.host_id.tolist()]
        return map(SegmentBurst, self.ts.tolist(), self.client_ip.tolist(),
                   self.client_port.tolist(), self.server_ip.tolist(),
                   self.server_port.tolist(), protos,
                   self.orig_bytes.tolist(), self.resp_bytes.tolist(),
                   uas, hosts, self.is_final.tolist())

    def __getitem__(self, index: int) -> SegmentBurst:
        """One SegmentBurst row (compat/testing surface only)."""
        i = range(self.n)[index]  # bounds check, negative indices
        ua = int(self.ua_id[i])
        host = int(self.host_id[i])
        return SegmentBurst(
            ts=float(self.ts[i]),
            client_ip=int(self.client_ip[i]),
            client_port=int(self.client_port[i]),
            server_ip=int(self.server_ip[i]),
            server_port=int(self.server_port[i]),
            proto=self.proto_table[int(self.proto_id[i])],
            orig_bytes=int(self.orig_bytes[i]),
            resp_bytes=int(self.resp_bytes[i]),
            user_agent=None if ua < 0 else self.ua_table[ua],
            http_host=None if host < 0 else self.host_table[host],
            is_final=bool(self.is_final[i]),
        )

    def __eq__(self, other: object) -> bool:
        """Row-wise equality with any burst sequence (compat surface)."""
        if not isinstance(other, (BurstBatch, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]  # mutable-column container

    def compress(self, mask: np.ndarray) -> "BurstBatch":
        """A new batch holding only the masked rows (tables shared)."""
        # One mask scan for all fourteen columns, not one per gather.
        idx = np.flatnonzero(mask) if mask.dtype == bool else mask
        return BurstBatch(
            ts=self.ts[idx],
            client_ip=self.client_ip[idx],
            client_port=self.client_port[idx],
            server_ip=self.server_ip[idx],
            server_port=self.server_port[idx],
            proto_id=self.proto_id[idx],
            proto_table=self.proto_table,
            orig_bytes=self.orig_bytes[idx],
            resp_bytes=self.resp_bytes[idx],
            ua_id=self.ua_id[idx],
            ua_table=self.ua_table,
            host_id=self.host_id[idx],
            host_table=self.host_table,
            is_final=self.is_final[idx],
        )


class FlowBatch:
    """Closed flows in scalar-engine emission order.

    ``proto`` holds engine-global protocol codes (``0`` tcp, ``1``
    udp, >=2 for anything else) indexing ``proto_table``; ``ua`` and
    ``host`` are engine-global string ids into ``ua_table`` /
    ``host_table``, ``-1`` for None -- object arrays never ride the
    hot path.
    """

    __slots__ = ("n", "uid", "ts", "duration", "orig_h", "orig_p",
                 "resp_h", "resp_p", "proto", "proto_table",
                 "orig_bytes", "resp_bytes", "ua", "ua_table",
                 "host", "host_table")

    def __init__(self, *, uid: np.ndarray, ts: np.ndarray,
                 duration: np.ndarray, orig_h: np.ndarray,
                 orig_p: np.ndarray, resp_h: np.ndarray,
                 resp_p: np.ndarray, proto: np.ndarray,
                 proto_table: List[str], orig_bytes: np.ndarray,
                 resp_bytes: np.ndarray, ua: np.ndarray,
                 ua_table: List[str], host: np.ndarray,
                 host_table: List[str]) -> None:
        self.n = len(ts)
        self.uid = uid
        self.ts = ts
        self.duration = duration
        self.orig_h = orig_h
        self.orig_p = orig_p
        self.resp_h = resp_h
        self.resp_p = resp_p
        self.proto = proto
        self.proto_table = proto_table
        self.orig_bytes = orig_bytes
        self.resp_bytes = resp_bytes
        self.ua = ua
        self.ua_table = ua_table
        self.host = host
        self.host_table = host_table

    @classmethod
    def empty(cls, proto_table: List[str], ua_table: List[str],
              host_table: List[str]) -> "FlowBatch":
        return cls(
            uid=np.zeros(0, dtype=np.int64),
            ts=np.zeros(0, dtype=np.float64),
            duration=np.zeros(0, dtype=np.float64),
            orig_h=np.zeros(0, dtype=np.int64),
            orig_p=np.zeros(0, dtype=np.int64),
            resp_h=np.zeros(0, dtype=np.int64),
            resp_p=np.zeros(0, dtype=np.int64),
            proto=np.zeros(0, dtype=np.int64),
            proto_table=proto_table,
            orig_bytes=np.zeros(0, dtype=np.int64),
            resp_bytes=np.zeros(0, dtype=np.int64),
            ua=np.zeros(0, dtype=np.int64),
            ua_table=ua_table,
            host=np.zeros(0, dtype=np.int64),
            host_table=host_table,
        )

    def compress(self, mask: np.ndarray) -> "FlowBatch":
        """A new batch holding only the masked rows (tables shared)."""
        idx = np.flatnonzero(mask) if mask.dtype == bool else mask
        return FlowBatch(
            uid=self.uid[idx],
            ts=self.ts[idx],
            duration=self.duration[idx],
            orig_h=self.orig_h[idx],
            orig_p=self.orig_p[idx],
            resp_h=self.resp_h[idx],
            resp_p=self.resp_p[idx],
            proto=self.proto[idx],
            proto_table=self.proto_table,
            orig_bytes=self.orig_bytes[idx],
            resp_bytes=self.resp_bytes[idx],
            ua=self.ua[idx],
            ua_table=self.ua_table,
            host=self.host[idx],
            host_table=self.host_table,
        )

    def to_conn_records(self) -> List[ConnRecord]:
        """Materialize ConnRecord rows (compat/testing surface only).

        The hot path never calls this -- batches flow straight into
        :class:`~repro.columnar.ingest.BatchRegistrar`.
        """
        table = self.proto_table
        return [
            ConnRecord(
                uid=int(self.uid[i]),
                ts=float(self.ts[i]),
                duration=float(self.duration[i]),
                orig_h=int(self.orig_h[i]),
                orig_p=int(self.orig_p[i]),
                resp_h=int(self.resp_h[i]),
                resp_p=int(self.resp_p[i]),
                proto=table[int(self.proto[i])],
                orig_bytes=int(self.orig_bytes[i]),
                resp_bytes=int(self.resp_bytes[i]),
                user_agent=(None if self.ua[i] < 0
                            else self.ua_table[int(self.ua[i])]),
                http_host=(None if self.host[i] < 0
                           else self.host_table[int(self.host[i])]),
            )
            for i in range(self.n)
        ]
