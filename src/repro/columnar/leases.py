"""Vectorized IP->MAC attribution: an interval join over lease arrays.

The columnar twin of :class:`repro.dhcp.normalize.IpMacResolver`.
Ingest is the same per-record state machine (renewals extend the open
binding, foreign grants truncate it), but bindings accumulate into one
flat entry log instead of per-IP Python lists. Queries are answered
for whole batches at once via a *rank-encoded segmented searchsorted*:

* entries are stably sorted by IP (per-IP time order is preserved),
* each entry's start is replaced by its global rank among all starts,
* ``key = ip_index * (n + 1) + rank`` makes one sorted int64 axis in
  which a query ``(ip, ts)`` finds "the last binding of this IP whose
  start <= ts" with a single ``np.searchsorted`` -- exactly the
  ``bisect_right - 1`` the reference twin performs per flow. The rank
  identity used: ``left_rank(start) < right_rank(ts)  iff  start <= ts``.

Holdover (``mac_at_stale``) shares the located entry and only changes
the expiry predicate, mirroring the reference's degraded path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dhcp.log import DhcpLogRecord
from repro.net.mac import MacAddress
from repro.reliability.errors import CATEGORY_ORDER, RecordError


class ColumnarLeaseIndex:
    """Point-in-time IP->MAC lookup with batch (vectorized) queries."""

    def __init__(self) -> None:
        self._ips: List[int] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._mids: List[int] = []
        #: ip -> flat index of its most recent entry.
        self._tail: Dict[int, int] = {}
        self.mac_table: List[MacAddress] = []
        self._mac_ids: Dict[int, int] = {}
        self._record_count = 0
        self._built: Optional[tuple] = None

    # -- ingest (scalar; the exact reference state machine) ---------------

    def _intern_mac(self, mac: MacAddress) -> int:
        mid = self._mac_ids.get(mac.value)
        if mid is None:
            mid = len(self.mac_table)
            self._mac_ids[mac.value] = mid
            self.mac_table.append(mac)
        return mid

    def ingest(self, record: DhcpLogRecord) -> None:
        """Incorporate one ACK. Records must arrive in time order per IP."""
        self._record_count += 1
        tail = self._tail.get(record.ip)
        if tail is not None and record.ts < self._starts[tail]:
            raise RecordError(
                f"DHCP log out of order for IP {record.ip}: "
                f"{record.ts} < {self._starts[tail]}",
                source="dhcp", category=CATEGORY_ORDER)
        mid = self._intern_mac(record.mac)
        self._built = None
        if tail is not None and self._mids[tail] == mid \
                and record.ts <= self._ends[tail]:
            # Renewal: extend the open binding.
            self._ends[tail] = max(self._ends[tail], record.lease_end)
            return
        if tail is not None and self._ends[tail] > record.ts:
            self._ends[tail] = record.ts
        self._tail[record.ip] = len(self._ips)
        self._ips.append(record.ip)
        self._starts.append(record.ts)
        self._ends.append(record.lease_end)
        self._mids.append(mid)

    # -- build -------------------------------------------------------------

    def _build(self) -> tuple:
        if self._built is None:
            n = len(self._ips)
            ips = np.array(self._ips, dtype=np.int64)
            starts = np.array(self._starts, dtype=np.float64)
            ends = np.array(self._ends, dtype=np.float64)
            mids = np.array(self._mids, dtype=np.int32)
            order = np.argsort(ips, kind="stable")
            ips_s = ips[order]
            starts_s = starts[order]
            uniq, offsets = np.unique(ips_s, return_index=True)
            start_values = np.sort(starts)
            radix = np.int64(n + 1)
            ranks = np.searchsorted(start_values, starts_s, side="left")
            keys = (np.searchsorted(uniq, ips_s).astype(np.int64) * radix
                    + ranks)
            self._built = (uniq, offsets.astype(np.int64), keys,
                           start_values, radix, ends[order], mids[order])
        return self._built

    def _locate(self, ips: np.ndarray,
                tss: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Entry index of the last binding starting at or before each ts.

        Returns ``(idx, valid)``; ``idx`` entries are meaningless where
        ``valid`` is False.
        """
        m = len(ips)
        if not self._ips:
            return np.zeros(m, dtype=np.int64), np.zeros(m, dtype=bool)
        uniq, offsets, keys, start_values, radix, _ends, _mids = self._build()
        pos = np.searchsorted(uniq, ips)
        posc = np.minimum(pos, len(uniq) - 1)
        found = uniq[posc] == ips
        q = np.searchsorted(start_values, tss, side="right")
        p = np.searchsorted(keys, posc.astype(np.int64) * radix + q,
                            side="left")
        valid = found & (p > offsets[posc])
        return np.maximum(p - 1, 0), valid

    # -- batch queries -----------------------------------------------------

    def mac_ids_at(self, ips: np.ndarray, tss: np.ndarray) -> np.ndarray:
        """Vector twin of ``mac_at``: mac-table ids, -1 where unbound."""
        idx, valid = self._locate(ips, tss)
        out = np.full(len(ips), -1, dtype=np.int32)
        if valid.any():
            built = self._build()
            ends_s, mids_s = built[5], built[6]
            ok = valid & (tss < ends_s[idx])
            out[ok] = mids_s[idx[ok]]
        return out

    def mac_ids_at_stale(self, ips: np.ndarray, tss: np.ndarray,
                         staleness_seconds: float) -> np.ndarray:
        """Vector twin of ``mac_at_stale``: bounded lease holdover."""
        idx, valid = self._locate(ips, tss)
        out = np.full(len(ips), -1, dtype=np.int32)
        if valid.any():
            built = self._build()
            ends_s, mids_s = built[5], built[6]
            ends = ends_s[idx]
            ok = valid & ((tss < ends) | (tss - ends <= staleness_seconds))
            out[ok] = mids_s[idx[ok]]
        return out

    # -- scalar compat surface (reference API) -----------------------------

    def mac_at(self, ip: int, ts: float) -> Optional[MacAddress]:
        mid = self.mac_ids_at(np.array([ip], dtype=np.int64),
                              np.array([ts], dtype=np.float64))[0]
        return None if mid < 0 else self.mac_table[int(mid)]

    def mac_at_stale(self, ip: int, ts: float,
                     staleness_seconds: float) -> Optional[MacAddress]:
        mid = self.mac_ids_at_stale(np.array([ip], dtype=np.int64),
                                    np.array([ts], dtype=np.float64),
                                    staleness_seconds)[0]
        return None if mid < 0 else self.mac_table[int(mid)]

    def bindings_of(self, ip: int) -> Tuple[Tuple[float, float, MacAddress],
                                            ...]:
        """Full binding history of one IP (inspection/testing)."""
        return tuple(
            (self._starts[i], self._ends[i], self.mac_table[self._mids[i]])
            for i in range(len(self._ips)) if self._ips[i] == ip)

    @property
    def record_count(self) -> int:
        return self._record_count

    def __len__(self) -> int:
        return len(self._tail)
