"""The traffic mirror ("tap") with excluded networks.

The paper's mirror specifically excludes several high-volume operator
networks (parts of UC San Diego, Google Cloud, Amazon, Microsoft Azure,
Riot Games, Twitch, Qualys, Apple). The tap drops any burst whose
remote endpoint falls in an excluded block before the flow engine ever
sees it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence

import numpy as np

from repro.net.ip import Prefix, PrefixTable
from repro.net.wire import SegmentBurst

if TYPE_CHECKING:  # imported lazily to avoid a cycle via repro.columnar
    from repro.columnar.batch import BurstBatch


class Tap:
    """Filters wire events against an excluded-prefix list."""

    def __init__(self, excluded: Sequence[Prefix] = ()):
        self._table = PrefixTable(excluded)
        self.dropped_bursts = 0
        self.dropped_bytes = 0

    def is_excluded(self, address: int) -> bool:
        """True when an address falls in an excluded block."""
        return self._table.lookup(address) >= 0

    def filter(self, bursts: Iterable[SegmentBurst]) -> List[SegmentBurst]:
        """Return the bursts the mirror forwards, tallying the drops."""
        kept: List[SegmentBurst] = []
        for burst in bursts:
            if self.is_excluded(burst.server_ip):
                self.dropped_bursts += 1
                self.dropped_bytes += burst.orig_bytes + burst.resp_bytes
            else:
                kept.append(burst)
        return kept

    def filter_batch(self, batch: "BurstBatch") -> "BurstBatch":
        """Vector twin of :meth:`filter`: same drops, same tallies."""
        if not len(self._table) or batch.n == 0:
            return batch
        excluded = self._table.lookup_many(batch.server_ip) >= 0
        if not excluded.any():
            return batch
        self.dropped_bursts += int(np.count_nonzero(excluded))
        self.dropped_bytes += int(batch.orig_bytes[excluded].sum()
                                  + batch.resp_bytes[excluded].sum())
        return batch.compress(~excluded)
