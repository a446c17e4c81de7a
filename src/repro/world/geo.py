"""Geographic ground truth and the synthetic geolocation database.

The paper geolocates every destination IP with a commercial database;
we substitute a prefix-indexed table built alongside the address plan.
The analysis-side classifier (:mod:`repro.geo`) consumes only the
batch ``locate(ips) -> (lat, lon)`` interface (``lookup(ip) ->
GeoLocation`` is its scalar form), so swapping in a real GeoIP backend
would be a one-class change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.ip import Prefix, PrefixTable


@dataclass(frozen=True)
class GeoLocation:
    """A geolocation result: ISO country code plus coordinates."""

    country: str
    lat: float
    lon: float
    city: str = ""

    @property
    def is_us(self) -> bool:
        return self.country == "US"


#: Named hosting locations used by the service catalog. Coordinates are
#: approximate city centroids; only country membership and rough great-
#: circle geometry matter to the midpoint analysis.
LOCATIONS: Dict[str, GeoLocation] = {
    "san_diego": GeoLocation("US", 32.72, -117.16, "San Diego"),
    "san_jose": GeoLocation("US", 37.34, -121.89, "San Jose"),
    "seattle": GeoLocation("US", 47.61, -122.33, "Seattle"),
    "ashburn": GeoLocation("US", 39.04, -77.49, "Ashburn"),
    "dallas": GeoLocation("US", 32.78, -96.80, "Dallas"),
    "chicago": GeoLocation("US", 41.88, -87.63, "Chicago"),
    "new_york": GeoLocation("US", 40.71, -74.01, "New York"),
    "frankfurt": GeoLocation("DE", 50.11, 8.68, "Frankfurt"),
    "london": GeoLocation("GB", 51.51, -0.13, "London"),
    "beijing": GeoLocation("CN", 39.90, 116.41, "Beijing"),
    "shanghai": GeoLocation("CN", 31.23, 121.47, "Shanghai"),
    "shenzhen": GeoLocation("CN", 22.54, 114.06, "Shenzhen"),
    "seoul": GeoLocation("KR", 37.57, 126.98, "Seoul"),
    "tokyo": GeoLocation("JP", 35.68, 139.69, "Tokyo"),
    "mumbai": GeoLocation("IN", 19.08, 72.88, "Mumbai"),
    "singapore": GeoLocation("SG", 1.35, 103.82, "Singapore"),
    "sao_paulo": GeoLocation("BR", -23.55, -46.63, "Sao Paulo"),
    "mexico_city": GeoLocation("MX", 19.43, -99.13, "Mexico City"),
    "sydney": GeoLocation("AU", -33.87, 151.21, "Sydney"),
}


class GeoDatabase:
    """Longest-prefix geolocation over a static prefix table.

    Lookups go through one :class:`~repro.net.ip.PrefixTable` over every
    registered prefix: the most specific prefix covering an address
    wins, and among duplicates the one added last -- standard GeoIP
    semantics. The table is built on first query (or by
    :meth:`build_index`) and dropped by :meth:`add`.
    """

    #: No registered prefix may be shorter than this.
    MIN_PREFIX_LENGTH = 8

    def __init__(self) -> None:
        self._entries: List[Tuple[Prefix, GeoLocation]] = []
        self._index: Optional[_GeoIndex] = None

    def add(self, prefix: Prefix, location: GeoLocation) -> None:
        """Register a prefix's location."""
        if prefix.length < self.MIN_PREFIX_LENGTH:
            raise ValueError(
                f"prefix {prefix} shorter than /{self.MIN_PREFIX_LENGTH}"
            )
        self._entries.append((prefix, location))
        self._index = None

    def build_index(self) -> None:
        """Build the lookup table now rather than on the first query."""
        self._ensure_index()

    def _ensure_index(self) -> "_GeoIndex":
        index = self._index
        if index is None:
            index = self._index = _GeoIndex(self._entries)
        return index

    def lookup(self, address: int) -> Optional[GeoLocation]:
        """Return the location of the most specific prefix covering ``address``."""
        entry = self._ensure_index().table.lookup(address)
        return self._entries[entry][1] if entry >= 0 else None

    def locate(self, addresses: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vector :meth:`lookup`: latitude and longitude arrays.

        Both are NaN where no registered prefix covers the address.
        """
        index = self._ensure_index()
        entry = index.table.lookup_many(addresses)
        # Entry -1 (no match) selects the trailing NaN.
        return index.lat[entry], index.lon[entry]

    def __len__(self) -> int:
        return len(self._entries)


class _GeoIndex:
    """A :class:`GeoDatabase`'s prefix table plus per-entry coordinates."""

    def __init__(self, entries: Sequence[Tuple[Prefix, GeoLocation]]):
        self.table = PrefixTable([prefix for prefix, _ in entries])
        self.lat = np.array([loc.lat for _, loc in entries] + [np.nan])
        self.lon = np.array([loc.lon for _, loc in entries] + [np.nan])
