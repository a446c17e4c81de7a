"""The synthetic internet's address plan.

Lays out IPv4 space deterministically:

* independent services draw hosting prefixes from ``50.0.0.0/8``;
* each named operator network (Google Cloud, Amazon, ...) gets its own
  ``/12`` out of ``60.0.0.0/8``, and that operator's services are carved
  from it -- the passive tap's excluded-network list is exactly these
  operator blocks, matching how the paper's mirror excludes whole
  operators rather than individual services;
* campus residential clients draw DHCP pools from ``100.64.0.0/12``.

Alongside the prefixes, the plan builds the ground-truth
:class:`~repro.world.geo.GeoDatabase` and the "published" IP-range
documents that application signatures (Zoom's support page and its
Wayback history) are constructed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.net.ip import Prefix, PrefixAllocator, PrefixTable
from repro.world.geo import GeoDatabase, GeoLocation, LOCATIONS
from repro.world.services import Service, ServiceDirectory

#: Parent block for services on independent networks.
INDEPENDENT_PARENT = Prefix.parse("50.0.0.0/8")

#: Parent block subdivided into per-operator /12s.
OPERATOR_PARENT = Prefix.parse("60.0.0.0/8")

#: Parent block for campus residential DHCP pools.
CLIENT_PARENT = Prefix.parse("100.64.0.0/12")


@dataclass(frozen=True)
class PublishedRanges:
    """An IP-range publication for one service (e.g. Zoom's support page).

    ``current`` entries are on the page today; ``wayback`` entries only
    appear in archived versions -- the paper mined the Wayback Machine
    for ranges Zoom had removed (Section 5.1).
    """

    service: str
    current: Tuple[Prefix, ...]
    wayback: Tuple[Prefix, ...] = ()

    @property
    def all_ranges(self) -> Tuple[Prefix, ...]:
        return self.current + self.wayback


@dataclass
class AddressPlan:
    """Complete address-plan artefact for one synthetic internet."""

    directory: ServiceDirectory
    #: service name -> hosting prefixes, one per declared location,
    #: in the service's location order.
    service_prefixes: Dict[str, Tuple[Prefix, ...]]
    #: ground-truth geolocation of every hosting prefix.
    geo_db: GeoDatabase
    #: operator label -> that operator's aggregate block.
    operator_blocks: Dict[str, Prefix]
    #: DHCP pool prefixes for the residential network.
    client_pools: Tuple[Prefix, ...]

    def prefixes_for_service(self, name: str) -> Tuple[Prefix, ...]:
        """Hosting prefixes of a service, raising KeyError when unknown."""
        return self.service_prefixes[name]

    def prefixes_for_domain(self, domain: str) -> Tuple[Prefix, ...]:
        """Hosting prefixes behind a domain (empty when unregistered)."""
        service = self.directory.find_domain(domain)
        if service is None:
            return ()
        return self.service_prefixes[service.name]

    def excluded_blocks(self, operators: Tuple[str, ...]) -> Tuple[Prefix, ...]:
        """Aggregate blocks for the tap's excluded-operator list."""
        missing = [name for name in operators if name not in self.operator_blocks]
        if missing:
            raise KeyError(f"unknown operator networks: {missing}")
        return tuple(self.operator_blocks[name] for name in operators)

    def service_of_address(self, address: int) -> Optional[Service]:
        """Ground-truth reverse lookup (simulation/tests only)."""
        table, names = self._service_index
        entry = table.lookup(address)
        return self.directory.get(names[entry]) if entry >= 0 else None

    @cached_property
    def _service_index(self) -> Tuple[PrefixTable, Tuple[str, ...]]:
        """Every hosting prefix in one table, with its service's name."""
        pairs = [(prefix, name)
                 for name, prefixes in self.service_prefixes.items()
                 for prefix in prefixes]
        return (PrefixTable([prefix for prefix, _ in pairs]),
                tuple(name for _, name in pairs))

    def published_ranges(self, name: str,
                         wayback_locations: int = 0) -> PublishedRanges:
        """Build a published IP-range document for a service.

        The last ``wayback_locations`` hosting prefixes are presented as
        archived (removed-from-page) entries. The default Zoom
        publication uses one wayback location -- its legacy Dallas
        block, which still carries live media traffic in the synthetic
        world, exactly the situation the paper's Wayback mining handles.
        """
        prefixes = self.service_prefixes[name]
        if wayback_locations < 0 or wayback_locations > len(prefixes):
            raise ValueError(
                f"wayback_locations must lie in [0, {len(prefixes)}]"
            )
        split = len(prefixes) - wayback_locations
        return PublishedRanges(
            service=name,
            current=prefixes[:split],
            wayback=prefixes[split:],
        )

    def zoom_publication(self) -> PublishedRanges:
        """Zoom's support-page ranges plus Wayback history."""
        return self.published_ranges("zoom", wayback_locations=1)


def build_address_plan(directory: ServiceDirectory,
                       client_pool_count: int = 4,
                       client_pool_length: int = 18) -> AddressPlan:
    """Allocate prefixes for every service and the campus client pools.

    Allocation order follows the directory's registration order, so a
    given catalog always produces the same plan.
    """
    independent = PrefixAllocator(INDEPENDENT_PARENT)
    operator_parent = PrefixAllocator(OPERATOR_PARENT)
    operator_allocators: Dict[str, PrefixAllocator] = {}
    operator_blocks: Dict[str, Prefix] = {}

    geo_db = GeoDatabase()
    service_prefixes: Dict[str, Tuple[Prefix, ...]] = {}

    for service in directory:
        if service.operator is not None:
            if service.operator not in operator_allocators:
                block = operator_parent.allocate(12)
                operator_blocks[service.operator] = block
                operator_allocators[service.operator] = PrefixAllocator(block)
            allocator = operator_allocators[service.operator]
        else:
            allocator = independent

        prefixes: List[Prefix] = []
        for location_key in service.locations:
            location = _location(location_key)
            prefix = allocator.allocate(service.prefix_length)
            geo_db.add(prefix, location)
            prefixes.append(prefix)
        service_prefixes[service.name] = tuple(prefixes)

    client_allocator = PrefixAllocator(CLIENT_PARENT)
    client_pools = tuple(
        client_allocator.allocate(client_pool_length)
        for _ in range(client_pool_count)
    )
    geo_db.build_index()

    return AddressPlan(
        directory=directory,
        service_prefixes=service_prefixes,
        geo_db=geo_db,
        operator_blocks=operator_blocks,
        client_pools=client_pools,
    )


def _location(key: str) -> GeoLocation:
    try:
        return LOCATIONS[key]
    except KeyError:
        raise KeyError(
            f"unknown hosting location {key!r}; add it to repro.world.geo.LOCATIONS"
        ) from None
