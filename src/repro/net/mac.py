"""MAC addresses with vendor (OUI) semantics.

Device classification in the paper leans on organizationally unique
identifiers (OUIs) extracted from traffic. Modern phones complicate
this by using *locally administered* randomized MACs (the U/L bit set),
which carry no vendor information -- one of the mechanisms behind the
paper's large "unclassified" device class. Both address kinds are
modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LAA_BIT = 0x02  # locally-administered bit in the first octet
_MULTICAST_BIT = 0x01


@dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit MAC address stored as an integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**48:
            raise ValueError(f"MAC value out of range: {self.value:#x}")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` (or ``-`` separated) notation."""
        if not isinstance(text, str):
            raise TypeError(f"MAC address must be a string, not "
                            f"{type(text).__name__}")
        octets = text.replace("-", ":").split(":")
        if len(octets) != 6:
            raise ValueError(f"malformed MAC address: {text!r}")
        value = 0
        for octet in octets:
            value = (value << 8) | int(octet, 16)
        return cls(value)

    @property
    def oui(self) -> int:
        """The 24-bit organizationally unique identifier."""
        return self.value >> 24

    @property
    def is_locally_administered(self) -> bool:
        """True for randomized/software-assigned addresses (U/L bit set)."""
        return bool((self.value >> 40) & _LAA_BIT)

    @property
    def is_multicast(self) -> bool:
        """True when the I/G bit marks a group address."""
        return bool((self.value >> 40) & _MULTICAST_BIT)

    def __str__(self) -> str:
        raw = self.value.to_bytes(6, "big")
        return ":".join(f"{octet:02x}" for octet in raw)


def vendor_mac(oui: int, rng: np.random.Generator) -> MacAddress:
    """Return a random globally-unique MAC under a vendor's OUI."""
    if not 0 <= oui < 2**24:
        raise ValueError(f"OUI out of range: {oui:#x}")
    if (oui >> 16) & (_LAA_BIT | _MULTICAST_BIT):
        raise ValueError(f"OUI {oui:#06x} has U/L or I/G bits set")
    suffix = int(rng.integers(0, 2**24))
    return MacAddress((oui << 24) | suffix)


def random_laa_mac(rng: np.random.Generator) -> MacAddress:
    """Return a randomized, locally-administered unicast MAC.

    This mimics the per-network MAC randomization of modern mobile
    operating systems: the U/L bit is set and the I/G bit cleared, so
    the OUI lookup of a classifier finds no vendor.
    """
    value = int(rng.integers(0, 2**48))
    first = (value >> 40) & 0xFF
    first = (first | _LAA_BIT) & ~_MULTICAST_BIT
    return MacAddress((first << 40) | (value & ((1 << 40) - 1)))
