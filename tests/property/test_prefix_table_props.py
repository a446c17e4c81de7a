"""Property tests: PrefixTable equals a brute-force longest-prefix scan."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net.ip import Prefix, PrefixTable

TOP = 2**32 - 1


@st.composite
def prefix_lists(draw):
    """Random prefix lists rich in nesting, enclosing and duplicates."""
    prefixes = []
    for _ in range(draw(st.integers(0, 12))):
        kind = (draw(st.sampled_from(
            ("fresh", "nested", "enclosing", "duplicate")))
            if prefixes else "fresh")
        if kind == "duplicate":
            prefixes.append(draw(st.sampled_from(prefixes)))
            continue
        if kind == "fresh":
            length = draw(st.integers(0, 32))
            network = draw(st.integers(0, (1 << length) - 1)) << (32 - length)
        elif kind == "nested":
            parent = draw(st.sampled_from(prefixes))
            length = draw(st.integers(parent.length, 32))
            children = 1 << (length - parent.length)
            network = parent.network + (
                draw(st.integers(0, children - 1)) << (32 - length))
        else:
            child = draw(st.sampled_from(prefixes))
            length = draw(st.integers(0, child.length))
            network = child.network & ~((1 << (32 - length)) - 1)
        prefixes.append(Prefix(network, length))
    return prefixes


def brute_force(prefixes, address):
    """Index of the longest covering prefix; the last listed on ties."""
    best = -1
    for index, prefix in enumerate(prefixes):
        if prefix.first <= address <= prefix.last and (
                best < 0 or prefix.length >= prefixes[best].length):
            best = index
    return best


def probes(prefixes):
    points = {0, TOP}
    for prefix in prefixes:
        points.update((prefix.first, prefix.last, prefix.last + 1))
    return sorted(points)


class TestPrefixTableProperties:
    @settings(max_examples=300, deadline=None)
    @given(prefix_lists())
    def test_scalar_lookup_matches_brute_force(self, prefixes):
        table = PrefixTable(prefixes)
        for address in probes(prefixes):
            assert table.lookup(address) == brute_force(prefixes, address)

    @settings(max_examples=300, deadline=None)
    @given(prefix_lists())
    def test_vector_lookup_matches_brute_force(self, prefixes):
        table = PrefixTable(prefixes)
        addresses = np.array(probes(prefixes), dtype=np.int64)
        expected = [brute_force(prefixes, int(a)) for a in addresses]
        assert table.lookup_many(addresses).tolist() == expected

    @settings(deadline=None)
    @given(prefix_lists(), st.lists(st.integers(0, TOP), max_size=20))
    def test_uint32_input_matches_brute_force(self, prefixes, addresses):
        table = PrefixTable(prefixes)
        got = table.lookup_many(np.array(addresses, dtype=np.uint32))
        assert got.tolist() == [brute_force(prefixes, a) for a in addresses]
