"""Tests for repro.net.ip."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.net.ip import (
    Prefix,
    PrefixAllocator,
    PrefixTable,
    int_to_ip,
    ip_in_any,
    ip_to_int,
)


class TestConversions:
    def test_known_values(self):
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int("0.0.0.1") == 1
        assert ip_to_int("1.0.0.0") == 2**24
        assert ip_to_int("255.255.255.255") == 2**32 - 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    def test_rejects_malformed(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                ip_to_int(bad)

    def test_int_to_ip_range(self):
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(2**32)


class TestPrefix:
    def test_parse(self):
        prefix = Prefix.parse("10.1.0.0/16")
        assert prefix.network == ip_to_int("10.1.0.0")
        assert prefix.length == 16
        assert prefix.size == 65536

    def test_parse_requires_length(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0")

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            Prefix(ip_to_int("10.0.0.1"), 24)

    def test_contains(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert prefix.contains(ip_to_int("10.0.0.0"))
        assert prefix.contains(ip_to_int("10.0.0.255"))
        assert not prefix.contains(ip_to_int("10.0.1.0"))

    def test_str(self):
        assert str(Prefix.parse("50.0.0.0/8")) == "50.0.0.0/8"

    def test_host_count(self):
        assert Prefix.parse("10.0.0.0/30").size == 4
        assert len(list(Prefix.parse("10.0.0.0/30").addresses())) == 4

    def test_ip_in_any(self):
        prefixes = [Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.2.0/24")]
        assert ip_in_any(ip_to_int("10.0.2.7"), prefixes)
        assert not ip_in_any(ip_to_int("10.0.1.7"), prefixes)


class TestPrefixAllocator:
    def test_sequential_disjoint(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        children = [allocator.allocate(24) for _ in range(4)]
        seen = set()
        for child in children:
            addresses = set(range(child.first, child.last + 1))
            assert not addresses & seen
            seen |= addresses

    def test_alignment_after_mixed_sizes(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        allocator.allocate(26)  # quarter of a /24
        aligned = allocator.allocate(24)
        assert aligned.network % aligned.size == 0

    def test_exhaustion(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/30"))
        allocator.allocate(31)
        allocator.allocate(31)
        with pytest.raises(ValueError):
            allocator.allocate(31)

    def test_rejects_oversized_child(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        with pytest.raises(ValueError):
            allocator.allocate(8)

    def test_deterministic(self):
        def plan():
            allocator = PrefixAllocator(Prefix.parse("10.0.0.0/12"))
            return [str(allocator.allocate(length))
                    for length in (24, 26, 20, 28)]
        assert plan() == plan()

    def test_remaining_decreases(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/24"))
        before = allocator.remaining()
        allocator.allocate(26)
        assert allocator.remaining() == before - 64


class TestPrefixTable:
    def test_empty_table_misses(self):
        table = PrefixTable([])
        assert len(table) == 0
        assert table.lookup(0) == -1
        assert table.lookup_many(np.array([0, 2**32 - 1])).tolist() == [-1, -1]

    def test_most_specific_prefix_wins(self):
        table = PrefixTable([Prefix.parse("10.0.0.0/8"),
                             Prefix.parse("10.1.0.0/16"),
                             Prefix.parse("10.1.2.0/24")])
        assert table.lookup(ip_to_int("10.1.2.3")) == 2
        assert table.lookup(ip_to_int("10.1.3.3")) == 1
        assert table.lookup(ip_to_int("10.2.0.0")) == 0
        assert table.lookup(ip_to_int("11.0.0.0")) == -1
        assert table.lookup(ip_to_int("9.255.255.255")) == -1

    def test_enclosing_prefix_resumes_after_nested_one(self):
        table = PrefixTable([Prefix.parse("10.0.0.0/24"),
                             Prefix.parse("10.0.0.0/8")])
        assert table.lookup(ip_to_int("10.0.0.255")) == 0
        assert table.lookup(ip_to_int("10.0.1.0")) == 1

    def test_duplicate_listed_last_wins(self):
        prefix = Prefix.parse("10.0.0.0/24")
        table = PrefixTable([prefix, Prefix.parse("10.0.0.0/8"), prefix])
        assert table.lookup(ip_to_int("10.0.0.7")) == 2

    def test_whole_space_and_top_address(self):
        table = PrefixTable([Prefix.parse("0.0.0.0/0"),
                             Prefix.parse("255.255.255.255/32")])
        addresses = np.array([0, 2**32 - 2, 2**32 - 1], dtype=np.uint32)
        assert table.lookup_many(addresses).tolist() == [0, 0, 1]
        assert table.lookup(2**32) == -1

    def test_scalar_and_vector_agree(self):
        table = PrefixTable([Prefix.parse("50.0.0.0/16"),
                             Prefix.parse("50.0.4.0/22")])
        addresses = list(range(ip_to_int("50.0.0.0") - 2,
                               ip_to_int("50.1.0.0") + 2, 97))
        assert (table.lookup_many(np.array(addresses)).tolist()
                == [table.lookup(a) for a in addresses])
