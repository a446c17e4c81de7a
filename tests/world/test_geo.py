"""Tests for the synthetic geolocation database."""

import numpy as np
import pytest

from repro.net.ip import Prefix, ip_to_int
from repro.world.geo import LOCATIONS, GeoDatabase, GeoLocation


class TestLocations:
    def test_catalog_locations_well_formed(self):
        for key, location in LOCATIONS.items():
            assert -90 <= location.lat <= 90, key
            assert -180 <= location.lon <= 180, key
            assert len(location.country) == 2

    def test_us_flag(self):
        assert LOCATIONS["san_diego"].is_us
        assert not LOCATIONS["beijing"].is_us


class TestGeoDatabase:
    def _db(self):
        db = GeoDatabase()
        db.add(Prefix.parse("50.0.0.0/24"), LOCATIONS["san_diego"])
        db.add(Prefix.parse("50.0.1.0/24"), LOCATIONS["beijing"])
        db.add(Prefix.parse("60.0.0.0/16"), LOCATIONS["seoul"])
        return db

    def test_exact_hit(self):
        db = self._db()
        assert db.lookup(ip_to_int("50.0.0.17")).city == "San Diego"
        assert db.lookup(ip_to_int("50.0.1.17")).city == "Beijing"

    def test_miss(self):
        db = self._db()
        assert db.lookup(ip_to_int("50.0.2.1")) is None
        assert db.lookup(ip_to_int("8.8.8.8")) is None

    def test_boundaries(self):
        db = self._db()
        assert db.lookup(ip_to_int("50.0.0.0")).city == "San Diego"
        assert db.lookup(ip_to_int("50.0.0.255")).city == "San Diego"
        assert db.lookup(ip_to_int("60.0.255.255")).city == "Seoul"
        assert db.lookup(ip_to_int("60.1.0.0")) is None

    def test_longest_prefix_wins(self):
        db = GeoDatabase()
        db.add(Prefix.parse("50.0.0.0/16"), LOCATIONS["seattle"])
        db.add(Prefix.parse("50.0.4.0/24"), LOCATIONS["tokyo"])
        assert db.lookup(ip_to_int("50.0.4.9")).city == "Tokyo"
        assert db.lookup(ip_to_int("50.0.5.9")).city == "Seattle"

    def test_min_prefix_length_enforced(self):
        db = GeoDatabase()
        with pytest.raises(ValueError):
            db.add(Prefix.parse("0.0.0.0/0"), LOCATIONS["seattle"])

    def test_lookup_after_incremental_add(self):
        db = self._db()
        assert db.lookup(ip_to_int("50.0.0.1")) is not None
        db.add(Prefix.parse("70.0.0.0/24"), LOCATIONS["mumbai"])
        assert db.lookup(ip_to_int("70.0.0.5")).city == "Mumbai"
        assert db.lookup(ip_to_int("50.0.1.5")).city == "Beijing"

    def test_empty_database(self):
        assert GeoDatabase().lookup(123) is None

    def test_duplicate_prefix_last_added_wins(self):
        db = GeoDatabase()
        db.add(Prefix.parse("50.0.0.0/24"), LOCATIONS["seattle"])
        db.add(Prefix.parse("50.0.0.0/24"), LOCATIONS["tokyo"])
        assert db.lookup(ip_to_int("50.0.0.9")).city == "Tokyo"


class TestLocate:
    def test_matches_scalar_lookup(self):
        db = GeoDatabase()
        db.add(Prefix.parse("50.0.0.0/16"), LOCATIONS["seattle"])
        db.add(Prefix.parse("50.0.4.0/24"), LOCATIONS["tokyo"])
        db.add(Prefix.parse("60.0.0.0/24"), LOCATIONS["beijing"])
        addresses = np.array([ip_to_int(text) for text in (
            "50.0.4.9", "50.0.5.9", "60.0.0.255", "60.0.1.0", "8.8.8.8",
            "49.255.255.255", "50.0.0.0")])
        lat, lon = db.locate(addresses)
        for address, got_lat, got_lon in zip(addresses, lat, lon):
            location = db.lookup(int(address))
            if location is None:
                assert np.isnan(got_lat) and np.isnan(got_lon)
            else:
                assert (got_lat, got_lon) == (location.lat, location.lon)

    def test_empty_database_and_input(self):
        lat, lon = GeoDatabase().locate(np.array([1, 2]))
        assert np.isnan(lat).all() and np.isnan(lon).all()
        lat, lon = GeoDatabase().locate(np.array([], dtype=np.int64))
        assert lat.size == 0 and lon.size == 0

    def test_add_invalidates_built_index(self):
        db = GeoDatabase()
        db.add(Prefix.parse("50.0.0.0/24"), LOCATIONS["seattle"])
        db.build_index()
        db.add(Prefix.parse("70.0.0.0/24"), LOCATIONS["mumbai"])
        lat, _ = db.locate(np.array([ip_to_int("70.0.0.5")]))
        assert lat[0] == LOCATIONS["mumbai"].lat
