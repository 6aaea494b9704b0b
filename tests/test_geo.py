"""Geo-replication scenario library: maps, region assignment, schedules."""

import pytest

from repro.chaos.engine import run_schedule
from repro.chaos.generator import generate_schedule
from repro.chaos.schedule import ChaosSchedule, FaultOp
from repro.errors import ConfigError
from repro.sim.geo import (
    GEO_MAPS,
    REGIONS3,
    REGIONS5,
    GeoMap,
    geo_latency_map,
    region_assignment,
    resolve_geo,
)

FIVE = (1, 2, 3, 4, 5)


class TestGeoMaps:
    def test_builtin_maps_registered(self):
        assert GEO_MAPS["regions3"] is REGIONS3
        assert GEO_MAPS["regions5"] is REGIONS5

    def test_resolve_by_name_and_passthrough(self):
        assert resolve_geo("regions3") is REGIONS3
        assert resolve_geo(REGIONS5) is REGIONS5

    def test_resolve_unknown_rejected(self):
        with pytest.raises(ConfigError):
            resolve_geo("regions99")

    def test_map_must_cover_every_pair(self):
        with pytest.raises(ConfigError):
            GeoMap(name="broken", regions=("a", "b", "c"),
                   inter_one_way_ms={(0, 1): 10.0})

    def test_map_needs_two_regions(self):
        with pytest.raises(ConfigError):
            GeoMap(name="lonely", regions=("a",), inter_one_way_ms={})

    def test_one_way_is_symmetric_and_intra_is_fast(self):
        assert REGIONS3.one_way_ms(0, 2) == REGIONS3.one_way_ms(2, 0)
        assert REGIONS3.one_way_ms(1, 1) == REGIONS3.intra_one_way_ms
        # The shape that matters: intra-region ~100x faster than WAN.
        slowest = max(REGIONS3.inter_one_way_ms.values())
        assert slowest / REGIONS3.intra_one_way_ms > 100


class TestRegionHelpers:
    def test_assignment_is_round_robin_and_deterministic(self):
        assignment = region_assignment(FIVE, "regions3")
        assert assignment == {1: 0, 2: 1, 3: 2, 4: 0, 5: 1}
        assert region_assignment(FIVE, "regions3") == assignment

    def test_latency_map_covers_all_pairs(self):
        lat = geo_latency_map(FIVE, "regions3")
        assert set(lat) == {(a, b) for a in FIVE for b in FIVE if a < b}
        # 1 and 4 share us-east; 1 and 3 cross an ocean.
        assert lat[(1, 4)] == REGIONS3.intra_one_way_ms
        assert lat[(1, 3)] == REGIONS3.inter_one_way_ms[(0, 2)]


class TestGeoSchedules:
    def test_geo_omitted_when_unset_keeps_old_digests(self):
        schedule = ChaosSchedule(seed=1, protocol="omni", num_servers=3,
                                 duration_ms=1000.0)
        assert "geo" not in schedule.to_dict()

    def test_geo_round_trips_and_changes_digest(self):
        plain = generate_schedule(9, "omni", 3, duration_ms=3_000.0,
                                  num_ops=4)
        geo = generate_schedule(9, "omni", 3, duration_ms=3_000.0,
                                num_ops=4, geo="regions3")
        assert geo.geo == "regions3"
        assert geo.digest() != plain.digest()
        again = ChaosSchedule.from_json(geo.to_json())
        assert again == geo

    def test_geo_schedule_runs_safe_and_deterministic(self):
        # Cut eu-west (pid 2 under regions3) off from both peers.
        ops = (FaultOp(at_ms=800.0, kind="partition",
                       params={"pattern": "random", "links": [[1, 2], [2, 3]],
                               "heal_ms": 600.0}),)
        schedule = ChaosSchedule(seed=5, protocol="omni", num_servers=3,
                                 duration_ms=4_000.0, ops=ops,
                                 geo="regions3")
        a = run_schedule(schedule)
        b = run_schedule(schedule)
        assert a.ok, a.violation
        assert a.to_dict() == b.to_dict()

    def test_geo_environment_changes_the_run(self):
        base = ChaosSchedule(seed=5, protocol="omni", num_servers=3,
                             duration_ms=3_000.0)
        wan = ChaosSchedule(seed=5, protocol="omni", num_servers=3,
                            duration_ms=3_000.0, geo="regions3")
        fast = run_schedule(base)
        slow = run_schedule(wan)
        assert fast.ok and slow.ok
        # Tens of ms per hop instead of 0.1 must cost decided throughput.
        assert slow.decided_len < fast.decided_len
