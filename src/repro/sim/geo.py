"""Geo-replication scenario library: multi-region latency environments.

The paper's WAN experiment (:func:`repro.sim.harness.wan_latency_map`) is
one fixed leader-centric topology. This module generalizes it into a small
library of *named, realistic* multi-region environments that every layer
can share by name:

- the harness (``ExperimentConfig.latency_map = geo_latency_map(...)``),
- the chaos engine (``ChaosSchedule.geo = "regions3"`` runs the whole
  schedule in that environment, recorded in the schedule so replays and
  shrinks reproduce it).

Latencies are one-way milliseconds, loosely modeled on public inter-region
RTT tables (AWS/GCP order of magnitude): same-region replicas sit a
fraction of a millisecond apart; crossing an ocean costs tens of ms. The
exact values matter less than the *shape* — intra-region traffic is ~100×
faster than inter-region, which is what makes region-aware failures (a
region cut off, one ocean link degraded) behave qualitatively differently
from LAN partitions.

Servers are assigned to regions round-robin by position: with regions
``(A, B, C)`` and servers ``(1..5)``, pids 1 and 4 sit in A, 2 and 5 in B,
3 in C. Deterministic, so the same cluster shape always produces the same
environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

from repro.errors import ConfigError


@dataclass(frozen=True)
class GeoMap:
    """A named multi-region latency environment.

    ``inter_one_way_ms`` holds one-way latencies for region *index* pairs
    ``(i, j)`` with ``i < j``; ``intra_one_way_ms`` is the within-region
    one-way latency.
    """

    name: str
    regions: Tuple[str, ...]
    inter_one_way_ms: Dict[Tuple[int, int], float]
    intra_one_way_ms: float = 0.25

    def __post_init__(self) -> None:
        n = len(self.regions)
        if n < 2:
            raise ConfigError("a geo map needs at least two regions")
        expected = {(i, j) for i in range(n) for j in range(i + 1, n)}
        if set(self.inter_one_way_ms) != expected:
            raise ConfigError(
                f"geo map {self.name!r} must define every region pair"
            )

    def one_way_ms(self, region_a: int, region_b: int) -> float:
        """One-way latency between two region indices."""
        if region_a == region_b:
            return self.intra_one_way_ms
        key = (min(region_a, region_b), max(region_a, region_b))
        return self.inter_one_way_ms[key]


#: Three regions spanning one ocean each way — the classic 3-DC spread
#: (think us-east / eu-west / ap-northeast). RTTs ~75 / ~165 / ~220 ms.
REGIONS3 = GeoMap(
    name="regions3",
    regions=("us-east", "eu-west", "ap-northeast"),
    inter_one_way_ms={
        (0, 1): 37.5,   # us-east <-> eu-west
        (0, 2): 82.5,   # us-east <-> ap-northeast
        (1, 2): 110.0,  # eu-west <-> ap-northeast
    },
)

#: Five regions across three continents — a realistic 5-way spread where
#: no majority fits on one continent (us-east/us-west pair with Europe and
#: two Asian regions).
REGIONS5 = GeoMap(
    name="regions5",
    regions=("us-east", "us-west", "eu-west", "ap-northeast", "ap-south"),
    inter_one_way_ms={
        (0, 1): 30.0,   # us-east <-> us-west
        (0, 2): 37.5,   # us-east <-> eu-west
        (0, 3): 82.5,   # us-east <-> ap-northeast
        (0, 4): 90.0,   # us-east <-> ap-south
        (1, 2): 65.0,   # us-west <-> eu-west
        (1, 3): 55.0,   # us-west <-> ap-northeast
        (1, 4): 110.0,  # us-west <-> ap-south
        (2, 3): 110.0,  # eu-west <-> ap-northeast
        (2, 4): 60.0,   # eu-west <-> ap-south
        (3, 4): 35.0,   # ap-northeast <-> ap-south
    },
)

#: The named environments chaos schedules and CLIs refer to.
GEO_MAPS: Dict[str, GeoMap] = {
    REGIONS3.name: REGIONS3,
    REGIONS5.name: REGIONS5,
}


def resolve_geo(geo: Union[str, GeoMap]) -> GeoMap:
    """Look up a geo map by name (or pass a :class:`GeoMap` through)."""
    if isinstance(geo, GeoMap):
        return geo
    resolved = GEO_MAPS.get(geo)
    if resolved is None:
        raise ConfigError(
            f"unknown geo map {geo!r}; pick one of {sorted(GEO_MAPS)}"
        )
    return resolved


def region_assignment(servers: Tuple[int, ...],
                      geo: Union[str, GeoMap]) -> Dict[int, int]:
    """``{pid: region index}`` — round-robin by position, deterministic."""
    gmap = resolve_geo(geo)
    return {
        pid: i % len(gmap.regions) for i, pid in enumerate(sorted(servers))
    }


def geo_latency_map(servers: Tuple[int, ...],
                    geo: Union[str, GeoMap]) -> Dict[Tuple[int, int], float]:
    """Expand a geo environment to the harness's per-link latency map.

    Returns ``{(a, b): one_way_ms}`` over unordered pids ``a < b`` —
    exactly the shape ``ExperimentConfig.latency_map`` consumes.
    """
    gmap = resolve_geo(geo)
    assignment = region_assignment(servers, gmap)
    ordered = sorted(servers)
    out: Dict[Tuple[int, int], float] = {}
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            out[(a, b)] = gmap.one_way_ms(assignment[a], assignment[b])
    return out
