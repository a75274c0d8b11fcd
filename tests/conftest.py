import time

import pytest
from hypothesis import HealthCheck, settings

from minkpack.extremal import make_theorem_hexagon, profile
from minkpack.random_shapes import random_discs

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def square():
    return make_theorem_hexagon(1.0)


@pytest.fixture(scope="session")
def hexagon_34():
    return make_theorem_hexagon(0.75)


@pytest.fixture(scope="session")
def hexagon_78():
    return make_theorem_hexagon(0.875)


class ProfiledDiscs(list):
    """Disc/profile pairs plus the wall time the build took."""

    build_seconds = 0.0


@pytest.fixture(scope="session")
def random_disc_profiles():
    """200 random discs with full extremal profiles, shared across the suite.

    Each profile enumerates the faces of every closing pentagon edge
    multiset for f5, a few milliseconds per disc of at most 12 vertices;
    the build runs once and is reused everywhere.  The recorded build time
    lets the first consumer account for it in its own runtime budget.
    """
    t0 = time.perf_counter()
    discs = random_discs(seed=20260822, count=200)
    out = ProfiledDiscs((d, profile(d)) for d in discs)
    out.build_seconds = time.perf_counter() - t0
    return out
