"""Metamorphic scale tests: x -> Tx multiplies every extremal area by |det T|
and leaves d0p, the optimizer candidate counts, the packings' graphs,
faces and window statistics unchanged."""

import warnings

import numpy as np
import pytest

from minkpack.extremal import (
    make_theorem_hexagon,
    max_hexagon_candidates,
    max_parallelogram_candidates,
    max_pentagon_candidates,
    max_triangle_candidates,
    profile,
)
from minkpack.geometry import ConvexDisc
from minkpack.packing import (
    build_subdivision,
    measure_stats,
    mixed_strip_packing,
    neighbour_graph,
    six_neighbour_lattice,
    three_neighbour_honeycomb,
)
from minkpack.random_shapes import random_discs, random_linear

_CANDIDATES = (max_triangle_candidates, max_parallelogram_candidates,
               max_pentagon_candidates, max_hexagon_candidates)


def test_extremal_values_and_candidates_follow_linear_maps():
    rng = np.random.default_rng(20261021)
    for d in random_discs(20260822, 40):
        unit = profile(d)
        counts = [len(f(d)) for f in _CANDIDATES]
        for s in (1e-6, 1e-3, 1e3, 1e6):
            T = random_linear(rng) * s
            e = ConvexDisc(d.vertices @ T.T)
            prof = profile(e)
            det = abs(np.linalg.det(T))
            for k in ("delta", "f4", "f5", "f6"):
                assert getattr(prof, k) == pytest.approx(det * getattr(unit, k), rel=1e-9), (s, k)
            assert prof.d0p == pytest.approx(unit.d0p, rel=1e-9)
            assert [len(f(e)) for f in _CANDIDATES] == counts, s


_PACKINGS = {
    "six": (lambda d: six_neighbour_lattice(d, extent=10), (1240, 801, 33)),
    "honeycomb": (lambda d: three_neighbour_honeycomb(d, extent=10), (1261, 381, 7)),
    "mixed": (lambda d: mixed_strip_packing(d, "six", "honeycomb", 0.5, strip_width=4, extent=24),
              (886, 422, 72)),
}


def _measure(build, d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a best-effort strip frame would warn
        p = build(d)
    sub = build_subdivision(p)
    st = measure_stats(p, 0.8 * p.generator["covered_radius"])
    counts = (len(neighbour_graph(p).edges), len(sub.faces), int(sub.boundary.sum()))
    stats = (st.lambda_hat, st.density_hat, st.avg_sides_hat, st.vertex_face_ratio_hat)
    return p, counts, stats


@pytest.mark.parametrize("kind", list(_PACKINGS))
def test_packings_follow_scaling(kind):
    build, want = _PACKINGS[kind]
    hexagon = make_theorem_hexagon(0.8)
    unit, counts, stats = _measure(build, hexagon)
    assert counts == want
    for s in (1e-9, 1e-7, 1e6):
        p, counts, scaled = _measure(build, ConvexDisc(s * hexagon.vertices))
        assert counts == want, s
        assert scaled == pytest.approx(stats, rel=1e-9), s
        np.testing.assert_allclose(p.centers, s * unit.centers, rtol=0.0, atol=1e-9 * s)
