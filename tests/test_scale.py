"""Metamorphic scale tests: x -> Tx multiplies every extremal area by |det T|
and leaves d0p, the optimizer candidate counts, the packings' graphs,
faces and window statistics unchanged.  Every check minkpack makes on a
disc (the profile's exit code, the concave envelope, the flip procedure,
the simple-polygon test) gives the same answer at every scale, and render
draws the same SVG."""

import contextlib
import io
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from minkpack.bounds import density_bound_from_profile
from minkpack.cli import main
from minkpack.extremal import (
    UnitSidedPolygon,
    convexify_flips,
    make_theorem_hexagon,
    max_hexagon_candidates,
    max_parallelogram_candidates,
    max_pentagon_candidates,
    max_triangle_area,
    max_triangle_candidates,
    profile,
    sorted_sides_area,
)
from minkpack.geometry import ConvexDisc, cross_many, is_simple_polygon, save_disc
from minkpack.packing import (
    Packing,
    build_subdivision,
    measure_stats,
    mixed_strip_packing,
    neighbour_graph,
    save_packing,
    six_neighbour_lattice,
    three_neighbour_honeycomb,
)
from minkpack.random_shapes import random_disc, random_discs, random_linear, random_unit_polygon

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


@pytest.mark.parametrize("s", [1e5, 1e6])
def test_profile_accepts_large_discs(tmp_path, s):
    path = str(tmp_path / "disc.json")
    for i, d in enumerate(random_discs(20260822, 40)):
        save_disc(ConvexDisc(s * d.vertices), path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["profile", "--disc", path]) == 0, (i, out.getvalue())


def test_density_bound_does_not_depend_on_scale():
    lams = np.linspace(3.0, 6.0, 31)
    for d in random_discs(20260822, 40):
        delta = max_triangle_area(d)
        unit = [density_bound_from_profile(SimpleNamespace(area=d.area, delta=delta), lam)
                for lam in lams]
        for s in (1e-9, 1e-6, 1e-3, 1e3, 1e6):
            e = ConvexDisc(s * d.vertices)
            prof = SimpleNamespace(area=e.area, delta=max_triangle_area(e))
            got = [density_bound_from_profile(prof, lam) for lam in lams]
            assert got == pytest.approx(unit, rel=1e-9), s


@pytest.mark.parametrize("s", [1e-9, 1e-6])
def test_flipped_polygons_are_convex_at_small_scales(s):
    rng = np.random.default_rng(20260822)
    for _ in range(30):
        d = random_disc(rng)
        p = random_unit_polygon(d, int(rng.integers(4, 9)), rng)
        small = UnitSidedPolygon(vertices=s * p.vertices, disc=ConvexDisc(s * d.vertices))
        q = convexify_flips(small)
        sides = q.sides
        turns = cross_many(sides, np.roll(sides, -1, axis=0))
        tol = 1e-9 * float((sides**2).sum(axis=1).max())
        assert np.all(turns >= -tol) or np.all(turns <= tol)
        assert q.area == pytest.approx(sorted_sides_area(small.sides), rel=1e-9)


@pytest.mark.parametrize("scale", [1e3, 1.0, 1e-3, 1e-6, 1e-9, 1e-12])
def test_simple_comb_at_every_scale(scale):
    # two collinear sides 0.001 apart on the bottom edge: simple at any scale
    comb = np.array([(0, 0), (1, 0), (1, -1), (1.001, -1), (1.001, 0), (2, 0), (2, 1), (0, 1)])
    assert is_simple_polygon(scale * comb)
    folded = comb.copy()
    folded[3:5, 0] = 0.999  # the notch folds back: the bottom sides overlap
    assert not is_simple_polygon(scale * folded)


def test_render_does_not_depend_on_scale(tmp_path):
    # the drawing is in disc diameters, and scaling by a power of two is exact
    p = three_neighbour_honeycomb(make_theorem_hexagon(0.8), extent=4)
    small = Packing(disc=ConvexDisc(2.0**-30 * p.disc.vertices), centers=2.0**-30 * p.centers)
    svgs = []
    for name, q in (("unit", p), ("small", small)):
        save_packing(q, str(tmp_path / f"{name}.json"))
        svg = tmp_path / f"{name}.svg"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["render", str(tmp_path / f"{name}.json"), "--out", str(svg)]) == 0
        svgs.append(svg.read_bytes())
    assert svgs[0] == svgs[1]
    assert svgs[0].count(b"<line") == len(neighbour_graph(p).edges) > 0
