import warnings

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from minkpack.bounds import BoundsRangeError
from minkpack.extremal import make_theorem_hexagon
from minkpack.geometry import GeometryError, regular_ngon
from minkpack.packing import (
    TOUCH_REL,
    Packing,
    PackingInvalidError,
    Subdivision,
    _crossing_pairs,
    _face_cycles,
    build_subdivision,
    check_proposition,
    four_neighbour_lattice,
    load_packing,
    measure_stats,
    mixed_strip_packing,
    neighbour_graph,
    save_packing,
    six_neighbour_lattice,
    three_neighbour_honeycomb,
    validate_packing,
)
from minkpack.random_shapes import random_disc


def _interior_degrees(p, shrink=0.5):
    g = neighbour_graph(p)
    c0 = p.centers.mean(axis=0)
    rad = np.hypot(*(p.centers - c0).T)
    keep = rad <= p.generator["covered_radius"] * shrink
    return g.degrees[keep]


# --- validation and graph basics -------------------------------------------


def test_validate_overlapping_pair(square):
    p = Packing(disc=square, centers=np.array([[0.0, 0.0], [1.5, 0.0]]))
    rep = validate_packing(p)
    assert not rep["ok"]
    assert len(rep["violations"]) == 1
    i, j, g = rep["violations"][0]
    assert {i, j} == {0, 1}
    assert g == pytest.approx(1.5)
    with pytest.raises(PackingInvalidError):
        neighbour_graph(p)


def test_validate_single_center(square):
    rep = validate_packing(Packing(disc=square, centers=np.array([[3.0, -1.0]])))
    assert rep["ok"] and rep["violations"] == []


def test_graph_edge_iff_gauge_two(square):
    touch = Packing(disc=square, centers=np.array([[0.0, 0.0], [2.0, 0.0]]))
    apart = Packing(disc=square, centers=np.array([[0.0, 0.0], [3.0, 0.0]]))
    assert len(neighbour_graph(touch).edges) == 1
    assert len(neighbour_graph(apart).edges) == 0
    assert neighbour_graph(touch).degrees.tolist() == [1, 1]


def test_packing_rejects_bad_centers(square):
    with pytest.raises(GeometryError):
        Packing(disc=square, centers=np.empty((0, 2)))
    with pytest.raises(GeometryError):
        Packing(disc=square, centers=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(GeometryError):
        Packing(disc=square, centers=[["a", "b"]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_packing_rejects_non_finite_centers(hexagon_34, bad):
    with pytest.raises(GeometryError):
        Packing(disc=hexagon_34, centers=np.array([[0.0, 0.0], [bad, 0.0], [4.0, 0.0]]))


def _brute_contacts(p):
    """(pairs within the contact cutoff, touching pairs i < j) by an all-pairs scan."""
    I, J = np.triu_indices(len(p.centers), k=1)
    d = p.centers[I] - p.centers[J]
    cutoff = (2.0 + 4.0 * TOUCH_REL) * float(np.hypot(*p.disc.vertices.T).max())
    near = (d * d).sum(axis=1) <= cutoff * cutoff
    touch = np.abs(p.disc.gauge_many(d[near]) - 2.0) <= p.touch_eps
    return int(near.sum()), np.column_stack([I[near][touch], J[near][touch]])


_CONTACT_DISCS = {
    "family": lambda: make_theorem_hexagon(0.8),
    "square": lambda: make_theorem_hexagon(1.0),
    "random10": lambda: random_disc(np.random.default_rng(5), 5),
}
_CONTACT_BUILDS = {
    "six": lambda d: six_neighbour_lattice(d, extent=6),
    "four": lambda d: four_neighbour_lattice(d, extent=6),
    "honeycomb": lambda d: three_neighbour_honeycomb(d, extent=6),
    "six+four": lambda d: mixed_strip_packing(d, "six", "four", 0.5, strip_width=4, extent=16),
    "six+honeycomb": lambda d: mixed_strip_packing(d, "six", "honeycomb", 0.5, strip_width=4,
                                                   extent=16),
    "four+honeycomb": lambda d: mixed_strip_packing(d, "four", "honeycomb", 0.5, strip_width=4,
                                                    extent=16),
}


@pytest.mark.parametrize(
    "disc,build",
    # six and honeycomb strips are refused where the strip frame is square
    [(d, b) for d in _CONTACT_DISCS for b in _CONTACT_BUILDS
     if not (b == "six+honeycomb" and d != "family")],
)
def test_contacts_match_all_pairs_scan(disc, build):
    d = _CONTACT_DISCS[disc]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # best-effort strip frame of the random disc
        p = _CONTACT_BUILDS[build](d)
    npairs, edges = _brute_contacts(p)
    rep = validate_packing(p)
    assert rep["ok"] and rep["pairs_checked"] == npairs
    assert "graph" in p._cache  # the valid packing's graph came from the same pass
    g = neighbour_graph(p)
    assert np.array_equal(g.edges, edges)
    assert np.array_equal(g.degrees, np.bincount(edges.ravel(), minlength=len(p.centers)))


# --- pure generators --------------------------------------------------------


def test_six_lattice_square(square):
    p = six_neighbour_lattice(square)
    assert validate_packing(p)["ok"]
    deg = _interior_degrees(p)
    assert len(deg) and np.all(deg == 6)
    assert p.generator["cell_density"] == pytest.approx(1.0, abs=1e-9)


def test_six_lattice_hexagons(hexagon_34, hexagon_78):
    for d, dens in ((hexagon_34, 0.75), (hexagon_78, 0.875)):
        p = six_neighbour_lattice(d)
        assert validate_packing(p)["ok"]
        deg = _interior_degrees(p)
        assert len(deg) and np.all(deg == 6)
        # six-neighbour lattice achieves the optimal lattice density d0p
        assert p.generator["cell_density"] == pytest.approx(dens, abs=1e-9)


def test_four_lattice_density(hexagon_78, square):
    p = four_neighbour_lattice(hexagon_78)
    assert validate_packing(p)["ok"]
    deg = _interior_degrees(p)
    assert len(deg) and np.all(deg == 4)
    assert p.generator["cell_density"] == pytest.approx(7.0 / 12.0, abs=1e-9)
    q = four_neighbour_lattice(square)
    assert q.generator["cell_density"] == pytest.approx(0.5, abs=1e-9)


def test_honeycomb_degree_and_density(hexagon_34, hexagon_78, square):
    # density A / (2 F6); for the hexagon family F6 = A, for the square F6 = 4
    for d in (hexagon_34, hexagon_78, square):
        p = three_neighbour_honeycomb(d)
        assert validate_packing(p)["ok"]
        deg = _interior_degrees(p)
        assert len(deg) and np.all(deg == 3)
        assert p.generator["cell_density"] == pytest.approx(0.5, abs=1e-9)


# --- subdivision ------------------------------------------------------------


def test_six_lattice_cells_are_triangles(hexagon_78):
    p = six_neighbour_lattice(hexagon_78)
    s = build_subdivision(p)
    interior = s.sides[~s.boundary]
    assert len(interior) and np.all(interior == 3)
    stats = measure_stats(p, p.generator["covered_radius"] * 0.6)
    assert stats.avg_sides_hat == pytest.approx(3.0, abs=1e-9)
    assert stats.lambda_hat == pytest.approx(6.0, abs=0.05)


def test_four_lattice_cells_are_quads(hexagon_78):
    p = four_neighbour_lattice(hexagon_78)
    s = build_subdivision(p)
    interior = s.sides[~s.boundary]
    assert len(interior) and np.all(interior == 4)
    stats = measure_stats(p, p.generator["covered_radius"] * 0.6)
    assert stats.avg_sides_hat == pytest.approx(4.0, abs=1e-9)


def test_honeycomb_cells_are_hexagons(hexagon_34):
    p = three_neighbour_honeycomb(hexagon_34, extent=40)
    s = build_subdivision(p)
    interior = s.sides[~s.boundary]
    assert len(interior) and np.all(interior == 6)
    stats = measure_stats(p, p.generator["covered_radius"] * 0.85)
    assert stats.avg_sides_hat == pytest.approx(6.0, abs=1e-9)
    # two centers per hexagonal cell; the ratio converges like 1/R
    assert stats.vertex_face_ratio_hat == pytest.approx(2.0, abs=0.2)
    small = measure_stats(p, p.generator["covered_radius"] * 0.4)
    assert abs(stats.vertex_face_ratio_hat - 2.0) <= abs(small.vertex_face_ratio_hat - 2.0) + 1e-9


def test_cell_areas_capped(hexagon_78):
    # interior triangle cells of the six-lattice cannot exceed 4 * delta
    p = six_neighbour_lattice(hexagon_78)
    s = build_subdivision(p)
    interior = ~s.boundary
    assert np.all(s.areas[interior] <= 4.0 * 0.5 + 1e-6)


def test_crossing_edges_rejected(square):
    # (2Z)^2 is a valid packing of the square but its 8 touch directions
    # produce crossing diagonals, which is not a planar subdivision
    xs = np.arange(-8, 9, 2, dtype=float)
    X, Y = np.meshgrid(xs, xs)
    p = Packing(disc=square, centers=np.column_stack([X.ravel(), Y.ravel()]))
    assert validate_packing(p)["ok"]
    with pytest.raises(PackingInvalidError):
        build_subdivision(p)


def test_crossing_found_at_the_edge_of_the_midpoint_search():
    # the segments cross within 1e-4 of the end of the first and 1e-6 of its length
    # from the start of the second, so their midpoints are all but a longest
    # edge apart; sliding the second one 2e-4 further right parts them
    c = np.array([[0.0, 0.0], [10.0, 0.0], [9.9999, -1e-7], [19.9999, 0.1]])
    edges = np.array([[0, 1], [2, 3]])
    mids = 0.5 * (c[edges[:, 0]] + c[edges[:, 1]])
    longest = np.hypot(*(c[edges[:, 1]] - c[edges[:, 0]]).T).max()
    assert np.hypot(*(mids[1] - mids[0])) > 0.9998 * longest
    assert _crossing_pairs(c, edges) == 1
    apart = c + np.array([[0.0, 0.0], [0.0, 0.0], [2e-4, 0.0], [2e-4, 0.0]])
    assert _crossing_pairs(apart, edges) == 0


def test_face_cycles_match_a_walk():
    rng = np.random.default_rng(7)
    nxt = rng.permutation(500)
    label, seq, offsets = _face_cycles(nxt)
    seen, walks = np.zeros(len(nxt), dtype=bool), []
    for h0 in range(len(nxt)):
        walk, h = [], h0
        while not seen[h]:
            seen[h] = True
            walk.append(h)
            h = nxt[h]
        if walk:
            walks.append(walk)
    faces = [seq[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
    assert sorted(faces) == sorted(walks)
    for f, face in enumerate(faces):
        assert np.all(label[face] == f)


@pytest.mark.parametrize("build", [
    lambda: three_neighbour_honeycomb(make_theorem_hexagon(0.8), extent=8),
    lambda: mixed_strip_packing(make_theorem_hexagon(0.9), "six", "four", 0.5,
                                strip_width=4, extent=24),
])
def test_face_values_match_their_rings(build):
    p = build()
    s = build_subdivision(p)
    c0 = p.centers.mean(axis=0)
    edges = {tuple(e) for e in neighbour_graph(p).edges.tolist()}
    index = {tuple(c): i for i, c in enumerate(p.centers.tolist())}
    for f, poly in enumerate(s.faces):
        ring = [index[tuple(c)] for c in poly.tolist()]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            assert (min(a, b), max(a, b)) in edges
        x, y = poly[:, 0], poly[:, 1]
        signed = 0.5 * float(np.sum(x * np.roll(y, -1) - y * np.roll(x, -1)))
        assert s.sides[f] == len(poly)
        assert s.areas[f] == pytest.approx(abs(signed), rel=1e-9, abs=1e-9)
        assert s.max_radius[f] == np.hypot(*(poly - c0).T).max()
        if signed <= 0.0:
            assert s.boundary[f]


def _euler_sides(p, s, window=None):
    """(V - E + F, 2C + I) of a subdivision, C and I from csgraph."""
    rad = np.hypot(*(p.centers - p.centers.mean(axis=0)).T)
    keep = rad <= window if window is not None else np.ones(len(rad), dtype=bool)
    index = np.cumsum(keep) - 1
    e = neighbour_graph(p).edges
    e = index[e[keep[e].all(axis=1)]]
    nv = int(keep.sum())
    assert s.vertex_count == nv
    deg = np.bincount(e.ravel(), minlength=nv)
    adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(nv, nv))
    _, label = connected_components(adj, directed=False)
    comps = len(np.unique(label[deg > 0]))
    isolated = int(np.count_nonzero(deg == 0))
    return nv - len(e) + len(s.faces), 2 * comps + isolated


_EULER_CASES = {
    "six:34": ("hexagon_34", lambda d: six_neighbour_lattice(d)),
    "six:78": ("hexagon_78", lambda d: six_neighbour_lattice(d)),
    "six:square": ("square", lambda d: six_neighbour_lattice(d)),
    "four:34": ("hexagon_34", lambda d: four_neighbour_lattice(d)),
    "four:78": ("hexagon_78", lambda d: four_neighbour_lattice(d)),
    "four:square": ("square", lambda d: four_neighbour_lattice(d)),
    "honeycomb:34": ("hexagon_34", lambda d: three_neighbour_honeycomb(d, extent=40)),
    "honeycomb:78": ("hexagon_78", lambda d: three_neighbour_honeycomb(d)),
    "honeycomb:square": ("square", lambda d: three_neighbour_honeycomb(d)),
    "six+four:78": ("hexagon_78", lambda d: mixed_strip_packing(
        d, "six", "four", 0.5, strip_width=4, extent=60)),
    "four+honeycomb:square": ("square", lambda d: mixed_strip_packing(
        d, "four", "honeycomb", 0.5, strip_width=4, extent=60)),
    "six+honeycomb:34": ("hexagon_34", lambda d: mixed_strip_packing(
        d, "six", "honeycomb", 1.0 / 3.0, strip_width=4, extent=60)),
    "octagon six+four": (None, lambda d: mixed_strip_packing(
        regular_ngon(8), "six", "four", 0.5, strip_width=4, extent=40)),
    "two touching": ("square", lambda d: Packing(
        disc=d, centers=np.array([[0.0, 0.0], [2.0, 0.0]]))),
    "one center": ("square", lambda d: Packing(disc=d, centers=np.array([[3.0, -1.0]]))),
}


@pytest.mark.parametrize("case", list(_EULER_CASES))
def test_euler_relation(request, case):
    # the face walk gives one outer cycle per component: V - E + F = 2C + I
    fixture, build = _EULER_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = build(request.getfixturevalue(fixture) if fixture else None)
    lhs, rhs = _euler_sides(p, build_subdivision(p))
    assert lhs == rhs
    if case.startswith("six:"):
        lhs, rhs = _euler_sides(p, build_subdivision(p, window=10.0), window=10.0)
        assert lhs == rhs


def test_subdivision_window_subset(hexagon_78):
    p = six_neighbour_lattice(hexagon_78)
    s_all = build_subdivision(p)
    s_win = build_subdivision(p, window=10.0)
    assert s_win.vertex_count <= s_all.vertex_count
    assert len(s_win.faces) < len(s_all.faces)


# --- proposition check ------------------------------------------------------


def test_proposition_passes_on_generated(hexagon_34, hexagon_78):
    for d in (hexagon_34, hexagon_78):
        for gen in (six_neighbour_lattice, four_neighbour_lattice, three_neighbour_honeycomb):
            ok, bad = check_proposition(build_subdivision(gen(d)))
            assert ok and bad == []


def test_proposition_rejects_seven_sided_cell(hexagon_78):
    ang = 2.0 * np.pi * np.arange(7) / 7.0
    poly = np.column_stack([np.cos(ang), np.sin(ang)])
    s = Subdivision(
        faces=[poly],
        sides=np.array([7]),
        areas=np.array([3.0]),
        boundary=np.array([False]),
        vertex_count=7,
        disc=hexagon_78,
    )
    ok, bad = check_proposition(s)
    assert not ok and bad == [0]


def test_proposition_warns_for_parallelogram(square):
    s = build_subdivision(six_neighbour_lattice(square))
    with pytest.warns(UserWarning):
        ok, _ = check_proposition(s)
    assert ok


# --- mixed strips -----------------------------------------------------------


def test_mixed_six_four_quick(hexagon_78):
    p = mixed_strip_packing(hexagon_78, "six", "four", 0.5, strip_width=4, extent=60)
    assert validate_packing(p)["ok"]
    stats = measure_stats(p, p.generator["covered_radius"] * 0.8)
    assert stats.lambda_hat == pytest.approx(5.0, abs=0.1)
    assert stats.density_hat == pytest.approx(0.7, rel=0.05)


def test_mixed_four_honey_square(square):
    p = mixed_strip_packing(square, "four", "honeycomb", 0.5, strip_width=4, extent=60)
    assert validate_packing(p)["ok"]
    stats = measure_stats(p, p.generator["covered_radius"] * 0.8)
    assert stats.lambda_hat == pytest.approx(3.5, abs=0.1)
    assert stats.density_hat == pytest.approx(0.5, rel=0.05)


def test_mixed_six_honey_quick(hexagon_34):
    p = mixed_strip_packing(hexagon_34, "six", "honeycomb", 1.0 / 3.0,
                            strip_width=4, extent=60)
    assert validate_packing(p)["ok"]
    stats = measure_stats(p, p.generator["covered_radius"] * 0.8)
    assert stats.lambda_hat == pytest.approx(4.0, abs=0.1)


def test_mixed_delegates_at_extremes(hexagon_78):
    full = mixed_strip_packing(hexagon_78, "six", "four", 1.0, extent=40)
    pure = six_neighbour_lattice(hexagon_78, extent=20)
    assert np.allclose(full.centers, pure.centers)
    none = mixed_strip_packing(hexagon_78, "six", "four", 0.0, extent=40)
    pure4 = four_neighbour_lattice(hexagon_78, extent=20)
    assert np.allclose(none.centers, pure4.centers)


def test_mixed_same_generator_is_pure(hexagon_78):
    p = mixed_strip_packing(hexagon_78, "four", "four", 0.3, extent=40)
    assert np.allclose(p.centers, four_neighbour_lattice(hexagon_78, extent=20).centers)


def test_mixed_incompatible_pair_on_square(square):
    with pytest.raises(PackingInvalidError):
        mixed_strip_packing(square, "six", "honeycomb", 0.5)


def test_mixed_bad_arguments(hexagon_78):
    with pytest.raises(GeometryError):
        mixed_strip_packing(hexagon_78, "six", "pentagonal", 0.5)
    with pytest.raises(BoundsRangeError):
        mixed_strip_packing(hexagon_78, "six", "four", 1.5)


def test_mixed_non_hexagon_warns_but_validates():
    d = regular_ngon(8)
    with pytest.warns(UserWarning):
        p = mixed_strip_packing(d, "six", "four", 0.5, strip_width=4, extent=40)
    assert validate_packing(p)["ok"]


# --- window statistics ------------------------------------------------------


def test_measure_stats_window_guard(hexagon_78):
    p = six_neighbour_lattice(hexagon_78, extent=10)
    with pytest.raises(BoundsRangeError):
        measure_stats(p, 1e4)


def test_density_approaches_cell_density(hexagon_78):
    p = six_neighbour_lattice(hexagon_78, extent=40)
    R = p.generator["covered_radius"]
    s1 = measure_stats(p, R * 0.45)
    s2 = measure_stats(p, R * 0.9)
    want = p.generator["cell_density"]
    assert s2.density_hat == pytest.approx(want, rel=0.05)
    assert abs(s2.density_hat - want) <= abs(s1.density_hat - want) + 0.01


# --- io ---------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path, hexagon_78):
    p = four_neighbour_lattice(hexagon_78, extent=6)
    path = tmp_path / "p.json"
    save_packing(p, str(path))
    q = load_packing(str(path))
    assert np.allclose(q.centers, p.centers)
    assert np.allclose(q.disc.vertices, p.disc.vertices)
    assert q.generator["kind"] == p.generator["kind"]


def test_load_packing_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{}")
    with pytest.raises(GeometryError):
        load_packing(str(path))
    path2 = tmp_path / "not.json"
    path2.write_text("nope")
    with pytest.raises(GeometryError):
        load_packing(str(path2))
