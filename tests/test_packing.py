import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from minkpack.bounds import BoundsRangeError
from minkpack.extremal import d0p_of, make_theorem_hexagon, max_triangle_area
from minkpack.geometry import (
    ConvexDisc,
    GeometryError,
    centrosymmetrize,
    disc_to_dict,
    polygon_area,
    regular_ngon,
)
from minkpack.packing import (
    TOUCH_EPS,
    Packing,
    PackingInvalidError,
    Subdivision,
    _crossing_pairs,
    _face_cycles,
    _touch_crossing_reach,
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


def test_packing_is_immutable(square):
    src = np.array([[0.0, 0.0], [2.0, 0.0]])
    p = Packing(disc=square, centers=src)
    assert len(neighbour_graph(p).edges) == 1
    src[1] = [1.0, 0.0]  # the packing holds its own copy
    assert p.centers.tolist() == [[0.0, 0.0], [2.0, 0.0]]
    with pytest.raises(ValueError):
        p.centers[1, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.centers = src
    assert validate_packing(p)["ok"] and len(neighbour_graph(p).edges) == 1


def test_touch_on_a_large_disc_is_found():
    # along a vertex direction gauge 2 + 0.9 eps is Euclidean distance
    # (2 + 0.9 eps) R_out, which the pair search must reach
    d = ConvexDisc([(10.0, 10.0), (-10.0, 10.0), (-10.0, -10.0), (10.0, -10.0)])
    t = 2.0 + 0.9 * TOUCH_EPS
    p = Packing(disc=d, centers=np.array([[0.0, 0.0], [10.0 * t, 10.0 * t]]))
    assert neighbour_graph(p).edges.tolist() == [[0, 1]]
    assert validate_packing(p)["pairs_checked"] == 1


def test_overlap_on_a_large_disc_is_found():
    # the touch tolerance is a gauge, so it does not grow with the disc
    d = ConvexDisc(1e6 * make_theorem_hexagon(1.0).vertices)
    p = Packing(disc=d, centers=np.array([[0.0, 0.0], [1.8e6, 0.0]]))
    assert not validate_packing(p)["ok"]
    with pytest.raises(PackingInvalidError):
        neighbour_graph(p)


@pytest.mark.parametrize("a, b, frac", [("six", "four", 0.01), ("four", "six", 0.99)])
def test_square_strips_with_no_dense_column_per_period(square, a, b, frac):
    # the six fraction rounds to 0 over denominators up to 24: no odd dense
    # run fits, so the strip count takes its fallback
    p = mixed_strip_packing(square, a, b, frac, strip_width=4, extent=16)
    assert validate_packing(p)["ok"]


def _brute_contacts(p):
    """(pairs within the contact cutoff, touching pairs i < j) by an all-pairs scan.

    A touch has gauge at most 2 + touch_eps, so it lies within (2 + touch_eps) R_out.
    """
    I, J = np.triu_indices(len(p.centers), k=1)
    d = p.centers[I] - p.centers[J]
    cutoff = (2.0 + p.touch_eps) * float(np.hypot(*p.disc.vertices.T).max())
    near = (d * d).sum(axis=1) <= cutoff * cutoff
    touch = np.abs(p.disc.gauge_many(d[near]) - 2.0) <= p.touch_eps
    return int(near.sum()), np.column_stack([I[near][touch], J[near][touch]])


_CONTACT_DISCS = {
    "family": lambda: make_theorem_hexagon(0.8),
    "square": lambda: make_theorem_hexagon(1.0),
    "square10": lambda: ConvexDisc(10.0 * make_theorem_hexagon(1.0).vertices),
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


def test_honeycomb_covered_radius_is_not_negative():
    # on a thin hexagon the honeycomb offset is longer than the covered
    # radius of its lattice at this extent
    thin = ConvexDisc([(1.0, 0.0), (0.5, 0.02), (-0.5, 0.02), (-1.0, 0.0), (-0.5, -0.02),
                       (0.5, -0.02)])
    assert three_neighbour_honeycomb(thin, extent=8).generator["covered_radius"] == 0.0


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


def _subdivision_crossings(p):
    """Crossings build_subdivision reports (it refuses a packing with any)."""
    try:
        build_subdivision(p)
    except PackingInvalidError as exc:
        return int(str(exc).split()[0])
    return 0


def test_touch_crossing_reach_finds_every_crossing():
    # linear images of the square and of its (2Z)^2 lattice, rows slid by 2s:
    # s in {0, 1} makes both diagonals of every cell touch edges, which cross;
    # the centers are jittered by up to 0.3 eps in gauge, which keeps every
    # pair valid and every touch a touch
    rng = np.random.default_rng(2024)
    square = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
    a, b = np.meshgrid(np.arange(-4, 5), np.arange(-4, 5), indexing="ij")
    crossed = 0
    for k in range(60):
        M = np.eye(2) + 0.4 * rng.uniform(-1.0, 1.0, (2, 2))
        d = ConvexDisc(square @ M.T)
        s = (0.0, 1.0, rng.uniform(0.1, 0.9))[k % 3]
        canon = np.column_stack([2.0 * a.ravel() + 2.0 * s * b.ravel(), 2.0 * b.ravel()])
        eps = TOUCH_EPS
        smin = float(np.linalg.svd(M, compute_uv=False)[-1])
        jitter = rng.uniform(0.0, 0.3) * eps * smin
        ang = rng.uniform(0.0, 2.0 * np.pi, len(canon))
        r = jitter * np.sqrt(rng.uniform(0.0, 1.0, len(canon)))
        p = Packing(disc=d, centers=canon @ M.T + r[:, None] * np.column_stack([np.cos(ang), np.sin(ang)]))
        full = _crossing_pairs(p.centers, neighbour_graph(p).edges)
        assert _subdivision_crossings(p) == full
        crossed += full > 0
    assert crossed == 40
    for build in (six_neighbour_lattice, four_neighbour_lattice, three_neighbour_honeycomb):
        p = build(random_disc(np.random.default_rng(7), 10), extent=6)
        assert _subdivision_crossings(p) == _crossing_pairs(p.centers, neighbour_graph(p).edges) == 0


def test_touch_crossing_reach_holds_at_the_widest_crossing():
    # the two diagonals of a cell of the square's (2L Z)^2 lattice, both
    # stretched to gauge 2 + 0.9 eps, near the longest touch there is: the
    # crossing bisects one and cuts the other as far from its midpoint as
    # validity allows (the closest pairs sit at gauge 2 - 0.9 eps).  The
    # midpoints lie about 1.8 eps R_out apart, near the widest any valid
    # crossing reaches and over a fifth of the reach; at L = 10 the reach
    # without its factor R_out would miss them
    square = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
    for L in (0.5, 1.0, 10.0):
        d = ConvexDisc(L * square)
        eps = TOUCH_EPS
        g = 2.0 + 0.9 * eps
        s = (2.0 - 0.9 * eps) / g - 0.5
        D1, D2 = g * L * np.array([1.0, 1.0]), g * L * np.array([-1.0, 1.0])
        p = Packing(disc=d, centers=np.array([-s * D1, (1.0 - s) * D1, -0.5 * D2, 0.5 * D2]))
        edges = neighbour_graph(p).edges  # the near pairs 0-2 and 0-3 touch too
        assert edges.tolist() == [[0, 1], [0, 2], [0, 3], [2, 3]]
        reach = _touch_crossing_reach(p)
        apart = float(np.hypot(*((0.5 - s) * D1)))  # from midpoint to midpoint
        assert apart > 0.2 * reach
        assert _subdivision_crossings(p) == 1
        assert _crossing_pairs(p.centers, edges, 0.99 * apart) == 0


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


def _face_cycles_reference(nxt):
    """_face_cycles by scipy's weak components and a walk from each face's smallest half-edge."""
    nd = len(nxt)
    h = np.arange(nd)
    nf, label = connected_components(coo_matrix((np.ones(nd), (h, nxt)), shape=(nd, nd)),
                                     directed=True, connection="weak")
    seq, offsets = [], [0]
    for f in range(nf):
        start = walk = int(h[label == f][0])
        while True:
            seq.append(walk)
            walk = int(nxt[walk])
            if walk == start:
                break
        offsets.append(len(seq))
    return label, seq, offsets


def _one_cycle(n, rng):
    order = rng.permutation(n)
    nxt = np.empty(n, dtype=np.int64)
    nxt[order] = np.roll(order, -1)
    return nxt


_PERMUTATIONS = {
    "empty": lambda rng: np.arange(0),
    "identity": lambda rng: np.arange(37),
    **{f"one cycle of {n}": (lambda rng, n=n: _one_cycle(n, rng))
       for k in (0, 1, 3, 6, 9) for n in (2**k, 2**k + 1)},
    **{f"random {n}": (lambda rng, n=n: rng.permutation(n)) for n in (2, 3, 64, 1000, 4097)},
}


@pytest.mark.parametrize("name", list(_PERMUTATIONS))
def test_face_cycles_match_scipy_components(name):
    nxt = _PERMUTATIONS[name](np.random.default_rng(11))
    label, seq, offsets = _face_cycles(nxt)
    want_label, want_seq, want_offsets = _face_cycles_reference(nxt)
    assert label.tolist() == want_label.tolist()
    assert seq.tolist() == want_seq
    assert offsets.tolist() == want_offsets


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


def _euler_sides(p, s):
    """(V - E + F, 2C + I) of a subdivision, C and I from csgraph."""
    e = neighbour_graph(p).edges
    nv = len(p.centers)
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
        max_radius=np.array([1.0]),
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


def test_triangle_packing_density_three_sevenths():
    # translates of a triangle K pack as translates of (K - K)/2 do, an
    # affine regular hexagon of area 3/2 |K| with d0p = 3/4; its lambda = 5
    # equality packing, density 9/14, gives K the density 9/14 * 2/3 = 3/7
    K = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    d = centrosymmetrize(K)
    assert len(d.vertices) == 6
    assert d.area == pytest.approx(1.5 * polygon_area(K), rel=1e-12)
    assert d0p_of(d.area, max_triangle_area(d)) == pytest.approx(0.75, abs=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an equality hexagon: no best-effort frame
        p = mixed_strip_packing(d, "six", "honeycomb", 2.0 / 3.0, strip_width=4)
    assert p.generator["w"] == pytest.approx(0.5, abs=1e-9)
    assert validate_packing(p)["ok"]
    st = measure_stats(p, 0.9 * p.generator["covered_radius"])
    assert st.lambda_hat == pytest.approx(5.0, abs=0.05)
    assert (2.0 / 3.0) * st.density_hat == pytest.approx(3.0 / 7.0, rel=0.02)


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


def test_save_packing_bytes_match_the_per_center_encoder(tmp_path, hexagon_78):
    centers = np.array([[-0.0, 1e-300], [1e17, 0.1 + 0.2], [-2.5, 123456789.12345679]])
    p = Packing(disc=hexagon_78, centers=centers, generator={"kind": "six", "extent": 3})
    path = tmp_path / "p.json"
    save_packing(p, str(path))
    ref = tmp_path / "ref.json"
    doc = {"disc": disc_to_dict(p.disc), "centers": [[float(x), float(y)] for x, y in p.centers],
           "generator": p.generator}
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert path.read_bytes() == ref.read_bytes()
    assert "-0.0" in path.read_text() and "1e-300" in path.read_text()
    assert np.array_equal(load_packing(str(path)).centers, centers)


# --- golden generator outputs ------------------------------------------------

# The generator dict (keys in order) and the sha256 of the centers' bytes
# of each pure generator at extent 6, frozen from the code before the three
# generators shared one builder, so any change in the chosen basis, offset
# or center order fails here.
_GOLDEN_DISCS = {
    "square": lambda: make_theorem_hexagon(1.0),
    "hex34": lambda: make_theorem_hexagon(0.75),
    "hex78": lambda: make_theorem_hexagon(0.875),
    "octagon": lambda: regular_ngon(8),
    "dodecagon": lambda: regular_ngon(12),
    "rand10": lambda: random_disc(np.random.default_rng(7), 7),  # test_cli's 10-gon
    "thin": lambda: ConvexDisc(np.array([(1.0, 0.0), (0.5, 0.02), (-0.5, 0.02), (-1.0, 0.0),
                                         (-0.5, -0.02), (0.5, -0.02)])),
}
_GOLDEN_BUILDERS = {"six": six_neighbour_lattice, "four": four_neighbour_lattice,
                    "honeycomb": three_neighbour_honeycomb}

_GOLDEN_GENERATORS = {
    ("square", "six"): (
        "16c8ce4ac35cc064f8f293e8e8285bc7fd651a172e94d78712cecc992b4eb9a8",
        {"kind": "six", "basis": [[-2.0, 0.0], [1.0, -2.0]], "extent": 6, "cell_density": 1.0,
         "covered_radius": 10.722393165706992},
    ),
    ("square", "four"): (
        "0a561f90ac8c6e590b929d207ea74476ef8ebf9e783a83054302077acad8701f",
        {"kind": "four", "basis": [[2.0, 2.0], [2.0, -2.0]], "extent": 6, "cell_density": 0.5,
         "covered_radius": 16.953592185728663},
    ),
    ("square", "honeycomb"): (
        "7a4fd865bed84a0d72c8eea84c87caa4a91ef1e55819306580814aaae6af4137",
        {"kind": "honeycomb", "basis": [[4.0, 0.0], [2.0, 4.0]], "offset": [2.0, -2.0],
         "extent": 6, "cell_density": 0.5, "covered_radius": 18.61635920666779},
    ),
    ("hex34", "six"): (
        "b8b6136b109c07238fb7dd0f6aea01cb0acfe401f5cbdb4f6ede8a7afb23fe29",
        {"kind": "six", "basis": [[2.0, 0.0], [-1.0, 2.0]], "extent": 6, "cell_density": 0.75,
         "covered_radius": 10.722393165706992},
    ),
    ("hex34", "four"): (
        "1cfdb87e6ab15c063d69ece3386950693c4da038d2ea24eed849158aed717fa7",
        {"kind": "four", "basis": [[2.0, 0.0], [0.0, 2.0]], "extent": 6, "cell_density": 0.75,
         "covered_radius": 11.988},
    ),
    ("hex34", "honeycomb"): (
        "c6c7f272a894d82ff0e601d5cc7a407bd297f8e2b5f001d6d7ec61064988d2a9",
        {"kind": "honeycomb", "basis": [[3.0, -2.0], [3.0, 2.0]], "offset": [1.0, -2.0],
         "extent": 6, "cell_density": 0.5, "covered_radius": 17.713169879544353},
    ),
    ("hex78", "six"): (
        "901dd157b7b22ab0e3d5b4994f3a00c72dbeef33f9dd14736a61169ce610c2ac",
        {"kind": "six", "basis": [[-1.0, 2.0], [-1.0, -2.0]], "extent": 6,
         "cell_density": 0.875, "covered_radius": 10.722393165706992},
    ),
    ("hex78", "four"): (
        "4cf3cdeb9b29400ab44c3f449cad46a0bb487d7da57db039e56fa7cf5fbd7519",
        {"kind": "four", "basis": [[1.5, 2.0], [1.5, -2.0]], "extent": 6,
         "cell_density": 0.5833333333333334, "covered_radius": 14.3856},
    ),
    ("hex78", "honeycomb"): (
        "46359ba4de7ce5494637219e345b531a7c8cf8125c15bc9d329c1ada22481146",
        {"kind": "honeycomb", "basis": [[3.5, -2.0], [3.5, 2.0]], "offset": [1.5, -2.0],
         "extent": 6, "cell_density": 0.5, "covered_radius": 18.316997575576035},
    ),
    ("octagon", "six"): (
        "347082442b4a54270e1233e8f5f3414a3727d3998b3465f17c854f8972837c14",
        {"kind": "six",
         "basis": [[-1.0, 1.5857864376269049], [-1.0000000000000002, -1.5857864376269049]],
         "extent": 6, "cell_density": 0.891805812445612, "covered_radius": 10.140191389044741},
    ),
    ("octagon", "four"): (
        "517cd29deecac039722195ea062e9a4341dc5f3adfdc70a0b9341c2c7d73ba0a",
        {"kind": "four", "basis": [[2.0, 0.0], [1.2246467991473532e-16, 2.0]], "extent": 6,
         "cell_density": 0.7071067811865475, "covered_radius": 11.988},
    ),
    ("octagon", "honeycomb"): (
        "d602e3aef636d41255515148e3ccad09264b8afb4c4ee494709c1fc4007c08ee",
        {"kind": "honeycomb",
         "basis": [[3.414213562373095, -1.4142135623730951], [2.707106781186548, 1.7071067811865475]],
         "offset": [1.414213562373095, -1.4142135623730951], "extent": 6,
         "cell_density": 0.585786437626905, "covered_radius": 13.663076822938},
    ),
    ("dodecagon", "six"): (
        "518089fa12d979d9b0842e6c9aa1df2e7e94254f77849232f1115fe48ecd545d",
        {"kind": "six", "basis": [[2.0, 0.0], [-0.9999999999999996, 1.7320508075688774]],
         "extent": 6, "cell_density": 0.8660254037844386, "covered_radius": 10.381912540567852},
    ),
    ("dodecagon", "four"): (
        "4abf8dfc521d8267f4e35278cbcb1625d0b3b2b14e08f7994151a1b557771c8b",
        {"kind": "four",
         "basis": [[1.0000000000000002, 1.7320508075688772], [1.7320508075688774, -0.9999999999999999]],
         "extent": 6, "cell_density": 0.75, "covered_radius": 11.988},
    ),
    ("dodecagon", "honeycomb"): (
        "00d58f0f9984b999faea2fcdc8494ab5c964909469d88a11efe21bc946515aa0",
        {"kind": "honeycomb",
         "basis": [[2.9999999999999996, -1.7320508075688774], [3.0, 1.7320508075688772]],
         "offset": [0.9999999999999996, -1.7320508075688774], "extent": 6,
         "cell_density": 0.5773502691896257, "covered_radius": 15.982},
    ),
    ("rand10", "six"): (
        "cbe9f6f4536c33706543afbf5a540b94a3577610f9d7599409bf41123b252839",
        {"kind": "six",
         "basis": [[-1.0494514712121323, -0.44228164735818387], [0.2545284417623185, -2.3924115523615135]],
         "extent": 6, "cell_density": 0.9316198626248188, "covered_radius": 6.535572229591953},
    ),
    ("rand10", "four"): (
        "fa7be5c1102cf56debc27b5f5b806fa4880f755ea619db6c8f657ef30c38580d",
        {"kind": "four",
         "basis": [[0.14522000200753998, 3.4459500832413874], [1.1827502916212342, 0.9176248513484693]],
         "extent": 6, "cell_density": 0.6198981674163603, "covered_radius": 6.851531409301721},
    ),
    ("rand10", "honeycomb"): (
        "c445270c03526dd0fd0d476b247d12dc39d1c03f3245fa6c9e91f1d3b0d39a9d",
        {"kind": "honeycomb",
         "basis": [[2.2805776495424146, 3.4673380709755097], [1.2430473599287204, 5.995663302868428]],
         "offset": [1.1827502916212342, 0.9176248513484693], "extent": 6,
         "cell_density": 0.5220076372030888, "covered_radius": 7.669017598536934},
    ),
    ("thin", "six"): (
        "c50fb8a40edb42377bfb0e0018883b238144966e34f1479d47c2ed8e3df4682b",
        {"kind": "six", "basis": [[2.0, 0.0], [-1.0, 0.04]], "extent": 6, "cell_density": 0.75,
         "covered_radius": 0.23976},
    ),
    ("thin", "four"): (
        "6f8b67cba6f830f9a59532b17ac53b7ead91daf49b2185146e034917d3519c06",
        {"kind": "four", "basis": [[2.0, 0.0], [0.0, 0.04]], "extent": 6, "cell_density": 0.75,
         "covered_radius": 0.23976},
    ),
    ("thin", "honeycomb"): (
        "7ed678380b40d53a958cfc773a72e6b07c80ea0a6728e1f11b67cc643b8c1aee",
        {"kind": "honeycomb", "basis": [[3.0, -0.04], [3.0, 0.04]], "offset": [1.0, -0.04],
         "extent": 6, "cell_density": 0.5, "covered_radius": 0.0},
    ),
}


@pytest.mark.parametrize("disc,kind", list(_GOLDEN_GENERATORS))
def test_generator_golden_output(disc, kind):
    p = _GOLDEN_BUILDERS[kind](_GOLDEN_DISCS[disc](), extent=6)
    digest, generator = _GOLDEN_GENERATORS[disc, kind]
    assert hashlib.sha256(p.centers.tobytes()).hexdigest() == digest
    assert list(p.generator.items()) == list(generator.items())
