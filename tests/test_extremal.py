import math
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest

from minkpack.bounds import BoundsRangeError
from minkpack import extremal
from minkpack.extremal import (
    _FACES,
    _REL,
    ExtremalProfile,
    _closing_multisets,
    _face_solutions,
    _first_unique,
    _group_matvec,
    _triangle_search,
    _zonotope_closes,
    make_theorem_hexagon,
    max_hexagon_candidates,
    max_kgon_area,
    max_parallelogram_candidates,
    max_pentagon_candidates,
    max_triangle_area,
    max_triangle_candidates,
    max_triangle_optimum,
    polygon_from_sides,
    profile,
    sorted_sides_area,
)
from minkpack.geometry import ConvexDisc, GeometryError, cross, regular_ngon
from minkpack.oracle import grid_max_kgon
from minkpack.random_shapes import random_disc

# frozen values for the canonical hexagon family, worked out by hand:
# vertices (+-1, 0), (+-w, +-1) give A = 2(1+w), Delta = 1/2, F4 = 2w,
# F5 = (F4 + F6)/2 + w(1-w)/..., F6 = A, d0p = (1+w)/2
HEX_EXPECT = {
    0.5: dict(area=3.0, delta=0.5, f4=1.0, f5=13.0 / 8.0, f6=3.0, d0p=0.75),
    0.75: dict(area=3.5, delta=0.5, f4=1.5, f5=33.0 / 16.0, f6=3.5, d0p=0.875),
    1.0: dict(area=4.0, delta=0.5, f4=2.0, f5=2.5, f6=4.0, d0p=1.0),
}


@pytest.mark.parametrize("w", sorted(HEX_EXPECT))
def test_hexagon_family_profiles(w):
    d = make_theorem_hexagon((1.0 + w) / 2.0)
    exp = HEX_EXPECT[w]
    prof = profile(d)
    assert prof.area == pytest.approx(exp["area"], abs=1e-9)
    assert prof.delta == pytest.approx(exp["delta"], abs=1e-8)
    assert prof.f3 == prof.delta
    assert prof.f4 == pytest.approx(exp["f4"], abs=1e-8)
    assert prof.f5 == pytest.approx(exp["f5"], abs=1e-6)
    assert prof.f6 == pytest.approx(exp["f6"], abs=1e-8)
    assert prof.d0p == pytest.approx(exp["d0p"], abs=1e-8)


def test_hexagon_family_gauge_formula():
    for d0p in (0.75, 0.8, 0.9, 1.0):
        w = 2.0 * d0p - 1.0
        d = make_theorem_hexagon(d0p)
        rng = np.random.default_rng(17)
        for v in rng.normal(size=(25, 2)) * 2.0:
            want = max(abs(v[0]) + (1.0 - w) * abs(v[1]), abs(v[1]))
            assert d.gauge(v) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_hexagon_merges_to_square_at_one():
    d = make_theorem_hexagon(1.0)
    assert len(d.vertices) == 4
    assert d.is_parallelogram


def test_hexagon_range_guard():
    with pytest.raises(BoundsRangeError):
        make_theorem_hexagon(0.7)
    with pytest.raises(BoundsRangeError):
        make_theorem_hexagon(1.01)


def test_square_triangle_continuum(square):
    # midpoint triangles all reach the optimum 1/2; candidates must include one
    assert max_triangle_area(square) == pytest.approx(0.5, abs=1e-9)
    cands = max_triangle_candidates(square)
    assert cands
    for sides in cands:
        assert sides.shape == (3, 2)
        assert np.allclose(sides.sum(axis=0), 0.0, atol=1e-9)
        assert np.allclose(square.gauge_many(sides), 1.0, atol=1e-7)


def test_candidate_lists_close_up(hexagon_78):
    for cands, k in ((max_parallelogram_candidates(hexagon_78), 2),
                     (max_hexagon_candidates(hexagon_78), 3)):
        assert cands
        for sides in cands:
            assert sides.shape == (k, 2)
            assert np.allclose(hexagon_78.gauge_many(sides), 1.0, atol=1e-7)


def test_f6_equals_area_for_hexagon_discs(hexagon_34, hexagon_78):
    for d in (hexagon_34, hexagon_78):
        assert max_kgon_area(d, 6) == pytest.approx(d.area, abs=1e-8)


def test_f4_equals_area_minus_4delta_for_hexagons(hexagon_34, hexagon_78):
    for d in (hexagon_34, hexagon_78):
        prof = profile(d)
        assert prof.f4 == pytest.approx(prof.area - 4.0 * prof.delta, abs=1e-7)


def test_round_disc_values():
    d = regular_ngon(96)
    prof = profile(d)
    assert prof.delta == pytest.approx(np.sqrt(3.0) / 4.0, abs=5e-3)
    assert prof.d0p == pytest.approx(np.pi / (2.0 * np.sqrt(3.0)), abs=5e-3)


def test_max_kgon_rejects_bad_k(square):
    with pytest.raises(GeometryError):
        max_kgon_area(square, 7)
    with pytest.raises(GeometryError):
        max_kgon_area(square, 2)


def test_profile_range_guard():
    with pytest.raises(GeometryError):
        ExtremalProfile(area=4.0, delta=1.0, f3=1.0, f4=2.0, f5=2.5, f6=4.0, d0p=0.5)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_affine_invariance(k):
    d = make_theorem_hexagon(0.85)
    T = np.array([[1.1, 0.3], [-0.2, 0.8]])
    det = abs(np.linalg.det(T))
    dv = ConvexDisc(d.vertices @ T.T)
    a = max_triangle_area(d) if k == 3 else max_kgon_area(d, k)
    b = max_triangle_area(dv) if k == 3 else max_kgon_area(dv, k)
    assert b == pytest.approx(det * a, rel=1e-6)


def test_polygon_from_sides_square(square):
    sides = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]]) / 2.0
    p = polygon_from_sides(square, sides)
    assert p.area == pytest.approx(1.0)
    assert np.allclose(p.sides, sides)


def test_random_profiles_satisfy_chain(random_disc_profiles):
    for d, prof in random_disc_profiles[:25]:
        assert 0.75 - 1e-6 <= prof.d0p <= 1.0 + 1e-6
        assert prof.f4 <= prof.area - 4.0 * prof.delta + 1e-6
        assert prof.f5 <= 0.5 * (prof.f4 + prof.f6) + 1e-6
        assert prof.f6 <= prof.area + 1e-6


# a 12-vertex disc on which a multistart pentagon search once returned
# f5 = 1.740757 while the n = 256 grid oracle finds 1.741705
_FAULT_HALF = [
    (0.9908688902166448, 0.25151784307056335), (0.283393108139746, 1.0601341245808522),
    (-0.2181251541302454, 1.1270139225375275), (-0.5153294494531738, 0.8727458309420235),
    (-0.8835806384651304, 0.31759736462005195), (-0.9378258640163898, 0.10671817489105301),
]


@pytest.fixture(scope="module")
def fault_disc():
    half = np.array(_FAULT_HALF)
    return ConvexDisc(np.vstack([half, -half]))


def test_f5_reaches_the_grid_oracle_on_the_fault_disc(fault_disc):
    prof = profile(fault_disc)
    assert prof.f5 >= grid_max_kgon(fault_disc, 5, 256) - 1e-12
    assert prof.f5 <= 0.5 * (prof.f4 + prof.f6)


@pytest.mark.parametrize("w", sorted(HEX_EXPECT))
def test_f5_is_exact_on_the_hexagon_family(w):
    d = make_theorem_hexagon((1.0 + w) / 2.0)
    assert max_kgon_area(d, 5) == pytest.approx(HEX_EXPECT[w]["f5"], abs=1e-12)


@pytest.mark.parametrize("name", ["square", "hexagon_34", "hexagon_78", "fault_disc"])
def test_pentagon_witnesses_reach_f5(request, name):
    d = request.getfixturevalue(name)
    f5 = max_kgon_area(d, 5)
    cands = max_pentagon_candidates(d)
    assert cands
    for sides in cands:
        assert sides.shape == (5, 2)
        p = polygon_from_sides(d, sides)
        assert p.area == pytest.approx(f5, abs=1e-12)
        assert sorted_sides_area(sides) == pytest.approx(f5, abs=1e-12)


@pytest.mark.parametrize("n_pairs", [2, 3, 4, 5, 6])
def test_closing_multisets_match_brute_force(n_pairs):
    rng = np.random.default_rng(100 + n_pairs)
    for _ in range(4):
        d = random_disc(rng, n_pairs=n_pairs)
        every = np.array(list(combinations_with_replacement(range(len(d.vertices)), 5)))
        want = every[_zonotope_closes(d, every)]
        got = _closing_multisets(d)
        assert len(np.unique(got, axis=0)) == len(got)
        assert np.array_equal(np.unique(got, axis=0), want)


def _lagrange_systems(Vs, Es):
    """solve(F, phi): the stationary point of Q on the face with free sides F
    and fixed values phi, from its full Lagrange system; None when singular."""
    H, g = np.zeros((5, 5)), np.zeros(5)
    for i, j in combinations(range(5), 2):
        H[i, j] = H[j, i] = 0.5 * cross(Es[i], Es[j])
        g[i] += 0.5 * cross(Es[i], Vs[j])
        g[j] += 0.5 * cross(Vs[i], Es[j])

    def solve(F, phi):
        fixed = [i for i in range(5) if i not in F]
        A = Es[F].T
        K = np.block([[H[np.ix_(F, F)], A.T], [A, np.zeros((2, 2))]])
        if np.linalg.matrix_rank(A) < 2 or np.linalg.cond(K) > 1e10:
            return None
        rhs = np.concatenate([-(g[F] + H[np.ix_(F, fixed)] @ phi),
                              -Vs.sum(axis=0) - phi @ Es[fixed]])
        t = np.zeros(5)
        t[fixed] = phi
        t[F] = np.linalg.solve(K, rhs)[:len(F)]
        return t

    return solve


def test_face_solutions_match_the_lagrange_systems(fault_disc):
    # every face of every fourth closing multiset, feasible or not, so the
    # one-, two- and three-dimensional closed forms are all compared; the
    # faces are all 3^5 assignments of free/0/1 with at least two free sides
    faces = set()
    for fixed, phi, _, _ in _FACES:
        for values in phi:
            face = ["f"] * 5
            for i, v in zip(fixed, values):
                face[i] = str(int(v))
            faces.add(tuple(face))
    assert faces == {f for f in product("f01", repeat=5) if f.count("f") >= 2}
    V = fault_disc.vertices
    E = np.roll(V, -1, axis=0) - V
    T = _closing_multisets(fault_disc)[::4]
    Vs, Es = V[T], E[T]
    systems = [_lagrange_systems(Vs[b], Es[b]) for b in range(len(T))]
    solved = 0
    for face, (t, good) in zip(_FACES, _face_solutions(Vs, Es)):
        fixed, phi = face[0], face[1]
        F = [i for i in range(5) if i not in fixed]
        for b in range(len(T)):
            for k in range(len(phi)):
                want = systems[b](F, phi[k])
                assert (want is not None) == bool(good[b])
                if want is not None:
                    assert np.allclose(t[b, k], want, rtol=0.0, atol=1e-9)
                    solved += 1
    assert solved > 0.5 * len(T) * 131


# --- triangle search and candidate lists -----------------------------------


def _reference_key(sides, scale):
    """The per-set dedup key the batched _first_unique replaced."""
    digits = 11 if scale <= 0 else max(2, 11 - int(math.floor(math.log10(scale))))
    return min(tuple(sorted(tuple(round(x, digits) + 0.0 for x in row) for row in sgn * sides))
               for sgn in (1.0, -1.0))


def _reference_dedup(sides, scale):
    seen, out = set(), []
    for n, s in enumerate(sides):
        key = _reference_key(s, scale)
        if key not in seen:
            seen.add(key)
            out.append(n)
    return out


def _reference_triangle_search(d):
    """The per-candidate loop search the batched _triangle_search replaced: (delta, side pairs).

    It takes every product as the old search did (E @ n_c and V @ n_c per
    closing edge, V_i @ n_c per pivot edge, one product per (c, i) over its
    edges j), so the batched search must reproduce it to the last bit.
    """
    V, N, m = d.vertices, d.normals, len(d.vertices)
    E = np.roll(V, -1, axis=0) - V
    ecn = (E * E).sum(axis=1)
    areaeps = 1e-12 * d.diameter**2
    pairs = []
    G = d.gauge_many(-(V[:, None, :] + V[None, :, :]).reshape(-1, 2)).reshape(m, m)
    for i, j in zip(*np.nonzero(np.abs(G - 1.0) <= 1e-9)):
        pairs.append((V[i], V[j]))

    def clip(p0, q, lo, hi):
        for n in range(len(p0)):
            if abs(q[n]) > 1e-14:
                c1, c2 = (0.0 - p0[n]) / q[n], (1.0 - p0[n]) / q[n]
                lo[n], hi[n] = max(lo[n], min(c1, c2)), min(hi[n], max(c1, c2))
            elif not -1e-12 <= p0[n] <= 1.0 + 1e-12:
                hi[n] = lo[n] - 1.0

    for c in range(m):
        b, rbase = E @ N[c], -1.0 - V @ N[c]
        for i in range(m):
            jj = np.nonzero((abs(b[i]) >= np.abs(b)) & (abs(b[i]) > 1e-14))[0]
            if not len(jj):
                continue
            alpha = (rbase[jj] - float(V[i] @ N[c])) / b[i]
            beta = -b[jj] / b[i]
            lo, hi = np.zeros(len(jj)), np.ones(len(jj))
            clip(alpha, beta, lo, hi)
            P0 = V[i] + alpha[:, None] * E[i]
            S0, S1 = -(P0 + V[jj]), -(beta[:, None] * E[i] + E[jj])
            clip((S0 - V[c]) @ E[c] / ecn[c], (S1 @ E[c]) / ecn[c], lo, hi)
            for t, j in enumerate(jj):
                if lo[t] > hi[t] + 1e-12:
                    continue
                q1 = cross(P0[t], E[j]) + beta[t] * cross(E[i], V[j])
                q2 = beta[t] * cross(E[i], E[j])
                taus = [lo[t], hi[t]]
                if abs(q2) > areaeps:
                    if lo[t] < -q1 / (2.0 * q2) < hi[t]:
                        taus.append(-q1 / (2.0 * q2))
                elif abs(q1) <= areaeps:
                    taus.append(0.5 * (lo[t] + hi[t]))
                pairs += [(V[i] + (alpha[t] + beta[t] * tau) * E[i], V[j] + tau * E[j])
                          for tau in taus]
    areas = [0.5 * abs(cross(s1, s2)) for s1, s2 in pairs]
    return max(areas), [p for a, p in zip(areas, pairs) if a >= max(areas) * (1.0 - _REL) - 1e-12]


def _fixture_discs():
    rng = np.random.default_rng(31)
    discs = [make_theorem_hexagon(t) for t in (0.75, 0.8, 0.875, 0.95, 1.0)]
    discs += [regular_ngon(n) for n in (6, 8, 12, 24)]
    return discs + [random_disc(rng, n_pairs=int(rng.integers(3, 7))) for _ in range(20)]


@pytest.mark.parametrize("k", range(29))
def test_triangle_search_matches_the_loop_search(k):
    d = _fixture_discs()[k]
    want_delta, want_pairs = _reference_triangle_search(d)
    want = np.array([[s1, s2, -(s1 + s2)] for s1, s2 in want_pairs])
    want = want[_reference_dedup(want, d.diameter)]
    assert max_triangle_area(d) == want_delta
    assert np.array_equal(np.array(max_triangle_candidates(d)), want)


def test_first_unique_matches_the_reference_dedup():
    rng = np.random.default_rng(5)
    cases = []
    for d in _fixture_discs()[::3]:
        best, areas, s1, s2 = _triangle_search(d)
        cases.append((np.stack([s1, s2, -(s1 + s2)], axis=1), d.diameter))
    base = rng.normal(size=(6, 3, 2))
    twins = np.concatenate([base, -base[:, ::-1], base[:, [1, 2, 0]], base + 1e-14])
    cases.append((twins[rng.permutation(len(twins))], 2.0))
    cases.append((np.array([[[0.0, 1.0], [-0.0, -1.0]], [[-0.0, -1.0], [0.0, 1.0]],
                            [[0.0, 1.0], [0.0, 1.0]]]), 4.0))
    for sides, scale in cases:
        assert _first_unique(sides, scale).tolist() == _reference_dedup(sides, scale)
    assert len(_first_unique(twins, 2.0)) == 6


def test_group_matvec_is_one_product_per_run():
    rng = np.random.default_rng(8)
    runs = [1, 3, 1, 2, 2, 5, 1]
    X = rng.normal(size=(2, sum(runs), 2))
    e = np.repeat(rng.normal(size=(len(runs), 2)), runs, axis=0)
    rows = np.repeat(runs, runs)
    want, start = [], 0
    for k in runs:
        want.append(np.stack([X[s, start:start + k] @ e[start] for s in (0, 1)]))
        start += k
    assert np.array_equal(_group_matvec(X, e, rows), np.concatenate(want, axis=1))


def test_triangle_search_batches_do_not_change_the_result(monkeypatch):
    d = regular_ngon(24)
    want = _triangle_search(d)
    monkeypatch.setattr(extremal, "_TRIPLE_CAP", 700)  # batches of one closing edge
    got = _triangle_search(d)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert np.array_equal(a, b)


# delta and the triangle/parallelogram/hexagon candidate counts
CANDIDATE_TABLE = {
    "square": (lambda: make_theorem_hexagon(1.0), 0.5, (4, 1, 4)),
    "hexagon 3/4": (lambda: make_theorem_hexagon(0.75), 0.5, (1, 6, 1)),
    "hexagon 7/8": (lambda: make_theorem_hexagon(0.875), 0.5, (3, 1, 1)),
    "regular 6": (lambda: regular_ngon(6), None, (1, 6, 1)),
    "regular 8": (lambda: regular_ngon(8), None, (4, 2, 8)),
    "regular 12": (lambda: regular_ngon(12), None, (2, 3, 2)),
    "regular 24": (lambda: regular_ngon(24), None, (4, 6, 4)),
    "regular 96": (lambda: regular_ngon(96), 0.4330127018922197, (16, 24, 16)),
}


@pytest.mark.parametrize("name", sorted(CANDIDATE_TABLE))
def test_candidate_lists_are_frozen_and_optimal(name):
    make, delta, counts = CANDIDATE_TABLE[name]
    d = make()
    if delta is not None:
        assert max_triangle_area(d) == pytest.approx(delta, rel=1e-14, abs=0.0)
    lists = {3: max_triangle_candidates(d), 4: max_parallelogram_candidates(d),
             6: max_hexagon_candidates(d)}
    assert tuple(len(lists[k]) for k in (3, 4, 6)) == counts
    best, witnesses = max_triangle_optimum(d)
    assert best == max_triangle_area(d)
    assert np.array_equal(np.array(witnesses), np.array(lists[3]))
    for k, cands in lists.items():
        best = max_triangle_area(d) if k == 3 else max_kgon_area(d, k)
        polys = [sides if k == 3 else np.vstack([sides, -sides]) for sides in cands]
        for sides in polys:
            assert sides.shape == (k, 2)
            assert np.abs(sides.sum(axis=0)).max() <= 1e-12 * d.diameter
            assert np.abs(d.gauge_many(sides) - 1.0).max() <= 1e-9
            assert best * (1.0 - _REL) - 1e-12 <= sorted_sides_area(sides) <= best * (1.0 + 1e-12)
        keys = {_reference_key(sides, d.diameter) for sides in cands}
        assert len(keys) == len(cands)
