from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest

from minkpack.bounds import BoundsRangeError
from minkpack.extremal import (
    _FACES,
    ExtremalProfile,
    _closing_multisets,
    _face_solutions,
    _zonotope_closes,
    make_theorem_hexagon,
    max_hexagon_candidates,
    max_kgon_area,
    max_parallelogram_candidates,
    max_pentagon_candidates,
    max_triangle_area,
    max_triangle_candidates,
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
