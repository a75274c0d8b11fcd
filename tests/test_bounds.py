import numpy as np
import pytest

from minkpack.bounds import (
    BoundQuery,
    BoundsRangeError,
    Branch,
    Objective,
    avg_sides,
    cell_area_caps,
    concave_profile,
    corollary1_bound,
    corollary2_ratio_bound,
    density_bound_from_profile,
    minimize_bound_over_d0,
    theorem_lower_bound,
    theorem_value_array,
    vertex_polygon_ratio,
)
from minkpack.extremal import make_theorem_hexagon, profile


def test_frozen_bound_values():
    assert theorem_lower_bound(5.0, 0.875).value == pytest.approx(0.7, abs=1e-12)
    assert theorem_lower_bound(4.5, 1.0).value == pytest.approx(2.0 / 3.5, abs=1e-12)
    assert theorem_lower_bound(4.0, 1.0).value == pytest.approx(0.5, abs=1e-12)
    assert theorem_lower_bound(3.0, 0.75).value == pytest.approx(0.5, abs=1e-12)
    assert theorem_lower_bound(3.0, 1.0).value == pytest.approx(0.5, abs=1e-12)
    assert theorem_lower_bound(6.0, 0.9).value == pytest.approx(0.9, abs=1e-12)


def test_bound_at_six_is_identity():
    for d0 in np.linspace(0.75, 1.0, 11):
        assert theorem_lower_bound(6.0, d0).value == pytest.approx(d0, abs=1e-12)


def test_branch_labels():
    assert theorem_lower_bound(5.0, 0.75).branch is Branch.LOW_D0
    assert theorem_lower_bound(6.0, 0.9).branch is Branch.HIGH_D0_UPPER_LAMBDA
    assert theorem_lower_bound(3.5, 0.95).branch is Branch.HIGH_D0_LOWER_LAMBDA
    assert theorem_lower_bound(5.0, 0.875).branch is Branch.LOW_D0


def test_seam_is_continuous():
    # the two d0p branches agree along d0p = 7/8 for every lam
    for lam in np.linspace(3.0, 6.0, 61):
        lo = 0.875 / ((2.0 / 3.0) * 0.875 * (6.0 - lam) + (lam - 3.0) / 3.0)
        if lam >= 4.0:
            hi = 0.875 / (2.0 * 0.875 * (6.0 - lam) + 1.5 * lam - 8.0)
        else:
            hi = 0.875 / (2.0 * 0.875 * (lam - 2.0) - 2.0 * (lam - 3.0))
        assert hi == pytest.approx(lo, abs=1e-12)
    # and the two lam branches agree along lam = 4 above the seam
    for d0 in np.linspace(0.875, 1.0, 21):
        up = d0 / (2.0 * d0 * 2.0 - 2.0)
        dn = d0 / (2.0 * d0 * 2.0 + 6.0 - 8.0)
        assert up == pytest.approx(dn, abs=1e-15)


def test_value_array_matches_scalar():
    d0 = np.linspace(0.75, 1.0, 57)
    for lam in (3.2, 4.0, 4.9, 6.0):
        arr = theorem_value_array(lam, d0)
        for x, v in zip(d0, arr):
            assert theorem_lower_bound(lam, x).value == pytest.approx(v, abs=1e-14)


def test_corollary1_pieces():
    assert corollary1_bound(5.0) == 9.0 / 14.0
    assert corollary1_bound(6.0) == 0.75
    assert corollary1_bound(4.3) == pytest.approx(2.0 / 3.7, abs=1e-12)
    assert corollary1_bound(3.5) == 0.5
    # both formulas meet at lam = 24/5
    assert corollary1_bound(4.8) == pytest.approx(0.625, abs=1e-12)
    assert 9.0 / (2.0 * (12.0 - 4.8)) == pytest.approx(2.0 / (8.0 - 4.8), abs=1e-12)


def test_corollary2_pieces():
    assert corollary2_ratio_bound(5.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert corollary2_ratio_bound(6.0) == pytest.approx(1.0, abs=1e-12)
    assert corollary2_ratio_bound(3.7) == 0.5
    assert corollary2_ratio_bound(4.0) == 0.5


def test_minimize_examples():
    d0, v = minimize_bound_over_d0(5.0, Objective.BOUND)
    assert v == pytest.approx(9.0 / 14.0, abs=1e-8)
    assert d0 == pytest.approx(0.75, abs=1e-4)
    d0, v = minimize_bound_over_d0(4.5, Objective.BOUND)
    assert v == pytest.approx(2.0 / 3.5, abs=1e-8)
    assert d0 == pytest.approx(1.0, abs=1e-4)
    d0, v = minimize_bound_over_d0(5.0, Objective.RATIO)
    assert v == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert d0 == pytest.approx(1.0, abs=1e-4)


def test_minimize_agrees_with_corollaries():
    for lam in np.linspace(3.0, 6.0, 31):
        _, v1 = minimize_bound_over_d0(lam, Objective.BOUND)
        assert v1 == pytest.approx(corollary1_bound(lam), abs=1e-8)
        _, v2 = minimize_bound_over_d0(lam, Objective.RATIO)
        assert v2 == pytest.approx(corollary2_ratio_bound(lam), abs=1e-8)


def test_minimize_is_exact():
    # the minimum sits at 3/4, 7/8 or 1, so it meets the closed forms to
    # rounding and no grid point beats it
    for lam in np.linspace(3.0, 6.0, 601):
        assert abs(minimize_bound_over_d0(lam, Objective.BOUND)[1] - corollary1_bound(lam)) <= 1e-15
        assert abs(minimize_bound_over_d0(lam, Objective.RATIO)[1]
                   - corollary2_ratio_bound(lam)) <= 1e-15
    grid = np.linspace(0.75, 1.0, 20001)
    for lam in np.linspace(3.0, 6.0, 61):
        values = theorem_value_array(lam, grid)
        assert minimize_bound_over_d0(lam, Objective.BOUND)[1] <= values.min()
        assert minimize_bound_over_d0(lam, Objective.RATIO)[1] <= (values / grid).min()


def test_range_guards():
    with pytest.raises(BoundsRangeError):
        BoundQuery(2.5, 0.9)
    with pytest.raises(BoundsRangeError):
        BoundQuery(6.5, 0.9)
    with pytest.raises(BoundsRangeError):
        BoundQuery(5.0, 0.6)
    with pytest.raises(BoundsRangeError):
        theorem_value_array(5.0, [0.5, 0.9])
    with pytest.raises(BoundsRangeError):
        avg_sides(2.0)
    with pytest.raises(BoundsRangeError):
        avg_sides(6.5)
    with pytest.raises(BoundsRangeError):
        vertex_polygon_ratio(1.0)


def test_avg_sides_values():
    assert avg_sides(6.0) == pytest.approx(3.0)
    assert avg_sides(4.0) == pytest.approx(4.0)
    assert avg_sides(3.0) == pytest.approx(6.0)
    assert vertex_polygon_ratio(4.0) == pytest.approx(1.0)
    assert vertex_polygon_ratio(6.0) == pytest.approx(0.5)


def test_cell_area_caps_hexagons():
    prof = profile(make_theorem_hexagon(0.875))
    caps = cell_area_caps(prof)
    assert caps == pytest.approx({3: 0.5, 4: 1.5, 5: 2.5, 6: 3.5})


def test_concave_profile_structure():
    # below the seam the majorant is the single chord delta -> area
    prof34 = profile(make_theorem_hexagon(0.75))
    assert concave_profile(prof34, 4.0) == pytest.approx(0.5 + 2.5 / 3.0, abs=1e-9)
    assert concave_profile(prof34, 3.0) == pytest.approx(prof34.delta, abs=1e-9)
    assert concave_profile(prof34, 6.0) == pytest.approx(prof34.area, abs=1e-9)
    # above it the k = 4 point is a hull vertex
    prof1 = profile(make_theorem_hexagon(1.0))
    assert concave_profile(prof1, 4.0) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(BoundsRangeError):
        concave_profile(prof1, 6.5)


def test_density_bound_reassembly():
    for d0p in (0.75, 0.8, 0.875, 0.93, 1.0):
        d = make_theorem_hexagon(d0p)
        prof = profile(d)
        for lam in np.linspace(3.0, 6.0, 13):
            want = theorem_lower_bound(lam, prof.d0p).value
            got = density_bound_from_profile(prof, lam)
            assert got == pytest.approx(want, abs=1e-9)


def test_density_bound_accepts_disc():
    d = make_theorem_hexagon(0.875)
    assert density_bound_from_profile(d, 5.0) == pytest.approx(0.7, abs=1e-9)


def test_bound_monotone_in_lambda():
    for d0 in (0.75, 0.875, 1.0):
        vals = theorem_value_array(5.0, np.full(1, d0))
        grid = [theorem_lower_bound(l, d0).value for l in np.linspace(3.0, 6.0, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))
        assert vals[0] >= 0.5
