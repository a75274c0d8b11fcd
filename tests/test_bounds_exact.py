"""Exact rational checks of the density bound: its three closed forms, the
seams where they meet, the corollaries as minima over d0p, and 9/14."""

import pytest

sympy = pytest.importorskip("sympy")

from sympy import Rational, diff, numer, simplify, solve, symbols, together  # noqa: E402

from minkpack.bounds import (  # noqa: E402
    Branch,
    corollary1_bound,
    corollary2_ratio_bound,
    theorem_lower_bound,
    theorem_value_array,
)

lam, d = symbols("lam d", positive=True)

# the three branches, in exact arithmetic
CLOSED = {
    Branch.LOW_D0: d / (Rational(2, 3) * d * (6 - lam) + (lam - 3) / 3),
    Branch.HIGH_D0_UPPER_LAMBDA: d / (2 * d * (6 - lam) + Rational(3, 2) * lam - 8),
    Branch.HIGH_D0_LOWER_LAMBDA: d / (2 * d * (lam - 2) - 2 * (lam - 3)),
}
SEAM = Rational(7, 8)

# rational points that are exact binary floats: lam = 3 + k/8, d0p = 3/4 + j/64
LAMS = [3 + Rational(k, 8) for k in range(25)]
D0PS = [Rational(3, 4) + Rational(j, 64) for j in range(17)]


def _exact_branch(lv, dv):
    if dv <= SEAM:
        return Branch.LOW_D0
    return Branch.HIGH_D0_UPPER_LAMBDA if lv >= 4 else Branch.HIGH_D0_LOWER_LAMBDA


def _chord(x1, y1, x2, y2, s):
    return y1 + (s - x1) * (y2 - y1) / (x2 - x1)


@pytest.mark.parametrize("branch", list(Branch))
def test_branch_is_the_reassembled_bound(branch):
    # ratio(lam) * A / (4 conc(s)) with s = 2 lam / (lam - 2), ratio = 2 / (lam - 2),
    # and the concave profile through the caps (3, delta), (4, A - 4 delta),
    # (6, A) at delta = 1, A = 8 d0p: the chord 3-6 below the seam, the
    # chords 3-4 (lam >= 4) and 4-6 (lam <= 4) above it
    area, s = 8 * d, 2 * lam / (lam - 2)
    conc = {
        Branch.LOW_D0: _chord(3, 1, 6, area, s),
        Branch.HIGH_D0_UPPER_LAMBDA: _chord(3, 1, 4, area - 4, s),
        Branch.HIGH_D0_LOWER_LAMBDA: _chord(4, area - 4, 6, area, s),
    }[branch]
    assert simplify(2 / (lam - 2) * area / (4 * conc) - CLOSED[branch]) == 0


def test_library_evaluates_the_closed_forms():
    for lv in LAMS:
        values = theorem_value_array(float(lv), [float(dv) for dv in D0PS])
        for dv, arr in zip(D0PS, values):
            res = theorem_lower_bound(float(lv), float(dv))
            branch = _exact_branch(lv, dv)
            exact = float(CLOSED[branch].subs({lam: lv, d: dv}))
            assert res.branch is branch
            assert res.value == arr
            assert res.value == pytest.approx(exact, rel=4e-16, abs=0.0)


def test_seam_at_seven_eighths_for_every_lambda():
    low = CLOSED[Branch.LOW_D0].subs(d, SEAM)
    for branch in (Branch.HIGH_D0_UPPER_LAMBDA, Branch.HIGH_D0_LOWER_LAMBDA):
        assert simplify(CLOSED[branch].subs(d, SEAM) - low) == 0
    assert simplify(low - Rational(7, 2) / (10 - lam)) == 0


def test_seam_at_lambda_four_above_seven_eighths():
    upper = CLOSED[Branch.HIGH_D0_UPPER_LAMBDA].subs(lam, 4)
    lower = CLOSED[Branch.HIGH_D0_LOWER_LAMBDA].subs(lam, 4)
    assert simplify(upper - lower) == 0
    assert simplify(upper - d / (4 * d - 2)) == 0


def _exact_min(f, lo, hi):
    """Exact minimum of a rational function f(d) on [lo, hi], over the ends and critical points."""
    slope = numer(together(diff(f, d)))
    crit = [] if slope.is_zero else [c for c in solve(slope, d) if c.is_real and lo < c < hi]
    return min(f.subs(d, x) for x in [lo, hi, *crit])


def _min_over_d0p(lv, ratio=False):
    """Exact minimum over d0p in [3/4, 1] of the bound (or bound / d0p) at lam = lv."""
    pieces = [(Branch.LOW_D0, Rational(3, 4), SEAM), (_exact_branch(lv, 1), SEAM, 1)]
    return min(_exact_min(CLOSED[b].subs(lam, lv) / (d if ratio else 1), lo, hi)
               for b, lo, hi in pieces)


_COROLLARY_LAMS = sorted(set(LAMS) | {Rational(24, 5), Rational(16, 3)})


def test_corollary1_is_the_minimum_over_d0p():
    join = Rational(24, 5)
    assert 9 / (2 * (12 - join)) == 2 / (8 - join) == Rational(5, 8)
    for lv in _COROLLARY_LAMS:
        if lv >= join:
            want = 9 / (2 * (12 - lv))
        elif lv >= 4:
            want = 2 / (8 - lv)
        else:
            want = Rational(1, 2)
        assert _min_over_d0p(lv) == want
        assert corollary1_bound(float(lv)) == pytest.approx(float(want), rel=4e-16, abs=0.0)


def test_corollary2_is_the_minimum_of_the_ratio_over_d0p():
    for lv in _COROLLARY_LAMS:
        want = 2 / (8 - lv) if lv >= 4 else Rational(1, 2)
        assert _min_over_d0p(lv, ratio=True) == want
        assert corollary2_ratio_bound(float(lv)) == pytest.approx(float(want), rel=4e-16, abs=0.0)


def test_nine_fourteenths_at_five_three_quarters():
    assert CLOSED[Branch.LOW_D0].subs({lam: 5, d: Rational(3, 4)}) == Rational(9, 14)
    res = theorem_lower_bound(5.0, 0.75)
    assert res.branch is Branch.LOW_D0
    assert res.value == pytest.approx(9.0 / 14.0, rel=4e-16, abs=0.0)
