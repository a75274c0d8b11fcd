"""Piecewise density lower bounds for translate packings with a given
average neighbour count, plus the Euler-relation and concave-hull
machinery that produces them.

Conventions used throughout: `lam` is the average neighbour count in
[3, 6] (`lambda` is reserved in Python), `d0p` is the normalized lattice
density A/(8*Delta) in [3/4, 1].  The three closed-form branches meet
continuously along the seams lam = 4 and d0p = 7/8.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

_TOL = 1e-12
SEAM_D0 = 7.0 / 8.0


class BoundsRangeError(ValueError):
    """Query outside the domain the bounds are stated for."""


class Branch(Enum):
    LOW_D0 = "LOW_D0"
    HIGH_D0_UPPER_LAMBDA = "HIGH_D0_UPPER_LAMBDA"
    HIGH_D0_LOWER_LAMBDA = "HIGH_D0_LOWER_LAMBDA"


class Objective(Enum):
    BOUND = "BOUND"
    RATIO = "RATIO"


def _check_lam(lam: float) -> float:
    lam = float(lam)
    if not (3.0 - _TOL <= lam <= 6.0 + _TOL):
        raise BoundsRangeError(f"average neighbour count {lam} outside [3, 6]")
    return min(6.0, max(3.0, lam))


def _d0p_in_range(d0p):
    """True where d0p lies in [3/4, 1] up to _TOL; a float or an array, NaN is out."""
    return (0.75 - _TOL <= d0p) & (d0p <= 1.0 + _TOL)


def _check_d0p(d0p: float) -> float:
    d0p = float(d0p)
    if not _d0p_in_range(d0p):
        raise BoundsRangeError(f"normalized lattice density {d0p} outside [3/4, 1]")
    return min(1.0, max(0.75, d0p))


@dataclass(frozen=True)
class BoundQuery:
    """Point (lam, d0p) at which the lower bound is evaluated."""

    lam: float
    d0p: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lam(self.lam))
        object.__setattr__(self, "d0p", _check_d0p(self.d0p))


@dataclass(frozen=True)
class BoundResult:
    value: float
    branch: Branch


def _branch(lam: float, high: bool) -> Branch:
    if not high:
        return Branch.LOW_D0
    return Branch.HIGH_D0_UPPER_LAMBDA if lam >= 4.0 else Branch.HIGH_D0_LOWER_LAMBDA


def _branch_value(lam: float, d0, branch: Branch):
    """Closed form of one branch; plain arithmetic, so d0 may be a float or an array."""
    if branch is Branch.LOW_D0:
        return d0 / ((2.0 / 3.0) * d0 * (6.0 - lam) + (lam - 3.0) / 3.0)
    if branch is Branch.HIGH_D0_UPPER_LAMBDA:
        return d0 / (2.0 * d0 * (6.0 - lam) + 1.5 * lam - 8.0)
    return d0 / (2.0 * d0 * (lam - 2.0) - 2.0 * (lam - 3.0))


def theorem_lower_bound(q, d0p: float | None = None) -> BoundResult:
    """Density lower bound at a query point.

    Accepts a BoundQuery, or the pair (lam, d0p) for convenience.  The
    second high-d0p formula is the corrected one, continuous with both
    other branches and with the corollaries; see notes in the repository
    history for the derivation via the concave profile.
    """
    if d0p is not None:
        q = BoundQuery(q, d0p)
    branch = _branch(q.lam, q.d0p > SEAM_D0)
    return BoundResult(value=float(_branch_value(q.lam, q.d0p, branch)), branch=branch)


def theorem_value_array(lam: float, d0p) -> np.ndarray:
    """Vectorized bound over an array of d0p values at fixed lam."""
    lam = _check_lam(lam)
    d0 = np.asarray(d0p, dtype=float)
    if not np.all(_d0p_in_range(d0)):
        raise BoundsRangeError("d0p grid leaves [3/4, 1]")
    low = _branch_value(lam, d0, Branch.LOW_D0)
    return np.where(d0 <= SEAM_D0, low, _branch_value(lam, d0, _branch(lam, True)))


def corollary1_bound(lam: float) -> float:
    """Lower bound on density minimized over all discs (over d0p)."""
    lam = _check_lam(lam)
    if lam >= 24.0 / 5.0:
        return 9.0 / (2.0 * (12.0 - lam))
    if lam >= 4.0:
        return 2.0 / (8.0 - lam)
    return 0.5


def corollary2_ratio_bound(lam: float) -> float:
    """Lower bound on density / d0p, minimized over d0p."""
    lam = _check_lam(lam)
    if lam >= 4.0:
        return 2.0 / (8.0 - lam)
    return 0.5


def minimize_bound_over_d0(lam: float, objective=Objective.BOUND):
    """Minimize the bound (or bound/d0p) over d0p in [3/4, 1], exactly.

    Returns (d0_star, value).  On each branch interval, [3/4, 7/8] and
    [7/8, 1], the bound is d0/(a d0 + b) with a and b fixed by lam and
    a d0 + b > 0.  Its derivative b/(a d0 + b)^2 keeps the sign of b, so it
    is monotone there, and so is the ratio bound/d0 = 1/(a d0 + b).  The
    branches meet at 7/8, so the minimum lies at 3/4, 7/8 or 1; a tie goes
    to the first of these.
    """
    lam = _check_lam(lam)
    obj = Objective(objective)

    def f(d0: float) -> float:
        v = theorem_lower_bound(BoundQuery(lam, d0)).value
        return v / d0 if obj is Objective.RATIO else v

    d0_star = min((0.75, SEAM_D0, 1.0), key=f)
    return d0_star, f(d0_star)


def avg_sides(lam: float) -> float:
    """Average side count of subdivision cells, 2*lam/(lam - 2)."""
    lam = float(lam)
    if lam <= 2.0 or lam > 6.0 + 1e-9:
        raise BoundsRangeError(f"average neighbour count {lam} outside (2, 6]")
    return 2.0 * lam / (lam - 2.0)


def vertex_polygon_ratio(lam: float) -> float:
    """Vertices per cell in the subdivision, 2/(lam - 2)."""
    lam = float(lam)
    if lam <= 2.0 or lam > 6.0 + 1e-9:
        raise BoundsRangeError(f"average neighbour count {lam} outside (2, 6]")
    return 2.0 / (lam - 2.0)


def cell_area_caps(prof) -> dict[int, float]:
    """Caps on the unit-sided k-gon areas in terms of area and delta only."""
    a, dl = float(prof.area), float(prof.delta)
    cap4 = a - 4.0 * dl
    return {3: dl, 4: cap4, 5: 0.5 * (cap4 + a), 6: a}


def concave_profile(prof, s: float) -> float:
    """Least concave majorant of the four points (k, cap_k), evaluated at s.

    Needs only `area` and `delta` attributes of `prof`.  cap5 is the
    midpoint of cap4 and cap6, so the majorant is the chord from
    (3, delta) to (6, area), bent at (4, cap4) exactly when that point lies
    above the chord: 3 (cap4 - delta) > area - delta, that is d0p > 7/8.
    """
    s = float(s)
    if not (3.0 - _TOL <= s <= 6.0 + _TOL):
        raise BoundsRangeError(f"side count {s} outside [3, 6]")
    s = min(6.0, max(3.0, s))
    caps = cell_area_caps(prof)
    dl, c4, a = caps[3], caps[4], caps[6]
    if 3.0 * (c4 - dl) <= a - dl:
        (x1, y1), (x2, y2) = (3.0, dl), (6.0, a)
    elif s < 4.0:
        (x1, y1), (x2, y2) = (3.0, dl), (4.0, c4)
    else:
        (x1, y1), (x2, y2) = (4.0, c4), (6.0, a)
    t = (s - x1) / (x2 - x1)
    return float((1.0 - t) * y1 + t * y2)


def density_bound_from_profile(d, lam: float) -> float:
    """Bound reassembled from the proof pieces: ratio * A / (4 * conc(s)).

    `d` may be a disc, of which only delta is computed, or an object
    already carrying `area` and `delta`.  The factor 4 converts unit-sided
    extremal areas to cell areas, since subdivision edges have gauge
    length 2.
    """
    lam = _check_lam(lam)
    if hasattr(d, "area") and hasattr(d, "delta"):
        prof = d
    else:
        from .extremal import max_triangle_area

        prof = SimpleNamespace(area=d.area, delta=max_triangle_area(d))
    s = avg_sides(lam)
    return vertex_polygon_ratio(lam) * float(prof.area) / (4.0 * concave_profile(prof, s))
