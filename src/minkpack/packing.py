"""Equality-case packings of disc translates, their neighbour graphs, the
induced straight-line subdivision, and window statistics.

Touching means gauge distance exactly 2 within a small tolerance; every
generator here places touchings by exact arithmetic in a canonical frame
and the tolerance only absorbs float drift.  Mixed strip constructions
are calibrated for the equality hexagon family (vertices (+-1,0),
(+-w,+-1)); the gauge there is max(|x| + (1-w)|y|, |y|), which is what
all the touch bookkeeping below is derived from.

A Packing is immutable (a frozen dataclass over a read-only copy of its
centers), so what is cached on it stays valid.  Each packing gets one
contact pass: a cKDTree pair search out to (2 + touch eps) R_out, the
furthest a touch reaches, and one gauge evaluation, cached on the packing,
from which validate_packing and neighbour_graph both read (a valid
packing's graph is cached by the validation itself).  The six-, four-
and three-neighbour packings are built and scored by one builder,
_lattice, and the best-effort strip frame takes d0p and w from
extremal.d0p_of and extremal.hexagon_w.  The four mixed-strip layouts
(six+four chains, their square-frame columns, six+honeycomb rows and
four+honeycomb columns) each spell a cyclic word of lines, one letter
(gap, phase shift, step, motif) per line, and one numpy builder, _strips,
reads every word: running sums place the lines and one broadcast places
their centers.  Four-neighbour strips are refused at w = 1/2, where their
4w gap is a touch.  The subdivision always covers the whole packing.  It
labels its faces as the cycles of the half-edge successor permutation in
one doubling pass (_face_cycles) and gets every per-face value from
whole-array reductions, including each face's largest vertex distance
from the centroid (Subdivision.max_radius), by which measure_stats picks
the faces inside a window.  Its crossing check
searches touch-edge midpoints only out to _touch_crossing_reach, a few
touch tolerances: in a valid packing two crossing touch edges cannot have
their midpoints further apart.  scipy serves only the cKDTree pair
searches and is imported on first use, not with the package.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .bounds import BoundsRangeError
from .extremal import (
    d0p_of,
    hexagon_w,
    max_hexagon_candidates,
    max_parallelogram_candidates,
    max_triangle_area,  # noqa: F401  unused here; bench/tracing.py still wraps this name
    max_triangle_candidates,
    max_triangle_optimum,
)
from .geometry import ConvexDisc, GeometryError, cross, disc_from_dict, disc_to_dict

TOUCH_REL = 1e-7
# a touch is a pair at gauge within TOUCH_EPS of 2: TOUCH_REL relative to the
# touch gauge, which does not depend on the disc's scale
TOUCH_EPS = 2.0 * TOUCH_REL
# ceiling on the (2 extent + 1)^2 lattice points a generator may be asked for
MAX_LATTICE_POINTS = 1 << 22
# ceiling on a mixed packing's strip width: a strip pattern of that many rows
# or columns already spans the widest window the lattice ceiling allows
MAX_STRIP_WIDTH = 1 << 11


class PackingInvalidError(ValueError):
    """Overlapping translates, crossing touch edges, or an impossible request."""


@dataclass(frozen=True, eq=False)
class Packing:
    """Translates of disc at centers, a read-only copy, so what _cache holds stays valid."""

    disc: ConvexDisc
    centers: np.ndarray
    generator: dict | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False)
    touch_eps = TOUCH_EPS

    def __post_init__(self):
        try:
            c = np.array(self.centers, dtype=float)
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"centers must be numbers: {exc}") from exc
        if c.ndim != 2 or c.shape[1] != 2 or len(c) == 0:
            raise GeometryError("centers must be a nonempty (n, 2) array")
        if not np.all(np.isfinite(c)):
            raise GeometryError("center coordinates must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "centers", c)


@dataclass
class NeighbourGraph:
    n: int
    edges: np.ndarray
    degrees: np.ndarray


@dataclass
class Subdivision:
    """Faces as vertex rings with per-face sides, areas and boundary flags.

    max_radius is each face's largest vertex distance from the centroid of
    all the packing's centers; measure_stats keeps a face inside radius R
    by it.
    """

    faces: list
    sides: np.ndarray
    areas: np.ndarray
    boundary: np.ndarray
    vertex_count: int
    disc: ConvexDisc
    max_radius: np.ndarray


@dataclass(frozen=True)
class PackingStats:
    window_radius: float
    lambda_hat: float
    density_hat: float
    avg_sides_hat: float
    vertex_face_ratio_hat: float


# ---------------------------------------------------------------------------
# pair enumeration and validation


def _close_pairs(points: np.ndarray, cutoff: float) -> np.ndarray:
    """(m, 2) index pairs i < j of points within Euclidean distance cutoff."""
    from scipy.spatial import cKDTree  # not at import: it costs more than importing minkpack

    return cKDTree(points).query_pairs(cutoff, output_type="ndarray")


def _contact_cutoff(d: ConvexDisc) -> float:
    """Euclidean reach of a touch: gauge <= 2 + touch eps, and |v| <= gauge(v) R_out."""
    return (2.0 + TOUCH_EPS) * 0.5 * d.diameter


def _contacts(p: Packing):
    """(I, J, gauge) of every center pair I < J that could touch, sorted by (I, J).

    The one pair search of a packing: validation and the neighbour graph
    both read it from the cache.
    """
    if "contacts" in p._cache:
        return p._cache["contacts"]
    pairs = _close_pairs(p.centers, _contact_cutoff(p.disc))
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    I, J = pairs[:, 0], pairs[:, 1]
    g = p.disc.gauge_many(p.centers[I] - p.centers[J])
    p._cache["contacts"] = (I, J, g)
    return I, J, g


def _touch_graph(p: Packing, I, J, g) -> NeighbourGraph:
    touch = np.abs(g - 2.0) <= p.touch_eps
    edges = np.stack([I[touch], J[touch]], axis=1)
    deg = np.bincount(edges.ravel(), minlength=len(p.centers))
    graph = NeighbourGraph(n=len(p.centers), edges=edges, degrees=deg)
    p._cache["graph"] = graph
    return graph


def validate_packing(p: Packing) -> dict:
    """Diagnostic report; a packing is valid iff the violation list is empty.

    A valid packing also gets its neighbour graph cached from the same pass.
    """
    I, J, g = _contacts(p)
    bad = np.nonzero(g < 2.0 - p.touch_eps)[0]
    if len(bad) == 0 and "graph" not in p._cache:
        _touch_graph(p, I, J, g)
    return {
        "violations": [(int(I[b]), int(J[b]), float(g[b])) for b in bad],
        "pairs_checked": int(len(I)),
        "ok": len(bad) == 0,
    }


def neighbour_graph(p: Packing) -> NeighbourGraph:
    """Edges (i < j, sorted) between translates at gauge distance 2; raises on overlaps."""
    if "graph" in p._cache:
        return p._cache["graph"]
    I, J, g = _contacts(p)
    nbad = int(np.count_nonzero(g < 2.0 - p.touch_eps))
    if nbad:
        raise PackingInvalidError(f"{nbad} overlapping pairs (gauge < 2)")
    return _touch_graph(p, I, J, g)


# ---------------------------------------------------------------------------
# lattice generators with coincidence tie-breaking


def _check_extent(extent) -> None:
    """Reject an extent below 0 or one with more than MAX_LATTICE_POINTS points."""
    if extent < 0:
        raise BoundsRangeError(f"extent {extent} must be >= 0")
    if (2 * int(extent) + 1) ** 2 > MAX_LATTICE_POINTS:
        raise BoundsRangeError(
            f"extent {extent} asks for more than {MAX_LATTICE_POINTS} lattice points")


def _lattice_points(g1, g2, extent: int) -> np.ndarray:
    """a g1 + b g2 for integers |a|, |b| <= extent, a major; the origin is the middle row."""
    a = np.arange(-extent, extent + 1)
    A, B = np.meshgrid(a, a, indexing="ij")
    return A.reshape(-1, 1) * g1 + B.reshape(-1, 1) * g2


def _lattice_covered_radius(g1, g2, extent: int) -> float:
    det = abs(cross(g1, g2))
    r1 = extent * det / float(np.hypot(*g2))
    r2 = extent * det / float(np.hypot(*g1))
    return 0.999 * min(r1, r2)


def _touch_profile(d: ConvexDisc, vecs: np.ndarray, expected: int):
    """(extra touches, validity, margin) of the gauge-2 shell in a vector list."""
    g = d.gauge_many(vecs)
    if np.any(g < 2.0 - TOUCH_EPS):
        return (np.inf, False, 0.0)
    touching = np.abs(g - 2.0) <= TOUCH_EPS
    others = g[~touching]
    margin = float(np.min(np.abs(others - 2.0))) if len(others) else np.inf
    return (int(np.count_nonzero(touching)) - expected, True, margin)


def _lattice(d: ConvexDisc, extent: int, kind: str, options: list, expected: int, span: int) -> Packing:
    """Lattice g1, g2, plus its translate by offset when there is one, on the
    best of the options (g1, g2, offset).

    An option is scored by _touch_profile over the nonzero lattice vectors
    with coefficients in [-span, span] and, with an offset, that lattice
    moved by +-offset: the valid option with least extra gauge-2
    coincidences wins, then the largest margin, then the first.  A
    degenerate basis is never valid.
    """
    keys = []
    for idx, (g1, g2, off) in enumerate(options):
        if abs(cross(g1, g2)) < 1e-12 * d.diameter**2:
            continue
        lat = _lattice_points(g1, g2, span)
        vecs = lat[np.any(lat != 0.0, axis=1)]
        if off is not None:
            vecs = np.vstack([vecs, lat + off, lat - off])
        extra, valid, margin = _touch_profile(d, vecs, expected)
        if valid:
            keys.append((extra, -margin, idx))
    if not keys:
        what = "honeycomb" if kind == "honeycomb" else "lattice"
        raise PackingInvalidError(f"no valid {what} basis among the optimizer candidates")
    g1, g2, off = options[min(keys)[2]]
    lat = _lattice_points(g1, g2, extent)
    covered = _lattice_covered_radius(g1, g2, extent)
    gen = {"kind": kind, "basis": [list(map(float, g1)), list(map(float, g2))]}
    if off is not None:
        gen["offset"] = list(map(float, off))
        lat = np.vstack([lat, lat + off])
        covered -= float(np.hypot(*off))
    gen["extent"] = int(extent)
    gen["cell_density"] = (1 if off is None else 2) * d.area / abs(cross(g1, g2))
    gen["covered_radius"] = max(0.0, covered)
    return Packing(disc=d, centers=lat, generator=gen)


def six_neighbour_lattice(d: ConvexDisc, extent: int = 20) -> Packing:
    """Lattice 2a, 2b from a maximal unit-sided triangle; cell density A/(8*delta)."""
    _check_extent(extent)
    options = [(2.0 * c[0], 2.0 * c[1], None) for c in max_triangle_candidates(d)]
    return _lattice(d, extent, "six", options, expected=6, span=4)


def four_neighbour_lattice(d: ConvexDisc, extent: int = 20) -> Packing:
    """Lattice 2p, 2q from a maximal unit-sided parallelogram; density A/(4*F4)."""
    _check_extent(extent)
    options = [(2.0 * c[0], 2.0 * c[1], None) for c in max_parallelogram_candidates(d)]
    return _lattice(d, extent, "four", options, expected=4, span=4)


def three_neighbour_honeycomb(d: ConvexDisc, extent: int = 20) -> Packing:
    """Two-point-basis packing whose edge vectors double a maximal hexagon's sides.

    With sides u1, u2, u3 in angular order the three edges leaving a point
    are 2u1, -2u2, 2u3; the sign alternation is what closes the hexagonal
    circuit.  Density A/(2*F6); degree exactly 3 for hexagon discs, more
    when extra gauge-2 coincidences occur (reported by the graph, not an
    error).  covered_radius is clamped at 0: on a thin disc the offset can
    exceed the covered radius of the lattice.
    """
    _check_extent(extent)
    options = []
    for triple in max_hexagon_candidates(d):
        ang = np.arctan2(triple[:, 1], triple[:, 0])
        u1, u2, u3 = triple[np.argsort(ang, kind="stable")]
        e1, e2, e3 = 2.0 * u1, -2.0 * u2, 2.0 * u3
        options.append((e1 - e2, e3 - e2, e1))
    return _lattice(d, extent, "honeycomb", options, expected=3, span=3)


# ---------------------------------------------------------------------------
# canonical frame of the equality hexagons


def _theorem_frame(d: ConvexDisc):
    """Linear map M and ratio w with M(canonical hexagon(w)) = d, or None."""
    V = d.vertices
    m = len(V)
    tol = 1e-9 * d.diameter

    def matches(M, w):
        canon = np.array(
            [(1, 0), (w, 1), (-w, 1), (-1, 0), (-w, -1), (w, -1)], dtype=float
        )
        if abs(w - 1.0) <= 1e-12:
            canon = np.array([(1, -1), (1, 1), (-1, 1), (-1, -1)], dtype=float)
        img = canon @ M.T
        if len(img) != len(V):
            return False
        for p in img:
            if np.min(np.abs(V - p).sum(axis=1)) > tol:
                return False
        return True

    if m == 4:
        # corners (1,-1) -> V0 and (1,1) -> V1 pin the two columns
        M = np.column_stack([0.5 * (V[0] + V[1]), 0.5 * (V[1] - V[0])])
        if matches(M, 1.0):
            return M, 1.0
        return None
    if m != 6:
        return None
    # on a counterclockwise hexagon side i + 1 runs antiparallel to the
    # diagonal V[i], from the image of (w, 1); for i = 2 that is side 3, read
    # as minus side 0 from -V[0].  canon(w) is symmetric under x -> -x, so
    # M diag(-1, 1) matches exactly when M does, and det M = cross(V[i],
    # V[i + 1]) is kept away from 0 by the disc's facet normals
    sides = np.roll(V, -1, axis=0) - V
    for i, j, top in ((0, 1, V[1]), (1, 2, V[2]), (2, 0, -V[0])):
        diag = V[i]
        if abs(cross(sides[j], diag)) > tol * d.diameter:
            continue
        w = float(np.hypot(*sides[j]) / (2.0 * np.hypot(*diag)))
        if not (0.5 - 1e-9 <= w <= 1.0 + 1e-9):
            continue
        M = np.column_stack([diag, top - w * diag])
        if matches(M, w):
            return M, w
    return None


def _fallback_frame(d: ConvexDisc):
    """Best-effort frame for a non-hexagon disc: anchor on a maximal triangle."""
    delta, cands = max_triangle_optimum(d)
    w = hexagon_w(d0p_of(d.area, delta))
    a1, a2 = cands[0][0], cands[0][1]
    M = np.column_stack([a1, a2 - (w - 1.0) * a1])
    return M, w


# ---------------------------------------------------------------------------
# mixed strip designs, canonical coordinates


def _blocks(frac: float, unit_a: int, unit_b: int):
    """Integer strip multiplicities (per period) realizing the fraction."""
    fr = Fraction(float(frac)).limit_denominator(24)
    p, q = fr.numerator, fr.denominator
    a = unit_a * p
    b = unit_b * (q - p)
    g = np.gcd(a, b) if a and b else 1
    return max(a // g, 0), max(b // g, 0), q


def _strips(word, first: int, u0: float, u_end: float, box, shear: float = 0.0):
    """Centers (u + shear v, v) of the lines a cyclic word spells, inside box.

    Each letter (gap, shift, step, motif) is one line: the next line lies
    gap further along u, with its phase moved by shift, and this line's
    centers sit at v = (phase mod step) + step j + m for every integer j
    and each offset m in motif (each m in [0, step)).  The lines start with
    letter first at u = u0 with phase 0 and run while u <= u_end; their
    places and phases are running sums taken one line at a time, as a loop
    over the lines would take them.  A center is kept when
    |u + shear v| <= box[0] and |v| <= box[1].  Centers come out line by
    line, then by motif offset, then by j.
    """
    gap, shift, step = np.array([letter[:3] for letter in word], dtype=float).T
    width = max(len(m) for *_, m in word)
    motif = np.array([m + (np.nan,) * (width - len(m)) for *_, m in word])  # NaN fails the box
    periods = int(np.ceil((u_end - u0) / gap.sum())) + 1
    idx = (first + np.arange(periods * len(word) + 1)) % len(word)
    u = np.cumsum(np.concatenate([[u0], gap[idx[:-1]]]))
    phase = np.cumsum(np.concatenate([[0.0], shift[idx[:-1]]]))
    bu, bv = box
    line = (u <= u_end) & (np.abs(u) <= bu + abs(shear) * bv)
    idx, u, phase = idx[line], u[line], phase[line]
    n = int(np.ceil(bv / step.min())) + 2
    j = np.arange(-n, n + 1, dtype=float)
    st = step[idx][:, None, None]
    v = (np.mod(phase[:, None, None], st) + st * j) + motif[idx][:, :, None]
    x = u[:, None, None] + shear * v
    keep = (np.abs(x) <= bu) & (np.abs(v) <= bv)
    return np.stack([x[keep], v[keep]], axis=1)


def _chains_six_four(w: float, f_six: float, strip_width: int, extent: int):
    """Chains along (-2w, 2) with cyclic x-gaps: 2 in six strips, 4w in four strips."""
    m6, m4, q = _blocks(f_six, 1, 1)
    s = max(1, round(strip_width / max(q, 1)))
    word = [(2.0, 0.0, 2.0, (0.0,))] * (m6 * s) + [(4.0 * w, 0.0, 2.0, (0.0,))] * (m4 * s)
    period = sum(letter[0] for letter in word)
    kmax = int(np.ceil(extent / 2.0)) + 1
    xspan = extent + 2.0 * w * kmax + period
    x0 = -int(np.ceil(xspan / period)) * period
    return _strips(word, 0, x0, xspan, (extent + 1e-9, 2.0 * kmax), shear=-w)


def _columns_six_four_square(f_six: float, strip_width: int, extent: int):
    """w = 1 variant: vertical columns x = 2c; dense columns (spacing 2) have
    alternating parity and odd run length, sparse columns (spacing 4) alternate
    offsets 0 and 2, so every seam joins even-parity columns."""
    fr = Fraction(float(f_six)).limit_denominator(24)
    p, q = fr.numerator, fr.denominator
    # D dense and S sparse columns hold the fraction p/q of the centers when
    # p S = 2 D (q - p); the least D is p / gcd(p, 2 (q - p)), and runs need it odd
    D = p // gcd(p, 2 * (q - p))
    if p == q:
        # the fraction rounds to 1: dense columns only, whose parities must
        # alternate around the period, so an even run of them
        D, S = 2, 0
    elif D % 2 == 1 and D < 17:
        S = 2 * D * (q - p) // p
    else:
        D = 1
        S = max(1, round(2 * (1 - float(f_six)) / max(float(f_six), 1e-9)))
    s = max(1, round(strip_width / (D + S)))
    if s % 2 == 0:
        s += 1
    word = ([(2.0, 0.0, 2.0, (float(r % 2),)) for r in range(D * s)]
            + [(2.0, 0.0, 4.0, (2.0 * (r % 2),)) for r in range(S * s)])
    ncols = int(np.ceil(extent / 2.0)) + 1
    return _strips(word, -ncols % len(word), -2.0 * ncols, 2.0 * ncols,
                   (2.0 * ncols, extent + 1e-9))


def _rows_six_honey(w: float, f_six: float, strip_width: int, extent: int):
    """Rows at y = 2r: six rows are x-grids of step 2 drifting by -2w per row,
    honeycomb rows are dimers {psi, psi+2} with x-period 2P, P = 2 + 2w,
    drifting by +P.  Strip seams start the new phase at +1, the
    maximal-contact alignment (at w = 1/2 each honeycomb point then touches
    two six-row points, which is what makes the mix exact there)."""
    m6, mh, _ = _blocks(f_six, 2, 3)
    s = max(1, round(strip_width / max(m6 + mh, 1)))
    P = 2.0 + 2.0 * w
    kinds = ["six"] * (m6 * s) + ["honey"] * (mh * s)
    word = []
    for kind, nxt in zip(kinds, kinds[1:] + kinds[:1]):
        shift = 1.0 if nxt != kind else (-2.0 * w if kind == "six" else P)
        word.append((2.0, shift, 2.0, (0.0,)) if kind == "six"
                    else (2.0, shift, 2.0 * P, (0.0, 2.0)))
    nrows = int(np.ceil(extent / 2.0)) + 1
    # the phase is a running sum: start at phase 0 on a row far below the window
    r0 = -nrows - len(word) - 1
    rows = _strips(word, r0 % len(word), 2.0 * r0, 2.0 * nrows, (extent + 1e-9, extent + 1e-9))
    return rows[:, ::-1]  # u is y here


def _columns_four_honey(w: float, f_four: float, strip_width: int, extent: int):
    """Columns with y-step 4; x-gaps 2w inside four strips and a [2, 2w] pair
    pattern in honeycomb strips.  Phases are forced: +2 across every 2w gap
    (overlap otherwise when w < 1), equal across every 2 gap (that contact
    is the honeycomb edge)."""
    a, b, q = _blocks(f_four, 2, 1)
    s = max(1, round(strip_width / max(q, 1)))
    word = ([(2.0 * w, 2.0, 4.0, (0.0,))] * (a * s)
            + [(2.0, 0.0, 4.0, (0.0,)), (2.0 * w, 2.0, 4.0, (0.0,))] * (b * s))
    period = sum(letter[0] for letter in word)
    x0 = -np.ceil((extent + period) / period) * period
    return _strips(word, 0, x0, extent + period, (extent + 1e-9, extent + 1e-9))


_PURE = {"six": six_neighbour_lattice, "four": four_neighbour_lattice, "honeycomb": three_neighbour_honeycomb}


def mixed_strip_packing(
    d: ConvexDisc,
    packA: str,
    packB: str,
    fractionA: float,
    strip_width: int = 16,
    extent: int = 60,
) -> Packing:
    """Alternating strips of two constituent packings of an equality hexagon.

    fractionA is the fraction of centers carried by packA strips, so the
    measured mean degree tends to fractionA*lambda_A + (1-fractionA)*lambda_B.
    The construction lives in the canonical hexagon frame and is mapped to
    the given disc; a non-hexagon disc gets a warning and a best-effort
    frame.  Two pairs are refused with PackingInvalidError where their
    mean degree would come out wrong: six+honeycomb in a square frame
    (w within TOUCH_EPS / 4 of 1), and any pair with four strips at w = 1/2
    (d0p = 3/4), where a four strip's centers 4w apart touch and the strip
    is six-neighbour.
    """
    for g in (packA, packB):
        if g not in _PURE:
            raise GeometryError(f"unknown generator id {g!r}")
    f = float(fractionA)
    if not (0.0 <= f <= 1.0):
        raise BoundsRangeError(f"fractionA {f} outside [0, 1]")
    if not 1 <= strip_width <= MAX_STRIP_WIDTH:
        raise BoundsRangeError(f"strip_width {strip_width} outside [1, {MAX_STRIP_WIDTH}]")
    _check_extent(extent)
    if packA == packB or f >= 1.0 - 1e-9:
        return _PURE[packA](d, extent=max(extent // 2, 8))
    if f <= 1e-9:
        return _PURE[packB](d, extent=max(extent // 2, 8))

    frame = _theorem_frame(d)
    if frame is None:
        warnings.warn(
            "mixed strips are calibrated for the equality hexagon family; "
            "using a best-effort frame for this disc",
            stacklevel=2,
        )
        M, w = _fallback_frame(d)
    else:
        M, w = frame

    lam = {"six": 6.0, "four": 4.0, "honeycomb": 3.0}
    pair = {packA, packB}
    # the first strip kind of a pair is the one with more neighbours
    f_first = f if lam[packA] > lam[packB] else 1.0 - f
    # the w < 1 designs keep (4 - 2w, 2) at gauge 6 - 4w, off the touch
    # gauge 2 unless w is within TOUCH_EPS / 4 of 1: such frames are square
    square = 4.0 * (1.0 - w) <= TOUCH_EPS
    if pair == {"six", "honeycomb"} and square:
        raise PackingInvalidError(
            "six-neighbour and honeycomb strips have incompatible row spacings "
            "on the degenerate (square) hexagon"
        )
    if "four" in pair and 4.0 * w <= 2.0 + TOUCH_EPS:
        raise PackingInvalidError(
            f"four-neighbour strips touch across their 4w = {4.0 * w:.9g} gap, so at "
            "w = 1/2 they are six-neighbour strips"
        )
    if pair == {"six", "four"}:
        if square:
            centers = _columns_six_four_square(f_first, strip_width, extent)
        else:
            centers = _chains_six_four(w, f_first, strip_width, extent)
    elif "six" in pair:
        centers = _rows_six_honey(w, f_first, strip_width, extent)
    else:
        centers = _columns_four_honey(w, f_first, strip_width, extent)
    if len(centers) == 0:
        raise BoundsRangeError(f"extent {extent} holds no center of the {packA}+{packB} strips")

    mapped = centers @ M.T
    scale = 1.0
    if frame is None:
        # best-effort frame gives no touch guarantees; dilate to validity
        pairs = _close_pairs(mapped, _contact_cutoff(d))
        if len(pairs):
            gmin = float(d.gauge_many(mapped[pairs[:, 0]] - mapped[pairs[:, 1]]).min())
            if gmin < 2.0:
                scale = 2.0 * (1.0 + 1e-9) / gmin
                mapped = mapped * scale
    smin = float(np.linalg.svd(M, compute_uv=False)[-1]) * scale
    target = f * lam[packA] + (1.0 - f) * lam[packB]
    gen = {
        "kind": "mixed",
        "packA": packA,
        "packB": packB,
        "fractionA": f,
        "strip_width": int(strip_width),
        "extent": int(extent),
        "frame": [[float(M[0, 0]), float(M[0, 1])], [float(M[1, 0]), float(M[1, 1])]],
        "w": float(w),
        "target_lambda": float(target),
        "covered_radius": max(0.0, (extent - 8.0) * smin),
    }
    return Packing(disc=d, centers=mapped, generator=gen)


# ---------------------------------------------------------------------------
# subdivision


def _crossing_pairs(centers: np.ndarray, edges: np.ndarray, reach: float | None = None) -> int:
    """Count proper crossings between edges not sharing an endpoint.

    Only edge pairs whose midpoints lie within Euclidean distance reach of
    each other are tested.  Two crossing segments have midpoints within
    half their summed lengths of each other, so the default, the longest
    edge, finds every crossing pair of any segments; build_subdivision
    passes the far smaller _touch_crossing_reach.
    """
    if len(edges) == 0:
        return 0
    start, end = centers[edges[:, 0]], centers[edges[:, 1]]
    vec = end - start
    if reach is None:
        reach = float(np.hypot(vec[:, 0], vec[:, 1]).max()) * (1.0 + 1e-9)
    pairs = _close_pairs(0.5 * (start + end), reach)
    e1, e2 = edges[pairs[:, 0]], edges[pairs[:, 1]]
    share = (
        (e1[:, 0] == e2[:, 0])
        | (e1[:, 0] == e2[:, 1])
        | (e1[:, 1] == e2[:, 0])
        | (e1[:, 1] == e2[:, 1])
    )
    I, J = pairs[~share, 0], pairs[~share, 1]
    a, b, c, dd = start[I], end[I], start[J], end[J]

    def orient(p, q, r):
        return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])

    # an orientation scales as length^2, so the product of two as length^4
    eps = 1e-12 * np.abs(vec).max() ** 4
    o1 = orient(a, b, c)
    o2 = orient(a, b, dd)
    o3 = orient(c, dd, a)
    o4 = orient(c, dd, b)
    proper = (o1 * o2 < -eps) & (o3 * o4 < -eps)
    return int(np.count_nonzero(proper))


def _touch_crossing_reach(p: Packing) -> float:
    """Midpoint distance within which two touch edges of a valid packing must lie to cross.

    In a valid packing every center pair has gauge at least 2 - eps and
    every touch edge gauge within eps of 2 (eps = p.touch_eps).  Let touch
    edges (i, j) and (k, l), with no shared endpoint, cross at
    x = c_i + s (c_j - c_i) = c_k + t (c_l - c_k), labelled so that
    s, t <= 1/2.  Then
        2 - eps <= ||c_i - c_k|| <= ||c_i - x|| + ||x - c_k|| <= (s + t)(2 + eps),
    so s + t >= (2 - eps)/(2 + eps) >= 1 - eps and s, t >= 1/2 - eps.  Each
    midpoint is then within gauge distance (1/2 - s)(2 + eps) <= eps (2 + eps)
    of x, so the midpoints are within gauge distance 2 eps (2 + eps) of each
    other: Euclidean distance (4 eps + 2 eps^2) R_out, where R_out, the
    largest vertex norm, is half the disc's diameter.  The reach is twice
    that, as a margin: (4 eps + 2 eps^2) times the diameter.
    """
    eps = p.touch_eps
    return (4.0 * eps + 2.0 * eps * eps) * p.disc.diameter


def _face_cycles(nxt: np.ndarray):
    """The cycles of the half-edge permutation nxt, one per face.

    Returns (label, seq, offsets): the face of each half-edge, the
    half-edges listed face by face (faces in order of their smallest
    half-edge, each from that half-edge on, following nxt), and where each
    face starts in seq, plus the total.

    One doubling pass: after k rounds low[h] is the smallest half-edge among
    h and its next 2^k - 1 successors and dist[h] the number of steps from h
    to it.  The pass stops in the first round that changes no low, that is
    when low[h] <= low[jump[h]] for every h, jump being the 2^k-th
    successor.  Then low is nondecreasing along each orbit of jump, which
    is a cycle, so it is constant there; the windows of length 2^k starting
    on one such orbit cover the whole face, so that constant is the face's
    smallest half-edge.
    """
    nd = len(nxt)
    low = np.arange(nd)
    dist = np.zeros(nd, dtype=np.int64)
    jump, step = nxt, 1
    while True:
        ahead = low[jump]
        moved = np.flatnonzero(ahead < low)
        if len(moved) == 0:
            break
        low[moved] = ahead[moved]
        dist[moved] = step + dist[jump[moved]]
        jump, step = jump[jump], 2 * step
    del ahead, jump  # each array here is one int64 per half-edge: keep few alive
    first = low == np.arange(nd)
    label = (np.cumsum(first) - 1)[low]
    sides = np.bincount(label, minlength=int(np.count_nonzero(first)))
    offsets = np.concatenate([[0], np.cumsum(sides)])
    # dist becomes each half-edge's place in seq: (sides - dist) mod sides
    # steps after its face's first half-edge
    size = sides[label]
    np.subtract(size, dist, out=dist)
    dist %= size
    dist += offsets[label]
    seq = np.empty(nd, dtype=np.int64)
    seq[dist] = np.arange(nd)
    return label, seq, offsets


def build_subdivision(p: Packing) -> Subdivision:
    """Faces of the straight-line graph on centers with touch edges.

    Faces come from the rotation system: at each vertex the neighbours are
    sorted by angle and face traversal turns to the next edge clockwise
    from the reversed one, which walks every bounded face counterclockwise.
    Boundary flags mark the outer face and faces reaching near the edge of
    the generated region.
    """
    cache_key = ("subdivision", None)  # the key bench/tracing.py reads
    if cache_key in p._cache:
        return p._cache[cache_key]
    edges = neighbour_graph(p).edges
    pts = p.centers
    rad = np.hypot(*(pts - pts.mean(axis=0)).T)
    ncross = _crossing_pairs(pts, edges, _touch_crossing_reach(p))
    if ncross:
        raise PackingInvalidError(f"{ncross} crossing touch-edge pairs in the subdivision")

    nv = len(pts)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    nd = len(src)
    vec = pts[dst] - pts[src]
    ang = np.arctan2(vec[:, 1], vec[:, 0])
    # ring of outgoing half-edges per vertex, sorted by angle
    order = np.lexsort((ang, src))
    ring_start = np.searchsorted(src[order], np.arange(nv + 1))
    pos_in_ring = np.empty(nd, dtype=np.int64)
    pos_in_ring[order] = np.arange(nd) - ring_start[src[order]]
    half = nd // 2
    twin = np.concatenate([np.arange(half, nd), np.arange(0, half)])
    degv = ring_start[1:] - ring_start[:-1]
    tv = src[twin]
    k = pos_in_ring[twin]
    nxt = order[ring_start[tv] + (k - 1) % np.maximum(degv[tv], 1)]

    label, seq, offsets = _face_cycles(nxt)
    nf = len(offsets) - 1
    # shoelace sums, one src x (dst - src) term per half-edge
    shoelace = pts[src, 0] * vec[:, 1] - pts[src, 1] * vec[:, 0]
    signed = 0.5 * np.bincount(label, weights=shoelace, minlength=nf)
    corner = src[seq]
    max_radius = np.maximum.reduceat(rad[corner], offsets[:-1]) if nf else np.empty(0)
    reach = float(rad.max()) - 3.0 * p.disc.diameter
    outerish = signed <= 1e-12 * p.disc.diameter**2
    polys = pts[corner]
    cuts = offsets.tolist()
    sub = Subdivision(
        faces=[polys[a:b] for a, b in zip(cuts[:-1], cuts[1:])],
        sides=np.diff(offsets),
        areas=np.abs(signed),
        boundary=outerish | (max_radius > reach),
        vertex_count=nv,
        disc=p.disc,
        max_radius=max_radius,
    )
    p._cache[cache_key] = sub
    return sub


def check_proposition(s: Subdivision):
    """True iff every interior cell has at most six sides; lists offenders."""
    if s.disc.is_parallelogram:
        warnings.warn(
            "cell-count statement excludes parallelogram discs; result is informational",
            stacklevel=2,
        )
    interior = ~s.boundary
    bad = np.nonzero(interior & (s.sides > 6))[0]
    return len(bad) == 0, [int(b) for b in bad]


def measure_stats(p: Packing, R: float) -> PackingStats:
    """Window statistics around the centroid of the generated centers."""
    R = float(R)
    if not (R > 0.0 and np.pi * R * R > 0.0):
        raise BoundsRangeError(f"window radius {R} must be positive, with a window area above 0")
    centers = p.centers
    c0 = centers.mean(axis=0)
    rad = np.hypot(*(centers - c0).T)
    covered = None
    if p.generator is not None:
        covered = p.generator.get("covered_radius")
    if covered is None:
        covered = float(rad.max())
    if R > covered * (1.0 + 1e-9):
        raise BoundsRangeError(
            f"window radius {R} exceeds the generated extent (covered {covered:.4g})"
        )
    g = neighbour_graph(p)
    inwin = rad <= R
    nwin = int(np.count_nonzero(inwin))
    if nwin == 0:
        raise BoundsRangeError("window contains no centers")
    lam_hat = float(g.degrees[inwin].mean())
    dens_hat = nwin * p.disc.area / (np.pi * R * R)
    sub = build_subdivision(p)
    kept = sub.sides[~sub.boundary & (sub.max_radius <= R)]
    nfaces = len(kept)
    avg_sides = float(kept.mean()) if nfaces else float("nan")
    ratio = nwin / nfaces if nfaces else float("nan")
    return PackingStats(
        window_radius=R,
        lambda_hat=lam_hat,
        density_hat=float(dens_hat),
        avg_sides_hat=avg_sides,
        vertex_face_ratio_hat=float(ratio),
    )


# ---------------------------------------------------------------------------
# files


def save_packing(p: Packing, path: str) -> None:
    doc = {"disc": disc_to_dict(p.disc), "centers": p.centers.tolist()}
    if p.generator is not None:
        doc["generator"] = p.generator
    text = json.dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_packing(path: str) -> Packing:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GeometryError(f"cannot read packing file: {exc}") from exc
    if not isinstance(doc, dict) or "disc" not in doc or "centers" not in doc:
        raise GeometryError("packing file needs an object with 'disc' and 'centers'")
    gen = doc.get("generator")
    if gen is not None and not isinstance(gen, dict):
        raise GeometryError("packing file 'generator' must be an object")
    covered = (gen or {}).get("covered_radius")
    if covered is not None and (isinstance(covered, bool) or not isinstance(covered, (int, float))):
        raise GeometryError("packing file 'covered_radius' must be a number")
    return Packing(disc=disc_from_dict(doc["disc"]), centers=doc["centers"], generator=gen)
