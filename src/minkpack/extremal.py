"""Extremal areas of unit-sided polygons in a polygonal gauge.

The triangle and pentagon optima are found exactly.  A triangle optimum
has each side either at a vertex of the unit ball or interior to an edge
with the closing constraint active, so enumerating (edge, edge, closing
edge) triples and solving the linear constraint covers the global
maximum including flat (tied) families; the triples are solved as whole
arrays, a bounded batch of closing edges at a time.  Every candidate list
(triangles, parallelograms, hexagons, pentagons) is deduplicated by one
batched key, _first_unique, which keeps the first of equal side sets in
search order, the order the lattice generators break ties by.  A
pentagon is a nondecreasing 5-tuple of edges, one side per edge; its
area is a quadratic on the polytope of closing side parameters, and the
optimum is a stationary point of one of the polytope's faces, which are
solved in closed form (see the pentagon section below).  Even-k optima
are attained at vertex/midpoint anchors by convexity of the area in each
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .bounds import BoundsRangeError
from .geometry import (
    ConvexDisc,
    GeometryError,
    cross_many,
    is_simple_polygon,
    signed_area,
)

_REL = 1e-9


# ---------------------------------------------------------------------------
# unit-sided polygons


def convex_from_sides(sides: np.ndarray) -> np.ndarray:
    """Vertices of the convex polygon with the given side multiset (angle sort)."""
    sides = np.asarray(sides, dtype=float)
    if np.max(np.abs(sides.sum(axis=0))) > 1e-7 * np.abs(sides).max():
        raise GeometryError("side vectors do not close up")
    order = np.argsort(np.arctan2(sides[:, 1], sides[:, 0]), kind="stable")
    verts = np.cumsum(sides[order], axis=0)
    return np.vstack([verts[-1:], verts[:-1]])


def sorted_sides_area(sides: np.ndarray) -> np.ndarray:
    """Area of the angle-sorted polygon for each (k, 2) side set in a batch."""
    sides = np.asarray(sides, dtype=float)
    single = sides.ndim == 2
    if single:
        sides = sides[None]
    ang = np.arctan2(sides[..., 1], sides[..., 0])
    order = np.argsort(ang, axis=1, kind="stable")
    srt = np.take_along_axis(sides, order[..., None], axis=1)
    v = np.cumsum(srt, axis=1)
    x, y = v[..., 0], v[..., 1]
    a = 0.5 * np.abs(np.sum(x * np.roll(y, -1, axis=1) - y * np.roll(x, -1, axis=1), axis=1))
    return float(a[0]) if single else a


@dataclass(frozen=True)
class UnitSidedPolygon:
    """Closed polygon whose every side has gauge norm 1 in the given disc."""

    vertices: np.ndarray
    disc: ConvexDisc

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise GeometryError("polygon needs at least 3 plane vertices")
        object.__setattr__(self, "vertices", v)
        s = self.sides
        worst = np.max(np.abs(self.disc.gauge_many(s) - 1.0))
        if worst > 1e-6:
            raise GeometryError(f"side gauge deviates from 1 by {worst:.2e}")

    @property
    def sides(self) -> np.ndarray:
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    @property
    def k(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> float:
        return abs(signed_area(self.vertices))


def polygon_from_sides(disc: ConvexDisc, sides, origin=(0.0, 0.0)) -> UnitSidedPolygon:
    sides = np.asarray(sides, dtype=float)
    verts = np.asarray(origin, dtype=float) + np.vstack([[0.0, 0.0], np.cumsum(sides, axis=0)[:-1]])
    return UnitSidedPolygon(vertices=verts, disc=disc)


def _is_convex_closed(verts: np.ndarray, eps: float) -> bool:
    s = np.roll(verts, -1, axis=0) - verts
    cr = cross_many(s, np.roll(s, -1, axis=0))
    return bool(np.all(cr >= -eps) or np.all(cr <= eps))


def convexify_flips(p: UnitSidedPolygon) -> UnitSidedPolygon:
    """Convexify by reflecting boundary arcs through supporting-chord midpoints.

    Each step picks a chord whose line supports the whole polygon, and
    point-reflects one arc through the chord midpoint; side vectors are
    preserved as a multiset and the area strictly grows.  The angle-sorted
    polygon is the arbiter for the final area.
    """
    verts = np.array(p.vertices, dtype=float)
    k = len(verts)
    scale = float(np.abs(verts).max()) + 1.0
    eps = 1e-12 * scale * scale
    if not is_simple_polygon(verts):
        raise GeometryError("flip procedure needs a simple (non-self-intersecting) polygon")
    if _is_convex_closed(verts, eps):
        return p
    target = sorted_sides_area(p.sides)
    cap = min(100_000, math.factorial(max(k - 1, 1)))
    steps = 0
    while not _is_convex_closed(verts, eps) and steps < cap:
        area0 = abs(signed_area(verts))
        best_gain, best_verts = 0.0, None
        for i in range(k):
            for j in range(i + 1, k):
                chord = verts[j] - verts[i]
                rel = verts - verts[i]
                side = rel[:, 0] * chord[1] - rel[:, 1] * chord[0]
                if not (np.all(side >= -eps) or np.all(side <= eps)):
                    continue
                mid = 0.5 * (verts[i] + verts[j])
                for arc in ((i, j), (j, i)):
                    a, b = arc
                    idx = [(a + t) % k for t in range(1, (b - a) % k)]
                    if not idx or all(abs(side[t]) <= eps for t in idx):
                        continue
                    new = verts.copy()
                    new[idx] = 2.0 * mid - verts[idx[::-1]]
                    gain = abs(signed_area(new)) - area0
                    if gain > best_gain + eps:
                        best_gain, best_verts = gain, new
        if best_verts is None:
            break
        verts = best_verts
        steps += 1
    if abs(abs(signed_area(verts)) - target) > 1e-9 * max(1.0, target):
        raise GeometryError("flip procedure did not reach the angle-sorted area")
    return UnitSidedPolygon(vertices=verts, disc=p.disc)


def symmetrize_even(p: UnitSidedPolygon) -> UnitSidedPolygon:
    """Centrosymmetric unit-sided polygon with area >= the convex input's.

    Cuts along the diagonal from vertex 0 to vertex k/2, keeps the larger
    half, point-reflects it through the diagonal midpoint, and convexifies.
    """
    k = p.k
    if k % 2 != 0:
        raise GeometryError("symmetrization needs an even vertex count")
    verts = np.asarray(p.vertices, dtype=float)
    scale = float(np.abs(verts).max()) + 1.0
    if not _is_convex_closed(verts, 1e-12 * scale * scale):
        raise GeometryError("symmetrization needs a convex polygon")
    m = k // 2
    half1 = verts[: m + 1]
    half2 = np.vstack([verts[m:], verts[:1]])
    a1 = abs(signed_area(half1))
    a2 = abs(signed_area(half2))
    half = half1 if a1 >= a2 else half2
    c = half[0] + half[-1]
    glued = np.vstack([half, c - half[1:-1]])
    return convexify_flips(UnitSidedPolygon(vertices=glued, disc=p.disc))


# ---------------------------------------------------------------------------
# triangle optimum, exact


def _first_unique(sides: np.ndarray, scale: float) -> np.ndarray:
    """Indices of the first of each class of equal side sets in a (B, k, 2) batch, in order.

    Two side sets are equal when they agree, up to their order and one
    common sign, after rounding to 11 significant digits of scale.  Each
    set's key is the lexicographically smaller of +sides and -sides, each
    with its rows sorted.
    """
    digits = 11
    if scale > 0:
        digits = max(2, 11 - int(math.floor(math.log10(scale))))
    keys = []
    for sgn in (1.0, -1.0):
        r = np.round(sgn * sides, digits) + 0.0
        order = np.lexsort((r[..., 1], r[..., 0]), axis=-1)
        keys.append(np.take_along_axis(r, order[..., None], axis=1).reshape(len(r), 2 * r.shape[1]))
    pos, neg = keys
    rows = np.arange(len(pos))
    first = np.argmax(pos != neg, axis=1)  # where the two first differ
    key = np.where((neg[rows, first] < pos[rows, first])[:, None], neg, pos)
    return np.sort(np.unique(key, axis=0, return_index=True)[1])


def _clip_interval(p0, q, lo, hi):
    """Intersect [lo, hi] with {tau : p0 + q*tau in [0, 1]} elementwise; empty gives hi < lo."""
    safe = np.where(np.abs(q) <= 1e-14, 1.0, q)
    c1 = (0.0 - p0) / safe
    c2 = (1.0 - p0) / safe
    lin = np.abs(q) > 1e-14
    lo2 = np.where(lin, np.maximum(lo, np.minimum(c1, c2)), lo)
    hi2 = np.where(lin, np.minimum(hi, np.maximum(c1, c2)), hi)
    dead = (~lin) & ((p0 < -1e-12) | (p0 > 1.0 + 1e-12))
    return lo2, np.where(dead, lo2 - 1.0, hi2)


def _group_matvec(X: np.ndarray, e: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """X[:, t] . e_t, taken as one matrix-vector product per run of rows sharing e.

    X is (2, T, 2), two stacks of T rows that arrive in consecutive runs;
    rows[t] is the length of the run holding t, and e is constant on each run.
    """
    out = np.empty(X.shape[:2])
    for k in np.unique(rows):
        at = np.nonzero(rows == k)[0]
        out[:, at] = (X[:, at].reshape(2, -1, k, 2) @ e[at[::k], :, None]).reshape(2, -1)
    return out


_TRIPLE_CAP = 1 << 16  # (c, i, j) edge triples per batch of the triangle search


def _triangle_search(d: ConvexDisc):
    """Every candidate optimal triangle, as (best area, areas, first sides, second sides).

    Candidates come first with both first sides at vertices, then for each
    closing edge c, pivot edge i and edge j with |E_i . n_c| >= |E_j . n_c|
    (in C order over (c, i, j)): the first side on edge i, the second at
    s2 = V_j + tau E_j, and the closing side -(s1 + s2) on edge c.  The
    closing constraint makes s1 affine in tau, the area a quadratic in tau,
    and tau runs over an interval; the candidates are its two ends and the
    stationary point inside it (or its midpoint when the area is constant).
    The edge triples are batched about _TRIPLE_CAP at a time, so memory
    never grows with m^3.
    """
    V = d.vertices
    m = len(V)
    E = np.roll(V, -1, axis=0) - V
    N = d.normals
    scale = d.diameter
    areaeps = 1e-12 * scale * scale

    # both first sides at vertices; closing side must land on the boundary
    S = -(V[:, None, :] + V[None, :, :])
    G = d.gauge_many(S.reshape(-1, 2)).reshape(m, m)
    vi, vj = np.nonzero(np.abs(G - 1.0) <= 1e-9)
    first, second = [V[vi]], [V[vj]]

    # sides interior to edges i and j, closing side on edge c.  Each product
    # is taken by the BLAS call the per-edge form makes (a matrix-vector
    # product per closing edge, a 1-d dot per pivot edge), so every candidate,
    # and every lattice built on one, keeps its last bits.
    B = (E @ N[:, :, None])[..., 0].T  # B[k, c] = E_k . n_c
    W = (V @ N[:, :, None])[..., 0].T  # W[k, c] = V_k . n_c
    Wi = (V[:, None, None] @ N[:, :, None])[..., 0, 0]  # the same, as 1-d dots
    ecn = (E * E).sum(axis=1)
    step = max(1, _TRIPLE_CAP // (m * m))
    for c0 in range(0, m, step):
        b = np.abs(B[:, c0:c0 + step].T)  # b[c - c0, k] = |E_k . n_c|
        mask = (b[:, :, None] >= b[:, None, :]) & (b[:, :, None] > 1e-14)
        c, i, j = np.nonzero(mask)
        rows = mask.sum(axis=2)[c, i]  # edges j sharing the triple's (c, i)
        c += c0
        a = B[i, c]
        alpha = ((-1.0 - W[j, c]) - Wi[i, c]) / a
        beta = -B[j, c] / a
        lo, hi = _clip_interval(alpha, beta, np.zeros(len(a)), np.ones(len(a)))
        P0 = V[i] + alpha[:, None] * E[i]
        S0 = -(P0 + V[j])
        S1 = -(beta[:, None] * E[i] + E[j])
        rho0, rho1 = _group_matvec(np.stack([S0 - V[c], S1]), E[c], rows) / ecn[c]
        lo, hi = _clip_interval(rho0, rho1, lo, hi)
        q1 = cross_many(P0, E[j]) + beta * cross_many(E[i], V[j])
        q2 = beta * cross_many(E[i], E[j])
        curved = np.abs(q2) > areaeps
        st = -q1 / (2.0 * np.where(curved, q2, 1.0))
        third = np.where(curved, (lo < st) & (st < hi), np.abs(q1) <= areaeps)
        live = lo <= hi + 1e-12
        t, slot = np.nonzero(np.stack([live, live, live & third], axis=1))
        tau = np.stack([lo, hi, np.where(curved, st, 0.5 * (lo + hi))], 1)[t, slot]
        u = alpha[t] + beta[t] * tau
        first.append(V[i[t]] + u[:, None] * E[i[t]])
        second.append(V[j[t]] + tau[:, None] * E[j[t]])

    s1, s2 = np.concatenate(first), np.concatenate(second)
    areas = 0.5 * np.abs(cross_many(s1, s2))
    best = float(areas.max()) if len(areas) else 0.0
    return best, areas, s1, s2


def max_triangle_optimum(d: ConvexDisc) -> tuple[float, list[np.ndarray]]:
    """delta and the optimal side triples (ties within _REL), deduplicated, in search order.

    One search for both, for callers that need delta and a witness.
    """
    best, areas, s1, s2 = _triangle_search(d)
    near = areas >= best * (1.0 - _REL)
    sides = np.stack([s1[near], s2[near], -(s1[near] + s2[near])], axis=1)
    return best, list(sides[_first_unique(sides, d.diameter)])


def max_triangle_area(d: ConvexDisc) -> float:
    """Largest area of a triangle with unit sides (exact piecewise enumeration)."""
    if not isinstance(d, ConvexDisc):
        raise GeometryError("max_triangle_area expects a ConvexDisc")
    return _triangle_search(d)[0]


def max_triangle_candidates(d: ConvexDisc) -> list[np.ndarray]:
    """All optimal side triples (ties within 1e-9 relative), deduplicated."""
    return max_triangle_optimum(d)[1]


# ---------------------------------------------------------------------------
# even k: anchor scans (vertices and edge midpoints)


def _anchors(d: ConvexDisc) -> np.ndarray:
    V = d.vertices
    return np.vstack([V, 0.5 * (V + np.roll(V, -1, axis=0))])


def _sign_canon(v: np.ndarray) -> np.ndarray:
    """Each (..., 2) vector or its negation, whichever has x > 0, or x = 0 and y >= 0."""
    flip = (v[..., 0] < 0) | ((v[..., 0] == 0) & (v[..., 1] < 0))
    return np.where(flip[..., None], -v, v)


def _parallelogram_scan(d: ConvexDisc):
    P = _anchors(d)
    C = np.abs(np.outer(P[:, 0], P[:, 1]) - np.outer(P[:, 1], P[:, 0]))
    best = float(C.max())
    i, j = np.nonzero(np.triu(C >= best * (1.0 - _REL), 1))
    sides = _sign_canon(np.stack([P[i], P[j]], axis=1))
    return best, list(sides[_first_unique(sides, d.diameter)])


def _hexagon_scan(d: ConvexDisc):
    """F6 over anchor triples i <= j <= k, and the first 64 distinct optimal triples."""
    P = _anchors(d)
    n = len(P)
    C = np.abs(np.outer(P[:, 0], P[:, 1]) - np.outer(P[:, 1], P[:, 0]))

    def tot(i):  # tot(i)[j, k]: area of the hexagon with sides +-P_i, +-P_j, +-P_k
        return C[i][:, None] + C[i][None, :] + C

    top = np.array([tot(i).max() for i in range(n)])
    best = float(top.max())
    thr = best * (1.0 - _REL)
    trip = []
    for i in np.nonzero(top >= thr)[0]:
        j, k = np.nonzero(np.triu(tot(i) >= thr))
        keep = j >= i
        trip.append(np.stack([np.full(int(keep.sum()), i), j[keep], k[keep]], axis=1))
    sides = _sign_canon(P[np.concatenate(trip)])
    return best, list(sides[_first_unique(sides, d.diameter)[:64]])


def max_parallelogram_candidates(d: ConvexDisc) -> list[np.ndarray]:
    return _parallelogram_scan(d)[1]


def max_hexagon_candidates(d: ConvexDisc) -> list[np.ndarray]:
    return _hexagon_scan(d)[1]


# ---------------------------------------------------------------------------
# pentagon optimum, exact
#
# Side i lies on edge e_i of the disc: s_i = V[e_i] + t_i E[e_i], t_i in [0, 1].
# Edge order is angular order, so labelling the sides by nondecreasing edge
# gives their angular order, and the area is the label-order sum
#     Q(t) = 1/2 sum_{i<j} cross(s_i, s_j),
# a quadratic in t over the polytope {t in [0, 1]^5 : sum s_i = 0}.  Q never
# exceeds the area of the angle-sorted polygon and equals it when the labels
# are in angular order, so the optimum pentagon maximizes Q on the polytope
# of its own edge multiset.  That maximum is a stationary point of Q on some
# face (the free sides inside their edges, the others at t = 0 or 1).  A face
# whose reduced Hessian is singular (a repeated edge, parallel free edges)
# is skipped: Q is constant along its stationary set, which therefore meets
# a lower face with the same value.  Faces with fewer than two free sides
# need no solve: their points are also the solutions of a two-free face
# whose free edges are not parallel.

_CHUNK = 1024  # multisets per face batch
_JOIN_CAP = 1 << 16  # pair/triple candidates expanded at a time


def _zonotope_closes(d: ConvexDisc, T: np.ndarray) -> np.ndarray:
    """Rows of edge tuples T whose edge segments can sum to zero.

    The sum of the segments is a zonotope whose edge normals are the disc
    normals of its generators; 0 lies in it exactly when no such normal
    separates the two (five sides all on parallel edges fail along that
    normal, since they cannot split evenly between the two edge lines).
    mid[u, e] and half[u, e] are the midpoint and half width of edge e seen
    along normal u.
    """
    V, N = d.vertices, d.normals
    E = np.roll(V, -1, axis=0) - V
    mid, half = N @ (V + 0.5 * E).T, 0.5 * np.abs(N @ E.T)
    ok = np.ones(len(T), dtype=bool)
    for u in T.T:
        ok &= np.abs(sum(mid[u, e] for e in T.T)) <= sum(half[u, e] for e in T.T) + 1e-9
    return ok


def _closing_multisets(d: ConvexDisc) -> np.ndarray:
    """Nondecreasing edge 5-tuples whose segments can close a pentagon.

    Each tuple splits once into a pair (a <= b) and a triple (c <= d <= e)
    with b <= c.  A sum of segments lies within the sum of their half
    lengths of the sum of their midpoints, so a closing tuple has pair and
    triple midpoint sums within rp + rt of each other's negation.  Pairs are
    hashed on a grid of cells no smaller than that, and each triple looks in
    the 3 x 3 cells around its negated midpoint sum; the survivors get the
    exact zonotope test.  Candidates are expanded about _JOIN_CAP at a
    time, so memory never grows with C(n + 4, 5).
    """
    V = d.vertices
    n = len(V)
    E = np.roll(V, -1, axis=0) - V
    mid = V + 0.5 * E
    half = 0.5 * np.hypot(E[:, 0], E[:, 1])
    P, T3 = (np.array(list(combinations_with_replacement(range(n), k))) for k in (2, 3))
    cp, rp = mid[P].sum(axis=1), half[P].sum(axis=1)
    ct, rt = mid[T3].sum(axis=1), half[T3].sum(axis=1)
    tol = 1e-9 * d.diameter
    h = float(rp.max() + rt.max()) + tol
    row = 1 << 21  # cell key = (ix + 2^20) * 2^21 + (iy + 2^20)

    def cell(pts):
        c = np.floor(pts / h).astype(np.int64) + (1 << 20)
        return c[:, 0] * row + c[:, 1]

    # pairs sorted by (cell, b): in each cell those with b <= c form a prefix
    key = cell(cp) * (n + 1) + P[:, 1]
    order = np.argsort(key, kind="stable")
    key, P, cp, rp = key[order], P[order], cp[order], rp[order]
    nbr = np.array([dx * row + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
    out = [np.zeros((0, 5), dtype=np.int64)]
    for t0 in range(0, len(T3), 4096):
        ti = np.arange(t0, min(t0 + 4096, len(T3)))
        cells = ((cell(-ct[ti])[:, None] + nbr) * (n + 1)).ravel()
        lo = np.searchsorted(key, cells, side="left")
        cnt = np.searchsorted(key, cells + np.repeat(T3[ti, 0], 9), side="right") - lo
        owner = np.repeat(ti, 9)
        csum = np.cumsum(cnt)
        cuts = np.searchsorted(csum, np.arange(_JOIN_CAP, int(csum[-1]), _JOIN_CAP), side="right")
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(cnt)]):
            c = cnt[a:b]
            pi = np.arange(int(c.sum())) - np.repeat(np.cumsum(c) - c - lo[a:b], c)
            tj = np.repeat(owner[a:b], c)
            near = np.hypot(*(cp[pi] + ct[tj]).T) <= rp[pi] + rt[tj] + tol
            cand = np.concatenate([P[pi[near]], T3[tj[near]]], axis=1)
            out.append(cand[_zonotope_closes(d, cand)])
    return np.concatenate(out)


def _face_table():
    """Per free set F of size 2..5: fixed sides, their 0/1 values, pivot pairs, the rest."""
    faces = []
    for f in range(2, 6):
        for F in combinations(range(5), f):
            fixed = [i for i in range(5) if i not in F]
            phi = np.array(list(product((0.0, 1.0), repeat=len(fixed))))
            pairs = list(combinations(F, 2))
            rest = np.array([[i for i in F if i not in pq] for pq in pairs], dtype=np.intp)
            faces.append((np.array(fixed, dtype=np.intp), phi, np.array(pairs, dtype=np.intp), rest))
    return faces


_FACES = _face_table()
_SIGN = np.sign(np.subtract.outer(np.arange(5), np.arange(5))).T  # sign(j - i)


def _inverse_small(M: np.ndarray):
    """Batched inverse and determinant of 1x1, 2x2 or 3x3 matrices, by cofactors."""
    k = M.shape[-1]
    if k == 1:
        det = M[..., 0, 0]
        adj = np.ones_like(M)
    elif k == 2:
        det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
        adj = np.stack([np.stack([M[..., 1, 1], -M[..., 0, 1]], -1),
                        np.stack([-M[..., 1, 0], M[..., 0, 0]], -1)], -2)
    else:
        r0, r1, r2 = M[..., 0, :], M[..., 1, :], M[..., 2, :]
        adj = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], -1)
        det = np.einsum("...i,...i->...", r0, adj[..., :, 0])
    safe = np.where(det == 0.0, 1.0, det)
    return adj / safe[..., None, None], det


def _face_solutions(Vs: np.ndarray, Es: np.ndarray):
    """Stationary points of Q on the faces of _FACES, in order, for a batch of multisets.

    Vs and Es are the (B, 5, 2) edge starts and vectors.  Yields, per face,
    t of shape (B, K, 5) for its K fixed assignments and a (B,) mask of the
    multisets on which the face is nonsingular.  Two free sides p, q (the
    pair furthest from parallel) absorb the closing constraint by Cramer's
    rule; each other free side spans one null-space direction, and Q on
    that null space is solved by cofactors.
    """
    B = len(Vs)
    rows = np.arange(B)
    C = cross_many(Es[:, :, None, :], Es[:, None, :, :])  # C[b, i, j] = cross(E_i, E_j)
    H = 0.5 * np.triu(C, 1)
    H = H + H.transpose(0, 2, 1)
    g = 0.5 * (cross_many(Es[:, :, None, :], Vs[:, None, :, :]) * _SIGN).sum(axis=-1)
    r = -Vs.sum(axis=1)
    elen = np.hypot(Es[..., 0], Es[..., 1])
    for fixed, phi, pairs, rest in _FACES:
        # pivot: the free pair whose edges are furthest from parallel
        pick = np.argmax(np.abs(C[:, pairs[:, 0], pairs[:, 1]]), axis=1)
        p, q, others = pairs[pick, 0], pairs[pick, 1], rest[pick]
        D = C[rows, p, q]
        good = np.abs(D) > 1e-12 * elen[rows, p] * elen[rows, q]
        D = np.where(good, D, 1.0)
        rr = r[:, None, :] - np.matmul(phi, Es[:, fixed])  # closing vector left for the free sides
        Ep, Eq = Es[rows, p][:, None], Es[rows, q][:, None]
        t = np.zeros((B, len(phi), 5))
        t[:, :, fixed] = phi
        t[rows, :, p] = cross_many(rr, Eq) / D[:, None]
        t[rows, :, q] = cross_many(Ep, rr) / D[:, None]
        k = others.shape[1]
        if k:
            # null-space basis: one other free side moves, p and q compensate
            Z = np.zeros((B, 5, k))
            Z[rows[:, None], others, np.arange(k)] = 1.0
            Z[rows, p, :] = -C[rows[:, None], others, q[:, None]] / D[:, None]
            Z[rows, q, :] = -C[rows[:, None], p[:, None], others] / D[:, None]
            M = Z.transpose(0, 2, 1) @ H @ Z
            Minv, det = _inverse_small(M)
            good &= np.abs(det) > 1e-12 * np.abs(M).max(axis=(1, 2)) ** k
            grad = t @ H + g[:, None, :]
            t = t - (grad @ Z) @ Minv @ Z.transpose(0, 2, 1)
        yield t, good


def _face_points(V: np.ndarray, E: np.ndarray, T: np.ndarray, scale: float):
    """Feasible stationary points of Q on every nonsingular face, as (area, sides).

    A point is kept when its t lies in the box within 1e-9, and the sides
    with t clipped to the box still close within 1e-12 * scale.
    """
    Vs, Es = V[T], E[T]
    for t, good in _face_solutions(Vs, Es):
        ok = good[:, None] & np.all((t >= -1e-9) & (t <= 1.0 + 1e-9), axis=-1)
        b, j = np.nonzero(ok)
        sides = Vs[b] + np.clip(t[b, j], 0.0, 1.0)[..., None] * Es[b]
        closed = np.abs(sides.sum(axis=1)).max(axis=1) <= 1e-12 * scale
        if closed.any():
            yield sorted_sides_area(sides[closed]), sides[closed]


def _area_bound(V: np.ndarray, E: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Upper bound on Q over the box: each bilinear term of Q at its best corner."""
    lo = V[T]
    hi = lo + E[T]
    ub = np.zeros(len(T))
    for i in range(5):
        for j in range(i + 1, 5):
            ub += 0.5 * np.max([cross_many(a[:, i], b[:, j]) for a in (lo, hi) for b in (lo, hi)],
                               axis=0)
    return ub


def _pentagon_optimum(d: ConvexDisc):
    """f5 and the side sets within _REL of it, by face enumeration.

    Multisets are visited by decreasing area bound and the scan stops once
    the bound falls below the best area found.
    """
    V = d.vertices
    E = np.roll(V, -1, axis=0) - V
    T = _closing_multisets(d)
    ub = _area_bound(V, E, T)
    order = np.argsort(-ub, kind="stable")
    T, ub = T[order], ub[order]
    best, areas, sides = 0.0, [np.zeros(0)], [np.zeros((0, 5, 2))]
    for lo in range(0, len(T), _CHUNK):
        if ub[lo] < best * (1.0 - _REL):
            break
        for a, s in _face_points(V, E, T[lo:lo + _CHUNK], d.diameter):
            best = max(best, float(a.max()))
            near = a >= best * (1.0 - _REL)
            areas.append(a[near])
            sides.append(s[near])
    areas, sides = np.concatenate(areas), np.concatenate(sides)
    return best, sides[areas >= best * (1.0 - _REL)]


def max_pentagon_candidates(d: ConvexDisc) -> list[np.ndarray]:
    """All optimal side sets (ties within 1e-9 relative), deduplicated, in angular order."""
    found = _pentagon_optimum(d)[1]
    found = found[_first_unique(found, d.diameter)]
    order = np.argsort(np.arctan2(found[..., 1], found[..., 0]), axis=1, kind="stable")
    return list(np.take_along_axis(found, order[..., None], axis=1))


# ---------------------------------------------------------------------------
# api


def max_kgon_area(d: ConvexDisc, k: int) -> float:
    """F_k: largest area of a convex unit-sided k-gon, k in 3..6."""
    if not isinstance(d, ConvexDisc):
        raise GeometryError("max_kgon_area expects a ConvexDisc")
    if k == 3:
        return max_triangle_area(d)
    if k == 4:
        return _parallelogram_scan(d)[0]
    if k == 6:
        return _hexagon_scan(d)[0]
    if k == 5:
        return _pentagon_optimum(d)[0]
    raise GeometryError(f"k-gon area defined for k in 3..6, got {k}")


@dataclass(frozen=True)
class ExtremalProfile:
    """All extremal quantities of one disc."""

    area: float
    delta: float
    f3: float
    f4: float
    f5: float
    f6: float
    d0p: float

    def __post_init__(self):
        if not (0.75 - 1e-6 <= self.d0p <= 1.0 + 1e-6):
            raise GeometryError(f"normalized lattice density {self.d0p} outside [3/4, 1]")


def d0p_of(area: float, delta: float) -> float:
    """Normalized lattice density d0p = A/(8*delta), the one number the bound sees of a disc."""
    return area / (8.0 * delta)


def hexagon_w(d0p: float) -> float:
    """Side:diagonal ratio w = 2*d0p - 1 of the equality hexagon, d0p clamped to [3/4, 1]."""
    return 2.0 * min(1.0, max(0.75, d0p)) - 1.0


def profile(d: ConvexDisc) -> ExtremalProfile:
    """Compute area, triangle optimum, k-gon optima and d0p = A/(8*delta)."""
    delta = max_triangle_area(d)
    f4 = max_kgon_area(d, 4)
    f5 = max_kgon_area(d, 5)
    f6 = max_kgon_area(d, 6)
    return ExtremalProfile(
        area=d.area,
        delta=delta,
        f3=delta,
        f4=f4,
        f5=f5,
        f6=f6,
        d0p=d0p_of(d.area, delta),
    )


def make_theorem_hexagon(d0p: float) -> ConvexDisc:
    """Canonical equality-case hexagon: vertices (+-1, 0), (+-w, +-1), w = 2*d0p - 1.

    The horizontal diagonal has length 2 and the two horizontal sides have
    length 2w, so the side:diagonal ratio is w.  At d0p = 1 the hexagon
    degenerates to the square [-1,1]^2 (the collinear vertices merge).
    """
    d0p = float(d0p)
    if not (0.75 - 1e-12 <= d0p <= 1.0 + 1e-12):
        raise BoundsRangeError(f"d0p {d0p} outside [3/4, 1]")
    w = hexagon_w(d0p)
    return ConvexDisc(
        [(1.0, 0.0), (w, 1.0), (-w, 1.0), (-1.0, 0.0), (-w, -1.0), (w, -1.0)]
    )
