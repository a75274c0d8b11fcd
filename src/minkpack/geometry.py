"""Convex polygon primitives and the gauge norm of a centrally symmetric disc.

The disc D acts as the unit ball of a norm: gauge(v) is the smallest
t >= 0 with v in t*D.  Translates c + D and c' + D have disjoint
interiors exactly when gauge(c - c') >= 2, so packings, touching pairs
and density measurements all reduce to gauge arithmetic on center
differences.  Discs are stored counterclockwise, centered at the origin,
with consecutive collinear vertices merged away.
"""

from __future__ import annotations

import json

import numpy as np

REL_TOL = 1e-9


class GeometryError(ValueError):
    """Input violates a geometric precondition."""


def _vertex_array(p, min_vertices: int = 3) -> np.ndarray:
    try:
        arr = np.atleast_2d(np.asarray(p, dtype=float))
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"vertex coordinates must be numbers: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"expected an (n, 2) vertex array, got shape {arr.shape}")
    if arr.shape[0] < min_vertices:
        raise GeometryError(f"need at least {min_vertices} vertices, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError("vertex coordinates must be finite")
    return arr


def cross(a, b) -> float:
    """z-component of the planar cross product a x b."""
    return float(a[0] * b[1] - a[1] * b[0])


def cross_many(a, b) -> np.ndarray:
    """Broadcast z-component of the planar cross product for (..., 2) arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def signed_area(vertices) -> float:
    """Shoelace sum, positive for counterclockwise boundaries."""
    v = np.asarray(vertices, dtype=float)
    x = v[:, 0]
    y = v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def polygon_area(p) -> float:
    """Unsigned polygon area, orientation independent."""
    return abs(signed_area(_vertex_array(p)))


def convex_hull(points) -> np.ndarray:
    """Counterclockwise convex hull with strict turns, by monotone chain."""
    pts = _vertex_array(points, min_vertices=1)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    pts = pts[keep]
    if len(pts) == 1:
        return pts.copy()
    scale = float(np.abs(pts).max())
    eps = REL_TOL * scale * scale

    def chain(seq):
        out: list[np.ndarray] = []
        for q in seq:
            while len(out) >= 2 and cross(out[-1] - out[-2], q - out[-2]) <= eps:
                out.pop()
            out.append(q)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _normalize_ring(v: np.ndarray) -> np.ndarray:
    """Orient counterclockwise, merge collinear runs, canonical start vertex."""
    if signed_area(v) < 0:
        v = v[::-1].copy()
    scale = float(np.abs(v).max())
    if scale == 0.0:
        raise GeometryError("all vertices coincide with the origin")
    eps = REL_TOL * scale * scale
    for _ in range(len(v) + 2):
        if len(v) < 3:
            raise GeometryError("polygon collapsed while merging collinear vertices")
        e_in = v - np.roll(v, 1, axis=0)
        e_out = np.roll(v, -1, axis=0) - v
        turn = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
        if (turn < -eps).any():
            raise GeometryError("vertex sequence is not convex")
        flat = turn <= eps
        if not flat.any():
            break
        v = v[~flat]
    else:
        raise GeometryError("collinear merge did not converge")
    if signed_area(v) <= eps:
        raise GeometryError("polygon area is not positive")
    start = int(np.lexsort((v[:, 1], v[:, 0]))[-1])
    return np.roll(v, -start, axis=0)


def _facet_normals(v: np.ndarray) -> np.ndarray:
    """Per-edge functionals n_i with n_i . x = 1 along edge i.

    Requires the origin strictly inside, which holds for every valid
    centrally symmetric disc.  gauge(x) = max_i n_i . x.
    """
    nxt = np.roll(v, -1, axis=0)
    det = v[:, 0] * nxt[:, 1] - v[:, 1] * nxt[:, 0]
    scale = float(np.abs(v).max())
    if np.any(np.abs(det) <= REL_TOL * scale * scale):
        raise GeometryError("an edge line passes through the origin")
    nx = (nxt[:, 1] - v[:, 1]) / det
    ny = (v[:, 0] - nxt[:, 0]) / det
    return np.column_stack([nx, ny])


class ConvexDisc:
    """Centrally symmetric convex polygon acting as the unit ball of a norm.

    Construction normalizes the vertex list (counterclockwise order,
    collinear merge, canonical start at the lexicographically largest
    vertex) and then checks the pairing vertex[i + m] == -vertex[i]
    within eps_sym = 1e-9 * diameter.
    """

    def __init__(self, vertices):
        v = _normalize_ring(_vertex_array(vertices))
        n = len(v)
        if n % 2:
            raise GeometryError(f"centrally symmetric disc needs an even vertex count, got {n}")
        m = n // 2
        diam = 2.0 * float(np.linalg.norm(v, axis=1).max())
        defect = float(np.abs(v[m:] + v[:m]).max())
        if defect > 1e-9 * diam:
            raise GeometryError(
                f"vertices are not centrally symmetric about the origin (defect {defect:.3g})")
        self.vertices = v
        self.vertices.setflags(write=False)
        self.diameter = diam
        self.area = signed_area(v)
        self.normals = _facet_normals(v)
        seg = np.roll(v, -1, axis=0) - v
        self._seg_len = np.linalg.norm(seg, axis=1)
        self.perimeter = float(self._seg_len.sum())
        self._cum = np.concatenate([[0.0], np.cumsum(self._seg_len)])

    def __repr__(self):
        return f"ConvexDisc({len(self.vertices)} vertices, area {self.area:.6g})"

    @property
    def is_parallelogram(self) -> bool:
        return len(self.vertices) == 4

    def gauge(self, v) -> float:
        """Gauge norm of one vector."""
        return float((self.normals @ np.asarray(v, dtype=float)).max())

    def gauge_many(self, vs) -> np.ndarray:
        """Gauge norms of an (..., 2) array of vectors."""
        vs = np.asarray(vs, dtype=float)
        return (vs @ self.normals.T).max(axis=-1)

    def contains(self, p, tol: float = None) -> bool:
        if tol is None:
            tol = REL_TOL
        return self.gauge(p) <= 1.0 + tol

    def boundary_points(self, ts) -> np.ndarray:
        """Boundary points at arc-length parameters ts, wrapped mod 1."""
        t = np.mod(np.asarray(ts, dtype=float), 1.0)
        s = t * self.perimeter
        idx = np.clip(np.searchsorted(self._cum, s, side="right") - 1,
                      0, len(self.vertices) - 1)
        start = self.vertices[idx]
        seg = np.roll(self.vertices, -1, axis=0)[idx] - start
        frac = (s - self._cum[idx]) / self._seg_len[idx]
        return start + seg * frac[..., None]

    def vertex_parameters(self) -> np.ndarray:
        """Arc-length parameters of the vertices, vertex 0 at t = 0."""
        return self._cum[:-1] / self.perimeter


def _sum_support(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    # pairwise vertex sums; their hull is the Minkowski sum for convex inputs
    return (pa[:, None, :] + pb[None, :, :]).reshape(-1, 2)


def _check_convex_input(p: np.ndarray) -> None:
    if len(p) < 3:
        return
    _normalize_ring(p)  # raises on reflex turns


def minkowski_sum(a, b) -> np.ndarray:
    """Minkowski sum of convex polygons; points and segments are allowed."""
    pa = _vertex_array(a, min_vertices=1)
    pb = _vertex_array(b, min_vertices=1)
    _check_convex_input(pa)
    _check_convex_input(pb)
    return convex_hull(_sum_support(pa, pb))


def centrosymmetrize(p) -> ConvexDisc:
    """Half of the difference body (p + (-p)) / 2, centered at the origin."""
    q = _vertex_array(p)
    s = minkowski_sum(q, -q)
    if len(s) < 3:
        raise GeometryError("input is degenerate, no area after centrosymmetrization")
    return ConvexDisc(0.5 * s)


def validate_disc(p) -> dict:
    """Diagnostic report on a candidate disc.  Never raises."""
    report = {
        "convex": False,
        "symmetric": False,
        "symmetry_defect": float("inf"),
        "parallelogram": False,
        "vertices_after_merge": 0,
        "area": 0.0,
        "problems": [],
    }
    try:
        arr = _vertex_array(p)
    except GeometryError as exc:
        report["problems"].append(str(exc))
        return report
    try:
        ring = _normalize_ring(arr)
    except GeometryError as exc:
        report["problems"].append(str(exc))
        return report
    report["convex"] = True
    report["vertices_after_merge"] = len(ring)
    report["area"] = signed_area(ring)
    report["parallelogram"] = len(ring) == 4
    n = len(ring)
    if n % 2:
        report["problems"].append(f"odd vertex count {n} cannot be centrally symmetric")
        return report
    m = n // 2
    diam = 2.0 * float(np.linalg.norm(ring, axis=1).max())
    defect = float(np.abs(ring[m:] + ring[:m]).max())
    report["symmetry_defect"] = defect
    if defect <= 1e-9 * diam:
        report["symmetric"] = True
    else:
        report["problems"].append(
            f"vertex pairing defect {defect:.3g} exceeds tolerance {1e-9 * diam:.3g}")
    return report


def _orient(a, b, c, eps: float) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if v > eps:
        return 1
    if v < -eps:
        return -1
    return 0


def _on_segment(a, b, p) -> bool:
    return (min(a[0], b[0]) - 1e-12 <= p[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= p[1] <= max(a[1], b[1]) + 1e-12)


def segments_intersect(a, b, c, d, eps: float = 0.0) -> bool:
    """True when closed segments ab and cd share a point."""
    o1 = _orient(a, b, c, eps)
    o2 = _orient(a, b, d, eps)
    o3 = _orient(c, d, a, eps)
    o4 = _orient(c, d, b, eps)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


def is_simple_polygon(p) -> bool:
    """True when the closed boundary has no self-intersection.

    Non-adjacent sides must be disjoint and adjacent sides may meet only
    at their shared vertex, so spikes (a side doubling back) fail too.
    """
    v = _vertex_array(p)
    n = len(v)
    scale = float(np.abs(v).max()) or 1.0
    eps = REL_TOL * scale * scale
    sides = [(v[i], v[(i + 1) % n]) for i in range(n)]
    vecs = [b - a for a, b in sides]
    for i in range(n):
        if np.all(np.abs(vecs[i]) <= 1e-15 * scale):
            return False
        # consecutive sides may not double back along each other
        w = vecs[(i + 1) % n]
        if abs(cross(vecs[i], w)) <= eps and float(np.dot(vecs[i], w)) < 0.0:
            return False
    for i in range(n):
        a, b = sides[i]
        for j in range(i + 1, n):
            if (j == i + 1) or (i == 0 and j == n - 1):
                continue
            c, d = sides[j]
            if segments_intersect(a, b, c, d, eps):
                return False
    return True


def regular_ngon(n: int, radius: float = 1.0) -> ConvexDisc:
    """Regular n-gon disc (n even); n = 96 stands in for the Euclidean circle."""
    if n < 4 or n % 2:
        raise GeometryError("regular disc needs an even vertex count >= 4")
    ang = 2.0 * np.pi * np.arange(n) / n
    return ConvexDisc(radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def disc_to_dict(d: ConvexDisc) -> dict:
    return {"vertices": [[float(x), float(y)] for x, y in d.vertices]}


def disc_from_dict(obj) -> ConvexDisc:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise GeometryError('disc JSON must be an object with a "vertices" key')
    return ConvexDisc(obj["vertices"])


def load_disc(path) -> ConvexDisc:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise GeometryError(f"cannot read disc file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GeometryError(f"disc file {path} is not valid JSON: {exc}") from exc
    return disc_from_dict(obj)


def save_disc(d: ConvexDisc, path) -> None:
    with open(path, "w") as fh:
        json.dump(disc_to_dict(d), fh, indent=1)
        fh.write("\n")
