"""Seeded random inputs for the property suites: centrosymmetric discs,
invertible linear maps, and closed unit-sided polygons."""

from __future__ import annotations

import numpy as np

from .extremal import UnitSidedPolygon, polygon_from_sides
from .geometry import ConvexDisc, GeometryError, convex_hull, is_simple_polygon


def random_disc(rng: np.random.Generator, n_pairs: int | None = None) -> ConvexDisc:
    """Random centrosymmetric polygon with 4 to 12 vertices."""
    for _ in range(64):
        m = int(n_pairs) if n_pairs is not None else int(rng.integers(2, 7))
        pts = rng.normal(size=(m, 2))
        pts = pts * (0.4 + rng.random(2) * 1.6)
        pts = np.vstack([pts, -pts])
        try:
            return ConvexDisc(convex_hull(pts))
        except GeometryError:
            continue
    raise GeometryError("failed to sample a valid centrosymmetric disc")


def random_discs(seed: int, count: int) -> list[ConvexDisc]:
    rng = np.random.default_rng(seed)
    return [random_disc(rng) for _ in range(count)]


def random_linear(rng: np.random.Generator, min_det: float = 0.2) -> np.ndarray:
    """Random invertible 2x2 matrix with |det| bounded away from zero."""
    while True:
        t = rng.normal(size=(2, 2))
        if abs(np.linalg.det(t)) >= min_det:
            return t


def random_unit_polygon(
    d: ConvexDisc, k: int, rng: np.random.Generator, max_tries: int = 64
) -> UnitSidedPolygon:
    """Closed simple polygon with k unit-gauge sides, in a random side order.

    Draws k - 2 boundary points, then completes with a two-side closing
    pair found by bisection on the boundary parameter; retries when the
    partial sum is too long to close or the shuffled order self-intersects.
    """
    if k < 3:
        raise GeometryError("unit-sided polygons need at least 3 sides")
    for _ in range(max_tries):
        base = d.boundary_points(rng.random(k - 2))
        partial = base.sum(axis=0)
        if d.gauge(partial) > 1.95:
            continue
        ts = np.linspace(0.0, 1.0, 257)
        f = d.gauge_many(-(partial + d.boundary_points(ts))) - 1.0
        sgn = np.sign(f)
        idx = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        root = None
        hits = np.nonzero(np.abs(f) <= 1e-12)[0]
        if len(hits):
            root = float(ts[hits[0]])
        elif len(idx):
            a, b, fa = float(ts[idx[0]]), float(ts[idx[0] + 1]), float(f[idx[0]])
            for _ in range(60):
                mid = 0.5 * (a + b)
                fm = float(d.gauge(-(partial + d.boundary_points(np.array([mid]))[0]))) - 1.0
                if (fm > 0) == (fa > 0):
                    a, fa = mid, fm
                else:
                    b = mid
            root = 0.5 * (a + b)
        if root is None:
            continue
        s_pen = d.boundary_points(np.array([root]))[0]
        s_last = -(partial + s_pen)
        if abs(d.gauge(s_last) - 1.0) > 1e-9:
            continue
        sides = np.vstack([base, s_pen[None], s_last[None]])
        for _ in range(24):
            order = rng.permutation(k)
            verts = np.vstack([[0.0, 0.0], np.cumsum(sides[order], axis=0)[:-1]])
            if is_simple_polygon(verts):
                return polygon_from_sides(d, sides[order])
    raise GeometryError("failed to sample a closed simple unit-sided polygon")
