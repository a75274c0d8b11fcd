"""Output checks that share no code with minkpack's optimizers or packing code.

Each check returns a list of problem strings; an empty list means the
output passed.  The gauge norm, pair search, touch graph, window counts
and Euler characteristic are all recomputed here from vertices and
centers with numpy and scipy only.  The grid oracles of
`minkpack.oracle` (plain boundary sampling, no code shared with
`minkpack.extremal`) give the lower bounds for the extremal values.
"""

from __future__ import annotations

import numpy as np

NINE_14 = 9.0 / 14.0
TOUCH_REL = 1e-7          # touching = |gauge - 2| <= TOUCH_REL * diameter
ORACLE_REL = 1e-6         # oracle polygons close to 1e-7 in gauge, so allow 1e-6 * area
CHAIN_REL = 1e-9          # CLI prints 12 significant digits
AFFINE_REL = 1e-7         # f_k(TD) = |det T| f_k(D); the pentagon search polishes to ~1e-9
PRINTED_REL = 1e-9        # a printed statistic against its recomputation
LAMBDA_TOL = 0.02         # |lambda_hat - 5| in windows of 30 disc diameters and more
DENSITY_REL = 0.005       # |density_hat - 9/14| / (9/14)
# Faces cut by the window are dropped, so avg_sides_hat and ratio_hat carry an
# O(1/R) boundary bias: relative error <= K * diameter / R.
SIDES_K = 0.5
RATIO_K = 2.0


# ---------------------------------------------------------------------------
# independent geometry


def polygon_area(vertices) -> float:
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def gauge_normals(vertices) -> np.ndarray:
    """n_i with n_i . x = 1 on the line through vertices i and i+1."""
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0)
    return np.array([np.linalg.solve(np.array([a, b]), np.ones(2)) for a, b in zip(v, w)])


def gauge(normals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return (vecs @ normals.T).max(axis=1)


def touch_graph(centers, vertices):
    """(minimum pair gauge, touching pairs i < j as an (m, 2) array)."""
    from scipy.spatial import cKDTree  # not at import: set-up time covers minkpack only

    c = np.asarray(centers, dtype=float)
    v = np.asarray(vertices, dtype=float)
    outer = float(np.hypot(v[:, 0], v[:, 1]).max())
    pairs = cKDTree(c).query_pairs(2.0 * outer * (1.0 + 1e-6), output_type="ndarray")
    if len(pairs) == 0:
        return np.inf, np.empty((0, 2), dtype=np.int64)
    g = gauge(gauge_normals(v), c[pairs[:, 0]] - c[pairs[:, 1]])
    eps = TOUCH_REL * 2.0 * outer
    return float(g.min()), pairs[np.abs(g - 2.0) <= eps]


def edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    e = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    return np.sort(e[:, 0] * n + e[:, 1])


def euler_problems(n_vertices: int, edges, n_faces: int) -> list:
    """V - E + F = 2C + I for the face walk (one outer cycle per component)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    deg = np.bincount(e.ravel(), minlength=n_vertices)
    adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n_vertices, n_vertices))
    _, label = connected_components(adj, directed=False)
    isolated = int(np.count_nonzero(deg == 0))
    comps = len(np.unique(label[deg > 0]))
    lhs = n_vertices - len(e) + n_faces
    if lhs != 2 * comps + isolated:
        return [f"Euler: V-E+F = {lhs}, 2C+I = {2 * comps + isolated} "
                f"(V={n_vertices} E={len(e)} F={n_faces} C={comps} I={isolated})"]
    return []


def window_stats(centers, edges, area: float, R: float):
    """(lambda_hat, density_hat) in the disc of radius R about the centroid."""
    c = np.asarray(centers, dtype=float)
    rad = np.hypot(*(c - c.mean(axis=0)).T)
    inwin = rad <= R
    deg = np.bincount(np.asarray(edges, dtype=np.int64).ravel(), minlength=len(c))
    n = int(np.count_nonzero(inwin))
    return float(deg[inwin].mean()), n * area / (np.pi * R * R)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# profile-discs


def profile_problems(prof: dict, oracle: dict, n_vertices: int) -> list:
    """Chain, range and oracle checks on one parsed `minkpack profile` output."""
    A = prof["area"]
    out = []
    for key in ("delta", "f4", "f6"):
        if prof[key] < oracle[key] - ORACLE_REL * A:
            out.append(f"{key} {prof[key]!r} below oracle {oracle[key]!r}")
    tol = CHAIN_REL * A
    if prof["f4"] > A - 4.0 * prof["delta"] + tol:
        out.append("f4 > A - 4 delta")
    if prof["f5"] > 0.5 * (prof["f4"] + prof["f6"]) + tol:
        out.append("f5 > (f4 + f6) / 2")
    if prof["f6"] > A + tol:
        out.append("f6 > A")
    if not (0.75 - CHAIN_REL <= prof["d0p"] <= 1.0 + CHAIN_REL):
        out.append(f"d0p {prof['d0p']!r} outside [3/4, 1]")
    if _rel(prof["d0p"], A / (8.0 * prof["delta"])) > CHAIN_REL:
        out.append("d0p != A / (8 delta)")
    if n_vertices <= 6 and abs(prof["f6"] - A) > tol:
        out.append(f"f6 {prof['f6']!r} != A {A!r} for a {n_vertices}-vertex disc")
    return out


def f5_below_oracle(prof: dict, oracle: dict) -> bool:
    """The pentagon search fell short of a feasible grid pentagon."""
    return prof["f5"] < oracle["f5"] - ORACLE_REL * prof["area"]


def affine_problems(prof: dict, prof_t: dict, det: float) -> list:
    out = []
    for key in ("area", "delta", "f4", "f5", "f6"):
        if _rel(prof_t[key], abs(det) * prof[key]) > AFFINE_REL:
            out.append(f"{key}(TD) {prof_t[key]!r} != |det T| {key}(D) {abs(det) * prof[key]!r}")
    if _rel(prof_t["d0p"], prof["d0p"]) > AFFINE_REL:
        out.append("d0p changed under a linear map")
    return out


# ---------------------------------------------------------------------------
# packings


def packing_problems(centers, vertices, edges, n_faces: int) -> list:
    """Validity, the touch graph against a recomputation, and Euler's relation."""
    gmin, touch = touch_graph(centers, vertices)
    v = np.asarray(vertices, dtype=float)
    diam = 2.0 * float(np.hypot(v[:, 0], v[:, 1]).max())
    out = []
    if gmin < 2.0 - TOUCH_REL * diam:
        out.append(f"overlap: minimum pair gauge {gmin!r} < 2")
    n = len(centers)
    mine, theirs = edge_keys(touch, n), edge_keys(edges, n)
    if len(mine) != len(theirs) or np.any(mine != theirs):
        out.append(f"touch graph has {len(theirs)} edges, recomputation {len(mine)}")
    out += euler_problems(n, edges, n_faces)
    return out


def lattice_edge_count(kind: str, extent: int) -> int:
    """Edges of an N x N patch (N = 2 * extent + 1) of a family-hexagon lattice."""
    N = 2 * extent + 1
    return {"six": 3 * N * N - 4 * N + 1,
            "four": 2 * N * (N - 1),
            "honeycomb": 3 * N * N - 3 * N + 1}[kind]


def stats_problems(centers, edges, area: float, R: float, lam_hat: float, dens_hat: float) -> list:
    lam, dens = window_stats(centers, edges, area, R)
    out = []
    if _rel(lam_hat, lam) > PRINTED_REL:
        out.append(f"R={R}: lambda_hat {lam_hat!r}, recomputed {lam!r}")
    if _rel(dens_hat, dens) > PRINTED_REL:
        out.append(f"R={R}: density_hat {dens_hat!r}, recomputed {dens!r}")
    return out


# ---------------------------------------------------------------------------
# equality-window


def parse_analyze(text: str):
    """Rows (R, lambda, density, avg_sides, ratio, bound, slack) and the proposition verdict."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("R,lambda_hat"):
        raise ValueError("analyze output has no header")
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:-1]]
    tail = lines[-1].split(",")
    if tail[0] != "proposition":
        raise ValueError("analyze output has no proposition line")
    return rows, tail[1] == "pass"


def equality_problems(rows, prop_ok: bool, radii, diam: float) -> list:
    """lambda_hat -> 5, density -> 9/14, Euler limits, proposition line."""
    out = []
    if not prop_ok:
        out.append("proposition line fails")
    if [r[0] for r in rows] != [float("%.12g" % R) for R in radii]:
        out.append("analyze rows do not match the requested radii")
    for R, lam, dens, sides, ratio, _bound, _slack in rows:
        if abs(lam - 5.0) > LAMBDA_TOL:
            out.append(f"R={R}: lambda_hat {lam!r} not near 5")
        if _rel(dens, NINE_14) > DENSITY_REL:
            out.append(f"R={R}: density_hat {dens!r} not near 9/14")
        if _rel(sides, 2.0 * lam / (lam - 2.0)) > SIDES_K * diam / R:
            out.append(f"R={R}: avg_sides_hat {sides!r} far from 2l/(l-2)")
        if _rel(ratio, 2.0 / (lam - 2.0)) > RATIO_K * diam / R:
            out.append(f"R={R}: ratio_hat {ratio!r} far from 2/(l-2)")
    return out
