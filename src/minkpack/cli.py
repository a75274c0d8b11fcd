"""Command line front end.

Subcommands: profile, bound, sweep, hexagon, pack, analyze, render.
Exit codes: 0 ok, 2 invalid input, 3 invariant/validity failure, 4 range
error.  All CSV output uses '.' decimals and 12 significant digits, so a
fixed invocation is byte-reproducible.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bounds import (
    BoundQuery,
    BoundsRangeError,
    Objective,
    corollary1_bound,
    corollary2_ratio_bound,
    minimize_bound_over_d0,
    theorem_lower_bound,
)
from .extremal import make_theorem_hexagon, max_triangle_area, profile
from .geometry import GeometryError, load_disc, save_disc
from .oracle import grid_max_kgon, grid_max_triangle
from .packing import (
    PackingInvalidError,
    build_subdivision,
    check_proposition,
    four_neighbour_lattice,
    load_packing,
    measure_stats,
    mixed_strip_packing,
    neighbour_graph,
    save_packing,
    six_neighbour_lattice,
    three_neighbour_honeycomb,
    validate_packing,
)


def _fmt(x) -> str:
    return "%.12g" % float(x)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ceiling on the rows a lo:hi:count lambda grid may ask for
MAX_GRID_POINTS = 1 << 16


def _number(text, name: str, kind=float):
    try:
        return kind(text)
    except ValueError as exc:
        raise BoundsRangeError(f"{name} must be a number: {exc}") from exc


def _parse_lambda_grid(spec: str):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise BoundsRangeError(f"lambda grid {spec!r} must be lo:hi:count")
        lo, hi = _number(parts[0], "--lambda"), _number(parts[1], "--lambda")
        cnt = _number(parts[2], "lambda grid count", int)
        if not 1 <= cnt <= MAX_GRID_POINTS:
            raise BoundsRangeError(f"lambda grid count {cnt} outside [1, {MAX_GRID_POINTS}]")
        return np.linspace(lo, hi, cnt)
    return np.array([_number(t, "--lambda") for t in spec.split(",") if t.strip()])


# ---------------------------------------------------------------------------


def cmd_profile(args) -> int:
    d = load_disc(args.disc)
    prof = profile(d)
    slack6 = prof.area - prof.f6
    slack4 = (prof.area - 4.0 * prof.delta) - prof.f4
    slack5 = 0.5 * (prof.f4 + prof.f6) - prof.f5
    lines = [
        "quantity,value",
        "area," + _fmt(prof.area),
        "delta," + _fmt(prof.delta),
        "f3," + _fmt(prof.f3),
        "f4," + _fmt(prof.f4),
        "f5," + _fmt(prof.f5),
        "f6," + _fmt(prof.f6),
        "d0p," + _fmt(prof.d0p),
        "slack_f4_cap," + _fmt(slack4),
        "slack_f5_chord," + _fmt(slack5),
        "slack_f6_cap," + _fmt(slack6),
    ]
    if args.oracle:
        n = 256
        lines.append("oracle_f3," + _fmt(grid_max_triangle(d, n)))
        for k in (4, 5, 6):
            lines.append(f"oracle_f{k}," + _fmt(grid_max_kgon(d, k, n)))
    _emit(lines, args.out)
    tol = args.tol
    bad = min(slack4, slack5, slack6) < -tol or not (0.75 - tol <= prof.d0p <= 1.0 + tol)
    return 3 if bad else 0


def _bound_row(lam: float, d0p: float):
    res = theorem_lower_bound(BoundQuery(lam=lam, d0p=d0p))
    return ",".join(
        [
            _fmt(lam),
            _fmt(d0p),
            res.branch.name,
            _fmt(res.value),
            _fmt(corollary1_bound(lam)),
            _fmt(corollary2_ratio_bound(lam)),
        ]
    )


_CSV_HEADER = "lambda,d0p,branch,bound,corollary1,corollary2"


def cmd_bound(args) -> int:
    if args.d0p is not None:
        d0p = _number(args.d0p, "--d0p")
    elif args.disc:
        d = load_disc(args.disc)
        d0p = d.area / (8.0 * max_triangle_area(d))
    else:
        raise BoundsRangeError("bound needs --d0p or --disc")
    if args.lam is None:
        raise BoundsRangeError("bound needs --lambda")
    _emit([_CSV_HEADER, _bound_row(_number(args.lam, "--lambda"), d0p)], args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.lam is None:
        raise BoundsRangeError("sweep needs --lambda (value, list, or lo:hi:count)")
    grid = _parse_lambda_grid(args.lam)
    d0p = None if args.d0p is None else _number(args.d0p, "--d0p")
    lines = [_CSV_HEADER]
    for lam in grid:
        lam = float(lam)
        if d0p is not None:
            lines.append(_bound_row(lam, d0p))
        else:
            d0_star, _ = minimize_bound_over_d0(lam, Objective.BOUND)
            lines.append(_bound_row(lam, d0_star))
    _emit(lines, args.out)
    return 0


def cmd_hexagon(args) -> int:
    if args.d0p is None:
        raise BoundsRangeError("hexagon needs --d0p")
    d = make_theorem_hexagon(_number(args.d0p, "--d0p"))
    if not args.out:
        raise GeometryError("hexagon needs --out FILE")
    save_disc(d, args.out)
    return 0


def cmd_pack(args) -> int:
    d = load_disc(args.disc)
    gen = args.generator or "six"
    extent = int(args.extent)
    if gen == "six":
        p = six_neighbour_lattice(d, extent=extent)
    elif gen == "four":
        p = four_neighbour_lattice(d, extent=extent)
    elif gen == "honeycomb":
        p = three_neighbour_honeycomb(d, extent=extent)
    elif gen.startswith("mixed:"):
        spec = gen[len("mixed:"):]
        parts = spec.split("+")
        if len(parts) != 2:
            raise GeometryError("mixed generator must be mixed:A+B with A,B in six|four|honeycomb")
        p = mixed_strip_packing(
            d,
            parts[0],
            parts[1],
            float(args.fraction),
            strip_width=int(args.strip_width),
            extent=extent,
        )
    else:
        raise GeometryError(f"unknown generator {gen!r}")
    if not args.out:
        raise GeometryError("pack needs --out FILE")
    save_packing(p, args.out)
    return 0


def cmd_analyze(args) -> int:
    p = load_packing(args.packing)
    rep = validate_packing(p)
    if not rep["ok"]:
        print(f"error: packing invalid ({len(rep['violations'])} overlapping pairs)", file=sys.stderr)
        return 3
    d0p = p.disc.area / (8.0 * max_triangle_area(p.disc))
    radii = [_number(t, "--radius") for t in str(args.radius).split(",") if t.strip()]
    if not radii:
        raise BoundsRangeError("analyze needs --radius R[,R2,...]")
    lines = ["R,lambda_hat,density_hat,avg_sides_hat,ratio_hat,bound,slack"]
    for R in radii:
        st = measure_stats(p, R)
        lam_c = min(6.0, max(3.0, st.lambda_hat))
        b = theorem_lower_bound(BoundQuery(lam=lam_c, d0p=min(1.0, max(0.75, d0p)))).value
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    R,
                    st.lambda_hat,
                    st.density_hat,
                    st.avg_sides_hat,
                    st.vertex_face_ratio_hat,
                    b,
                    st.density_hat - b,
                )
            )
        )
    sub = build_subdivision(p)
    ok, offenders = check_proposition(sub)
    lines.append(f"proposition,{'pass' if ok else 'fail'},offending_cells,{len(offenders)}")
    _emit(lines, args.out)
    return 0 if ok else 3


def cmd_render(args) -> int:
    p = load_packing(args.packing)
    g = neighbour_graph(p)
    c = p.centers
    V = p.disc.vertices
    lo = c.min(axis=0) - 3.0
    hi = c.max(axis=0) + 3.0
    wbox, hbox = hi - lo
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{lo[0]:.6f} {-hi[1]:.6f} {wbox:.6f} {hbox:.6f}" '
        'width="900" height="900">',
        '<g fill="#cfe0f0" stroke="#3b5a7a" stroke-width="0.03">',
    ]
    for cx, cy in c:
        pts = " ".join(f"{cx + vx:.6f},{-(cy + vy):.6f}" for vx, vy in V)
        parts.append(f'<polygon points="{pts}" />')
    parts.append("</g>")
    parts.append('<g stroke="#c0392b" stroke-width="0.05">')
    for i, j in g.edges:
        parts.append(
            f'<line x1="{c[i,0]:.6f}" y1="{-c[i,1]:.6f}" x2="{c[j,0]:.6f}" y2="{-c[j,1]:.6f}" />'
        )
    parts.append("</g>")
    parts.append("</svg>")
    if not args.out:
        raise GeometryError("render needs --out FILE")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="minkpack")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, *, disc=False, packing=False):
        if disc:
            sp.add_argument("--disc", required=False, help="disc JSON file")
        if packing:
            sp.add_argument("packing", help="packing JSON file")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--tol", type=float, default=1e-6, help="slack tolerance")

    sp = sub.add_parser("profile", help="extremal profile of a disc")
    common(sp, disc=True)
    sp.add_argument("--oracle", action="store_true", help="also print grid-oracle values")
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser("bound", help="lower bound at one (lambda, d0p)")
    common(sp, disc=True)
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.add_argument("--d0p", default=None)
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("sweep", help="bound table over a lambda grid")
    common(sp)
    sp.add_argument("--lambda", dest="lam", default=None, help="grid: value, list, or lo:hi:count")
    sp.add_argument("--d0p", default=None, help="fixed d0p; omitted = minimized per lambda")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("hexagon", help="write an equality-family hexagon disc")
    common(sp)
    sp.add_argument("--d0p", default=None)
    sp.set_defaults(fn=cmd_hexagon)

    sp = sub.add_parser("pack", help="generate a packing")
    common(sp, disc=True)
    sp.add_argument("--generator", default="six", help="six|four|honeycomb|mixed:A+B")
    sp.add_argument("--fraction", type=float, default=0.5)
    sp.add_argument("--strip-width", dest="strip_width", type=int, default=16)
    sp.add_argument("--extent", type=int, default=40)
    sp.set_defaults(fn=cmd_pack)

    sp = sub.add_parser("analyze", help="window statistics of a packing file")
    common(sp, packing=True)
    sp.add_argument("--radius", required=True, help="window radius list, e.g. 20,40")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("render", help="SVG drawing of a packing file")
    common(sp, packing=True)
    sp.set_defaults(fn=cmd_render)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PackingInvalidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BoundsRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
