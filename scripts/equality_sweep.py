#!/usr/bin/env python3
"""Sweep the equality hexagon family and compare measured packings to the bound.

For each (lambda, d0p) cell the script builds the packing whose average
neighbour count should hit lambda exactly, measures lambda_hat and density
inside growing circular windows, and prints the slack against the piecewise
lower bound.  With --radii the window radius list can be changed to watch
the finite-window error decay.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from minkpack import (
    BoundQuery,
    four_neighbour_lattice,
    make_theorem_hexagon,
    measure_stats,
    mixed_strip_packing,
    six_neighbour_lattice,
    theorem_lower_bound,
    three_neighbour_honeycomb,
    validate_packing,
)


def equality_packing(d, lam: float, d0p: float, extent: int):
    """Packing realizing average neighbour count lam on the family disc."""
    if lam == 6.0:
        return six_neighbour_lattice(d, extent=extent)
    if lam == 3.0:
        return three_neighbour_honeycomb(d, extent=extent)
    if lam == 4.0 and d0p >= 0.875 - 1e-9:
        return four_neighbour_lattice(d, extent=extent)
    if d0p < 0.875 - 1e-9:
        # below the seam only six-rows and honeycomb strips are extremal
        f_six = (lam - 3.0) / 3.0
        return mixed_strip_packing(d, "six", "honeycomb", f_six,
                                   strip_width=4, extent=extent)
    width = 3 if d0p >= 1.0 - 1e-9 else 4
    return mixed_strip_packing(d, "six", "four", 0.5,
                               strip_width=width, extent=extent)


def sized_packing(d, lam: float, d0p: float, radius: float):
    extent = 24
    for _ in range(12):
        p = equality_packing(d, lam, d0p, extent)
        cov = float(p.generator["covered_radius"])
        if cov >= radius * 1.02:
            return p
        extent = max(extent + 8, int(extent * radius * 1.1 / max(cov, 1e-9)) + 4)
    raise RuntimeError(f"could not cover radius {radius} for ({lam}, {d0p})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lams", type=float, nargs="+", default=[3.0, 4.0, 5.0, 6.0])
    ap.add_argument("--d0ps", type=float, nargs="+", default=[0.75, 0.875, 1.0])
    ap.add_argument("--radii", type=float, nargs="+", default=[25.0, 50.0],
                    help="window radii in disc diameters")
    args = ap.parse_args(argv)

    rmax = max(args.radii)
    head = f"{'lam':>5} {'d0p':>6} {'bound':>8} {'centers':>8}"
    for r in args.radii:
        head += f" {'lam@%g' % r:>9} {'slack@%g' % r:>10}"
    print(head)
    print("-" * len(head))

    worst = 0.0
    t0 = time.perf_counter()
    for lam in args.lams:
        for d0p in args.d0ps:
            d = make_theorem_hexagon(d0p)
            bound = theorem_lower_bound(BoundQuery(lam, d0p)).value
            p = sized_packing(d, lam, d0p, rmax * d.diameter)
            if not validate_packing(p)["ok"]:
                print(f"{lam:5.2f} {d0p:6.3f}  INVALID PACKING", file=sys.stderr)
                return 1
            row = f"{lam:5.2f} {d0p:6.3f} {bound:8.5f} {len(p.centers):8d}"
            for r in args.radii:
                st = measure_stats(p, r * d.diameter)
                slack = st.density_hat - bound
                worst = max(worst, abs(slack) / bound)
                row += f" {st.lambda_hat:9.4f} {slack:+10.2e}"
            print(row)
    n = len(args.lams) * len(args.d0ps)
    print(f"\n{n} cases, worst relative density slack {100 * worst:.3f}%, "
          f"{time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
