#!/usr/bin/env python3
"""Desk-scale checks of the structural claims on a batch of random discs.

Runs, per random centrally symmetric disc:
  chain      f4 <= area - 4*delta, f5 <= (f4 + f6)/2, f6 <= area, d0p in [3/4, 1]
  hexagon    f6 == area whenever the disc is an extremal hexagon family member
  reassembly density_bound_from_profile == closed-form bound on its profile
  concavity  the concave envelope of the area caps lies on or above the caps
  minimum    exact minimum over d0p agrees with a dense grid scan

Exit code 0 when every disc passes every check.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from minkpack import (
    BoundQuery,
    cell_area_caps,
    concave_profile,
    corollary1_bound,
    density_bound_from_profile,
    make_theorem_hexagon,
    minimize_bound_over_d0,
    profile,
    theorem_lower_bound,
)
from minkpack.random_shapes import random_discs

LAM_GRID = np.linspace(3.0, 6.0, 13)


def check_chain(d, prof) -> list[str]:
    bad = []
    if prof.f3 != prof.delta:
        bad.append("f3 is not the triangle optimum")
    if prof.f4 > prof.area - 4.0 * prof.delta + 1e-6:
        bad.append(f"f4 {prof.f4:.8f} > area - 4*delta "
                   f"{prof.area - 4.0 * prof.delta:.8f}")
    if prof.f5 > 0.5 * (prof.f4 + prof.f6) + 1e-6:
        bad.append(f"f5 {prof.f5:.8f} above the f4/f6 midpoint")
    if prof.f6 > prof.area + 1e-6:
        bad.append(f"f6 {prof.f6:.8f} > area {prof.area:.8f}")
    if not (0.75 - 1e-6 <= prof.d0p <= 1.0 + 1e-6):
        bad.append(f"d0p {prof.d0p:.8f} outside [3/4, 1]")
    return bad


def check_reassembly(d, prof) -> list[str]:
    bad = []
    for lam in LAM_GRID:
        lhs = density_bound_from_profile(d, float(lam))
        rhs = theorem_lower_bound(BoundQuery(float(lam), prof.d0p)).value
        if abs(lhs - rhs) > 1e-9:
            bad.append(f"reassembly off at lam={lam:.2f}: {lhs!r} vs {rhs!r}")
    return bad


def check_concavity(prof) -> list[str]:
    caps = cell_area_caps(prof)
    bad = []
    for k, cap in caps.items():
        env = concave_profile(prof, float(k))
        if env < cap - 1e-9:
            bad.append(f"envelope below cap at k={k}: {env:.10f} < {cap:.10f}")
    return bad


def check_minimum(lam: float) -> list[str]:
    d0_star, v_star = minimize_bound_over_d0(lam)
    grid = np.linspace(0.75, 1.0, 20001)
    vals = [theorem_lower_bound(BoundQuery(lam, float(x))).value for x in grid]
    v_grid = min(vals)
    if v_star > v_grid + 1e-7:
        return [f"lam={lam}: exact {v_star:.10f} above grid {v_grid:.10f}"]
    c1 = corollary1_bound(lam)
    if abs(v_star - c1) > 1e-7:
        return [f"lam={lam}: minimized {v_star:.10f} vs closed form {c1:.10f}"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=20260822)
    ap.add_argument("--hexagons", type=int, default=9,
                    help="extremal family members to append to the batch")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    discs = random_discs(seed=args.seed, count=args.count)
    hex_d0ps = np.linspace(0.75, 1.0, args.hexagons)
    failures = 0

    for i, d in enumerate(discs):
        prof = profile(d)
        bad = check_chain(d, prof) + check_reassembly(d, prof) + check_concavity(prof)
        if bad:
            failures += 1
            for msg in bad:
                print(f"disc {i:3d}: {msg}", file=sys.stderr)
    print(f"random batch: {args.count} discs profiled, "
          f"{failures} with failures")

    hex_bad = 0
    for d0p in hex_d0ps:
        d = make_theorem_hexagon(float(d0p))
        prof = profile(d)
        if abs(prof.f6 - prof.area) > 1e-6:
            hex_bad += 1
            print(f"hexagon d0p={d0p:.4f}: f6 {prof.f6:.10f} != area {prof.area:.10f}",
                  file=sys.stderr)
        if abs(prof.d0p - d0p) > 1e-9:
            hex_bad += 1
            print(f"hexagon d0p={d0p:.4f}: profile d0p {prof.d0p:.12f}",
                  file=sys.stderr)
    print(f"hexagon family: {args.hexagons} members, {hex_bad} failures")

    min_bad = 0
    for lam in LAM_GRID:
        msgs = check_minimum(float(lam))
        min_bad += len(msgs)
        for m in msgs:
            print(m, file=sys.stderr)
    print(f"minimization: {len(LAM_GRID)} lambda values, {min_bad} failures")

    total = failures + hex_bad + min_bad
    print(f"\n{'all checks passed' if total == 0 else f'{total} FAILURES'} "
          f"in {time.perf_counter() - t0:.1f} s")
    return 0 if total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
