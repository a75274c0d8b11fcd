#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs a small instance of each workload, confirms that its real outputs
pass the checks, then feeds the checks corrupted copies and confirms that
each one is caught.  Prints one line per case and exits 1 if a correct
output fails or a corrupted one passes.  Takes about half a minute.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import warnings

import numpy as np

import workloads
from run import OUT_DIR, import_minkpack


class SmallProfiles(workloads.ProfileDiscs):
    VERTICES = (6, 10)
    FAULT_DISC = None


class SmallWindow(workloads.EqualityWindow):
    EXTENT = 120     # covered radius 112, about 50 disc diameters
    BAND = (30.0, 45.0)


def main() -> int:
    mp = import_minkpack(os.getcwd())
    warnings.simplefilter("ignore")
    tmp = os.path.join(OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    bad = 0

    def case(name, problems, failed, expect_pass):
        nonlocal bad
        passed = not problems and not failed
        ok = passed == expect_pass
        bad += not ok
        what = "passes" if passed else f"caught ({(problems or ['failed operation'])[0]})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {what}")

    try:
        rng = np.random.default_rng(7)

        # -- profile-discs ------------------------------------------------
        wl = SmallProfiles(mp, rng, tmp)
        wl.run_round(0)
        clean = copy.deepcopy(wl.last[0])  # [[profile(D), profile(TD)] per pair]

        def profile_case(name, mutate, expect_pass=False):
            results = copy.deepcopy(clean)
            mutate(results)
            wl.last = (results, None)
            case("profile " + name, *wl.check_round(0), expect_pass)

        profile_case("as computed", lambda res: None, True)

        def lower_f5(res):
            # lowered on both discs of the pair, so that only the oracle can catch it
            res[0][0]["f5"] = wl.oracle(0)["f5"] * (1.0 - 1e-4)
            res[0][1]["f5"] = abs(wl.pairs[0]["det"]) * res[0][0]["f5"]

        profile_case("f5 below the oracle", lower_f5)

        def swap_images(res):
            res[0][1], res[1][1] = res[1][1], res[0][1]

        profile_case("images of two affine pairs swapped", swap_images)

        def lower_delta(res):
            p = res[1][0]
            p["delta"] *= 0.99
            p["d0p"] = p["area"] / (8.0 * p["delta"])

        profile_case("delta 1% below the oracle", lower_delta)

        def raise_f5(res):
            p = res[0][0]
            p["f5"] = 0.5 * (p["f4"] + p["f6"]) * (1.0 + 1e-6)

        profile_case("f5 above (f4 + f6) / 2", raise_f5)

        def hexagon_f6(res):
            res[0][0]["f6"] *= 1.0 - 1e-6  # pair 0 is the 6-vertex disc

        profile_case("f6 below A on a hexagon", hexagon_f6)

        # -- equality-window ----------------------------------------------
        wl = SmallWindow(mp, rng, tmp)
        wl.run_round(0)
        code, out, p = wl.last

        def window_case(name, out2, p2, expect_pass=False):
            wl.last = (code, out2, p2)
            case("equality-window " + name, *wl.check_round(0), expect_pass)

        window_case("as computed", out, p, True)
        lines = out.strip().splitlines()

        def edit_row(col, factor):
            cells = lines[1].split(",")
            cells[col] = "%.12g" % (float(cells[col]) * factor)
            return "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"

        window_case("density 2% high", edit_row(2, 1.02), p)
        window_case("lambda_hat 1% low", edit_row(1, 0.99), p)
        window_case("ratio_hat 10% high", edit_row(4, 1.10), p)
        window_case("proposition line fails", out.replace("proposition,pass", "proposition,fail"), p)

        def with_cache(p, graph=None, sub=None):
            q = mp.Packing(disc=p.disc, centers=p.centers, generator=p.generator)
            q._cache["graph"] = graph or p._cache["graph"]
            q._cache[("subdivision", None)] = sub or p._cache[("subdivision", None)]
            return q

        sub = copy.copy(p._cache[("subdivision", None)])
        sub.faces = sub.faces[1:]
        window_case("a face dropped", out, with_cache(p, sub=sub))
        g = copy.copy(p._cache["graph"])
        g.edges = g.edges[1:]
        window_case("a touch edge dropped", out, with_cache(p, graph=g))

        # -- small-packings -----------------------------------------------
        wl = workloads.SmallPackings(mp, rng, tmp)
        wl.run_round(0)
        clean = list(wl.last)

        def packing_case(name, k, mutate, expect_pass=False):
            wl.last = list(clean)
            s, res = clean[k]
            wl.last[k] = (s, mutate(list(res)))
            case("small packing " + name, *wl.check_round(0), expect_pass)

        packing_case("as computed", 0, lambda res: tuple(res), True)
        six = next(k for k, (s, _) in enumerate(clean) if s.get("lattice") == "six")

        def drop_edge(res):
            res[1] = res[1][1:]
            res[2] -= 1  # keep Euler's relation, so only the edge counts can catch it
            return tuple(res)

        packing_case("family six lattice, an edge dropped", six, drop_edge)

        def overlap(res):
            c = res[0].copy()
            c[0] = 0.5 * (c[0] + c[1])
            res[0] = c
            return tuple(res)

        packing_case("two centers overlapping", six, overlap)

        def extra_face(res):
            res[2] += 1
            return tuple(res)

        packing_case("a face too many", len(clean) - 1, extra_face)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"selftest: {'all cases behave' if not bad else f'{bad} cases misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
