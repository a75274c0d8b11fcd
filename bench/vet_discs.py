#!/usr/bin/env python3
"""List the sub-seeds whose profile-discs pair passes every check.

    python3 bench/vet_discs.py --candidates 24

Run from the root of a source checkout.  For each vertex count of
`ProfileDiscs.VERTICES` and each sub-seed 0 .. candidates-1, builds the
pair (disc, linear map) exactly as the workload does, profiles the disc
and its image through `minkpack.cli.main`, and runs the workload's
checks on them.  Prints one line per candidate, then the passing
sub-seeds per vertex count in the form of `ProfileDiscs.POOL`.  About
5 s per candidate.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import warnings

import workloads
from run import OUT_DIR, import_minkpack


class OnePair(workloads.ProfileDiscs):
    FAULT_DISC = None

    def __init__(self, mp, n, subseed, tmp):
        self.cli = mp.cli
        self.pairs = [self.make_pair(mp, n, subseed, tmp)]
        self.fault = self.first = self.last = None
        self.changed = []
        self.oracles = {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/vet_discs.py")
    ap.add_argument("--candidates", type=int, default=24)
    args = ap.parse_args(argv)
    mp = import_minkpack(os.getcwd())
    warnings.simplefilter("ignore")
    tmp = os.path.join(OUT_DIR, f"vet-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    pool = {}
    try:
        for n in workloads.ProfileDiscs.VERTICES:
            pool[n] = []
            for s in range(args.candidates):
                wl = OnePair(mp, n, s, tmp)
                ops = wl.run_round(0)
                problems, failed = wl.check_round(0)
                failed += sum(1 for _, ok in ops if not ok)
                if not problems and not failed:
                    pool[n].append(s)
                verdict = "pass" if not problems and not failed else \
                    f"{failed} failed; " + "; ".join(problems[:3])
                print(f"n={n} sub-seed {s}: {verdict}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    total = len(workloads.ProfileDiscs.VERTICES) * args.candidates
    print(f"{sum(map(len, pool.values()))} of {total} pairs pass")
    print("POOL = {" + ", ".join(f"{n}: {tuple(v)}" for n, v in pool.items()) + "}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
