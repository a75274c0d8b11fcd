#!/usr/bin/env python3
"""minkpack benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload profile-discs --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; minkpack is imported from its
`src/` directory.  The run repeats whole rounds of the workload's
operations for about --seconds, checks the outputs outside the timed
section, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as the last line of stdout.  --trace 0 reports the end-to-end metrics;
--trace 1 wraps the layer functions (see tracing.py), reports the
per-layer metrics and writes the spans to .bench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

OUT_DIR = ".bench_out"


def process_start() -> float:
    """perf_counter() reading at the moment this process was started."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: start time since boot
        return time.perf_counter() - (time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return _T_IMPORT


def import_minkpack(root: str):
    """minkpack from <root>/src, and nothing else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import minkpack
        import minkpack.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import minkpack from {src}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(minkpack.__file__))) != os.path.abspath(src):
        raise SystemExit(f"bench: minkpack was imported from {minkpack.__file__}, not {src}")
    return minkpack


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = process_start()
    # one process, no extra threads: keep BLAS single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    mp = import_minkpack(os.getcwd())
    # the best-effort strip frame and parallelogram discs warn by design
    warnings.simplefilter("ignore")
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](mp, np.random.default_rng(args.seed), tmp)
        setup_s = time.perf_counter() - t_start

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        rounds = attempted = failed = 0
        timed = last = 0.0
        best, rss_kib, problems = None, 0, []
        # start another round while at least half of it should fit in --seconds
        # (judged by the last round); more rounds mean more repeats to take
        # the fastest of, and slow phases of the machine make rounds longer
        while rounds == 0 or timed + 0.5 * last <= args.seconds:
            if tracer is not None:
                tracer.install(mp)
            try:
                t = time.perf_counter()
                ops = wl.run_round(rounds)
                last = time.perf_counter() - t
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if rounds == 0:
                # the high-water mark of the program alone: read before any
                # check runs (the grid oracles and scipy's pair search take
                # memory of their own); later rounds repeat the same work
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            timed += last
            times = [dt for dt, _ in ops]
            best = times if best is None else [min(a, b) for a, b in zip(best, times)]
            attempted += len(ops)
            failed += sum(1 for _, ok in ops if not ok)
            got, nfail = wl.check_round(rounds)
            problems += got
            failed += nfail
            rounds += 1
        got, nfail = wl.check_all()
        problems += got
        failed += nfail
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for msg in problems[:20]:
        print("bench: check failed: " + msg, file=sys.stderr)
    wall_s, op_p50_s = float(sum(best)), float(np.median(best))
    if tracer is not None:
        metrics = tracer.metrics(rounds)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                            "timed_s": timed, "wall_s": wall_s}, metrics)
        print(f"bench: trace written to {path}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_s": {"value": op_p50_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MiB"},
        }
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds in {timed:.2f} s, "
          f"{attempted} operations, {failed} failed, best operation times "
          + ", ".join(f"{b:.4f}" for b in best[:8]) + (" ..." if len(best) > 8 else ""),
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
