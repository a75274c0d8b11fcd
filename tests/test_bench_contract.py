"""The benchmark under bench/ drives minkpack from outside: its self-test runs
the workloads and their output checks, and bench/tracing.py wraps minkpack
functions by module attribute and reads the subdivision cache.  These tests
fail when a change to src/ drops a name or a cache key the benchmark uses."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import minkpack
import minkpack.cli  # noqa: F401  (Tracer.install patches names in the cli module)
from minkpack.extremal import make_theorem_hexagon

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_selftest_passes(tmp_path):
    # the self-test imports minkpack from ./src and writes under ./.bench_out,
    # so it runs in a scratch directory whose src is this checkout's
    (tmp_path / "src").symlink_to(_BENCH.parent / "src", target_is_directory=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    res = subprocess.run([sys.executable, str(_BENCH / "selftest.py")], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "selftest: all cases behave" in res.stdout


def test_tracer_wraps_and_restores_every_layer_function():
    tracer = _tracing().Tracer()
    try:
        tracer.install(minkpack)
        saved = list(tracer._saved)
        pk = minkpack.packing
        p = pk.six_neighbour_lattice(make_theorem_hexagon(0.8), extent=3)
        sub = pk.build_subdivision(p)
        pk.build_subdivision(p)  # answered from the cache: no second count
    finally:
        tracer.uninstall()
    assert saved
    for owner, attr, orig in saved:
        assert getattr(owner, attr) is orig, attr
    assert tracer.counts["subdivision.faces"] == len(sub.faces)
    assert tracer.counts["packing.centers"] == len(p.centers)
