import os
import subprocess
import sys

import numpy as np

import minkpack
from minkpack.extremal import make_theorem_hexagon
from minkpack.geometry import ConvexDisc, save_disc
from minkpack.packing import save_packing, six_neighbour_lattice


def _env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(minkpack.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def test_import_leaves_scipy_spatial_and_sparse_unloaded():
    # the contact pass and the face labelling import them on first use;
    # at import they would cost more than the rest of minkpack together
    code = (
        "import sys, minkpack, minkpack.cli\n"
        "print(minkpack.__file__)\n"
        "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert os.path.abspath(out[0]) == os.path.abspath(minkpack.__file__)
    assert out[1] == "[]"


def test_profile_leaves_scipy_spatial_and_sparse_unloaded(tmp_path):
    # `minkpack profile` is numpy only: scipy.spatial alone would double its
    # resident memory
    half = np.array([[1.0, 0.2], [0.6, 0.9], [0.1, 1.1], [-0.4, 1.0], [-0.8, 0.6], [-1.0, 0.1]])
    disc = ConvexDisc(np.vstack([half, -half]))
    assert len(disc.vertices) == 12
    path = tmp_path / "disc12.json"
    save_disc(disc, str(path))
    code = (
        "import sys\n"
        "from minkpack.cli import main\n"
        f"code = main(['profile', '--disc', {str(path)!r}, '--out', {str(tmp_path / 'p.csv')!r}])\n"
        "print(code)\n"
        "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == ["0", "[]"]


def test_import_loads_only_numpy_and_the_standard_library():
    # everything imported here is paid before any operation runs
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import minkpack, minkpack.cli\n"
        "top = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(top - {'minkpack', 'numpy'} - set(sys.stdlib_module_names)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == ["[]"]


def test_analyze_leaves_scipy_csgraph_unloaded(tmp_path):
    # the subdivision labels its faces with numpy alone; scipy.sparse itself
    # comes with the cKDTree of the contact pass, so csgraph is the check
    path = str(tmp_path / "pack.json")
    save_packing(six_neighbour_lattice(make_theorem_hexagon(0.875), extent=6), path)
    code = (
        "import sys\n"
        "from minkpack.cli import main\n"
        f"code = main(['analyze', {path!r}, '--radius', '3', '--out', {str(tmp_path / 'a.csv')!r}])\n"
        "print(code)\n"
        "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse.csgraph') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == ["0", "['scipy.spatial']"]
