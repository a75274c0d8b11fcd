import os
import subprocess
import sys

import minkpack


def test_import_leaves_scipy_spatial_and_sparse_unloaded():
    # the contact pass and the face labelling import them on first use;
    # at import they would cost more than the rest of minkpack together
    src = os.path.dirname(os.path.dirname(os.path.abspath(minkpack.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = (
        "import sys, minkpack, minkpack.cli\n"
        "print(minkpack.__file__)\n"
        "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert os.path.abspath(out[0]) == os.path.abspath(minkpack.__file__)
    assert out[1] == "[]"
