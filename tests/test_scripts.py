"""Smoke runs of the desk scripts under scripts/, on small batches."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("lemma_suite", ["--count", "3", "--hexagons", "2"]),
    ("equality_sweep", ["--lams", "5", "6", "--d0ps", "0.75", "--radii", "5"]),
])
def test_script_passes(capsys, name, argv):
    assert _script(name).main(argv) == 0
    assert capsys.readouterr().out
