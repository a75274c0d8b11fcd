import json

import numpy as np
import pytest

from minkpack.cli import main
from minkpack.geometry import save_disc
from minkpack.packing import Packing, load_packing, save_packing


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _csv(text):
    rows = [line.split(",") for line in text.strip().splitlines()]
    return rows


@pytest.fixture()
def square_file(tmp_path, square):
    path = tmp_path / "square.json"
    save_disc(square, str(path))
    return str(path)


def test_profile_square(capsys, square_file):
    code, out, _ = run(capsys, "profile", "--disc", square_file)
    assert code == 0
    rows = dict((r[0], r[1]) for r in _csv(out)[1:])
    assert float(rows["area"]) == pytest.approx(4.0)
    assert float(rows["delta"]) == pytest.approx(0.5)
    assert float(rows["f4"]) == pytest.approx(2.0)
    assert float(rows["f5"]) == pytest.approx(2.5)
    assert float(rows["f6"]) == pytest.approx(4.0)
    assert float(rows["d0p"]) == pytest.approx(1.0)
    assert float(rows["slack_f4_cap"]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows["slack_f6_cap"]) == pytest.approx(0.0, abs=1e-9)


def test_profile_oracle_rows(capsys, square_file):
    code, out, _ = run(capsys, "profile", "--disc", square_file, "--oracle")
    assert code == 0
    rows = dict((r[0], r[1]) for r in _csv(out)[1:])
    assert float(rows["oracle_f3"]) == pytest.approx(0.5, abs=2e-3)
    assert float(rows["oracle_f6"]) == pytest.approx(4.0, abs=5e-2)


def test_profile_rejects_asymmetric(capsys, tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"vertices": [[1, 0], [0, 1], [-1, -0.5]]}))
    code, _, err = run(capsys, "profile", "--disc", str(path))
    assert code == 2
    assert err


def test_profile_rejects_non_numeric_vertices(capsys, tmp_path):
    path = tmp_path / "words.json"
    path.write_text(json.dumps({"vertices": [["a", "b"], [0, 1], [-1, 0], [0, -1]]}))
    code, _, err = run(capsys, "profile", "--disc", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_bound_example(capsys):
    code, out, _ = run(capsys, "bound", "--lambda", "5", "--d0p", "0.75")
    assert code == 0
    header, row = _csv(out)
    assert header == ["lambda", "d0p", "branch", "bound", "corollary1", "corollary2"]
    assert row[2] == "LOW_D0"
    assert float(row[3]) == pytest.approx(9.0 / 14.0, abs=1e-9)


def test_bound_branch_high(capsys):
    code, out, _ = run(capsys, "bound", "--lambda", "6", "--d0p", "0.9")
    assert code == 0
    row = _csv(out)[1]
    assert row[2] == "HIGH_D0_UPPER_LAMBDA"
    assert float(row[3]) == pytest.approx(0.9, abs=1e-12)


def test_bound_from_disc_file(capsys, square_file):
    code, out, _ = run(capsys, "bound", "--lambda", "4", "--disc", square_file)
    assert code == 0
    row = _csv(out)[1]
    assert float(row[1]) == pytest.approx(1.0, abs=1e-6)
    assert float(row[3]) == pytest.approx(0.5, abs=1e-6)


def test_bound_out_of_range(capsys):
    code, _, err = run(capsys, "bound", "--lambda", "7", "--d0p", "0.9")
    assert code == 4
    assert err


def test_sweep_fixed_d0p(capsys):
    code, out, _ = run(capsys, "sweep", "--lambda", "3:6:4", "--d0p", "1")
    assert code == 0
    rows = _csv(out)
    assert len(rows) == 5
    # density / d0p corollary column passes 1/2 .. 1 as lambda grows
    last = [float(r[5]) for r in rows[1:]]
    assert last[0] == pytest.approx(0.5)
    assert last[1] == pytest.approx(0.5)
    assert last[2] == pytest.approx(2.0 / 3.0)
    assert last[3] == pytest.approx(1.0)


def test_sweep_minimized_matches_corollary(capsys):
    code, out, _ = run(capsys, "sweep", "--lambda", "4,5,6")
    assert code == 0
    for r in _csv(out)[1:]:
        assert float(r[3]) == pytest.approx(float(r[4]), abs=1e-7)


def test_sweep_byte_determinism(capsys):
    _, out1, _ = run(capsys, "sweep", "--lambda", "3:6:13", "--d0p", "0.875")
    _, out2, _ = run(capsys, "sweep", "--lambda", "3:6:13", "--d0p", "0.875")
    assert out1 == out2


def test_hexagon_pack_analyze_roundtrip(capsys, tmp_path):
    hexfile = str(tmp_path / "hex.json")
    packfile = str(tmp_path / "pack.json")
    assert run(capsys, "hexagon", "--d0p", "0.875", "--out", hexfile)[0] == 0
    assert run(capsys, "pack", "--disc", hexfile, "--generator", "six",
               "--extent", "25", "--out", packfile)[0] == 0
    p = load_packing(packfile)
    R = p.generator["covered_radius"] * 0.8
    code, out, _ = run(capsys, "analyze", packfile, "--radius", _fmtR(R))
    assert code == 0
    rows = _csv(out)
    r = rows[1]
    assert float(r[1]) == pytest.approx(6.0, abs=0.05)
    assert float(r[2]) == pytest.approx(0.875, rel=0.03)
    assert rows[-1][0] == "proposition" and rows[-1][1] == "pass"


def _fmtR(R):
    return "%.6f" % R


def test_analyze_mixed_packing(capsys, tmp_path):
    hexfile = str(tmp_path / "hex78.json")
    packfile = str(tmp_path / "mix.json")
    run(capsys, "hexagon", "--d0p", "0.875", "--out", hexfile)
    code, _, _ = run(capsys, "pack", "--disc", hexfile, "--generator", "mixed:six+four",
                     "--fraction", "0.5", "--strip-width", "4", "--extent", "70",
                     "--out", packfile)
    assert code == 0
    p = load_packing(packfile)
    R = p.generator["covered_radius"] * 0.85
    code, out, _ = run(capsys, "analyze", packfile, "--radius", _fmtR(R))
    assert code == 0
    r = _csv(out)[1]
    assert float(r[1]) == pytest.approx(5.0, abs=0.1)
    assert float(r[2]) == pytest.approx(0.7, rel=0.05)


def test_analyze_rejects_invalid_packing(capsys, tmp_path, square):
    packfile = tmp_path / "bad.json"
    p = Packing(disc=square, centers=np.array([[0.0, 0.0], [2.0, 0.0]]))
    save_packing(p, str(packfile))
    doc = json.loads(packfile.read_text())
    doc["centers"].append([1.0, 0.0])  # overlaps both existing translates
    packfile.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", str(packfile), "--radius", "1")
    assert code == 3
    assert "invalid" in err


def test_render_svg(capsys, tmp_path):
    hexfile = str(tmp_path / "hex.json")
    packfile = str(tmp_path / "p.json")
    svgfile = tmp_path / "p.svg"
    run(capsys, "hexagon", "--d0p", "1.0", "--out", hexfile)
    run(capsys, "pack", "--disc", hexfile, "--generator", "four", "--extent", "5",
        "--out", packfile)
    code, _, _ = run(capsys, "render", packfile, "--out", str(svgfile))
    assert code == 0
    svg = svgfile.read_text()
    n = len(load_packing(packfile).centers)
    assert svg.count("<polygon") == n
    assert svg.startswith("<svg") or "<svg" in svg.splitlines()[0]


def test_render_determinism(capsys, tmp_path):
    hexfile = str(tmp_path / "hex.json")
    packfile = str(tmp_path / "p.json")
    run(capsys, "hexagon", "--d0p", "0.8", "--out", hexfile)
    run(capsys, "pack", "--disc", hexfile, "--generator", "honeycomb", "--extent", "4",
        "--out", packfile)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    run(capsys, "render", packfile, "--out", str(a))
    run(capsys, "render", packfile, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_is_reported(capsys, tmp_path):
    code, _, err = run(capsys, "profile", "--disc", str(tmp_path / "absent.json"))
    assert code != 0
    assert err


@pytest.mark.parametrize("doc", ["5", '"disc centers"', "[1, 2]", "null"])
def test_analyze_rejects_non_object_packing(capsys, tmp_path, doc):
    packfile = tmp_path / "odd.json"
    packfile.write_text(doc)
    code, _, err = run(capsys, "analyze", str(packfile), "--radius", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("centers", ['[["a", "b"]]', "[[0, 0], [1]]", "[[0, 0], [NaN, 0], [4, 0]]",
                                     "[[0, 0], [Infinity, 0]]"])
def test_analyze_rejects_bad_centers(capsys, tmp_path, square, centers):
    packfile = tmp_path / "bad.json"
    save_packing(Packing(disc=square, centers=np.array([[0.0, 0.0]])), str(packfile))
    text = packfile.read_text().replace("[[0.0, 0.0]]", centers)
    packfile.write_text(text)
    code, _, err = run(capsys, "analyze", str(packfile), "--radius", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("generator",
                         ["5", '{"covered_radius": "abc"}', '{"covered_radius": true}'])
def test_analyze_rejects_bad_generator(capsys, tmp_path, square, generator):
    packfile = tmp_path / "gen.json"
    save_packing(Packing(disc=square, centers=np.array([[0.0, 0.0], [2.0, 0.0]])), str(packfile))
    doc = json.loads(packfile.read_text())
    doc["generator"] = json.loads(generator)
    packfile.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", str(packfile), "--radius", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("radius", ["abc", "1,x", "0", "-3"])
def test_analyze_rejects_bad_radius(capsys, tmp_path, square, radius):
    packfile = tmp_path / "pair.json"
    save_packing(Packing(disc=square, centers=np.array([[0.0, 0.0], [2.0, 0.0]])), str(packfile))
    code, _, err = run(capsys, "analyze", str(packfile), "--radius", radius)
    assert code == 4
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["--extent", "10000000"],
    ["--extent", "-3"],
    ["--generator", "honeycomb", "--extent", "-1"],
    ["--generator", "mixed:six+four", "--strip-width", "0"],
    ["--generator", "mixed:six+four", "--strip-width", "-2"],
])
def test_pack_rejects_out_of_range_sizes(capsys, tmp_path, argv):
    hex_path = str(tmp_path / "hex.json")
    assert run(capsys, "hexagon", "--d0p", "0.875", "--out", hex_path)[0] == 0
    out = tmp_path / "p.json"
    code, _, err = run(capsys, "pack", "--disc", hex_path, *argv, "--out", str(out))
    assert code == 4
    assert "extent" in err or "strip_width" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bound", "--lambda", "abc", "--d0p", "0.8"],
    ["bound", "--lambda", "5", "--d0p", "abc"],
    ["sweep", "--lambda", "1,x"],
    ["sweep", "--lambda", "3:6:abc"],
    ["sweep", "--lambda", "3:6:4", "--d0p", "abc"],
    ["hexagon", "--d0p", "abc", "--out", "unused.json"],
])
def test_non_numeric_arguments_are_range_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert err.startswith("error:") and "must be a number" in err
    assert out == ""


def test_sweep_rejects_an_oversized_grid_before_allocating(capsys, monkeypatch):
    from minkpack import cli

    def linspace(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(cli.np, "linspace", linspace)
    code, out, err = run(capsys, "sweep", "--lambda", "3:6:100000000")
    assert code == 4
    assert "lambda grid count" in err
    assert out == ""
    assert run(capsys, "sweep", "--lambda", f"3:6:{cli.MAX_GRID_POINTS + 1}")[0] == 4
