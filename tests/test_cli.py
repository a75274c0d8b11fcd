import json
import warnings

import numpy as np
import pytest

from minkpack.cli import main
from minkpack.extremal import make_theorem_hexagon
from minkpack.geometry import save_disc
from minkpack.packing import Packing, load_packing, save_packing
from minkpack.random_shapes import random_disc


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


@pytest.mark.parametrize("cmd", ["profile", "pack"])
def test_disc_is_required(capsys, tmp_path, cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--out", str(tmp_path / "x.out")])
    assert exc.value.code == 2
    assert "--disc" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("cmd", ["hexagon", "pack", "render"])
def test_out_is_required_before_any_work(capsys, monkeypatch, tmp_path, square_file, cmd):
    from minkpack import cli

    def fail(*args, **kwargs):
        raise AssertionError("the command ran without --out")

    for name in ("make_theorem_hexagon", "six_neighbour_lattice", "load_packing"):
        monkeypatch.setattr(cli, name, fail)
    argv = {
        "hexagon": ["--d0p", "0.8"],
        "pack": ["--disc", square_file, "--extent", "1000"],
        "render": [str(tmp_path / "pack.json")],
    }[cmd]
    with pytest.raises(SystemExit) as exc:
        main([cmd, *argv])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_tol_is_a_profile_option(capsys, square_file):
    assert run(capsys, "profile", "--disc", square_file, "--tol", "1e-3")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--lambda", "5", "--d0p", "0.8", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["profile", "bound", "sweep", "hexagon", "pack", "analyze", "render"])
def test_unwritable_output_is_an_input_error(capsys, tmp_path, square_file, cmd):
    packfile = str(tmp_path / "pack.json")
    row = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    save_packing(Packing(disc=make_theorem_hexagon(0.875), centers=row), packfile)
    argv = {
        "profile": ["--disc", square_file],
        "bound": ["--lambda", "5", "--d0p", "0.8"],
        "sweep": ["--lambda", "3:6:4"],
        "hexagon": ["--d0p", "0.8"],
        "pack": ["--disc", square_file, "--extent", "2"],
        "analyze": [packfile, "--radius", "1"],
        "render": [packfile],
    }[cmd]
    bad = tmp_path / "absent" / "x.out"
    code, out, err = run(capsys, cmd, *argv, "--out", str(bad))
    assert code == 2
    assert err.startswith("error:") and "absent" in err
    assert out == ""
    assert not bad.parent.exists()


# --- golden output ----------------------------------------------------------

# Exact stdout and exit code of fixed invocations.  The byte-determinism
# tests above compare two runs of the same code; these values pin what the
# code prints, so a refactor of the bound, d0p or lattice code that moves
# any printed digit fails here.  Both mixed packings fail the proposition
# check by design: a half-and-half six+honeycomb mix grows seven-sided seam
# cells, and the random disc's best-effort strip frame keeps no touches.
_GOLDEN = {
    "profile square": (0, (
        "quantity,value\n"
        "area,4\n"
        "delta,0.5\n"
        "f3,0.5\n"
        "f4,2\n"
        "f5,2.5\n"
        "f6,4\n"
        "d0p,1\n"
        "slack_f4_cap,0\n"
        "slack_f5_chord,0.5\n"
        "slack_f6_cap,0\n"
    )),
    "profile hex34": (0, (
        "quantity,value\n"
        "area,3\n"
        "delta,0.5\n"
        "f3,0.5\n"
        "f4,1\n"
        "f5,1.625\n"
        "f6,3\n"
        "d0p,0.75\n"
        "slack_f4_cap,0\n"
        "slack_f5_chord,0.375\n"
        "slack_f6_cap,0\n"
    )),
    "profile rand10": (0, (
        "quantity,value\n"
        "area,2.44391194058\n"
        "delta,0.327911635237\n"
        "f3,0.327911635237\n"
        "f4,0.985610245778\n"
        "f5,1.43106320483\n"
        "f6,2.3408775719\n"
        "d0p,0.931619862625\n"
        "slack_f4_cap,0.146655153853\n"
        "slack_f5_chord,0.232180704013\n"
        "slack_f6_cap,0.103034368678\n"
    )),
    "bound square": (0, (
        "lambda,d0p,branch,bound,corollary1,corollary2\n"
        "4.5,1,HIGH_D0_UPPER_LAMBDA,0.571428571429,0.571428571429,0.571428571429\n"
    )),
    "bound hex34": (0, (
        "lambda,d0p,branch,bound,corollary1,corollary2\n"
        "4.5,0.75,LOW_D0,0.6,0.571428571429,0.571428571429\n"
    )),
    "bound rand10": (0, (
        "lambda,d0p,branch,bound,corollary1,corollary2\n"
        "4.5,0.931619862625,HIGH_D0_UPPER_LAMBDA,0.603045008062,0.571428571429,0.571428571429\n"
    )),
    "sweep": (0, (
        "lambda,d0p,branch,bound,corollary1,corollary2\n"
        "3,0.75,LOW_D0,0.5,0.5,0.5\n"
        "3.25,1,HIGH_D0_LOWER_LAMBDA,0.5,0.5,0.5\n"
        "3.5,1,HIGH_D0_LOWER_LAMBDA,0.5,0.5,0.5\n"
        "3.75,1,HIGH_D0_LOWER_LAMBDA,0.5,0.5,0.5\n"
        "4,1,HIGH_D0_UPPER_LAMBDA,0.5,0.5,0.5\n"
        "4.25,1,HIGH_D0_UPPER_LAMBDA,0.533333333333,0.533333333333,0.533333333333\n"
        "4.5,1,HIGH_D0_UPPER_LAMBDA,0.571428571429,0.571428571429,0.571428571429\n"
        "4.75,1,HIGH_D0_UPPER_LAMBDA,0.615384615385,0.615384615385,0.615384615385\n"
        "5,0.75,LOW_D0,0.642857142857,0.642857142857,0.666666666667\n"
        "5.25,0.75,LOW_D0,0.666666666667,0.666666666667,0.727272727273\n"
        "5.5,0.75,LOW_D0,0.692307692308,0.692307692308,0.8\n"
        "5.75,0.75,LOW_D0,0.72,0.72,0.888888888889\n"
        "6,0.75,LOW_D0,0.75,0.75,1\n"
    )),
    "analyze hex80 six": (0, (
        "R,lambda_hat,density_hat,avg_sides_hat,ratio_hat,bound,slack\n"
        "3,6,0.792237938946,3,1.16666666667,0.8,-0.00776206105368\n"
        "5,6,0.774129643199,3,0.791666666667,0.8,-0.025870356801\n"
        "proposition,pass,offending_cells,0\n"
    )),
    "analyze hex80 four": (0, (
        "R,lambda_hat,density_hat,avg_sides_hat,ratio_hat,bound,slack\n"
        "3,4,0.792237938946,4,3.5,0.571428571429,0.220809367518\n"
        "5,4,0.774129643199,4,1.9,0.571428571429,0.20270107177\n"
        "proposition,pass,offending_cells,0\n"
    )),
    "analyze hex80 honeycomb": (0, (
        "R,lambda_hat,density_hat,avg_sides_hat,ratio_hat,bound,slack\n"
        "3,3,0.452707393684,nan,nan,0.5,-0.0472926063164\n"
        "5,3,0.488923985178,6,6,0.5,-0.0110760148217\n"
        "proposition,pass,offending_cells,0\n"
    )),
    "analyze hex80 mixed:six+honeycomb": (3, (
        "R,lambda_hat,density_hat,avg_sides_hat,ratio_hat,bound,slack\n"
        "3,5,0.679061090525,3,1.5,0.666666666667,0.0123944238588\n"
        "5,4.375,0.651898646904,3.28571428571,1.14285714286,0.603773584906,0.0481250619987\n"
        "proposition,fail,offending_cells,53\n"
    )),
    "analyze rand10 mixed:six+four": (3, (
        "R,lambda_hat,density_hat,avg_sides_hat,ratio_hat,bound,slack\n"
        "3,2.75,0.691485628132,nan,nan,0.5,0.191485628132\n"
        "5,3.10526315789,0.591220212053,4,6.33333333333,0.503893194645,0.087327017408\n"
        "proposition,fail,offending_cells,82\n"
    )),
}

_GOLDEN_DISCS = {
    "square": lambda: make_theorem_hexagon(1.0),
    "hex34": lambda: make_theorem_hexagon(0.75),
    "hex80": lambda: make_theorem_hexagon(0.8),
    "rand10": lambda: random_disc(np.random.default_rng(7), 7),  # 10 vertices
}


def _golden_argv(name, tmp_path, capsys):
    cmd, *rest = name.split(" ")
    if cmd == "sweep":
        return ["sweep", "--lambda", "3:6:13"]
    disc = str(tmp_path / (rest[0] + ".json"))
    save_disc(_GOLDEN_DISCS[rest[0]](), disc)
    if cmd == "profile":
        return ["profile", "--disc", disc]
    if cmd == "bound":
        return ["bound", "--lambda", "4.5", "--disc", disc]
    gen = rest[1]
    packfile = str(tmp_path / "pack.json")
    size = ["--extent", "8"]
    if gen.startswith("mixed:"):
        size = ["--fraction", "0.5", "--strip-width", "4", "--extent", "24"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # best-effort strip frame of the random disc
        assert run(capsys, "pack", "--disc", disc, "--generator", gen, *size,
                   "--out", packfile)[0] == 0
    return ["analyze", packfile, "--radius", "3,5"]


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_golden_output(capsys, tmp_path, name):
    argv = _golden_argv(name, tmp_path, capsys)
    code, out, _ = run(capsys, *argv)
    assert (code, out) == _GOLDEN[name]
