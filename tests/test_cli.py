import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import dyadica
from dyadica import cli
from dyadica.cli import _join_negative_values, _json_default, _load_weight, main, parse_window
from dyadica.dyadic import DyadicCube, LatticeWindow
from dyadica.errors import PreconditionError
from dyadica.seq import CoeffField
from dyadica.wavelets import FunctionSample
from dyadica.weights import MatrixWeight, QuadratureSpec, ReducingFamily


@pytest.fixture()
def space_file(tmp_path):
    p = tmp_path / "sp.json"
    p.write_text(json.dumps({"family": "B", "s": 0.5, "tau": 0.1, "p": 2, "q": 2}))
    return str(p)


@pytest.fixture()
def weight_file(tmp_path):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"m": 1, "n": 1, "kind": "constant", "matrix": [[1.0]]}))
    return str(p)


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_parse_window():
    w = parse_window("0:3:0..2")
    assert (w.n, w.j_min, w.j_max, w.lo, w.hi) == (1, 0, 3, (0,), (2,))
    w2 = parse_window("-1:2:-2..2,-2..2")
    assert w2.n == 2 and w2.lo == (-2, -2)
    with pytest.raises(PreconditionError):
        parse_window("junk")


def test_params_command(space_file, capsys):
    code, rep = _run(["params", "--space", space_file, "--n", "2", "--d", "0.3"], capsys)
    assert code == 0
    assert rep["version"]
    t = rep["table"]
    for key in ("j_index", "j_tau", "tau_hat", "j_eff", "s_eff", "criticality",
                "wavelet_smoothness_required", "trace_threshold"):
        assert key in t


def test_norm_command(space_file, weight_file, tmp_path, capsys):
    win = LatticeWindow(1, 0, 2, (0,), (1,))
    t = CoeffField(win, 1, {DyadicCube(1, 1, (1,)): [1.0]})
    cfile = tmp_path / "t.csv"
    cfile.write_text(t.to_csv())
    code, rep = _run(["norm", "--coeffs", str(cfile), "--space", space_file,
                      "--weight", weight_file, "--window", "0:2:0..1"], capsys)
    assert code == 0
    assert rep["norm"]["value"] > 0
    assert rep["norm"]["attaining_P"]


def test_norm_non_finite_coefficient_refused(space_file, weight_file, tmp_path, capsys):
    cfile = tmp_path / "t.csv"
    cfile.write_text("0:0, 1.0, 0.0\n1:1, nan, 0.0\n")
    code = main(["norm", "--coeffs", str(cfile), "--space", space_file,
                 "--weight", weight_file, "--window", "0:2:0..1"])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


def test_norm_invalid_space_refused(tmp_path, weight_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "B", "s": 0, "tau": 0, "p": -1, "q": 2}))
    cfile = tmp_path / "t.csv"
    cfile.write_text("")
    code = main(["norm", "--coeffs", str(cfile), "--space", str(bad),
                 "--window", "0:1:0..1"])
    assert code == 2


def test_transform_roundtrip(tmp_path, capsys):
    def f(pts):
        x = pts[:, 0]
        return np.exp(-(x - 0.5) ** 2 * 3)

    fs = FunctionSample.from_callable(f, 1, 1, 8, (-8,), (9,))
    src = tmp_path / "f.npz"
    fs.save(str(src))
    prefix = str(tmp_path / "c")
    code, rep = _run(["transform", "--mode", "analyze", "--filter-order", "3",
                      "--window", "0:3:-8..9", "--input", str(src),
                      "--out-prefix", prefix], capsys)
    assert code == 0
    assert rep["files"]
    # synthesize one channel back
    lam_file = rep["files"]["(1,)"]
    out = tmp_path / "synth.npz"
    code2, rep2 = _run(["transform", "--mode", "synthesize", "--filter-order", "3",
                        "--window", "0:3:-8..9", "--coeffs", f"1={lam_file}",
                        "--grid-level", "8", "--output", str(out)], capsys)
    assert code2 == 0
    assert FunctionSample.load(str(out)).shape[0] == 17 << 8


def test_transform_synthesize_at_negative_grid_levels(tmp_path, capsys):
    cfile = tmp_path / "c.csv"
    cfile.write_text("-1:0, 1.0, 0.0\n")
    out = tmp_path / "s.npz"
    argv = ["transform", "--mode", "synthesize", "--filter-order", "2", "--coeffs",
            f"1={cfile}", "--output", str(out), "--grid-level", "-1"]
    # cells of side 2 tile the box -4..4
    code, _ = _run(argv + ["--window=-2:-1:-4..4"], capsys)
    assert code == 0
    fs = FunctionSample.load(str(out))
    assert (fs.grid_level, fs.start, fs.shape) == (-1, (-2,), (4,))
    # they do not tile the box 0..3
    cfile.write_text("")
    assert main(argv + ["--window", "0:1:0..3"]) == 2
    assert ("synthesis grid level -1 does not tile the window box (0,)..(3,): "
            "its edges must be multiples of 2") in capsys.readouterr().err


def test_adprobe_command(space_file, capsys):
    code, rep = _run(["adprobe", "--space", space_file, "--depths", "2,3",
                      "--seed", "7"], capsys)
    assert code == 0
    assert rep["region"]["ok"]
    assert len(rep["probe"]["estimates"]) == 2


def test_adprobe_deterministic(space_file, capsys):
    _, rep1 = _run(["adprobe", "--space", space_file, "--depths", "2,3",
                    "--seed", "7"], capsys)
    _, rep2 = _run(["adprobe", "--space", space_file, "--depths", "2,3",
                    "--seed", "7"], capsys)
    assert rep1 == rep2


def test_molcheck_command(capsys):
    code, rep = _run(["molcheck", "--kind", "atom", "--cube", "1:1", "--r", "2",
                      "--L", "1", "--N", "2"], capsys)
    assert code == 0
    assert rep["report"]["passed"]


def test_czkcheck_command(capsys):
    code, rep = _run(["czkcheck", "--kernel", "hilbert", "--E", "1.5", "--F", "0.5"],
                     capsys)
    assert code == 0
    assert rep["check"]["all_stable"]
    assert rep["classification"] == "factorizes"
    code2 = main(["czkcheck", "--kernel", "nope", "--E", "1", "--F", "1"])
    assert code2 == 2


def test_weights_command(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"m": 1, "n": 1, "kind": "diag-power",
                                 "a": [1.0], "alpha": [0.5], "floor": 0.0}))
    code, rep = _run(["weights", "--weight", str(wfile), "--p", "2",
                      "--window", "0:3:0..1", "--quad", "4:2", "--reducing"], capsys)
    assert code == 0
    assert rep["characteristic"] > 0
    assert rep["reducing_operators"]


def test_trace_command(tmp_path, space_file, capsys):
    def f(pts):
        return np.exp(-3 * np.sum((pts - 0.4) ** 2, axis=-1))

    fs = FunctionSample.from_callable(f, 2, 1, 7, (-2, -2), (3, 3))
    src = tmp_path / "f2.npz"
    fs.save(str(src))
    w2 = tmp_path / "w2.json"
    w2.write_text(json.dumps({"m": 1, "n": 2, "kind": "constant", "matrix": [[1.0]]}))
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({"m": 1, "n": 1, "kind": "constant", "matrix": [[1.0]]}))
    sp2 = tmp_path / "sp2.json"
    sp2.write_text(json.dumps({"family": "B", "s": 1.6, "tau": 0.0, "p": 1, "q": 1}))
    code, rep = _run(["trace", "--filter-order", "2", "--source", str(src),
                      "--weightW", str(w2), "--weightV", str(v1),
                      "--space", str(sp2), "--window", "0:3:-6..4,-6..4"], capsys)
    assert code == 0
    assert rep["compat_C116"] == pytest.approx(1.0, abs=1e-9)
    assert rep["ratio"] is not None


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "dyadica.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0


def test_grid_weight_values_file_relative_to_weight_file(tmp_path, monkeypatch, capsys):
    wdir = tmp_path / "weights"
    wdir.mkdir()
    np.save(wdir / "vals.npy", np.array([[[1.0]], [[2.0]], [[4.0]], [[8.0]]]))
    (wdir / "wg.json").write_text(json.dumps({"m": 1, "n": 1, "kind": "grid", "lo": [0],
                                              "hi": [1], "level": 2,
                                              "values_file": "vals.npy"}))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    code, rep = _run(["weights", "--weight", "../weights/wg.json", "--p", "2",
                      "--window", "0:2:0..1", "--quad", "2:1", "--reducing"], capsys)
    assert code == 0
    # the level-2 cube [1/4, 1/2) sees the single cell value 2
    assert rep["reducing_operators"]["2:1"] == [[pytest.approx(2.0 ** 0.5)]]


def _no_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


def test_config_is_the_parsed_options_less_out(space_file, weight_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    FunctionSample.from_callable(lambda p: np.exp(-8 * np.sum((p - 0.5) ** 2, axis=1)),
                                 2, 1, 6, (0, 0), (1, 1)).save("f2.npz")
    w2 = tmp_path / "w2.json"
    w2.write_text(json.dumps({"m": 1, "n": 2, "kind": "constant", "matrix": [[1.0]]}))
    (tmp_path / "c.csv").write_text("0:0, 1.0, 0.0\n")
    jobs = [
        ["params", "--space", space_file, "--n", "2"],
        ["norm", "--coeffs", "c.csv", "--space", space_file, "--weight", weight_file,
         "--window", "0:1:0..1", "--grid-extra", "1"],
        ["transform", "--mode", "analyze", "--filter-order", "1", "--resolution", "4",
         "--window", "0:1:0..1,0..1", "--input", "f2.npz", "--out-prefix", "c2"],
        ["trace", "--filter-order", "1", "--resolution", "4", "--source", "f2.npz",
         "--weightW", str(w2), "--weightV", weight_file, "--space", space_file,
         "--window", "0:1:0..1,0..1", "--quad", "2:0"],
        ["adprobe", "--space", space_file, "--depths", "2", "--margin", "0.2"],
        ["molcheck", "--kind", "gaussian", "--points", "8"],
        ["czkcheck", "--kernel", "hilbert", "--E", "1.5", "--F", "0.5", "--intermediate"],
        ["weights", "--weight", weight_file, "--p", "3", "--window", "0:1:0..1",
         "--quad", "2:0", "--reducing", "--max-ops", "2"],
    ]
    # one job per subcommand
    subcommands = next(a for a in cli.PARSER._actions if a.dest == "command").choices
    assert sorted(job[0] for job in jobs) == sorted(subcommands)
    for argv in jobs:
        argv = [*argv, "--out", f"{argv[0]}.json"]
        assert main(argv) == 0, argv
        with open(f"{argv[0]}.json") as fh:
            rep = json.load(fh, parse_constant=_no_constant)
        want = vars(cli.PARSER.parse_args(argv))
        del want["fn"], want["out"]
        assert rep["config"] == want
        assert "threads" not in rep
        # the resolved values that no option shows are results
        assert ("space" in rep) == (argv[0] in ("norm", "trace", "adprobe"))
        assert ("DEF" in rep) == (argv[0] == "adprobe")
        if "space" in rep:
            assert rep["space"] == {"family": "B", "s": 0.5, "tau": 0.1, "p": 2.0, "q": 2.0}


def test_weights_report_fit_block(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"m": 2, "n": 1, "kind": "diag-power",
                                 "a": [1.0, 2.0], "alpha": [0.3, -0.2], "floor": 0.0}))
    argv = ["weights", "--weight", str(wfile), "--p", "3", "--window", "0:2:0..1",
            "--quad", "2:1", "--reducing"]
    code, rep = _run(argv, capsys)
    assert code == 0
    fit = rep["fit"]
    assert fit["fits"] == 7
    assert fit["capped"] == 0
    assert 0 < fit["iterations_max"]
    assert 1.0 <= fit["gap_max"] <= 1.0 + 1e-7
    # the block holds no timings: a second run gives the same report
    assert _run(argv, capsys)[1] == rep


@pytest.mark.parametrize("max_ops", [0, 3, 100])
def test_weights_report_lists_the_first_max_ops_window_cubes(tmp_path, capsys, max_ops):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"m": 2, "n": 1, "kind": "diag-power",
                                 "a": [1.0, 2.0], "alpha": [0.3, -0.2], "floor": 0.0}))
    code, rep = _run(["weights", "--weight", str(wfile), "--p", "2", "--window", "0:2:0..1",
                      "--quad", "2:1", "--reducing", "--max-ops", str(max_ops)], capsys)
    assert code == 0
    window = parse_window("0:2:0..1")
    fam = ReducingFamily.build(_load_weight(str(wfile), "--weight", 1), 2.0, window,
                               QuadratureSpec(2, 1))
    cubes = list(window.all_cubes())[:max_ops]
    assert list(rep["reducing_operators"]) == [str(q) for q in cubes]
    for q in cubes:
        assert rep["reducing_operators"][str(q)] == fam[q].tolist()


def test_weights_window_outside_grid_box_refused(tmp_path, capsys):
    np.save(tmp_path / "vals.npy", np.array([[[1.0]], [[2.0]]]))
    wfile = tmp_path / "wg.json"
    wfile.write_text(json.dumps({"m": 1, "n": 1, "kind": "grid", "lo": [0], "hi": [1],
                                 "level": 1, "values_file": "vals.npy"}))
    code = main(["weights", "--weight", str(wfile), "--p", "2", "--window", "0:1:0..2",
                 "--quad", "2:0"])
    assert code == 2
    assert "outside the grid weight's box" in capsys.readouterr().err


def test_norm_duplicate_cube_line_refused(space_file, weight_file, tmp_path, capsys):
    cfile = tmp_path / "t.csv"
    cfile.write_text("1:1, 1.0, 0.0\n0:0, 0.5, 0.0\n1:1, 2.0, 0.0\n")
    code = main(["norm", "--coeffs", str(cfile), "--space", space_file,
                 "--weight", weight_file, "--window", "0:2:0..1"])
    assert code == 2
    assert "duplicate coefficient line for cube 1:1" in capsys.readouterr().err


def test_transform_analyze_refuses_non_finite_sample(tmp_path, capsys):
    values = np.ones((1, 1 << 6))
    values[0, 5] = np.nan
    src = tmp_path / "f.npz"
    np.savez(src, n=1, m=1, grid_level=6, start=np.array([0]), values=values)
    code = main(["transform", "--mode", "analyze", "--filter-order", "2",
                 "--window", "0:1:0..1", "--input", str(src),
                 "--out-prefix", str(tmp_path / "c")])
    assert code == 2
    assert "non-finite sample value at index (0, 5)" in capsys.readouterr().err
    assert not list(tmp_path.glob("c.*.csv"))


def test_transform_synthesize_refuses_non_finite_coefficient(tmp_path, capsys):
    cfile = tmp_path / "c.csv"
    cfile.write_text("0:0, 1.0, 0.0\n1:1, 0.5, inf\n")
    code = main(["transform", "--mode", "synthesize", "--filter-order", "2",
                 "--window", "0:1:0..1", "--coeffs", f"1={cfile}", "--grid-level", "6",
                 "--output", str(tmp_path / "s.npz")])
    assert code == 2
    assert "non-finite coefficient for cube 1:1" in capsys.readouterr().err


@pytest.mark.parametrize("window, pairs, expect", [
    ("0:1:0..1", ["1c.csv"], "bad --coeffs pair '1c.csv'"),
    ("0:1:0..1", ["21=c.csv"], "bad --coeffs pair '21=c.csv'"),
    ("0:1:0..1", ["="], "bad --coeffs pair '='"),
    ("0:1:0..1,0..1", ["1=c.csv"], "bad --coeffs pair '1=c.csv'"),
    ("0:1:0..1,0..1", ["01=c.csv", "01=d.csv"], "--coeffs pair '01=d.csv' repeats channel 01"),
])
def test_transform_synthesize_refuses_bad_coeffs_pairs(window, pairs, expect, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    n = window.count(",") + 1
    for name in ("c.csv", "d.csv"):
        (tmp_path / name).write_text("1:" + ",".join(["1"] * n) + ", 1.0, 0.0\n")
    code = main(["transform", "--mode", "synthesize", "--filter-order", "2", "--window", window,
                 "--coeffs", *pairs, "--grid-level", "6", "--output", "s.npz"])
    assert code == 2
    assert expect in capsys.readouterr().err
    assert not (tmp_path / "s.npz").exists()


def test_transform_analyze_refuses_missing_input(tmp_path, capsys):
    code = main(["transform", "--mode", "analyze", "--window", "0:1:0..1",
                 "--out-prefix", str(tmp_path / "c")])
    assert code == 2
    assert "--mode analyze needs --input" in capsys.readouterr().err


def test_transform_analyze_refuses_csv_input(tmp_path, capsys):
    src = tmp_path / "c.csv"
    src.write_text("0:0, 1.0, 0.0\n")
    code = main(["transform", "--mode", "analyze", "--window", "0:1:0..1",
                 "--input", str(src), "--out-prefix", str(tmp_path / "c")])
    assert code == 2
    assert f"sample file {str(src)!r} is not an npz archive" in capsys.readouterr().err


def test_transform_writes_and_reports_the_output_path(tmp_path, capsys):
    # a round trip: analyze a sample, synthesize it back to a path without a suffix
    f = FunctionSample.from_callable(lambda pts: np.exp(-20 * (pts[:, 0] - 0.5) ** 2),
                                     1, 1, 9, (-8,), (9,))
    f.save(str(tmp_path / "f.npz"))
    prefix = str(tmp_path / "c")
    window = ["--filter-order", "3", "--window", "0:5:-8..9"]
    assert main(["transform", "--mode", "analyze", *window, "--input", str(tmp_path / "f.npz"),
                 "--out-prefix", prefix]) == 0
    capsys.readouterr()
    out = tmp_path / "outfile"
    code, rep = _run(["transform", "--mode", "synthesize", *window,
                      "--coeffs", f"0={prefix}.lam0.csv", f"1={prefix}.lam1.csv",
                      "--grid-level", "9", "--output", str(out)], capsys)
    assert code == 0 and rep["written"] == str(out)
    assert out.exists() and not (tmp_path / "outfile.npz").exists()
    g = FunctionSample.load(str(out))
    assert (g.start, g.shape) == (f.start, f.shape)
    assert f.values.dtype == g.values.dtype == np.float64
    assert np.max(np.abs(g.values - f.values)) <= 1e-3


@pytest.mark.parametrize("form", ["separate", "joined"])
def test_negative_level_window_and_cube(form, space_file, weight_file, tmp_path, capsys):
    win = LatticeWindow(1, -1, 1, (-2,), (2,))
    cfile = tmp_path / "t.csv"
    cfile.write_text(CoeffField(win, 1, {DyadicCube(1, -1, (-1,)): [1.0]}).to_csv())
    spec = "-1:1:-2..2"
    window_args = ["--window", spec] if form == "separate" else [f"--window={spec}"]
    code, rep = _run(["norm", "--coeffs", str(cfile), "--space", space_file,
                      "--weight", weight_file, *window_args], capsys)
    assert code == 0
    assert rep["config"]["window"] == spec
    assert rep["norm"]["attaining_P"] == "-1:-1"
    cube_args = ["--cube", "-2:0"] if form == "separate" else ["--cube=-2:0"]
    code, rep = _run(["molcheck", "--kind", "gaussian", *cube_args], capsys)
    assert code == 0
    assert rep["config"]["cube"] == "-2:0"


def test_join_negative_values():
    assert _join_negative_values(["norm", "--window", "-1:3:-4..2", "--cube", "-2:0"]) == \
        ["norm", "--window=-1:3:-4..2", "--cube=-2:0"]
    # a leading value, an option that has its value, and values that are no level
    argv = ["-1:2", "--x=1", "-3:0", "--n", "-2", "--window", "0:1:0..1"]
    assert _join_negative_values(argv) == argv


def test_consecutive_calls_share_no_state(space_file, capsys):
    # bad arguments exit 2, also on the second call in one process
    for argv in (["norm", "--bogus"], ["params", "--space", space_file, "--n", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    # a value given to one call is not the default of the next
    assert _run(["params", "--space", space_file, "--n", "2"], capsys)[1]["config"]["n"] == 2
    assert _run(["params", "--space", space_file], capsys)[1]["config"]["n"] == 1


# calls dyadica.cli.main for every argv of a JSON list, in one process
_RUN_ALL = ("import json, sys\n"
            "from dyadica.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(f'{argv} failed')\n")


def test_reports_are_byte_identical_across_runs(tmp_path):
    inp = tmp_path / "in"
    inp.mkdir()
    FunctionSample.from_callable(lambda p: np.exp(-3 * (p[:, 0] - 0.5) ** 2),
                                 1, 1, 7, (0,), (1,)).save(str(inp / "f.npz"))
    # a 2-D sample and m = 1 diag-power weights with floor 0.1: the kinds the
    # wavelet2d workload uses
    FunctionSample.from_callable(lambda p: np.exp(-8 * np.sum((p - 1.0) ** 2, axis=1)),
                                 2, 1, 7, (-2, -2), (2, 2)).save(str(inp / "f2.npz"))
    # an m = 3 grid weight: its pair norms take the closed-form cubic
    M = np.random.default_rng(1).standard_normal((4, 4, 3, 3))
    np.save(inp / "vals3.npy", M @ M.transpose(0, 1, 3, 2) + 0.2 * np.eye(3))
    files = {
        "wg3.json": {"m": 3, "n": 2, "kind": "grid", "lo": [0, 0], "hi": [1, 1], "level": 2,
                     "values_file": "vals3.npy"},
        # the doubling fit, and the square-root average (p = 2) or the ellipsoid fit (p = 3)
        "wd.json": {"m": 2, "n": 1, "kind": "diag-power", "a": [1.3, 0.7],
                    "alpha": [0.3, -0.2], "floor": 0.0},
        "wW.json": {"m": 1, "n": 2, "kind": "diag-power", "a": [1.2], "alpha": [0.4],
                    "floor": 0.1},
        "wV.json": {"m": 1, "n": 1, "kind": "diag-power", "a": [1.2], "alpha": [0.4],
                    "floor": 0.1},
        "adprobe-sp.json": {"family": "B", "s": 0.5, "tau": 0.0, "p": 2, "q": 2},
        "wavelet-sp.json": {"family": "B", "s": 0.5, "tau": 0.1, "p": 2, "q": 2},
    }
    for name, d in files.items():
        (inp / name).write_text(json.dumps(d))
    path = {name: str(inp / name) for name in [*files, "f.npz", "f2.npz"]}
    window2 = "--window=0:3:-2..2,-2..2"
    # both runs write the same names, each in its own directory
    jobs = [
        ["transform", "--mode", "analyze", "--filter-order", "2", "--window", "0:2:0..1",
         "--input", path["f.npz"], "--out-prefix", "c1", "--out", "analyze1.json"],
        ["transform", "--mode", "synthesize", "--filter-order", "2", "--window", "0:2:0..1",
         "--coeffs", "1=c1.lam1.csv", "--grid-level", "7", "--output", "s.npz",
         "--out", "synthesize.json"],
        ["adprobe", "--space", path["adprobe-sp.json"], "--depths", "3,4", "--seed", "7",
         "--out", "adprobe.json"],
        ["czkcheck", "--kernel", "hilbert", "--E", "1.5", "--F", "0.5", "--intermediate",
         "--out", "czk.json"],
        ["molcheck", "--kind", "atom", "--cube", "1:1", "--r", "2", "--L", "1", "--N", "2",
         "--out", "atom.json"],
        ["molcheck", "--kind", "gaussian", "--out", "gaussian.json"],
        ["weights", "--weight", path["wg3.json"], "--p", "3", "--window", "0:2:0..1,0..1",
         "--quad", "2:0", "--reducing", "--out", "weights3.json"],
        *(["weights", "--weight", path["wd.json"], "--p", p, "--window", "0:5:0..1",
           "--quad", "4:2", "--dimension", "--reducing", "--out", f"weights2-p{p}.json"]
          for p in ("2", "3")),
        ["transform", "--mode", "analyze", "--filter-order", "2", window2,
         "--input", path["f2.npz"], "--out-prefix", "c", "--out", "analyze.json"],
        ["norm", "--coeffs", "c.lam01.csv", "--space", path["wavelet-sp.json"],
         "--weight", path["wW.json"], window2, "--out", "norm.json"],
        ["trace", "--filter-order", "2", "--source", path["f2.npz"], "--weightW", path["wW.json"],
         "--weightV", path["wV.json"], "--space", path["wavelet-sp.json"], window2,
         "--out", "trace.json"],
    ]
    # one fresh process per run, so object addresses would differ between them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(dyadica.__file__)), os.environ.get("PYTHONPATH", "")]))
    runs = [tmp_path / "run0", tmp_path / "run1"]
    for run in runs:
        run.mkdir()
        proc = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(jobs)], cwd=run,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    written = sorted(f.name for f in runs[0].iterdir())
    assert written == sorted(f.name for f in runs[1].iterdir())
    reports = [name for name in written if name.endswith(".json")]
    assert len(reports) == len(jobs)
    for name in written:
        if name.endswith((".json", ".csv")):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    for name in reports:
        rep = json.loads((runs[0] / name).read_text(), parse_constant=_no_constant)
        assert "fn" not in rep["config"] and "out" not in rep["config"]
        if name.startswith("weights"):
            assert rep["characteristic"] >= 1
    for name in ("weights3.json", "weights2-p3.json"):
        fit = json.loads((runs[0] / name).read_text())["fit"]
        assert fit["fits"] > 0 and fit["capped"] == 0 and fit["gap_max"] <= 1 + 1e-7
    czk = json.loads((runs[0] / "czk.json").read_text())
    assert czk["check"]["all_stable"] and czk["intermediate"]["all_stable"]


def test_weights_non_finite_constant_refused(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"m": 2, "n": 1, "kind": "constant",
                                 "matrix": [[1.0, float("nan")], [float("nan"), 1.0]]}))
    code = main(["weights", "--weight", str(wfile), "--p", "2", "--window", "0:1:0..1",
                 "--quad", "2:0", "--reducing"])
    assert code == 2
    assert "constant weight matrix at entry (0, 1) is not finite" in capsys.readouterr().err


def test_weights_grid_values_file_with_inf_refused(tmp_path, capsys):
    np.save(tmp_path / "vals.npy", np.array([[[1.0]], [[np.inf]]]))
    wfile = tmp_path / "wg.json"
    wfile.write_text(json.dumps({"m": 1, "n": 1, "kind": "grid", "lo": [0], "hi": [1],
                                 "level": 1, "values_file": "vals.npy"}))
    code = main(["weights", "--weight", str(wfile), "--p", "2", "--window", "0:1:0..1",
                 "--quad", "2:0"])
    assert code == 2
    assert "grid weight value at entry (1, 0, 0) is not finite" in capsys.readouterr().err


def test_norm_at_negative_grid_level(space_file, tmp_path, capsys):
    cfile = tmp_path / "neg.csv"
    cfile.write_text("-3:-1, 1.0, 0.0\n-3:0, 2.0, 0.0\n")
    code, rep = _run(["norm", "--coeffs", str(cfile), "--space", space_file,
                      "--window=-3:-3:-8..8", "--grid-extra", "1"], capsys)
    assert code == 0
    assert rep["norm"]["attaining_P"] == "-3:0" and rep["norm"]["value"] > 0
    # a box that is not a whole number of grid cells is refused
    code = main(["norm", "--coeffs", str(cfile), "--space", space_file,
                 "--window=-3:-3:-9..8", "--grid-extra", "1"])
    assert code == 2
    assert "stack grid level -2 does not tile the window box" in capsys.readouterr().err


def test_adprobe_counters(space_file, capsys):
    argv = ["adprobe", "--space", space_file, "--depths", "2,3", "--seed", "7"]
    _, rep1 = _run(argv, capsys)
    _, rep2 = _run(argv, capsys)
    counters = rep1["probe"]["counters"]
    assert counters == rep2["probe"]["counters"]
    assert counters["random_fields"] == [12, 12]
    assert counters["adversarial_fields"] == [8, 8]
    assert all(0 <= k <= 12 for k in counters["empty_random_skipped"])
    assert all(e > 0 for e in counters["matrix_entries"])


@pytest.mark.parametrize("matrix, p, expect", [
    ([[1.0, 0.0], [0.0, -1.0]], 2.0, "weight has a significantly negative eigenvalue at [0.03125]"),
    ([[1.0, 2.0], [0.0, 1.0]], 3.0, "weight is not Hermitian at [0.03125]"),
])
def test_weights_refuses_bad_weight_values(matrix, p, expect, tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"m": 2, "n": 1, "kind": "constant", "matrix": matrix}))
    code = main(["weights", "--weight", str(wfile), "--p", str(p), "--window", "0:1:0..1",
                 "--reducing"])
    assert code == 2
    assert capsys.readouterr().err == f"refused: {expect}\n"


# one case per input option; "{missing}" is a path that does not exist
MISSING_INPUTS = {
    "params --space": ["params", "--space", "{missing}"],
    "norm --coeffs": ["norm", "--coeffs", "{missing}", "--space", "{sp}", "--window", "0:1:0..1"],
    "norm --space": ["norm", "--coeffs", "{c}", "--space", "{missing}", "--window", "0:1:0..1"],
    "norm --weight": ["norm", "--coeffs", "{c}", "--space", "{sp}", "--weight", "{missing}",
                      "--window", "0:1:0..1"],
    "weights --weight": ["weights", "--weight", "{missing}", "--p", "2", "--window", "0:1:0..1"],
    "weights values_file": ["weights", "--weight", "{wg}", "--p", "2", "--window", "0:1:0..1"],
    "transform --input": ["transform", "--mode", "analyze", "--window", "0:1:0..1",
                          "--input", "{missing}", "--out-prefix", "{out}"],
    "transform --coeffs": ["transform", "--mode", "synthesize", "--window", "0:1:0..1",
                           "--coeffs", "1={missing}", "--output", "{out}.npz"],
    "trace --space": ["trace", "--source", "{f}", "--weightW", "{wW}", "--weightV", "{w}",
                      "--space", "{missing}", "--window", "0:1:0..1,0..1"],
    "trace --weightW": ["trace", "--source", "{f}", "--weightW", "{missing}", "--weightV", "{w}",
                        "--space", "{sp}", "--window", "0:1:0..1,0..1"],
    "trace --weightV": ["trace", "--source", "{f}", "--weightW", "{wW}", "--weightV", "{missing}",
                        "--space", "{sp}", "--window", "0:1:0..1,0..1"],
    "trace --source": ["trace", "--source", "{missing}", "--weightW", "{wW}", "--weightV", "{w}",
                       "--space", "{sp}", "--window", "0:1:0..1,0..1"],
}


@pytest.mark.parametrize("case", MISSING_INPUTS)
def test_missing_input_file_refused_naming_it(case, space_file, weight_file, tmp_path, capsys):
    missing = str(tmp_path / "nothere")
    (tmp_path / "c.csv").write_text("0:0, 1.0, 0.0\n")
    (tmp_path / "wW.json").write_text(json.dumps({"m": 1, "n": 2, "kind": "constant",
                                                  "matrix": [[1.0]]}))
    # a grid weight whose values file is the missing path, relative to the weight file
    (tmp_path / "wg.json").write_text(json.dumps({"m": 1, "n": 1, "kind": "grid", "lo": [0],
                                                  "hi": [1], "level": 1,
                                                  "values_file": "nothere"}))
    FunctionSample.from_callable(lambda pts: np.ones(len(pts)), 2, 1, 4, (0, 0), (1, 1)).save(
        str(tmp_path / "f.npz"))
    files = {"missing": missing, "sp": space_file, "w": weight_file, "out": str(tmp_path / "o"),
             **{name: str(tmp_path / f"{name}.{ext}")
                for name, ext in (("c", "csv"), ("wW", "json"), ("wg", "json"), ("f", "npz"))}}
    code = main([arg.format(**files) for arg in MISSING_INPUTS[case]])
    assert code == 2
    assert capsys.readouterr().err == f"refused: no such file: {missing}\n"


def test_report_to_missing_directory_refused(space_file, tmp_path, capsys):
    out = str(tmp_path / "nodir" / "x.json")
    code = main(["params", "--space", space_file, "--out", out])
    assert code == 2
    assert capsys.readouterr().err == f"refused: no such file: {out}\n"
    assert not os.path.exists(os.path.dirname(out))


@pytest.mark.parametrize("option, value, expect", [
    ("--DEF", "1,2", "bad --DEF '1,2'; expected three numbers D,E,F"),
    ("--DEF", "a,b,c", "bad --DEF 'a,b,c'; expected three numbers D,E,F"),
    ("--depths", "3,,4", "bad --depths '3,,4'; expected comma-separated integers"),
])
def test_adprobe_refuses_malformed_option_naming_it(option, value, expect, space_file, capsys):
    code = main(["adprobe", "--space", space_file, option, value])
    assert code == 2
    assert capsys.readouterr().err == f"refused: {expect}\n"


_NO_GRID = "validation grid has no points or no finite extent: "


@pytest.mark.parametrize("argv, expect", [
    (["molcheck", "--points", "0"], _NO_GRID + "extent 8.0, 0 per side"),
    (["molcheck", "--extent", "0"], _NO_GRID + "extent 0.0, 16 per side"),
    (["molcheck", "--extent", "nan"], _NO_GRID + "extent nan, 16 per side"),
    (["molcheck", "--N", "nan"], "N must be finite, got nan"),
    (["molcheck", "--r", "nan"], "r must be finite, got nan"),
    (["molcheck", "--kind", "gaussian", "--K", "nan"], "K must be finite, got nan"),
    (["molcheck", "--kind", "gaussian", "--K", "inf"], "K must be finite, got inf"),
    (["weights", "--weight", "{w}", "--p", "2", "--window", "0:1:0..1", "--reducing",
      "--max-ops", "-1"], "--max-ops must be nonnegative; got -1"),
    (["weights", "--weight", "{w}", "--p", "inf", "--window", "0:1:0..1"],
     "p must lie in (0, inf), got inf"),
    (["weights", "--weight", "{w}", "--p", "nan", "--window", "0:1:0..1"],
     "p must lie in (0, inf), got nan"),
], ids=["molcheck-points", "molcheck-extent-zero", "molcheck-extent-nan", "molcheck-N-nan",
        "molcheck-r-nan", "molcheck-K-nan", "molcheck-K-inf", "weights-max-ops", "weights-p-inf",
        "weights-p-nan"])
def test_option_value_refused_naming_it(argv, expect, weight_file, capsys):
    code = main([arg.format(w=weight_file) for arg in argv])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: {expect}\n"


# a --space or --weight file that is not JSON, lacks a key or holds a non-number
BAD_INPUT_FILES = {
    "space without q": ("params", "--space", '{"family": "B", "s": 0.5, "tau": 0, "p": 2}',
                        "missing key 'q'"),
    "space not JSON": ("params", "--space", '{"family": "B", "s": 0.5',
                       "not JSON: Expecting ',' delimiter: line 1 column 25 (char 24)"),
    "space non-number": ("params", "--space",
                         '{"family": "B", "s": "half", "tau": 0, "p": 2, "q": 2}',
                         "key 's' holds 'half', not a number"),
    "space not an object": ("params", "--space", "[1, 2]", "not a JSON object"),
    "weight without n": ("weights", "--weight",
                         '{"m": 1, "kind": "constant", "matrix": [[1.0]]}', "missing key 'n'"),
    "weight non-number": ("weights", "--weight",
                          '{"m": 2, "n": 1, "kind": "diag-power", "a": [1, 1], "alpha": ["x"]}',
                          "key 'alpha' holds ['x'], not a number"),
    # whole-number keys are not truncated, and m and n must agree with the values
    "weight n not whole": ("weights", "--weight",
                           '{"m": 1, "n": 1.7, "kind": "constant", "matrix": [[1.0]]}',
                           "key 'n' holds 1.7, not a whole number"),
    "grid level not whole": ("weights", "--weight",
                             '{"m": 1, "n": 1, "kind": "grid", "lo": [0], "hi": [1], '
                             '"level": 1.5, "values_file": "v.npy"}',
                             "key 'level' holds 1.5, not a whole number"),
    "grid lo not whole": ("weights", "--weight",
                          '{"m": 1, "n": 1, "kind": "grid", "lo": [0.5], "hi": [1], '
                          '"level": 1, "values_file": "v.npy"}',
                          "key 'lo' holds [0.5], not a list of whole numbers"),
    "grid lo not a list": ("weights", "--weight",
                           '{"m": 1, "n": 1, "kind": "grid", "lo": 0, "hi": [1], '
                           '"level": 1, "values_file": "v.npy"}',
                           "key 'lo' holds 0, not a list of whole numbers"),
    "constant m disagrees": ("weights", "--weight",
                             '{"m": 2, "n": 1, "kind": "constant", "matrix": [[4.0]]}',
                             "key 'm' holds 2, but the weight's values are 1 x 1"),
    "diag-power m disagrees": ("weights", "--weight",
                               '{"m": 3, "n": 1, "kind": "diag-power", "a": [1, 1], '
                               '"alpha": [0, 0]}',
                               "key 'm' holds 3, but the weight's values are 2 x 2"),
    "grid n disagrees": ("weights", "--weight",
                         '{"m": 1, "n": 3, "kind": "grid", "lo": [0], "hi": [1], "level": 1, '
                         '"values_file": "v.npy"}',
                         "key 'n' holds 3, but key 'lo' has 1 entries"),
    "diag-power n below 1": ("weights", "--weight",
                             '{"m": 1, "n": -1, "kind": "diag-power", "a": [1.0], '
                             '"alpha": [0.5]}',
                             "key 'n' holds -1, but a weight's points need n >= 1"),
}


@pytest.mark.parametrize("case", BAD_INPUT_FILES)
def test_bad_input_file_refused_naming_file_and_key(case, tmp_path, capsys):
    command, option, text, expect = BAD_INPUT_FILES[case]
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = [command, option, str(path)]
    if command == "weights":
        argv += ["--p", "2", "--window", "0:1:0..1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"refused: {path}: {expect}\n"


def test_grid_weight_m_disagreeing_with_values_file_refused(tmp_path, capsys):
    np.save(tmp_path / "v.npy", np.ones((2, 1, 1)))
    wfile = tmp_path / "wg.json"
    wfile.write_text(json.dumps({"m": 2, "n": 1, "kind": "grid", "lo": [0], "hi": [1],
                                 "level": 1, "values_file": "v.npy"}))
    assert main(["weights", "--weight", str(wfile), "--p", "2", "--window", "0:1:0..1"]) == 2
    assert capsys.readouterr().err == (
        f"refused: {wfile}: key 'm' holds 2, but the weight's values are 1 x 1\n")


# (option, n of the weight file): a weight file must have the window's n,
# and the trace's --weightV one less
WRONG_DIMENSION = {
    "weights": ("--weight", 2),
    "norm": ("--weight", 2),
    "trace-W": ("--weightW", 1),
    "trace-V": ("--weightV", 2),
}


@pytest.mark.parametrize("case", WRONG_DIMENSION)
def test_weight_of_another_dimension_than_the_window_refused(case, space_file, tmp_path,
                                                             capsys):
    # refused right after loading, before the weight is evaluated
    option, n = WRONG_DIMENSION[case]
    wfile = tmp_path / "wrong.json"
    wfile.write_text(json.dumps({"m": 1, "n": n, "kind": "constant", "matrix": [[1.0]]}))
    if case == "weights":
        argv, need = ["weights", "--weight", str(wfile), "--p", "2", "--window", "0:1:0..1"], 1
    elif case == "norm":
        cfile = tmp_path / "c.csv"
        cfile.write_text("0:0,1.0,0.0\n")
        argv = ["norm", "--coeffs", str(cfile), "--space", space_file,
                "--weight", str(wfile), "--window", "0:1:0..1"]
        need = 1
    else:
        good = {"--weightW": 2, "--weightV": 1}
        argv = ["trace", "--source", str(tmp_path / "absent.npz"), "--space", space_file,
                "--window", "0:3:-6..4,-6..4"]
        for opt, dim in good.items():
            path = tmp_path / f"{opt[2:]}.json"
            path.write_text(json.dumps({"m": 1, "n": dim, "kind": "constant",
                                        "matrix": [[1.0]]}))
            argv += [opt, str(wfile if opt == option else path)]
        need = good[option]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"refused: {option} {wfile}: the weight is defined on R^{n}, but this window needs "
        f"one on R^{need}\n")


@pytest.mark.parametrize("p", ["2", "3"])
def test_weights_command_evaluates_each_distinct_node_once(p, tmp_path):
    # the characteristic, the dimension's base cubes and doublings and the
    # reducing operators (p = 2 averages or p = 3 fit) of the CI's m = 2
    # weight share 1,023 distinct nodes among their 4,576 (1,008 per window
    # pass, 2,560 for the doublings)
    wfile = tmp_path / "wd.json"
    wfile.write_text(json.dumps({"m": 2, "n": 1, "kind": "diag-power", "a": [1.3, 0.7],
                                 "alpha": [0.3, -0.2], "floor": 0.0}))
    seen = []
    call = MatrixWeight.__call__

    def spy(self, x):
        seen.append(np.array(x))
        return call(self, x)

    with mock.patch.object(MatrixWeight, "__call__", spy):
        assert main(["weights", "--weight", str(wfile), "--p", p, "--window", "0:5:0..1",
                     "--quad", "4:2", "--dimension", "--reducing",
                     "--out", str(tmp_path / "w.json")]) == 0
    pts = np.concatenate(seen)
    assert len(pts) == 1023 and len(np.unique(pts, axis=0)) == 1023


@pytest.mark.parametrize("value, encoded", [
    (np.float64(1.5), "1.5"),
    (np.int64(-3), "-3"),
    (2.0 - 0.5j, '{"im": -0.5, "re": 2.0}'),
    (np.array([[1, 2]]), "[[1, 2]]"),
    (DyadicCube(2, 1, (0, -1)), '"1:0,-1"'),
], ids=["numpy-float", "numpy-int", "complex", "array", "cube"])
def test_reports_encode_numpy_complex_and_cube_values(value, encoded):
    assert json.dumps(value, sort_keys=True, default=_json_default) == encoded


def test_unexpected_failure_exits_1_naming_the_exception(space_file, capsys):
    def fail(report, args):
        raise RuntimeError("disk on fire")

    with mock.patch.object(cli, "_emit", fail):
        code = main(["params", "--space", space_file, "--n", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: disk on fire\n"
