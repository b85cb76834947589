import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dyadica
from dyadica.cli import main, parse_window
from dyadica.dyadic import DyadicCube, LatticeWindow
from dyadica.errors import PreconditionError
from dyadica.seq import CoeffField
from dyadica.wavelets import FunctionSample


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


@pytest.mark.parametrize("env", [None, "2", "two"])
def test_report_threads_is_one(space_file, monkeypatch, capsys, env):
    # per-cube work runs as batched numerics in one thread; DYADICA_THREADS
    # is no longer read, so no value of it changes or refuses a run
    if env is None:
        monkeypatch.delenv("DYADICA_THREADS", raising=False)
    else:
        monkeypatch.setenv("DYADICA_THREADS", env)
    code, rep = _run(["params", "--space", space_file], capsys)
    assert code == 0
    assert rep["threads"] == 1


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
    assert 0 <= fit["capped"] <= fit["fits"]
    assert 0 < fit["iterations_max"] <= 500
    assert fit["gap_max"] >= 1.0
    # the block holds no timings: a second run gives the same report
    assert _run(argv, capsys)[1] == rep


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


def test_reports_are_byte_identical_across_runs(tmp_path):
    def f(pts):
        return np.exp(-3 * (pts[:, 0] - 0.5) ** 2)

    FunctionSample.from_callable(f, 1, 1, 7, (0,), (1,)).save(str(tmp_path / "f.npz"))
    jobs = {
        "analyze": ["transform", "--mode", "analyze", "--filter-order", "2",
                    "--window", "0:2:0..1", "--input", "f.npz", "--out-prefix", "c"],
        "synthesize": ["transform", "--mode", "synthesize", "--filter-order", "2",
                       "--window", "0:2:0..1", "--coeffs", "1=c.lam1.csv",
                       "--grid-level", "7", "--output", "s.npz"],
        "molcheck": ["molcheck", "--kind", "atom", "--cube", "1:1"],
    }
    # fresh processes, so object addresses would differ between the runs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(dyadica.__file__)), os.environ.get("PYTHONPATH", "")]))
    for name, argv in jobs.items():
        reports = []
        for run in range(2):
            out = tmp_path / f"{name}{run}.json"
            proc = subprocess.run([sys.executable, "-m", "dyadica.cli", *argv, "--out", out.name],
                                  cwd=tmp_path, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_text())
        assert reports[0].replace(f"{name}0.json", f"{name}1.json") == reports[1]
        assert "fn" not in json.loads(reports[0])["config"]
