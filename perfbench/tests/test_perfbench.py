"""Tests of the benchmark itself, at a tiny problem size.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_prints_every_end_to_end_metric(name):
    record = run.run_workload(name, SEED, seconds=0.5, trace=0, size="tiny")
    assert record["correct"], record["failures"] + record["warmup_failures"]
    assert record["failed_frac"] == 0
    metrics = run.metrics_of(record)
    assert list(metrics) == list(run.END_TO_END)
    text = "\n".join(run.report_lines(record))
    for metric, unit in run.END_TO_END.items():
        assert metrics[metric]["unit"] == unit
        assert metrics[metric]["value"] > 0
        assert f"{metric} " in text and f" {unit} " in text
    assert "failed_frac" in text and " ratio " in text


def test_traced_run_reports_every_per_layer_metric():
    record = run.run_workload("wavelet2d", SEED, seconds=2, trace=1, size="tiny")
    assert record["correct"]
    metrics = run.metrics_of(record)
    assert set(metrics) == set(run.PER_LAYER)
    for metric, (unit, _) in run.PER_LAYER.items():
        assert metrics[metric]["unit"] == unit
    values = record["per_layer_all"]
    assert values["wavelets.analyze.self_s"] > 0
    assert values["wavelets.nonzero_coeffs"] > 0
    # the spans cover the traced jobs up to the loop's own bookkeeping
    assert abs(values["tracing.unaccounted_s"]) < 0.01 * values["tracing.traced_p50_s"]


def _corrupt_synthesis():
    with np.load("synth.npz") as data:
        fields = dict(data)
    fields["values"] = fields["values"] + 1.0
    np.savez("synth.npz", **fields)


def _corrupt_reducing_operator():
    with open("w3.json") as fh:
        report = json.load(fh)
    ops = report["reducing_operators"]
    cube = next(iter(ops))
    ops[cube] = (np.array(ops[cube]) * 1.01).tolist()
    with open("w3.json", "w") as fh:
        json.dump(report, fh)


def _flip_adprobe_byte():
    with open("adprobe.json", "rb") as fh:
        data = bytearray(fh.read())
    at = data.index(b"estimates") + len(b'estimates": [') + 1
    data[at] = ord("7") if data[at] != ord("7") else ord("3")
    with open("adprobe.json", "wb") as fh:
        fh.write(bytes(data))


@pytest.mark.parametrize("name, corrupt", [
    ("wavelet2d", _corrupt_synthesis),
    ("weights_reducing", _corrupt_reducing_operator),
    ("adprobe_checks", _flip_adprobe_byte),
])
def test_corrupted_output_counts_as_failed(name, corrupt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload, warmup_failures = worker.set_up(name, SEED, "tiny")
    assert warmup_failures == []
    loop = worker.closed_loop(workload, 0.0, after_job=corrupt)
    failed_frac = len(loop["failures"]) / len(loop["times"])
    assert failed_frac > 0


def test_inputs_depend_only_on_the_seed(tmp_path, monkeypatch):
    for name, cls in WORKLOADS.items():
        files = []
        for run_dir in ("a", "b"):
            d = tmp_path / name / run_dir
            d.mkdir(parents=True)
            monkeypatch.chdir(d)
            cls(SEED, "tiny").prepare()
            # the grid weight names its values file by absolute path
            files.append({p.name: p.read_bytes().replace(str(d).encode(), b"")
                          for p in sorted(d.iterdir())})
        assert files[0] == files[1], name


def test_benchmark_json_matches_the_code():
    assert run.LAYER_NAMES == tracer.LAYERS
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: WORKLOADS[name].why for name in run.WORKLOADS}


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wavelet2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
