"""dyadica benchmark: CLI jobs on seeded inputs, one workload per run.

    python3 perfbench/run.py --workload wavelet2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in fresh worker processes with BLAS, OpenMP and
DYADICA_THREADS pinned to one thread.  Two set-up-only processes and the
measuring process each time the set-up; the measuring process then runs jobs
in a closed loop (one client, the next job after the previous one ends).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("wavelet2d", "weights_reducing", "adprobe_checks")
SETUP_REPEATS = 3
DEADLINE_S = 170.0
TAIL_BEYOND = 10

# name -> unit
END_TO_END = {
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# the same tuple as tracer.LAYERS, which this numpy-free module does not import
LAYER_NAMES = ("cli", "dyadic", "params", "weights", "seq", "wavelets", "ad",
               "molecules", "trace", "czo")
PER_LAYER_TIMES = [
    "wavelets.synthesize.self_s", "wavelets.analyze.self_s",
    "seq.CoeffField.set.self_s", "seq.CoeffField.to_csv.self_s",
    "seq.CoeffField.from_csv.self_s", "wavelets.FunctionSample.load.self_s",
    "wavelets.FunctionSample.save.self_s", "seq.weighted_stack.self_s",
    "seq.averaged_stack.self_s", "seq.la_norm.self_s", "trace.trace_coeffs.self_s",
    "trace.weight_compat_check.self_s", "weights.MatrixWeight.power.self_s",
    "weights.ap_characteristic.self_s", "weights.reducing_operator.self_s",
    "weights.ReducingFamily.build.self_s", "weights.ap_dimension_estimate.self_s",
    "ad.apply.self_s", "ad.empirical_norm.self_s", "czo.czk_check.self_s",
    "czo.intermediate_derivative_check.self_s", "molecules.make_atom.self_s",
    "molecules.validate_atom.self_s", "molecules.validate_molecule.self_s",
    "params.derived_table.self_s", "wavelets.WaveletSystem.init_s",
    "wavelets.daubechies_filter.self_s", "cli.main.self_s",
]
PER_LAYER_COUNTS = [
    "seq.CoeffField.set.calls", "dyadic.DyadicCube.built",
    "weights.MatrixWeight.power.calls", "weights.reducing_operator.calls",
    "ad.bdef_entry.calls", "dyadic.distance_term.calls",
    "dyadic.window_cubes", "wavelets.analysis_cubes", "wavelets.nonzero_coeffs",
    "seq.stack_cells", "weights.quad_nodes", "weights.pair_evals", "ad.entry_evals",
]
# name -> (unit, better)
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYER_NAMES},
    **{name: ("s", "lower") for name in PER_LAYER_TIMES},
    **{name: ("count", "lower") for name in PER_LAYER_COUNTS},
    "wavelets.nonzero_ratio": ("ratio", "higher"),
    "seq.csv_bytes": ("B", "lower"),
    "wavelets.npz_bytes": ("B", "lower"),
    "tracing.untraced_p50_s": ("s", "lower"),
    "tracing.traced_p50_s": ("s", "lower"),
    "tracing.overhead_s": ("s", "lower"),
    "tracing.unaccounted_s": ("s", "lower"),
    "tracing.jobs": ("count", "higher"),
    "tracing.spans": ("count", "lower"),
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def provenance(seed: int, worker: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dyadica").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **worker["versions"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile of job time with TAIL_BEYOND jobs beyond it: the
    time, the percentile and the number of jobs beyond.  With too few jobs
    it is the slowest job."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: str = "full") -> dict:
    """Run one workload; returns the result record (metrics and raw data)."""
    deadline = monotonic() + DEADLINE_S
    WORKDIR.mkdir(exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--size", size]
    setup_runs = []
    for _ in range(SETUP_REPEATS - 1):
        with tempfile.TemporaryDirectory(dir=WORKDIR) as d:
            setup_runs.append(run_worker([*common, "--mode", "setup", "--workdir", d], deadline))
    spans = WORKDIR / f"spans-{name}.npz"
    with tempfile.TemporaryDirectory(dir=WORKDIR) as d:
        extra = ["--spans", str(spans)] if trace else []
        r = run_worker([*common, "--mode", "measure", "--workdir", d, *extra], deadline)
    setup_runs.append(r)
    setups = [s["setup_s"] for s in setup_runs]
    warmup_failures = [f for s in setup_runs for f in s["warmup_failures"]]

    # end-to-end times come from untraced jobs only; every job counts for
    # correctness
    untraced = r["loops"][0]
    times = untraced["times"]
    attempted = sum(len(loop["times"]) for loop in r["loops"])
    failures = [f for loop in r["loops"] for f in loop["failures"]]
    failed = len(failures)
    tail_s, tail_pct, tail_beyond = tail(times)
    end_to_end = {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "jobs_per_s": (len(times) - len(untraced["failures"])) / sum(times),
        "peak_rss_mb": r["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    record = {
        "workload": name,
        "trace": trace,
        "provenance": provenance(seed, r),
        "correct": failed == 0 and not warmup_failures,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "warmup_failures": warmup_failures,
        "tail_percentile": tail_pct,
        "tail_beyond": tail_beyond,
        "setup_samples_s": setups,
        "setup_wall_samples_s": [s["setup_wall_s"] for s in setup_runs],
        "job_times_s": times,
        "job_wall_times_s": untraced["wall_times"],
        "job_ref_times_s": untraced["refs"],
        "wall_p50_s": statistics.median(untraced["wall_times"]),
        "ref_p50_s": statistics.median(untraced["refs"]),
        "ref_nominal_s": r["ref_nominal_s"],
        "end_to_end": end_to_end,
    }
    if trace:
        record["per_layer_all"] = r["per_layer"]
        record["spans_file"] = str(spans.relative_to(ROOT))
    return record


def metrics_of(record: dict) -> dict:
    if record["trace"]:
        values = record["per_layer_all"]
        return {name: {"value": values[name], "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}
    return {name: {"value": record["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()}


def report_lines(record: dict) -> list[str]:
    """Human-readable summary printed above the JSON result line."""
    lines = [f"== {record['workload']} (seed {record['provenance']['seed']}, "
             f"trace {record['trace']}, closed loop, 1 client)",
             "provenance " + json.dumps(record["provenance"], sort_keys=True)]
    n = record["attempted"]
    timed = len(record["job_times_s"])
    notes = {
        "job_p50_s": f"median of {timed} untraced jobs",
        "job_tail_s": f"p{record['tail_percentile']:.1f} of {timed} untraced jobs "
                      f"({record['tail_beyond']} jobs beyond it)",
        "setup_s": f"median of {len(record['setup_samples_s'])} set-ups",
    }
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<14} {record['end_to_end'][name]:<12.6g} {unit:<6} "
                     f"{notes.get(name, '')}")
    lines.append(f"  {'failed_frac':<14} {record['failed_frac']:<12.6g} {'ratio':<6} "
                 f"{record['failed']} of {n} jobs failed")
    lines.append(f"  times are normalized to the reference kernel: wall p50 "
                 f"{record['wall_p50_s']:.4g} s, reference p50 {record['ref_p50_s']:.4g} s "
                 f"(nominal {record['ref_nominal_s']} s)")
    for failure in record["failures"][:3] + record["warmup_failures"][:3]:
        lines.append(f"  failure: {failure}")
    if record["trace"]:
        values = record["per_layer_all"]
        lines.append(f"  tracing overhead {values['tracing.overhead_s']:.4g} s per job "
                     f"(traced p50 {values['tracing.traced_p50_s']:.4g} s, untraced p50 "
                     f"{values['tracing.untraced_p50_s']:.4g} s); wall minus summed self "
                     f"time {values['tracing.unaccounted_s']:.3g} s per job")
        top = sorted(((v, k) for k, v in values.items()
                      if k.endswith(".self_s") and k.count(".") > 1), reverse=True)[:8]
        for value, key in top:
            lines.append(f"  {key:<48} {value:.4g} s per job")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dyadica" / "__init__.py").is_file():
        print(f"error: no dyadica sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print("\n".join(report_lines(record)))
        out = WORKDIR / f"result-{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if len(records) == 1:
        metrics = metrics_of(records[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in metrics_of(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
