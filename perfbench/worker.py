"""One workload in one fresh process: set up, then run jobs in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|measure --workdir DIR [--size full|tiny] \
        [--spans FILE]

Prints one JSON line.  ``setup`` mode stops after the set-up (imports, seeded
inputs and one untimed, checked warm-up job) and reports its time.
``measure`` mode then runs jobs one after another for S seconds of wall time,
timing each job and checking its outputs outside the timed region.  With
``--trace 1`` the first half of the time runs untraced and the second half
runs with the tracer installed.  Times are reported both as measured and
normalized by the reference kernel (see reference.py).
"""

import os
import sys
from time import perf_counter

T_START = perf_counter()

# Pin every thread pool before numpy is imported anywhere in this process.
PINNED_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "DYADICA_THREADS")}
os.environ.update(PINNED_ENV)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import dyadica.cli  # noqa: E402,F401  (imports the whole package)
import mpmath  # noqa: E402
import numpy as np  # noqa: E402

from reference import REF_NOMINAL_S, reference_time  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def set_up(name: str, seed: int, size: str):
    """Seeded inputs and one checked warm-up job, in the current directory."""
    workload = WORKLOADS[name](seed, size)
    workload.prepare()
    warmup_failures = workload.verify(workload.run_job())
    return workload, warmup_failures


REF_NEIGHBOURS = 3


def closed_loop(workload, seconds: float, run=None, after_job=None) -> dict:
    """Run jobs back to back for ``seconds`` of wall time.

    Each job is timed alone, then the reference kernel runs, then the job's
    outputs are checked.  A job's time is normalized by the median of the
    REF_NEIGHBOURS reference times before it and the REF_NEIGHBOURS after
    it, which follows the machine's drift and smooths the kernel's own
    noise.  ``run(job, fn)`` times one job (the tracer's ``run_job`` in a
    traced half); ``after_job()`` runs between the job and its check, so
    tests can corrupt an output.
    """
    walls, ref_samples, failures = [], [reference_time()], []
    start = perf_counter()
    job = 0
    while job == 0 or perf_counter() - start < seconds:
        if run is None:
            t0 = perf_counter()
            codes = workload.run_job()
            wall = perf_counter() - t0
        else:
            codes, wall = run(job, workload.run_job)
        ref_samples.append(reference_time())
        if after_job is not None:
            after_job()
        bad = workload.verify(codes)
        walls.append(wall)
        if bad:
            failures.append({"job": job, "failures": bad})
        job += 1
    k = REF_NEIGHBOURS
    refs = [statistics.median(ref_samples[max(0, i + 1 - k): i + 1 + k])
            for i in range(len(walls))]
    return {"times": [w * REF_NOMINAL_S / r for w, r in zip(walls, refs)],
            "wall_times": walls, "refs": refs, "failures": failures}


def traced_loops(workload, seconds: float) -> tuple[list[dict], dict, Tracer]:
    """Half the time untraced, half traced; returns both loops and the
    per-layer metrics, every time in them normalized like the job times."""
    untraced = closed_loop(workload, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(workload, seconds / 2, run=tracer.run_job)
    finally:
        tracer.uninstall()
    scale = REF_NOMINAL_S / statistics.median(traced["refs"])
    per_layer = {name: value * scale if name.endswith("_s") else value
                 for name, value in tracer.per_job_metrics().items()}
    untraced_p50 = statistics.median(untraced["times"])
    traced_p50 = statistics.median(traced["times"])
    per_layer |= {
        "tracing.untraced_p50_s": untraced_p50,
        "tracing.traced_p50_s": traced_p50,
        "tracing.overhead_s": traced_p50 - untraced_p50,
        "tracing.unaccounted_s": statistics.median(tracer.unaccounted()) * scale,
        "tracing.jobs": len(traced["times"]),
        "tracing.spans": len(tracer.span_name),
    }
    return [untraced, traced], per_layer, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spans", help="write the traced spans to this npz file")
    args = ap.parse_args(argv)

    imports_s = perf_counter() - T_START
    reference_time()  # the first call also warms numpy's linear algebra
    ref_before = reference_time()
    os.chdir(args.workdir)
    t0 = perf_counter()
    workload, warmup_failures = set_up(args.workload, args.seed, args.size)
    setup_wall = imports_s + perf_counter() - t0
    setup_ref = (ref_before + reference_time()) / 2
    out = {"setup_s": setup_wall * REF_NOMINAL_S / setup_ref, "setup_wall_s": setup_wall,
           "setup_ref_s": setup_ref, "ref_nominal_s": REF_NOMINAL_S,
           "warmup_failures": warmup_failures}
    if args.mode == "measure":
        if args.trace:
            loops, out["per_layer"], tracer = traced_loops(workload, args.seconds)
            if args.spans:
                tracer.save(args.spans)
        else:
            loops = [closed_loop(workload, args.seconds)]
        out["loops"] = loops
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"numpy": np.__version__, "mpmath": mpmath.__version__,
                       "blas": _blas_version(np)}
    print(json.dumps(out))
    return 0


def _blas_version(np_module) -> str:
    try:
        deps = np_module.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
