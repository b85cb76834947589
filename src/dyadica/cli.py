"""Command-line front end: parameter tables, norms, transforms, trace runs,
probe suites, and checker reports.

All structured output is JSON with sorted keys; bulk data moves through CSV
(coefficients) and npz (samples).  Reports embed the parsed options (less
``--out``) and the tool version, and runs are deterministic under a fixed seed.
Exit codes: 0 success, 2 precondition refusal (a missing input file, or a
missing directory for the report, too), 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .ad import ADMatrix, empirical_norm
from .czo import (
    classify_factorization,
    czk_check,
    intermediate_derivative_check,
    kernel_by_name,
)
from .dyadic import LatticeWindow, grid_cells, parse_cube
from .errors import PreconditionError
from .molecules import (MoleculeCandidate, ValidationGrid, make_atom, validate_atom,
                        validate_molecule)
from .params import SpaceParams, ad_region, derived_indices, derived_table
from .seq import CoeffField, seq_norm_weighted
from .trace import (TracePair, base_window, channel_norm, target_params, trace_coeffs,
                    weight_compat_check)
from .wavelets import (
    FunctionSample,
    WaveletSystem,
    analyze,
    daubechies_filter,
    parseval_report,
    synthesize,
)
from .weights import (
    MatrixWeight,
    QuadratureSpec,
    ReducingFamily,
    WeightTable,
    ap_characteristic,
    ap_dimension_estimate,
)


def parse_window(text: str) -> LatticeWindow:
    """Format: jmin:jmax:lo..hi[,lo..hi...] with integer box bounds."""
    try:
        jmin, jmax, box = text.split(":")
        lo, hi = [], []
        for axis in box.split(","):
            a, b = axis.split("..")
            lo.append(int(a))
            hi.append(int(b))
        return LatticeWindow(len(lo), int(jmin), int(jmax), tuple(lo), tuple(hi))
    except ValueError as exc:
        raise PreconditionError(f"bad window spec {text!r}; "
                                "expected jmin:jmax:lo..hi[,lo..hi...]") from exc


def _parse_list(text: str, option: str, convert, expected: str, count: int | None = None):
    """The comma-separated values of an option; text that ``convert`` rejects,
    or (given ``count``) a wrong number of values, is refused naming the option."""
    try:
        values = [convert(v) for v in text.split(",")]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise PreconditionError(f"bad {option} {text!r}; expected {expected}")
    return values


def _load_json(path: str, build):
    """``build`` of the JSON object in the file at ``path``; a file that holds
    no JSON object, or one that ``build`` refuses, is refused naming the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise PreconditionError("not a JSON object")
        return build(obj)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{path}: not JSON: {exc}") from exc
    except PreconditionError as exc:
        raise PreconditionError(f"{path}: {exc}") from exc


def _load_space(path: str) -> SpaceParams:
    return _load_json(path, SpaceParams.from_dict)


def _load_weight(path: str, option: str, n: int) -> MatrixWeight:
    """The weight in the file at ``path``, given as ``option``; a weight that
    is not defined on R^n is refused naming the option and the file."""
    base_dir = os.path.dirname(os.path.abspath(path))
    W = _load_json(path, lambda d: MatrixWeight.from_dict(d, base_dir=base_dir))
    if W.n != n:
        raise PreconditionError(f"{option} {path}: the weight is defined on R^{W.n}, "
                                f"but this window needs one on R^{n}")
    return W


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _config(args) -> dict:
    """The parsed arguments less ``--out`` and the subcommand's function object
    (its repr holds a memory address that changes from run to run)."""
    return {k: v for k, v in vars(args).items() if k not in ("fn", "out")}


# ---------------------------------------------------------------------------
# subcommands

def cmd_params(args) -> dict:
    return {"table": derived_table(_load_space(args.space), args.n, args.d)}


def cmd_norm(args) -> dict:
    sp = _load_space(args.space)
    window = parse_window(args.window)
    with open(args.coeffs) as fh:
        t = CoeffField.from_csv(fh.read(), window, args.m)
    W = (_load_weight(args.weight, "--weight", window.n) if args.weight
         else MatrixWeight.identity(args.m, window.n))
    res = seq_norm_weighted(t, W, sp, args.grid_extra)
    return {"space": sp.to_dict(), "norm": res.to_dict()}


def cmd_transform(args) -> dict:
    window = parse_window(args.window)
    sysw = WaveletSystem(window.n, daubechies_filter(args.filter_order), args.resolution)
    if args.mode == "analyze":
        if args.input is None:
            raise PreconditionError("--mode analyze needs --input, a sample file")
        f = FunctionSample.load(args.input)
        coefs = analyze(f, sysw, window)
        written = {}
        for lam, tf in coefs.items():
            name = f"{args.out_prefix}.lam{''.join(map(str, lam))}.csv"
            with open(name, "w") as fh:
                fh.write(tf.to_csv())
            written[str(lam)] = name
        return {"parseval": parseval_report(f, coefs), "files": written}
    coefs = {}
    for pair in args.coeffs:
        lam_text, _, path = pair.partition("=")
        if not (re.fullmatch(f"[01]{{{window.n}}}", lam_text) and path):
            raise PreconditionError(f"bad --coeffs pair {pair!r}; expected channel=file with "
                                    f"a channel of {window.n} digits 0 or 1")
        lam = tuple(int(c) for c in lam_text)
        if lam in coefs:
            raise PreconditionError(f"--coeffs pair {pair!r} repeats channel {lam_text}")
        with open(path) as fh:
            coefs[lam] = CoeffField.from_csv(fh.read(), window, args.m)
    start, shape = grid_cells(window.lo, window.hi, args.grid_level, "synthesis grid",
                              "window box")
    out = synthesize(coefs, sysw, args.grid_level, start, shape, args.m)
    out.save(args.output)
    return {"written": args.output}


def cmd_trace(args) -> dict:
    sp = _load_space(args.space)
    window = parse_window(args.window)
    tp = TracePair(daubechies_filter(args.filter_order), window.n, args.resolution)
    # W weighs the window, V its base window, one dimension lower
    W = _load_weight(args.weightW, "--weightW", window.n)
    V = _load_weight(args.weightV, "--weightV", window.n - 1)
    f = FunctionSample.load(args.source)
    coefs = analyze(f, tp.source, window)
    traced = trace_coeffs(tp, coefs)
    sp_t = target_params(sp, window.n)
    bw = base_window(window)
    src = channel_norm(coefs, W, sp)
    tgt = channel_norm(traced, V, sp_t)
    quad = QuadratureSpec.parse(args.quad)
    c116, c127 = weight_compat_check(V, W, sp.p, bw, quad)
    return {
        "space": sp.to_dict(),
        "target_space": sp_t.to_dict(),
        "source_norm": src,
        "target_norm": tgt,
        "ratio": tgt / src if src > 0 else None,
        "compat_C116": c116,
        "compat_C127": c127,
    }


def cmd_adprobe(args) -> dict:
    sp = _load_space(args.space)
    di = derived_indices(sp, args.n, args.d)
    region = ad_region(di, args.n)
    if args.DEF:
        D, E, F = _parse_list(args.DEF, "--DEF", float, "three numbers D,E,F", 3)
    else:
        D, E, F = region.point_inside(args.margin)
    depths = _parse_list(args.depths, "--depths", int, "comma-separated integers")
    rep = empirical_norm(ADMatrix.model(D, E, F), sp, depths=tuple(depths),
                         n=args.n, seed=args.seed)
    cs = region.check(D, E, F)
    return {
        "space": sp.to_dict(), "DEF": [D, E, F],
        "region": cs.to_dict(),
        "probe": rep,
    }


def cmd_molcheck(args) -> dict:
    cube = parse_cube(args.cube)
    grid = ValidationGrid(args.extent, args.points)
    if args.kind == "atom":
        cand = make_atom(cube, args.r, args.L, args.N)
        rep = validate_atom(cand, cube, args.r, args.L, args.N, grid)
    else:
        c = np.array(cube.center)
        s = cube.side

        def gauss(pts):
            r2 = np.sum(((pts - c) / s) ** 2, axis=-1)
            return cube.volume ** -0.5 * np.exp(-r2)

        # the built-in prototype carries no derivative evaluators, so the
        # smoothness order is capped at the size condition
        cand = MoleculeCandidate(cube, gauss, max_order=0, label="gaussian")
        rep = validate_molecule(cand, args.K, args.L, args.M, min(args.N, 0.0), grid)
    return {"report": rep.to_dict()}


def cmd_czkcheck(args) -> dict:
    K = kernel_by_name(args.kernel)
    rep = czk_check(K, args.E, args.F, args.sigma)
    inter = intermediate_derivative_check(K, args.F) if args.intermediate else None
    return {
        "classification": classify_factorization(args.E, args.F, args.sigma),
        "check": rep,
        "intermediate": inter,
    }


def cmd_weights(args) -> dict:
    if args.max_ops < 0:
        raise PreconditionError(f"--max-ops must be nonnegative; got {args.max_ops}")
    window = parse_window(args.window)
    W = _load_weight(args.weight, "--weight", window.n)
    quad = QuadratureSpec.parse(args.quad)
    # one table: each node is evaluated and each distinct value factored once
    table = WeightTable(W)
    out = {"characteristic": ap_characteristic(W, args.p, window, quad, table)}
    if args.dimension:
        d_est, rep = ap_dimension_estimate(W, args.p, window, quad, table=table)
        out["dimension_estimate"] = d_est
        out["dimension_report"] = rep
    if args.reducing:
        fam = ReducingFamily.build(W, args.p, window, quad, table)
        # fam.ops runs in window.all_cubes() order
        out["reducing_operators"] = {
            str(q): A for q, A in zip(window.all_cubes(), fam.ops[: args.max_ops])
        }
        out["fit"] = fam.fit_report()
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dyadica",
                                description="desk-scale dyadic analysis toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", help="derived-index table for a parameter tuple")
    sp.add_argument("--space", required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--d", type=float, default=0.0)
    sp.set_defaults(fn=cmd_params)

    sn = sub.add_parser("norm", help="sequence norm of a coefficient file")
    sn.add_argument("--coeffs", required=True)
    sn.add_argument("--space", required=True)
    sn.add_argument("--weight")
    sn.add_argument("--window", required=True)
    sn.add_argument("--m", type=int, default=1)
    sn.add_argument("--grid-extra", type=int, default=2)
    sn.set_defaults(fn=cmd_norm)

    st = sub.add_parser("transform", help="wavelet analysis / synthesis")
    st.add_argument("--mode", choices=("analyze", "synthesize"), required=True)
    st.add_argument("--filter-order", type=int, default=4)
    st.add_argument("--resolution", type=int, default=12)
    st.add_argument("--window", required=True)
    st.add_argument("--input")
    st.add_argument("--out-prefix", default="coeffs")
    st.add_argument("--coeffs", nargs="*", default=[],
                    help="channel=file pairs for synthesis, e.g. 10=c.csv")
    st.add_argument("--m", type=int, default=1)
    st.add_argument("--grid-level", type=int, default=8)
    st.add_argument("--output", default="synthesis.npz")
    st.set_defaults(fn=cmd_transform)

    tr = sub.add_parser("trace", help="trace run with weight compatibility")
    tr.add_argument("--filter-order", type=int, default=3)
    tr.add_argument("--resolution", type=int, default=12)
    tr.add_argument("--source", required=True)
    tr.add_argument("--weightW", required=True)
    tr.add_argument("--weightV", required=True)
    tr.add_argument("--space", required=True)
    tr.add_argument("--window", required=True)
    tr.add_argument("--quad", default="4:2")
    tr.set_defaults(fn=cmd_trace)

    ap = sub.add_parser("adprobe", help="decay-matrix boundedness probe")
    ap.add_argument("--space", required=True)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--d", type=float, default=0.0)
    ap.add_argument("--DEF", help="explicit D,E,F triple")
    ap.add_argument("--margin", type=float, default=0.1)
    ap.add_argument("--depths", default="3,4,5")
    ap.add_argument("--seed", type=int, default=0)
    ap.set_defaults(fn=cmd_adprobe)

    mc = sub.add_parser("molcheck", help="validate a candidate against molecule conditions")
    mc.add_argument("--kind", choices=("atom", "gaussian"), default="atom")
    mc.add_argument("--cube", default="0:0")
    mc.add_argument("--r", type=float, default=2.0)
    mc.add_argument("--K", type=float, default=3.0)
    mc.add_argument("--L", type=float, default=0.0)
    mc.add_argument("--M", type=float, default=3.0)
    mc.add_argument("--N", type=float, default=1.0)
    mc.add_argument("--extent", type=float, default=8.0)
    mc.add_argument("--points", type=int, default=16)
    mc.set_defaults(fn=cmd_molcheck)

    ck = sub.add_parser("czkcheck", help="kernel condition checker")
    ck.add_argument("--kernel", required=True)
    ck.add_argument("--E", type=float, required=True)
    ck.add_argument("--F", type=float, required=True)
    ck.add_argument("--sigma", type=int, default=0, choices=(0, 1))
    ck.add_argument("--intermediate", action="store_true")
    ck.set_defaults(fn=cmd_czkcheck)

    wt = sub.add_parser("weights", help="averaging characteristic and reducing operators")
    wt.add_argument("--weight", required=True)
    wt.add_argument("--p", type=float, required=True)
    wt.add_argument("--window", required=True)
    wt.add_argument("--quad", default="4:2")
    wt.add_argument("--dimension", action="store_true")
    wt.add_argument("--reducing", action="store_true")
    wt.add_argument("--max-ops", type=int, default=16)
    wt.set_defaults(fn=cmd_weights)

    for s in (sp, sn, st, tr, ap, mc, ck, wt):
        s.add_argument("--out", help="write the JSON report to this path")
    return p


# Built once at import: parsing leaves it unchanged, and building takes ms.
PARSER = build_parser()


def _join_negative_values(argv: list[str]) -> list[str]:
    """Attach a value that starts with a negative level, such as the window
    ``-1:3:-4..2`` or the cube ``-2:0``, to the option before it: argparse
    reads any other token that starts with ``-`` as an option."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-\d+:", arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = PARSER.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        report = {"tool": "dyadica", "version": __version__, "config": _config(args),
                  **args.fn(args)}
        _emit(report, args)
    except PreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:  # each path a subcommand opens is one of its arguments
        print(f"refused: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - classify unexpected failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
