"""Command-line front end: parameter tables, norms, transforms, trace runs,
probe suites, and checker reports.

All structured output is JSON with sorted keys; bulk data moves through CSV
(coefficients) and npz (samples).  Reports embed the resolved configuration
and the tool version, and runs are deterministic under a fixed seed.
Exit codes: 0 success, 2 precondition refusal, 1 internal error.
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
from .dyadic import LatticeWindow, parse_cube
from .errors import DyadicaError, PreconditionError
from .molecules import ValidationGrid, make_atom, validate_atom, validate_molecule
from .params import SpaceParams, ad_region, derived_indices, derived_table
from .seq import CoeffField, seq_norm_weighted
from .trace import TracePair, base_window, trace_coeffs, weight_compat_check
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


def _load_space(path: str) -> SpaceParams:
    with open(path) as fh:
        return SpaceParams.from_json(fh.read())


def _load_weight(path: str) -> MatrixWeight:
    with open(path) as fh:
        return MatrixWeight.from_json(fh.read(), os.path.dirname(os.path.abspath(path)))


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
    if isinstance(obj, tuple):
        return list(obj)
    return str(obj)


def _config(args) -> dict:
    """The parsed arguments, without the subcommand's function object (its
    repr holds a memory address that changes from run to run)."""
    return {k: v for k, v in vars(args).items() if k != "fn"}


# ---------------------------------------------------------------------------
# subcommands

def cmd_params(args) -> dict:
    sp = _load_space(args.space)
    return {"config": {"space": sp.to_dict(), "n": args.n, "d": args.d},
            "table": derived_table(sp, args.n, args.d)}


def cmd_norm(args) -> dict:
    sp = _load_space(args.space)
    window = parse_window(args.window)
    with open(args.coeffs) as fh:
        t = CoeffField.from_csv(fh.read(), window, args.m)
    W = _load_weight(args.weight) if args.weight else MatrixWeight.identity(args.m, window.n)
    res = seq_norm_weighted(t, W, sp, args.grid_extra)
    return {"config": {"space": sp.to_dict(), "window": args.window, "m": args.m},
            "norm": res.to_dict()}


def cmd_transform(args) -> dict:
    window = parse_window(args.window)
    sysw = WaveletSystem(window.n, daubechies_filter(args.filter_order), args.resolution)
    if args.mode == "analyze":
        f = FunctionSample.load(args.input)
        coefs = analyze(f, sysw, window)
        written = {}
        for lam, tf in coefs.items():
            name = f"{args.out_prefix}.lam{''.join(map(str, lam))}.csv"
            with open(name, "w") as fh:
                fh.write(tf.to_csv())
            written[str(lam)] = name
        return {"config": _config(args),
                "parseval": parseval_report(f, coefs),
                "files": written}
    coefs = {}
    for lam_text, path in (pair.split("=") for pair in args.coeffs):
        lam = tuple(int(c) for c in lam_text)
        with open(path) as fh:
            coefs[lam] = CoeffField.from_csv(fh.read(), window, args.m)
    start = tuple(int(v) << args.grid_level for v in window.lo)
    shape = tuple((b - a) << args.grid_level for a, b in zip(window.lo, window.hi))
    out = synthesize(coefs, sysw, args.grid_level, start, shape, args.m)
    out.save(args.output)
    return {"config": _config(args), "written": args.output}


def cmd_trace(args) -> dict:
    sp = _load_space(args.space)
    W = _load_weight(args.weightW)
    V = _load_weight(args.weightV)
    window = parse_window(args.window)
    tp = TracePair(args.filter_order, window.n, args.resolution)
    f = FunctionSample.load(args.source)
    coefs = analyze(f, tp.source, window)
    traced = trace_coeffs(tp, coefs)
    from .trace import target_params
    sp_t = target_params(sp, window.n)
    bw = base_window(window)
    src = sum(seq_norm_weighted(tf, W, sp).value for tf in coefs.values())
    tgt = sum(seq_norm_weighted(tf, V, sp_t).value for tf in traced.values())
    quad = QuadratureSpec.parse(args.quad)
    c116, c127 = weight_compat_check(V, W, sp.p, bw, quad)
    return {
        "config": {"space": sp.to_dict(), "window": args.window,
                   "filter_order": args.filter_order},
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
        D, E, F = (float(v) for v in args.DEF.split(","))
    else:
        D, E, F = region.point_inside(args.margin)
    rep = empirical_norm(ADMatrix.model(D, E, F), sp,
                         depths=tuple(int(d) for d in args.depths.split(",")),
                         n=args.n, seed=args.seed)
    cs = region.check(D, E, F)
    return {
        "config": {"space": sp.to_dict(), "n": args.n, "d": args.d,
                   "DEF": [D, E, F], "seed": args.seed},
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

        from .molecules import MoleculeCandidate
        # the built-in prototype carries no derivative evaluators, so the
        # smoothness order is capped at the size condition
        cand = MoleculeCandidate(cube, gauss, max_order=0, label="gaussian")
        rep = validate_molecule(cand, args.K, args.L, args.M, min(args.N, 0.0), grid)
    return {"config": _config(args), "report": rep.to_dict()}


def cmd_czkcheck(args) -> dict:
    K = kernel_by_name(args.kernel)
    rep = czk_check(K, args.E, args.F, args.sigma)
    inter = intermediate_derivative_check(K, args.F) if args.intermediate else None
    return {
        "config": {"kernel": args.kernel, "E": args.E, "F": args.F, "sigma": args.sigma},
        "classification": classify_factorization(args.E, args.F, args.sigma),
        "check": rep,
        "intermediate": inter,
    }


def cmd_weights(args) -> dict:
    W = _load_weight(args.weight)
    window = parse_window(args.window)
    quad = QuadratureSpec.parse(args.quad)
    char = ap_characteristic(W, args.p, window, quad)
    out = {"config": {"p": args.p, "window": args.window, "quad": args.quad},
           "characteristic": char}
    if args.dimension:
        d_est, rep = ap_dimension_estimate(W, args.p, window, quad)
        out["dimension_estimate"] = d_est
        out["dimension_report"] = rep
    if args.reducing:
        fam = ReducingFamily.build(W, args.p, window, quad)
        out["reducing_operators"] = {
            str(q): fam[q] for q in list(window.all_cubes())[: args.max_ops]
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
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        report = {"tool": "dyadica", "version": __version__, "threads": 1,
                  **args.fn(args)}
    except PreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except DyadicaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - classify unexpected failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
