"""Command-line interface: run experiments, verify benchmark data, list assets.

Exit code 0 on success; on failure a single machine-readable JSON error line
is printed to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .algorithms import VARIANT_ORDER, parse_variant
from .benchmarks import (
    DEFAULT_TRANSFORM_SEED,
    FUNCTION_TABLE,
    instance_from_cec_dir,
    make_instance,
    optimal_point,
    optimum_residual,
    schwefel_2_26,
    u_penalty,
)
from .harness import emit_results, run_experiment

#: Everything except the truncated-constant pair must hit its optimum almost
#: exactly; f13/f14 carry a ~1.3e-5 per-dimension constant offset.
GOLDEN_TOL = 1e-6
GOLDEN_TOL_SCHWEFEL226 = 1e-3


def _parse_algorithms(text):
    if text.strip().lower() == "all":
        return list(VARIANT_ORDER)
    return [parse_variant(token) for token in text.split(",") if token.strip()]


def _parse_functions(text):
    if text.strip().lower() == "all":
        return [f"f{d.id}" for d in FUNCTION_TABLE]
    return [token.strip() for token in text.split(",") if token.strip()]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="croopt",
        description="Chemical Reaction Optimization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment grid and write result files")
    run.add_argument("--algo", default="all", help="comma list of variants, or 'all'")
    run.add_argument("--func", default="all", help="comma list like f1,f3, or 'all'")
    run.add_argument("--dim", type=int, default=30)
    run.add_argument("--runs", type=int, default=51)
    run.add_argument("--max-fes", type=int, default=300_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--parallel", type=int, default=1)
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--cec-data", default=None,
                     help="directory of raw f{k}_shift.txt / f{k}_M.txt files")
    run.add_argument("--transform-seed", type=int, default=DEFAULT_TRANSFORM_SEED)

    verify = sub.add_parser("verify-benchmarks",
                            help="golden-value checks for all 24 functions")
    verify.add_argument("--dim", type=int, default=30)
    verify.add_argument("--transform-seed", type=int, default=DEFAULT_TRANSFORM_SEED)

    sub.add_parser("list", help="enumerate algorithms and benchmark functions")
    return parser


def _cmd_run(args):
    algorithms = _parse_algorithms(args.algo)
    if args.cec_data is not None:
        instances = [
            instance_from_cec_dir(fid, args.dim, args.cec_data)
            for fid in _parse_functions(args.func)
        ]
    else:
        instances = [
            make_instance(fid, args.dim, args.transform_seed)
            for fid in _parse_functions(args.func)
        ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    partial_path = out_dir / "records.partial.jsonl"
    with open(partial_path, "w", encoding="utf-8") as partial:
        summary, records = run_experiment(
            algorithms,
            instances,
            runs=args.runs,
            max_fes=args.max_fes,
            base_seed=args.seed,
            parallelism=args.parallel,
            record_sink=lambda record: partial.write(record.to_json() + "\n"),
        )
    written = emit_results(summary, records, out_dir)
    partial_path.unlink()
    for path in written:
        print(path)
    return 0


def _verify_line(label, ok, detail):
    print(f"{label}: {'ok' if ok else 'FAIL'} ({detail})")
    return ok


def _cmd_verify(args):
    all_ok = True
    for fdef in FUNCTION_TABLE:
        inst = make_instance(fdef.id, args.dim, args.transform_seed)
        tol = GOLDEN_TOL_SCHWEFEL226 if fdef.base is schwefel_2_26 else GOLDEN_TOL
        residual = optimum_residual(inst)
        all_ok &= _verify_line(
            inst.label, abs(residual) < tol, f"optimum residual {residual:.3e}"
        )
        if fdef.rotated:
            m = inst.transform.rotation
            ortho = float(np.max(np.abs(m.T @ m - np.eye(args.dim))))
            all_ok &= _verify_line(
                f"{inst.label} rotation", ortho < 1e-10, f"orthogonality {ortho:.3e}"
            )
        if fdef.shifted:
            x_star = optimal_point(inst)
            inside = bool(np.all(np.abs(x_star) <= 100.0)) or fdef.rotated
            all_ok &= _verify_line(
                f"{inst.label} optimum location",
                inside,
                f"max |x*| = {float(np.max(np.abs(x_star))):.2f}",
            )
    u_cases = (
        (6.0, 5.0, 100.0),
        (3.0, 5.0, 0.0),
        (-7.0, 5.0, 1600.0),
    )
    for x, a, expected in u_cases:
        got = u_penalty(np.array([x]), a)
        all_ok &= _verify_line(f"u({x:g},{a:g},100,4)", got == expected, f"= {got:g}")
    print("verify-benchmarks:", "ok" if all_ok else "FAILED")
    return 0 if all_ok else 1


def _cmd_list(_args):
    print("algorithms:")
    for variant in VARIANT_ORDER:
        print(f"  {variant.value}")
    print("functions:")
    for fdef in FUNCTION_TABLE:
        print(f"  f{fdef.id}  {fdef.name}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify-benchmarks":
            return _cmd_verify(args)
        return _cmd_list(args)
    except Exception as exc:  # every failure becomes the one JSON error line
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
