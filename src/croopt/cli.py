"""Command-line interface: run experiments, verify benchmark data, list assets.

Exit code 0 on success; on any failure, usage errors included, a single
machine-readable JSON error line is printed to stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .algorithms import Variant, default_config
from .benchmarks import (
    DEFAULT_TRANSFORM_SEED,
    FUNCTION_TABLE,
    evaluate_benchmark,
    instance_from_cec_dir,
    make_instance,
    optimal_point,
    schwefel_2_26,
    u_penalty,
)
from .errors import InvalidConfig
from .harness import emit_results, run_experiment

#: Everything except the truncated-constant pair must hit its optimum almost
#: exactly; f13/f14 carry a ~1.3e-5 per-dimension constant offset.
GOLDEN_TOL = 1e-6
GOLDEN_TOL_SCHWEFEL226 = 1e-3


def _grid_list(text, every):
    if text.strip().lower() == "all":
        return list(every)
    return [token.strip() for token in text.split(",") if token.strip()]


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that they reach ``main``'s one error line."""

    def error(self, message):
        raise InvalidConfig(message)


def _build_parser():
    parser = _Parser(
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
    transforms = run.add_mutually_exclusive_group()
    transforms.add_argument("--cec-data", default=None,
                            help="directory of raw f{k}_shift.txt / f{k}_M.txt files")
    transforms.add_argument("--transform-seed", type=int, default=DEFAULT_TRANSFORM_SEED)

    verify = sub.add_parser("verify-benchmarks",
                            help="golden-value checks for all 24 functions")
    verify.add_argument("--dim", type=int, default=30)
    verify.add_argument("--transform-seed", type=int, default=DEFAULT_TRANSFORM_SEED)

    sub.add_parser("list", help="enumerate algorithms and benchmark functions")
    return parser


def _cmd_run(args):
    configs = [default_config(v, args.max_fes) for v in _grid_list(args.algo, Variant)]
    functions = _grid_list(args.func, (d.id for d in FUNCTION_TABLE))
    if args.cec_data is not None:
        instances = [instance_from_cec_dir(f, args.dim, args.cec_data) for f in functions]
    else:
        instances = [make_instance(f, args.dim, args.transform_seed) for f in functions]
    out_dir = Path(args.out)
    partial_path = out_dir / "records.partial.jsonl"
    first = True

    def keep(record):
        # The first finished run creates --out: run_experiment checks the
        # whole grid before any run starts, so a rejected grid writes nothing.
        nonlocal first
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(partial_path, "w" if first else "a", encoding="utf-8") as partial:
            partial.write(record.to_json() + "\n")
        first = False

    summary, records = run_experiment(
        configs,
        instances,
        runs=args.runs,
        base_seed=args.seed,
        parallelism=args.parallel,
        record_sink=keep,
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
        residual = evaluate_benchmark(inst, optimal_point(inst))
        all_ok &= _verify_line(
            inst.label, abs(residual) < tol, f"optimum residual {residual:.3e}"
        )
        # make_instance checks rotations; a rotated optimum may leave the box.
        if fdef.shifted and not fdef.rotated:
            x_star = optimal_point(inst)
            inside = bool(np.all((inst.lower <= x_star) & (x_star <= inst.upper)))
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
    for variant in Variant:
        print(f"  {variant.value}")
    print("functions:")
    for fdef in FUNCTION_TABLE:
        print(f"  f{fdef.id}  {fdef.name}")
    return 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
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
