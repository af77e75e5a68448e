"""Command-line front end: solvers, the benchmark table, envelope validation.

Output contract: the machine-readable report goes to stdout (JSON by
default), diagnostics go to stderr, and the exit code is the only failure
channel: 0 success, 1 usage, 2 precondition or parameter errors, 3 envelope
violation (or a failed validation).  Floats in JSON are serialized with 17
significant digits so reruns are bit-comparable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict
from typing import Callable, NamedTuple

from .core import (
    DEFAULT_SCAN_LIMIT,
    EnvelopeViolation,
    PeakseqError,
    Tie,
    UpperBoundValue,
    solve,
    validate_envelope,
)
from .sequences import (
    FactorialRatioAdapter,
    FibonacciRatioAdapter,
    LogisticAdapter,
    collatz_envelope_check,
    syracuse_excursion,
)
from . import linsys

SCAN_LIMIT_ENV = "PEAKSEQ_SCAN_LIMIT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    # Argparse exits 2 on usage errors by default; the contract wants 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _factorial(args):
    adapter = FactorialRatioAdapter(args.a)
    env = adapter.const_env if args.envelope == "constant" else adapter.seq_env
    return adapter.source, env, {"a": args.a, "envelope": args.envelope}


def _fibonacci(args):
    adapter = FibonacciRatioAdapter(args.u0, args.u1)
    return adapter.source, adapter.env, {"u0": args.u0, "u1": args.u1}


def _logistic(args):
    adapter = LogisticAdapter(args.r, args.y0)
    return adapter.source, adapter.env, {"r": args.r, "y0": args.y0}


def _linsys(args):
    _, source, env = linsys.a_lambda_problem(args.lam, args.d, args.q, args.generic)
    return source, env, {"lambda": args.lam, "d": args.d, "q": args.q, "generic": args.generic}


class _Adapter(NamedTuple):
    params: list[tuple[tuple[str, ...], dict]]  # add_argument(*flags, **kwargs) pairs
    horizon: int  # default validation horizon
    build: Callable  # args -> (source, envelope, report parameters)


# Every adapter with a certified envelope; both `solve` and `validate` are
# wired from this table.  Syracuse has no envelope and is wired by hand.
_ADAPTERS = {
    "factorial": _Adapter(
        [(("--a",), {"type": int, "required": True}),
         (("--envelope",), {"choices": ["sequence", "constant"], "default": "sequence"})],
        100, _factorial),
    "fibonacci": _Adapter(
        [(("--u0",), {"type": int, "required": True}),
         (("--u1",), {"type": int, "required": True})],
        40, _fibonacci),
    "logistic": _Adapter(
        [(("--r",), {"type": float, "required": True}),
         (("--y0",), {"type": float, "required": True})],
        100, _logistic),
    "linsys": _Adapter(
        [(("--lam", "--lambda"), {"dest": "lam", "type": float, "required": True}),
         (("--d",), {"type": int, "default": 2}),
         (("--q",), {"type": float, "default": None}),
         (("--generic",), {"action": "store_true",
                           "help": "use the generic matrix-power kernel and the anchored envelope "
                                   "instead of the closed form"})],
        50, _linsys),
}


def _dumps(value) -> str:
    """JSON with floats at 17 significant digits."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise PeakseqError(f"non-finite float in report: {value!r}")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_dumps(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_dumps(v)}" for k, v in value.items()) + "}"
    raise PeakseqError(f"unserializable value: {value!r}")


def scan_limit_from_env() -> int:
    raw = os.environ.get(SCAN_LIMIT_ENV)
    if raw is None:
        return DEFAULT_SCAN_LIMIT
    try:
        limit = int(raw)
        if limit < 1:
            raise ValueError
    except ValueError:
        raise SystemExit(
            f"peakseq: error: {SCAN_LIMIT_ENV}={raw!r} is not a positive integer"
        ) from None
    return limit


def _trace_recorder(trace: list):
    def on_step(k: int, u_k: float, bound: UpperBoundValue | None, running_k: int | None):
        if bound is None:
            encoded = None
        elif bound.is_finite:
            encoded = bound.value
        else:
            encoded = "inf"
        trace.append({"k": k, "u_k": u_k, "bound": encoded, "K": running_k})

    return on_step


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(report))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k2, v2 in value.items():
                print(f"  {k2}: {v2}")
        elif isinstance(value, list):
            print(f"{key}: [{len(value)} entries]")
            if key == "findings":  # at most ten; a trace is only counted
                for entry in value:
                    print("  " + ", ".join(f"{k2}: {v2}" for k2, v2 in entry.items()))
        else:
            print(f"{key}: {value}")


def _print_adapter_report(args, argv: list[str], body: dict) -> None:
    _print_report({"command": " ".join(argv), "adapter": args.adapter, **body}, args.format)


def _run_solve(args, argv: list[str]) -> int:
    started = time.perf_counter()
    if args.adapter == "syracuse":
        mx, arg, cycled = syracuse_excursion(args.n0, args.max_steps)
        body = {
            "parameters": {"n0": args.n0, "max_steps": args.max_steps},
            "excursion": {"max": mx, "argmax_min": arg, "reached_cycle": cycled},
        }
    else:
        scan_limit = scan_limit_from_env()
        trace: list | None = [] if args.trace else None
        source, env, params = _ADAPTERS[args.adapter].build(args)
        sol = solve(source, env, tie=Tie(args.tie), scan_limit=scan_limit,
                    on_step=None if trace is None else _trace_recorder(trace))
        body = {"parameters": params, "solution": asdict(sol), "trace": trace}
    body["elapsed_seconds"] = time.perf_counter() - started
    _print_adapter_report(args, argv, body)
    return EXIT_OK


def _run_table(args, argv: list[str]) -> int:
    if args.lambdas is None:
        lambdas = list(linsys.TABLE_LAMBDAS)
    else:
        parts = [p for p in args.lambdas.split(",") if p.strip()]
        if not parts:
            print("peakseq table: error: empty lambda list", file=sys.stderr)
            return EXIT_USAGE
        lambdas = []
        for p in parts:
            try:
                lambdas.append(float(p))
            except ValueError:
                print(f"peakseq table: error: invalid lambda {p.strip()!r}", file=sys.stderr)
                return EXIT_USAGE
    rows = linsys.table_run(lambdas, d=args.d, q=args.q, generic=args.generic)
    if args.format == "csv":
        sys.stdout.write(linsys.rows_to_csv(rows))
    else:
        print(_dumps(linsys.rows_to_json_obj(rows)))
    return EXIT_OK


def _run_validate(args, argv: list[str]) -> int:
    if args.adapter == "syracuse":
        check = collatz_envelope_check(args.n0, args.a, args.b, args.c, args.horizon)
        passed = check.consistent
        body = {**asdict(check), "horizon": args.horizon}
    else:
        source, env, _ = _ADAPTERS[args.adapter].build(args)
        findings = validate_envelope(source, env, args.horizon)
        passed = not findings
        body = {
            "clean": passed,
            "horizon": args.horizon,
            "findings": [asdict(f) for f in findings[:10]],
            "finding_count": len(findings),
        }
    _print_adapter_report(args, argv, body)
    return EXIT_OK if passed else EXIT_VIOLATION


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tie", choices=["min", "max"], default="min",
                        help="which maximizer to report on ties")
    parser.add_argument("--trace", action="store_true",
                        help="record one entry per evaluated term (off by default; long runs emit many lines)")
    parser.add_argument("--format", choices=["json", "text"], default="json")


@functools.cache
def build_parser() -> _Parser:
    """The `peakseq` parser, built once per process and shared: do not mutate it.

    It holds no per-call state; the scan limit is read from the environment
    when `solve` runs.
    """
    parser = _Parser(prog="peakseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="compute the peak of a bundled sequence")
    solve_sub = p_solve.add_subparsers(dest="adapter", required=True, parser_class=_Parser)

    p = sub.add_parser("table", help="benchmark rows for the lambda*Id + U family")
    p.add_argument("--lambdas", "--lambda", dest="lambdas", type=str, default=None,
                   help="comma-separated lambda values (default: the 8 benchmark values)")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--generic", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p_val = sub.add_parser("validate", help="check an envelope against its sequence on a horizon")
    val_sub = p_val.add_subparsers(dest="adapter", required=True, parser_class=_Parser)

    for name, adapter in _ADAPTERS.items():
        p_s, p_v = solve_sub.add_parser(name), val_sub.add_parser(name)
        for flags, kwargs in adapter.params:
            p_s.add_argument(*flags, **kwargs)
            p_v.add_argument(*flags, **kwargs)
        _add_common(p_s)
        p_v.add_argument("--horizon", type=int, default=adapter.horizon)
        p_v.add_argument("--format", choices=["json", "text"], default="json")

    p = solve_sub.add_parser("syracuse")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = val_sub.add_parser("syracuse", help="finite-horizon geometric-bound check")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    run = {"solve": _run_solve, "table": _run_table, "validate": _run_validate}[args.command]
    try:
        return run(args, argv)
    except EnvelopeViolation as exc:
        print(f"peakseq: envelope violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (PeakseqError, OverflowError) as exc:
        print(f"peakseq: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
