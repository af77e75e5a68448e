"""Command-line front end: solvers, the benchmark table, envelope validation.

Output contract: the machine-readable report goes to stdout (JSON by
default), diagnostics go to stderr, and the exit code is the only failure
channel: 0 success, 1 usage, 2 precondition or parameter errors, 3 envelope
violation (or a failed validation).  Floats in JSON are serialized with 17
significant digits so reruns are bit-comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import shutil
import sys
import tempfile
import time
from dataclasses import asdict
from typing import Callable, NamedTuple

from .core import (
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
    return adapter.source, adapter.envelope(args.envelope)


def _fibonacci(args):
    adapter = FibonacciRatioAdapter(args.u0, args.u1)
    return adapter.source, adapter.env


def _logistic(args):
    adapter = LogisticAdapter(args.r, args.y0)
    return adapter.source, adapter.env


def _linsys(args):
    return linsys.a_lambda_problem(args.lam, args.d, args.q, args.generic)[1:]


# (report key, flags, add_argument kwargs); args holds the value under the key
# or under kwargs["dest"].
_Flag = tuple[str, tuple[str, ...], dict]


class _Adapter(NamedTuple):
    params: list[_Flag]  # also the report's `parameters`, in this order
    horizon: int  # default validation horizon
    build: Callable  # args -> (source, envelope)


# Every adapter with a certified envelope; both `solve` and `validate` are
# wired from this table.  Syracuse has no envelope and its own flag lists.
_ADAPTERS = {
    "factorial": _Adapter(
        [("a", ("--a",), {"type": int, "required": True}),
         ("envelope", ("--envelope",), {"choices": ["sequence", "constant"], "default": "sequence"})],
        100, _factorial),
    "fibonacci": _Adapter(
        [("u0", ("--u0",), {"type": int, "required": True}),
         ("u1", ("--u1",), {"type": int, "required": True})],
        40, _fibonacci),
    "logistic": _Adapter(
        [("r", ("--r",), {"type": float, "required": True}),
         ("y0", ("--y0",), {"type": float, "required": True})],
        100, _logistic),
    "linsys": _Adapter(
        [("lambda", ("--lam", "--lambda"), {"dest": "lam", "type": float, "required": True}),
         ("d", ("--d",), {"type": int, "default": 2}),
         ("q", ("--q",), {"type": float, "default": None}),
         ("generic", ("--generic",), {"action": "store_true",
                                      "help": "use the generic matrix-power kernel and the anchored "
                                              "envelope instead of the closed form"})],
        50, _linsys),
}

_N0: _Flag = ("n0", ("--n0",), {"type": int, "required": True})
_SYRACUSE_SOLVE = [_N0, ("max_steps", ("--max-steps",), {"type": int, "default": 1_000_000})]
_SYRACUSE_VALIDATE = [_N0, *((x, (f"--{x}",), {"type": float, "required": True}) for x in "abc"),
                      ("horizon", ("--horizon",), {"type": int, "required": True})]


def _lambda_list(text: str) -> list[float]:
    """The `--lambdas` type: comma-separated floats, blank entries skipped."""
    lambdas = []
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            lambdas.append(float(part))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid lambda {part!r}") from None
    if not lambdas:
        raise argparse.ArgumentTypeError("empty lambda list")
    return lambdas


_FORMAT: _Flag = ("format", ("--format",), {"choices": ["json", "text"], "default": "json"})
_SOLVER_FLAGS = [
    ("tie", ("--tie",), {"choices": ["min", "max"], "default": "min",
                         "help": "which maximizer to report on ties"}),
    ("trace", ("--trace",), {"action": "store_true",
                             "help": "add one entry per scanned index to the report's one JSON "
                                     "line, u_k null where the term was screened (off by default)"}),
    _FORMAT,
]
_TABLE_FLAGS = [
    ("lambdas", ("--lambdas", "--lambda"),
     {"type": _lambda_list, "default": linsys.TABLE_LAMBDAS,
      "help": "comma-separated lambda values (default: the 8 benchmark values)"}),
    *_ADAPTERS["linsys"].params[1:],  # --d, --q, --generic
    ("format", ("--format",), {"choices": ["json", "csv"], "default": "json"}),
]


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


class _TraceSpool:
    """The `--trace` hook: one entry per scanned index, held out of memory.

    For JSON each entry is serialized as it arrives to ``fh``, an anonymous
    temporary file, and :func:`_print_report` copies the entries out after
    the solution, so a long scan's trace costs flat memory and the bytes are
    those of the entries as a list.  With ``fh`` None (``--format text``,
    which shows only the count) the entries are only counted.
    """

    def __init__(self, fh) -> None:
        self.fh = fh
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def __call__(self, k: int, u_k: float | None, bound: UpperBoundValue | None,
                 running_k: int | None) -> None:
        if self.fh is not None:
            if bound is None:
                encoded = None
            elif bound.is_finite:
                encoded = bound.value
            else:
                encoded = "inf"
            entry = _dumps({"k": k, "u_k": u_k, "bound": encoded, "K": running_k})
            self.fh.write(f", {entry}" if self.count else entry)
        self.count += 1

    def copy_to(self, out) -> None:
        out.write("[")
        self.fh.seek(0)
        shutil.copyfileobj(self.fh, out)
        out.write("]")


def _print_report(args, argv: list[str], body: dict) -> None:
    """One `solve` or `validate` report: the command and adapter, then ``body``."""
    report = {"command": " ".join(argv), "adapter": args.adapter, **body}
    if args.format == "json":
        # _dumps of the dict, key by key, so that a spooled trace is copied
        # out in place instead of read back into one string.
        out = sys.stdout
        sep = ""
        out.write("{")
        for key, value in report.items():
            out.write(f"{sep}{json.dumps(str(key))}: ")
            if isinstance(value, _TraceSpool):
                value.copy_to(out)
            else:
                out.write(_dumps(value))
            sep = ", "
        out.write("}\n")
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k2, v2 in value.items():
                print(f"  {k2}: {v2}")
        elif isinstance(value, (list, _TraceSpool)):
            print(f"{key}: [{len(value)} entries]")
            if key == "findings":  # at most ten; a trace is only counted
                for entry in value:
                    print("  " + ", ".join(f"{k2}: {v2}" for k2, v2 in entry.items()))
        else:
            print(f"{key}: {value}")


def _run_solve(args, argv: list[str]) -> int:
    started = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if args.adapter == "syracuse":
            params = _SYRACUSE_SOLVE
            mx, arg, cycled = syracuse_excursion(args.n0, args.max_steps)
            result = {"excursion": {"max": mx, "argmax_min": arg, "reached_cycle": cycled}}
        else:
            trace = None
            if args.trace:
                spool = stack.enter_context(tempfile.TemporaryFile("w+")) if args.format == "json" else None
                trace = _TraceSpool(spool)
            adapter = _ADAPTERS[args.adapter]
            params = adapter.params
            sol = solve(*adapter.build(args), tie=Tie(args.tie), on_step=trace)
            result = {"solution": asdict(sol), "trace": trace}
        parameters = {key: getattr(args, kwargs.get("dest", key)) for key, _, kwargs in params}
        _print_report(args, argv, {"parameters": parameters, **result,
                                   "elapsed_seconds": time.perf_counter() - started})
    return EXIT_OK


def _run_table(args, argv: list[str]) -> int:
    rows = linsys.table_run(args.lambdas, d=args.d, q=args.q, generic=args.generic)
    if args.format == "csv":
        print("lambda,k_s,max_norm_sq,f_floor",
              *(f"{r.lam:.6g},{r.k_s},{r.max_norm_sq:.6g},{r.f_floor}" for r in rows), sep="\n")
    else:
        print(_dumps([{"lambda": r.lam, "k_s": r.k_s, "max_norm_sq": r.max_norm_sq, "f_floor": r.f_floor}
                      for r in rows]))
    return EXIT_OK


def _run_validate(args, argv: list[str]) -> int:
    if args.adapter == "syracuse":
        check = collatz_envelope_check(args.n0, args.a, args.b, args.c, args.horizon)
        passed = check.consistent
        body = {**asdict(check), "horizon": args.horizon}
    else:
        source, env = _ADAPTERS[args.adapter].build(args)
        findings = validate_envelope(source, env, args.horizon)
        passed = not findings
        body = {"clean": passed, "horizon": args.horizon,
                "findings": [asdict(f) for f in findings[:10]], "finding_count": len(findings)}
    _print_report(args, argv, body)
    return EXIT_OK if passed else EXIT_VIOLATION


def _add_flags(parser: argparse.ArgumentParser, flags: list[_Flag]) -> None:
    for _, names, kwargs in flags:
        parser.add_argument(*names, **kwargs)


@functools.cache
def build_parser() -> _Parser:
    """The `peakseq` parser, built once per process and shared: do not mutate it.

    It holds no per-call state: every input of a run comes from its argv.
    """
    parser = _Parser(prog="peakseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p_solve = sub.add_parser("solve", help="compute the peak of a bundled sequence")
    solve_sub = p_solve.add_subparsers(dest="adapter", required=True, parser_class=_Parser)
    _add_flags(sub.add_parser("table", help="benchmark rows for the lambda*Id + U family"),
               _TABLE_FLAGS)
    p_val = sub.add_parser("validate", help="check an envelope against its sequence on a horizon")
    val_sub = p_val.add_subparsers(dest="adapter", required=True, parser_class=_Parser)

    for name, adapter in _ADAPTERS.items():
        _add_flags(solve_sub.add_parser(name), adapter.params + _SOLVER_FLAGS)
        horizon = ("horizon", ("--horizon",), {"type": int, "default": adapter.horizon})
        _add_flags(val_sub.add_parser(name), adapter.params + [horizon, _FORMAT])
    _add_flags(solve_sub.add_parser("syracuse"), _SYRACUSE_SOLVE + [_FORMAT])
    _add_flags(val_sub.add_parser("syracuse", help="finite-horizon geometric-bound check"),
               _SYRACUSE_VALIDATE + [_FORMAT])
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
