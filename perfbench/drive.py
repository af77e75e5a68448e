"""Issue workload items to peakseq and check the answers against references.

Table and validate items go through ``peakseq.cli.main`` with stdout
captured and parsed, as a user of the command line would see them.  Adapter
items call the library directly: ``solve(source, env)`` on objects built
beforehand, and ``syracuse_excursion``.  Every peakseq name is looked up on
its module at call time, so the traced pass sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json

from peakseq import algebra, cli, core, linsys, sequences

from items import PEAK_RTOL, cli_argv

LIBRARY_KINDS = ("fact-seq", "fact-const", "fact-bisect", "fact-promote", "fact-envmin",
                 "fib", "logistic", "syracuse")


def is_cli(item: dict) -> bool:
    return item["kind"] not in LIBRARY_KINDS


def _bisection_family(env):
    """The same family with every inverse replaced by numeric bisection."""
    return core.Envelope(
        h=lambda n: algebra.envelope_fn_from_forward(env.h(n).eval),
        beta=env.beta,
        mono=env.mono,
    )


def build(item: dict):
    """(source, envelope) for the item, built without evaluating any term.

    CLI items build the objects the command line builds for them; the
    Syracuse kinds have none to build.
    """
    kind = item["kind"]
    if kind in ("table", "v-linsys"):
        lam, d = item["lam"], item["d"]
        env = linsys.envelope_from_certificate(linsys.a_lambda(lam, d), linsys.p_q(lam, d))
        return linsys.a_lambda_source(lam, d, generic=item["generic"]), env
    if kind.startswith("fact-") or kind == "v-factorial":
        ad = sequences.FactorialRatioAdapter(item["a"])
        if kind == "fact-seq" or item.get("envelope") == "sequence":
            return ad.source, ad.seq_env
        if kind == "fact-const" or item.get("envelope") == "constant":
            return ad.source, ad.const_env
        if kind == "fact-bisect":
            return ad.source, _bisection_family(ad.seq_env)
        if kind == "fact-promote":
            return ad.source, algebra.promote_to_decreasing(ad.seq_env)
        return ad.source, algebra.env_min([ad.seq_env, ad.const_env])
    if kind in ("fib", "v-fibonacci"):
        ad = sequences.FibonacciRatioAdapter(item["u0"], item["u1"])
        return ad.source, ad.env
    if kind in ("logistic", "v-logistic"):
        ad = sequences.LogisticAdapter(item["r"], item["y0"])
        return ad.source, ad.env
    return None


def prepare(items: list[dict]) -> list:
    """Per item, what ``run`` takes: argv for CLI items, objects otherwise."""
    return [cli_argv(it) if is_cli(it) else build(it) for it in items]


def run(item: dict, prepared):
    """Issue one item and return its raw outcome."""
    if is_cli(item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(prepared)
        return code, out.getvalue(), err.getvalue()
    if item["kind"] == "syracuse":
        try:
            return sequences.syracuse_excursion(item["n0"])
        except OverflowError as exc:
            return ("OverflowError", str(exc))
    source, env = prepared
    return core.solve(source, env)


class Raised:
    """An exception no documented outcome covers; the item fails."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Raised({self.text!r})"


def terms_of(item: dict, outcome) -> int | None:
    """Terms the item scanned when its outcome says so (None for table rows)."""
    if isinstance(outcome, core.PeakSolution):
        return outcome.terms_evaluated
    if item["kind"].startswith("v-"):
        return item["horizon"] + 1
    return 0 if item["kind"] == "syracuse" else None


def check(item: dict, ref: dict, outcome) -> str | None:
    """None when the outcome agrees with the reference, else the reason."""
    kind = item["kind"]
    if isinstance(outcome, Raised):
        return f"raised {outcome.text}"
    if kind == "syracuse":
        want = ("OverflowError",) if "error" in ref else ref["excursion"]
        got = outcome[:1] if outcome[0] == "OverflowError" else outcome
        return None if tuple(got) == tuple(want) else f"got {outcome!r}, want {want!r}"
    if not is_cli(item):
        if not isinstance(outcome, core.PeakSolution):
            return f"not a PeakSolution: {outcome!r}"
        if outcome.argmax_min != ref["argmax"] or outcome.sup_value != ref["sup"]:
            return (f"got ({outcome.sup_value!r}, {outcome.argmax_min}), "
                    f"want ({ref['sup']!r}, {ref['argmax']})")
        return None
    code, out, err = outcome
    if kind == "table":
        if code != 0:
            return f"exit {code}: {err.strip()}"
        rows = json.loads(out)
        if len(rows) != 1 or rows[0]["lambda"] != item["lam"]:
            return f"unexpected rows {out.strip()}"
        row = rows[0]
        if row["k_s"] != ref["k_s"]:
            return f"k_s {row['k_s']}, reference {ref['k_s']}"
        if abs(row["max_norm_sq"] - ref["peak"]) > PEAK_RTOL * ref["peak"]:
            return f"max_norm_sq {row['max_norm_sq']!r}, reference {ref['peak']!r}"
        if row["f_floor"] < row["k_s"]:
            return f"f_floor {row['f_floor']} below k_s {row['k_s']}"
        if ref["f_floor"] is not None and row["f_floor"] != ref["f_floor"]:
            return f"f_floor {row['f_floor']}, published {ref['f_floor']}"
        return None
    if code != ref["exit"]:
        return f"exit {code}, want {ref['exit']}: {err.strip()}"
    report = json.loads(out)
    if report["horizon"] != item["horizon"]:
        return f"horizon {report['horizon']}, want {item['horizon']}"
    keys = ("consistent", "violated_at") if kind == "v-syracuse" else ("clean", "finding_count")
    for key in keys:
        if report[key] != ref[key]:
            return f"{key} {report[key]!r}, want {ref[key]!r}"
    return None
