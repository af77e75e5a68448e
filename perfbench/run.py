#!/usr/bin/env python3
"""The peakseq benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table-closed --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics: item latency percentiles,
items per second, terms scanned, tracemalloc peak and set-up time.
``--trace 1`` prints the per-layer metrics of a traced pass instead, and
saves its spans under ``perfbench/out/``.  Either way the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics for
people, with sample counts and the failure fraction.

Everything runs in this process on one thread as a closed loop with one
client: each item is issued only after the previous one returned.  The
program is imported from ``src/`` of the same checkout, never from an
installed copy.  See README.md for the workloads and their reasons.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from items import WORKLOADS, make_items, reference
from speed import Speedometer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
MEM_ITEMS = 2
SETUP_TIMEOUT_S = 60

# The lambda = 0.99995 row of the closed-form table: its scan length is
# fixed by the published f_floor column (44617 + 1 terms).
LONG_ROW = {"lam": 0.99995, "d": 2}
LONG_ROW_TERMS = 44_618
# Seed-state counts of that row, reported next to the measured ones.  A
# change that stops re-evaluating terms lowers them on purpose, so they are
# shown, not enforced; the identity between the counters is enforced.
LONG_ROW_SEED_REDUNDANT = 20_000
LONG_ROW_SEED_SOURCE_EVALS = 64_619

# Inputs on which the seed program is known to fail (README.md, "Known
# defects").  They run in every run, outside the timed and traced passes,
# and are reported as still present or fixed.
KNOWN_DEFECTS = (
    ({"kind": "fact-seq", "a": 143, "id": -2},
     "FactorialRatioAdapter(143) raises OverflowError building the constant envelope"),
    ({"kind": "v-factorial", "a": 20, "envelope": "sequence", "horizon": 400, "id": -3},
     "validate factorial --a 20 --horizon 400 fails with 'need lo < hi' once (a+1)^n/n! underflows"),
)

E2E_UNITS = {
    "item_s.p50": "s", "item_s.p90": "s", "items_per_s": "1/s",
    "terms_scanned": "count", "peak_mem_mib": "MiB", "setup_s": "s",
}


def load_program():
    """Import peakseq from this checkout's src/, or exit without a result."""
    init = SRC / "peakseq" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from the root of a peakseq checkout")
    sys.path.insert(0, str(SRC))
    import peakseq

    if Path(peakseq.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported peakseq from {peakseq.__file__}, not from {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import plus building the run's objects."""
    probe = str(HERE / "setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, probe, workload, str(seed)], capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


class Pass:
    """Outcomes of issuing every item once, in order."""

    def __init__(self, drive, items, prepared, refs, speed=None, tracer=None, terms_hook=None):
        self.outcomes = []
        self.failures = []
        self.terms = []
        for item, prep, ref in zip(items, prepared, refs):
            if tracer is not None:
                tracer.item_id = item["id"]
            if terms_hook is not None:
                terms_hook.clear()
            t0 = time.perf_counter()
            try:
                outcome = drive.run(item, prep)
            except Exception as exc:  # any undocumented error fails the item, the run goes on
                outcome = drive.Raised(exc)
            t1 = time.perf_counter()
            try:
                reason = drive.check(item, ref, outcome)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output ({exc!r}): {outcome!r}"
            if reason is not None:
                self.failures.append((item, reason))
            self.outcomes.append(repr(outcome))  # compared byte for byte across passes
            terms = drive.terms_of(item, outcome)
            self.terms.append(sum(terms_hook) if terms is None and terms_hook is not None else terms)
            if speed is not None:
                speed.add(t1 - t0, time.perf_counter() - t0)


def count_terms(drive, items, prepared, refs) -> Pass:
    """A warm-up pass that also records the terms each table row scanned.

    Table rows are issued through the command line, whose output does not
    carry the term count, so this pass alone hooks the solver the table
    code calls.  The memory and timed passes run unhooked.
    """
    from peakseq import linsys

    captured: list[int] = []
    solve = linsys.solve

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        captured.append(sol.terms_evaluated)
        return sol

    linsys.solve = counted
    try:
        return Pass(drive, items, prepared, refs, terms_hook=captured)
    finally:
        linsys.solve = solve


def long_row_id(items) -> int | None:
    for item in items:
        if item["kind"] == "table" and not item["generic"] and item["lam"] == LONG_ROW["lam"] \
                and item["d"] == LONG_ROW["d"]:
            return item["id"]
    return None


def end_to_end(args, drive, items, refs, notes: list[str], problems: list[str]):
    prepared = drive.prepare(items)
    warm = count_terms(drive, items, prepared, refs)
    if None in warm.terms:
        problems.append("an item's scanned terms could not be counted")
    terms_scanned = sum(t or 0 for t in warm.terms)
    row = long_row_id(items)
    if row is not None:
        got = warm.terms[row]
        notes.append(f"self-check: lambda=0.99995 row scanned {got} terms (must be {LONG_ROW_TERMS})")
        if got != LONG_ROW_TERMS:
            problems.append(f"lambda=0.99995 row scanned {got} terms, not {LONG_ROW_TERMS}")

    # Tracing allocations slows items several-fold, so the memory pass
    # issues only the longest scans, which hold the most terms at once.  Each
    # is measured from a collected heap, as its peak above what it started on.
    longest = sorted(range(len(items)), key=lambda i: (-(warm.terms[i] or 0), i))[:MEM_ITEMS]
    peak = 0
    tracemalloc.start()
    try:
        for i in longest:
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            Pass(drive, [items[i]], [prepared[i]], [refs[i]])
            peak = max(peak, tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()

    speed = Speedometer()
    failures = []
    passes = 0
    started = time.perf_counter()
    while True:
        timed = Pass(drive, items, prepared, refs, speed=speed)
        passes += 1
        failures += timed.failures
        if timed.outcomes != warm.outcomes:
            problems.append(f"timed pass {passes} gave outputs that differ from the warm-up pass")
        if time.perf_counter() - started >= args.seconds:
            break
    speed.flush()

    times = speed.item_s
    deciles = statistics.quantiles(times, n=10)
    beyond_p90 = sum(1 for t in times if t > deciles[8])
    raw = statistics.quantiles(speed.raw_item_s, n=10)
    notes.append(f"{len(times)} item samples over {passes} passes of {len(items)} items; "
                 f"{beyond_p90} beyond p90")
    notes.append(f"unscaled: item_s.p50 {raw[4]:.6g} s, item_s.p90 {raw[8]:.6g} s, "
                 f"items_per_s {len(times) / speed.raw_busy_s:.6g} 1/s")
    if beyond_p90 < 10:
        problems.append(f"only {beyond_p90} samples beyond p90; run longer")
    metrics = {
        "item_s.p50": statistics.median(times),
        "item_s.p90": deciles[8],
        "items_per_s": len(times) / speed.busy_s,
        "terms_scanned": terms_scanned,
        "peak_mem_mib": peak / 2**20,
    }
    return metrics, len(times), failures


def per_layer_metrics(tracer, refs, untraced_s: float, traced_s: float) -> dict:
    def calls(name):
        return tracer.stat(name)[0]

    def total(name):
        return tracer.stat(name)[1]

    def own(name):
        return tracer.stat(name)[2]

    def us_per(name):
        n, s, _ = tracer.stat(name)
        return 1e6 * s / n if n else 0.0

    source_evals, source_s = tracer.source_stats()
    linsys_terms = calls("linsys.term")
    inverses = calls("algebra.invert_numeric")
    return {
        "cli.main.calls": calls("cli.main"),
        "cli.main.s": total("cli.main"),
        "cli.main.self_s": own("cli.main"),
        "core.solve.calls": calls("core.solve"),
        "core.solve.self_s": own("core.solve"),
        "core.argmax_bound.calls": calls("core.argmax_bound"),
        "core.argmax_bound.self_s": own("core.argmax_bound"),
        "core.truncation_from.calls": calls("core.truncation_from"),
        "core.bound_tightenings": tracer.bound_tightenings,
        "core.envelope_h.calls": calls("core.envelope_h"),
        "core.source_evals": source_evals,
        "core.redundant_evals": tracer.redundant_evals,
        "core.useful_eval_ratio": tracer.terms_scanned / source_evals if source_evals else 0.0,
        "core.source.s": source_s,
        "core.validate_envelope.calls": calls("core.validate_envelope"),
        "core.validate_envelope.self_s": own("core.validate_envelope"),
        "core.near_tie_items": sum(1 for r in refs if r["near_tie"]),
        "algebra.envelope_eval.calls": calls("algebra.envelope_eval"),
        "algebra.envelope_eval.s": total("algebra.envelope_eval"),
        "algebra.envelope_inverse.calls": calls("algebra.envelope_inverse"),
        "algebra.envelope_inverse.s": total("algebra.envelope_inverse"),
        "algebra.invert_numeric.calls": inverses,
        "algebra.bisection_forward_evals": tracer.bisection_forward_evals,
        "algebra.forward_evals_per_inverse":
            tracer.bisection_forward_evals / inverses if inverses else 0.0,
        "algebra.combinator_build.s": total("algebra.combinator_build"),
        "sequences.factorial.us_per_term": us_per("sequences.factorial.term"),
        "sequences.fibonacci.us_per_term": us_per("sequences.fibonacci.term"),
        "sequences.logistic.us_per_term": us_per("sequences.logistic.term"),
        "sequences.syracuse.us_per_step": us_per("sequences.syracuse.step"),
        "sequences.adapter_init.s": total("sequences.adapter_init"),
        "linsys.mat_mul.calls": calls("linsys.mat_mul"),
        "linsys.mat_mul.self_s": own("linsys.mat_mul"),
        "linsys.matrix_from_rows.calls": calls("linsys.matrix_from_rows"),
        "linsys.matrix_from_rows.s": total("linsys.matrix_from_rows"),
        "linsys.mat_pow.s": total("linsys.mat_pow"),
        "linsys.sym_eig_bounds.calls": calls("linsys.sym_eig_bounds"),
        "linsys.sym_eig_bounds.self_s": own("linsys.sym_eig_bounds"),
        "linsys.spectral_norm_sq_power.us_per_call": us_per("linsys.spectral_norm_sq_power"),
        "linsys.mat_mul_per_term": calls("linsys.mat_mul") / linsys_terms if linsys_terms else 0.0,
        "linsys.kernel_flops": tracer.kernel_flops,
        "linsys.cholesky_lower.calls": calls("linsys.cholesky_lower"),
        "linsys.certificate.s": total("linsys.certificate"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }


def layer_unit(name: str) -> str:
    if name.endswith(("us_per_term", "us_per_step", "us_per_call")):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    if name == "linsys.kernel_flops":
        return "computed_flop"
    if name.endswith(("_ratio", "_frac", "_per_inverse", "_per_term")):
        return "ratio"
    return "count"


def is_count(name: str) -> bool:
    """Exact counts and ratios of counts, which must repeat across traced passes."""
    return layer_unit(name) in ("count", "ratio", "computed_flop") and name != "trace.overhead_frac"


def traced(args, drive, spans, items, refs, notes: list[str], problems: list[str]):
    prepared = drive.prepare(items)
    per_pass: list[dict] = []
    attempted = 0
    failures = []
    first = None
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = Pass(drive, items, prepared, refs)
        untraced_s = time.perf_counter() - t0
        tracer = spans.Tracer()
        tracer.install()
        try:
            # Set-up under the tracer: the objects library items run on.
            built = [drive.build(it) for it in items]
            traced_prepared = [p if drive.is_cli(it) else b for it, p, b in zip(items, prepared, built)]
            t0 = time.perf_counter()
            traced_pass = Pass(drive, items, traced_prepared, refs, tracer=tracer)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        attempted += 2 * len(items)
        failures += plain.failures + traced_pass.failures
        if traced_pass.outcomes != plain.outcomes:
            problems.append("traced and untraced passes gave different item outputs")
        per_pass.append(per_layer_metrics(tracer, refs, untraced_s, traced_s))
        if first is None:
            first = tracer
        counts = {k: v for k, v in per_pass[-1].items() if is_count(k)}
        if counts != {k: v for k, v in per_pass[0].items() if is_count(k)}:
            problems.append(f"counts of traced pass {len(per_pass)} differ from the first")
        if time.perf_counter() - started >= args.seconds:
            break

    row = long_row_id(items)
    if row is not None:
        evals, terms, redundant = first.per_item[row]
        truncation_evals = evals - terms - redundant
        notes.append(
            f"self-check: lambda=0.99995 row: terms {terms} (must be {LONG_ROW_TERMS}), "
            f"redundant evals {redundant} (seed {LONG_ROW_SEED_REDUNDANT}), source evals {evals} "
            f"(seed {LONG_ROW_SEED_SOURCE_EVALS}), outside the scan {truncation_evals} (must be 1)")
        if terms != LONG_ROW_TERMS or truncation_evals != 1:
            problems.append("lambda=0.99995 row counters fail the self-check")
    path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    first.write(path)
    notes.append(f"{len(first.name)} spans of the first traced pass written to {path.relative_to(HERE.parent)}; "
                 f"{len(per_pass)} traced passes")
    metrics = {k: v if is_count(k) else statistics.median(p[k] for p in per_pass)
               for k, v in per_pass[0].items()}
    return metrics, attempted, failures


def probe_known_defects(drive) -> list[str]:
    """One line per known defect, saying whether it is still present."""
    lines = []
    for item, what in KNOWN_DEFECTS:
        try:
            prepared = drive.prepare([item])[0]
            outcome = drive.run(item, prepared)
        except Exception as exc:  # the defects raise; any error counts as present
            outcome = drive.Raised(exc)
        reason = drive.check(item, reference(item), outcome)
        state = "present" if reason else "fixed"
        lines.append(f"known defect [{state}]: {what}" + (f" -> {reason}" if reason else ""))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import drive
    import spans

    items = make_items(args.workload, args.seed)
    refs = [reference(it) for it in items]
    notes: list[str] = []
    problems: list[str] = []
    if args.trace:
        metrics, attempted, failures = traced(args, drive, spans, items, refs, notes, problems)
        defects = probe_known_defects(drive)
        metrics["bench.known_defects_present"] = sum("[present]" in d for d in defects)
        units = None
    else:
        metrics, attempted, failures = end_to_end(args, drive, items, refs, notes, problems)
        metrics["setup_s"] = setup_seconds(args.workload, args.seed)
        defects = probe_known_defects(drive)
        units = E2E_UNITS

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        unit = units[name] if units else layer_unit(name)
        print(f"  {name:44s} {value:.6g} {unit}")
    print(f"  {'failed_frac':44s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted} items)")
    for line in notes + defects:
        print(f"  {line}")
    for item, reason in failures[:20]:
        print(f"  FAILED item {item}: {reason}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name] if units else layer_unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
