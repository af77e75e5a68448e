"""CLI surface: subcommands, formats, exit codes, tracing, argv-only input."""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakseq import Envelope, PeakseqError, linsys, solve
from peakseq.cli import _ADAPTERS, main
from peakseq.sequences import PHI, FactorialRatioAdapter, FibonacciRatioAdapter, LogisticAdapter


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def halved_ratio(args):
    """Build the tight factorial family with its ratio halved: it undercuts u_3 = 4.5."""
    ad = FactorialRatioAdapter(args.a)
    bad = Envelope(h=ad.seq_env.h, beta=lambda n: ad.beta / 2.0, mono=ad.seq_env.mono)
    return ad.source, bad


class TestSolveCommand:
    def test_factorial_json(self, capsys):
        code, out, err = run(capsys, "solve", "factorial", "--a", "5")
        assert code == 0
        report = json.loads(out)
        sol = report["solution"]
        assert sol["sup_value"] == pytest.approx(26.041666666666668, rel=1e-15)
        assert sol["argmax_min"] == 4
        assert sol["truncation_index"] == 5

    def test_fibonacci(self, capsys):
        code, out, _ = run(capsys, "solve", "fibonacci", "--u0", "0", "--u1", "1")
        assert code == 0
        sol = json.loads(out)["solution"]
        assert (sol["sup_value"], sol["argmax_min"]) == (2, 2)

    def test_logistic_unsupported_exit_2(self, capsys):
        code, out, err = run(capsys, "solve", "logistic", "--r", "2.5", "--y0", "0.3")
        assert code == 2
        assert out == ""
        assert "UnsupportedParameter" in err

    def test_factorial_past_constant_envelope_overflow(self, capsys):
        # (a+1)^a overflows a float from a = 143 on; only the constant
        # envelope needs it.
        code, out, _ = run(capsys, "solve", "factorial", "--a", "143")
        assert code == 0
        sol = json.loads(out)["solution"]
        assert (sol["argmax_min"], sol["truncation_index"]) == (142, 143)
        code, out, err = run(capsys, "solve", "factorial", "--a", "143", "--envelope", "constant")
        assert code == 2
        assert out == ""
        assert "OverflowError" in err
        assert "a=143" in err and "a <= 142" in err and "sequence envelope" in err

    def test_factorial_past_sequence_envelope_overflow(self, capsys):
        # At a = 712 the slope (a+1)^n/n! peaks at 6.70e307 and still fits a
        # float; from a = 713 on it does not, and from a = 714 on neither
        # does the term.
        code, out, _ = run(capsys, "solve", "factorial", "--a", "712")
        assert code == 0
        sol = json.loads(out)["solution"]
        assert (sol["sup_value"], sol["argmax_min"], sol["truncation_index"]) == (
            2.4676885942863772e307, 711, 712)
        for a in ("713", "714"):
            code, out, err = run(capsys, "solve", "factorial", "--a", a)
            assert code == 2
            assert out == ""
            assert "OverflowError" in err
            assert f"a={a}" in err and "a <= 712" in err

    def test_syracuse(self, capsys):
        code, out, _ = run(capsys, "solve", "syracuse", "--n0", "27")
        assert code == 0
        exc = json.loads(out)["excursion"]
        assert exc["max"] == 4616
        assert exc["reached_cycle"] is True

    def test_syracuse_step_budget(self, capsys):
        code, out, _ = run(capsys, "solve", "syracuse", "--n0", "27", "--max-steps", "0")
        assert code == 0
        assert json.loads(out)["excursion"] == {"max": 27, "argmax_min": 0, "reached_cycle": False}

    def test_syracuse_negative_max_steps_exit_2(self, capsys):
        code, out, err = run(capsys, "solve", "syracuse", "--n0", "27", "--max-steps", "-1")
        assert code == 2
        assert out == ""
        assert "max_steps" in err

    @pytest.mark.parametrize("flags", [["--trace"], ["--tie", "max"]], ids=["trace", "tie"])
    def test_syracuse_rejects_solver_flags(self, capsys, flags):
        # Syracuse runs no envelope solver, so it has no tie rule and no trace.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "syracuse", "--n0", "27", *flags])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_envelope_violation_exit_3(self, capsys, monkeypatch):
        monkeypatch.setitem(_ADAPTERS, "factorial", _ADAPTERS["factorial"]._replace(build=halved_ratio))
        code, out, err = run(capsys, "solve", "factorial", "--a", "3")
        assert code == 3
        assert out == ""
        assert "envelope violation" in err

    def test_linsys_max_tie(self, capsys):
        code, out, _ = run(capsys, "solve", "linsys", "--lam", "0.9", "--tie", "max")
        assert code == 0
        sol = json.loads(out)["solution"]
        assert sol["argmax_min"] == 9
        assert sol["argmax_max_requested"] is True

    def test_trace_length_matches_terms(self, capsys):
        for argv in (
            ["solve", "factorial", "--a", "4", "--trace"],
            ["solve", "fibonacci", "--u0", "0", "--u1", "1", "--trace"],
            ["solve", "fibonacci", "--u0", "1", "--u1", "2", "--trace"],
            ["solve", "logistic", "--r", "0.5", "--y0", "0.5", "--trace"],
            ["solve", "linsys", "--lam", "0.5", "--trace"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            report = json.loads(out)
            assert len(report["trace"]) == report["solution"]["terms_evaluated"]
        # Logistic is certified by its first term: h_0(1) = y0 bounds the index at 0.
        code, out, _ = run(capsys, "solve", "logistic", "--r", "0.5", "--y0", "0.5", "--trace")
        report = json.loads(out)
        assert report["solution"]["terms_evaluated"] == 1
        assert report["trace"] == [{"k": 0, "u_k": 0.5, "bound": 0, "K": 0}]
        assert '"bound": 0,' in out

    def test_trace_memory_stays_flat(self):
        # The trace is spooled to a temporary file as the scan runs.  Kept as
        # a list of dicts it held about 400 bytes per entry: 4.2 MiB at the
        # peak for these 11,472 entries, against 8 KB without --trace.
        argv = ["solve", "factorial", "--a", "60", "--envelope", "constant"]

        def peak(extra):
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert main(argv + extra) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak([])  # builds the shared parser outside the measured calls
        assert peak(["--trace"]) <= peak([]) + 2**20

    def test_json_round_trips(self, capsys):
        from peakseq.cli import _dumps

        code, out, _ = run(capsys, "solve", "factorial", "--a", "7")
        first = json.loads(out)
        # parse -> re-serialize reproduces the exact byte stream
        assert _dumps(first) == out.strip()
        code, out2, _ = run(capsys, "solve", "factorial", "--a", "7")
        second = json.loads(out2)
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert first == second

    @pytest.mark.parametrize("value, message", [
        (math.inf, "non-finite float in report: inf"),
        ([1.0, math.nan], "non-finite float in report: nan"),
        ({"k": {1, 2}}, "unserializable value: {1, 2}"),
    ])
    def test_dumps_rejects_what_json_cannot_carry(self, value, message):
        from peakseq.cli import _dumps

        with pytest.raises(PeakseqError, match=f"^{re.escape(message)}$"):
            _dumps(value)

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "solve", "factorial", "--a", "3", "--format", "text")
        assert code == 0
        assert "sup_value" in out

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "factorial"])  # missing --a
        assert exc.value.code == 1

    def test_unknown_adapter_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "nope", "--a", "1"])
        assert exc.value.code == 1


ADAPTER_ARGV = {
    "factorial": ["--a", "6"],
    "fibonacci": ["--u0", "0", "--u1", "7"],
    "logistic": ["--r", "0.7", "--y0", "0.3"],
    "linsys": ["--lam", "0.8", "--d", "3"],
}


def library_pair(name):
    """(source, envelope) for ADAPTER_ARGV[name], built without the CLI."""
    if name == "factorial":
        ad = FactorialRatioAdapter(6)
        return ad.source, ad.seq_env
    if name == "fibonacci":
        ad = FibonacciRatioAdapter(0, 7)
        return ad.source, ad.env
    if name == "logistic":
        ad = LogisticAdapter(0.7, 0.3)
        return ad.source, ad.env
    if name == "linsys":
        env = linsys.envelope_from_certificate(linsys.a_lambda(0.8, 3), linsys.p_q(0.8, 3))
        return linsys.a_lambda_source(0.8, 3), env
    raise KeyError(name)


class TestAdapterTable:
    @pytest.mark.parametrize("name", sorted(_ADAPTERS))
    def test_cli_matches_library(self, capsys, name):
        code, out, _ = run(capsys, "solve", name, *ADAPTER_ARGV[name])
        assert code == 0
        assert json.loads(out)["solution"] == dataclasses.asdict(solve(*library_pair(name)))
        code, out, _ = run(capsys, "validate", name, *ADAPTER_ARGV[name])
        assert code == 0
        assert json.loads(out)["clean"] is True


def _fibonacci_args(u0: int):
    """u1 over its valid range for this u0: u1 >= 1, and u1/u0 > phi when u0 > 0."""
    low = math.floor(u0 * PHI) + 1 if u0 else 1
    u1 = st.integers(low, low + 10**6).filter(lambda u1: not u0 or u1 / u0 > PHI)
    return st.builds(argparse.Namespace, u0=st.just(u0), u1=u1)


def _linsys_args(lam: float):
    """--d, --q and --generic for this lambda; q is the default or above the threshold."""
    q = st.one_of(st.none(), st.floats(1.001, 1000.0).map(lambda f: f * linsys.q_threshold(lam)))
    return st.builds(argparse.Namespace, lam=st.just(lam), d=st.integers(2, 5), q=q,
                     generic=st.booleans())


# Each `_ADAPTERS` entry's valid domain, as the parsed flags its `build` reads.
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
ADAPTER_DOMAINS = {
    "factorial": st.one_of(
        st.builds(argparse.Namespace, a=st.integers(1, 712), envelope=st.just("sequence")),
        st.builds(argparse.Namespace, a=st.integers(1, 142), envelope=st.just("constant"))),
    "fibonacci": st.one_of(st.just(0), st.integers(1, 10**6)).flatmap(_fibonacci_args),
    "logistic": st.builds(argparse.Namespace, r=OPEN_UNIT, y0=OPEN_UNIT),
    "linsys": st.floats(0.0, 0.99995, exclude_min=True).flatmap(_linsys_args),
}


class _FirstBound(Exception):
    """Raised from ``on_step`` at the first finite index bound, to end the scan there."""


def _stop_at_first_bound(k, u_k, bound, running_k):
    if bound is not None and bound.is_finite:
        raise _FirstBound(k)


class TestFirstBound:
    @pytest.mark.parametrize("name", sorted(_ADAPTERS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_within_two_indices_of_decreasing_from(self, name, data):
        # Why the CLI needs no scan cap: every adapter it wires bounds its
        # argmax by index decreasing_from + 2 (Fibonacci's zero start is the
        # one that needs two).  scan_limit=2 makes a miss fail at once.
        source, env = _ADAPTERS[name].build(data.draw(ADAPTER_DOMAINS[name]))
        with pytest.raises(_FirstBound) as stop:
            solve(source, env, scan_limit=2, on_step=_stop_at_first_bound)
        assert stop.value.args[0] <= env.mono.decreasing_from + 2


def mask_elapsed(out: str) -> str:
    return re.sub(r'(elapsed_seconds"?: )[0-9.e+-]+', r"\1T", out)


class TestReportLayout:
    """The byte layout of `solve` and `validate` reports: key order, separators, text form."""

    SOLUTION_KEYS = ["sup_value", "argmax_min", "truncation_index", "terms_evaluated",
                     "argmax_max_requested"]

    def test_solve_json_bytes(self, capsys):
        code, out, _ = run(capsys, "solve", "factorial", "--a", "3")
        assert code == 0
        assert mask_elapsed(out) == (
            '{"command": "solve factorial --a 3", "adapter": "factorial", '
            '"parameters": {"a": 3, "envelope": "sequence"}, '
            '"solution": {"sup_value": 4.5, "argmax_min": 2, "truncation_index": 3, '
            '"terms_evaluated": 4, "argmax_max_requested": false}, '
            '"trace": null, "elapsed_seconds": T}\n'
        )

    def test_generic_trace_bytes(self, capsys):
        # The trace is the scan without it: u_k is null at the terms the row
        # norm bounds screen, before the peak (below the next term) and after
        # it (below the running max).  The anchored family needs a bound at
        # k = 0 and then only at k = 5, where beta * w_5 falls below the
        # running max and the scan ends.
        code, out, _ = run(capsys, "solve", "linsys", "--lam", "0.75", "--generic", "--trace",
                           "--tie", "max")
        assert code == 0
        terms = [
            (0, "1", "14.707881338191539", 14),
            (1, "null", "null", 14),
            (2, "null", "null", 14),
            (3, "3.1936948785130337", "null", 14),
            (4, "null", "null", 14),
            (5, "null", "5", 5),
        ]
        trace = ", ".join(f'{{"k": {k}, "u_k": {u}, "bound": {b}, "K": {K}}}' for k, u, b, K in terms)
        assert mask_elapsed(out) == (
            '{"command": "solve linsys --lam 0.75 --generic --trace --tie max", "adapter": "linsys", '
            '"parameters": {"lambda": 0.75, "d": 2, "q": null, "generic": true}, '
            '"solution": {"sup_value": 3.1936948785130337, "argmax_min": 3, "truncation_index": 5, '
            '"terms_evaluated": 6, "argmax_max_requested": true}, '
            f'"trace": [{trace}], "elapsed_seconds": T}}\n'
        )
        code, plain, _ = run(capsys, "solve", "linsys", "--lam", "0.75", "--generic", "--tie", "max")
        assert json.loads(plain)["solution"] == json.loads(out)["solution"]

    def test_constant_trace_bytes(self, capsys):
        # The closed form under the constant envelope takes the same rule:
        # a bound at k = 0 and then only at k = 7, where the running max
        # exceeds h(beta^8) and the scan ends.
        code, out, _ = run(capsys, "solve", "linsys", "--lam", "0.75", "--trace", "--tie", "max")
        assert code == 0
        terms = [
            (0, "1", "14.156486566800192", 14),
            (1, "1.9638878188659974", "null", 14),
            (2, "2.84765625", "null", 14),
            (3, "3.1936948785130337", "null", 14),
            (4, "3.0445901441251175", "null", 14),
            (5, "2.6142368508331701", "null", 14),
            (6, "2.0901591786307692", "null", 14),
            (7, "1.5875771679851494", "7.151083734269621", 7),
        ]
        trace = ", ".join(f'{{"k": {k}, "u_k": {u}, "bound": {b}, "K": {K}}}' for k, u, b, K in terms)
        assert mask_elapsed(out) == (
            '{"command": "solve linsys --lam 0.75 --trace --tie max", "adapter": "linsys", '
            '"parameters": {"lambda": 0.75, "d": 2, "q": null, "generic": false}, '
            '"solution": {"sup_value": 3.1936948785130337, "argmax_min": 3, "truncation_index": 7, '
            '"terms_evaluated": 8, "argmax_max_requested": true}, '
            f'"trace": [{trace}], "elapsed_seconds": T}}\n'
        )
        code, plain, _ = run(capsys, "solve", "linsys", "--lam", "0.75", "--tie", "max")
        assert json.loads(plain)["solution"] == json.loads(out)["solution"]

    def test_solve_text_layout(self, capsys):
        code, out, _ = run(capsys, "solve", "factorial", "--a", "3", "--trace", "--format", "text")
        assert code == 0
        assert mask_elapsed(out) == (
            "command: solve factorial --a 3 --trace --format text\n"
            "adapter: factorial\n"
            "parameters:\n"
            "  a: 3\n"
            "  envelope: sequence\n"
            "solution:\n"
            "  sup_value: 4.5\n"
            "  argmax_min: 2\n"
            "  truncation_index: 3\n"
            "  terms_evaluated: 4\n"
            "  argmax_max_requested: False\n"
            "trace: [4 entries]\n"
            "elapsed_seconds: T\n"
        )

    @pytest.mark.parametrize("name", sorted(_ADAPTERS))
    def test_solve_key_order(self, capsys, name):
        code, out, _ = run(capsys, "solve", name, *ADAPTER_ARGV[name], "--trace")
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["command", "adapter", "parameters", "solution", "trace",
                                "elapsed_seconds"]
        assert list(report["solution"]) == self.SOLUTION_KEYS
        assert list(report["trace"][0]) == ["k", "u_k", "bound", "K"]

    def test_solve_syracuse_key_order(self, capsys):
        code, out, _ = run(capsys, "solve", "syracuse", "--n0", "27")
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["command", "adapter", "parameters", "excursion", "elapsed_seconds"]
        assert list(report["parameters"]) == ["n0", "max_steps"]
        assert list(report["excursion"]) == ["max", "argmax_min", "reached_cycle"]

    @pytest.mark.parametrize("name", sorted(_ADAPTERS))
    def test_validate_key_order(self, capsys, name):
        code, out, _ = run(capsys, "validate", name, *ADAPTER_ARGV[name])
        assert code == 0
        assert list(json.loads(out)) == ["command", "adapter", "clean", "horizon", "findings",
                                         "finding_count"]

    def test_validate_finding_key_order(self, capsys, monkeypatch):
        monkeypatch.setitem(_ADAPTERS, "factorial", _ADAPTERS["factorial"]._replace(build=halved_ratio))
        code, out, _ = run(capsys, "validate", "factorial", "--a", "3", "--horizon", "20")
        assert code == 3
        report = json.loads(out)
        # Every index 1..20 is a finding; the report lists the first ten.
        assert (report["clean"], len(report["findings"]), report["finding_count"]) == (False, 10, 20)
        assert out.count('{"k": ') == 10
        assert '"findings": [{"k": 1, "kind": "membership", "detail": "u_k=3.0 > h_k(beta_k^k)=1.5"}, ' in out

    def test_validate_text_lists_findings(self, capsys, monkeypatch):
        monkeypatch.setitem(_ADAPTERS, "factorial", _ADAPTERS["factorial"]._replace(build=halved_ratio))
        code, out, _ = run(capsys, "validate", "factorial", "--a", "3", "--horizon", "3",
                           "--format", "text")
        assert code == 3
        assert out == (
            "command: validate factorial --a 3 --horizon 3 --format text\n"
            "adapter: factorial\n"
            "clean: False\n"
            "horizon: 3\n"
            "findings: [3 entries]\n"
            "  k: 1, kind: membership, detail: u_k=3.0 > h_k(beta_k^k)=1.5\n"
            "  k: 2, kind: membership, detail: u_k=4.5 > h_k(beta_k^k)=1.125\n"
            "  k: 3, kind: membership, detail: u_k=4.5 > h_k(beta_k^k)=0.5625\n"
            "finding_count: 3\n"
        )

    def test_validate_text_lists_at_most_ten_findings(self, capsys, monkeypatch):
        monkeypatch.setitem(_ADAPTERS, "factorial", _ADAPTERS["factorial"]._replace(build=halved_ratio))
        code, out, _ = run(capsys, "validate", "factorial", "--a", "3", "--horizon", "20",
                           "--format", "text")
        assert code == 3
        listed = [line for line in out.splitlines() if line.startswith("  k: ")]
        assert len(listed) == 10 and listed[-1].startswith("  k: 10, kind: membership, ")
        assert out.endswith("finding_count: 20\n")

    @pytest.mark.parametrize("argv, code", [
        (["--n0", "7", "--a", "50", "--b", "0.9", "--c", "5", "--horizon", "60"], 0),
        (["--n0", "6", "--a", "2", "--b", "0.5", "--c", "5", "--horizon", "10"], 3),
    ])
    def test_validate_syracuse_key_order(self, capsys, argv, code):
        got, out, _ = run(capsys, "validate", "syracuse", *argv)
        assert got == code
        assert list(json.loads(out)) == ["command", "adapter", "consistent", "violated_at", "horizon"]


class TestTableCommand:
    def test_single_lambda_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--lambdas", "0.5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,k_s,max_norm_sq,f_floor"
        assert lines[1] == "0.5,1,1.45711,2"

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "table", "--lambdas", "0.5,0.75", "--format", "csv")
        assert code == 0
        assert out == "lambda,k_s,max_norm_sq,f_floor\n0.5,1,1.45711,2\n0.75,3,3.19369,7\n"

    def test_json_keys(self, capsys):
        code, out, _ = run(capsys, "table", "--lambdas", "0.5")
        assert code == 0
        (row,) = json.loads(out)
        assert list(row) == ["lambda", "k_s", "max_norm_sq", "f_floor"]
        assert row["k_s"] == 1

    def test_help_takes_the_linsys_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert "--generic " in out and "use the generic matrix-power kernel" in out

    def test_singular_lambda_alias(self, capsys):
        code, out, _ = run(capsys, "table", "--lambda", "0.5")
        assert code == 0
        rows = json.loads(out)
        assert (rows[0]["k_s"], rows[0]["f_floor"]) == (1, 2)

    def test_default_list_has_eight_rows(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 8
        by_lam = {r["lambda"]: r for r in rows}
        assert by_lam[0.9]["k_s"] == 9
        assert by_lam[0.99995]["f_floor"] == 44617

    def test_empty_lambda_list_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--lambdas", ""])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.startswith("usage: peakseq table ")
        assert "peakseq table: error: argument --lambdas/--lambda: empty lambda list" in err

    def test_unparsable_lambda_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--lambdas", "0.5, abc"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.startswith("usage: peakseq table ")
        assert "peakseq table: error: argument --lambdas/--lambda: invalid lambda 'abc'" in err

    def test_bad_lambda_exit_2(self, capsys):
        code, _, err = run(capsys, "table", "--lambdas", "1.5")
        assert code == 2

    @pytest.mark.parametrize("q", ["inf", "nan"])
    def test_non_finite_q_exit_2(self, capsys, q):
        # `nan <= threshold` is False, so nan slips past a threshold compare alone.
        code, out, err = run(capsys, "table", "--lambdas", "0.5", "--q", q)
        assert (code, out) == (2, "")
        assert f"q={q} must be finite" in err

    def test_no_partial_csv_on_error(self, capsys):
        code, out, _ = run(capsys, "table", "--lambdas", "0.5,1.5", "--format", "csv")
        assert code == 2
        assert out == ""


class TestValidateCommand:
    def test_factorial_clean(self, capsys):
        code, out, _ = run(capsys, "validate", "factorial", "--a", "3", "--horizon", "100")
        assert code == 0
        assert json.loads(out)["clean"] is True

    def test_factorial_tight_envelope_past_underflow(self, capsys):
        # (a+1)^n/n! underflows to 0.0 near n = 380 at a = 20; the clamped
        # slope keeps every member a valid envelope function.
        code, out, _ = run(capsys, "validate", "factorial", "--a", "20", "--horizon", "400")
        assert code == 0
        assert json.loads(out)["clean"] is True

    def test_horizon_zero_is_clean(self, capsys):
        code, out, err = run(capsys, "validate", "factorial", "--a", "3", "--horizon", "0")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["clean"], report["horizon"], report["finding_count"]) == (True, 0, 0)

    @pytest.mark.parametrize("argv", [
        ["factorial", "--a", "3"],
        ["syracuse", "--n0", "7", "--a", "50", "--b", "0.9", "--c", "5"],
    ], ids=["factorial", "syracuse"])
    def test_negative_horizon_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "validate", *argv, "--horizon", "-1")
        assert (code, out) == (2, "")
        assert "horizon must be >= 0" in err

    def test_collatz_consistent(self, capsys):
        code, out, _ = run(
            capsys, "validate", "syracuse",
            "--n0", "7", "--a", "50", "--b", "0.9", "--c", "5", "--horizon", "60",
        )
        assert code == 0
        assert json.loads(out)["consistent"] is True

    def test_collatz_check_stops_at_horizon(self, capsys):
        # y_1 = (3*(2^128-1)+1)/2 leaves the 128-bit range, but a horizon
        # of 0 never needs it.
        code, out, _ = run(
            capsys, "validate", "syracuse",
            "--n0", str(2**128 - 1), "--a", "1e39", "--b", "0.9", "--c", "5", "--horizon", "0",
        )
        assert code == 0
        assert json.loads(out)["consistent"] is True

    def test_collatz_violation_exit_3(self, capsys):
        code, out, _ = run(
            capsys, "validate", "syracuse",
            "--n0", "6", "--a", "2", "--b", "0.5", "--c", "5", "--horizon", "10",
        )
        assert code == 3
        assert json.loads(out)["violated_at"] == 3

    def test_collatz_zero_scale_violated_at_0(self, capsys):
        # a = 0 is the constant bound c = 5, which y_0 = 7 already exceeds.
        code, out, _ = run(
            capsys, "validate", "syracuse",
            "--n0", "7", "--a", "0", "--b", "0.5", "--c", "5", "--horizon", "10",
        )
        assert code == 3
        assert json.loads(out)["violated_at"] == 0

    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_collatz_non_finite_a_exit_2(self, capsys, a):
        # With a=nan every `y > a*b^n + c` compare is False, so the check
        # used to report a consistent trajectory; with --a 1 it fails at k=0.
        code, out, err = run(
            capsys, "validate", "syracuse",
            "--n0", "27", "--a", a, "--b", "0.9", "--c", "5", "--horizon", "200",
        )
        assert (code, out) == (2, "")
        assert f"need a finite a, got a={a}" in err

    def test_collatz_bad_c_exit_2(self, capsys):
        code, _, err = run(
            capsys, "validate", "syracuse",
            "--n0", "5", "--a", "10", "--b", "0.9", "--c", "4", "--horizon", "20",
        )
        assert code == 2

    def test_linsys_certifies_lambda_near_one(self, capsys):
        # Before the pivots were scaled per entry this certificate exited 2 (NotLyapunov).
        code, out, err = run(capsys, "validate", "linsys", "--lam", "0.9999995", "--generic",
                             "--horizon", "50")
        assert (code, err) == (0, "")
        assert json.loads(out)["clean"] is True

    @pytest.mark.parametrize("lam", ["0.5", "0.1"])
    def test_linsys_generic_past_underflow(self, capsys, lam):
        # beta^k and A^k underflow long before k = 3000; the anchored family
        # keeps a positive, finite scale that does not grow.
        code, out, err = run(capsys, "validate", "linsys", "--lam", lam, "--generic",
                             "--horizon", "3000")
        assert (code, err) == (0, "")
        assert '"clean": true' in out
        assert json.loads(out)["finding_count"] == 0

    def test_fibonacci_clean(self, capsys):
        code, out, _ = run(capsys, "validate", "fibonacci", "--u0", "0", "--u1", "1")
        assert code == 0
        assert json.loads(out)["clean"] is True


class TestArgvOnly:
    def test_scan_limit_variable_is_not_read(self, capsys, monkeypatch):
        # The zero start gets its first finite bound at index 2, the latest
        # of any adapter, so a limit of 1 would end it in NoUsefulIndex.
        argv = ["solve", "fibonacci", "--u0", "0", "--u1", "1"]
        monkeypatch.delenv("PEAKSEQ_SCAN_LIMIT", raising=False)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        for value in ("1", "abc"):
            monkeypatch.setenv("PEAKSEQ_SCAN_LIMIT", value)
            again, out_again, _ = run(capsys, *argv)
            assert (again, mask_elapsed(out_again)) == (code, mask_elapsed(out))

    def test_each_main_call_parses_afresh(self, capsys):
        code, out, err = run(capsys, "solve", "fibonacci", "--u0", "1", "--u1", "1")
        assert (code, out) == (2, "") and "need u1/u0 > phi" in err
        argv = ["solve", "fibonacci", "--u0", "0", "--u1", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bogus"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        code, out, _ = run(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == " ".join(argv)
        assert report["solution"]["argmax_min"] == 2

    def test_floats_serialized_with_17_digits(self, capsys):
        code, out, _ = run(capsys, "solve", "factorial", "--a", "5")
        assert "26.041666666666668" in out


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """Every `peakseq ...` line of the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("peakseq ")]


# What the comments next to these README commands claim about the solution.
README_CLAIMS = {
    "peakseq solve factorial --a 5": {"truncation_index": 5},
    "peakseq solve fibonacci --u0 0 --u1 1": {"argmax_min": 2},
    "peakseq solve fibonacci --u0 1 --u1 2": {"argmax_min": 0},
    "peakseq solve logistic --r 0.5 --y0 0.5": {"terms_evaluated": 1},
}


class TestReadmeExamples:
    def test_claimed_commands_are_in_the_readme(self):
        assert set(README_CLAIMS) <= set(readme_commands())

    @pytest.mark.parametrize("line", readme_commands())
    def test_example_runs(self, capsys, line):
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, err
        for key, value in README_CLAIMS.get(line, {}).items():
            assert json.loads(out)["solution"][key] == value

    def test_library_use_runs(self, capsys):
        # The "Library use" block runs as written and prints what its
        # closing comment claims, up to the "...".
        block = re.search(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
        claim = re.search(r"^# (PeakSolution\(.*), \.\.\.\)$", block, re.M).group(1)
        assert claim == "PeakSolution(sup_value=1.0, argmax_min=0, truncation_index=0"
        exec(compile(block, str(README), "exec"), {})
        assert capsys.readouterr().out.startswith(claim + ", ")
