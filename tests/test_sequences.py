"""Adapters: factorial ratio, Fibonacci ratio, logistic, Syracuse."""

import decimal
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from peakseq import (
    AffineParams,
    Monotonicity,
    PreconditionViolated,
    Tie,
    brute_force_peak,
    solve,
    validate_envelope,
)
from peakseq.cli import _dumps
from peakseq.core import exceeds_certificate
from peakseq.sequences import (
    PHI,
    CollatzCheck,
    FactorialRatioAdapter,
    FibonacciRatioAdapter,
    LogisticAdapter,
    SyracuseAdapter,
    UnsupportedParameter,
    collatz_envelope_check,
    factorial_solve,
    fibonacci_solve,
    logistic_solve,
    syracuse_excursion,
)

from helpers import reference_pow_over_factorial


class TestFactorialRatio:
    @pytest.mark.parametrize("a", range(1, 13))
    def test_equality_envelope(self, a):
        ad = FactorialRatioAdapter(a)
        for n in range(0, 3 * a + 1):
            x_n = ad.source.eval(n)
            certified = ad.seq_env.h(n).eval(ad.beta**n)
            assert abs(x_n - certified) <= 1e-12 * x_n

    def test_solve_a5(self):
        sol = factorial_solve(5)
        assert sol.truncation_index == 5
        assert sol.sup_value == pytest.approx(26.041666666666668, rel=1e-15)
        assert sol.argmax_min == 4

    def test_solve_tie_takes_only_tie_members(self):
        assert factorial_solve(3, tie=Tie.MAX_ARGMAX).argmax_min == 3
        with pytest.raises(PreconditionViolated):
            factorial_solve(3, tie="max")

    def test_solve_a1_ties_at_zero(self):
        sol = factorial_solve(1)
        assert sol.sup_value == 1.0
        assert sol.argmax_min == 0

    def test_constant_envelope_a10(self):
        sol = factorial_solve(10, envelope="constant")
        assert sol.truncation_index == 168

    # First n at which a^n/n! rounds to 0.0 (below half the smallest subnormal).
    @pytest.mark.parametrize("a, underflow_n", [(1, 178), (2, 205), (20, 381), (142, 889), (700, 2546)])
    def test_terms_exact_around_underflow(self, a, underflow_n):
        ad = FactorialRatioAdapter(a)
        assert a ** (underflow_n - 1) / math.factorial(underflow_n - 1) > 0.0
        for n in range(underflow_n - 40, underflow_n + 40):
            assert ad.source.eval(n) == a**n / math.factorial(n)

    @pytest.mark.parametrize("a", [1, 2, 20, 30, 142, 712])
    @pytest.mark.parametrize("first", ["below", "above"])
    def test_terms_around_the_walk_stop_are_bit_identical(self, a, first):
        # The source (base a) and the sequence envelope's slope (base a+1)
        # step (base^k, k!) until the term is below 2^-1076 and return 0.0
        # from that index on.  The window spans the first zero; the first
        # query falls below it or past it, and it is read both ways.
        ad = FactorialRatioAdapter(a)
        slope = lambda n: ad.seq_env.h(n).eval(1.0)
        for base, term, walk in ((a, ad.source.eval, ad.source.eval.__self__),
                                 (a + 1, slope, ad._slope.__self__)):
            z = next(n for n in itertools.count(base) if reference_pow_over_factorial(base, n) == 0.0)
            window = list(range(z - 40, z + 41))
            for n in window if first == "below" else window[::-1]:
                want = reference_pow_over_factorial(base, n)
                if term is slope:
                    want = max(want, math.ulp(0.0))
                assert term(n).hex() == want.hex(), (base, n)
            assert z <= walk.zero_from <= z + 40

    def test_constant_envelope_a100(self):
        sol = factorial_solve(100, envelope="constant")
        assert sol.sup_value == float(Fraction(100**99, math.factorial(99)))
        assert sol.argmax_min == 99
        assert sol.truncation_index == 36_655
        assert sol.terms_evaluated == 36_656

    def test_unknown_envelope(self):
        with pytest.raises(PreconditionViolated):
            factorial_solve(3, envelope="bogus")
        with pytest.raises(PreconditionViolated, match="unknown envelope choice 'bogus'"):
            FactorialRatioAdapter(3).envelope("bogus")

    def test_envelope_by_name(self):
        ad = FactorialRatioAdapter(3)
        assert ad.envelope("sequence") is ad.seq_env
        assert ad.envelope("constant") is ad.const_env

    def test_envelope_by_name_builds_the_constant_one_only_when_asked(self):
        # (a+1)^a overflows a float from a = 143 on; the sequence envelope
        # does not need it.
        ad = FactorialRatioAdapter(143)
        assert ad.envelope("sequence") is ad.seq_env
        assert "const_env" not in vars(ad)
        with pytest.raises(OverflowError, match="a <= 142"):
            ad.envelope("constant")

    def test_rejects_a0(self):
        with pytest.raises(PreconditionViolated):
            FactorialRatioAdapter(0)

    @pytest.mark.parametrize("a", [2.5, 3.0])
    def test_rejects_non_integer_a(self, a):
        with pytest.raises(PreconditionViolated, match="integer a >= 1"):
            FactorialRatioAdapter(a)


class TestFibonacciRatio:
    def test_parity_exact_integers(self):
        # w_n > phi iff u_{n+1}^2 - u_{n+1} u_n - u_n^2 > 0: an exact
        # integer test, needed because the gap shrinks like phi^(-2n) and
        # falls below float resolution near n = 40.
        ad = FibonacciRatioAdapter(0, 1)
        for n in range(1, 41):
            a, b = ad.term_pair(n)
            sign = b * b - a * b - a * a
            if n % 2 == 0:
                assert sign > 0
            else:
                assert sign < 0

    def test_parity_float_slack(self):
        ad = FibonacciRatioAdapter(0, 1)
        for n in range(1, 41):
            w = ad.ratio(n)
            if n % 2 == 0:
                assert w > PHI - 1e-15
            else:
                assert w < PHI + 1e-15

    def test_even_terms_meet_envelope(self):
        # From u0 = 0 the bound is tight at the peak, w_2 = 2.
        for u1 in (1, 2, 7, 10**6):
            ad = FibonacciRatioAdapter(0, u1)
            assert ad.ratio(2) == 2.0
            assert ad.env.h(2).eval(ad.env.beta(2) ** 2) == 2.0

    def test_solve_zero_start(self):
        sol = fibonacci_solve(0, 1)
        assert (sol.sup_value, sol.argmax_min, sol.truncation_index) == (2.0, 2, 2)

    def test_solve_positive_start_shortcut(self):
        sol = fibonacci_solve(1, 2)
        assert sol.sup_value == 2.0
        assert sol.argmax_min == 0
        # Brute confirmation: every later ratio stays below w_0.
        ad = FibonacciRatioAdapter(1, 2)
        for n in range(1, 51):
            assert ad.ratio(n) < 2.0

    def test_right_endpoint_equality(self):
        for u0, u1 in [(1, 2), (2, 4), (3, 5), (7, 12)]:
            ad = FibonacciRatioAdapter(u0, u1)
            assert ad.env.h(0).eval(1.0) == ad.ratio(0)

    @pytest.mark.parametrize("u0, u1", [(-1, 2), (0, 0), (3, -5)])
    def test_rejects_negative_start(self, u0, u1):
        with pytest.raises(PreconditionViolated, match="^need u0 >= 0 and u1 >= 1$"):
            FibonacciRatioAdapter(u0, u1)

    def test_precondition(self):
        # The last pair has u1 > u0 * phi, even against the float PHI, but
        # u1 / u0 rounds to PHI: the certificate's scale would be 0.
        for u0, u1 in [(1, 1), (5, 8), (10**17, 161803398874989491)]:
            assert not u1 / u0 > PHI
            with pytest.raises(PreconditionViolated, match="u1/u0 > phi"):
                fibonacci_solve(u0, u1)

    @pytest.mark.parametrize("tie", list(Tie))
    def test_ratio_an_ulp_above_phi_answers_at_once(self, tie):
        # u1 / u0 is one ulp above PHI, so the scale is about 2e-16; the
        # limit makes a search for a useful index fail fast.
        ad = FibonacciRatioAdapter(10**17, 161803398874989505)
        sol = solve(ad.source, ad.env, tie=tie, scan_limit=100)
        assert (sol.sup_value, sol.argmax_min, sol.truncation_index) == (1.6180339887498951, 0, 0)
        assert sol.terms_evaluated == 1

    @pytest.mark.parametrize("u0,u1", [(5, 1000009), (57, 1000093)])
    def test_large_first_ratio_meets_its_bound(self, u0, u1):
        # w_0 is large, and h_0(1) must still meet it within the
        # MEMBERSHIP_RTOL slack, or k = 0 reads as an envelope violation.
        ad = FibonacciRatioAdapter(u0, u1)
        assert ad.env.h(0).eval(1.0) == ad.ratio(0)
        assert validate_envelope(ad.source, ad.env, 40) == []
        sol = fibonacci_solve(u0, u1)
        assert (sol.sup_value, sol.argmax_min, sol.terms_evaluated) == (u1 / u0, 0, 1)

    def test_certificate_holds_in_exact_arithmetic(self):
        # w_n - phi <= scale * phi^(-2n) for n <= 200, with scale = w_0 - phi
        # (phi^2 from u0 = 0), so the float envelope needs MEMBERSHIP_RTOL
        # for its rounding only.  200 digits keep at least 60 significant
        # digits of w_n - phi at n = 200, where it is near 1e-84 * scale.
        with decimal.localcontext(decimal.Context(prec=200)):
            phi = (1 + Decimal(5).sqrt()) / 2
            fib = [0, 1]
            while len(fib) < 72:
                fib.append(fib[-1] + fib[-2])
            pairs = [(0, 1), (0, 2), (0, 7), (10**17, 161803398874989505), (10**12, 1618033988750)]
            pairs += [(u0, int(u0 * phi) + 1 + j) for u0 in range(1, 21) for j in (0, 1, 2, 5, 40)]
            pairs += [(fib[n], fib[n + 1] + j) for n in range(1, 70) for j in (0, 1, 2)]
            checked = 0
            for u0, u1 in pairs:
                if u0 > 0 and not u1 / u0 > PHI:
                    continue
                ad = FibonacciRatioAdapter(u0, u1)
                scale = Decimal(u1) / u0 - phi if u0 else phi * phi
                for n in range(201):
                    a, b = ad.term_pair(n)
                    excess = (Decimal(b) / a if a else 0) - phi
                    bound = scale / phi ** (2 * n)
                    assert excess <= bound * (1 + Decimal("1e-60")), (u0, u1, n)
                checked += 1
        assert checked > 100

    def test_membership_on_prefix(self):
        ad = FibonacciRatioAdapter(0, 1)
        assert validate_envelope(ad.source, ad.env, 40) == []


class TestLogistic:
    @pytest.mark.parametrize(
        "r,y0",
        [(0.1, 0.2), (0.2, 0.9), (0.3, 0.5), (0.4, 0.05), (0.5, 0.5),
         (0.6, 0.7), (0.7, 0.3), (0.8, 0.8), (0.9, 0.1), (0.95, 0.6)],
    )
    def test_closed_form_bound(self, r, y0):
        env = LogisticAdapter(r, y0).env
        y = y0
        for n in range(0, 201):
            assert not exceeds_certificate(y, env.h(n).eval(env.beta(n) ** n))
            y = r * y * (1.0 - y)

    def test_affine_constant_family(self):
        env = LogisticAdapter(0.7, 0.4).env
        assert env.mono == Monotonicity(constant_from=0)
        assert env.h(5) is env.h(0)
        assert env.h(0).eval(1.0) == 0.4 and env.beta(7) == 0.7

    # The float iterate passes y0 * r^n in the subnormal tail: by 1.1e-322
    # against 5e-324 at n = 2679 in the first case.
    @pytest.mark.parametrize(
        "r,y0", [(0.9780755946774611, 4.506254038368488e-298), (0.999999, 1e-300), (0.9, 5e-324)]
    )
    def test_float_tail_within_certificate(self, r, y0):
        ad = LogisticAdapter(r, y0)
        bounds = [ad.env.h(n).eval(ad.env.beta(n) ** n) for n in range(3001)]
        assert any(ad.term(n) > b for n, b in enumerate(bounds))
        assert not any(exceeds_certificate(ad.term(n), b) for n, b in enumerate(bounds))
        assert validate_envelope(ad.source, ad.env, 3000) == []

    def test_float_iterate_within_ulps_of_normal_bounds(self):
        rng = random.Random(22)
        pairs = [(0.999999, 0.999999), (1e-9, 0.5), (0.5, 0.999999)]
        pairs += [(rng.uniform(1e-9, 1.0), rng.uniform(1e-9, 1.0)) for _ in range(40)]
        pairs += [(1.0 - 10.0 ** rng.uniform(-9, -1), 10.0 ** rng.uniform(-15, 0)) for _ in range(40)]
        for r, y0 in pairs:
            ad = LogisticAdapter(r, y0)
            for n in range(3001):
                bound = ad.env.h(n).eval(ad.env.beta(n) ** n)
                if bound < 1e-15:
                    break
                assert ad.term(n) <= bound + 4 * math.ulp(bound), (r, y0, n)

    def test_solve(self):
        sol = logistic_solve(0.5, 0.5)
        assert (sol.sup_value, sol.argmax_min) == (0.5, 0)
        sol = logistic_solve(0.9, 0.1)
        assert (sol.sup_value, sol.argmax_min) == (0.1, 0)

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedParameter):
            logistic_solve(2.5, 0.3)
        with pytest.raises(UnsupportedParameter):
            logistic_solve(1.0, 0.3)

    def test_out_of_domain(self):
        with pytest.raises(PreconditionViolated):
            logistic_solve(0.5, 1.5)
        with pytest.raises(PreconditionViolated):
            logistic_solve(-0.2, 0.5)

    def test_membership(self):
        ad = LogisticAdapter(0.7, 0.4)
        assert validate_envelope(ad.source, ad.env, 100) == []


class TestSyracuse:
    def test_tiny_starts(self):
        assert syracuse_excursion(1) == (2, 1, True)
        assert syracuse_excursion(2) == (2, 0, True)
        assert syracuse_excursion(3) == (8, 2, True)

    def test_n27_matches_naive_iterator(self):
        # Independent re-implementation: plain while loop, no adapter code.
        y, best, arg, k = 27, 27, 0, 0
        while y != 1:
            y = y // 2 if y % 2 == 0 else (3 * y + 1) // 2
            k += 1
            if y > best:
                best, arg = y, k
        mx, first, cycled = syracuse_excursion(27)
        assert (mx, first, cycled) == (best, arg, True)
        assert mx == 4616

    def test_determinism(self):
        assert syracuse_excursion(97) == syracuse_excursion(97)
        ad1, ad2 = SyracuseAdapter(97), SyracuseAdapter(97)
        assert [ad1.term(k) for k in range(40)] == [ad2.term(k) for k in range(40)]

    def test_max_steps_exhaustion(self):
        mx, arg, cycled = syracuse_excursion(27, max_steps=5)
        assert not cycled

    def test_step_budget_bounds_the_trajectory(self):
        assert syracuse_excursion(27, 0) == (27, 0, False)
        assert syracuse_excursion(27, 5) == (71, 5, False)
        assert syracuse_excursion(2, 1) == (2, 0, True)
        assert syracuse_excursion(1, 0) == (2, 1, True)

    def test_step_budget_matches_truncated_iterator(self):
        def naive(n0, max_steps):
            ys = [n0]
            while len(ys) <= max_steps and ys[-1] != 1:
                y = ys[-1]
                ys.append(y // 2 if y % 2 == 0 else (3 * y + 1) // 2)
            cycled = ys[-1] == 1
            if cycled:
                ys.append(2)
            return max(ys), ys.index(max(ys)), cycled

        for n0 in range(1, 201):
            for max_steps in range(121):
                assert syracuse_excursion(n0, max_steps) == naive(n0, max_steps), (n0, max_steps)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            SyracuseAdapter.step(2**128 - 1)

    def test_cap_covers_computed_terms_only(self):
        # A start past 128 bits is taken as given; a term computed from it
        # must fit.  2^128 halves on its first step, 2^128 + 1 goes to
        # 3 * 2^127 + 2, past the cap.
        assert syracuse_excursion(2**128) == (2**128, 0, True)
        assert SyracuseAdapter(2**128 + 1).term(0) == 2**128 + 1
        with pytest.raises(OverflowError, match="exceeds 128-bit range"):
            syracuse_excursion(2**128 + 1)

    def test_rejects_zero(self):
        with pytest.raises(PreconditionViolated):
            SyracuseAdapter(0)


class TestSyracuseIntTerms:
    """The source is the exact walk, so `solve` reports an int supremum exactly."""

    def test_source_is_the_exact_walk(self):
        assert SyracuseAdapter(2**60 + 1).source.eval(0) == 2**60 + 1
        assert type(SyracuseAdapter(27).source.eval(45)) is int

    @pytest.mark.parametrize("n0", [2**60 + 1, 2**100 + 7, 27, 97, 871])
    def test_solve_matches_the_excursion(self, n0):
        # Past n1 the walk stays in {1, 2}, below c = 4.5, so the certificate
        # y_k <= a * 0.5^k + 4.5 with a fitted on y_0..y_n1 holds for every k.
        ys = [n0]
        while ys[-1] != 1:
            ys.append(SyracuseAdapter.step(ys[-1]))
        a = max((y - 4.5) / 0.5**k for k, y in enumerate(ys))
        env = AffineParams(a, 0.5, 4.5).constant_envelope()
        sol = solve(SyracuseAdapter(n0).source, env)
        best, arg, cycled = syracuse_excursion(n0)
        assert cycled
        assert type(sol.sup_value) is int
        assert (sol.sup_value, sol.argmax_min) == (best, arg)
        assert validate_envelope(SyracuseAdapter(n0).source, env, len(ys) + 4) == []

    def test_128_bit_int_against_a_float_bound(self):
        bound = float(2**128)
        assert not exceeds_certificate(2**128 - 1, bound)
        assert not exceeds_certificate(2**128, bound)
        # 2^-38 relative above the bound, far past the 1e-12 slack.
        assert exceeds_certificate(2**128 + 2**90, bound)

    def test_int_supremum_serializes_exactly(self):
        assert _dumps(2**128) == "340282366920938463463374607431768211456"


class TestCollatzEnvelopeCheck:
    def test_consistent_run(self):
        assert collatz_envelope_check(5, 10.0, 0.9, 5.0, 20).consistent

    def test_violation_index(self):
        outcome = collatz_envelope_check(6, 2.0, 0.5, 5.0, 10)
        assert not outcome.consistent
        assert outcome.violated_at == 3  # 6 -> 3 -> 5 -> 8 and 8 > 2*0.5^3 + 5

    def test_no_step_past_horizon(self):
        # y_1 of 2^128-1 overflows the 128-bit range; only a horizon of 1
        # or more needs it.
        assert collatz_envelope_check(2**128 - 1, 1e39, 0.9, 5.0, 0).consistent
        with pytest.raises(OverflowError):
            collatz_envelope_check(2**128 - 1, 1e39, 0.9, 5.0, 1)

    def test_c_domain(self):
        with pytest.raises(PreconditionViolated):
            collatz_envelope_check(5, 10.0, 0.9, 4.0, 20)
        with pytest.raises(PreconditionViolated):
            collatz_envelope_check(5, 10.0, 0.9, 5.5, 20)

    @pytest.mark.parametrize("b", [0.0, 1.0, -0.5, math.nan])
    def test_b_domain(self, b):
        with pytest.raises(PreconditionViolated, match=r"^need b in \(0, 1\)$"):
            collatz_envelope_check(27, 10.0, b, 5.0, 200)

    def test_zero_scale_is_the_constant_bound(self):
        # AffineParams rejects a = 0; the checker takes it as y_n <= c.
        assert collatz_envelope_check(1, 0.0, 0.5, 5.0, 10) == CollatzCheck(consistent=True)
        # 5 -> 8, and 8 > c = 5.
        assert collatz_envelope_check(5, 0.0, 0.5, 5.0, 10) == CollatzCheck(False, violated_at=1)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -1.0])
    def test_a_domain(self, a):
        # `nan < 0.0` is False, so a sign check alone lets nan through, and
        # then `y > nan` never fires: every trajectory would pass.
        with pytest.raises(PreconditionViolated):
            collatz_envelope_check(27, a, 0.9, 5.0, 200)


class TestSolveAgreesWithBruteForce:
    def test_factorial_family(self):
        for a in range(1, 13):
            for envelope in ("sequence", "constant"):
                sol = factorial_solve(a, envelope=envelope)
                mx, first, _ = brute_force_peak(
                    FactorialRatioAdapter(a).source, 2 * sol.truncation_index + 10
                )
                assert abs(sol.sup_value - mx) <= 1e-12 * abs(mx)
                assert sol.argmax_min == first

    def test_fibonacci_family(self):
        rng = random.Random(20260808)
        pairs = [(0, 1), (0, 3)]
        while len(pairs) < 12:
            u0 = rng.randint(1, 50)
            u1 = rng.randint(int(u0 * PHI) + 1, int(u0 * PHI) + 40)
            if u1 > u0 * PHI:
                pairs.append((u0, u1))
        for u0, u1 in pairs:
            sol = fibonacci_solve(u0, u1)
            src = FibonacciRatioAdapter(u0, u1).source
            mx, first, _ = brute_force_peak(src, 60)
            assert abs(sol.sup_value - mx) <= 1e-12 * abs(mx)
            assert sol.argmax_min == first

    def test_logistic_family(self):
        for r, y0 in [(0.15, 0.35), (0.5, 0.5), (0.85, 0.9)]:
            sol = logistic_solve(r, y0)
            mx, first, _ = brute_force_peak(LogisticAdapter(r, y0).source, 200)
            assert sol.sup_value == mx
            assert sol.argmax_min == first
