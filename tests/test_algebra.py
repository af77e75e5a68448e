"""Envelope constructors, combinators, inversion, and the affine certificate."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakseq import (
    AffineParams,
    Monotonicity,
    PreconditionViolated,
    Tie,
    TermSource,
    affine_fn,
    argmax_bound,
    brute_force_peak,
    env_min,
    envelope_fn_from_forward,
    invert_numeric,
    optimal_affine_certificate,
    promote_to_decreasing,
    solve,
    validate_envelope,
)
from peakseq.algebra import EmptyFamily, InvalidBracket, OutOfRange, _max_fn, _min_fn, line_family
from peakseq.core import Envelope, EnvelopeFn
from peakseq.linsys import a_lambda_problem
from peakseq.sequences import PHI, FactorialRatioAdapter, FibonacciRatioAdapter

from helpers import fibonacci_rational_fn


class TestAffineFn:
    def test_identity(self):
        fn = affine_fn(1.0, 0.0)
        assert fn.lo == 0.0 and fn.hi == 1.0
        assert fn.eval(0.3) == 0.3

    def test_factorial_frozen_function(self):
        fn = affine_fn(9.0, 0.0)  # t * (a+1)^a for a=2
        assert fn.eval(1.0) == 9.0
        assert fn.eval(0.0) == 0.0

    def test_round_trip(self):
        fn = affine_fn(2.0, 1.0)
        assert fn.inverse(fn.eval(0.25)) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(PreconditionViolated):
            affine_fn(0.0, 1.0)

    @pytest.mark.parametrize("a, c", [(math.inf, 0.0), (math.inf, 1.0), (math.nan, 0.0),
                                      (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
    def test_rejects_non_finite_scale_or_offset(self, a, c):
        with pytest.raises(PreconditionViolated, match="must be positive and finite|must be finite"):
            affine_fn(a, c)

    def test_infinite_certificate_scale_is_rejected_before_the_scan(self):
        # y / inf = 0 made every index bound infinite, so solve scanned its
        # whole limit (10^7 terms) and then raised NoUsefulIndex.
        source = TermSource(eval=lambda k: 1 / (k + 1))
        with pytest.raises(PreconditionViolated, match="positive and finite"):
            solve(source, AffineParams(math.inf, 0.5, 0.0).constant_envelope())

    def test_slope_only_on_float_lines_through_zero(self):
        assert affine_fn(2.5, 0.0).slope == 2.5
        assert affine_fn(2.5, 1.0).slope is None
        assert affine_fn(2, 0.0).slope is None
        assert envelope_fn_from_forward(lambda x: x).slope is None

    @given(
        a=st.floats(min_value=1e-3, max_value=1e3),
        c=st.floats(min_value=-10, max_value=10),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip_everywhere(self, a, c, x):
        fn = affine_fn(a, c)
        assert abs(fn.inverse(fn.eval(x)) - x) <= 1e-10


class TestLineFamily:
    """line_family(slope, beta, m) is the family built by hand from one
    affine_fn(slope(k), 0.0) per index, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(0.01, 1.0)), min_size=1, max_size=20),
           st.floats(0.05, 0.95), st.integers(0, 5))
    def test_matches_the_hand_built_family(self, draws, beta, m):
        # Unsorted slopes make a family that is not decreasing: validation
        # then has findings to compare, and the scan still ends.
        n = len(draws)
        m = min(m, n - 1)
        slopes = [s for s, _ in draws]
        terms = [s * beta**k * f for k, (s, f) in enumerate(draws)]

        def slope(k):
            return slopes[min(k, n - 1)]

        source = TermSource(eval=lambda k: terms[k] if k < n else 0.0)
        family = line_family(slope, beta, m)
        by_hand = Envelope(h=lambda k: affine_fn(slope(k), 0.0), beta=lambda k: beta, mono=Monotonicity(m))
        assert family.mono == by_hand.mono
        for tie in Tie:
            runs = []
            for env in (family, by_hand):
                steps = []
                sol = solve(source, env, tie=tie, on_step=lambda *step: steps.append(step))
                runs.append((sol, sol.sup_value.hex(), steps))
            assert runs[0] == runs[1]
        assert validate_envelope(source, family, n + 2) == validate_envelope(source, by_hand, n + 2)

    def test_zero_slope_is_the_least_subnormal(self):
        fn = line_family(lambda k: 0.0, 0.5).h(3)
        assert fn.slope == fn.eval(1.0) == math.ulp(0.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_slope_raises(self, bad):
        with pytest.raises(PreconditionViolated):
            line_family(lambda k: bad, 0.5).h(0)


class TestInvertNumeric:
    def test_identity(self):
        assert invert_numeric(lambda x: x, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_square(self):
        assert invert_numeric(lambda x: x * x, 0.04) == pytest.approx(0.2, abs=1e-12)

    def test_fibonacci_rational_branch(self):
        # A rational function with its pole at the right endpoint, h(phi^-4) = 2.
        x = invert_numeric(fibonacci_rational_fn().eval, 2.0)
        assert x == pytest.approx(PHI**-4, abs=1e-10)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            invert_numeric(lambda x: x, 1.5)

    def test_clamps_within_slack(self):
        assert invert_numeric(lambda x: x, 1.0 + 1e-13) == 1.0

    def test_nan_raises(self):
        # NaN passes both range tests; bisection would end at 0.0, a bound
        # that ends the scan at once.
        with pytest.raises(OutOfRange):
            invert_numeric(lambda x: x, math.nan)
        with pytest.raises(OutOfRange):
            envelope_fn_from_forward(lambda x: x**3 + x).inverse(math.nan)

    @given(
        c3=st.floats(min_value=0.1, max_value=5.0),
        c1=st.floats(min_value=0.1, max_value=5.0),
        y_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_bisection_against_forward(self, c3, c1, y_frac):
        f = lambda x: c3 * x**3 + c1 * x
        y = f(0.0) + y_frac * (f(1.0) - f(0.0))
        x = invert_numeric(f, y)
        assert abs(f(x) - y) <= 1e-10 * max(1.0, abs(y))

    def test_forward_wrapper(self):
        fn = envelope_fn_from_forward(lambda x: x**3 + x)
        assert fn.lo == 0.0 and fn.hi == 2.0
        assert fn.inverse(fn.eval(0.7)) == pytest.approx(0.7, abs=1e-10)

    def test_inverse_far_below_one_keeps_its_bound(self):
        # u_60 = 2e-20 <= 0.5^60, so h(x) = x is a valid envelope.  An
        # inverse of 1e-20 good only to an absolute 1e-14 came back as about
        # 7e-15 and bounded the scan at 48, before the peak at 60.
        assert invert_numeric(lambda x: x, 1e-20) == math.nextafter(1e-20, 0.0)
        terms = {0: 1e-20, 60: 2e-20}
        source = TermSource(eval=lambda k: terms.get(k, 0.0))
        assert brute_force_peak(source, 100) == (2e-20, 60, 60)
        for fn in (affine_fn(1.0, 0.0), envelope_fn_from_forward(lambda x: x)):
            sol = solve(source, _const_env(fn, 0.5))
            assert (sol.sup_value, sol.argmax_min, sol.truncation_index) == (2e-20, 60, 65)

    def test_bound_never_below_the_exact_inverse(self):
        # The bisection returns a point below the exact inverse, so its
        # floored index bound is never below the one of the exact line.
        rng = random.Random(28)
        for _ in range(2000):
            a, beta = rng.uniform(1.0, 1e6), rng.uniform(0.3, 0.999)
            y = a * beta ** rng.randint(0, 400) * (1.0 + rng.uniform(-1e-12, 1e-12))
            exact = argmax_bound(0, y, _const_env(affine_fn(a, 0.0), beta)).floor()
            numeric = argmax_bound(0, y, _const_env(envelope_fn_from_forward(lambda x: a * x), beta)).floor()
            assert numeric >= exact, (a, beta, y)


def test_round_trip_across_bundled_envelope_functions():
    # Every constructed envelope function inverts its own values to 1e-10
    # on a 100-point grid.
    from peakseq.sequences import LogisticAdapter

    functions = [
        affine_fn(2.0, 1.0),
        affine_fn(0.01, -3.0),
        FactorialRatioAdapter(5).seq_env.h(3),
        FactorialRatioAdapter(5).const_env.h(0),
        FibonacciRatioAdapter(0, 1).env.h(0),
        FibonacciRatioAdapter(3, 5).env.h(0),
        LogisticAdapter(0.7, 0.4).env.h(4),
        envelope_fn_from_forward(lambda x: x**3 + 0.5 * x),
    ]
    for fn in functions:
        for i in range(100):
            x = i / 99.0
            assert abs(fn.inverse(fn.eval(x)) - x) <= 1e-10


def _const_env(fn, beta):
    return Envelope(h=lambda k: fn, beta=lambda k: beta, mono=Monotonicity(constant_from=0))


class TestEnvMin:
    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            env_min([])

    def test_single_is_identity(self):
        ad = FactorialRatioAdapter(3)
        assert env_min([ad.seq_env]) is ad.seq_env

    def test_crossing_affines_inverse(self):
        # min(2x+1, x+1.5) crosses at x=0.5; at y=1.2 only the first branch
        # is defined, so the inverse is (1.2-1)/2 = 0.1.
        e1 = _const_env(affine_fn(2.0, 1.0), 0.5)
        e2 = _const_env(affine_fn(1.0, 1.5), 0.5)
        merged = env_min([e1, e2])
        fn = merged.h(0)
        assert fn.inverse(1.2) == pytest.approx(0.1, abs=1e-14)
        assert fn.eval(0.25) == pytest.approx(1.5)   # first branch wins below 0.5
        assert fn.eval(0.75) == pytest.approx(2.25)  # second wins above

    def test_inverse_out_of_range_below_all(self):
        e1 = _const_env(affine_fn(2.0, 1.0), 0.5)
        e2 = _const_env(affine_fn(1.0, 1.5), 0.5)
        with pytest.raises(OutOfRange):
            env_min([e1, e2]).h(0).inverse(0.5)

    def test_inverse_matches_bisection_oracle(self):
        e1 = _const_env(affine_fn(2.0, 1.0), 0.5)
        e2 = _const_env(affine_fn(1.0, 1.5), 0.5)
        fn = env_min([e1, e2]).h(0)
        for i in range(1, 100):
            y = fn.lo + (fn.hi - fn.lo) * i / 100.0
            assert abs(fn.inverse(y) - invert_numeric(fn.eval, y)) <= 1e-10

    def test_never_increases_bound_with_shared_beta(self):
        for a in (2, 3, 5):
            ad = FactorialRatioAdapter(a)
            merged = env_min([ad.seq_env, ad.const_env])
            for k in range(0, 3 * a + 1):
                if ad.source.eval(k) <= merged.h(k).lo:
                    continue
                merged_ub = argmax_bound(k, ad.source.eval(k), merged)
                for env in (ad.seq_env, ad.const_env):
                    ub = argmax_bound(k, ad.source.eval(k), env)
                    if ub.is_finite:
                        assert merged_ub.value <= ub.value + 1e-9

    def test_class_metadata(self):
        ad = FactorialRatioAdapter(4)
        merged = env_min([ad.seq_env, ad.const_env])
        assert merged.mono.decreasing_from == 4
        assert merged.mono.constant_from is None
        both_const = env_min([ad.const_env, _const_env(affine_fn(999.0, 0.0), 0.9)])
        assert both_const.mono.constant_from == 0


class TestPromoteToDecreasing:
    def test_already_decreasing_unchanged(self):
        e = _const_env(affine_fn(1.0, 0.0), 0.5)
        assert promote_to_decreasing(e) is e

    def test_factorial_prefix_becomes_constant(self):
        ad = FactorialRatioAdapter(2)
        promoted = promote_to_decreasing(ad.seq_env)
        assert promoted.mono.decreasing_from == 0
        for k in (0, 1, 2):
            assert promoted.h(k).eval(1.0) == pytest.approx(4.5)
            assert promoted.beta(k) == pytest.approx(2.0 / 3.0)
        assert promoted.h(3).eval(1.0) == pytest.approx(ad.seq_env.h(3).eval(1.0))

    def test_constant_start_inside_the_prefix_moves_past_it(self):
        e = Envelope(h=lambda k: affine_fn(1.0, 0.0), beta=lambda k: 0.5,
                     mono=Monotonicity(2, 2))
        assert promote_to_decreasing(e).mono == Monotonicity(0, 3)

    def test_membership_preserved(self):
        ad = FactorialRatioAdapter(5)
        promoted = promote_to_decreasing(ad.seq_env)
        assert validate_envelope(ad.source, promoted, 60) == []

    def test_bound_never_decreases_on_prefix(self):
        ad = FactorialRatioAdapter(5)
        promoted = promote_to_decreasing(ad.seq_env)
        for k in range(0, 6):
            orig = argmax_bound(k, ad.source.eval(k), ad.seq_env)
            prom = argmax_bound(k, ad.source.eval(k), promoted)
            if orig.is_finite and prom.is_finite:
                assert prom.value >= orig.value - 1e-9

    def test_prefix_inverse_matches_bisection(self):
        ad = FactorialRatioAdapter(4)
        fn = promote_to_decreasing(ad.seq_env).h(0)
        for i in range(1, 50):
            y = fn.lo + (fn.hi - fn.lo) * i / 50.0
            assert abs(fn.inverse(y) - invert_numeric(fn.eval, y)) <= 1e-10


def _without_slope(fn: EnvelopeFn) -> EnvelopeFn:
    """fn with its slope dropped, so the combinators take their general path."""
    return EnvelopeFn(fn.eval, fn.inverse, fn.lo, fn.hi)


def _stripped(env: Envelope) -> Envelope:
    return Envelope(h=lambda k: _without_slope(env.h(k)), beta=env.beta, mono=env.mono)


_SUBNORMALS = (math.ulp(0.0), 2 * math.ulp(0.0), 1e-310, math.nextafter(2.0**-1022, 0.0))
_X_GRID = (0.0, *_SUBNORMALS, 2.0**-1022, 1e-300, 1e-17,
           *(i / 16 for i in range(1, 16)), math.nextafter(1.0, 0.0), 1.0)


def _positive_slopes():
    finite = st.floats(min_value=math.ulp(0.0), max_value=1e300, allow_nan=False,
                       allow_infinity=False)
    slope = st.one_of(st.just(math.ulp(0.0)), finite)
    # A slope and its neighbour one ulp up.
    pair = finite.map(lambda a: [a, math.nextafter(a, math.inf)])
    return st.one_of(
        st.lists(slope, min_size=1, max_size=5),
        st.tuples(pair, st.lists(slope, max_size=3)).map(lambda t: t[0] + t[1]),
    ).flatmap(st.permutations)


class TestLinesThroughZero:
    """A max or min of lines x -> a*x is one line, to the bit."""

    @staticmethod
    def assert_same_bits(fast, general):
        assert fast.lo.hex() == general.lo.hex() and fast.hi.hex() == general.hi.hex()
        for x in _X_GRID:
            assert fast.eval(x).hex() == general.eval(x).hex(), x
        ys = {fast.lo, fast.hi, math.nextafter(fast.hi, 0.0), *_SUBNORMALS,
              *(fast.hi * i / 16 for i in range(17)), *(fast.eval(x) for x in _X_GRID)}
        for y in sorted(v for v in ys if fast.lo <= v <= fast.hi):
            assert fast.inverse(y).hex() == general.inverse(y).hex(), y

    @settings(max_examples=200)
    @given(slopes=_positive_slopes())
    def test_max_and_min_match_the_general_combinator(self, slopes):
        fns = [affine_fn(a, 0.0) for a in slopes]
        general = [_without_slope(fn) for fn in fns]
        for combine, pick in ((_max_fn, max), (_min_fn, min)):
            fast = combine(fns)
            assert fast.slope == pick(slopes)
            self.assert_same_bits(fast, combine(general))

    @pytest.mark.parametrize("combine", [_max_fn, _min_fn])
    def test_any_other_branch_keeps_the_general_path(self, combine):
        line = affine_fn(2.0, 0.0)
        for other in (affine_fn(1.0, 0.5), _without_slope(affine_fn(1.0, 0.0))):
            fn = combine([line, other])
            assert fn.slope is None and fn is not line and fn is not other
            pick = max if combine is _max_fn else min
            assert fn.eval(0.75) == pick(line.eval(0.75), other.eval(0.75))
        # The general max raises above every branch; one line would not.
        with pytest.raises(OutOfRange):
            _max_fn([line, _without_slope(affine_fn(1.0, 0.0))]).inverse(3.0)

    @pytest.mark.parametrize("tie", list(Tie))
    @pytest.mark.parametrize("a", [1, 2, 20, 142, 712])
    def test_promoted_factorial_scan_is_that_of_the_general_family(self, a, tie):
        ad = FactorialRatioAdapter(a)
        fast = promote_to_decreasing(ad.seq_env)
        general = promote_to_decreasing(_stripped(ad.seq_env))
        assert fast.h(0).slope is not None and general.h(0).slope is None
        assert self.scan(FactorialRatioAdapter(a).source, fast, tie) == self.scan(
            FactorialRatioAdapter(a).source, general, tie)

    @pytest.mark.parametrize("tie", list(Tie))
    @pytest.mark.parametrize("a", [1, 2, 20, 142])
    def test_env_min_factorial_scan_is_that_of_the_general_family(self, a, tie):
        ad = FactorialRatioAdapter(a)
        fast = env_min([ad.seq_env, ad.const_env])
        general = env_min([_stripped(ad.seq_env), _stripped(ad.const_env)])
        assert fast.h(a).slope is not None and general.h(a).slope is None
        assert self.scan(FactorialRatioAdapter(a).source, fast, tie) == self.scan(
            FactorialRatioAdapter(a).source, general, tie)

    @staticmethod
    def scan(source, env, tie):
        """The solution and every on_step call, as reprs (exact for floats)."""
        steps = []
        sol = solve(source, env, tie=tie, on_step=lambda *step: steps.append(repr(step)))
        return repr(sol), steps

    def test_promote_of_env_min_collapses_again(self):
        ad = FactorialRatioAdapter(20)
        promoted = promote_to_decreasing(env_min([ad.seq_env, ad.const_env]))
        fn = promoted.h(0)
        assert fn.slope == max(ad.seq_env.h(k).slope for k in range(21))
        assert fn.inverse(fn.hi) == 1.0


class TestAffineParams:
    @pytest.mark.parametrize("a, c", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                      (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
    def test_rejects_non_finite_scale_or_offset(self, a, c):
        with pytest.raises(PreconditionViolated, match="must be positive and finite|must be finite"):
            AffineParams(a, 0.5, c)

    @pytest.mark.parametrize("b", [0.0, 1.0, -0.5, math.nan])
    def test_rejects_ratio_outside_the_unit_interval(self, b):
        with pytest.raises(PreconditionViolated, match=r"^certificate ratio b must lie in \(0,1\)$"):
            AffineParams(1.0, b, 0.0)


GEOMETRIC = TermSource(eval=lambda k: 0.5**k, description="0.5^k")


def ramp_then_drop(k_s):
    """Terms 0..k_s, then k_s - 0.5, then zeros.  With c = k_s - 0.5 and
    n_c = k_s + 1 the steepest secant is the adjacent one, so b = 1/e and
    a = 0.5 * e^k_s."""
    return TermSource(eval=lambda k: float(k) if k <= k_s else k_s - 0.5 if k == k_s + 1 else 0.0)


class TestOptimalAffineCertificate:
    def test_geometric(self):
        params = optimal_affine_certificate(GEOMETRIC, 0, 0.25, 2)
        assert params.bound_at(0) == pytest.approx(1.0, rel=1e-12)
        assert params.b == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert params.a == pytest.approx(0.75, rel=1e-12)

    def test_certificate_touches_at_last_maximizer(self):
        ad = FibonacciRatioAdapter(0, 1)
        c = (PHI + 2.0) / 2.0
        params = optimal_affine_certificate(ad.source, 2, c, 6)
        env = params.constant_envelope()
        ub = argmax_bound(2, ad.source.eval(2), env)
        assert ub.value == pytest.approx(2.0, abs=1e-6)

    def test_one_evaluation_per_index(self):
        ad = FactorialRatioAdapter(5)
        calls = []
        src = TermSource(eval=lambda k: calls.append(k) or ad.source.eval(k), description="counted")
        params = optimal_affine_certificate(src, 5, 1.0, 30)
        assert sorted(calls) == list(range(31))
        assert params == AffineParams(
            a=float.fromhex("0x1.ed4cacb2dc8f1p+4"), b=float.fromhex("0x1.eb2398d875895p-1"), c=1.0
        )

    def test_scale_past_the_float_range_raises(self):
        # The steepest secant is the adjacent one, so b = 1/e and
        # a = (u* - c) * e^709 = 3 * e^709 rounds to inf, a bound that every
        # term would pass.
        src = TermSource(eval=lambda k: 3.0 * k if k <= 709 else 2124.0 if k == 710 else 0.0)
        with pytest.raises(PreconditionViolated, match="positive and finite"):
            optimal_affine_certificate(src, 709, 2124.0, 710)

    def test_largest_finite_scale_still_fits(self):
        # Terms 0..k_s, then k_s - 0.5, then zeros: a = 0.5 * e^709 is finite.
        k_s = 709
        src = TermSource(eval=lambda k: float(k) if k <= k_s else k_s - 0.5 if k == k_s + 1 else 0.0)
        params = optimal_affine_certificate(src, k_s, k_s - 0.5, k_s + 1)
        assert params.a == pytest.approx(0.5 * math.exp(709), rel=1e-12)
        assert params.b == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_scale_past_the_range_of_exp_comes_from_its_log(self):
        # e^710 overflows, but a = 0.5 * e^710 = e^709.31 (about 1.117e308)
        # fits, and the certificate still touches the terms at k_s.
        k_s = 710
        src = ramp_then_drop(k_s)
        params = optimal_affine_certificate(src, k_s, k_s - 0.5, k_s + 1)
        assert params.a == pytest.approx(math.exp(math.log(0.5) + k_s), rel=1e-12)
        env = params.constant_envelope()
        assert argmax_bound(k_s, src.eval(k_s), env).floor() == k_s
        assert validate_envelope(src, env, k_s + 3) == []

    def test_scale_past_the_float_range_from_its_log_raises(self):
        # log a = log 0.5 + 711 = 710.31, past log(float max) = 709.78.
        with pytest.raises(PreconditionViolated, match="positive and finite"):
            optimal_affine_certificate(ramp_then_drop(711), 711, 710.5, 712)

    @pytest.mark.parametrize("generic", [False, True])
    def test_table_row_past_the_float_range_raises(self, generic):
        # The lambda = 0.999 row (k_s = 999) after a scan with truncation K:
        # c is the largest of the bound at K + 1 and the terms in (k_s, K],
        # and n_c = K + 1.  Its scale has log a = 991.48 on both paths.
        _, source, env = a_lambda_problem(0.999, generic=generic)
        sol = solve(source, env, tie=Tie.MAX_ARGMAX)
        k_s, n_c = sol.argmax_min, sol.truncation_index + 1
        tail = [source.eval(k) for k in range(k_s + 1, n_c)]
        c = max([env.h(n_c).eval(env.beta(n_c) ** n_c)] + tail)
        assert k_s == 999
        with pytest.raises(PreconditionViolated, match="positive and finite"):
            optimal_affine_certificate(source, k_s, c, n_c)

    def test_rejects_negative_k_s(self):
        with pytest.raises(PreconditionViolated):
            optimal_affine_certificate(GEOMETRIC, -1, 0.25, 2)

    def test_rejects_offset_at_or_above_peak(self):
        with pytest.raises(InvalidBracket):
            optimal_affine_certificate(GEOMETRIC, 0, 1.0, 2)

    def test_rejects_wrong_last_maximizer(self):
        # A later term equals the claimed maximum, so the secant slope is 0.
        src = TermSource(eval=lambda k: 1.0 if k in (0, 3) else 0.1, description="twin peaks")
        with pytest.raises(InvalidBracket):
            optimal_affine_certificate(src, 0, 0.5, 5)

    def test_nan_term_before_the_maximizer_fails_the_direct_check(self):
        # The secants run past k_s only, so a NaN before it reaches the
        # direct check, where a NaN term exceeds every bound.
        src = TermSource(eval=lambda k: math.nan if k == 0 else 0.5 ** (k - 1))
        with pytest.raises(InvalidBracket, match=re.escape("certificate fails the direct check at k=0: u_k=nan > ")):
            optimal_affine_certificate(src, 1, 0.1, 4)

