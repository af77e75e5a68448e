"""Envelope constructors, combinators, inversion, and the affine certificate."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakseq import (
    AffineParams,
    Monotonicity,
    PreconditionViolated,
    TermSource,
    affine_fn,
    argmax_bound,
    env_min,
    envelope_fn_from_forward,
    invert_numeric,
    nonconstant_decreasing_family,
    optimal_affine_certificate,
    promote_to_decreasing,
    validate_envelope,
)
from peakseq.algebra import EmptyFamily, InvalidBracket, OutOfRange
from peakseq.core import Envelope
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

    @given(
        a=st.floats(min_value=1e-3, max_value=1e3),
        c=st.floats(min_value=-10, max_value=10),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip_everywhere(self, a, c, x):
        fn = affine_fn(a, c)
        assert abs(fn.inverse(fn.eval(x)) - x) <= 1e-10


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
    return Envelope(h=lambda k: fn, beta=lambda k: beta, mono=Monotonicity.constant())


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
                     mono=Monotonicity.eventually_constant(2, 2))
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


GEOMETRIC = TermSource(eval=lambda k: 0.5**k, description="0.5^k")


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


class TestNonconstantDecreasingFamily:
    def test_limit_function(self):
        # The offsets min(c + 1/(k+1), (sup+c)/2) fall back to c, so the
        # family converges to the certificate line a*x + c itself; the
        # (sup+c)/2 cap only bites at small k.
        params = optimal_affine_certificate(GEOMETRIC, 0, 0.25, 2)
        env = nonconstant_decreasing_family(params, 1.0)
        far = env.h(10**9)
        assert far.eval(0.5) == pytest.approx(params.a * 0.5 + params.c, rel=1e-8)
        assert env.h(0).lo == pytest.approx(0.5 * (1.0 + 0.25))

    def test_validates_on_long_prefix(self):
        params = optimal_affine_certificate(GEOMETRIC, 0, 0.25, 2)
        env = nonconstant_decreasing_family(params, 1.0)
        assert validate_envelope(GEOMETRIC, env, 100) == []

    def test_useful_offsets_below_supremum(self):
        params = optimal_affine_certificate(GEOMETRIC, 0, 0.25, 2)
        env = nonconstant_decreasing_family(params, 1.0)
        for k in (0, 1, 5, 100):
            assert env.h(k).lo < 1.0
        assert env.mono.decreasing_from == 0
