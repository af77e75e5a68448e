"""Core solver, index-bound, and oracle operations."""

import math
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from peakseq import (
    Envelope,
    EnvelopeFn,
    EnvelopeViolation,
    Monotonicity,
    NoUsefulIndex,
    PreconditionViolated,
    TermSource,
    Tie,
    UpperBoundValue,
    argmax_bound,
    brute_force_peak,
    solve,
    truncation_from,
    validate_envelope,
)
from peakseq.algebra import AffineParams, affine_fn, env_min, promote_to_decreasing
from peakseq import algebra, core
from peakseq.core import _SAMPLE_GRID
from peakseq.sequences import (
    PHI,
    FactorialRatioAdapter,
    FibonacciRatioAdapter,
    SyracuseAdapter,
    collatz_envelope_check,
)
from peakseq import linsys

from helpers import (
    InvalidTailBound,
    fibonacci_rational_fn,
    power_walk,
    prefix_index_sets,
    reference_findings,
    reference_power_norms,
    reference_row_norm_bounds,
    reference_solve,
    stopping_index,
)


def constant_env(fn, beta):
    return Envelope(h=lambda k: fn, beta=lambda k: beta, mono=Monotonicity(constant_from=0))


class TestEnvelopeFn:
    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_rejects_an_empty_or_nan_range(self, lo, hi):
        with pytest.raises(PreconditionViolated, match=re.escape(f"need lo < hi, got [{lo!r}, {hi!r}]")):
            EnvelopeFn(eval=abs, inverse=abs, lo=lo, hi=hi)


class TestUpperBoundValue:
    def test_finite_rejects_negative_and_inf(self):
        with pytest.raises(PreconditionViolated):
            UpperBoundValue.finite(-0.5)
        with pytest.raises(PreconditionViolated):
            UpperBoundValue.finite(math.inf)

    def test_variants(self):
        assert UpperBoundValue.finite(3.0).is_finite
        assert not UpperBoundValue.infinite().is_finite


class TestArgmaxBound:
    def test_factorial_sequence_envelope_is_tight_at_a(self):
        ad = FactorialRatioAdapter(5)
        ub = argmax_bound(5, ad.source.eval(5), ad.seq_env)
        assert ub.is_finite
        assert ub.value == pytest.approx(5.0, abs=1e-12)

    def test_equality_at_left_endpoint_is_infinite(self):
        # u_0 = h_0(0): the strict inequality fails at equality, no epsilon.
        src = TermSource(eval=lambda k: 1.0, description="ones")
        env = constant_env(affine_fn(1.0, 1.0), 0.5)
        assert not argmax_bound(0, src.eval(0), env).is_finite

    def test_inverse_underflow_to_zero_is_infinite(self):
        # h^-1(1e-300) = 1e-300 / 1e300 underflows to 0.0, where no beta^j reaches.
        env = constant_env(affine_fn(1e300, 0.0), 0.5)
        assert not argmax_bound(0, 1e-300, env).is_finite

    def test_constant_envelope_factorial_a2(self):
        ad = FactorialRatioAdapter(2)
        ub = argmax_bound(2, ad.source.eval(2), ad.const_env)
        expected = -math.log(2.0) / math.log(2.0 / 3.0) + 2.0
        assert ub.value == pytest.approx(expected, rel=1e-14)
        assert math.floor(ub.value) == 3

    def test_violation_raises_with_index(self):
        src = TermSource(eval=lambda k: 10.0, description="tens")
        env = constant_env(affine_fn(1.0, 0.0), 0.5)  # h(beta^k) <= 1 < 10
        with pytest.raises(EnvelopeViolation) as err:
            argmax_bound(3, src.eval(3), env)
        assert err.value.k == 3

    def test_roundoff_above_certificate_is_tolerated(self):
        fn = affine_fn(1.0, 0.0)
        bound = fn.eval(0.5**2)
        src = TermSource(eval=lambda k: bound * (1.0 + 1e-14), description="edge")
        env = constant_env(fn, 0.5)
        ub = argmax_bound(2, src.eval(2), env)
        assert ub.is_finite and ub.value == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("beta", [1.5, 1.0, math.nan], ids=["above-1", "one", "nan"])
    def test_beta_out_of_range_raises(self, beta):
        # Unchecked, 1.5 gave a wrong bound, 1.0 divided by log(1) = 0 and
        # nan floored the bound to 0.
        env = constant_env(affine_fn(1.0, 0.0), beta)
        with pytest.raises(PreconditionViolated, match=re.escape(f"beta_k={beta!r} at k=1")):
            argmax_bound(1, 0.9, env)


    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_term_raises(self, bad):
        # Unchecked, inf passed the slack (cert + inf) and nan every
        # comparison; both gave a bound of 0.
        env = constant_env(affine_fn(1.0, 0.0), 0.5)
        with pytest.raises(PreconditionViolated, match=re.escape(f"k=3: u_k={bad!r}")):
            argmax_bound(3, bad, env)


def bad_at_3(bad):
    """0.5^k, equal to h(0.5^k) under h(t) = t, except u_3 = bad."""
    return TermSource(eval=lambda k: bad if k == 3 else 0.5**k, description="bad term")


class TestTruncationFrom:
    def test_factorial(self):
        ad = FactorialRatioAdapter(5)
        assert truncation_from(5, ad.source, ad.seq_env) == 5

    def test_infinite_branch_gives_none(self):
        src = TermSource(eval=lambda k: 0.5, description="halves")
        env = constant_env(affine_fn(1.0, 1.0), 0.5)  # h(0)=1 > 0.5
        assert truncation_from(0, src, env) is None

    def test_benchmark_half(self):
        env = linsys.envelope_from_certificate(linsys.a_lambda(0.5), linsys.p_q(0.5))
        src = linsys.a_lambda_source(0.5)
        assert truncation_from(1, src, env) == 2

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_term_raises(self, bad):
        env = constant_env(affine_fn(1.0, 0.0), 0.5)
        with pytest.raises(PreconditionViolated, match=re.escape(f"k=3: u_k={bad!r}")):
            truncation_from(3, bad_at_3(bad), env)


def one_family_per_class():
    """(term, envelope) of one family per monotonicity class, keyed by class."""
    fact = FactorialRatioAdapter(20)
    system = linsys.LinearSystem(linsys.a_lambda(0.9, 3), linsys.p_q(0.9, 3))
    # (k+1) 0.8^k peaks at k = 3 and 4 under 8 (0.9)^k, with steeper slopes
    # and larger ratios before c = 3.
    stepped = Envelope(h=lambda k: affine_fn(8.0 + max(0, 3 - k), 0.0),
                       beta=lambda k: 0.9 + 0.01 * max(0, 3 - k),
                       mono=Monotonicity(0, 3))
    term = lambda k: (k + 1) * 0.8**k
    return {
        "constant": (fact.source.eval, fact.const_env),
        "eventually constant": (term, stepped),
        "decreasing": (system.source.eval, system.env),
        "eventually decreasing": (term, Envelope(stepped.h, stepped.beta, Monotonicity(2))),
    }


class TestSolve:
    def test_factorial_a5(self):
        ad = FactorialRatioAdapter(5)
        sol = solve(ad.source, ad.seq_env)
        assert sol.sup_value == pytest.approx(3125.0 / 120.0, rel=1e-15)
        assert sol.argmax_min == 4
        assert sol.truncation_index == 5
        assert sol.terms_evaluated == 6

    def test_tie_rules_straddle_decreasing_from(self):
        # x_4 == x_5 exactly; the min rule reports 4, the max rule 5.
        ad = FactorialRatioAdapter(5)
        assert solve(ad.source, ad.seq_env, tie=Tie.MIN_ARGMAX).argmax_min == 4
        sol = solve(ad.source, ad.seq_env, tie=Tie.MAX_ARGMAX)
        assert sol.argmax_min == 5
        assert sol.argmax_max_requested

    @pytest.mark.parametrize("tie", ["max", "min", None, 1])
    def test_tie_must_be_a_tie_member(self, tie):
        # Any value but Tie.MAX_ARGMAX used to mean the min rule in silence.
        ad = FactorialRatioAdapter(5)
        with pytest.raises(PreconditionViolated, match="tie must be a Tie member"):
            solve(ad.source, ad.seq_env, tie=tie)

    def test_fibonacci_unit_start(self):
        ad = FibonacciRatioAdapter(0, 1)
        sol = solve(ad.source, ad.env)
        assert sol.sup_value == 2.0
        assert sol.argmax_min == 2
        assert sol.truncation_index == 2

    def test_benchmark_row_09(self):
        env = linsys.envelope_from_certificate(linsys.a_lambda(0.9), linsys.p_q(0.9))
        sol = solve(linsys.a_lambda_source(0.9), env)
        assert sol.sup_value == pytest.approx(15.3082, abs=1e-3)
        assert sol.argmax_min == 9
        assert sol.truncation_index == 20

    @pytest.mark.parametrize("beta", [1.5, 1.0, math.nan], ids=["above-1", "one", "nan"])
    def test_beta_out_of_range_raises(self, beta):
        # With beta = 1.5 the unchecked solver stopped at k = 0 and reported
        # (0.5, 0); the peak is 0.9 at index 1.
        terms = [0.5, 0.9, 0.1]
        src = TermSource(eval=lambda k: terms[k] if k < 3 else 0.1, description="peak at 1")
        env = constant_env(affine_fn(1.0, 0.0), beta)
        with pytest.raises(PreconditionViolated, match=re.escape(f"beta_k={beta!r} at k=0")):
            solve(src, env)

    def test_no_useful_index_raises(self):
        src = TermSource(eval=lambda k: 1.0, description="ones")
        env = constant_env(affine_fn(1.0, 2.0), 0.5)  # h(0)=2 above everything
        with pytest.raises(NoUsefulIndex):
            solve(src, env, scan_limit=200)

    @pytest.mark.parametrize("limit", [0, 3])
    def test_no_useful_index_after_the_last_scanned_index(self, limit):
        # Every term at or below h_k(0) = 2: on_step sees 0 .. m + limit,
        # and the error follows the last of them.
        steps = []
        env = Envelope(h=lambda k: affine_fn(1.0, 2.0), beta=lambda k: 0.5, mono=Monotonicity(2))
        with pytest.raises(NoUsefulIndex) as err:
            solve(TermSource(eval=lambda k: 1.0 + k % 2), env, scan_limit=limit,
                  on_step=lambda k, *rest: steps.append(k))
        assert steps == list(range(2 + limit + 1))
        assert str(err.value) == (
            f"no index in [2, {2 + limit}] has u_k > h_k(0); "
            "increase the scan limit only if the envelope is known useful"
        )

    @pytest.mark.parametrize("limit", [-1, -3, 2.5, "10", None])
    def test_scan_limit_must_be_a_non_negative_int(self, limit):
        # A negative limit would otherwise end in NoUsefulIndex, naming the
        # empty range [2, 1], after the prefix terms.
        calls = []
        env = Envelope(h=lambda k: affine_fn(1.0, 2.0), beta=lambda k: 0.5, mono=Monotonicity(2))
        message = f"scan_limit must be an int >= 0, got {limit!r}"
        with pytest.raises(PreconditionViolated, match=re.escape(message)):
            solve(TermSource(eval=lambda k: calls.append(k) or 1.0), env, scan_limit=limit)
        assert calls == []

    def test_scan_limit_zero_scans_index_m(self):
        sol = solve(TermSource(eval=lambda k: 0.5**k), constant_env(affine_fn(1.0, 0.0), 0.5), scan_limit=0)
        assert (sol.sup_value, sol.argmax_min, sol.truncation_index) == (1.0, 0, 0)

    def test_violation_propagates(self):
        src = TermSource(eval=lambda k: 10.0, description="tens")
        env = constant_env(affine_fn(1.0, 0.0), 0.5)
        with pytest.raises(EnvelopeViolation):
            solve(src, env)

    def test_sup_covers_terms_outside_useful_set(self):
        # The peak sits at k=1 where u_k <= h_k(0); the scan must still see it.
        terms = {0: 5.0, 1: 10.0}
        src = TermSource(eval=lambda k: terms.get(k, 0.8**k), description="hidden peak")

        def fn(k):
            if k <= 1:
                return affine_fn(1.0, 20.0)
            return affine_fn(1.0, 0.5)

        env = Envelope(h=fn, beta=lambda k: 0.8, mono=Monotonicity())
        sol = solve(src, env)
        assert sol.sup_value == 10.0
        assert sol.argmax_min == 1

    def test_on_step_sees_every_evaluated_term(self):
        ad = FactorialRatioAdapter(4)
        seen = []
        sol = solve(ad.source, ad.seq_env, on_step=lambda k, u, b, K: seen.append(k))
        assert seen == list(range(sol.terms_evaluated))

    @pytest.mark.parametrize("family", ["constant", "eventually constant", "decreasing",
                                        "eventually decreasing"])
    @pytest.mark.parametrize("tie", list(Tie))
    def test_trace_bounds_are_the_scan_bounds(self, monkeypatch, family, tie):
        term, env = one_family_per_class()[family]
        real, calls = core.argmax_bound, []
        monkeypatch.setattr(core, "argmax_bound", lambda k, *args: calls.append(k) or real(k, *args))
        sol = solve(TermSource(eval=term), env, tie=tie)
        scanned, traced = list(calls), []
        assert solve(TermSource(eval=term), env, tie=tie,
                     on_step=lambda k, u, bound, K: bound is None or traced.append(k)) == sol
        assert traced == scanned
        assert len(scanned) >= 2

    def test_eventually_constant_with_peak_before_m(self):
        # The running max never improves past m, and the prefix max u_0 = 10
        # lies above every h_k(beta^k) from m on, so the bound at the running
        # max ends the scan at m (at u_1 alone it would run to 5).
        term = lambda k: 10.0 if k == 0 else 2.0 * 0.8**k
        big = affine_fn(1.0, 12.0)
        tail = affine_fn(4.0, 0.5)
        env = Envelope(
            h=lambda k: big if k == 0 else tail,
            beta=lambda k: 0.8,
            mono=Monotonicity(1, 1),
        )
        sol = solve(TermSource(eval=term, description="early peak"), env, scan_limit=1000)
        assert sol.sup_value == 10.0
        assert sol.argmax_min == 0
        assert sol.truncation_index == 1
        assert sol.terms_evaluated == 2
        for tie in Tie:
            agrees_with_brute_force(solve_six_ways(term, term, term, env, tie), term, 20, tie)

    def test_peak_before_m_under_a_flat_tail_ends(self):
        # Every term from m on lies at or below h(0) = 0.5, so no bound at
        # the term itself is ever finite; the running max bounds them all.
        # A bound taken only at new maxima would scan the whole default scan
        # limit here and raise NoUsefulIndex.
        term = lambda k: 10.0 if k == 0 else 0.0
        fns = (affine_fn(1.0, 12.0), affine_fn(4.0, 0.5))
        env = Envelope(h=lambda k: fns[k >= 1], beta=lambda k: 0.8,
                       mono=Monotonicity(1, 1))
        sol = solve(TermSource(eval=term), env)
        assert (sol.sup_value, sol.argmax_min, sol.truncation_index) == (10.0, 0, 1)
        for tie in Tie:
            agrees_with_brute_force(solve_six_ways(term, term, term, env, tie), term, 20, tie)

    def test_max_tie_entirely_below_m_uses_rescan(self):
        values = {0: 7.0, 1: 1.0, 2: 7.0}
        src = TermSource(
            eval=lambda k: values.get(k, 2.0 * 0.9**k), description="tied prefix"
        )
        head = affine_fn(1.0, 8.0)
        tail = affine_fn(4.0, 0.5)
        env = Envelope(
            h=lambda k: head if k < 3 else tail,
            beta=lambda k: 0.9,
            mono=Monotonicity(3, 3),
        )
        assert solve(src, env).argmax_min == 0
        assert solve(src, env, tie=Tie.MAX_ARGMAX).argmax_min == 2

    @pytest.mark.parametrize(
        "k_bad, bad",
        [(0, math.nan), (3, math.nan), (2, math.inf)],
        ids=["nan-at-0", "nan-mid-scan", "inf"],
    )
    def test_non_finite_term_raises(self, k_bad, bad):
        # Without the term the scan would run to K = 6 (bound at k=0 is 6.58).
        src = TermSource(eval=lambda k: bad if k == k_bad else 0.5 * 0.9**k, description="bad term")
        env = constant_env(affine_fn(1.0, 0.0), 0.9)
        with pytest.raises(PreconditionViolated) as err:
            solve(src, env)
        assert f"k={k_bad}" in str(err.value)
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_term_before_decreasing_from_raises(self, bad):
        # The prefix below decreasing_from only compares terms.
        env = Envelope(h=lambda k: affine_fn(1.0, 0.0), beta=lambda k: 0.5,
                       mono=Monotonicity(5))
        with pytest.raises(PreconditionViolated, match=re.escape(f"k=3: u_k={bad!r}")):
            solve(bad_at_3(bad), env)

    def test_constant_mode_bound_kinds_per_index(self):
        # The bound is taken at k = 0, where none exists yet, and at K = 6,
        # the one index where the running max 1 exceeds h(0.9^(k+1)); no
        # other index gets one, whether its term is informative or not.
        values = {0: 1.0, 1: 0.9, 2: 0.1}
        term = lambda k: values.get(k, 0.2)
        env = constant_env(affine_fn(1.0, 0.5), 0.9)
        kinds = []

        def record(k, u, bound, K):
            kinds.append(None if bound is None else bound.is_finite)

        sol = solve(TermSource(eval=term, description="kinds"), env, on_step=record)
        assert sol.truncation_index == 6  # log(0.5)/log(0.9) = 6.58
        assert kinds == [True, None, None, None, None, None, True]
        for tie in Tie:
            agrees_with_brute_force(solve_six_ways(term, term, term, env, tie), term, 20, tie)


def counting(source):
    """``source`` wrapped so that every call of ``eval`` is counted."""
    calls = [0]

    def eval(k):
        calls[0] += 1
        return source.eval(k)

    return TermSource(eval=eval, description=source.description), calls


def long_row():
    """(source, envelope) of the 44,618-term lambda = 0.99995 benchmark row."""
    lam = 0.99995
    env = linsys.envelope_from_certificate(linsys.a_lambda(lam), linsys.p_q(lam))
    return linsys.a_lambda_source(lam), env


class TestOnePass:
    def test_long_row_evaluates_each_term_once(self):
        source, env = long_row()
        src, calls = counting(source)
        sol = solve(src, env, tie=Tie.MAX_ARGMAX)
        assert sol.terms_evaluated == 44_618
        assert calls[0] == sol.terms_evaluated

    def test_factorial_evaluates_each_term_once(self):
        ad = FactorialRatioAdapter(30)
        src, calls = counting(ad.source)
        sol = solve(src, ad.seq_env, tie=Tie.MAX_ARGMAX)
        assert calls[0] == sol.terms_evaluated

    def test_long_row_memory_is_constant(self):
        src, env = long_row()
        tracemalloc.start()
        try:
            sol = solve(src, env, tie=Tie.MAX_ARGMAX)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.terms_evaluated == 44_618
        assert peak < 256 * 1024


def _unit_upper_inverse(t):
    """Inverse of a unit upper-triangular matrix by back substitution."""
    d = len(t)
    inv = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    for j in range(d):
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(t[i][m] * inv[m][j] for m in range(i + 1, j + 1))
    return inv


@st.composite
def stable_systems(draw, isometric=False):
    """(A, P) with A = T B T^-1, ||B||_2 < 1 and P = T^-T T^-1, so that
    P - A^T P A = T^-T (I - B^T B) T^-1 > 0.  T = I is the P = I case; a
    unit upper-triangular T gives transient growth and a peak past k = 0.
    B is rank 1 in half the cases, where ||M||_F = ||M||_2 for every power
    and screening rests on its rounding margin alone.  With ``isometric``,
    B = r H for a Householder reflection H: then (B^k)^T B^k = r^2k I, so
    ||A||_P^2 = r^2 and tr((A^k)^T P A^k) = r^2k tr(P) decay at exactly the
    certified ratio."""
    d = draw(st.integers(1, 5))
    entry = st.floats(-1.0, 1.0)
    if isometric:
        v = [draw(entry) for _ in range(d)]
        vv = sum(x * x for x in v)
        assume(vv > 1e-3)
        b = [[(i == j) - 2.0 * v[i] * v[j] / vv for j in range(d)] for i in range(d)]
    elif draw(st.booleans()):
        x = [draw(entry) for _ in range(d)]
        y = [draw(entry) for _ in range(d)]
        b = [[xi * yj for yj in y] for xi in x]
    else:
        b = [[draw(entry) for _ in range(d)] for _ in range(d)]
    norm = 1.0 if isometric else math.sqrt(linsys._norm_sq(tuple(map(tuple, b))))
    assume(norm > 1e-3)
    r = draw(st.floats(0.1, 0.9)) / norm
    b = [[r * x for x in row] for row in b]
    t = [[1.0 if i == j else draw(st.floats(-3.0, 3.0)) if j > i else 0.0 for j in range(d)]
         for i in range(d)]
    t_inv = _unit_upper_inverse(t)
    times_t_inv = linsys._times(t_inv)
    a = linsys.Matrix(linsys._product(linsys._product(t, linsys._times(b)), times_t_inv))
    p = linsys.Matrix(linsys._product(list(zip(*t_inv)), times_t_inv))
    try:
        linsys.LinearSystem(a, p)
    except linsys.NotLyapunov:
        assume(False)
    return a, p


def _ulps_below(u, n):
    for _ in range(n):
        u = math.nextafter(u, -math.inf)
    return u


def listed_terms(draw, n, lo):
    """(term, upper, lower): n values in [lo, 1] from a pool of at most four
    draws and the one-ulp neighbours of one of them (ties and near-ties
    likely), then zeros.  Each upper bound adds a random nonnegative slack,
    or none, or falls a few ulp short of its term as rounding can; each
    lower bound likewise subtracts one or lies a few ulp above."""
    pool = draw(st.lists(st.floats(lo, 1.0), min_size=1, max_size=4))
    near = draw(st.sampled_from(pool))
    pool += [max(lo, math.nextafter(near, 0.0)), min(1.0, math.nextafter(near, 2.0))]
    terms = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    slack = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.integers(1, 4).map(lambda j: -j))
    slacks = draw(st.lists(slack, min_size=1, max_size=2 * n + 2))
    low_slacks = draw(st.lists(slack, min_size=1, max_size=2 * n + 2))

    def term(k):
        return terms[k] if k < n else 0.0

    def upper(k):
        u, s = term(k), slacks[k % len(slacks)]
        return _ulps_below(u, -s) if isinstance(s, int) else u + s

    def lower(k):
        u, s = term(k), low_slacks[k % len(low_slacks)]
        return -_ulps_below(-u, -s) if isinstance(s, int) else u - s

    return term, upper, lower


@st.composite
def screened_sequences(draw):
    """(term, upper, lower, envelope): ``listed_terms`` from 0.5 under
    h(t) = 2t with beta = 0.5^(1/n), constant or declared decreasing."""
    n = draw(st.integers(1, 30))
    term, upper, lower = listed_terms(draw, n, 0.5)
    mono = draw(st.sampled_from([Monotonicity(constant_from=0), Monotonicity()]))
    env = Envelope(h=lambda k: affine_fn(2.0, 0.0), beta=lambda k: 0.5 ** (1.0 / n), mono=mono)
    return term, upper, lower, env


def held(draw, f):
    """f held over stretches of a drawn length from 1 to 4: k -> f(s) for the
    first index s of k's stretch, built once, so a family hands back the
    same h_k object, or the same beta_k, over each stretch.  Held over a
    stretch, a decreasing family stays decreasing and above the original."""
    span = draw(st.integers(1, 4))
    built = {}

    def at(k):
        s = k - k % span
        if s not in built:
            built[s] = f(s)
        return built[s]

    return at


@st.composite
def decreasing_families(draw):
    """(term, upper, lower, envelope, n): ``listed_terms`` from 0.3 under a
    valid family that decreases from a random m.

    From m on, h_k(t) = (2 + D/(k+1)) t + C/(k+1) and beta_k = b + (1-b) E/(k+2)
    with b = 0.5^(1/n), so h_k(beta_k^k) >= 2 b^k >= 1 on every k <= n; below
    m slopes and ratios are random but as large.  h_k and beta_k are each
    ``held`` over stretches.  The family is used as is, promoted to a
    decreasing one, or met with a constant envelope."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(0, 5))
    term, upper, lower = listed_terms(draw, n, 0.3)
    big, off, fast = draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 0.25)), draw(st.floats(0.0, 0.9))
    bumps = draw(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m))
    base = 0.5 ** (1.0 / n)

    def h(k):
        bump = bumps[k] if k < m else 0.0
        return affine_fn(2.0 + big / (k + 1) + bump, off / (k + 1))

    def beta(k):
        return base + (1.0 - base) * (0.99 if k < m and bumps[k] > 1.5 else fast / (k + 2))

    env = Envelope(h=held(draw, h), beta=held(draw, beta), mono=Monotonicity(m))
    combine = draw(st.sampled_from(["plain", "promote", "env_min"]))
    if combine == "promote":
        env = promote_to_decreasing(env)
    elif combine == "env_min":
        env = env_min([env, constant_env(affine_fn(2.0, 0.0), base)])
    return term, upper, lower, env, n


@st.composite
def eventually_constant_families(draw):
    """(term, upper, lower, envelope, n): ``listed_terms`` from 0.3 under a
    valid family declared eventually constant from (m, c).

    From c on the pair is frozen at h(t) = 2t + C and beta = b = 0.5^(1/n),
    so h(beta^k) >= 1 on every k <= n; on [m, c) slope, offset and ratio
    step down towards those values, and below m they are random but as
    large; before c, h_k and beta_k are each ``held`` over stretches.  Every
    h_k(0) stays below 0.3, so each nonzero term from m on is informative.
    m and c are placed around the first maximizer p, so that the peak lies
    before m, in [m, c) or from c on."""
    n = draw(st.integers(1, 30))
    term, upper, lower = listed_terms(draw, n, 0.3)
    values = [term(k) for k in range(n)]
    p = values.index(max(values))
    where = draw(st.sampled_from(["before m", "in [m, c)", "from c"]))
    if where == "before m":
        # Terms from m on are the only ones bounded: one must be nonzero.
        assume(p < n - 1)
        m = draw(st.integers(p + 1, min(p + 4, n - 1)))
        c = draw(st.integers(m, m + 6))
    elif where == "in [m, c)":
        m = draw(st.integers(max(0, p - 4), p))
        c = draw(st.integers(p + 1, p + 6))
    else:
        c = draw(st.integers(max(0, p - 6), p))
        m = draw(st.integers(max(0, c - 4), c))
    big, off, fast = draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 0.1)), draw(st.floats(0.0, 0.9))
    bumps = draw(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m))
    base = 0.5 ** (1.0 / n)
    frozen = affine_fn(2.0, off)

    def stepped_h(k):
        left = (c - k) / (c + 1)
        return affine_fn(2.0 + big * left + (bumps[k] if k < m else 0.0), off * (1.0 + left))

    def stepped_beta(k):
        return base + (1.0 - base) * (0.99 if k < m and bumps[k] > 1.5 else fast * (c - k) / (c + 1))

    held_h, held_beta = held(draw, stepped_h), held(draw, stepped_beta)

    def h(k):
        return frozen if k >= c else held_h(k)

    def beta(k):
        return base if k >= c else held_beta(k)

    env = Envelope(h=h, beta=beta, mono=Monotonicity(m, c))
    return term, upper, lower, env, n


def same_solution(screened, plain):
    assert screened == plain
    assert screened.sup_value.hex() == plain.sup_value.hex()


class TestScreening:
    """solve with an ``upper`` bound, alone or with a ``lower`` one, returns
    the bits of the full scan."""

    @settings(max_examples=150, deadline=None)
    @given(screened_sequences(), st.sampled_from(list(Tie)))
    def test_sequences(self, case, tie):
        term, upper, lower, env = case
        plain = solve(TermSource(eval=term), env, tie=tie)
        same_solution(solve(TermSource(eval=term, upper=upper), env, tie=tie), plain)
        same_solution(solve(TermSource(eval=term, upper=upper, lower=lower), env, tie=tie), plain)

    @settings(max_examples=80, deadline=None)
    @given(stable_systems(), st.sampled_from(list(Tie)))
    def test_stable_matrices(self, system, tie):
        a, p = system
        ls = linsys.LinearSystem(a, p)
        env, source = ls.const_env, ls.source
        # The plain scan walks a fresh system and the brute force reads the
        # reference norms, so neither shares the screened scan's cursor.
        screened = solve(source, env, tie=tie)
        same_solution(screened, solve(TermSource(eval=linsys.LinearSystem(a, p).source.eval), env, tie=tie))
        same_solution(screened, solve(TermSource(eval=source.eval, upper=source.upper), env, tie=tie))
        n = screened.truncation_index
        best, first, last = brute_force_peak(TermSource(eval=reference_power_norms(a, n).__getitem__), n)
        assert screened.sup_value == best
        assert screened.argmax_min == (last if tie is Tie.MAX_ARGMAX else first)

    def test_equal_term_is_evaluated(self):
        # A = [[0, 1], [0, 0]] under P = diag(1, 4): u_0 = u_1 = 1 = ||A||_F^2
        # = h(beta) (slope 4, beta 1/4), and only the exact u_1 makes 1 the
        # last maximizer.
        a = linsys.Matrix.from_rows([[0.0, 1.0], [0.0, 0.0]])
        ls = linsys.LinearSystem(a, linsys.Matrix.diagonal([1.0, 4.0]))
        sol = solve(ls.source, ls.const_env, tie=Tie.MAX_ARGMAX)
        assert (sol.sup_value, sol.argmax_min, sol.truncation_index) == (1.0, 1, 1)

    def test_rank_one_term_an_ulp_above_its_frobenius_norm(self):
        # A = x y^T with y^T x = 0 and ||x|| ||y|| = 1, certified by P = I + A^T A:
        # ||A||_F^2 rounds one ulp below the exact term u_1 = 1 = u_0.
        a = linsys.Matrix.from_rows([[0.4981285086581059, 0.5432202367190563],
                                     [-0.4567797632809437, -0.498128508658106]])
        ata = linsys._product(list(zip(*a.rows)), linsys._times(a.rows))
        p = linsys.Matrix.from_rows([[(i == j) + ata[i][j] for j in range(2)] for i in range(2)])
        ls = linsys.LinearSystem(a, p)
        source = ls.source
        assert source.upper(1) < source.eval(1) == 1.0
        sol = solve(source, ls.const_env, tie=Tie.MAX_ARGMAX)
        assert (sol.sup_value, sol.argmax_min, sol.truncation_index) == (1.0, 1, 1)

    def test_tie_an_ulp_under_its_upper_bound_is_evaluated(self):
        # The upper bound of u_2 rounds one ulp below the running max it ties.
        terms = [0.5, 0.75, 0.75, 0.25]
        env = constant_env(affine_fn(2.0, 0.0), 0.5 ** (1.0 / 3))
        src = TermSource(eval=lambda k: terms[k] if k < 4 else 0.0,
                         upper=lambda k: math.nextafter(0.75, 0.0) if k == 2 else 1.0)
        sol = solve(src, env, tie=Tie.MAX_ARGMAX)
        assert (sol.sup_value, sol.argmax_min) == (0.75, 2)

    def test_screened_terms_are_not_evaluated(self):
        terms = [1.0, 0.5, 0.25, 0.125]
        evaluated = []

        def eval(k):
            evaluated.append(k)
            return terms[k] if k < 4 else 0.0

        src = TermSource(eval=eval, upper=lambda k: terms[k] if k < 4 else 0.0)
        sol = solve(src, constant_env(affine_fn(2.0, 0.0), 0.5 ** (1.0 / 3)))
        assert (sol.argmax_min, sol.truncation_index, sol.terms_evaluated) == (0, 3, 4)
        assert evaluated == [0]

    def test_no_screening_above_the_certificate(self):
        # h_k(t) = 8t up to k = 1, then 0.4t: K = 2, where the bound is taken
        # at h_2(0.5^2) = 0.1 below the max u_0 = 1.  The upper bound 0.2
        # undercuts the max from k = 1 on; at k = 1 it lies under h_1(0.5) = 4
        # and the term is skipped, at k = 2 it lies above 0.1 and the term is
        # evaluated.
        evaluated = []
        term = lambda k: 1.0 if k == 0 else 0.0
        upper = lambda k: 1.0 if k == 0 else 0.2
        fns = (affine_fn(8.0, 0.0), affine_fn(0.4, 0.0))
        env = Envelope(h=lambda k: fns[k >= 2], beta=lambda k: 0.5, mono=Monotonicity(0, 2))
        sol = solve(TermSource(eval=recorded(evaluated, term), upper=upper), env)
        assert (sol.argmax_min, sol.truncation_index, sol.terms_evaluated) == (0, 2, 3)
        assert evaluated == [0, 2]
        for tie in Tie:
            agrees_with_brute_force(solve_six_ways(term, upper, term, env, tie), term, 20, tie)

    def test_upper_unused(self):
        # u_0..u_2 lie at or below h(0) = 0.5, so the first bound is the one
        # at u_3 = 1, (1 - 0.5)/8 = 0.5^4: K = 4.  No index before it reads
        # ``upper``, traced or not, and k = 4 is screened below the max.
        terms = [0.1, 0.2, 0.5, 1.0, 0.25]
        term = lambda k: terms[k] if k < len(terms) else 0.0
        env = constant_env(affine_fn(8.0, 0.5), 0.5)
        for step in (None, lambda *args: None):
            calls = []
            sol = solve(TermSource(eval=term, upper=recorded(calls, term)), env, on_step=step)
            assert (sol.sup_value, sol.argmax_min, sol.truncation_index) == (1.0, 3, 4)
            assert calls == [4]


def solve_six_ways(term, upper, lower, env, tie):
    """solve with no bound, with ``upper`` alone and with ``upper`` and
    ``lower``, each with and without an ``on_step`` hook; all six agree with
    ``reference_solve``.  Every hook sees the reference's steps, except that
    u_k is None where a bound screened the term."""
    reference_steps = []
    sol = reference_solve(TermSource(eval=term), env, tie, lambda *step: reference_steps.append(step))
    for up, low in ((None, None), (upper, None), (upper, lower)):
        source = TermSource(eval=term, upper=up, lower=low)
        same_solution(solve(source, env, tie=tie), sol)
        steps = []
        same_solution(solve(source, env, tie=tie, on_step=lambda *step: steps.append(step)), sol)
        assert len(steps) == len(reference_steps)
        for step, ref in zip(steps, reference_steps):
            assert step == ref or up is not None and step == (ref[0], None, *ref[2:])
    assert sol.truncation_index >= sol.argmax_min
    assert sol.terms_evaluated == sol.truncation_index + 1
    return sol


def agrees_with_brute_force(sol, term, n, tie):
    best, first, last = brute_force_peak(TermSource(eval=term), n)
    assert sol.sup_value == best
    assert sol.argmax_min == (last if tie is Tie.MAX_ARGMAX else first)


class TestNonConstantScan:
    """Decreasing families: the bound at the running max, computed only where
    it can end the scan, and screening, give the result of the full scan."""

    @settings(max_examples=200, deadline=None)
    @given(decreasing_families(), st.sampled_from(list(Tie)))
    def test_decreasing_families(self, case, tie):
        term, upper, lower, env, n = case
        sol = solve_six_ways(term, upper, lower, env, tie)
        # Terms vanish from n on, so [0, max(K, n)] holds every maximizer.
        agrees_with_brute_force(sol, term, max(sol.truncation_index, n), tie)

    @settings(max_examples=80, deadline=None)
    @given(stable_systems(), st.sampled_from(list(Tie)))
    def test_anchored_stable_matrices(self, system, tie):
        a, p = system
        env = linsys.LinearSystem(a, p).env
        source = linsys.LinearSystem(a, p).source
        sol = solve_six_ways(source.eval, source.upper, source.lower, env, tie)
        n = sol.truncation_index
        agrees_with_brute_force(sol, reference_power_norms(a, n).__getitem__, n, tie)

    def test_bound_at_the_running_max_is_clamped_to_k(self):
        # u_0 = 10 lies before m = 1; h_1(t) = 4t + 0.5 with beta 0.8 cannot
        # reach 10 at any j >= 1, so the bound at vmax is below 1 and the scan
        # ends at 1 (at u_1 alone it would run to 5).  Above h_1(beta) the
        # bound is taken there, which is k itself.
        src = TermSource(eval=lambda k: 10.0 if k == 0 else 2.0 * 0.8**k)
        fns = (affine_fn(1.0, 12.0), affine_fn(4.0, 0.5))
        env = Envelope(h=lambda k: fns[k >= 1], beta=lambda k: 0.8,
                       mono=Monotonicity(1))
        bounds = []
        sol = solve(src, env, on_step=lambda k, u, b, K: bounds.append(b))
        assert (sol.sup_value, sol.argmax_min, sol.truncation_index, sol.terms_evaluated) == (10.0, 0, 1, 2)
        assert bounds[0] is None and bounds[1].value == 1.0

    def test_bound_below_k_by_rounding_is_clamped(self):
        # u_3 sits 5e-13 relative above h(beta^3), inside the membership
        # slack; with beta = 1 - 1e-6 its bound is 3 - 5e-7, which floored to
        # 2 and ended the scan with truncation_index below the argmax.
        b = 1.0 - 1e-6
        terms = [0.5, 0.6, 0.7, b**3 * (1 + 5e-13)]
        src = TermSource(eval=lambda k: terms[k] if k < 4 else 0.0)
        sol = solve(src, constant_env(affine_fn(1.0, 0.0), b))
        assert (sol.argmax_min, sol.truncation_index, sol.terms_evaluated) == (3, 3, 4)
        # Capped at h(beta^3) the bound is 3 up to the inverse's rounding;
        # an inverse 1e-11 relative high, with beta = 0.999, puts it at
        # 3 - 1e-8, which also floors to 2.
        b = 0.999
        fn = EnvelopeFn(eval=lambda t: 2.0 * t * (1.0 + 1e-11), inverse=lambda y: y / 2.0, lo=0.0, hi=2.0)
        terms = [0.5, 0.6, 0.7, fn.eval(b**3)]
        src = TermSource(eval=lambda k: terms[k] if k < 4 else 0.0)
        sol = solve(src, Envelope(h=lambda k: fn, beta=lambda k: b, mono=Monotonicity(constant_from=0)))
        assert (sol.argmax_min, sol.truncation_index, sol.terms_evaluated) == (3, 3, 4)

    def test_membership_is_checked_on_every_evaluated_term(self):
        # The bound is needed only at k = 0 and at the end; u_3 breaks h_3(beta^3).
        src = TermSource(eval=lambda k: 5.0 if k == 3 else 0.5**k)
        env = Envelope(h=lambda k: affine_fn(1.0 + 1.0 / (k + 1), 0.0), beta=lambda k: 0.99,
                       mono=Monotonicity())
        with pytest.raises(EnvelopeViolation) as err:
            solve(src, env)
        assert err.value.k == 3

    @pytest.mark.parametrize("lam,d", [(0.5, 2), (0.9, 3), (0.99, 2), (0.999, 4)])
    def test_anchored_bound_only_where_it_ends_the_scan(self, monkeypatch, lam, d):
        system = linsys.LinearSystem(linsys.a_lambda(lam, d), linsys.p_q(lam, d))
        real, calls = core.argmax_bound, []
        monkeypatch.setattr(core, "argmax_bound", lambda k, *args: calls.append(k) or real(k, *args))
        sol = solve(system.source, system.env, tie=Tie.MAX_ARGMAX)
        assert calls == [0, sol.truncation_index]


class TestConstantTail:
    """Eventually constant families: (h, beta) read once from constant_from
    on, under the running-max rule, give the result of the full scan and of
    the same family declared decreasing."""

    @settings(max_examples=300, deadline=None)
    @given(eventually_constant_families(), st.sampled_from(list(Tie)))
    def test_eventually_constant_families(self, case, tie):
        term, upper, lower, env, n = case
        sol = solve_six_ways(term, upper, lower, env, tie)
        agrees_with_brute_force(sol, term, max(sol.truncation_index, n), tie)

    @settings(max_examples=150, deadline=None)
    @given(eventually_constant_families(), st.sampled_from(list(Tie)))
    def test_same_as_declared_decreasing(self, case, tie):
        term, upper, lower, env, n = case
        decreasing = Envelope(h=env.h, beta=env.beta, mono=Monotonicity(env.mono.decreasing_from, None))
        same_solution(solve_six_ways(term, upper, lower, env, tie),
                      solve_six_ways(term, upper, lower, decreasing, tie))

    @pytest.mark.parametrize("lam,d", [(0.5, 2), (0.9, 3), (0.99, 2), (0.999, 4)])
    def test_closed_bound_only_where_it_ends_the_scan(self, monkeypatch, lam, d):
        const = linsys.LinearSystem(linsys.a_lambda(lam, d), linsys.p_q(lam, d)).const_env
        real, calls = core.argmax_bound, []
        monkeypatch.setattr(core, "argmax_bound", lambda k, *args: calls.append(k) or real(k, *args))
        h_calls, beta_calls = [], []
        env = Envelope(h=recorded(h_calls, const.h), beta=recorded(beta_calls, const.beta), mono=const.mono)
        source = linsys.a_lambda_source(lam, d)
        sol = solve(source, env, tie=Tie.MAX_ARGMAX)
        assert calls == [0, sol.truncation_index]
        # (h, beta) is read once, at k = 0; the other beta reads are
        # argmax_bound's own.
        assert h_calls == [0]
        assert beta_calls == [0, 0, sol.truncation_index]
        # A trace gets the bounds of the scan without it.
        calls.clear()
        assert solve(source, const, tie=Tie.MAX_ARGMAX, on_step=lambda *step: None) == sol
        assert calls == [0, sol.truncation_index]

    def test_bound_due_inside_the_margin(self):
        # h evaluates 1e-11 relative above the function its inverse inverts.
        # u_1 lies 5e-12 below h(beta^11) as evaluated, yet its bound is
        # 11 - 5e-9 and floors to 10: the scan ends at 10, not 11.
        b = 0.999
        fn = EnvelopeFn(eval=lambda t: 2.0 * t * (1.0 + 1e-11), inverse=lambda y: y / 2.0, lo=0.0, hi=2.0)
        env = Envelope(h=lambda k: fn, beta=lambda k: b, mono=Monotonicity(constant_from=0))
        top = fn.eval(b**10 * b) * (1.0 - 5e-12)
        src = TermSource(eval=lambda k: top / 2 if k == 0 else top if k == 1 else top / 4)
        sol = solve(src, env)
        assert (sol.argmax_min, sol.truncation_index) == (1, 10)

    @pytest.mark.parametrize("tie", list(Tie))
    def test_tail_membership_at_a_max_tie(self, tie):
        # u_0 = 10 lies under h_0; from c = 1 on h(t) = 4t + 0.5 with beta 0.8,
        # so the running max ends the scan at K = 1.  u_1 ties the max far
        # above h(0.8): every evaluated term is checked, so both tie rules
        # meet the violation.
        term = lambda k: 10.0 if k < 2 else 2.0 * 0.8**k
        fns = (affine_fn(1.0, 12.0), affine_fn(4.0, 0.5))
        env = Envelope(h=lambda k: fns[k >= 1], beta=lambda k: 0.8,
                       mono=Monotonicity(1, 1))
        for up in (None, term):
            with pytest.raises(EnvelopeViolation) as err:
                solve(TermSource(eval=term, upper=up), env, tie=tie)
            assert err.value.k == 1

    @pytest.mark.parametrize("rises", [True, False])
    def test_tail_beta_out_of_range_raises_where_it_is_read(self, rises):
        # K = 5 from u_0 = 0.1 under h(t) = 4t + 0.01, beta 0.5; from c = 2
        # on beta is 1.5.  (h, beta) is read at every index up to c, so the
        # scan raises at k = 2 whether or not a later term (u_3) rises.
        values = [0.1, 0.05, 0.05, 0.2 if rises else 0.05]
        src = TermSource(eval=lambda k: values[k] if k < 4 else 0.05)
        env = Envelope(h=lambda k: affine_fn(4.0, 0.01), beta=lambda k: 0.5 if k < 2 else 1.5,
                       mono=Monotonicity(0, 2))
        with pytest.raises(PreconditionViolated, match="at k=2 "):
            solve(src, env)


def counted_fn(fn, evals):
    """fn with every call of ``eval`` appended to the list ``evals``."""
    return EnvelopeFn(eval=lambda x: evals.append(x) or fn.eval(x), inverse=fn.inverse, lo=fn.lo, hi=fn.hi)


class TestCarry:
    """Where the family hands back the same h object and beta, h(beta^(k+1))
    computed at k is the certificate at k + 1: h is evaluated once per
    index, and nowhere else is anything carried."""

    def test_constant_family_evaluates_h_once_per_index(self, monkeypatch):
        source, const = long_row()
        expected = solve(source, const, tie=Tie.MAX_ARGMAX)
        evals, bounds = [], []
        fn = counted_fn(const.h(0), evals)
        real = core.argmax_bound
        monkeypatch.setattr(core, "argmax_bound", lambda k, *args: bounds.append(k) or real(k, *args))
        sol = solve(source, Envelope(h=lambda k: fn, beta=const.beta, mono=const.mono), tie=Tie.MAX_ARGMAX)
        same_solution(sol, expected)
        # One h(beta^(k+1)) per index 0..K, the certificate at 0, one per bound.
        assert len(evals) == sol.truncation_index + 2 + len(bounds)

    def test_promoted_prefix_evaluates_once_per_index(self, monkeypatch):
        ad = FactorialRatioAdapter(142)
        promoted = promote_to_decreasing(ad.seq_env)
        expected = solve(ad.source, promoted)
        evals, bounds = [], []
        prefix = counted_fn(promoted.h(0), evals)
        env = Envelope(h=lambda k: prefix if k <= 142 else promoted.h(k), beta=promoted.beta,
                       mono=promoted.mono)
        real = core.argmax_bound
        monkeypatch.setattr(core, "argmax_bound", lambda k, *args: bounds.append(k) or real(k, *args))
        sol = solve(ad.source, env)
        same_solution(sol, expected)
        scanned = min(sol.truncation_index, 142) + 1
        assert len(evals) == scanned + 1 + sum(k <= 142 for k in bounds)

    @pytest.mark.parametrize("u_3, violates", [(0.3, True), (0.1, False)])
    def test_same_object_with_a_new_beta(self, u_3, violates):
        # h(t) = t throughout, beta 0.9 before k = 3 and 0.5 from it: the
        # certificate at 3 is 0.5^3 = 0.125, not 0.9^3 = 0.729.
        fn = affine_fn(1.0, 0.0)
        env = Envelope(h=lambda k: fn, beta=lambda k: 0.9 if k < 3 else 0.5, mono=Monotonicity())
        self.check(lambda k: (0.5, 0.6, 0.7, u_3)[k] if k < 4 else 0.0, env, violates)

    @pytest.mark.parametrize("u_3, violates", [(0.7, True), (0.5, False)])
    def test_shared_object_then_a_new_one_at_constant_from(self, u_3, violates):
        # h(t) = 2t on [0, 3), h(t) = t from c = 3 on, beta 0.8: the
        # certificate at 3 is 0.8^3 = 0.512, not 2 * 0.8^3 = 1.024.
        fns = (affine_fn(2.0, 0.0), affine_fn(1.0, 0.0))
        env = Envelope(h=lambda k: fns[k >= 3], beta=lambda k: 0.8,
                       mono=Monotonicity(0, 3))
        self.check(lambda k: (0.5, 0.6, 0.7, u_3)[k] if k < 4 else 0.0, env, violates)

    @staticmethod
    def traced(source, env, tie):
        """(solution, every on_step call) of one solve."""
        steps = []
        sol = solve(source, env, tie=tie, on_step=lambda *step: steps.append(step))
        return sol, steps

    @staticmethod
    def called_line(a, evals, slope=None):
        """x -> a*x as ``a.__mul__``, appending each argument it is called
        with to ``evals``; with no slope, solve must call it."""
        return EnvelopeFn(lambda x: evals.append(x) or a.__mul__(x), a.__rtruediv__, 0.0, a, slope)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("tie", list(Tie))
    def test_line_multiplied_in_place_matches_the_call(self, seed, tie, monkeypatch):
        # The constant line a*x, read through its slope, against the same
        # line with no slope: the same solution and on_step stream.  The
        # slope one is called only for the certificate at 0 and by bounds.
        rng = random.Random(seed)
        a, beta = rng.uniform(0.01, 1e6), rng.uniform(0.05, 0.99)
        n = rng.randint(1, 60)
        ratios = [rng.choice((1.0, 0.5, rng.random())) for _ in range(n)]
        source = TermSource(eval=lambda k: a * beta**k * ratios[k] if k < n else 0.0)
        lined = AffineParams(a, beta, 0.0).constant_envelope()
        assert lined.h(0).slope == a
        bounds, plain_evals, line_evals = [], [], []
        real = core.argmax_bound
        monkeypatch.setattr(core, "argmax_bound", lambda k, *args: bounds.append(k) or real(k, *args))
        sol, steps = self.traced(source, constant_env(self.called_line(a, line_evals, a), beta), tie)
        assert len(line_evals) == 1 + len(bounds)
        assert (sol, steps) == self.traced(source, lined, tie)
        bounds.clear()
        plain, plain_steps = self.traced(source, constant_env(self.called_line(a, plain_evals), beta), tie)
        same_solution(sol, plain)
        assert steps == plain_steps
        assert len(plain_evals) == sol.terms_evaluated + 1 + len(bounds)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tie", list(Tie))
    def test_line_family_multiplied_in_place_matches_the_call(self, seed, tie):
        # A new slope at every index, decreasing, read in place against
        # the same lines built with no slope.
        rng = random.Random(seed)
        beta, n = rng.uniform(0.05, 0.99), rng.randint(1, 60)
        slopes = [rng.uniform(1.0, 1e3)]
        for _ in range(n + 80):
            slopes.append(slopes[-1] * rng.uniform(0.5, 1.0))
        terms = [slopes[k] * beta**k * rng.choice((1.0, rng.random())) for k in range(n)]
        source = TermSource(eval=lambda k: terms[k] if k < n else 0.0)
        plain = Envelope(h=lambda k: self.called_line(slopes[k], []), beta=lambda k: beta, mono=Monotonicity())
        want = self.traced(source, plain, tie)
        assert self.traced(source, algebra.line_family(slopes.__getitem__, beta), tie) == want

    @staticmethod
    def check(term, env, violates):
        if violates:
            with pytest.raises(EnvelopeViolation) as err:
                solve(TermSource(eval=term), env)
            assert (err.value.k, err.value.term) == (3, term(3))
            with pytest.raises(EnvelopeViolation):
                reference_solve(TermSource(eval=term), env)
            return
        for tie in Tie:
            sol = solve_six_ways(term, term, term, env, tie)
            agrees_with_brute_force(sol, term, max(sol.truncation_index, 4), tie)


def recorded(calls, f):
    """f, appending each index it is asked for to the list ``calls``."""
    return lambda k: calls.append(k) or f(k)


def a_lambda_systems():
    """(lambda, d, q factor) with lambda in (0, 0.995), d in 2..6 and q a
    factor in (1 + 1e-7, 100) above the diagonal certificate's threshold."""
    return st.tuples(st.floats(0.0, 0.995, exclude_min=True, exclude_max=True), st.integers(2, 6),
                     st.floats(1.0 + 1e-7, 100.0, exclude_max=True))


def constant_scan_length(system, lam):
    """The constant-envelope index bound at the closed-form peak: about the
    number of terms a scan under ``const_env`` takes."""
    peak = max(linsys.a_lambda_norm_sq_closed(lam, k) for k in range(1000))
    return math.log(peak / system.slope) / math.log(system.beta)


class TestLookAhead:
    """Screening against lower(k+1) skips terms before the peak and leaves
    every result, and the set of indices the scan touches, as it was."""

    @settings(max_examples=150, deadline=None)
    @given(a_lambda_systems(), st.sampled_from(list(Tie)), st.sampled_from(["env", "const_env"]))
    def test_a_lambda_matches_the_exact_scan(self, params, tie, family):
        lam, d, q = params
        a = linsys.a_lambda(lam, d)
        system = linsys.LinearSystem(a, linsys.p_q(lam, d, q * linsys.q_threshold(lam)))
        # Near the threshold the constant envelope runs to ~1e9 terms.
        assume(family == "env" or constant_scan_length(system, lam) < 600)
        env = getattr(system, family)
        source = system.source
        exact = solve(TermSource(eval=source.eval), env, tie=tie)
        same_solution(solve(source, env, tie=tie), exact)
        same_solution(solve(TermSource(eval=source.eval, upper=source.upper), env, tie=tie), exact)

    def test_trace_observes_the_screened_scan(self):
        # The generic lambda = 0.999 row: traced or not, the scan computes the
        # same two exact terms of 1,513, at 0 and at the peak.  The trace has
        # the (k, bound, K) of the bound-free scan, and u_k is None at exactly
        # the other indices.
        _, source, env = linsys.a_lambda_problem(0.999, 2, None, True)
        runs, steps = [], []
        for on_step in (None, lambda *step: steps.append(step)):
            evaluated = []
            recording = TermSource(eval=recorded(evaluated, source.eval), upper=source.upper,
                                   lower=source.lower)
            runs.append((solve(recording, env, tie=Tie.MAX_ARGMAX, on_step=on_step), evaluated))
        (sol, evaluated), (traced, traced_evaluated) = runs
        assert traced == sol and sol.terms_evaluated == 1513
        assert traced_evaluated == evaluated == [0, sol.argmax_min]
        exact = []
        solve(TermSource(eval=source.eval), env, tie=Tie.MAX_ARGMAX, on_step=lambda *step: exact.append(step))
        assert [(k, b, K) for k, _, b, K in steps] == [(k, b, K) for k, _, b, K in exact]
        assert [k for k, u, *_ in steps if u is not None] == sorted(set(evaluated))

    RISING = [0.25, 0.5, 0.75, 1.0, 0.5, 0.25]

    @staticmethod
    def listed(values):
        return lambda k: values[k] if k < len(values) else 0.0

    def rising(self, mono, lower=None):
        """``RISING`` (zeros past it) with exact ``upper`` and ``lower`` bounds
        unless ``lower`` is given, under h(t) = 2t, beta = 0.5^(1/6); the
        source records the indices its ``eval`` and ``lower`` are asked for."""
        calls = {"eval": [], "lower": []}
        term = self.listed(self.RISING)
        source = TermSource(eval=recorded(calls["eval"], term), upper=term,
                            lower=recorded(calls["lower"], lower or term))
        env = Envelope(h=lambda k: affine_fn(2.0, 0.0), beta=lambda k: 0.5 ** (1.0 / 6), mono=mono)
        return source, env, calls

    @pytest.mark.parametrize("mono", [Monotonicity(constant_from=0), Monotonicity()])
    def test_rising_terms_are_skipped(self, mono):
        source, env, calls = self.rising(mono)
        sol = solve(source, env)
        assert sol == solve(TermSource(eval=source.eval), env)
        assert (sol.sup_value, sol.argmax_min) == (1.0, 3)
        assert calls["eval"][:2] == [0, 3]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("mono", [Monotonicity(constant_from=0), Monotonicity()])
    def test_non_finite_lower_screens_nothing(self, bad, mono):
        source, env, calls = self.rising(mono, lower=lambda k: bad)
        sol = solve(source, env)
        assert calls["lower"]
        upper_only, _, upper_calls = self.rising(mono)
        assert sol == solve(TermSource(eval=upper_only.eval, upper=upper_only.upper), env)
        assert calls["eval"] == upper_calls["eval"]
        assert calls["eval"][:4] == [0, 1, 2, 3]

    @pytest.mark.parametrize("mono", [Monotonicity(constant_from=0), Monotonicity()])
    def test_no_look_past_a_bound_that_ends_the_scan(self, mono):
        # K = 3 from u_0; u_1 = 0.9 sets K = 1 in either mode.  Its upper
        # bound reaches h(beta^2) = 0.5, so lower(2) is never read.
        term, lowered = self.listed([0.25, 0.9, 0.95]), []
        source = TermSource(eval=term, upper=term, lower=recorded(lowered, term))
        env = Envelope(h=lambda k: affine_fn(2.0, 0.0), beta=lambda k: 0.5, mono=mono)
        sol = solve(source, env)
        assert (sol.argmax_min, sol.truncation_index, sol.terms_evaluated) == (1, 1, 2)
        assert lowered == []

    def test_no_look_past_a_running_max_that_ends_the_scan(self):
        # K = 2 from u_0 = 1 under h_0(t) = 4t.  h_1 is 9e-10 lower, so the
        # running max lies just above h_1(beta^2) and the bound it gives at
        # k = 1 ends the scan there; u_1 and its upper bound sit within the
        # screening margin of the max but below h_1(beta^2).
        term, lowered = self.listed([1.0, 1.0 - 9.5e-10, 0.5]), []
        source = TermSource(eval=term, upper=term, lower=recorded(lowered, term))
        fns = (affine_fn(4.0, 0.0), affine_fn(4.0 * (1.0 - 9e-10), 0.0))
        env = Envelope(h=lambda k: fns[min(k, 1)], beta=lambda k: 0.5, mono=Monotonicity())
        sol = solve(source, env)
        assert (sol.argmax_min, sol.truncation_index, sol.terms_evaluated) == (0, 1, 2)
        assert lowered == []

    def test_no_look_ahead_where_the_full_scan_takes_a_bound(self):
        # h(t) = 1e-6 t, beta 0.5: K = 3 from u_0 = h(0.5^3).  u_1 lies
        # 5e-10 relative below h(0.5^2), inside the margin, so the full scan
        # takes a bound at k = 1; u_2 lies 2e-9 relative above h(0.5^2),
        # within the 1e-12 absolute membership slack.  lower(2) = u_2 lies
        # above u_1 by more than the margin, but skipping u_1 would leave the
        # running max at u_0, take no bound at k = 1 and part the trace from
        # the full scan's, so the look-ahead must not skip it.
        s = 1e-6
        term = self.listed([s / 8, s / 4 * (1 - 5e-10), s / 4 * (1 + 2e-9)])
        env = constant_env(affine_fn(s, 0.0), 0.5)
        exact, steps = [], []
        sol = solve(TermSource(eval=term), env, on_step=lambda *step: exact.append(step))
        assert solve(TermSource(eval=term, upper=term, lower=term), env,
                     on_step=lambda *step: steps.append(step)) == sol
        assert steps == exact
        assert [K for *_, K in steps] == [3, 2, 2]

    def test_anchored_scan_never_looks_past_its_end(self):
        # The bound at k = 0 allows more terms than the scan takes; the one
        # that ends it at K is taken at K itself.
        system = linsys.LinearSystem(linsys.a_lambda(0.9, 3), linsys.p_q(0.9, 3))
        lowered, ks = [], []
        source = TermSource(eval=system.source.eval, upper=system.source.upper,
                            lower=recorded(lowered, system.source.lower))
        sol = solve(source, system.env)
        solve(system.source, system.env, on_step=lambda k, u, bound, K: ks.append(K))
        assert ks[-2] > ks[-1] == sol.truncation_index == 14
        assert lowered and max(lowered) <= sol.truncation_index

    def test_overflow_still_raises_where_the_full_scan_does(self):
        # A^k = c^k [[1, 0], [1, 0]] with c = 1e22: u_k = 2 c^2k, and each row
        # norm c^2k stays finite up to k = 7, where the Gram entry 2 c^14 =
        # 2e308 overflows.  Every earlier term lies below the next row norm,
        # so the look-ahead skips them all and the scan still raises at 7,
        # traced or not: a trace sees u_k = None at the skipped indices.
        # A has no certificate, so the walk and its row-norm bounds are formed here.
        a = linsys.Matrix.from_rows([[1e22, 0.0], [1e22, 0.0]])
        env = constant_env(affine_fn(1e300, 0.0), 0.5)
        bounds = reference_row_norm_bounds(a, 8)
        assert math.isfinite(bounds[7][1]) and bounds[7][0] == math.inf
        steps = []
        for on_step in (None, lambda *step: steps.append(step)):
            evaluated = []
            source = TermSource(eval=recorded(evaluated, power_walk(a)),
                                upper=lambda k: bounds[k][0], lower=lambda k: bounds[k][1])
            with pytest.raises(PreconditionViolated, match="matrix entries must be finite"):
                solve(source, env, on_step=on_step)
            assert evaluated == [0, 7]
        assert [(k, u is None) for k, u, *_ in steps] == [(0, False)] + [(k, True) for k in range(1, 7)]


class TestBruteForce:
    def test_constant(self):
        src = TermSource(eval=lambda k: 1.0, description="ones")
        assert brute_force_peak(src, 10) == (1.0, 0, 10)

    def test_negative_prefix_raises(self):
        with pytest.raises(PreconditionViolated, match="^prefix length must be >= 0$"):
            brute_force_peak(TermSource(eval=lambda k: 1.0), -1)

    @pytest.mark.parametrize(
        "terms, k",
        [((math.nan, 1.0, 2.0), 0), ((1.0, math.nan, 0.5), 1), ((1.0, math.inf, 0.5), 1)],
        ids=["nan-first", "nan-skipped", "inf"],
    )
    def test_non_finite_term_raises_as_in_solve(self, terms, k):
        # Unchecked, these gave (nan, 0, 0), (1.0, 0, 0) past the NaN and (inf, 1, 1).
        src = TermSource(eval=lambda j: terms[j])
        message = re.escape(f"non-finite term at k={k}: u_k={terms[k]!r}")
        with pytest.raises(PreconditionViolated, match=message):
            brute_force_peak(src, 2)
        with pytest.raises(PreconditionViolated, match=message):
            solve(src, constant_env(affine_fn(4.0, 0.0), 0.5))

    def test_factorial(self):
        ad = FactorialRatioAdapter(5)
        mx, first, last = brute_force_peak(ad.source, 50)
        assert mx == pytest.approx(26.041666666666668, rel=1e-15)
        assert (first, last) == (4, 5)

    def test_syracuse_prefix(self):
        ad = SyracuseAdapter(27)
        mx, first, last = brute_force_peak(ad.source, 200)
        # Direct iteration oracle.
        y, best, arg = 27, 27, 0
        for k in range(1, 201):
            y = SyracuseAdapter.step(y)
            if y > best:
                best, arg = y, k
        assert mx == float(best)
        assert first == arg


class TestPrefixIndexSets:
    def test_strictly_decreasing(self):
        src = TermSource(eval=lambda k: 1.0 / (k + 1), description="harmonic")
        weak, strict, first, last = prefix_index_sets(src, 5, 1.0 / 7.0)
        assert weak == [0, 1, 2, 3, 4, 5]
        assert first == 0 and last == 0

    def test_fibonacci_ratio(self):
        ad = FibonacciRatioAdapter(0, 1)
        _, _, _, last = prefix_index_sets(ad.source, 10, (1 + math.sqrt(5)) / 2 + 0.01)
        assert last == 2

    def test_factorial_tie(self):
        ad = FactorialRatioAdapter(5)
        _, _, first, last = prefix_index_sets(ad.source, 10, ad.source.eval(11))
        assert first == 4
        assert last == 5

    def test_inconclusive_raises(self):
        src = TermSource(eval=lambda k: 1.0, description="ones")
        with pytest.raises(InvalidTailBound):
            prefix_index_sets(src, 5, 2.0)


class TestStoppingIndex:
    def test_factorial_sequence(self):
        ad = FactorialRatioAdapter(5)
        assert stopping_index(5, ad.source, ad.seq_env) == 6

    def test_factorial_constant(self):
        ad = FactorialRatioAdapter(2)
        assert stopping_index(2, ad.source, ad.const_env) == 4

    def test_exact_certificate_equality(self):
        # u_k = h(beta^k) exactly: first strict drop is one past k.
        src = TermSource(eval=lambda k: 0.25, description="quarter")
        env = constant_env(affine_fn(1.0, 0.0), 0.5)
        assert stopping_index(2, src, env) == 3


def listed_family(scales, betas, mono, terms=None):
    """(source, envelope) with h_k(x) = scales[k] * x, beta_k = betas[k], u_k = terms[k] or 0."""
    fns = [affine_fn(a, 0.0) for a in scales]
    terms = terms or [0.0] * len(scales)
    env = Envelope(h=lambda k: fns[k], beta=lambda k: betas[k], mono=mono)
    return TermSource(eval=lambda k: terms[k]), env


class TestNaNCertificate:
    """A NaN h_k(beta_k^k) or a NaN bound fails closed: every comparison
    with NaN is false, so each check asks that the good case holds."""

    @staticmethod
    def nan_family():
        """u_k = 0.5^k except the peak u_5 = 3.0, under an h that is NaN
        everywhere, with beta = 0.5."""
        fn = EnvelopeFn(eval=lambda x: math.nan, inverse=lambda y: 0.999, lo=0.0, hi=1.0)
        source = TermSource(eval=lambda k: 3.0 if k == 5 else 0.5**k)
        return source, Envelope(h=lambda k: fn, beta=lambda k: 0.5, mono=Monotonicity())

    def test_solve_raises(self):
        source, env = self.nan_family()
        for src in (source, TermSource(eval=source.eval, upper=source.eval, lower=source.eval)):
            with pytest.raises(EnvelopeViolation) as err:
                solve(src, env)
            assert err.value.k == 0

    def test_bound_and_truncation_raise(self):
        source, env = self.nan_family()
        with pytest.raises(EnvelopeViolation):
            argmax_bound(5, 3.0, env)
        with pytest.raises(EnvelopeViolation):
            truncation_from(5, source, env)

    def test_validation_reports_membership(self):
        source, env = self.nan_family()
        findings = validate_envelope(source, env, 10)
        assert [(f.k, f.kind) for f in findings] == [(0, "membership")] + [
            (k, kind) for k in range(1, 11) for kind in ("h-decrease", "membership")
        ]

    def test_nan_inverse_raises(self):
        # Under h(x) = 2x, beta = 0.9 these terms solve to (0.4, 3) with
        # K = 15.  A NaN inverse gave the bound max(0.0, nan) = 0.0, and the
        # scan ended at (0.1, 0) after one term.
        terms = (0.1, 0.2, 0.3, 0.4, 0.2)
        source = TermSource(eval=lambda k: terms[k] if k < len(terms) else 0.0)
        fn = affine_fn(2.0, 0.0)
        sol = solve(source, constant_env(fn, 0.9))
        assert (sol.sup_value, sol.argmax_min, sol.truncation_index) == (0.4, 3, 15)
        nan_fn = EnvelopeFn(eval=fn.eval, inverse=lambda y: math.nan, lo=fn.lo, hi=fn.hi)
        env = constant_env(nan_fn, 0.9)
        message = re.escape("h_k^-1(0.1) at k=0 is nan")
        with pytest.raises(PreconditionViolated, match=message):
            solve(source, env)
        with pytest.raises(PreconditionViolated, match=message):
            argmax_bound(0, 0.1, env)
        # The pointwise min passes the NaN of its first branch through.
        both = env_min([env, constant_env(affine_fn(3.0, 0.0), 0.9)])
        with pytest.raises(PreconditionViolated, match=message):
            solve(source, both)

    @pytest.mark.parametrize("combine", ["min", "max"])
    @pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-second"])
    def test_nan_branch_inverse_raises_in_either_order(self, combine, bad_first):
        # The pointwise min (env_min) and max (promote_to_decreasing's prefix)
        # of h(x) = 2x and the same h with a NaN inverse.  min and max skip a
        # NaN that is not their first item, so a NaN branch second in line was
        # dropped: the max's inverse at 0.5 was 0.25, a bound of 13.2.
        good = affine_fn(2.0, 0.0)
        bad = EnvelopeFn(eval=good.eval, inverse=lambda y: math.nan, lo=good.lo, hi=good.hi)
        fns = [bad, good] if bad_first else [good, bad]
        if combine == "min":
            env = env_min([constant_env(fn, 0.9) for fn in fns])
        else:
            env = promote_to_decreasing(Envelope(h=lambda k: fns[min(k, 1)], beta=lambda k: 0.9,
                                                 mono=Monotonicity(1)))
        with pytest.raises(PreconditionViolated, match=re.escape("h_k^-1(0.5) at k=0 is nan")):
            argmax_bound(0, 0.5, env)

    @staticmethod
    def nan_at_a_quarter():
        """h(x) = x except h(0.25) = NaN."""
        return EnvelopeFn(eval=lambda x: math.nan if x == 0.25 else x, inverse=lambda y: y, lo=0.0, hi=1.0)

    def test_nan_sample_fails_the_decrease_check(self):
        # h_1(0.25) = NaN: h_1 is not below h_0 there, nor h_2 below h_1.
        fns = {1: self.nan_at_a_quarter()}
        env = Envelope(h=lambda k: fns.get(k, affine_fn(1.0, 0.0)), beta=lambda k: 0.5,
                       mono=Monotonicity())
        findings = validate_envelope(TermSource(eval=lambda k: 0.5**k), env, 5)
        assert [(f.k, f.kind) for f in findings] == [(1, "h-decrease"), (2, "h-decrease")]

    def test_nan_sample_fails_both_grid_checks(self):
        nan_fn, identity = self.nan_at_a_quarter(), affine_fn(1.0, 0.0)
        env = Envelope(h=lambda k: nan_fn if k >= 1 else identity, beta=lambda k: 0.5,
                       mono=Monotonicity(0, 1))
        findings = validate_envelope(TermSource(eval=lambda k: 0.5**k), env, 5)
        assert [(f.k, f.kind) for f in findings] == [
            (1, "h-decrease"), (1, "h-constant"),
            (2, "h-decrease"), (2, "membership"), (2, "h-constant"),
        ] + [(k, kind) for k in range(3, 6) for kind in ("h-decrease", "h-constant")]

    def test_nan_bounds_are_findings(self):
        source = TermSource(eval=lambda k: 0.5**k, upper=lambda k: math.nan, lower=lambda k: math.nan)
        findings = validate_envelope(source, constant_env(affine_fn(1.0, 0.0), 0.5), 10)
        assert [(f.k, f.kind) for f in findings] == [
            (k, kind) for k in range(11) for kind in ("upper", "lower")
        ]

    def test_infinite_certificate_is_accepted(self):
        # A rational envelope of the Fibonacci ratios with its pole at x = 1
        # certifies nothing finite at k = 0.
        fn = fibonacci_rational_fn()
        env = constant_env(fn, PHI**-2)
        source = FibonacciRatioAdapter(0, 1).source
        assert fn.eval(1.0) == math.inf
        assert solve(source, env).argmax_min == 2
        assert validate_envelope(source, env, 40) == []


class TestValidateEnvelope:
    def test_factorial_clean(self):
        ad = FactorialRatioAdapter(3)
        assert validate_envelope(ad.source, ad.seq_env, 100) == []

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_term_is_a_membership_finding(self, bad):
        # Unchecked, both passed as clean.
        findings = validate_envelope(bad_at_3(bad), constant_env(affine_fn(1.0, 0.0), 0.5), 10)
        assert findings == [core.EnvelopeFinding(3, "membership", f"u_k={bad!r} is not finite")]

    def test_corrupted_beta_is_caught(self):
        ad = FactorialRatioAdapter(3)
        bad = Envelope(
            h=ad.seq_env.h,
            beta=lambda n: ad.beta / 2.0,
            mono=ad.seq_env.mono,
        )
        findings = validate_envelope(ad.source, bad, 100)
        assert findings and findings[0].kind == "membership"
        assert findings[0].k <= 100

    @staticmethod
    def spike_past_the_envelope(u0):
        """u_0 = u0, u_5 = 5 u0 and zeros elsewhere, under a constant envelope
        that claims u_5 <= u0 / 32: wrong by a factor of 160 at k = 5."""
        source = TermSource(eval=lambda k: 5.0 * u0 if k == 5 else u0 if k == 0 else 0.0)
        return source, AffineParams(u0, 0.5, 0.0).constant_envelope()

    def test_spike_past_the_envelope_is_a_membership_finding(self):
        findings = validate_envelope(*self.spike_past_the_envelope(1e-8), 10)
        assert [(f.k, f.kind) for f in findings] == [(5, "membership")]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 27: below |u| = 1 the membership slack is an absolute 1e-12, "
        "so the same spike at u_0 = 1e-14 passes, and solve returns (1e-14, 0) "
        "where brute_force_peak gives (5e-14, 5)"))
    def test_spike_past_the_envelope_below_one_is_a_membership_finding(self):
        findings = validate_envelope(*self.spike_past_the_envelope(1e-14), 10)
        assert [(f.k, f.kind) for f in findings] == [(5, "membership")]

    def test_misdeclared_decrease_is_caught(self):
        ad = FactorialRatioAdapter(4)
        eager = Envelope(h=ad.seq_env.h, beta=ad.seq_env.beta, mono=Monotonicity())
        kinds = {f.kind for f in validate_envelope(ad.source, eager, 20)}
        assert "h-decrease" in kinds

    def test_horizon_zero_checks_index_zero_alone(self):
        source, env = listed_family([2.0, 1.0], [0.5, 1.5], Monotonicity(0, 0), [1.0, 9.0])
        assert validate_envelope(source, env, 0) == []
        source, env = listed_family([2.0], [0.5], Monotonicity(0, 0), [3.0])
        findings = validate_envelope(source, env, 0)
        assert [(f.k, f.kind, f.detail) for f in findings] == [
            (0, "membership", "u_k=3.0 > h_k(beta_k^k)=2.0")
        ]

    @pytest.mark.parametrize("check", [
        lambda h: validate_envelope(*listed_family([2.0], [0.5], Monotonicity()), h),
        lambda h: collatz_envelope_check(7, 50.0, 0.9, 5.0, h),
    ], ids=["validate_envelope", "collatz_envelope_check"])
    def test_negative_horizon_is_rejected(self, check):
        with pytest.raises(PreconditionViolated, match=r"^horizon must be >= 0$"):
            check(-1)

    # Hand-built families, one per finding kind, pin the exact (k, kind) list.
    def findings(self, scales, betas, mono, terms=None):
        source, env = listed_family(scales, betas, mono, terms)
        return [(f.k, f.kind) for f in validate_envelope(source, env, len(scales) - 1)]

    def test_beta_range(self):
        # Decrease checks start past the horizon, so only the range test fires.
        got = self.findings([1.0] * 6, [0.5, 0.5, 1.5, 0.5, 0.0, 0.5], Monotonicity(10, None))
        assert got == [(2, "beta-range"), (4, "beta-range")]

    def test_beta_decrease(self):
        got = self.findings([1.0] * 5, [0.5, 0.5, 0.6, 0.55, 0.7], Monotonicity())
        assert got == [(2, "beta-decrease"), (4, "beta-decrease")]

    def test_beta_constant(self):
        got = self.findings([1.0] * 5, [0.6, 0.6, 0.6, 0.5, 0.4], Monotonicity(0, 2))
        assert got == [(3, "beta-constant"), (4, "beta-constant")]

    def test_h_constant(self):
        source, env = listed_family([2.0, 2.0, 2.0, 1.5, 1.5], [0.5] * 5, Monotonicity(0, 1))
        findings = validate_envelope(source, env, 4)
        assert [(f.k, f.kind) for f in findings] == [(3, "h-constant"), (4, "h-constant")]
        assert findings[0].detail == "h_3(0.0625) = 0.09375 != h_c(0.0625) = 0.125"

    def test_adjacent_kinds_in_index_order(self):
        got = self.findings(
            [2.0, 1.0, 1.5, 1.5], [0.5, 0.5, 0.5, 1.0], Monotonicity(0, 0), [0.0, 1.0, 0.0, 0.0]
        )
        assert got == [
            (1, "membership"),
            (1, "h-constant"),
            (2, "h-decrease"),
            (2, "h-constant"),
            (3, "beta-decrease"),
            (3, "beta-range"),
        ]

    @pytest.mark.parametrize("envelope", ["sequence", "constant"])
    def test_one_evaluation_per_index(self, envelope):
        ad = FactorialRatioAdapter(5)
        env = ad.seq_env if envelope == "sequence" else ad.const_env
        calls = Counter()

        def counted(key, f):
            def wrapped(arg):
                calls[key] += 1
                return f(arg)
            return wrapped

        def h(k):
            fn = env.h(k)
            return EnvelopeFn(eval=counted(("h_k", k), fn.eval), inverse=fn.inverse, lo=fn.lo, hi=fn.hi)

        source = TermSource(eval=counted("u", ad.source.eval))
        wrapped = Envelope(h=counted("h", h), beta=counted("beta", env.beta), mono=env.mono)
        horizon = 30
        assert validate_envelope(source, wrapped, horizon) == []
        assert calls["u"] == calls["h"] == calls["beta"] == horizon + 1
        assert max(calls[("h_k", k)] for k in range(horizon + 1)) <= len(_SAMPLE_GRID) + 1

    def test_upper_below_the_term_is_caught(self):
        # upper(k) = u_k except at k = 1 (far below) and k = 3 (one part in 1e9
        # below, beyond the roundoff slack); k = 2 sits 1 ulp low, within it.
        terms = [1.0, 0.9, 0.8, 0.7, 0.6]
        uppers = [1.0, 0.5, math.nextafter(0.8, 0.0), 0.7 * (1 - 1e-9), 0.6]
        source, env = listed_family([2.0] * 5, [0.9] * 5, Monotonicity(constant_from=0), terms)
        low = TermSource(eval=source.eval, upper=lambda k: uppers[k])
        findings = validate_envelope(low, env, 4)
        assert [(f.k, f.kind) for f in findings] == [(1, "upper"), (3, "upper")]
        assert findings[0].detail == "u_k=0.9 > upper(k)=0.5"

    def test_lower_above_the_term_is_caught(self):
        # lower(k) = u_k except at k = 1 (far above), k = 3 (one part in 1e9
        # above, beyond the roundoff slack) and k = 4 (+inf, whose slack is
        # infinite); k = 2 sits 1 ulp high, within it.
        terms = [1.0, 0.9, 0.8, 0.7, 0.6]
        lowers = [1.0, 1.5, math.nextafter(0.8, 1.0), 0.7 * (1 + 1e-9), math.inf]
        source, env = listed_family([2.0] * 5, [0.9] * 5, Monotonicity(constant_from=0), terms)
        high = TermSource(eval=source.eval, lower=lambda k: lowers[k])
        findings = validate_envelope(high, env, 4)
        assert [(f.k, f.kind) for f in findings] == [(1, "lower"), (3, "lower"), (4, "lower")]
        assert findings[0].detail == "u_k=0.9 < lower(k)=1.5"
        assert findings[2].detail == "u_k=0.6 < lower(k)=inf"

    @pytest.mark.parametrize("lam,d", [(0.9, 2), (0.99, 3), (0.999, 5)])
    def test_power_norm_upper_is_clean(self, lam, d):
        # The source carries both bounds, so this checks ``lower`` as well.
        ls = linsys.LinearSystem(linsys.a_lambda(lam, d), linsys.p_q(lam, d))
        assert validate_envelope(ls.source, ls.const_env, 300) == []

    @settings(max_examples=60, deadline=None)
    @given(stable_systems())
    def test_anchored_family_is_clean(self, system):
        a, p = system
        ls = linsys.LinearSystem(a, p)
        sol = solve(ls.source, ls.env, tie=Tie.MAX_ARGMAX)
        assert validate_envelope(ls.source, ls.env, 2 * sol.truncation_index + 20) == []

    @settings(max_examples=60, deadline=None)
    @given(stable_systems(isometric=True))
    def test_anchored_family_with_a_smaller_beta_is_caught(self, system):
        # The family rebuilt at 0.99 beta: h_k(t) = (w_k / (0.99 beta)^k) t.
        # w_k decays at exactly beta here, so h_1 rises above h_0.
        a, p = system
        ls = linsys.LinearSystem(a, p)
        beta = 0.99 * ls.beta
        env = Envelope(h=lambda k: affine_fn(ls.env.h(k).hi / 0.99**k, 0.0), beta=lambda k: beta,
                       mono=Monotonicity())
        findings = validate_envelope(ls.source, env, 20)
        assert findings and {f.kind for f in findings} <= {"membership", "h-decrease"}

    def test_memory_does_not_grow_with_horizon(self):
        ad = FactorialRatioAdapter(30)
        tracemalloc.start()
        try:
            assert validate_envelope(ad.source, ad.seq_env, 2000) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def table_fn(ys):
    """An EnvelopeFn whose grid samples are ys, and 1.0 off the grid."""
    table = dict(zip(_SAMPLE_GRID, ys))
    return EnvelopeFn(eval=lambda x: table.get(x, 1.0), inverse=lambda y: y, lo=0.0, hi=1.0)


# Neighbours one ulp and 1e-12 relative apart, infinities, a fresh NaN and
# the shared math.nan object.
GRID_TWEAKS = (
    lambda y: math.nextafter(y, math.inf),
    lambda y: math.nextafter(y, -math.inf),
    lambda y: y * (1 + 1e-12),
    lambda y: y * (1 - 1e-12),
    lambda y: y + 1e-12,
    lambda y: math.inf,
    lambda y: -math.inf,
    lambda y: math.nan,
    lambda y: float("nan"),
)

EDGE_VALUES = (0.0, 0.25, 1.0, 3.0, math.inf, -math.inf, math.nan)


@st.composite
def grid_families(draw):
    """(source, envelope, horizon) over a few grid tables that differ from
    one base table at a few samples, handed back shared or fresh per index."""
    horizon = draw(st.integers(1, 6))
    base = draw(st.lists(st.floats(-4.0, 4.0, allow_subnormal=False), min_size=17, max_size=17))
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        ys = list(base)
        for i in draw(st.lists(st.integers(0, 16), max_size=3)):
            ys[i] = draw(st.sampled_from(GRID_TWEAKS))(ys[i])
        tables.append(ys)
    pick = draw(st.lists(st.integers(0, len(tables) - 1), min_size=horizon + 1, max_size=horizon + 1))
    if draw(st.booleans()):
        fns = [table_fn(ys) for ys in tables]
        h = lambda k: fns[pick[k]]
    else:
        h = lambda k: table_fn(tables[pick[k]])
    betas = draw(st.lists(st.sampled_from([0.5, 0.5, 0.5 + 1e-13, 0.6, 1.5]),
                          min_size=horizon + 1, max_size=horizon + 1))
    m = draw(st.integers(0, 2))
    c = draw(st.one_of(st.none(), st.integers(m, m + 3)))

    def listed():
        values = draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=horizon + 1, max_size=horizon + 1))
        return lambda k: values[k]

    terms = listed()
    upper = draw(st.sampled_from([None, terms, listed()]))
    lower = draw(st.sampled_from([None, terms, listed()]))
    source = TermSource(eval=terms, upper=upper, lower=lower)
    return source, Envelope(h=h, beta=lambda k: betas[k], mono=Monotonicity(m, c)), horizon


def shared_family(ys, mono, betas=(0.5,) * 6, table=table_fn):
    """(source, envelope, horizon 5): one shared table(ys) at every index,
    beta_k = betas[k] and u_k = 0.5^k."""
    fn = table(ys)
    return TermSource(eval=lambda k: 0.5**k), Envelope(h=lambda k: fn, beta=lambda k: betas[k], mono=mono), 5


def shared_nan_family(table=table_fn):
    """A constant family whose one shared function is NaN at x = 0.3125, no
    power of beta = 0.5: every index must fail both grid checks there."""
    ys = list(_SAMPLE_GRID)
    ys[5] = math.nan
    return shared_family(ys, Monotonicity(constant_from=0), table=table)


class TestGridRules:
    """The grid checks compare exactly first and sample each function object
    once; their findings are those of the per-sample rules."""

    @settings(max_examples=400, deadline=None)
    @given(grid_families())
    @example(shared_nan_family())
    # The corners of the skip for an unchanged grid: a NaN across
    # constant_from, a beta out of range that resets the decrease check,
    # infinite samples, and a first sampled index with no predecessor.
    @example(shared_family([1.0] * 8 + [math.nan] + [1.0] * 8, Monotonicity(1, 3)))
    @example(shared_family([1.0] * 17, Monotonicity(0, 4), betas=(0.5, 0.5, 1.5, 0.5, 0.5, 0.5)))
    @example(shared_family([-math.inf] + [1.0] * 15 + [math.inf], Monotonicity(0, 2)))
    @example(shared_family([2.0] * 17, Monotonicity(2, 3)))
    def test_matches_the_reference(self, family):
        source, env, horizon = family
        got = [(f.k, f.kind, f.detail) for f in validate_envelope(source, env, horizon)]
        assert got == reference_findings(source, env, horizon)

    def test_unchanged_grid_is_compared_only_for_nan(self):
        index = [None]
        compared = set()  # the indices at which a grid sample took part in <= or ==

        class Logged(float):
            def __le__(self, other):
                compared.add(index[0])
                return float.__le__(self, other)

            def __eq__(self, other):
                compared.add(index[0])
                return float.__eq__(self, other)

            __hash__ = float.__hash__

        def logged_fn(ys):
            return table_fn([Logged(y) for y in ys])

        def run(env, horizon):
            """validate_envelope's findings for u_k = 0.5^k, and the indices
            at which a grid sample was compared."""
            def term(k):
                index[0] = k
                return 0.5**k
            compared.clear()
            got = [(f.k, f.kind, f.detail) for f in validate_envelope(TermSource(eval=term), env, horizon)]
            return got, set(compared)

        ys = [2.0 * x for x in _SAMPLE_GRID]
        fn = logged_fn(ys)
        shared = Envelope(h=lambda k: fn, beta=lambda k: 0.5, mono=Monotonicity(constant_from=0))
        assert run(shared, 30) == ([], set())

        source, env, horizon = shared_nan_family(logged_fn)
        got, at = run(env, horizon)
        assert at == set(range(horizon + 1))
        assert got == reference_findings(source, env, horizon)

        # Equal samples from a fresh object: compared wherever the list is new.
        fresh = Envelope(h=lambda k: logged_fn(ys), beta=lambda k: 0.5, mono=Monotonicity(constant_from=0))
        assert run(fresh, 30) == ([], set(range(1, 31)))

    @staticmethod
    def minus_inf_at_zero(rise=0.0):
        """h(x) = -inf at x = 0 and (1 + x)(1 + rise) elsewhere."""
        return EnvelopeFn(eval=lambda x: -math.inf if x == 0.0 else (1.0 + x) * (1.0 + rise),
                          inverse=lambda y: y / (1.0 + rise) - 1.0, lo=-math.inf, hi=2.0 * (1.0 + rise))

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "fresh"])
    def test_equal_minus_infinities_do_not_rise(self, shared):
        fn = self.minus_inf_at_zero()
        env = Envelope(h=lambda k: fn if shared else self.minus_inf_at_zero(), beta=lambda k: 0.5,
                       mono=Monotonicity())
        assert validate_envelope(TermSource(eval=lambda k: 0.5**k), env, 20) == []

    def test_minus_infinity_passes_the_slack_loop(self):
        # h_k rises by 1e-15 relative at every index: within the slack, but
        # not exactly, so every index goes through the per-sample loop.
        env = Envelope(h=lambda k: self.minus_inf_at_zero(k * 1e-15), beta=lambda k: 0.5,
                       mono=Monotonicity())
        assert validate_envelope(TermSource(eval=lambda k: 0.5**k), env, 20) == []

    def test_infinity_turned_finite_breaks_constancy(self):
        top = EnvelopeFn(eval=lambda x: math.inf if x == 1.0 else 4.0 * x,
                         inverse=lambda y: y / 4.0, lo=0.0, hi=math.inf)
        env = Envelope(h=lambda k: top if k < 2 else affine_fn(4.0, 0.0), beta=lambda k: 0.5,
                       mono=Monotonicity(0, 1))
        findings = validate_envelope(TermSource(eval=lambda k: 0.5**k), env, 4)
        assert [(f.k, f.kind) for f in findings] == [(k, "h-constant") for k in (2, 3, 4)]
        assert findings[0].detail == "h_2(1.0) = 4.0 != h_c(1.0) = inf"

    def test_constant_family_is_sampled_once(self, monkeypatch):
        calls = []

        def counted_affine(a, c):
            fn = affine_fn(a, c)

            def ev(x):
                calls.append(x)
                return fn.eval(x)
            return EnvelopeFn(eval=ev, inverse=fn.inverse, lo=fn.lo, hi=fn.hi)

        monkeypatch.setattr(algebra, "affine_fn", counted_affine)
        env = AffineParams(2.0, 0.5, 0.0).constant_envelope()
        horizon = 30
        assert validate_envelope(TermSource(eval=lambda k: 0.5**k), env, horizon) == []
        # The grid once, then h_k(beta^k) at every index.
        assert calls == list(_SAMPLE_GRID) + [0.5**k for k in range(horizon + 1)]


def test_monotonicity_validation():
    with pytest.raises(PreconditionViolated):
        Monotonicity(3, 1)
    for bad in ((2.5, None), (0, 2.0), (1.0, None)):
        with pytest.raises(PreconditionViolated, match="must be ints"):
            Monotonicity(*bad)
    with pytest.raises(PreconditionViolated, match="^decreasing_from must be >= 0$"):
        Monotonicity(decreasing_from=-1)
    assert Monotonicity(constant_from=0).constant_from == 0
    assert Monotonicity().decreasing_from == 0
