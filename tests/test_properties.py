"""Invariant suite run across every bundled adapter family.

The checks mirror the guarantees the solver relies on: the index bound
dominates the scan index and the oracle last-maximizer, its floor plus one
is the first certified-drop index, terms past the bound are strictly
dominated, the bound is monotone along dominated index pairs, pointwise
envelope minima never worsen the bound, and the optimal affine certificate
is tight at the last maximizer.  Violation counts must be zero across more
than a thousand generated (case, index) pairs.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from peakseq import (
    TermSource,
    argmax_bound,
    brute_force_peak,
    env_min,
    optimal_affine_certificate,
    truncation_from,
)
from peakseq.sequences import (
    PHI,
    FactorialRatioAdapter,
    FibonacciRatioAdapter,
    LogisticAdapter,
)
from peakseq import linsys

from helpers import (
    Case,
    FIB_PAIRS,
    LOGISTIC_GRID,
    all_cases,
    certified_tail_bound,
    oracle_last_argmax,
    prefix_index_sets,
    stopping_index,
    useful_indices,
)

DOMINANCE_WINDOW = 50


def run_property_suite() -> Counter:
    """Execute the cross-adapter invariants; returns per-property case counts.

    Raises AssertionError on the first violation.
    """
    counts: Counter = Counter()
    for case in all_cases():
        m = case.env.mono.decreasing_from
        ks = useful_indices(case)
        oracle_ks = oracle_last_argmax(case)
        for k in ks:
            u_k = case.source.eval(k)
            ub = argmax_bound(k, case.source.eval(k), case.env)
            assert ub.is_finite, f"{case.name}: bound infinite at useful k={k}"

            # Bound dominates the index itself.
            assert ub.value >= k - 1e-9, f"{case.name} k={k}: bound {ub.value} < k"
            counts["bound_at_least_k"] += 1

            # Floor identity against the direct-search oracle.
            floor = truncation_from(k, case.source, case.env)
            stop = stopping_index(k, case.source, case.env)
            assert stop == floor + 1, (
                f"{case.name} k={k}: stopping {stop} != floor {floor} + 1"
            )
            counts["floor_identity"] += 1

            # Terms past the bound are strictly dominated.
            for j in range(floor + 1, floor + DOMINANCE_WINDOW + 1):
                u_j = case.source.eval(j)
                assert u_j < u_k, (
                    f"{case.name} k={k}: u_{j}={u_j} not below u_{k}={u_k}"
                )
            counts["strict_dominance"] += 1

            # The bound dominates the oracle last maximizer.
            assert floor >= oracle_ks, (
                f"{case.name} k={k}: floor {floor} below oracle argmax {oracle_ks}"
            )
            counts["dominates_last_argmax"] += 1

        # Dominance-set oracle vs brute force: the minima of the weak and
        # strict sets are the first and last maximizer of the sequence.
        weak, strict, first_arg, last_arg = prefix_index_sets(
            case.source, case.horizon, certified_tail_bound(case)
        )
        _, bf_first, bf_last = brute_force_peak(case.source, case.horizon)
        assert first_arg == bf_first, case.name
        assert last_arg == bf_last, case.name
        assert set(strict) <= set(weak), case.name
        assert bf_first in weak, case.name
        counts["dominance_sets_match_brute_force"] += 1

        # Monotone along dominated pairs: m <= j <= k, u_j <= u_k pushes the
        # bound down; checked on a thinned pair grid to stay fast.
        values = {k: case.source.eval(k) for k in ks}
        bounds = {k: argmax_bound(k, case.source.eval(k), case.env).value for k in ks}
        thin = ks[:: max(1, len(ks) // 12)]
        for j in thin:
            for k in thin:
                if m <= j <= k and values[j] <= values[k]:
                    assert bounds[k] <= bounds[j] + 1e-9, (
                        f"{case.name}: bound not monotone at j={j}, k={k}"
                    )
                    counts["monotone_dominated"] += 1
    return counts


def test_property_suite_has_enough_cases_and_no_violations():
    counts = run_property_suite()
    total = sum(counts.values())
    assert counts["floor_identity"] >= 1000, counts
    assert total >= 4000, counts


def check_env_min_never_increases_bound():
    checked = 0
    for a in range(1, 13):
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
                    checked += 1
    assert checked >= 250


def test_bound_monotone_in_beta():
    # A pointwise-smaller valid ratio can only sharpen the bound.  The
    # frozen factorial envelope keeps its certificate with beta*0.99 for
    # a >= 2 (the n = a margin is a! >= 0.99^-a); membership is re-checked
    # here rather than assumed.
    from peakseq.core import Envelope, validate_envelope

    for a in range(2, 13):
        ad = FactorialRatioAdapter(a)
        shrunk = Envelope(
            h=ad.const_env.h,
            beta=lambda n, b=ad.beta: 0.99 * b,
            mono=ad.const_env.mono,
        )
        assert validate_envelope(ad.source, shrunk, 3 * a) == []
        for k in range(0, 3 * a + 1):
            if ad.source.eval(k) <= ad.const_env.h(k).lo:
                continue
            tight = argmax_bound(k, ad.source.eval(k), shrunk)
            loose = argmax_bound(k, ad.source.eval(k), ad.const_env)
            assert tight.value <= loose.value + 1e-9


def test_constant_envelope_bound_minimized_at_last_argmax():
    # Over the useful indices of an (eventually) constant family, the
    # smallest bound value sits at the last maximizer.
    checked = 0
    for case in all_cases():
        if case.env.mono.constant_from is None:
            continue
        ks = useful_indices(case)
        oracle_ks = oracle_last_argmax(case)
        if oracle_ks < case.env.mono.constant_from:
            continue
        bounds = {k: argmax_bound(k, case.source.eval(k), case.env).value for k in ks}
        best = min(bounds.values())
        assert bounds[oracle_ks] <= best + 1e-9, case.name
        checked += 1
    assert checked >= 20


def _certificate_inputs():
    yield "geometric", TermSource(eval=lambda k: 0.5**k, description="0.5^k"), 0.25
    for a in (1, 2, 3, 5, 8, 12):
        ad = FactorialRatioAdapter(a)
        yield f"factorial-{a}", ad.source, ad.source.eval(a) / 2.0
    for u0, u1 in FIB_PAIRS:
        if u0 == 0:
            ad = FibonacciRatioAdapter(u0, u1)
            yield f"fib-{u0}-{u1}", ad.source, (PHI + ad.source.eval(2)) / 2.0
    for r, y0 in LOGISTIC_GRID[:5]:
        ad = LogisticAdapter(r, y0)
        yield f"logistic-{r}", ad.source, y0 / 2.0
    for lam in (0.5, 0.75, 0.9):
        src = linsys.a_lambda_source(lam)
        env = linsys.envelope_from_certificate(linsys.a_lambda(lam), linsys.p_q(lam))
        case = Case(f"cert-linsys-{lam}", src, env, 60)
        yield f"linsys-{lam}", src, src.eval(oracle_last_argmax(case)) / 2.0


def check_certificate_tight_at_last_argmax():
    for name, source, c in _certificate_inputs():
        horizon = 80
        # Oracle last maximizer by direct scan with a conservative tail:
        # every family here decays past its peak, certified by scanning a
        # doubled horizon.
        terms = [source.eval(k) for k in range(2 * horizon + 1)]
        peak = max(terms)
        k_s = max(i for i, t in enumerate(terms) if t == peak)
        assert c < peak
        n_c = next(i for i in range(k_s + 1, 2 * horizon) if terms[i] <= c and all(
            t <= c for t in terms[i : 2 * horizon + 1]
        ))
        params = optimal_affine_certificate(source, k_s, c, n_c)
        env = params.constant_envelope()
        ub = argmax_bound(k_s, source.eval(k_s), env)
        assert ub.is_finite
        assert abs(ub.value - k_s) <= 1e-6, f"{name}: bound {ub.value} vs k_s {k_s}"


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_bound_dominates_any_useful_index_hypothesis(a, data):
    ad = FactorialRatioAdapter(a)
    k = data.draw(st.integers(min_value=a, max_value=3 * a))
    ub = argmax_bound(k, ad.source.eval(k), ad.seq_env)
    assert ub.is_finite
    assert ub.value >= k - 1e-9
    assert truncation_from(k, ad.source, ad.seq_env) >= a - 1  # first maximizer


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=60),
)
@settings(max_examples=60, deadline=None)
def test_logistic_bound_everywhere_hypothesis(r, y0, n):
    ad = LogisticAdapter(r, y0)
    assert ad.term(n) <= ad.env.h(n).eval(r**n) * (1.0 + 1e-12)


def test_env_min_never_increases_bound():
    check_env_min_never_increases_bound()


def test_certificate_tight_at_last_argmax():
    check_certificate_tight_at_last_argmax()
