"""Recurrence sources: the value at k depends on k alone, and an in-order scan
costs O(1) per term however the source keeps its place."""

import math
import random
import sys
import threading

import pytest

from peakseq import linsys, solve
from peakseq.sequences import (
    U128_MAX,
    FactorialRatioAdapter,
    FibonacciRatioAdapter,
    LogisticAdapter,
    SyracuseAdapter,
)

N = 120


def naive_fibonacci(u0, u1):
    def ratio(n):
        if n == 0:
            return u1 / u0 if u0 > 0 else 0.0
        a, b = u0, u1
        for _ in range(n):
            a, b = b, a + b
        return b / a

    return ratio


def naive_logistic(r, y0):
    def term(n):
        y = y0
        for _ in range(n):
            y = r * y * (1.0 - y)
        return y

    return term


def naive_syracuse(n0):
    def term(k):
        y = n0
        for _ in range(k):
            y = y // 2 if y % 2 == 0 else (3 * y + 1) // 2
        return y

    return term


def naive_pow_over_factorial(a):
    return lambda k: a**k / math.factorial(k)


def power_norms():
    """The source of ||A^k||_2^2 for a_lambda(0.9, 3), checked under
    p_q(0.9, 3) here: the certificate's own products come before any count."""
    return linsys.LinearSystem(linsys.a_lambda(0.9, 3), linsys.p_q(0.9, 3)).source


# name -> (fresh source factory, naive from-index-0 iterator or None)
SOURCES = {
    "fibonacci-u0=0": (lambda: FibonacciRatioAdapter(0, 1).source, naive_fibonacci(0, 1)),
    "fibonacci-u0>0": (lambda: FibonacciRatioAdapter(3, 7).source, naive_fibonacci(3, 7)),
    "logistic": (lambda: LogisticAdapter(0.9, 0.3).source, naive_logistic(0.9, 0.3)),
    "syracuse": (lambda: SyracuseAdapter(27).source, naive_syracuse(27)),
    "factorial": (lambda: FactorialRatioAdapter(20).source, naive_pow_over_factorial(20)),
    "power-norm": (power_norms, None),
}


def bits(values):
    """Floats as their exact bits, ints (Syracuse) as themselves."""
    return [v if type(v) is int else v.hex() for v in values]


def scan(source, order):
    return {k: source.eval(k) for k in order}


@pytest.mark.parametrize("name", SOURCES)
class TestValueDependsOnKOnly:
    def test_any_order_gives_the_same_bits(self, name):
        fresh, naive = SOURCES[name]
        ks = list(range(N + 1))
        shuffled = ks[:]
        random.Random(7).shuffle(shuffled)
        in_order = bits(fresh().eval(k) for k in ks)
        for order in (ks[::-1], shuffled):
            got = scan(fresh(), order)
            assert bits(got[k] for k in ks) == in_order
        if naive is not None:
            assert bits(naive(k) for k in ks) == in_order

    def test_threads_in_opposite_orders_agree(self, name):
        fresh, _ = SOURCES[name]
        ks = list(range(N + 1))
        want = bits(fresh().eval(k) for k in ks)
        shared = fresh()
        results = {}

        def worker(order):
            got = scan(shared, order)
            results[order[0]] = bits(got[k] for k in ks)

        threads = [threading.Thread(target=worker, args=(order,)) for order in (ks, ks[::-1])]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {0: want, N: want}


class TestInOrderCost:
    def test_power_norm_two_products_per_term(self, monkeypatch):
        product = linsys._product
        calls = []

        def counting(a_rows, b_rows):
            calls.append(1)
            return product(a_rows, b_rows)

        source = power_norms()
        monkeypatch.setattr(linsys, "_product", counting)
        for k in range(N + 1):
            source.eval(k)
        assert len(calls) <= 2 * N

    def test_power_norm_one_product_per_term(self, monkeypatch):
        # One step A^(k-1) A per term, and one more product for its Gram.
        product = linsys._product
        calls = []

        def counting(a_rows, b_rows):
            calls.append(1)
            return product(a_rows, b_rows)

        source = power_norms()
        monkeypatch.setattr(linsys, "_product", counting)
        for k in range(N + 1):
            source.eval(k)
        assert len(calls) == 2 * N

    def counted_solve(self, monkeypatch, anchored=False, **kwargs):
        """solve on ||A^k||^2 for a_lambda(0.9, 3) under the constant envelope
        or the anchored one: (solution, _product calls, _norm_sq calls).
        Each _norm_sq forms its Gram with one _product call of its own."""
        system = linsys.LinearSystem(linsys.a_lambda(0.9, 3), linsys.p_q(0.9, 3))
        source, env = system.source, system.env if anchored else system.const_env
        calls = {"_product": 0, "_norm_sq": 0}

        def counting(name):
            inner = getattr(linsys, name)

            def wrapped(*args):
                calls[name] += 1
                return inner(*args)

            return wrapped

        for name in calls:
            monkeypatch.setattr(linsys, name, counting(name))
        sol = solve(source, env, **kwargs)
        return sol, calls["_product"], calls["_norm_sq"]

    def test_solve_screens_past_the_eigensolve(self, monkeypatch):
        # One product per index past 0, screened or not; the Gram and Jacobi
        # only for the terms that could reach the running max or the next term.
        sol, products, norms = self.counted_solve(monkeypatch)
        assert (sol.argmax_min, sol.terms_evaluated) == (9, 21)
        assert products == sol.terms_evaluated - 1 + norms == 23
        assert norms == 3

    def test_traced_and_untraced_scans_evaluate_the_same_terms(self, monkeypatch):
        # on_step observes the screened scan: the same products and
        # eigensolves, one step per index, u_k None where it was screened.
        # u_0 = ||I||^2 = 1 is exact and needs no eigensolve.
        sol, products, norms = self.counted_solve(monkeypatch)
        steps = []
        traced, traced_products, traced_norms = self.counted_solve(
            monkeypatch, on_step=lambda *s: steps.append(s))
        assert traced == sol
        assert (traced_products, traced_norms) == (products, norms) == (sol.terms_evaluated - 1 + 3, 3)
        assert [k for k, *_ in steps] == list(range(sol.terms_evaluated))
        assert sum(u is not None for _, u, *_ in steps) == norms + 1

    def test_anchored_solve_screens_past_the_eigensolve(self, monkeypatch):
        # h_k reads the power from the cursor the terms step, and a diagonal
        # P costs it no product of its own.  The look-ahead to k + 1 steps
        # the cursor once, and an eval at k that follows reads the power
        # before it.  Only the three terms at the peak are computed exactly.
        sol, products, norms = self.counted_solve(monkeypatch, anchored=True)
        assert (sol.argmax_min, sol.terms_evaluated) == (9, 15)
        assert products == sol.terms_evaluated - 1 + norms == 17
        assert norms == 3

    def test_power_norm_step_back_one_is_free(self, monkeypatch):
        # solve's look-ahead reads lower(k + 1) before eval(k): still one
        # step per index (and one Gram product per eval past 0), one set of
        # row norms for both bounds, and the same bits as an in-order scan.
        def fresh():
            return linsys.LinearSystem(linsys.a_lambda(0.9, 3), linsys.p_q(0.9, 3)).source

        want = bits(fresh().eval(k) for k in range(N))
        source = fresh()
        product, calls = linsys._product, []
        row_norms, normed = linsys._row_norms, []
        monkeypatch.setattr(linsys, "_product", lambda *args: calls.append(1) or product(*args))
        monkeypatch.setattr(linsys, "_row_norms", lambda rows: normed.append(1) or row_norms(rows))
        got = []
        for k in range(N):
            source.lower(k + 1)
            source.upper(k + 1)
            got.append(source.eval(k))
        assert bits(got) == want
        assert len(calls) == N + N - 1
        assert len(normed) <= N + 1
        source.eval(N)
        source.eval(N - 1)
        assert len(calls) == N + N - 1 + 2

    def test_power_norm_of_a_scalar(self):
        source = linsys.LinearSystem(linsys.Matrix.from_rows([[0.5]]), linsys.Matrix.identity(1)).source
        assert [source.eval(k) for k in range(N + 1)] == [0.25**k for k in range(N + 1)]

    def test_syracuse_one_step_per_term(self, monkeypatch):
        step = SyracuseAdapter.step
        calls = []

        def counting(y):
            calls.append(y)
            return step(y)

        monkeypatch.setattr(SyracuseAdapter, "step", staticmethod(counting))
        adapter = SyracuseAdapter(27)
        for k in range(N + 1):
            adapter.term(k)
        assert len(calls) == N

    def test_factorial_one_step_per_term(self):
        # (20^k, k!) steps by num * a, which an int subclass on the right
        # answers with __rmul__.
        calls = []

        class Base(int):
            def __rmul__(self, other):
                calls.append(1)
                return other * int(self)

        source = FactorialRatioAdapter(Base(20)).source
        ks = range(N + 1)
        assert [source.eval(k) for k in ks] == [20**k / math.factorial(k) for k in ks]
        assert len(calls) == N

    def test_factorial_first_query_past_underflow(self):
        # The walk stops where the term falls below 2^-1076 and holds no pair.
        adapter = FactorialRatioAdapter(20)
        walks = (adapter.source.eval.__self__, adapter._slope.__self__)
        assert adapter.source.eval(10**7) == 0.0
        assert adapter.seq_env.h(10**7).eval(1.0) == math.ulp(0.0)
        assert all(w.pair is None and w.zero_from < 10**7 for w in walks)


def test_syracuse_overflow_leaves_a_valid_cursor():
    # 2^127 - 1 steps once to 3*2^126 - 1; the next step passes 128 bits.
    n0 = 2**127 - 1
    adapter = SyracuseAdapter(n0)
    assert adapter.term(1) == 3 * 2**126 - 1 <= U128_MAX
    for k in (5, 2):
        with pytest.raises(OverflowError):
            adapter.term(k)
        assert adapter.term(1) == 3 * 2**126 - 1
        assert adapter.term(0) == n0
