"""Shared oracles and case generation for the property suite and the acceptance gate.

The oracles search terms directly instead of inverting envelopes.  Cases
pair a term source with a certified envelope and a scan horizon; the oracle
last-maximizer comes from the dominance-set scan under the
envelope-certified tail bound, never from the index-bound formula itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

from peakseq import (
    Envelope,
    EnvelopeFn,
    EnvelopeViolation,
    PeakseqError,
    PeakSolution,
    PreconditionViolated,
    TermSource,
    Tie,
    argmax_bound,
)
from peakseq.core import FLOOR_GUARD, MEMBERSHIP_RTOL, SCREEN_RTOL, _cursor
from peakseq.sequences import (
    PHI,
    FactorialRatioAdapter,
    FibonacciRatioAdapter,
    LogisticAdapter,
)
from peakseq import linsys


def fibonacci_rational_fn() -> EnvelopeFn:
    """h(x) = phi + x / (a (1 - x)) with a = phi / (1 + phi^2), and its inverse.

    With beta = phi^-2, h(beta^k) equals the ratio F_(k+1)/F_k of the
    Fibonacci numbers at every even k >= 2, and h has its pole at x = 1, so
    at k = 0 it certifies nothing finite: a rational envelope function whose
    right endpoint is +inf.
    """
    a = PHI / (1.0 + PHI * PHI)

    def inverse(y: float) -> float:
        if y <= PHI:
            return 0.0
        t = a * (y - PHI)
        return t / (1.0 + t)

    return EnvelopeFn(
        eval=lambda x: PHI + x / (a * (1.0 - x)) if x < 1.0 else math.inf,
        inverse=inverse,
        lo=PHI,
        hi=math.inf,
    )


def reference_pow_over_factorial(base: int, n: int) -> float:
    """base^n / n! as the factorial adapter first computed it: the log test
    at every n past 2*base, then the exact integers."""
    if n > 2 * base and n * math.log(base) - math.lgamma(n + 1) < -760.0:
        return 0.0
    return base**n / math.factorial(n)


def exact_a_lambda_beta(lam: float, q: float) -> Decimal:
    """||lambda*Id + U||_{P_q}^2 of the float lambda and q, in 60 digits.

    (1 + 2 q lambda^2 + sqrt(1 + 4 lambda^2 q)) / (2q), the exact
    generalised eigenvalue that the float beta of the certificate stands in
    for.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        dl, dq = Decimal(lam), Decimal(q)
        return (1 + 2 * dq * dl * dl + (1 + 4 * dl * dl * dq).sqrt()) / (2 * dq)


class InvalidTailBound(PeakseqError):
    """The certified tail bound exceeds every prefix term: inconclusive."""


def stopping_index(
    k: int, source: TermSource, env: Envelope, limit: int = 100_000
) -> int | None:
    """Smallest j <= limit with h_k(beta_k^j) < u_k, by direct search.

    Independent oracle for the identity floor(bound) + 1 == stopping index.
    The comparison carries a 1e-12 relative slack so that points where the
    envelope holds with equality resolve the way exact arithmetic would.
    """
    u_k = source.eval(k)
    fn = env.h(k)
    b = env.beta(k)
    # Slack proportional to the term itself: equality points must not read
    # as drops, while terms far below 1 keep a usable comparison scale.
    margin = MEMBERSHIP_RTOL * abs(u_k)
    for j in range(limit + 1):
        if fn.eval(b**j) < u_k - margin:
            return j
    return None


def prefix_index_sets(
    source: TermSource, n: int, tail_bound: float
) -> tuple[list[int], list[int], int | None, int | None]:
    """Dominance index sets of the prefix u_0..u_n under a certified tail bound.

    The caller certifies sup_{j>n} u_j <= tail_bound (e.g. h_{n+1}(beta^{n+1})
    for a decreasing envelope).  Returns the indices k <= n whose prefix max
    dominates everything after k (weakly, then strictly), together with the
    minima of the two sets: the first maximizer and the last maximizer of u.
    Raises :class:`InvalidTailBound` when even k = n fails the weak test,
    which means the scan was inconclusive.
    """
    if n < 0:
        raise PreconditionViolated("prefix length must be >= 0")
    terms = [source.eval(k) for k in range(n + 1)]
    suffix_max = [tail_bound] * (n + 2)
    for k in range(n, -1, -1):
        suffix_max[k] = max(terms[k], suffix_max[k + 1])
    weak: list[int] = []
    strict: list[int] = []
    prefix_max = -math.inf
    for k in range(n + 1):
        prefix_max = max(prefix_max, terms[k])
        if prefix_max >= suffix_max[k + 1]:
            weak.append(k)
        if prefix_max > suffix_max[k + 1]:
            strict.append(k)
    if not weak:
        raise InvalidTailBound(
            f"tail bound {tail_bound!r} exceeds the whole prefix max "
            f"{prefix_max!r}; scanning to n={n} was inconclusive"
        )
    first_argmax = weak[0]
    last_argmax = strict[0] if strict else None
    return weak, strict, first_argmax, last_argmax


@dataclass(frozen=True)
class Case:
    name: str
    source: TermSource
    env: Envelope
    horizon: int
    # Envelope used only to certify the tail bound for the oracle; defaults
    # to the tested envelope.  The frozen factorial family decays far slower
    # than the sequence it certifies, so its tight sibling does that job.
    tail_env: Envelope | None = None


LOGISTIC_GRID = [
    (0.1, 0.2), (0.2, 0.9), (0.3, 0.5), (0.4, 0.05), (0.5, 0.5),
    (0.6, 0.7), (0.7, 0.3), (0.8, 0.8), (0.9, 0.1), (0.95, 0.6),
]

FIB_PAIRS = [(0, 1), (0, 2), (0, 7), (1, 2), (1, 3), (2, 4), (3, 5), (2, 5), (5, 9), (1, 10)]

LINSYS_LAMBDAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def all_cases() -> list[Case]:
    cases: list[Case] = []
    for a in range(1, 13):
        ad = FactorialRatioAdapter(a)
        cases.append(Case(f"factorial-seq-{a}", ad.source, ad.seq_env, 3 * a))
        cases.append(
            Case(f"factorial-const-{a}", ad.source, ad.const_env, 3 * a, tail_env=ad.seq_env)
        )
    for u0, u1 in FIB_PAIRS:
        ad = FibonacciRatioAdapter(u0, u1)
        # Horizon 16: the envelope gap w_2k - phi shrinks like phi^(-4k),
        # and past even k = 16 it falls under float64 term resolution, which
        # makes the inverse (hence the index bound) ill-conditioned by more
        # than the 1e-9 slack these properties assert.
        cases.append(Case(f"fib-{u0}-{u1}", ad.source, ad.env, 16))
    for r, y0 in LOGISTIC_GRID:
        ad = LogisticAdapter(r, y0)
        cases.append(Case(f"logistic-{r}-{y0}", ad.source, ad.env, 40))
    for lam in LINSYS_LAMBDAS:
        matrix = linsys.a_lambda(lam)
        env = linsys.envelope_from_certificate(matrix, linsys.p_q(lam))
        cases.append(Case(f"linsys-{lam}", linsys.a_lambda_source(lam), env, 40))
    return cases


def certified_tail_bound(case: Case) -> float:
    """sup_{j > horizon} u_j <= h_{N+1}(beta_{N+1}^{N+1}) for a decreasing family.

    Valid because past the decreasing-from index both h and beta only
    shrink, so every later certified value sits below this one.
    """
    env = case.tail_env or case.env
    n1 = case.horizon + 1
    assert n1 >= env.mono.decreasing_from
    return env.h(n1).eval(env.beta(n1) ** n1)


def oracle_last_argmax(case: Case) -> int:
    """Last maximizer of the full sequence via the dominance-set oracle."""
    _, _, _, last = prefix_index_sets(case.source, case.horizon, certified_tail_bound(case))
    assert last is not None, f"{case.name}: strict dominance never observed"
    return last


def useful_indices(case: Case) -> list[int]:
    m = case.env.mono.decreasing_from
    return [
        k
        for k in range(m, case.horizon + 1)
        if case.source.eval(k) > case.env.h(k).lo
    ]


def left_fold(terms) -> float:
    """The terms added left to right from 0.0, the one order linsys sums in
    on every Python version (the built-in ``sum`` compensates from 3.12 on)."""
    acc = 0.0
    for x in terms:
        acc += x
    return acc


def fold_product(a_rows, b_rows) -> tuple[tuple[float, ...], ...]:
    """A B for square A and B with each entry folded left to right from 0.0,
    as the linsys product kernel adds it:
    0.0 + a_i0*b_0j + a_i1*b_1j + ... + a_i(d-1)*b_(d-1)j."""
    out = []
    for row in a_rows:
        entries = []
        for j in range(len(b_rows)):
            acc = 0.0
            for k, x in enumerate(row):
                acc += x * b_rows[k][j]
            entries.append(acc)
        out.append(tuple(entries))
    return tuple(out)


def power_walk(m: linsys.Matrix):
    """k -> ||A^k||_2^2 through the linsys kernel with no certificate and no
    bounds: A^k = A^(k-1) A stepped by a cursor, as ``LinearSystem.source``
    steps it, for a matrix that has no certificate P."""
    times_a = linsys._times(m.rows)
    power = _cursor(linsys.Matrix.identity(m.dim).rows, lambda rows: linsys._product(rows, times_a))
    return lambda k: linsys._norm_sq(power(k)) if k else 1.0


def reference_power_norms(m: linsys.Matrix, n: int) -> list[float]:
    """||A^k||_2^2 for k = 0..n through the checked public eigensolve.

    A^k steps from the identity by fold_product, and so does each Gram
    (A^k)^T A^k, which goes whole into a Matrix and through the public
    sym_eig_bounds, so the check, the symmetry test and the copy all run
    per term.
    """
    power = linsys.Matrix.identity(m.dim).rows
    terms = [1.0]
    for _ in range(n):
        power = fold_product(power, m.rows)
        gram = linsys.Matrix(fold_product(tuple(zip(*power)), power))
        terms.append(linsys.sym_eig_bounds(gram)[1])
    return terms


def reference_row_norm_bounds(m: linsys.Matrix, n: int) -> list[tuple[float, float]]:
    """(||A^k||_F^2, the largest squared row norm of A^k) for k = 0..n, with
    A^k stepped as in reference_power_norms; (1, 1) at k = 0."""
    power = linsys.Matrix.identity(m.dim).rows
    bounds = [(1.0, 1.0)]
    for _ in range(n):
        power = fold_product(power, m.rows)
        norms = [left_fold(x * x for x in row) for row in power]
        bounds.append((left_fold(norms), max(norms)))
    return bounds


def reference_findings(source: TermSource, env: Envelope, horizon: int) -> list[tuple[int, str, str]]:
    """validate_envelope's findings as (k, kind, detail), from the per-sample
    rules in one plain loop: h_k is sampled afresh at every index from
    decreasing_from on, and every grid sample goes through its rule.

    A sample passes the decrease check when it is at most its predecessor,
    exactly or within the roundoff slack; it passes the constant check when
    it equals h_c's sample, or both are finite and within the slack.  The
    first failing sample of an index is its finding.
    """
    grid = [i / 16.0 for i in range(17)]
    m, c = env.mono.decreasing_from, env.mono.constant_from

    def slack(v):
        return MEMBERSHIP_RTOL * max(1.0, abs(v))

    def first_failure(ys, refs, passes):
        return next(((x, y, r) for x, y, r in zip(grid, ys, refs) if not passes(y, r)), None)

    out = []
    prev = base = None
    for k in range(horizon + 1):
        u, fn, b = source.eval(k), env.h(k), env.beta(k)
        ys = [fn.eval(x) for x in grid] if k >= m else None
        if k == c:
            base = (b, ys)
        if prev is not None:
            if b > prev[0] + 1e-12:
                out.append((k, "beta-decrease", f"beta rises {prev[0]!r} -> {b!r}"))
            bad = first_failure(ys, prev[1], lambda y, r: y <= r or y <= r + slack(r))
            if bad:
                x, y, r = bad
                out.append((k, "h-decrease", f"h_{k}({x}) = {y!r} > h_{k-1}({x}) = {r!r}"))
        prev = None
        finite = math.isfinite(u)
        if source.upper is not None and finite:
            up = source.upper(k)
            if not u <= up + slack(u):
                out.append((k, "upper", f"u_k={u!r} > upper(k)={up!r}"))
        if source.lower is not None and finite:
            lo = source.lower(k)
            if not (lo < math.inf and lo <= u + slack(lo)):
                out.append((k, "lower", f"u_k={u!r} < lower(k)={lo!r}"))
        if not 0.0 < b < 1.0:
            out.append((k, "beta-range", f"beta_k={b!r} not in (0,1)"))
            continue
        cert = fn.eval(b**k)
        if not finite:
            out.append((k, "membership", f"u_k={u!r} is not finite"))
        elif not u <= cert + slack(u):
            out.append((k, "membership", f"u_k={u!r} > h_k(beta_k^k)={cert!r}"))
        if k >= m:
            prev = (b, ys)
        if base is not None:
            if abs(b - base[0]) > 1e-12:
                out.append((k, "beta-constant", f"beta_k={b!r} != beta_c={base[0]!r}"))
            bad = first_failure(
                ys, base[1], lambda y, r: y == r or math.isfinite(r) and abs(y - r) <= slack(r))
            if bad:
                x, y, r = bad
                out.append((k, "h-constant", f"h_{k}({x}) = {y!r} != h_c({x}) = {r!r}"))
    return out


def reference_solve(source: TermSource, env: Envelope, tie: Tie = Tie.MIN_ARGMAX,
                    on_step=None) -> PeakSolution:
    """solve's scan rule in one plain per-index loop, with no screening and
    no carry: from decreasing_from on, (h_k, beta_k) is read at every index
    up to constant_from, and h_k is evaluated afresh at beta_k^k and at
    beta_k^k * beta_k.  Every term is evaluated, and there is no scan
    limit."""
    m, c = env.mono.decreasing_from, env.mono.constant_from
    vmax, first, last = -math.inf, 0, 0

    def take(k, u):
        nonlocal vmax, first, last
        if not math.isfinite(u):
            raise PreconditionViolated(f"non-finite term at k={k}: u_k={u!r}")
        if u > vmax:
            vmax, first, last = u, k, k
        elif u == vmax:
            last = k

    for k in range(m):
        u = source.eval(k)
        take(k, u)
        if on_step is not None:
            on_step(k, u, None, None)
    trunc, k = None, m
    while trunc is None or k <= trunc:
        if c is None or k <= c:
            fn, b = env.h(k), env.beta(k)
            if not 0.0 < b < 1.0:
                raise PreconditionViolated(f"beta_k={b!r} at k={k} not in (0,1)")
        bk = b**k
        cert, nxt = fn.eval(bk), fn.eval(bk * b)
        u = source.eval(k)
        take(k, u)
        if not u <= cert + MEMBERSHIP_RTOL * max(1.0, abs(u)):
            raise EnvelopeViolation(k, u, cert)
        bound = None
        if trunc is None or vmax > nxt - SCREEN_RTOL * abs(nxt):
            bound = argmax_bound(k, min(vmax, cert), env, fn)
            if bound.is_finite:
                step = max(k, math.floor(bound.value + FLOOR_GUARD))
                trunc = step if trunc is None else min(trunc, step)
        if on_step is not None:
            on_step(k, u, bound, trunc)
        k += 1
    max_tie = tie is Tie.MAX_ARGMAX
    return PeakSolution(vmax, last if max_tie else first, trunc, k, max_tie)
