"""Finite-time peak computation for real sequences from certified envelopes.

A sequence u is analyzed through a certified envelope: a family of strictly
increasing continuous functions h_k on [0, 1] together with ratios beta_k in
(0, 1) such that u_k <= h_k(beta_k^k) for every index k.  Whenever a term
satisfies u_k > h_k(0), inverting h_k converts the term into the index bound

    log(h_k^{-1}(u_k)) / log(beta_k),

and for envelopes that are (eventually) pointwise decreasing in k this bound
dominates every maximizer of u.  The solver scans terms while shrinking the
bound until the scan index passes it, which pins down the supremum and a
maximizer after finitely many term evaluations.

Everything in this module is deterministic.  Not every type is frozen:
``EnvelopeFn`` is a plain class with slots, and code that shares one must
not assign to it.  Term sources and envelope functions are required to be
pure: a source may keep a private cursor to step a recurrence forward
from the last index it was asked for, but its value at k depends on k alone,
so sharing across threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import eq, le
from typing import Callable

DEFAULT_SCAN_LIMIT = 10_000_000

# Relative slack absorbing float roundoff in adapters whose envelopes hold
# with equality by construction.
MEMBERSHIP_RTOL = 1e-12

# Added by UpperBoundValue.floor before flooring the index bound; only ever
# enlarges the truncation, which is the safe direction.
FLOOR_GUARD = 1e-9

# Relative margin by which a term's upper bound must undercut the running max,
# or the next term's lower bound, before solve skips the exact term.  It
# covers the rounding between a bound and the exact path it stands in for.
# For ||M||_F^2 against the Jacobi ||M||_2^2 of a d x d matrix: the sum of
# d^2 squares is off by at most d^2 ulp, the Gram sums by d ulp, and each of
# at most JACOBI_SWEEPS * d(d-1)/2 rotations moves the diagonal by a few ulp
# of the top eigenvalue.  At d = 50 that is 60 * 1225 * 4 * 1.1e-16 ~ 3e-11,
# about 30 times below this margin.  The look-ahead compares two bounds with
# the Jacobi values between them: the largest squared row norm is a sum of d
# squares, off by at most d ulp, so the same estimate holds on either side.
# The margin also dominates the MEMBERSHIP_RTOL slack a trusted bound or
# envelope may carry.  solve computes the index bound only where the running
# max exceeds h_k(beta_k^(k+1)) less this margin; below that level the bound
# is at least k + 1.  b**k, b**(k+1), the division and the log behind the
# bound are each off by a few ulp, together under ~1e-13 relative for
# |log x| <= 745, far inside the margin.  An envelope whose inverse is less
# accurate than the margin can only make the scan longer.
SCREEN_RTOL = 1e-9


class PeakseqError(Exception):
    """Base class for all library errors."""


class EnvelopeViolation(PeakseqError):
    """A term exceeded its certified bound h_k(beta_k^k) beyond roundoff."""

    def __init__(self, k: int, term: float, bound: float):
        super().__init__(
            f"envelope violated at k={k}: u_k={term!r} > h_k(beta_k^k)={bound!r}"
        )
        self.k = k
        self.term = term
        self.bound = bound


class NoUsefulIndex(PeakseqError):
    """No index with u_k > h_k(0) was found before the scan limit.

    Without such an index the solver loop can never assign a truncation
    bound and would not terminate; usefulness is semi-decidable for
    black-box sources, so the scan is capped.
    """


class PreconditionViolated(PeakseqError):
    """An operation was called outside its documented domain."""


@dataclass(frozen=True)
class TermSource:
    """A deterministic map k -> u_k for the analyzed real sequence.

    ``eval`` must be pure: repeated calls with the same k return the
    identical value, and it must be defined for every k >= 0.  It may keep
    private state, such as a cursor into a recurrence, as long as the value
    at k depends on k alone, whatever the order of calls.  Its values may
    be Python ints, which :func:`solve`, :func:`validate_envelope`,
    :func:`brute_force_peak` and :func:`exceeds_certificate` compare with
    float terms and bounds exactly, so an int supremum is reported exactly.
    Such a term must lie in the float range: past it ``math.isfinite``
    raises ``OverflowError``, as ``float()`` would.

    ``upper``, when set, is a cheaper certified bound with upper(k) >= eval(k)
    for every k, up to roundoff of relative size MEMBERSHIP_RTOL; ``lower``
    likewise has lower(k) <= eval(k).  Both are pure in the same sense,
    trusted like an envelope and checked by :func:`validate_envelope`.
    :func:`solve` uses them, once a truncation bound exists, to skip terms
    that cannot reach the running max (``upper``) or the next term
    (``upper`` against ``lower`` one index on); a skipped index still gets
    its bound where one can end the scan.  ``lower`` alone screens nothing.
    """

    eval: Callable[[int], float]
    description: str = ""
    upper: Callable[[int], float] | None = None
    lower: Callable[[int], float] | None = None


def _cursor(start, step: Callable) -> Callable[[int], object]:
    """k -> s_k of the recurrence s_0 = start, s_{k+1} = step(s_k).

    Steps forward from the last (index, state) pair it reached when k is at
    or past it, returns the pair before that one when k is its index, and
    steps from index 0 otherwise.  So an in-order scan costs one step per
    index, and so does one that peeks an index ahead before each term.  The
    two pairs are replaced by one assignment after every step: a step that
    raises leaves valid pairs behind, and a concurrent caller holding older
    ones steps along the same deterministic chain.
    """
    at = ((0, start), (0, start))

    def state(k: int):
        nonlocal at
        before, (n, s) = at
        if k < n:
            if k == before[0]:
                return before[1]
            n, s = 0, start
        while n < k:
            t = step(s)
            at = ((n, s), (n + 1, t))
            n, s = n + 1, t
        return s

    return state


class EnvelopeFn:
    """A strictly increasing continuous function on [0, 1] with an inverse.

    ``inverse`` is only guaranteed on [lo, hi] = [eval(0), eval(1)].  Both
    are pure: repeated calls with the same argument return the same value.
    A plain class with slots, not a dataclass: families built per index make
    one for every index they scan, and a slotted class is built in under
    half the time of a frozen dataclass.

    ``slope`` is a finite a > 0 when the function is the line x -> a*x
    through 0, evaluated as ``a.__mul__`` and inverted as
    ``a.__rtruediv__``, and None otherwise.  Only ``algebra.affine_fn``
    passes it; the combinators read it to replace a max or min of such lines
    by the steepest or flattest one.  It must not be assigned.
    """

    __slots__ = ("eval", "inverse", "lo", "hi", "slope")

    def __init__(
        self,
        eval: Callable[[float], float],
        inverse: Callable[[float], float],
        lo: float,
        hi: float,
        slope: float | None = None,
    ) -> None:
        if not lo < hi:
            raise PreconditionViolated(f"need lo < hi, got [{lo!r}, {hi!r}]")
        self.eval = eval
        self.inverse = inverse
        self.lo = lo
        self.hi = hi
        self.slope = slope


@dataclass(frozen=True)
class Monotonicity:
    """Monotonicity metadata of an envelope family.

    ``decreasing_from`` is the index from which both h_k and beta_k are
    pointwise decreasing; ``constant_from``, when set, is an index from
    which the pair (h_k, beta_k) no longer changes, so :func:`solve` reads
    it once there.  Only this metadata unlocks the argmax guarantees; it is
    trusted here and checked by :func:`validate_envelope`.
    """

    decreasing_from: int = 0
    constant_from: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.decreasing_from, int) or not isinstance(self.constant_from, (int, type(None))):
            raise PreconditionViolated(
                f"indices must be ints, got decreasing_from={self.decreasing_from!r}, "
                f"constant_from={self.constant_from!r}"
            )
        if self.decreasing_from < 0:
            raise PreconditionViolated("decreasing_from must be >= 0")
        if self.constant_from is not None and self.constant_from < self.decreasing_from:
            raise PreconditionViolated("constant_from must be >= decreasing_from")


@dataclass(frozen=True)
class Envelope:
    """An indexed family (h_k, beta_k) certifying u_k <= h_k(beta_k^k)."""

    h: Callable[[int], EnvelopeFn]
    beta: Callable[[int], float]
    mono: Monotonicity


@dataclass(frozen=True)
class UpperBoundValue:
    """A nonnegative real or the distinguished infinite branch.

    The infinite branch is a dedicated variant, never a float sentinel.
    """

    value: float | None = None

    @classmethod
    def finite(cls, v: float) -> "UpperBoundValue":
        if not math.isfinite(v) or v < 0.0:
            raise PreconditionViolated(f"finite bound must be a nonnegative real, got {v!r}")
        return cls(v)

    @classmethod
    def infinite(cls) -> "UpperBoundValue":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def floor(self) -> int | None:
        """The last index the bound admits, or None on the infinite branch."""
        return math.floor(self.value + FLOOR_GUARD) if self.value is not None else None


class Tie(Enum):
    """Which maximizer to report when the supremum is attained more than once."""

    MIN_ARGMAX = "min"
    MAX_ARGMAX = "max"


@dataclass(frozen=True)
class PeakSolution:
    """Result of a finite-time peak computation.

    ``argmax_min`` holds the reported maximizer: the smallest one under
    ``Tie.MIN_ARGMAX``, the largest under ``Tie.MAX_ARGMAX`` (recorded in
    ``argmax_max_requested``).
    """

    sup_value: float
    argmax_min: int
    truncation_index: int
    terms_evaluated: int
    argmax_max_requested: bool = False


def exceeds_certificate(u: float, cert: float) -> bool:
    """True unless u <= cert plus the MEMBERSHIP_RTOL roundoff slack, so a
    NaN on either side exceeds."""
    return not u <= cert + MEMBERSHIP_RTOL * max(1.0, abs(u))


def _below(ub: float, v: float) -> bool:
    """ub lies below a finite v by more than the SCREEN_RTOL margin."""
    return math.isfinite(v) and ub < v - SCREEN_RTOL * abs(v)


def _screened(k: int, ub: float, cert: float, level: float, vmax: float, lower, trunc: int) -> bool:
    """solve's screening rule at index k: the term under its upper bound ub
    cannot reach the running max vmax or lower(k+1) <= u_(k+1).

    cert = h_k(beta_k^k); level is h_k(beta_k^(k+1)) less SCREEN_RTOL
    relative, which the running max must exceed for solve to take a bound
    at k.  lower(k+1) is read only where index k+1 is due to be scanned and
    no bound is taken at k with the term or without it: k < trunc, and
    neither vmax nor ub exceeds level.  On a decreasing family u_(k+1) is
    at most h_k(beta_k^(k+1)), so the look-ahead cannot succeed above it.
    """
    if not (math.isfinite(ub) and ub <= cert):
        return False
    if _below(ub, vmax):
        return True
    return lower is not None and k < trunc and max(ub, vmax) <= level and _below(ub, lower(k + 1))


def argmax_bound(k: int, u_k: float, env: Envelope, fn: EnvelopeFn | None = None) -> UpperBoundValue:
    """Convert the term value u_k into an index bound through the envelope at k.

    ``fn`` is h_k when the caller has already built it; env.h(k) otherwise.

    Returns the infinite branch when u_k <= h_k(0) (the strict inequality
    is exact, no epsilon).  Raises :class:`EnvelopeViolation` when u_k
    exceeds h_k(beta_k^k) beyond a 1e-12 relative slack, or h_k(beta_k^k)
    is NaN; membership is assumed, not trusted.  A non-finite u_k, a
    beta_k outside (0, 1) or a NaN h_k^-1 raises :class:`PreconditionViolated`.
    """
    if not math.isfinite(u_k):
        raise PreconditionViolated(f"non-finite term at k={k}: u_k={u_k!r}")
    if fn is None:
        fn = env.h(k)
    b = env.beta(k)
    if not 0.0 < b < 1.0:
        raise PreconditionViolated(f"beta_k={b!r} at k={k} not in (0,1)")
    cert = fn.eval(b**k)
    if exceeds_certificate(u_k, cert):
        raise EnvelopeViolation(k, u_k, cert)
    if u_k <= fn.lo:
        return UpperBoundValue.infinite()
    y = min(u_k, fn.hi)
    x = fn.inverse(y)
    if math.isnan(x):
        # max(0.0, nan) below would be a bound of 0, ending the scan here.
        raise PreconditionViolated(f"h_k^-1({y!r}) at k={k} is nan")
    # Roundoff can put x just past either end of (0, 1]: a nonpositive x has
    # no log, and any x >= 1 is a bound of 0 (+0.0, never -0.0 from log(1)).
    if x <= 0.0:
        return UpperBoundValue.infinite()
    return UpperBoundValue.finite(max(0.0, math.log(x) / math.log(b)))


def truncation_from(k: int, source: TermSource, env: Envelope) -> int | None:
    """Floor of the index bound at k, or None on the infinite branch."""
    return argmax_bound(k, source.eval(k), env).floor()


def brute_force_peak(source: TermSource, n: int) -> tuple[float, int, int]:
    """Exhaustive max over u_0..u_n: (max, first argmax, last argmax); non-finite terms raise."""
    if n < 0:
        raise PreconditionViolated("prefix length must be >= 0")
    best = -math.inf
    first = last = 0
    for k in range(n + 1):
        u = source.eval(k)
        if not math.isfinite(u):
            raise PreconditionViolated(f"non-finite term at k={k}: u_k={u!r}")
        if u > best:
            best, first, last = u, k, k
        elif u == best:
            last = k
    return best, first, last


def solve(
    source: TermSource,
    env: Envelope,
    tie: Tie = Tie.MIN_ARGMAX,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
    on_step: Callable[[int, float | None, UpperBoundValue | None, int | None], None] | None = None,
) -> PeakSolution:
    """Compute sup u and a maximizer in finite time from a certified envelope.

    One pass in O(1) state: each term is evaluated at most once, and not at
    all when its upper bound cannot reach the running max or the next term.
    The scan below decreasing_from only compares terms.  From there on
    (h_k, beta_k) is read at every index up to constant_from and kept after
    it, and a beta_k outside (0, 1) raises where it is read.  Every
    evaluated term is checked against h_k(beta_k^k), and a NaN
    h_k(beta_k^k) fails the check.  Where the pair at k is the pair at
    k - 1 (the same h object and an equal beta, or any index past
    constant_from), h(beta^k) computed at k - 1 is the certificate at k,
    so the scan evaluates h_k once per index (``EnvelopeFn.eval`` is pure);
    :func:`argmax_bound` evaluates h_k(beta_k^k) once more wherever a bound
    is taken.  The index bound is taken at the running max vmax: every
    later maximizer j has u_j >= vmax, so j is bounded through h_k as well
    as through u_k, and tighter.  It is
    computed while no bound exists and then only where vmax exceeds
    h_k(beta_k^(k+1)) less SCREEN_RTOL relative: below that level the bound
    at vmax is at least k + 1, so these are the only indices where it can
    end the scan.  A constant family is a decreasing one and takes the same
    rule.

    A bound below k is clamped to k, whose prefix is already scanned, so
    ``truncation_index`` is at least the argmax and ``terms_evaluated`` is
    ``truncation_index + 1``.

    Screening, once a truncation bound exists: a term whose
    ``source.upper(k)`` is finite, at most at h_k(beta_k^k) and below
    v = max(vmax, lower(k+1)) by more than SCREEN_RTOL relative is skipped;
    a non-finite ``lower`` counts as absent.  Below vmax such a term can
    neither improve nor tie the max, nor move the bound.  Below lower(k+1),
    read only where index k+1 is due to be scanned and no bound is taken at
    k with the term or without it (see :func:`_screened`), the term lies
    under u_(k+1), so it is no maximizer either, and the running max is the
    same from k + 1 on.  So the result and every bound are the ones of the
    full scan, before the peak as after it.  Equal terms are always evaluated.

    The reported supremum and maximizer cover the whole scanned prefix
    u_0..u_K; a non-finite term raises :class:`PreconditionViolated`.
    ``terms_evaluated`` counts the indices scanned, K + 1, screened ones
    included.  ``on_step`` receives (k, u_k, bound, running K) once per
    scanned index; u_k is None where the term was screened, the bound None
    where no bound was computed and the infinite variant where it carries
    no information.  It only observes: traced or not, the scan evaluates
    the same terms, and (k, bound, K) is that of a source without bounds.
    """
    if not isinstance(tie, Tie):
        raise PreconditionViolated(f"tie must be a Tie member, got {tie!r}")
    m = env.mono.decreasing_from
    c = env.mono.constant_from
    max_tie = tie is Tie.MAX_ARGMAX
    upper, lower = source.upper, source.lower

    vmax = -math.inf
    first = last = 0
    for k in range(m):
        u_k = source.eval(k)
        if not math.isfinite(u_k):
            raise PreconditionViolated(f"non-finite term at k={k}: u_k={u_k!r}")
        if u_k > vmax:
            vmax, first, last = u_k, k, k
        elif u_k == vmax:
            last = k
        if on_step is not None:
            on_step(k, u_k, None, None)

    trunc: int | None = None
    fn = b = nxt = None
    k = m
    while trunc is None or k <= trunc:
        if trunc is None and k > m + scan_limit:
            raise NoUsefulIndex(
                f"no index in [{m}, {m + scan_limit}] has u_k > h_k(0); "
                "increase the scan limit only if the envelope is known useful"
            )
        if c is None or k <= c:
            h_k = env.h(k)
            beta_k = env.beta(k)
            if not 0.0 < beta_k < 1.0:
                raise PreconditionViolated(f"beta_k={beta_k!r} at k={k} not in (0,1)")
            if h_k is not fn or beta_k != b:
                fn, b = h_k, beta_k
                nxt = fn.eval(b**k)
        # nxt is h_k(beta_k^k): computed just above for a new pair, or at
        # k - 1 as h(beta^((k-1)+1)) for the same one.
        cert = nxt
        nxt = fn.eval(b ** (k + 1))
        level = nxt - SCREEN_RTOL * abs(nxt)
        if upper is not None and trunc is not None and _screened(
                k, upper(k), cert, level, vmax, lower, trunc):
            u_k = None
        else:
            u_k = source.eval(k)
            if not math.isfinite(u_k):
                raise PreconditionViolated(f"non-finite term at k={k}: u_k={u_k!r}")
            if not u_k <= cert and exceeds_certificate(u_k, cert):
                raise EnvelopeViolation(k, u_k, cert)
            if u_k > vmax:
                vmax, first, last = u_k, k, k
            elif u_k == vmax:
                last = k
        bound = None
        if trunc is None or vmax > level:
            # min: above h_k(beta_k^k) the bound is below k either way.
            bound = argmax_bound(k, min(vmax, cert), env, fn)
            step = bound.floor()
            if step is not None:
                if step < k:
                    step = k
                trunc = step if trunc is None else min(trunc, step)
        if on_step is not None:
            on_step(k, u_k, bound, trunc)
        k += 1

    return PeakSolution(
        sup_value=vmax,
        argmax_min=last if max_tie else first,
        truncation_index=trunc,
        terms_evaluated=k,
        argmax_max_requested=max_tie,
    )


@dataclass(frozen=True)
class EnvelopeFinding:
    """One inconsistency surfaced by :func:`validate_envelope`."""

    k: int
    kind: str
    detail: str


_SAMPLE_GRID = tuple(i / 16.0 for i in range(17))


def validate_envelope(source: TermSource, env: Envelope, horizon: int) -> list[EnvelopeFinding]:
    """Check envelope membership and monotonicity metadata on [0, horizon].

    One in-order pass over k = 0..horizon, for any horizon >= 0 (horizon 0
    checks index 0 alone, with no pair checks): u_k, h_k and beta_k are
    evaluated once per index, and from decreasing_from on h_k is sampled on
    the grid once per distinct function object (``EnvelopeFn.eval`` is
    pure, so a family that hands back the same object at every index is
    sampled once).  The grid checks compare an object's samples with
    themselves only where that can fail, i.e. where they hold a NaN.  A
    source with an ``upper`` or ``lower`` bound also has it checked against
    a finite u_k (kinds ``upper`` and ``lower``; a NaN bound fails, and so
    does a ``lower`` of +inf).  A non-finite u_k, or a NaN h_k(beta_k^k), is
    a ``membership`` finding.  Membership and both bounds are compared
    exactly before the roundoff slack.  A grid sample passes ``h-decrease``
    when it is at most its predecessor, exactly or within the slack, so
    equal infinities pass; it passes ``h-constant`` when it equals h_c's
    sample, or both are finite and within the slack, so an infinity on one
    side only fails.  A NaN sample fails both.  Returns every finding in
    index order (empty list when clean).  A clean result proves nothing
    beyond the horizon.
    """
    if horizon < 0:
        raise PreconditionViolated("horizon must be >= 0")
    findings: list[EnvelopeFinding] = []
    term, upper, lower = source.eval, source.upper, source.lower
    h, beta = env.h, env.beta
    m = env.mono.decreasing_from
    c = env.mono.constant_from
    # (beta, samples) of index k-1 when it is due a decrease check, and of c.
    prev = base = None
    # The function object sampled last, its grid samples and whether they
    # hold a NaN, the one sample that fails a comparison with itself.
    sampled = ys = None
    nan = False
    for k in range(horizon + 1):
        u_k = term(k)
        fn = h(k)
        b = beta(k)
        if k >= m and fn is not sampled:
            # A list: CPython parks up to 2000 freed 17-tuples built by
            # tuple(genexpr) on its free list, which tracemalloc counts as held.
            sampled, ys = fn, [fn.eval(x) for x in _SAMPLE_GRID]
            nan = any(map(math.isnan, ys))
        if k == c:
            base = (b, ys)
        if prev is not None:
            prev_b, prev_ys = prev
            if b > prev_b + 1e-12:
                findings.append(EnvelopeFinding(k, "beta-decrease", f"beta rises {prev_b!r} -> {b!r}"))
            # Exact first; the slack only decides samples that rose.
            if (ys is not prev_ys or nan) and not all(map(le, ys, prev_ys)):
                for x, lhs, rhs in zip(_SAMPLE_GRID, ys, prev_ys):
                    if not (lhs <= rhs or lhs <= rhs + MEMBERSHIP_RTOL * max(1.0, abs(rhs))):
                        findings.append(
                            EnvelopeFinding(k, "h-decrease", f"h_{k}({x}) = {lhs!r} > h_{k-1}({x}) = {rhs!r}")
                        )
                        break
        prev = None
        finite = math.isfinite(u_k)
        if upper is not None and finite:
            up = upper(k)
            if not u_k <= up and exceeds_certificate(u_k, up):
                findings.append(EnvelopeFinding(k, "upper", f"u_k={u_k!r} > upper(k)={up!r}"))
        if lower is not None and finite:
            lo = lower(k)
            # The slack scales with |lo|, so +inf would pass it.
            if not lo <= u_k and (lo == math.inf or exceeds_certificate(lo, u_k)):
                findings.append(EnvelopeFinding(k, "lower", f"u_k={u_k!r} < lower(k)={lo!r}"))
        if not 0.0 < b < 1.0:
            findings.append(EnvelopeFinding(k, "beta-range", f"beta_k={b!r} not in (0,1)"))
            continue
        cert = fn.eval(b**k)
        if not finite:
            findings.append(EnvelopeFinding(k, "membership", f"u_k={u_k!r} is not finite"))
        elif not u_k <= cert and exceeds_certificate(u_k, cert):
            findings.append(
                EnvelopeFinding(k, "membership", f"u_k={u_k!r} > h_k(beta_k^k)={cert!r}")
            )
        if k >= m:
            prev = (b, ys)
        if base is not None:
            base_b, base_ys = base
            if abs(b - base_b) > 1e-12:
                findings.append(
                    EnvelopeFinding(k, "beta-constant", f"beta_k={b!r} != beta_c={base_b!r}")
                )
            # operator.eq, not list ==: list equality calls a shared NaN equal.
            if (ys is not base_ys or nan) and not all(map(eq, ys, base_ys)):
                for x, lhs, rhs in zip(_SAMPLE_GRID, ys, base_ys):
                    if not (lhs == rhs or math.isfinite(rhs)
                            and abs(lhs - rhs) <= MEMBERSHIP_RTOL * max(1.0, abs(rhs))):
                        findings.append(
                            EnvelopeFinding(k, "h-constant", f"h_{k}({x}) = {lhs!r} != h_c({x}) = {rhs!r}")
                        )
                        break
    return findings
