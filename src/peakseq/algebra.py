"""Constructors and combinators for certified envelopes.

Affine envelope functions, numeric inversion of forward-only monotone
functions, pointwise minima of envelope families with correct inverses,
promotion of eventually-decreasing families to fully decreasing ones, and
the optimal affine certificate that witnesses tightness of the index bound
at the last maximizer.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

from .core import (
    Envelope,
    EnvelopeFn,
    Monotonicity,
    PeakseqError,
    PreconditionViolated,
    TermSource,
    exceeds_certificate,
)

_BITS, _FLOAT = struct.Struct("<q"), struct.Struct("<d")

class OutOfRange(PeakseqError):
    """A value to invert lies outside the function's range on [0, 1]."""


class EmptyFamily(PeakseqError):
    """A family combinator received no envelopes."""


class InvalidBracket(PeakseqError):
    """Certificate inputs are inconsistent with the claimed maximizer."""


def affine_fn(a: float, c: float) -> EnvelopeFn:
    """The envelope function x -> a*x + c on [0, 1] with its exact inverse.

    a must be positive and finite and c finite: with a = inf every inverse
    is 0 and every index bound infinite, so a scan would run to its limit.
    """
    if not 0.0 < a < math.inf:
        raise PreconditionViolated(f"affine scale must be positive and finite, got {a!r}")
    if c == 0.0 and type(a) is float:
        # x -> a*x through the float's own methods, without two closures:
        # a line_family makes one of these for every index it scans.
        return EnvelopeFn(a.__mul__, a.__rtruediv__, 0.0, a, a)
    if not math.isfinite(c):
        raise PreconditionViolated(f"affine offset must be finite, got {c!r}")
    return EnvelopeFn(
        eval=lambda x: a * x + c,
        inverse=lambda y: (y - c) / a,
        lo=c,
        hi=a + c,
    )


def line_family(slope, beta: float, decreasing_from: int = 0) -> Envelope:
    """h_k(t) = slope(k) * t with ratio beta, decreasing from ``decreasing_from``.

    A slope of exactly 0.0 (an underflowed scale) becomes the least subnormal,
    so h_k stays strictly increasing; a negative, NaN or infinite one raises
    :class:`PreconditionViolated` in :func:`affine_fn`."""
    return Envelope(
        h=lambda k: affine_fn(slope(k) or math.ulp(0.0), 0.0),
        beta=lambda k: beta,
        mono=Monotonicity(decreasing_from),
    )


def invert_numeric(f, y: float) -> float:
    """Invert a strictly increasing f: [0, 1] -> R at y by bisection.

    Monotonicity is the only structure assumed, so bisection rather than a
    derivative method.  Non-negative floats sort as their int64 bit patterns
    do, so halving the patterns of [0, 1] ends at adjacent floats lo < hi
    with f(lo) < y <= f(hi) in at most 62 halvings.  lo lies below the
    exact inverse, so an index bound log(lo) / log(beta) errs on the safe side.
    NaN and values outside [f(0), f(1)] beyond a 1e-12 slack raise
    :class:`OutOfRange`; within the slack they clamp.
    """
    f0 = f(0.0)
    f1 = f(1.0)
    slack = 1e-12 * max(1.0, abs(f0), abs(f1) if math.isfinite(f1) else 0.0)
    if not y >= f0 - slack or (math.isfinite(f1) and y > f1 + slack):
        raise OutOfRange(f"{y!r} outside [{f0!r}, {f1!r}]")
    if y <= f0:
        return 0.0
    if y >= f1:
        return 1.0
    lo, hi = 0, _BITS.unpack(_FLOAT.pack(1.0))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(_FLOAT.unpack(_BITS.pack(mid))[0]) < y:
            lo = mid
        else:
            hi = mid
    return _FLOAT.unpack(_BITS.pack(lo))[0]


def envelope_fn_from_forward(f) -> EnvelopeFn:
    """Wrap a forward-only strictly increasing function with a bisection inverse."""
    return EnvelopeFn(
        eval=f,
        inverse=lambda y: invert_numeric(f, y),
        lo=f(0.0),
        hi=f(1.0),
    )


def _min_fn(fns: list[EnvelopeFn]) -> EnvelopeFn:
    """Pointwise min of fns, inverted as the max of the branch inverses.

    When every branch is a line through 0 (``slope`` set), the min is the
    flattest branch itself, bit for bit: for x >= 0 and finite slopes
    a > 0, fl(a*x) does not decrease as a grows and fl(y/a) for y >= 0
    does not increase, so eval on [0, 1], inverse on [lo, hi], lo and hi
    all agree with the general combinator below.
    """
    slopes = [fn.slope for fn in fns]
    if None not in slopes:
        return fns[slopes.index(min(slopes))]
    evals = tuple(fn.eval for fn in fns)

    def forward(x: float) -> float:
        return min([f(x) for f in evals])

    def inverse(y: float) -> float:
        # Only functions whose range reaches down to y may be inverted;
        # the min's inverse is the max of those inverses.
        xs = [min(fn.inverse(y), 1.0) for fn in fns if fn.lo <= y]
        if not xs:
            raise OutOfRange(f"{y!r} below every branch of the pointwise min")
        # max skips a NaN that is not its first item, dropping that branch.
        return math.nan if any(map(math.isnan, xs)) else max(xs)

    return EnvelopeFn(
        eval=forward,
        inverse=inverse,
        lo=min(fn.lo for fn in fns),
        hi=min(fn.hi for fn in fns),
    )


def _max_fn(fns: list[EnvelopeFn]) -> EnvelopeFn:
    """Pointwise max of fns, inverted as the min of the branch inverses.

    When every branch is a line through 0, the max is the steepest branch
    itself, bit for bit, by the monotonicity argument of :func:`_min_fn`.
    """
    slopes = [fn.slope for fn in fns]
    if None not in slopes:
        return fns[slopes.index(max(slopes))]
    evals = tuple(fn.eval for fn in fns)

    def forward(x: float) -> float:
        return max([f(x) for f in evals])

    def inverse(y: float) -> float:
        xs = [max(fn.inverse(y), 0.0) for fn in fns if y <= fn.hi]
        if not xs:
            raise OutOfRange(f"{y!r} above every branch of the pointwise max")
        return math.nan if any(map(math.isnan, xs)) else min(xs)

    return EnvelopeFn(
        eval=forward,
        inverse=inverse,
        lo=max(fn.lo for fn in fns),
        hi=max(fn.hi for fn in fns),
    )


def env_min(envs: list[Envelope]) -> Envelope:
    """Pointwise minimum of finitely many envelopes over a shared index domain.

    The combined family keeps h_k = min_i h_(i),k with the inverse taken as
    the max over branches defined at the queried value, and beta_k =
    max_i beta_(i),k, which stays valid for every branch simultaneously.
    The result decreases from the largest of the inputs' decreasing-from
    indices; it is constant-from only when every input is.  Where every
    h_(i),k is a line through 0 (as ``affine_fn(a, 0.0)`` builds it), h_k
    is the flattest of them, at O(1) cost per evaluation and inverse.
    """
    if not envs:
        raise EmptyFamily("env_min of an empty family")
    if len(envs) == 1:
        return envs[0]
    m = max(e.mono.decreasing_from for e in envs)
    cs = [e.mono.constant_from for e in envs]
    c = max(cs) if all(ci is not None for ci in cs) else None
    return Envelope(
        h=lambda k: _min_fn([e.h(k) for e in envs]),
        beta=lambda k: max(e.beta(k) for e in envs),
        mono=Monotonicity(m, c),
    )


def promote_to_decreasing(env: Envelope) -> Envelope:
    """Turn an eventually decreasing envelope into a fully decreasing one.

    Indices up to decreasing_from are replaced by the pointwise max of the
    prefix functions (inverse: min over branches whose range reaches the
    value) and the max of the prefix ratios; later indices are unchanged.
    Usefulness is preserved; the index bound can only grow on the replaced
    prefix.  Where every prefix function is a line through 0 (the factorial
    ``seq_env``, or an :func:`env_min` of such families), the prefix is the
    steepest of them, so it costs O(1) per evaluation and inverse.
    """
    m = env.mono.decreasing_from
    if m == 0:
        return env
    prefix_fns = [env.h(i) for i in range(m + 1)]
    prefix_fn = _max_fn(prefix_fns)
    prefix_beta = max(env.beta(i) for i in range(m + 1))
    c = env.mono.constant_from
    if c is not None and c <= m:
        # The original is already constant somewhere inside the replaced
        # prefix; the promoted family is constant once the prefix ends.
        c = m + 1
    return Envelope(
        h=lambda k: prefix_fn if k <= m else env.h(k),
        beta=lambda k: prefix_beta if k <= m else env.beta(k),
        mono=Monotonicity(0, c),
    )


@dataclass(frozen=True)
class AffineParams:
    """Parameters of an affine certificate u_k <= a*b^k + c: a positive and
    finite, b in (0, 1), c finite."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        # An infinite a bounds nothing.
        if not 0.0 < self.a < math.inf:
            raise PreconditionViolated(f"certificate scale a must be positive and finite, got {self.a!r}")
        if not 0.0 < self.b < 1.0:
            raise PreconditionViolated("certificate ratio b must lie in (0,1)")
        if not math.isfinite(self.c):
            raise PreconditionViolated(f"certificate offset c must be finite, got {self.c!r}")

    def bound_at(self, k: int) -> float:
        return self.a * self.b**k + self.c

    def constant_envelope(self) -> Envelope:
        """The constant envelope (x -> a*x + c, beta = b) induced by the certificate."""
        fn = affine_fn(self.a, self.c)
        return Envelope(h=lambda k: fn, beta=lambda k: self.b, mono=Monotonicity(constant_from=0))


def optimal_affine_certificate(
    source: TermSource, k_s: int, c: float, n_c: int
) -> AffineParams:
    """Fit the affine certificate that is tight at the last maximizer k_s.

    The caller certifies: k_s is the last maximizer, c lies strictly
    between the limsup and the sup of the sequence, and u_k <= c for all
    k >= n_c with n_c > k_s.  The slope of the steepest secant from
    (k_s, u_{k_s}) over (k_s, n_c] fixes the ratio b and scale a so that
    the bound touches the sequence exactly at k_s; the touching makes the
    index bound evaluate to k_s there.  The finished certificate is
    checked directly on [0, n_c]; each of u_0..u_{n_c} is evaluated once.
    """
    if not 0 <= k_s < n_c:
        raise PreconditionViolated("need 0 <= k_s < n_c")
    us = [source.eval(k) for k in range(n_c + 1)]
    u_star = us[k_s]
    if c >= u_star:
        raise InvalidBracket(f"c={c!r} must lie strictly below u_[k_s]={u_star!r}")
    gamma = max((u_star - us[k]) / (k_s - k) for k in range(k_s + 1, n_c + 1))
    if gamma >= 0.0:
        raise InvalidBracket(
            "a later term matches the claimed maximum; k_s is not the last maximizer"
        )
    b = math.exp(gamma / (u_star - c))
    log_growth = -k_s * gamma / (u_star - c)
    try:
        a = (u_star - c) * math.exp(log_growth)
    except OverflowError:  # a may still fit: take it from its log, or inf (rejected) past the range
        log_a = math.log(u_star - c) + log_growth
        a = math.exp(log_a) if log_a <= math.log(sys.float_info.max) else math.inf
    params = AffineParams(a=a, b=b, c=c)
    for k, u_k in enumerate(us):
        if exceeds_certificate(u_k, params.bound_at(k)):
            raise InvalidBracket(
                f"certificate fails the direct check at k={k}: "
                f"u_k={u_k!r} > {params.bound_at(k)!r}"
            )
    return params

