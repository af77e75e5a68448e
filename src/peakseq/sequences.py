"""Ready-made adapters pairing classic sequences with certified envelopes.

Each adapter packages a pure term source together with the envelope(s) whose
certificates are known in closed form: the factorial ratio a^n/n!, the ratio
of consecutive terms of generalized Fibonacci sequences, logistic iterations
with r < 1, and the accelerated Syracuse iteration (terms only; the only
envelope statement available there is conjecture-equivalent, so it is
exposed as a finite-horizon checker).  Every bundled envelope is affine:
the factorial's tight family is an ``algebra.line_family``, and each
constant envelope is an ``AffineParams`` certificate's.  The recurrences
(factorial, Fibonacci, logistic, Syracuse) step their terms forward from the
last index asked for, so an in-order scan pays one step per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .algebra import AffineParams, line_family
from .core import (
    Envelope,
    PeakSolution,
    PeakseqError,
    PreconditionViolated,
    TermSource,
    Tie,
    _cursor,
    solve,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0

U128_MAX = 2**128 - 1


class UnsupportedParameter(PeakseqError):
    """The parameter regime has no useful envelope in this library."""


class _PowOverFactorial:
    """n -> base^n / n! correctly rounded, stepping the exact pair (base^k, k!).

    The pair steps forward from the last n asked for, or from k = 0 when n
    lies behind it, so an in-order scan pays one step per term.  It is taken
    out of its slot while it steps: a concurrent caller that finds none
    walks from 0.  Once den has 1077 bits more than num the term is below
    2^-1076, past the peak (every term up to n = base is at least 1), where
    the terms fall: that index is ``zero_from``, the pair is dropped, and a
    term from there on costs one compare and rounds to 0.0.  A slotted
    object and its bound ``term``, not a closure: both are smaller and the
    call is as fast.
    """

    __slots__ = ("base", "zero_from", "pair")

    def __init__(self, base: int):
        self.base = base
        self.zero_from = math.inf
        self.pair = None

    def term(self, n: int) -> float:
        if n >= self.zero_from:
            return 0.0
        pair, self.pair = self.pair, None
        k, num, den = pair if pair is not None and pair[0] <= n else (0, 1, 1)
        # No second pair is alive at once: the tuple goes before the walk,
        # and num is stepped (its old value freed) before den.
        del pair
        base = self.base
        while k < n:
            if den.bit_length() - num.bit_length() > 1076:
                self.zero_from = k
                return 0.0
            k += 1
            num *= base
            den *= k
        self.pair = (k, num, den)
        return num / den


class FactorialRatioAdapter:
    """The sequence u_n = a^n / n! for an integer a in [1, 712].

    ``seq_env`` is the tight family h_n(t) = t * (a+1)^n / n! with ratio
    a/(a+1), an equality envelope (u_n = h_n(beta^n) exactly) decreasing
    from index a.  ``const_env`` is g(t) = t * (a+1)^a with the same ratio:
    (a+1)^a is a! times the largest slope (a+1)^a / a!, trading tightness
    for a constant class.
    """

    def __init__(self, a: int):
        if not isinstance(a, int) or a < 1:
            raise PreconditionViolated("factorial ratio needs integer a >= 1")
        if a > 712:
            # The slope peaks at n = a and a + 1, near e^(a+1)/sqrt(2 pi (a+1)),
            # past the float range from a = 713 on; the terms from a = 714 on.
            raise OverflowError(
                f"a={a}: the sequence envelope's slope (a+1)^n/n! overflows a float, "
                "so the factorial ratio needs a <= 712"
            )
        self.a = a
        self.beta = a / (a + 1)
        self.source = TermSource(eval=_PowOverFactorial(a).term, description=f"a^n/n!, a={a}")
        self._slope = _PowOverFactorial(a + 1).term
        self.seq_env = line_family(self._slope, self.beta, a)

    @cached_property
    def const_env(self) -> Envelope:
        """Built on first use: (a+1)^a overflows a float from a = 143 on."""
        try:
            scale = float((self.a + 1) ** self.a)
        except OverflowError:
            raise OverflowError(
                f"a={self.a}: (a+1)^a overflows a float, so the constant envelope needs "
                "a <= 142; use the sequence envelope"
            ) from None
        return AffineParams(scale, self.beta, 0.0).constant_envelope()

    def envelope(self, name: str) -> Envelope:
        """``seq_env`` for "sequence", ``const_env`` for "constant"."""
        if name not in ("sequence", "constant"):
            raise PreconditionViolated(f"unknown envelope choice {name!r}")
        return self.seq_env if name == "sequence" else self.const_env


def factorial_solve(a: int, envelope: str = "sequence", tie: Tie = Tie.MIN_ARGMAX) -> PeakSolution:
    """Peak of a^n/n! via the tight family ("sequence") or the frozen one ("constant")."""
    adapter = FactorialRatioAdapter(a)
    return solve(adapter.source, adapter.envelope(envelope), tie=tie)


class FibonacciRatioAdapter:
    """Ratios w_n = u_{n+1}/u_n of the recurrence u_{n+2} = u_{n+1} + u_n.

    Terms come from exact integer arithmetic, with w_0 = 0 when u0 = 0.
    With psi = -1/phi, u_{n+1} - phi*u_n = psi^n * (u1 - phi*u0), so for
    u1 > u0*phi the ratios lie below phi at odd n and above it at even n.
    For u0 > 0, u_n - phi^n*u0 = (u1 - phi*u0) * (phi^n - psi^n) / sqrt(5)
    >= 0 bounds the excess at even n: w_n - phi <= (w_0 - phi) * phi^-2n,
    with equality at n = 0.  That is the affine certificate
    AffineParams(w_0 - phi, phi^-2, phi), whose constant envelope attains
    w_0 at index 0.  For u0 = 0 the ratios are those of (0, 1), u_n is
    u1 * F_n, and F_n >= phi^(n-2) gives the scale phi^2 instead, tight at
    n = 2 where w_2 = 2.  The scale must be positive in floats, so u0 > 0
    needs u1 / u0 > phi as computed; the bound as computed rounds an ulp or
    so off the exact one, which the ``MEMBERSHIP_RTOL`` slack absorbs.
    """

    def __init__(self, u0: int, u1: int):
        if u0 < 0 or u1 < 1:
            raise PreconditionViolated("need u0 >= 0 and u1 >= 1")
        if u0 > 0 and not u1 / u0 > PHI:
            raise PreconditionViolated(f"need u1/u0 > phi, got {u1 / u0!r} <= {PHI!r}")
        self.u0 = u0
        self.u1 = u1
        # n -> (u_n, u_{n+1}) in exact integers.
        self.term_pair = _cursor((u0, u1), lambda p: (p[1], p[0] + p[1]))
        scale = u1 / u0 - PHI if u0 > 0 else PHI * PHI
        self.env = AffineParams(scale, PHI**-2, PHI).constant_envelope()
        self.source = TermSource(eval=self.ratio, description=f"fibonacci ratio u0={u0} u1={u1}")

    def ratio(self, n: int) -> float:
        a, b = self.term_pair(n)
        return b / a if a else 0.0


def fibonacci_solve(u0: int, u1: int, tie: Tie = Tie.MIN_ARGMAX) -> PeakSolution:
    """Peak of the Fibonacci ratio sequence under its constant envelope."""
    adapter = FibonacciRatioAdapter(u0, u1)
    return solve(adapter.source, adapter.env, tie=tie)


class LogisticAdapter:
    """The logistic iteration y_{n+1} = r * y_n * (1 - y_n) for r in (0, 1).

    Since y_{n+1} <= r * y_n, the affine certificate AffineParams(y0, r, 0)
    gives y_n <= y0 * r^n; its constant envelope h(t) = y0 * t attains y0
    at index 0, so the peak sits there.  The source is the float
    recurrence, and it meets the bound as well: fl(fl(r*y) * fl(1-y)) <=
    r*y*(1-y)*(1+u)^3 with u = 2^-53, which is <= r*y once y is at least
    about 3u, so down to that level every iterate is at most the exact
    y0 * r^n.  The bound as computed, y0 * r**n in floats, may round an
    ulp or so below that exact value; every term is below 1, so the 1e-12
    absolute floor of ``MEMBERSHIP_RTOL`` absorbs that rounding at every
    level.  Below about 3u the iterate itself lies under that floor, which
    admits it under any bound, and fl(r*y) <= y, so it never climbs back
    out.  For r in [1, 4] the only ready-made bound is constant above the
    whole sequence and carries no index information, hence that regime is
    rejected.
    """

    def __init__(self, r: float, y0: float):
        if 1.0 <= r <= 4.0:
            raise UnsupportedParameter(
                f"r={r!r}: no useful envelope is available for r in [1, 4]"
            )
        if not 0.0 < r < 1.0:
            raise PreconditionViolated("need r in (0, 1)")
        if not 0.0 < y0 < 1.0:
            raise PreconditionViolated("need y0 in (0, 1)")
        self.r = r
        self.y0 = y0
        self.term = _cursor(y0, lambda y: r * y * (1.0 - y))
        self.source = TermSource(eval=self.term, description=f"logistic r={r} y0={y0}")
        self.env = AffineParams(y0, r, 0.0).constant_envelope()


def logistic_solve(r: float, y0: float, tie: Tie = Tie.MIN_ARGMAX) -> PeakSolution:
    """Peak of the logistic iteration: (y0, 0), certified after one term."""
    adapter = LogisticAdapter(r, y0)
    return solve(adapter.source, adapter.env, tie=tie)


class SyracuseAdapter:
    """Accelerated Syracuse iteration: y/2 on even terms, (3y+1)/2 on odd.

    Terms are exact unsigned integers, and ``source`` passes them on as
    such.  A computed term past 128 bits is
    reported as overflow rather than silently carried (trajectories stay
    tiny in practice, the cap mirrors a fixed-width implementation
    contract); the start n0 itself is taken as given, whatever its size.
    """

    def __init__(self, n0: int):
        if n0 < 1:
            raise PreconditionViolated("need a starting integer N0 >= 1")
        self.n0 = n0
        # Looked up at every step, so a wrapper installed on `step` sees each one.
        self.term = _cursor(n0, lambda y: self.step(y))
        self.source = TermSource(eval=self.term, description=f"syracuse N0={n0}")

    @staticmethod
    def step(y: int) -> int:
        nxt = y // 2 if y % 2 == 0 else (3 * y + 1) // 2
        if nxt > U128_MAX:
            raise OverflowError(f"syracuse term exceeds 128-bit range: {nxt}")
        return nxt


def syracuse_excursion(n0: int, max_steps: int = 1_000_000) -> tuple[int, int, bool]:
    """Largest term of the Syracuse trajectory from n0 and its first index.

    Looks at y_0 .. y_max_steps and stops early at the value 1 (after which
    the trajectory is the fixed {1, 2} cycle, accounted for in the maximum).
    Returns (max, first argmax, reached_cycle).
    """
    if max_steps < 0:
        raise PreconditionViolated("max_steps must be >= 0")
    adapter = SyracuseAdapter(n0)
    y = adapter.n0
    best, arg = y, 0
    for k in range(1, max_steps + 1):
        if y == 1:
            break
        y = adapter.step(y)
        if y > best:
            best, arg = y, k
    if y == 1 and best < 2:
        # Only n0 = 1: the continuation 1 -> 2 -> 1 -> ... contributes a 2.
        return 2, 1, True
    return best, arg, y == 1


@dataclass(frozen=True)
class CollatzCheck:
    """Outcome of a finite-horizon geometric-bound check on a trajectory."""

    consistent: bool
    violated_at: int | None = None


def collatz_envelope_check(
    n0: int, a: float, b: float, c: float, horizon: int
) -> CollatzCheck:
    """Check y_n <= a*b^n + c for the Syracuse trajectory up to a horizon.

    A bound of this shape with c in (4, 5] holding for every n is
    equivalent to the trajectory reaching the terminal cycle; this checker
    only falsifies on [0, horizon], a Consistent outcome proves nothing
    beyond it.
    """
    if not math.isfinite(a):
        raise PreconditionViolated(f"need a finite a, got a={a!r}")
    if a < 0.0:
        raise PreconditionViolated("need a >= 0")
    if not 0.0 < b < 1.0:
        raise PreconditionViolated("need b in (0, 1)")
    if not 4.0 < c <= 5.0:
        raise PreconditionViolated("need c in (4, 5]")
    if horizon < 0:
        raise PreconditionViolated("horizon must be >= 0")
    adapter = SyracuseAdapter(n0)
    y = adapter.n0
    for n in range(horizon + 1):
        if y > a * b**n + c:
            return CollatzCheck(consistent=False, violated_at=n)
        if n < horizon:
            y = adapter.step(y)
    return CollatzCheck(consistent=True)
