"""Peak of the squared spectral norms of matrix powers via quadratic certificates.

For a stable d x d matrix A, any symmetric P with P > 0 and P - A^T P A > 0
certifies the constant envelope

    ||A^k||_2^2  <=  (lmax(P)/lmin(P)) * (||A||_P^2)^k,

where ||A||_P is the operator norm induced by x -> sqrt(x^T P x) and is
strictly below 1.  That envelope feeds the core solver, which turns the
transient-growth question max_k ||A^k||_2^2 into a finite scan.
:class:`LinearSystem` checks the certificate in one pass, and re-anchored at
the current power it gives a decreasing family that follows the actual decay
of A^k, so the scan stops sooner.

The module carries its own small dense kernel (multiplication, Cholesky,
cyclic Jacobi eigenvalues) sized for the d <= ~50 matrices this problem
meets.  Every matrix product runs one unrolled row-product kernel,
compiled once per d on first use, with the right factor's entries bound
once.  Every sum, in a product or not, adds left to right from 0.0, so
any A gives the same bits on every supported Python.  The benchmark
family lambda*Id + U (single 1 in the top-right corner) has closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from operator import mul

from .core import (
    Envelope,
    PeakseqError,
    PreconditionViolated,
    TermSource,
    Tie,
    _cursor,
    argmax_bound,
    solve,
    truncation_from,
)
from .algebra import AffineParams, line_family

JACOBI_SWEEPS = 60
OFF_DIAG_TARGET = 1e-13
SYMMETRY_RTOL = 1e-10
PIVOT_RTOL = 1e-12


class NotSymmetric(PeakseqError):
    """A symmetric-only operation received an asymmetric matrix."""


class NotPositiveDefinite(PeakseqError):
    """Cholesky failed: the matrix is not positive definite."""


class NotLyapunov(PeakseqError):
    """P does not certify stability: P > 0 and P - A^T P A > 0 must both hold."""


class QTooSmall(PeakseqError):
    """The diagonal certificate needs q strictly above (1 - lambda^2)^-2."""


@dataclass(frozen=True)
class Matrix:
    """A dense d x d real matrix, row-major, immutable."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.rows)
        if d < 1 or any(len(r) != d for r in self.rows):
            raise PreconditionViolated("matrix must be square with d >= 1")
        if any(not math.isfinite(x) for r in self.rows for x in r):
            raise PreconditionViolated("matrix entries must be finite")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        return cls(tuple(tuple(float(x) for x in r) for r in rows))

    @classmethod
    def identity(cls, d: int) -> "Matrix":
        return cls.from_rows([[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)])

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        vals = [float(v) for v in values]
        d = len(vals)
        return cls.from_rows([[vals[i] if i == j else 0.0 for j in range(d)] for i in range(d)])


@cache
def _kernel(d: int):
    """The unrolled d x d row product, compiled once per d.

    It returns ``bind``: ``bind(b_rows)`` takes B's d^2 entries once, as
    default arguments (fast locals), and returns ``times_b``, which maps the
    d row tuples of M to those of M B.  Entry (i, j) is written out as

        0.0 + m_i0*b_0j + m_i1*b_1j + ... + m_i(d-1)*b_(d-1)j,

    added left to right, so its d products are rounded and summed in index
    order from 0.0, the order of every sum in this module.  A product that
    overflows gives inf, and inf * 0.0 gives nan; nothing raises here.
    Only the loop over M's rows is not unrolled, so the source has d^2
    products and compiles in time and memory of that order.
    """
    b = [[f"b{i}_{j}" for j in range(d)] for i in range(d)]
    x = [f"x{k}" for k in range(d)]
    entries = (" + ".join(["0.0"] + [f"{x[k]}*{b[k][j]}" for k in range(d)]) for j in range(d))
    source = "\n".join([
        "def bind(b):",
        f"    {', '.join('(' + ', '.join(r) + ',)' for r in b)}, = b",
        f"    def times_b(m, {', '.join(f'{n}={n}' for r in b for n in r)}):",
        "        out = []",
        f"        for {', '.join(x)}, in m:",
        f"            out.append(({', '.join(entries)},))",
        "        return tuple(out)",
        "    return times_b",
    ])
    namespace: dict = {}
    exec(compile(source, f"<linsys product kernel, d={d}>", "exec"), namespace)
    return namespace["bind"]


def _times(b_rows):
    """M -> M B for row tuples, with B's entries bound once into the kernel
    of its size; bind a factor that multiplies many matrices once."""
    return _kernel(len(b_rows))(b_rows)


def _product(a_rows, times_b) -> tuple[tuple[float, ...], ...]:
    """The row tuples of A B, for A's rows and ``times_b = _times(B's rows)``:
    the one entry point of every product in this module."""
    return times_b(a_rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if b.dim != a.dim:
        raise PreconditionViolated("dimension mismatch")
    return Matrix(_product(a.rows, _times(b.rows)))


def mat_pow(a: Matrix, k: int) -> Matrix:
    """A^k by binary exponentiation.  An overflow in a square that feeds A^k
    leaves a non-finite entry, which the check of the returned matrix catches."""
    if k < 0:
        raise PreconditionViolated("power must be >= 0")
    result = Matrix.identity(a.dim).rows
    base = a.rows
    while k:
        times_base = _times(base)
        if k & 1:
            result = _product(result, times_base)
        k >>= 1
        if k:
            base = _product(base, times_base)
    return Matrix(result)


def _fold(terms) -> float:
    """The terms added left to right from 0.0, the order of the product kernel."""
    acc = 0.0
    for x in terms:
        acc += x
    return acc


def _symmetrize(rows) -> Matrix:
    d = len(rows)
    return Matrix(
        tuple(tuple(0.5 * (rows[i][j] + rows[j][i]) for j in range(d)) for i in range(d))
    )


def sym_eig_bounds(m: Matrix) -> tuple[float, float]:
    """Extreme eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every off-diagonal pair until the off-diagonal Frobenius
    norm drops below 1e-13 times the matrix norm.
    """
    d = m.dim
    scale = max(abs(x) for r in m.rows for x in r)
    tol = SYMMETRY_RTOL * max(1.0, scale)
    for i in range(d):
        for j in range(i + 1, d):
            if abs(m.rows[i][j] - m.rows[j][i]) > tol:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ beyond {tol!r}")
    return _jacobi([list(r) for r in m.rows])


def _jacobi(a: list[list[float]]) -> tuple[float, float]:
    """The rotation loop of sym_eig_bounds on a finite symmetric list of
    lists, which it overwrites."""
    d = len(a)
    frob = math.sqrt(_fold(x * x for r in a for x in r))
    target = OFF_DIAG_TARGET * max(frob, 1e-300)
    for _ in range(JACOBI_SWEEPS):
        off = math.sqrt(_fold(a[i][j] ** 2 for i in range(d) for j in range(d) if i != j))
        if off <= target:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                diff = a[q][q] - a[p][p]
                if abs(apq) * 1e15 < abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for i in range(d):
                    if i == p or i == q:
                        continue
                    aip, aiq = a[i][p], a[i][q]
                    a[i][p] = a[p][i] = aip - s * (aiq + tau * aip)
                    a[i][q] = a[q][i] = aiq + s * (aip - tau * aiq)
    eigs = [a[i][i] for i in range(d)]
    return min(eigs), max(eigs)


def cholesky_lower(m: Matrix) -> list[list[float]] | None:
    """Lower Cholesky factor of m, or None when pivot i falls to
    PIVOT_RTOL * |m_ii| or below (the numerical cutoff standing in for
    strict positivity, relative to the scale the pivot's entry was formed at)."""
    return _cholesky(m.rows, [abs(m.rows[i][i]) for i in range(m.dim)])


def _cholesky(rows, scales) -> list[list[float]] | None:
    """Lower Cholesky factor of the symmetric row tuples, or None when pivot
    i falls to PIVOT_RTOL * scales[i] or below."""
    d = len(rows)
    lower = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1):
            acc = rows[i][j] - _fold(lower[i][t] * lower[j][t] for t in range(j))
            if i == j:
                if acc <= PIVOT_RTOL * scales[i]:
                    return None
                lower[i][j] = math.sqrt(acc)
            else:
                lower[i][j] = acc / lower[j][j]
    return lower


def _congruence(a: Matrix, p: Matrix, rejection: PeakseqError):
    """(L, A^T P A) with P = L L^T, the step op_norm_sq and LinearSystem share;
    raises ``rejection`` when P is not positive definite, before A^T P A is formed."""
    if a.dim != p.dim:
        raise PreconditionViolated("dimension mismatch")
    lower = cholesky_lower(p)
    if lower is None:
        raise rejection
    return lower, _product(zip(*a.rows), _times(_product(p.rows, _times(a.rows))))


def _whitened_top(lower: list[list[float]], m) -> float:
    """Largest eigenvalue of L^-1 M L^-T: forward substitution solves
    L X = M, then L Y = X^T, and Y is symmetrised."""
    d = len(m)
    for _ in range(2):
        x = [[0.0] * d for _ in range(d)]
        for col in range(d):
            for i in range(d):
                acc = m[i][col] - _fold(lower[i][t] * x[t][col] for t in range(i))
                x[i][col] = acc / lower[i][i]
        m = list(zip(*x))
    return sym_eig_bounds(_symmetrize(x))[1]


def op_norm_sq(a: Matrix, p: Matrix) -> float:
    """Squared operator norm of A under the quadratic norm of P > 0, for A
    and P of the same size: the largest eigenvalue of L^-1 (A^T P A) L^-T
    with P = L L^T, which whitens the generalized eigenproblem."""
    return _whitened_top(*_congruence(a, p, NotPositiveDefinite("P must be positive definite")))


def _norm_sq(rows) -> float:
    """||M||_2^2 of row tuples M as the top eigenvalue of the Gram M^T M.

    The Gram is the kernel product of M's columns with M: entry (j, i) adds
    the same products in the same order as (i, j), so it is exactly
    symmetric and goes straight to the rotation loop once checked finite.
    """
    gram = [list(r) for r in _product(tuple(zip(*rows)), _times(rows))]
    for r in gram:
        if not all(map(math.isfinite, r)):
            raise PreconditionViolated("matrix entries must be finite")
    return _jacobi(gram)[1]


def spectral_norm_sq_power(a: Matrix, k: int) -> float:
    """||A^k||_2^2 as the top eigenvalue of (A^k)^T A^k; 1 at k = 0."""
    return _norm_sq(mat_pow(a, k).rows)


def _row_norms(rows) -> tuple[float, ...]:
    """Squared Euclidean norms of the rows, each added left to right from 0.0."""
    norms = []
    for r in rows:
        acc = 0.0
        for x in r:
            acc += x * x
        norms.append(acc)
    return tuple(norms)


def envelope_from_certificate(a: Matrix, p: Matrix) -> Envelope:
    """``LinearSystem(a, p).const_env``: t -> slope * t with ratio ||A||_P^2.
    It vanishes at 0 while every squared norm is positive, so every index
    carries bound information."""
    return LinearSystem(a, p).const_env


def _anchor(p: Matrix, lmin: float):
    """(A^k, its squared row norms) -> w_k = tr((A^k)^T P A^k) / lmin(P).

    For a diagonal P that is the row norms weighted by P_ii / lmin(P), d
    multiplies; otherwise sum_ij (A^k)_ij (P A^k)_ij, one more row product.
    """
    d = p.dim
    if all(p.rows[i][j] == 0.0 for i in range(d) for j in range(d) if i != j):
        weights = tuple(p.rows[i][i] / lmin for i in range(d))

        def weighted(power, norms, acc=0.0):
            for w, n in zip(weights, norms):
                acc += w * n
            return acc
        return weighted
    return lambda power, norms: _fold(
        _fold(map(mul, r, s)) for r, s in zip(power, _product(p.rows, _times(power)))
    ) / lmin


class LinearSystem:
    """||A^k||_2^2 for a stable A with its certificate P, checked once.

    The constructor is the one certificate check.  From one factor
    P = L L^T and one A^T P A it raises :class:`NotLyapunov` unless P > 0,
    P - A^T P A > 0 (by Cholesky) and beta = ||A||_P^2, the top eigenvalue
    of L^-1 (A^T P A) L^-T, lies in (0, 1); A and P of different sizes
    raise :class:`PreconditionViolated`.  A pivot of the residual is
    compared with P_ii + (A^T P A)_ii, the scale its diagonal entry was
    formed at, not with P's largest entry.  It keeps ``p``, P's
    extreme eigenvalues ``lambda_min`` and ``lambda_max``, ``beta`` and
    ``slope`` = lambda_max / lambda_min.  ``source`` is the generic term
    source with the screening bounds ``upper`` = ||A^k||_F^2 and ``lower``
    = the largest squared row norm.  ``const_env`` is the constant envelope
    (t -> slope * t, ratio beta), and ``env`` the re-anchored one:

        h_k(t) = (w_k / beta^k) * t,  w_k = tr((A^k)^T P A^k) / lmin(P),

    with beta_k = beta (``algebra.line_family``): ||A^k||_2^2 <= w_k, and
    A^T P A <= beta P gives w_{k+1} <= beta * w_k.
    :func:`solve` takes its bound at the running max vmax, here
    k + log(vmax / w_k) / log(beta), only where beta * w_k < vmax.

    One power cursor, built on first use, serves ``source`` and ``env``.
    Each step forms A^k, its squared row norms (``upper`` sums them,
    ``lower`` takes their max; for a diagonal P, w_k weighs them by
    P_ii / lmin(P)) and the log of the scale, min(log s_(k-1),
    log w_k - k log beta): a running minimum in logs, so the scale stays
    finite past the underflow of beta^k, never grows with k, and keeps its
    last value once A^k is exactly zero.  The bits of u_k are pinned
    against ``tests/helpers.reference_power_norms``.
    """

    def __init__(self, a: Matrix, p: Matrix):
        rejection = NotLyapunov("P fails P > 0 or P - A^T P A > 0")
        lower, m = _congruence(a, p, rejection)
        residual = [[x - y for x, y in zip(rp, rm)] for rp, rm in zip(p.rows, m)]
        scales = [abs(p.rows[i][i]) + abs(m[i][i]) for i in range(a.dim)]
        if _cholesky(_symmetrize(residual).rows, scales) is None:
            raise rejection
        self.a, self.p = a, p
        self.lambda_min, self.lambda_max = sym_eig_bounds(p)
        self.beta = _whitened_top(lower, m)
        if not 0.0 < self.beta < 1.0:
            raise NotLyapunov(f"certified contraction ratio {self.beta!r} not in (0,1)")
        self.slope = self.lambda_max / self.lambda_min
        self.const_env = AffineParams(self.slope, self.beta, 0.0).constant_envelope()

    @cached_property
    def _state(self):
        """The power cursor: k -> (k, A^k, its squared row norms, log scale).

        Built on first use, so a caller of ``const_env`` alone holds none of it.
        """
        times_a, log_beta = _times(self.a.rows), math.log(self.beta)
        anchor = _anchor(self.p, self.lambda_min)

        def at(k: int, power, log_scale: float):
            norms = _row_norms(power)
            w = anchor(power, norms)
            if 0.0 < w < math.inf:
                log_scale = min(log_scale, math.log(w) - k * log_beta)
            return k, power, norms, log_scale

        return _cursor(
            at(0, Matrix.identity(self.a.dim).rows, math.inf),
            lambda s: at(s[0] + 1, _product(s[1], times_a), s[3]),
        )

    @cached_property
    def source(self) -> TermSource:
        state = self._state
        return TermSource(
            eval=lambda k: _norm_sq(state(k)[1]) if k else 1.0,
            upper=lambda k: _fold(state(k)[2]) if k else 1.0,
            lower=lambda k: max(state(k)[2]) if k else 1.0,
        )

    @cached_property
    def env(self) -> Envelope:
        state = self._state
        return line_family(lambda k: math.exp(state(k)[3]), self.beta)


# --- the lambda*Id + U benchmark family ---------------------------------


def a_lambda(lam: float, d: int = 2) -> Matrix:
    """lambda on the diagonal plus a single 1 in the top-right corner."""
    if not abs(lam) < 1.0:
        raise PreconditionViolated("need |lambda| < 1")
    if d < 2:
        raise PreconditionViolated("need dimension >= 2")
    rows = [[lam if i == j else 0.0 for j in range(d)] for i in range(d)]
    rows[0][d - 1] = 1.0
    return Matrix.from_rows(rows)


def q_threshold(lam: float) -> float:
    return (1.0 - lam * lam) ** -2


def p_q(lam: float, d: int = 2, q: float | None = None) -> Matrix:
    """Diag(1, ..., 1, q); valid iff q is finite and q > (1 - lambda^2)^-2 (default: twice that)."""
    if q is None:
        q = 2.0 * q_threshold(lam)
    if not math.isfinite(q):
        raise PreconditionViolated(f"q={q!r} must be finite")
    if q <= q_threshold(lam):
        raise QTooSmall(f"q={q!r} must exceed {q_threshold(lam)!r}")
    return Matrix.diagonal([1.0] * (d - 1) + [q])


def a_lambda_norm_sq_closed(lam: float, k: int) -> float:
    """Closed form of ||(lambda*Id + U)^k||_2^2, independent of the dimension."""
    return a_lambda_source(lam).eval(k)


def a_lambda_op_norm_sq_closed(lam: float, q: float) -> float:
    """Closed form of ||lambda*Id + U||_{P_q}^2."""
    return (1.0 + 2.0 * q * lam * lam + math.sqrt(1.0 + 4.0 * lam * lam * q)) / (2.0 * q)


def a_lambda_source(lam: float, d: int = 2, generic: bool = False) -> TermSource:
    """Squared power norms of the benchmark matrix, random access with no bounds: the
    closed form, or with ``generic`` :func:`spectral_norm_sq_power`; scans use :func:`a_lambda_problem`."""
    if generic:
        return TermSource(partial(spectral_norm_sq_power, a_lambda(lam, d)))
    # lambda^2 and 4 lambda^2 formed once, in the order of the formula.
    lam_sq, lam_sq4, sqrt = lam * lam, 4.0 * lam * lam, math.sqrt

    def closed(k: int) -> float:
        if k == 0:
            return 1.0
        return lam ** (2 * k - 2) * (lam_sq + 0.5 * k * k + 0.5 * k * sqrt(lam_sq4 + k * k))
    return TermSource(closed)


def a_lambda_problem(lam: float, d: int = 2, q: float | None = None, generic: bool = False):
    """(system, source, envelope) of lambda*Id + U under P_q: the closed-form
    source with the constant envelope, or with ``generic`` the kernel source
    with the anchored one (:class:`LinearSystem`)."""
    system = LinearSystem(a_lambda(lam, d), p_q(lam, d, q))
    if generic:
        return system, system.source, system.env
    return system, a_lambda_source(lam, d), system.const_env


@dataclass(frozen=True)
class TableRow:
    lam: float
    k_s: int
    max_norm_sq: float
    f_floor: int


TABLE_LAMBDAS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.99995)


def table_run(lambdas, d: int = 2, q: float | None = None, generic: bool = False) -> list[TableRow]:
    """Benchmark rows (lambda, last maximizer, peak value, floored bound).

    Each row scans the problem :func:`a_lambda_problem` builds, with the
    max-argmax tie rule so the reported index is the last maximizer.  The
    bound column is always the floored constant-envelope index bound at that
    maximizer, whichever family drove the scan.  Rows are computed in input
    order.
    """
    rows: list[TableRow] = []
    for lam in lambdas:
        if not 0.0 < lam < 1.0:
            raise PreconditionViolated(f"lambda={lam!r} must lie in (0, 1)")
        system, source, env = a_lambda_problem(lam, d, q, generic)
        sol = solve(source, env, tie=Tie.MAX_ARGMAX)
        if generic:
            # The scan's cursor is past k_s, and under the max-argmax rule
            # sup_value is u_(k_s) to the bit, so no power is stepped again.
            f_floor = argmax_bound(sol.argmax_min, sol.sup_value, system.const_env).floor()
        else:
            f_floor = truncation_from(sol.argmax_min, source, system.const_env)
        rows.append(TableRow(lam=lam, k_s=sol.argmax_min, max_norm_sq=sol.sup_value, f_floor=f_floor))
    return rows

