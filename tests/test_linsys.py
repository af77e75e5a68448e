"""Dense kernel, Lyapunov certificates, and the benchmark matrix family."""

import math
import random
import re
from decimal import Decimal, localcontext

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exact_a_lambda_beta,
    reference_power_norms,
    reference_product,
    reference_row_norm_bounds,
)
from peakseq import (
    Envelope,
    Monotonicity,
    PreconditionViolated,
    Tie,
    affine_fn,
    argmax_bound,
    linsys,
    solve,
    validate_envelope,
)
from peakseq.cli import main
from peakseq.linsys import (
    LinearSystem,
    Matrix,
    NotLyapunov,
    NotPositiveDefinite,
    NotSymmetric,
    QTooSmall,
    TABLE_LAMBDAS,
    a_lambda,
    a_lambda_norm_sq_closed,
    a_lambda_problem,
    a_lambda_op_norm_sq_closed,
    a_lambda_source,
    cholesky_lower,
    envelope_from_certificate,
    mat_mul,
    mat_pow,
    op_norm_sq,
    p_q,
    power_norm_source,
    q_threshold,
    rows_to_csv,
    rows_to_json_obj,
    spectral_norm_sq_power,
    sym_eig_bounds,
    table_run,
    _product,
)


def analytic_2x2_sym_eigs(a, b, d):
    mean = 0.5 * (a + d)
    radius = math.hypot(0.5 * (a - d), b)
    return mean - radius, mean + radius


class TestMatrix:
    def test_shape_checks(self):
        with pytest.raises(PreconditionViolated):
            Matrix.from_rows([[1.0, 2.0]])
        with pytest.raises(PreconditionViolated):
            Matrix.from_rows([[math.nan]])

    def test_power(self):
        a = a_lambda(0.5, 3)
        assert mat_pow(a, 0).rows == Matrix.identity(3).rows
        sq = mat_pow(a, 2)
        # (lam*Id + U)^2 = lam^2*Id + 2*lam*U since U^2 = 0.
        assert sq.rows[0][2] == pytest.approx(1.0)
        assert sq.rows[0][0] == pytest.approx(0.25)
        assert sq.rows[1][1] == pytest.approx(0.25)


class TestSymEig:
    def test_identity(self):
        assert sym_eig_bounds(Matrix.identity(3)) == (1.0, 1.0)

    def test_diagonal(self):
        assert sym_eig_bounds(Matrix.diagonal([1.0, 4.0])) == (1.0, 4.0)

    def test_hand_2x2(self):
        lo, hi = sym_eig_bounds(Matrix.from_rows([[2.0, 1.0], [1.0, 2.0]]))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(3.0, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig_bounds(Matrix.from_rows([[1.0, 2.0], [0.0, 1.0]]))

    def test_random_2x2_against_analytic(self):
        rng = random.Random(7)
        for _ in range(100):
            a, b, d = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)
            lo, hi = sym_eig_bounds(Matrix.from_rows([[a, b], [b, d]]))
            elo, ehi = analytic_2x2_sym_eigs(a, b, d)
            assert abs(lo - elo) <= 1e-12 * max(1.0, abs(elo))
            assert abs(hi - ehi) <= 1e-12 * max(1.0, abs(ehi))

    def test_5x5_invariants(self):
        rng = random.Random(11)
        for _ in range(20):
            raw = [[rng.uniform(-1, 1) for _ in range(5)] for _ in range(5)]
            sym = Matrix.from_rows(
                [[0.5 * (raw[i][j] + raw[j][i]) for j in range(5)] for i in range(5)]
            )
            lo, hi = sym_eig_bounds(sym)
            trace = sum(sym.rows[i][i] for i in range(5))
            assert lo - 1e-10 <= trace / 5.0 <= hi + 1e-10


class TestCholeskyAndLyapunov:
    def test_contraction(self):
        assert LinearSystem(Matrix.diagonal([0.5, 0.5]), Matrix.identity(2)).beta == 0.25

    def test_identity_map_is_not(self):
        with pytest.raises(NotLyapunov, match="P fails"):
            LinearSystem(Matrix.identity(2), Matrix.identity(2))

    def test_benchmark_default_q(self):
        LinearSystem(a_lambda(0.5), p_q(0.5))

    def test_threshold_q_fails(self):
        # det(P - A^T P A) = 0 exactly at the threshold.
        lam = 0.5
        p = Matrix.diagonal([1.0, q_threshold(lam)])
        with pytest.raises(NotLyapunov, match="P fails"):
            LinearSystem(a_lambda(lam), p)

    def test_zero_matrix_has_no_contraction_ratio(self):
        # P - A^T P A = I > 0 passes, and beta = 0 is the rejection.
        with pytest.raises(NotLyapunov, match=re.escape("certified contraction ratio 0.0 not in (0,1)")):
            LinearSystem(Matrix.diagonal([0.0, 0.0]), Matrix.identity(2))

    def test_cholesky_rejects_indefinite(self):
        assert cholesky_lower(Matrix.from_rows([[1.0, 2.0], [2.0, 1.0]])) is None

    def test_p_not_positive_definite_is_not(self):
        # A = 2I is unstable, yet P = -I gives P - A^T P A = 3I > 0: only the
        # check of P itself rejects the pair.
        a, p = Matrix.diagonal([2.0, 2.0]), Matrix.diagonal([-1.0, -1.0])
        with pytest.raises(NotLyapunov, match="P fails"):
            LinearSystem(a, p)

    def test_cholesky_rejects_negative_and_zero_pivots(self):
        assert cholesky_lower(Matrix.diagonal([1.0, -1.0])) is None
        assert cholesky_lower(Matrix.diagonal([1.0, 0.0])) is None

    def test_cholesky_pivot_scale_is_its_own_diagonal(self):
        # A trace-wide floor (1e-12 * 1e12) would reject the unit pivot.
        lower = cholesky_lower(Matrix.diagonal([1e12, 1.0]))
        assert lower == [[1e6, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("lam", [0.9999995, 0.99999999, 0.9999999999])
    @pytest.mark.parametrize("d", [2, 4])
    def test_certificate_as_lambda_tends_to_one(self, lam, d):
        # P_q = diag(1, .., 2e12 and up): the residual's pivots sit near 1 - lambda^2
        # and 1/(1 - lambda^2), far apart but both exact to rounding.
        a, p = a_lambda(lam, d), p_q(lam, d)
        closed = a_lambda_op_norm_sq_closed(lam, p.rows[-1][-1])
        assert abs(LinearSystem(a, p).beta - closed) <= 2 * math.ulp(closed)

    def test_published_rows_still_certify(self):
        for lam in TABLE_LAMBDAS:
            for d in range(2, 7):
                LinearSystem(a_lambda(lam, d), p_q(lam, d))


class TestOneCertificatePass:
    """``LinearSystem(a, p)`` factors P and forms A^T P A once, and it shares
    the size check with :func:`op_norm_sq`."""

    @staticmethod
    def counting(monkeypatch) -> dict:
        """Count calls of the module globals cholesky_lower and _product."""
        calls = {"cholesky_lower": 0, "_product": 0}
        for name in calls:
            inner = getattr(linsys, name)

            def counted(*args, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(linsys, name, counted)
        return calls

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_one_factor_and_one_congruence(self, monkeypatch, d):
        calls = self.counting(monkeypatch)
        LinearSystem(a_lambda(0.9, d), p_q(0.9, d))
        assert calls == {"cholesky_lower": 1, "_product": 2}

    def test_indefinite_p_stops_at_its_factor(self, monkeypatch):
        calls = self.counting(monkeypatch)
        with pytest.raises(NotLyapunov, match="P fails"):
            LinearSystem(Matrix.diagonal([0.5, 0.5]), Matrix.diagonal([1.0, -1.0]))
        assert calls == {"cholesky_lower": 1, "_product": 0}

    # Unchecked, op_norm_sq gave 0.3052493781056045 for the first pair and
    # an IndexError for the second.
    @pytest.mark.parametrize("a,p", [
        (Matrix.from_rows([[0.5, 0.1], [0.0, 0.5]]), Matrix.identity(3)),
        (a_lambda(0.5, 3), Matrix.identity(2)),
    ], ids=["2x2-with-I3", "3x3-with-I2"])
    def test_sizes_must_match(self, a, p):
        with pytest.raises(PreconditionViolated, match="dimension mismatch"):
            op_norm_sq(a, p)
        with pytest.raises(PreconditionViolated, match="dimension mismatch"):
            LinearSystem(a, p)


class TestOpNormSq:
    def test_scaled_identity(self):
        assert op_norm_sq(Matrix.diagonal([0.5, 0.5]), Matrix.identity(2)) == pytest.approx(0.25, abs=1e-14)

    def test_rotation_is_isometry(self):
        rot = Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]])
        assert op_norm_sq(rot, Matrix.identity(2)) == pytest.approx(1.0, abs=1e-12)

    def test_benchmark_closed_form(self):
        value = op_norm_sq(a_lambda(0.5), p_q(0.5))
        assert abs(value - a_lambda_op_norm_sq_closed(0.5, 32.0 / 9.0)) <= 1e-10
        assert value == pytest.approx(0.690771, abs=1e-6)

    def test_closed_form_grid(self):
        for lam in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            q = 2.0 * q_threshold(lam)
            got = op_norm_sq(a_lambda(lam), p_q(lam))
            assert abs(got - a_lambda_op_norm_sq_closed(lam, q)) <= 1e-10

    def test_requires_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            op_norm_sq(Matrix.identity(2), Matrix.diagonal([1.0, -1.0]))

    def test_submultiplicative(self):
        rng = random.Random(3)
        for _ in range(5):
            rows = [[rng.uniform(-0.4, 0.4) for _ in range(3)] for _ in range(3)]
            a = Matrix.from_rows(rows)
            p = Matrix.identity(3)
            norms = {k: math.sqrt(op_norm_sq(mat_pow(a, k), p)) for k in range(11)}
            for j in range(1, 6):
                for k in range(1, 6):
                    assert norms[j + k] <= norms[j] * norms[k] + 1e-12


class TestSpectralNormPower:
    def test_k0(self):
        assert spectral_norm_sq_power(a_lambda(0.7), 0) == 1.0

    def test_k1_closed(self):
        got = spectral_norm_sq_power(a_lambda(0.5), 1)
        expected = 0.25 + 0.5 + 0.5 * math.sqrt(2.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_closed_form_cross_check(self):
        for lam in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            for k in range(0, 51):
                got = spectral_norm_sq_power(a_lambda(lam), k)
                want = a_lambda_norm_sq_closed(lam, k)
                assert abs(got - want) <= 1e-9 * want

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_generic_source_within_1e14_of_exact(self, d):
        # z_k of the float lambda in 50 digits, over the rise to the peak and past it.
        lam = 0.999
        source = power_norm_source(a_lambda(lam, d))
        with localcontext() as ctx:
            ctx.prec = 50
            dl = Decimal(lam)
            for k in range(1, int(2 / (1 - lam))):
                dk = Decimal(k)
                z_k = dl ** (2 * k - 2) * (dl * dl + dk * dk / 2 + dk / 2 * (4 * dl * dl + dk * dk).sqrt())
                assert abs(Decimal(source.eval(k)) - z_k) <= Decimal("1e-14") * z_k, k


class TestKernelChecks:
    """Matrices are checked where they enter and where a result leaves."""

    def test_unused_square_may_overflow(self):
        # 1e100^2 is the result; the next square (1e400) would never be used.
        assert mat_pow(Matrix.from_rows([[1e100]]), 2).rows == ((1e200,),)

    def test_mat_mul_is_the_checked_row_product(self):
        a = Matrix.from_rows([[0.5, -1.0], [2.0, 0.25]])
        b = Matrix.from_rows([[3.0, 0.1], [-0.7, 1.5]])
        assert mat_mul(a, b).rows == _product(a.rows, b.rows)
        with pytest.raises(PreconditionViolated, match="dimension mismatch"):
            mat_mul(Matrix.identity(2), Matrix.identity(3))

    def test_negative_power_is_rejected(self):
        with pytest.raises(PreconditionViolated, match="power must be >= 0"):
            mat_pow(a_lambda(0.5), -1)

    def test_overflowing_power_raises(self):
        with pytest.raises(PreconditionViolated, match="matrix entries must be finite"):
            mat_pow(Matrix.from_rows([[1e200]]), 2)

    def test_overflowing_gram_raises(self):
        # A^1 is finite; its Gram entry 1e400 is not.
        with pytest.raises(PreconditionViolated, match="matrix entries must be finite"):
            spectral_norm_sq_power(Matrix.from_rows([[1e200]]), 1)

    @pytest.mark.parametrize(
        "rows", [[[1e200]], [[1e100]], [[1e100, 1.0], [0.0, 0.5]], [[0.5, 1e200], [0.0, 0.5]]]
    )
    def test_solve_raises_on_overflow(self, rows):
        # A scale far above every finite term keeps the scan going into the overflow.
        fn = affine_fn(1e300, 0.0)
        env = Envelope(h=lambda k: fn, beta=lambda k: 0.5, mono=Monotonicity(constant_from=0))
        with pytest.raises(PreconditionViolated, match="matrix entries must be finite"):
            solve(power_norm_source(Matrix.from_rows(rows)), env)

    def test_checks_per_term_do_not_grow_with_k(self, monkeypatch):
        a = a_lambda(0.9, 3)
        checked = Matrix.__post_init__
        calls = []

        def counting(self):
            calls.append(1)
            checked(self)

        monkeypatch.setattr(Matrix, "__post_init__", counting)
        counts = []
        for k in (1, 100, 2**14 + 1, 20000):
            calls.clear()
            spectral_norm_sq_power(a, k)
            counts.append(len(calls))
        assert counts[0] <= 3
        assert counts == [counts[0]] * 4


def square_rows(d):
    entry = st.floats(min_value=-1.0, max_value=1.0)
    return st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)


class TestKernelMatchesReference:
    """The lean kernel (map-based products, half Gram, direct Jacobi) returns
    the same bits as the full-Gram reference in tests/helpers.py."""

    @given(st.integers(min_value=1, max_value=6).flatmap(square_rows))
    @settings(max_examples=60, deadline=None)
    def test_power_norm_terms(self, rows):
        m = Matrix.from_rows(rows)
        source = power_norm_source(m)
        got = [source.eval(k).hex() for k in range(61)]
        assert got == [x.hex() for x in reference_power_norms(m, 60)]

    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda d: st.tuples(square_rows(d), square_rows(d))))
    @settings(max_examples=60, deadline=None)
    def test_product(self, pair):
        a, b = (Matrix.from_rows(rows).rows for rows in pair)
        assert _product(a, b) == reference_product(a, b)

    def test_public_eigensolve_still_checks_symmetry(self):
        with pytest.raises(NotSymmetric):
            sym_eig_bounds(Matrix.from_rows([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


class TestBenchmarkFamily:
    def test_a_lambda_structure(self):
        assert a_lambda(0.0, 2).rows == ((0.0, 1.0), (0.0, 0.0))
        with pytest.raises(PreconditionViolated):
            a_lambda(1.0)
        with pytest.raises(PreconditionViolated):
            a_lambda(0.5, 1)

    def test_p_q_default(self):
        assert p_q(0.0).rows == ((1.0, 0.0), (0.0, 2.0))
        assert p_q(0.5).rows[1][1] == pytest.approx(32.0 / 9.0)

    def test_q_too_small(self):
        with pytest.raises(QTooSmall):
            p_q(0.5, q=q_threshold(0.5))

    @pytest.mark.parametrize("d", [2, 4])
    def test_problem_pairs_source_and_envelope(self, d):
        system, source, env = a_lambda_problem(0.9, d, 1e5)
        assert (system.a, system.p) == (a_lambda(0.9, d), p_q(0.9, d, 1e5))
        assert env is system.const_env and source.upper is None
        assert source.eval(7) == a_lambda_norm_sq_closed(0.9, 7)
        system, source, env = a_lambda_problem(0.9, d, 1e5, generic=True)
        assert source is system.source and env is system.env
        assert source.upper is not None and source.lower is not None
        # Only the system's source carries bounds; the bare walks have none.
        for bare in (power_norm_source(system.a), a_lambda_source(0.9, d, generic=True)):
            assert bare.upper is None and bare.lower is None

    def test_certificate_fields(self):
        system = LinearSystem(a_lambda(0.9), p_q(0.9))
        assert 0.0 < system.beta < 1.0
        assert system.lambda_min <= system.lambda_max
        assert system.slope == pytest.approx(system.lambda_max / system.lambda_min)

    def test_invalid_p_raises(self):
        with pytest.raises(NotLyapunov):
            envelope_from_certificate(a_lambda(0.9), Matrix.diagonal([1.0, 1.0]))

    def test_tight_geometric_case(self):
        env = envelope_from_certificate(Matrix.diagonal([0.5, 0.5]), Matrix.identity(2))
        src = power_norm_source(Matrix.diagonal([0.5, 0.5]))
        for k in range(1, 8):
            ub = argmax_bound(k, src.eval(k), env)
            assert ub.value == pytest.approx(float(k), abs=1e-9)

    def test_envelope_soundness(self):
        for lam in [0.5, 0.75, 0.9]:
            system = LinearSystem(a_lambda(lam), p_q(lam))
            env = envelope_from_certificate(a_lambda(lam), p_q(lam))
            src = a_lambda_source(lam)
            sol = solve(src, env, tie=Tie.MAX_ARGMAX)
            for k in range(0, 2 * sol.truncation_index + 1):
                z_k = src.eval(k)
                assert z_k <= system.slope * system.beta**k * (1.0 + 1e-12)


def similar_system():
    """A = T B T^-1 with P = T^-T T^-1: a certificate with off-diagonal entries."""
    t, t_inv = ((1.0, 2.0), (0.0, 1.0)), ((1.0, -2.0), (0.0, 1.0))
    b = ((0.6, 0.3), (-0.2, 0.5))
    a = Matrix(_product(_product(t, b), t_inv))
    return a, Matrix(_product(tuple(zip(*t_inv)), t_inv))


def reference_anchor(a, p, k):
    """w_k = tr((A^k)^T P A^k) / lmin(P) through mat_pow and the public eigensolve."""
    m = mat_pow(a, k).rows
    pm = _product(p.rows, m)
    trace = sum(x * y for rm, rp in zip(m, pm) for x, y in zip(rm, rp))
    return trace / sym_eig_bounds(p)[0]


SYSTEMS = {
    "lambda-0.9-d3": lambda: (a_lambda(0.9, 3), p_q(0.9, 3)),
    "lambda-0.99-d2-q50k": lambda: (a_lambda(0.99, 2), p_q(0.99, 2, 5e4)),
    "similar": similar_system,
}


class TestLinearSystem:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_terms_are_the_generic_terms(self, name):
        a, p = SYSTEMS[name]()
        system, plain = LinearSystem(a, p), power_norm_source(a)
        want, bounds = reference_power_norms(a, 80), reference_row_norm_bounds(a, 80)
        for k in range(81):
            assert system.source.eval(k).hex() == plain.eval(k).hex() == want[k].hex()
            assert system.source.upper(k).hex() == bounds[k][0].hex()
            assert system.source.lower(k).hex() == bounds[k][1].hex()

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_const_env_is_the_certificate_envelope(self, name):
        a, p = SYSTEMS[name]()
        system, env = LinearSystem(a, p), envelope_from_certificate(a, p)
        lo, hi = sym_eig_bounds(p)
        assert (system.p, system.lambda_min, system.lambda_max) == (p, lo, hi)
        assert (system.beta, system.slope) == (op_norm_sq(a, p), hi / lo)
        assert system.const_env.mono == env.mono == Monotonicity(constant_from=0)
        for k in (0, 7, 300):
            assert system.const_env.beta(k) == env.beta(k)
            assert system.const_env.h(k).eval(0.5) == env.h(k).eval(0.5)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_anchored_family(self, name):
        a, p = SYSTEMS[name]()
        system = LinearSystem(a, p)
        beta = system.beta
        assert system.env.mono == Monotonicity()
        scales = []
        for k in range(0, 400, 7):
            fn = system.env.h(k)
            assert system.env.beta(k) == beta
            assert (fn.lo, fn.eval(0.0)) == (0.0, 0.0)
            assert fn.hi == pytest.approx(reference_anchor(a, p, k) / beta**k, rel=1e-12)
            assert fn.eval(beta**k) >= system.source.eval(k)
            scales.append(fn.hi)
        assert scales == sorted(scales, reverse=True)

    def test_exactly_zero_power_keeps_a_valid_family(self):
        # A^2 = 0: w_k = 0 from k = 2 on, where the scale keeps its last
        # value and h_k stays strictly increasing.
        a = Matrix.from_rows([[0.0, 1.0], [0.0, 0.0]])
        system = LinearSystem(a, Matrix.diagonal([1.0, 4.0]))
        assert validate_envelope(system.source, system.env, 40) == []
        assert all(system.env.h(k).lo < system.env.h(k).hi for k in range(41))
        assert system.env.h(1).hi == system.env.h(40).hi > 0.0
        sol = solve(system.source, system.env, tie=Tie.MAX_ARGMAX)
        assert (sol.sup_value, sol.argmax_min) == (1.0, 1)

    def test_scale_past_the_underflow_of_beta_power(self):
        # Strong transient growth keeps w_k ~ 1e300 k^2 4^-k normal well past
        # k = 538, where beta^k = (0.25 + 5e-5)^k underflows to 0; the scale
        # w_k / beta^k exists only in logs.  The weighted second row's norm
        # 4^-k underflows at the same k and takes its share of w_k with it;
        # the running minimum keeps the scale from growing there.
        a = Matrix.from_rows([[0.5, 1e150], [0.0, 0.5]])
        system = LinearSystem(a, Matrix.diagonal([1.0, 1e308]))
        assert system.beta**538 == 0.0
        assert 0.0 < system.source.eval(538) and 1e300 < system.env.h(538).hi < math.inf
        assert validate_envelope(system.source, system.env, 1000) == []

    @pytest.mark.parametrize("lam", [0.5, 0.1])
    def test_scale_stays_finite_past_underflow(self, lam):
        # beta^k and A^k underflow long before k = 3000.
        system = LinearSystem(a_lambda(lam), p_q(lam))
        assert system.beta**3000 == 0.0
        fns = [system.env.h(k) for k in range(3001)]
        assert all(0.0 < fn.hi < math.inf for fn in fns)
        assert all(later.hi <= earlier.hi for earlier, later in zip(fns, fns[1:]))

    def test_rejects_an_invalid_certificate(self):
        with pytest.raises(NotLyapunov):
            LinearSystem(a_lambda(0.9), Matrix.diagonal([1.0, 1.0]))

    def test_near_threshold_q_ends_after_15_terms(self, capsys):
        # q just above the threshold gives beta = 1 - 1.05e-8, and the
        # constant envelope's bound at k = 0 is about 5.7e7.  The anchored
        # family reads the decay of A^k and stops after 15 terms.
        q = 1.0000001 * q_threshold(0.9)
        system = LinearSystem(a_lambda(0.9), p_q(0.9, 2, q))
        assert argmax_bound(0, 1.0, system.const_env).value > 5e7
        assert main(["solve", "linsys", "--lam", "0.9", "--q", repr(q), "--generic"]) == 0
        sol = json.loads(capsys.readouterr().out)["solution"]
        assert (sol["argmax_min"], sol["truncation_index"], sol["terms_evaluated"]) == (9, 14, 15)
        assert sol["sup_value"] == pytest.approx(a_lambda_norm_sq_closed(0.9, 9), rel=1e-13)


class TestTableRun:
    def test_row_05(self):
        row = table_run([0.5])[0]
        assert (row.k_s, row.f_floor) == (1, 2)
        assert row.max_norm_sq == pytest.approx(1.4571, abs=1e-4)

    def test_generic_matches_closed_form(self):
        for lam in [0.25, 0.5, 0.75, 0.9]:
            generic = table_run([lam], generic=True)[0]
            closed = table_run([lam])[0]
            assert generic.k_s == closed.k_s
            assert generic.f_floor == closed.f_floor
            assert generic.max_norm_sq == pytest.approx(closed.max_norm_sq, rel=1e-9)

    def test_dimension_independent(self):
        lams = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]
        rows2 = table_run(lams, d=2, generic=True)
        rows5 = table_run(lams, d=5, generic=True)
        for r2, r5 in zip(rows2, rows5):
            assert (r2.k_s, r2.f_floor) == (r5.k_s, r5.f_floor)
            assert r5.max_norm_sq == pytest.approx(r2.max_norm_sq, rel=1e-9)

    def test_generic_long_row_scans_the_anchored_family(self, monkeypatch):
        # table_run calls solve through the module global, where a caller
        # can count the terms each row scanned.
        scanned, real = [], linsys.solve

        def counted(*args, **kwargs):
            sol = real(*args, **kwargs)
            scanned.append(sol.terms_evaluated)
            return sol

        monkeypatch.setattr(linsys, "solve", counted)
        closed, generic = table_run([0.99995]) + table_run([0.99995], generic=True)
        assert (closed.k_s, closed.f_floor) == (generic.k_s, generic.f_floor) == (19_999, 44_617)
        assert scanned == [44_618, 30_255]

    def test_rejects_bad_lambda(self):
        with pytest.raises(PreconditionViolated):
            table_run([1.5])

    def test_csv_shape(self):
        text = rows_to_csv(table_run([0.5, 0.75]))
        lines = text.strip().splitlines()
        assert lines[0] == "lambda,k_s,max_norm_sq,f_floor"
        assert lines[1].startswith("0.5,1,")
        assert len(lines) == 3

    def test_json_obj(self):
        objs = rows_to_json_obj(table_run([0.5]))
        assert objs[0]["k_s"] == 1
        assert set(objs[0]) == {"lambda", "k_s", "max_norm_sq", "f_floor"}


def exact_floor(lam: float, q: float, u: float, slope: float) -> int:
    """floor(log(u / slope) / log beta) with the exact beta of the float certificate."""
    with localcontext() as ctx:
        ctx.prec = 60
        return math.floor((Decimal(u) / Decimal(slope)).ln() / exact_a_lambda_beta(lam, q).ln())


class TestExactFloor:
    """f_floor against the bound that the float certificate gives in exact arithmetic."""

    @pytest.mark.parametrize("generic", [False, True], ids=["closed", "generic"])
    def test_table_rows_match_the_exact_floor(self, generic):
        for row in table_run(TABLE_LAMBDAS, generic=generic):
            system = a_lambda_problem(row.lam, 2, None, generic)[0]
            q = system.p.rows[-1][-1]
            assert row.f_floor == exact_floor(row.lam, q, row.max_norm_sq, system.slope), row.lam

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 13: the float beta lies below the exact one, so near the q "
        "threshold f_floor is 61,341,144 where the exact bound is 61,341,145.09 "
        "(lambda = 0.999), and 12,273,831,870 where it is 12,273,838,765.06 "
        "(lambda = 0.99995)"))
    @pytest.mark.parametrize("lam, q, k_s, scanned", [
        (0.999, 250252.69012696118, 999, True),
        # q = 1.000001 * q_threshold(0.99995); closed form only, not scanned.
        (0.99995, 100005100.19249806, 19_999, False),
    ], ids=["0.999", "0.99995"])
    def test_near_threshold_floor_is_below_the_exact_bound(self, lam, q, k_s, scanned):
        # The closed-form rows' constant-envelope scans are about 61 M and
        # 12 G terms, so their floor is taken at the known last maximizer.
        system = a_lambda_problem(lam, 2, q)[0]
        u = a_lambda_norm_sq_closed(lam, k_s)
        floors = [argmax_bound(k_s, u, system.const_env).floor()]
        exact = [exact_floor(lam, q, u, system.slope)]
        if scanned:
            generic = table_run([lam], q=q, generic=True)[0]
            assert generic.k_s == k_s
            floors.append(generic.f_floor)
            exact.append(exact_floor(lam, q, generic.max_norm_sq, system.slope))
        assert floors == exact
