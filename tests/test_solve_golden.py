"""Bit-for-bit check of library solutions on a fixed grid of cases.

Each case in ``CASES`` builds a term source and an envelope and runs
:func:`peakseq.solve` under both tie rules.  Its line in
``solve_golden.txt`` next to this file records, per tie rule,
``float.hex`` of the supremum, the argmax, the truncation index, the
number of terms evaluated and a digest of the whole ``on_step`` stream
(``None`` where a term was screened), then the count and a digest of the
:func:`peakseq.validate_envelope` findings at the case's horizon: an
adapter's default ``validate`` horizon in the CLI.  After an intended
output change, rewrite the file and review its diff:

    PYTHONPATH=src python tests/test_solve_golden.py --regen

``--check`` in place of ``--regen`` compares instead of writing: it prints
a diff of every mismatch and exits 1 if there is one.  Neither mode needs
pytest, so any interpreter with the package on its path can run them.
"""

import difflib
import functools
import hashlib
import math
import random
import sys
from array import array
from pathlib import Path

from peakseq import Envelope, Monotonicity, TermSource, Tie, affine_fn, solve, validate_envelope
from peakseq import linsys
from peakseq.cli import _ADAPTERS
from peakseq.sequences import FactorialRatioAdapter, FibonacciRatioAdapter, LogisticAdapter

GOLDEN = Path(__file__).resolve().parent / "solve_golden.txt"


def _factorial(a, envelope):
    adapter = FactorialRatioAdapter(a)
    return adapter.source, adapter.envelope(envelope), _ADAPTERS["factorial"].horizon


def _fibonacci(u0, u1):
    adapter = FibonacciRatioAdapter(u0, u1)
    return adapter.source, adapter.env, _ADAPTERS["fibonacci"].horizon


def _logistic(r, y0):
    adapter = LogisticAdapter(r, y0)
    return adapter.source, adapter.env, _ADAPTERS["logistic"].horizon


def _linsys(lam, d, q, generic):
    return (*linsys.a_lambda_problem(lam, d, q, generic)[1:], _ADAPTERS["linsys"].horizon)


def _listed(seed):
    """Terms in [0.3, 1] from a pool of at most four values and the one-ulp
    neighbours of one of them, then zeros, with ``upper`` and ``lower``
    bounds that add or subtract a slack or miss by a few ulp, under a family
    that is constant, decreasing, eventually decreasing or eventually
    constant: the shape of ``test_core.listed_terms``, drawn from a seed."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    pool = [rng.uniform(0.3, 1.0) for _ in range(rng.randint(1, 4))]
    near = rng.choice(pool)
    pool += [max(0.3, math.nextafter(near, 0.0)), min(1.0, math.nextafter(near, 2.0))]
    terms = [rng.choice(pool) for _ in range(n)] + [0.0]

    def slacks():
        return [rng.choice([0.0, rng.random(), -rng.randint(1, 4)]) for _ in range(rng.randint(1, 2 * n + 2))]

    def ulps(u, j):
        for _ in range(j):
            u = math.nextafter(u, math.inf)
        return u

    ups, lows = slacks(), slacks()

    def term(k):
        return terms[min(k, n)]

    def upper(k):
        s = ups[k % len(ups)]
        return ulps(term(k), -s) if s < 0 else term(k) + s

    def lower(k):
        s = lows[k % len(lows)]
        return -ulps(-term(k), -s) if s < 0 else term(k) - s

    base = 0.5 ** (1.0 / n)
    shape = seed % 4
    if shape < 2:
        fn = affine_fn(2.0, 0.0)
        env = Envelope(h=lambda k: fn, beta=lambda k: base, mono=Monotonicity(0, 0 if shape else None))
    else:
        # m < n, so the term at m lies above h_m(0) and the scan finds a bound.
        m = rng.randint(0, min(5, n - 1))
        c = m + rng.randint(0, 6) if shape == 3 else None
        big, off, fast = rng.uniform(0.0, 4.0), rng.uniform(0.0, 0.25), rng.uniform(0.0, 0.9)
        bumps = [rng.uniform(0.0, 3.0) for _ in range(m)]
        fns = [affine_fn(2.0 + big / (k + 1) + (bumps[k] if k < m else 0.0), off / (k + 1))
               for k in range(max(m, c or 0) + 1)]
        betas = [base + (1.0 - base) * (0.99 if k < m and bumps[k] > 1.5 else fast / (k + 2))
                 for k in range(len(fns))]
        last = len(fns) - 1
        if c is None:
            def h(k):
                return fns[k] if k <= last else affine_fn(2.0 + big / (k + 1), off / (k + 1))

            def beta(k):
                return betas[k] if k <= last else base + (1.0 - base) * fast / (k + 2)
        else:
            def h(k):
                return fns[min(k, last)]

            def beta(k):
                return betas[min(k, last)]
        env = Envelope(h=h, beta=beta, mono=Monotonicity(m, c))
    return TermSource(eval=term, upper=upper, lower=lower), env, n + 2


FACTORIAL_SEQ = [*range(1, 31), *range(37, 712, 25), 712]
FACTORIAL_CONST = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
FIBONACCI = [(0, 1), (0, 2), (0, 7), (1, 2), (1, 3), (2, 5), (3, 5), (5, 9), (1, 10),
             (10**12, 1_618_033_988_750), (0, 10**399), (3 * 10**398, 10**399)]
LOGISTIC = [(0.1, 0.2), (0.3, 0.5), (0.5, 0.5), (0.7, 0.3), (0.9, 0.1), (0.95, 0.6), (0.999, 0.999)]
# (lambda, q as a multiple of the threshold (1 - lambda^2)^-2) just above it.
NEAR_THRESHOLD = [(0.5, 1.001), (0.9, 1.01), (0.99, 1.5)]
NEAR_THRESHOLD_GENERIC = [(0.9, 1.0000001), (0.99, 1.0001), (0.999, 1.000001)]

CASES = {
    **{f"factorial a={a} sequence": functools.partial(_factorial, a, "sequence") for a in FACTORIAL_SEQ},
    **{f"factorial a={a} constant": functools.partial(_factorial, a, "constant") for a in FACTORIAL_CONST},
    **{f"fibonacci u0={u0} u1={u1}": functools.partial(_fibonacci, u0, u1) for u0, u1 in FIBONACCI},
    **{f"logistic r={r} y0={y0}": functools.partial(_logistic, r, y0) for r, y0 in LOGISTIC},
    **{f"linsys lambda={lam} d={d}{' generic' if generic else ''}": functools.partial(_linsys, lam, d, None, generic)
       for generic in (False, True) for lam in linsys.TABLE_LAMBDAS for d in range(2, 7)
       if not (generic and lam == 0.99995 and d > 2)},
    **{f"linsys lambda={lam} q={x}*threshold{' generic' if generic else ''}":
       functools.partial(_linsys, lam, 2, x * linsys.q_threshold(lam), generic)
       for generic, grid in ((False, NEAR_THRESHOLD), (True, NEAR_THRESHOLD_GENERIC)) for lam, x in grid},
    **{f"linsys lambda={lam!r} seeded": functools.partial(_linsys, lam, 2, None, False)
       for lam in (round(random.Random(seed).uniform(0.05, 0.995), 6) for seed in range(20))},
    **{f"listed seed={seed}": functools.partial(_listed, seed) for seed in range(40)},
}


def _stream_digest(steps) -> str:
    """Digest of the (k, u_k, bound, K) stream as packed machine values:
    NaN for a screened term or an index with no bound, inf for the infinite
    bound and -1 for no K, none of which a real step can hold."""
    ks, us, bounds, truncs = zip(*steps)
    packed = hashlib.sha256(array("q", ks))
    packed.update(array("d", [math.nan if u is None else u for u in us]))
    packed.update(array("d", [math.nan if b is None else math.inf if b.value is None else b.value
                              for b in bounds]))
    packed.update(array("q", [-1 if t is None else t for t in truncs]))
    return packed.hexdigest()[:16]


def _solved(source, env, tie) -> str:
    steps = []
    sol = solve(source, env, tie=tie, on_step=lambda *step: steps.append(step))
    return (f"{tie.value} {sol.sup_value.hex()} {sol.argmax_min} {sol.truncation_index} "
            f"{sol.terms_evaluated} {_stream_digest(steps)}")


def outcome(name: str) -> str:
    """The golden line of one case."""
    source, env, horizon = CASES[name]()
    findings = [(f.k, f.kind, f.detail) for f in validate_envelope(source, env, horizon)]
    solved = " | ".join(_solved(source, env, tie) for tie in Tie)
    digest = hashlib.sha256(repr(findings).encode()).hexdigest()[:16]
    return f"{name} | {solved} | findings {len(findings)} {digest}\n"


@functools.cache
def read_golden() -> dict[str, str]:
    lines = GOLDEN.read_text().splitlines(keepends=True)
    return {line.split(" | ", 1)[0]: line for line in lines}


def test_grid_matches_golden_cases():
    assert list(read_golden()) == list(CASES)


def pytest_generate_tests(metafunc):
    # A hook, not the parametrize mark, so that the script runs without pytest.
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", list(CASES))


def test_golden(name):
    assert outcome(name) == read_golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] not in (["--regen"], ["--check"]):
        raise SystemExit(f"usage: python {sys.argv[0]} --regen | --check")
    got = {name: outcome(name) for name in CASES}
    text = "".join(got.values())
    if sys.argv[1] == "--regen":
        GOLDEN.write_text(text)
    else:
        # The whole file is compared, so a missing, extra or reordered entry fails too.
        diff = list(difflib.unified_diff(GOLDEN.read_text().splitlines(True), text.splitlines(True),
                                         GOLDEN.name, "now"))
        sys.stdout.writelines(diff)
        golden = read_golden()
        bad = sum(golden.get(name) != block for name, block in got.items())
        print(f"{GOLDEN.name} differs: {bad} of {len(got)} cases changed" if diff else
              f"all {len(got)} cases match {GOLDEN.name}")
        raise SystemExit(1 if diff else 0)
