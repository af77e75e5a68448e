"""Seeded workload items and their references, in the standard library only.

An item is a plain dict of inputs.  ``make_items`` turns a workload name and
a seed into the list of items one pass runs; ``reference`` computes, without
calling peakseq, what the program must answer for an item.  References use
exact arithmetic (``Decimal``, ``Fraction``, integers) so they do not share
the float paths they check.

Parameters are drawn by stratified sampling: a range is cut into as many
strata as there are items of a kind and each item is drawn uniformly (or
log-uniformly) inside its own stratum.  Every draw still follows the stated
distribution, but two seeds give item mixes of nearly the same cost, which
keeps run-to-run spread of the timing percentiles small.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

WORKLOADS = ("table-closed", "table-generic", "adapters", "validate")

# Published lambda values of the benchmark table with their f_floor column;
# the closed-form workload runs every one of them in every pass.
PUBLISHED_F_FLOOR = {
    0.1: 1, 0.25: 1, 0.5: 2, 0.75: 7, 0.9: 20,
    0.99: 221, 0.999: 2229, 0.99995: 44617,
}

# An item is a near tie when some other index has a reference value within
# this relative distance of the maximum (exact ties excluded: the tie rule
# decides those exactly).  Fixed before any run; near-tie items are counted,
# never skipped.
NEAR_TIE_RTOL = 1e-10

# Relative tolerance between the float peak and its exact reference.
PEAK_RTOL = 1e-9

PHI = (1.0 + math.sqrt(5.0)) / 2.0
U128_MAX = 2**128 - 1

# Per-pass item counts and parameter ranges (see README.md for the reasons).
TABLE_CLOSED_SEEDED = 120
TABLE_CLOSED_GAP = (5e-5, 0.5)          # 1 - lambda, log-uniform
TABLE_CLOSED_DIMS = (2, 3, 4, 5, 6)
TABLE_GENERIC_PER_DIM = 24
TABLE_GENERIC_GAP = (5e-3, 5e-2)        # 1 - lambda, log-uniform
TABLE_GENERIC_DIMS = (2, 3, 4)
VALIDATE_PER_KIND = 16
HORIZON = (50, 2000)                    # validate horizons, uniform
GENERIC_HORIZON = (50, 500)
# The tight factorial envelope is valid only while (a+1)^n/n! stays a
# positive float; validating past that is a known defect (README.md), so
# horizons for that adapter stop where ln((a+1)^H / H!) reaches this value.
FACTORIAL_LOG_FLOOR = -700.0
# FactorialRatioAdapter builds the constant envelope eagerly and overflows
# from a = 143 on (known defect, README.md).
FACTORIAL_A_MAX = 142


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"peakseq-perfbench/{workload}/{seed}")


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool) -> list[float]:
    """n draws, one uniform (or log-uniform) draw inside each of n equal strata."""
    out = []
    for i in range(n):
        t = (i + rng.random()) / n
        out.append(lo * (hi / lo) ** t if log else lo + (hi - lo) * t)
    rng.shuffle(out)
    return out


def _int_strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """Integers in [lo, hi] drawn uniformly, one per stratum."""
    vals = _strata(rng, n, lo, hi + 1, log=False)
    return [min(hi, int(v)) for v in vals]


def _factorial_horizon_max(a: int) -> int:
    h = HORIZON[0]
    while h < HORIZON[1] and (h + 1) * math.log(a + 1) - math.lgamma(h + 2) > FACTORIAL_LOG_FLOOR:
        h += 1
    return h


def make_items(workload: str, seed: int) -> list[dict]:
    """The items of one pass of ``workload`` for ``seed``, in run order."""
    rng = _rng(workload, seed)
    items: list[dict] = []
    if workload == "table-closed":
        for lam in PUBLISHED_F_FLOOR:
            items.append({"kind": "table", "lam": lam, "d": 2, "generic": False})
        gaps = _strata(rng, TABLE_CLOSED_SEEDED, *TABLE_CLOSED_GAP, log=True)
        dims = [TABLE_CLOSED_DIMS[i % len(TABLE_CLOSED_DIMS)] for i in range(len(gaps))]
        rng.shuffle(dims)
        for gap, d in zip(gaps, dims):
            items.append({"kind": "table", "lam": 1.0 - gap, "d": d, "generic": False})
    elif workload == "table-generic":
        for d in TABLE_GENERIC_DIMS:
            for gap in _strata(rng, TABLE_GENERIC_PER_DIM, *TABLE_GENERIC_GAP, log=True):
                items.append({"kind": "table", "lam": 1.0 - gap, "d": d, "generic": True})
    elif workload == "adapters":
        for kind, n in (("fact-seq", 48), ("fact-bisect", 24), ("fact-promote", 24), ("fact-envmin", 24)):
            for a in _int_strata(rng, n, 2, FACTORIAL_A_MAX):
                items.append({"kind": kind, "a": a})
        # Only 26 values, and the top few take most of a pass (K grows like
        # a^2 and each big-integer term costs O(k)): run each one, every pass.
        for a in range(5, 31):
            items.append({"kind": "fact-const", "a": a})
        for _ in range(32):
            items.append({"kind": "fib", "u0": 0, "u1": rng.randint(1, 10**6)})
        for u0 in _int_strata(rng, 32, 1, 60):
            items.append({"kind": "fib", "u0": u0, "u1": int(u0 * PHI) + rng.randint(1, 50)})
        for r, y0 in zip(_strata(rng, 32, 0.02, 0.98, log=False), _strata(rng, 32, 0.02, 0.98, log=False)):
            items.append({"kind": "logistic", "r": r, "y0": y0})
        # Starting values up to 136 bits: trajectories that leave 128 bits
        # must raise OverflowError, which is their documented outcome.
        for bits in _int_strata(rng, 32, 2, 136):
            items.append({"kind": "syracuse", "n0": rng.getrandbits(bits) | (1 << (bits - 1))})
    elif workload == "validate":
        n = VALIDATE_PER_KIND
        for a, t in zip(_int_strata(rng, n, 2, FACTORIAL_A_MAX), _strata(rng, n, 0.0, 1.0, log=False)):
            h = HORIZON[0] + round(t * (_factorial_horizon_max(a) - HORIZON[0]))
            items.append({"kind": "v-factorial", "a": a, "envelope": "sequence", "horizon": h})
        for a, h in zip(_int_strata(rng, n, 2, FACTORIAL_A_MAX), _int_strata(rng, n, *HORIZON)):
            items.append({"kind": "v-factorial", "a": a, "envelope": "constant", "horizon": h})
        for i, h in enumerate(_int_strata(rng, n, *HORIZON)):
            u0 = 0 if i % 2 == 0 else rng.randint(1, 60)
            u1 = rng.randint(1, 100) if u0 == 0 else int(u0 * PHI) + rng.randint(1, 50)
            items.append({"kind": "v-fibonacci", "u0": u0, "u1": u1, "horizon": h})
        for h in _int_strata(rng, n, *HORIZON):
            items.append({"kind": "v-logistic", "r": rng.uniform(0.02, 0.98),
                          "y0": rng.uniform(0.02, 0.98), "horizon": h})
        for i, h in enumerate(_int_strata(rng, n, *HORIZON)):
            items.append({"kind": "v-linsys", "lam": 1.0 - 10 ** rng.uniform(-3, math.log10(0.5)),
                          "d": 2 + i % 3, "generic": False, "horizon": h})
        for i, h in enumerate(_int_strata(rng, 6, *GENERIC_HORIZON)):
            items.append({"kind": "v-linsys", "lam": 1.0 - 10 ** rng.uniform(-3, math.log10(0.5)),
                          "d": 2 + i % 3, "generic": True, "horizon": h})
        for h in _int_strata(rng, n, *HORIZON):
            items.append({"kind": "v-syracuse", "n0": rng.randint(1, 10**6),
                          "a": 10 ** rng.uniform(2, 7), "b": rng.uniform(0.9, 0.999),
                          "c": rng.uniform(4.001, 5.0), "horizon": h})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    for i, item in enumerate(items):
        item["id"] = i
    return items


def cli_argv(item: dict) -> list[str]:
    """The peakseq command line of a CLI item."""
    kind = item["kind"]
    if kind == "table":
        argv = ["table", "--lambdas", repr(item["lam"]), "--d", str(item["d"])]
        return argv + (["--generic"] if item["generic"] else [])
    if kind == "v-factorial":
        argv = ["validate", "factorial", "--a", str(item["a"]), "--envelope", item["envelope"]]
    elif kind == "v-fibonacci":
        argv = ["validate", "fibonacci", "--u0", str(item["u0"]), "--u1", str(item["u1"])]
    elif kind == "v-logistic":
        argv = ["validate", "logistic", "--r", repr(item["r"]), "--y0", repr(item["y0"])]
    elif kind == "v-linsys":
        argv = ["validate", "linsys", "--lam", repr(item["lam"]), "--d", str(item["d"])]
        argv += ["--generic"] if item["generic"] else []
    elif kind == "v-syracuse":
        argv = ["validate", "syracuse", "--n0", str(item["n0"]), "--a", repr(item["a"]),
                "--b", repr(item["b"]), "--c", repr(item["c"])]
    else:
        raise ValueError(f"{kind} is not a CLI item")
    return argv + ["--horizon", str(item["horizon"])]


# --- references --------------------------------------------------------------


def _near_tie(values: dict, best_key) -> bool:
    best = values[best_key]
    return any(
        v != best and abs(best - v) / abs(best) <= NEAR_TIE_RTOL
        for k, v in values.items() if k != best_key
    )


def _lambda_u_reference(lam: float) -> dict:
    """Last maximizer and peak of ||(lambda*Id + U)^k||^2 in 50-digit Decimal.

    z_k is unimodal in k, so the maximum of a window that does not end at
    its own edge is the global one; the window grows until that holds.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        dl = Decimal(lam)

        def z(k: int) -> Decimal:
            if k == 0:
                return Decimal(1)
            dk = Decimal(k)
            return dl ** (2 * k - 2) * (dl * dl + dk * dk / 2 + (dk / 2) * (dk * dk + 4 * dl * dl).sqrt())

        center = max(0, round(-1.0 / math.log(lam)))
        lo, hi = max(0, center - 4), center + 4
        values = {k: z(k) for k in range(lo, hi + 1)}
        while True:
            best = max(values.values())
            last = max(k for k, v in values.items() if v == best)
            if last == hi:
                hi += 4
                values.update({k: z(k) for k in range(hi - 3, hi + 1)})
            elif last == lo and lo > 0:
                lo = max(0, lo - 4)
                values.update({k: z(k) for k in range(lo, lo + 4)})
            else:
                break
        return {"k_s": last, "peak": float(best), "near_tie": _near_tie(values, last)}


def _first_argmax(values: dict):
    best = max(values.values())
    first = min(k for k, v in values.items() if v == best)
    return first, best


def reference(item: dict) -> dict:
    """What the program must answer for ``item``."""
    kind = item["kind"]
    if kind == "table":
        ref = _lambda_u_reference(item["lam"])
        ref["f_floor"] = PUBLISHED_F_FLOOR.get(item["lam"]) if item["d"] == 2 else None
        return ref
    if kind.startswith("fact-"):
        a = item["a"]
        # a^n/n! rises until n = a - 1 and falls after n = a.
        values = {n: Fraction(a**n, math.factorial(n)) for n in range(2 * a + 3)}
        k, best = _first_argmax(values)
        return {"argmax": k, "sup": float(best), "near_tie": _near_tie(values, k)}
    if kind == "fib":
        u0, u1 = item["u0"], item["u1"]
        # Ratios converge to phi with errors shrinking like phi^(-2n); the
        # first 80 ratios contain the maximum for every start used here.
        values = {0: Fraction(u1, u0) if u0 else Fraction(0)}
        a, b = u0, u1
        for n in range(1, 80):
            a, b = b, a + b
            values[n] = Fraction(b, a)
        k, best = _first_argmax(values)
        return {"argmax": k, "sup": float(best), "near_tie": _near_tie(values, k)}
    if kind == "logistic":
        return {"argmax": 0, "sup": item["y0"], "near_tie": False}
    if kind == "syracuse":
        y, k, traj = item["n0"], 0, {0: item["n0"]}
        while y != 1:
            y = y // 2 if y % 2 == 0 else (3 * y + 1) // 2
            k += 1
            if y > U128_MAX:
                return {"error": "OverflowError", "near_tie": False}
            traj[k] = y
        traj[k + 1] = 2  # the cycle 1 -> 2 -> 1 continues the trajectory
        arg, best = _first_argmax(traj)
        return {"excursion": (best, arg, True), "near_tie": _near_tie(traj, arg)}
    if kind == "v-syracuse":
        y = item["n0"]
        for n in range(item["horizon"] + 1):
            if y > item["a"] * item["b"] ** n + item["c"]:
                return {"exit": 3, "consistent": False, "violated_at": n, "near_tie": False}
            y = y // 2 if y % 2 == 0 else (3 * y + 1) // 2
        return {"exit": 0, "consistent": True, "violated_at": None, "near_tie": False}
    if kind.startswith("v-"):
        # Every bundled envelope is certified, so validation must come back clean.
        return {"exit": 0, "clean": True, "finding_count": 0, "near_tie": False}
    raise ValueError(f"unknown item kind {kind!r}")
