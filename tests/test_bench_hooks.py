"""The traced benchmark patches peakseq by name; every name must exist and come back."""

import sys
from pathlib import Path

from peakseq import algebra, cli, core, linsys, sequences

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer  # noqa: E402

HOOKED = [
    *((module, "solve") for module in (core, cli, linsys, sequences)),
    (core, "argmax_bound"),
    (linsys, "truncation_from"),
    (cli, "validate_envelope"),
    *((linsys, attr) for attr in ("mat_mul", "mat_pow", "sym_eig_bounds", "spectral_norm_sq_power",
                                  "cholesky_lower", "envelope_from_certificate")),
    *((algebra, attr) for attr in ("invert_numeric", "env_min", "promote_to_decreasing",
                                   "envelope_fn_from_forward")),
    (cli, "main"),
    (linsys.Matrix, "from_rows"),
    (sequences.SyracuseAdapter, "step"),
    *((cls, "__init__") for cls in (sequences.FactorialRatioAdapter, sequences.FibonacciRatioAdapter,
                                    sequences.LogisticAdapter, sequences.SyracuseAdapter)),
    *((cls, "__init__") for cls in (core.TermSource, core.Envelope, core.EnvelopeFn)),
]


def test_install_patches_and_uninstall_restores():
    before = {(id(owner), attr): owner.__dict__[attr] for owner, attr in HOOKED}
    tracer = Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        patched = {(id(owner), attr) for owner, attr, _ in patches}
        assert set(before) <= patched
        for owner, attr in HOOKED:
            assert owner.__dict__[attr] is not before[(id(owner), attr)]
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original
    for owner, attr in HOOKED:
        assert owner.__dict__[attr] is before[(id(owner), attr)]
