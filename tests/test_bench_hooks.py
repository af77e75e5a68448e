"""The traced benchmark patches peakseq by name; every name must exist and come back."""

import sys
from pathlib import Path

from peakseq import cli, core, linsys, sequences

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer  # noqa: E402

HOOKED = [
    *((module, "solve") for module in (core, cli, linsys, sequences)),
    (core, "argmax_bound"),
    (linsys, "truncation_from"),
    (cli, "validate_envelope"),
    (linsys, "mat_pow"),
    (linsys.Matrix, "from_rows"),
    (core.TermSource, "__init__"),
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
