"""The benchmark builds the objects of every item through the public API
before it evaluates any term (``setup_s`` times exactly that); an API change
that breaks this set-up must fail here rather than in a benchmark run."""

import sys
from pathlib import Path

import pytest

from peakseq import Envelope, TermSource

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from drive import build  # noqa: E402
from items import WORKLOADS, make_items  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_item_builds(workload):
    for item in make_items(workload, 1):
        built = build(item)
        if item["kind"] in ("syracuse", "v-syracuse"):
            assert built is None
        else:
            source, env = built
            assert isinstance(source, TermSource) and isinstance(env, Envelope)
