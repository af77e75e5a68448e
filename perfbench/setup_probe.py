"""Set-up time of one run, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Measures the seconds from just before ``import peakseq`` until every
adapter, envelope and certificate the run's items need is built; no term is
evaluated.  Prints them as JSON, raw and scaled by calibration bursts taken
before and after (see speed.py).  ``run.py`` starts this several times and
reports the median of the scaled values as ``setup_s``.
"""

import json
import sys
import time
from pathlib import Path

from items import make_items
from speed import REFERENCE_S, burst_seconds

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    items = make_items(sys.argv[1], int(sys.argv[2]))
    sys.path.insert(0, str(SRC))
    before = burst_seconds()
    started = time.perf_counter()
    import peakseq  # noqa: F401
    import peakseq.cli  # noqa: F401
    from drive import build

    for item in items:
        build(item)
    raw = time.perf_counter() - started
    scale = REFERENCE_S / (0.5 * (before + burst_seconds()))
    print(json.dumps({"setup_s": raw * scale, "raw_s": raw}))


if __name__ == "__main__":
    main()
