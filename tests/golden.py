"""The ``--regen`` / ``--check`` main shared by the golden-file scripts.

``test_cli_golden.py`` and ``test_solve_golden.py`` each call :func:`main`
when run as a script, so neither mode needs pytest.
"""

import difflib
import sys


def main(path, keys, outcome, read_golden, noun: str) -> None:
    """Write or compare the golden file at ``path``, as ``sys.argv`` asks.

    ``outcome(key)`` is the block of one entry, and the file is the blocks
    of ``keys`` in order; ``read_golden()`` maps each key to its block in
    the file, in file order.  ``--regen`` writes the file.  ``--check``
    prints a unified diff of the file against the blocks, counts the
    entries that differ at their position (``noun`` names them) and exits
    1 if anything differs, 0 otherwise.
    """
    if sys.argv[1:] not in (["--regen"], ["--check"]):
        raise SystemExit(f"usage: python {sys.argv[0]} --regen | --check")
    got = {key: outcome(key) for key in keys}
    text = "".join(got.values())
    if sys.argv[1] == "--regen":
        path.write_text(text)
        return
    # The whole file is compared, so a missing, extra or reordered entry fails too.
    diff = list(difflib.unified_diff(path.read_text().splitlines(True), text.splitlines(True),
                                     path.name, "now"))
    sys.stdout.writelines(diff)
    # Entries are counted by position, so a swapped pair counts as two.
    file_blocks, blocks = list(read_golden().values()), list(got.values())
    bad = sum(a != b for a, b in zip(file_blocks, blocks)) + abs(len(file_blocks) - len(blocks))
    print(f"{path.name} differs: {bad} of {len(got)} {noun} changed" if diff else
          f"all {len(got)} {noun} match {path.name}")
    raise SystemExit(1 if diff else 0)
