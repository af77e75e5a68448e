"""Byte-for-byte check of the CLI's stdout and exit codes on a fixed grid.

Each command in ``GRID`` runs through ``peakseq.cli.main`` in process; its
stdout, with ``elapsed_seconds`` masked, and its exit code are compared
with ``cli_golden.txt`` next to this file.  A usage error (exit 1) records
the code only, whether ``main`` returns it or raises ``SystemExit``.  After
an intended output change, rewrite the file and review its diff:

    PYTHONPATH=src python tests/test_cli_golden.py --regen

``--check`` in place of ``--regen`` compares instead of writing: it prints
a diff of every mismatch and exits 1 if there is one.  Neither mode needs
pytest, so any interpreter with the package on its path can run them.
"""

import contextlib
import functools
import io
import re
import shlex
from pathlib import Path

import golden
from peakseq.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden.txt"
PROMPT = "$ peakseq "

SOLVE_ARGV = {
    "factorial": "--a 3",
    "fibonacci": "--u0 0 --u1 1",
    "logistic": "--r 0.5 --y0 0.5",
    "linsys": "--lam 0.75",
}
VALIDATE_ARGV = {
    "factorial": "--a 3",
    "fibonacci": "--u0 1 --u1 2",
    "logistic": "--r 0.7 --y0 0.3",
    "linsys": "--lam 0.8 --d 3",
}

GRID = [
    *(f"solve {name} {argv}{trace} --tie {tie} --format {fmt}"
      for name, argv in SOLVE_ARGV.items()
      for fmt in ("json", "text") for trace in ("", " --trace") for tie in ("min", "max")),
    "solve linsys --lam 0.75 --generic --trace --tie max",
    "solve linsys --lambda 0.9 --d 3 --q 40",
    "solve fibonacci --u0 3 --u1 5 --trace",
    "solve factorial --a 4 --format text --trace --envelope constant",
    *(f"solve factorial --a {a} --envelope {env}"
      for a in (1, 2, 20, 142, 143, 712, 713) for env in ("sequence", "constant")),
    *(f"validate {name} {argv} --format {fmt}"
      for name, argv in VALIDATE_ARGV.items() for fmt in ("json", "text")),
    "validate factorial --a 20 --horizon 400",
    "validate factorial --a 20 --envelope constant --horizon 50",
    "validate linsys --lam 0.9 --generic --horizon 200",
    "validate fibonacci --u0 0 --u1 1 --horizon 40",
    "validate factorial --a 3 --horizon 0",
    "table",
    "table --generic",
    "table --format csv",
    "table --generic --format csv",
    "table --lambdas 0.5,0.9 --d 3",
    "table --lambda 0.5 --q 40 --format csv",
    "table --lambdas 0.5,,0.75",
    "table --lambdas ' 0.5 , 0.6 '",
    "solve syracuse --n0 27",
    "solve syracuse --n0 27 --format text",
    f"solve syracuse --n0 {2**128}",
    "solve syracuse --n0 1",
    "solve syracuse --n0 27 --max-steps 0",
    "solve syracuse --n0 27 --max-steps 20",
    "validate syracuse --n0 7 --a 50 --b 0.9 --c 5 --horizon 60",
    "validate syracuse --n0 7 --a 50 --b 0.9 --c 5 --horizon 60 --format text",
    "validate syracuse --n0 6 --a 2 --b 0.5 --c 5 --horizon 10",
    "validate syracuse --n0 6 --a 2 --b 0.5 --c 5 --horizon 10 --format text",
    # exit 1: usage errors
    "",
    "solve",
    "solve factorial",
    "solve nope --a 1",
    "solve factorial --a 2.5",
    "solve factorial --a 3 --envelope tight",
    "solve linsys --lam 0.5 --format csv",
    "solve syracuse --n0 27 --trace",
    "solve syracuse --n0 27 --tie max",
    "validate syracuse --n0 7 --a 50 --b 0.9 --c 5",
    "validate factorial --a 3 --trace",
    "table --lambdas ''",
    "table --lambdas ,",
    "table --lambdas abc",
    "table --lambdas 0.5,abc",
    "table --format text",
    # exit 2: preconditions and parameters
    "solve factorial --a 0",
    "solve fibonacci --u0 1 --u1 1",
    "solve logistic --r 2.5 --y0 0.3",
    "solve logistic --r 0.5 --y0 1.5",
    "solve linsys --lam 1.5",
    "solve syracuse --n0 0",
    "solve syracuse --n0 27 --max-steps -1",
    f"solve syracuse --n0 {2**128 + 1}",
    "validate factorial --a 143 --envelope constant",
    "validate syracuse --n0 7 --a nan --b 0.9 --c 5 --horizon 60",
    "validate syracuse --n0 7 --a 50 --b 0.9 --c 6 --horizon 60",
    "table --lambdas 1.5",
    "table --lambdas 0.5,1.5 --format csv",
    "table --lambdas 0.5 --q inf",
    "table --lambdas nan",
]


def mask_elapsed(out: str) -> str:
    return re.sub(r'(elapsed_seconds"?: )[0-9.e+-]+', r"\1T", out)


def outcome(command: str) -> str:
    """The golden block of one command: prompt, exit code and masked stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(shlex.split(command))
        except SystemExit as exc:
            code = exc.code
    block = f"{PROMPT}{command}\nexit {code}\n"
    return block if code == 1 else block + mask_elapsed(out.getvalue())


@functools.cache
def read_golden() -> dict[str, str]:
    blocks = re.split(rf"^(?={re.escape(PROMPT)})", GOLDEN.read_text(), flags=re.M)
    return {b.split("\n", 1)[0][len(PROMPT):]: b for b in blocks if b}


def test_grid_matches_golden_commands():
    assert list(read_golden()) == GRID


def pytest_generate_tests(metafunc):
    # A hook, not the parametrize mark, so that the script runs without pytest.
    if "command" in metafunc.fixturenames:
        metafunc.parametrize("command", GRID)


def test_golden(command):
    assert outcome(command) == read_golden()[command]


if __name__ == "__main__":
    golden.main(GOLDEN, GRID, outcome, read_golden, "commands")
