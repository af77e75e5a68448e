"""peakseq: finite-time supremum and argmax of real sequences from certified envelopes."""

from .core import (
    DEFAULT_SCAN_LIMIT,
    Envelope,
    EnvelopeFn,
    EnvelopeViolation,
    Monotonicity,
    NoUsefulIndex,
    PeakSolution,
    PeakseqError,
    PreconditionViolated,
    TermSource,
    Tie,
    UpperBoundValue,
    argmax_bound,
    brute_force_peak,
    solve,
    truncation_from,
    validate_envelope,
)
from .algebra import (
    AffineParams,
    EmptyFamily,
    InvalidBracket,
    OutOfRange,
    affine_fn,
    env_min,
    envelope_fn_from_forward,
    invert_numeric,
    optimal_affine_certificate,
    promote_to_decreasing,
)
from .sequences import (
    FactorialRatioAdapter,
    FibonacciRatioAdapter,
    LogisticAdapter,
    SyracuseAdapter,
    UnsupportedParameter,
    collatz_envelope_check,
    factorial_solve,
    fibonacci_solve,
    logistic_solve,
    syracuse_excursion,
)

__version__ = "0.1.0"
