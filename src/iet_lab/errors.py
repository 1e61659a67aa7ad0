"""Exception hierarchy for iet_lab.

Domain errors carry enough context (step indices, offending values) to
diagnose a failed run without re-executing it.
"""

from __future__ import annotations

from contextlib import contextmanager


class IetLabError(Exception):
    """Base class for all library errors."""


class SpecError(IetLabError):
    """An input spec is malformed: a missing key or a value of the wrong form."""


@contextmanager
def reading_spec(what: str, data):
    """Turn the parse failures of a dict spec into SpecError.

    A missing key is named in the message; any other malformed value
    reports the underlying complaint.
    """
    if not isinstance(data, dict):
        raise SpecError(f"{what} must be a JSON object")
    try:
        yield
    except KeyError as exc:
        raise SpecError(f"{what} is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, ArithmeticError, AttributeError,
            IndexError) as exc:
        raise SpecError(f"malformed {what}: {exc}") from None


class DegenerateAlphabet(IetLabError):
    """Alphabet has fewer than two letters."""


class InvalidPermutation(IetLabError):
    """Input is not a bijection onto {1..d}."""


class ReduciblePair(IetLabError):
    """Operation requires an irreducible permutation pair."""


class DimensionError(IetLabError):
    """Matrix or vector dimensions do not agree."""


class DomainError(IetLabError):
    """Point lies outside the transformation's domain."""


class NearBreakpoint(IetLabError):
    """A value fell within a tolerance of a boundary it cannot be judged
    against: a float orbit in the guard band, a near-tied induction step.

    Callers either abort or skip the sample.  ``step_index`` is the
    orbit step at which it happened (None when not applicable).
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class KeaneViolation(IetLabError):
    """An induction step hit equal critical lengths (orbit collision).

    ``step_index`` reports the failing induction step when raised
    mid-iteration.
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class NotALoop(IetLabError):
    """A combinatorial path does not return to its starting pair."""


class NotPrimitive(IetLabError):
    """No power of the matrix is strictly positive."""


class NotPositive(IetLabError):
    """Matrix has a non-positive entry where positivity is required."""


class NotNormalized(IetLabError):
    """Periodic data does not satisfy the nesting normalization."""


class SpectralAmbiguity(IetLabError):
    """An eigenvalue enclosure could not be separated from |z| = 1.

    ``enclosure`` holds the offending (value, radius) pair.
    """

    def __init__(self, message: str, enclosure=None):
        super().__init__(message)
        self.enclosure = enclosure


class EmptyFixedSpace(IetLabError):
    """The transpose matrix has no nonzero fixed vectors."""


class NotZeroMean(IetLabError):
    """Cocycle must have zero mean for this operation."""


class RationalInput(IetLabError):
    """A rational number was supplied where an irrational is required."""


class Unsupported(IetLabError):
    """Cocycle class not supported by this operation."""
