"""Exception types, and the integer and real number checks, shared across the package."""

import numbers
import operator


class NormsumError(Exception):
    """Base class for all package errors."""


class NonSquareError(NormsumError, ValueError):
    """Operation requires a square matrix."""


class NonSymmetricError(NormsumError, ValueError):
    """Matrix asymmetry exceeds the allowed tolerance."""


class NoConvergenceError(NormsumError, RuntimeError):
    """Spectral factorization failed its convergence certificate."""


class KOutOfRangeError(NormsumError, ValueError):
    """Ky Fan index k outside [1, min(rows, cols)] (or [2, ...] where required)."""


class SizeOverflowError(NormsumError, ValueError):
    """A result, input, field order or sweep order above the dense-dimension
    cap, raised by ``linalg.check_dimensions`` before anything is built."""


class NotPrimePowerError(NormsumError, ValueError):
    """Argument is not p**e for any prime p and integer e >= 1."""


class NotOneModFourError(NormsumError, ValueError):
    """Quadratic-residue graph needs q congruent to 1 mod 4."""


class UnsupportedOrderError(NormsumError, ValueError):
    """No supported construction produces this order."""


class OddProductError(NormsumError, ValueError):
    """Operator-norm extremal matrices need an even number of cells."""


class BadOrientationError(NormsumError, ValueError):
    """Orientation is not rows/columns, or its side has odd length."""


class MissingParamError(NormsumError, ValueError):
    """A parameter required by this bound kind was not supplied."""


class DomainViolationError(NormsumError, ValueError):
    """Input outside the hypotheses of the requested check (never clamped)."""


class OrderTooLargeError(NormsumError, ValueError):
    """Graph order above the cap for this search mode."""


class BadConfigError(NormsumError, ValueError):
    """Search configuration field outside its allowed range."""


def as_int(value, name: str, error: type[ValueError] = ValueError) -> int:
    """value as a Python int. Integer types with ``__index__`` (numpy's too)
    pass; bools, floats and strings raise `error`, never a silent cast."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def as_real(value, name: str, error: type[ValueError] = ValueError) -> float:
    """value as a Python float; bools, strings and bytes raise `error`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise error(f"{name} must be a real number, got {value!r}")


def as_positive_int(value, name: str, error: type[ValueError] = ValueError) -> int:
    """The one positivity gate: `as_int`, then `error` unless value >= 1."""
    n = as_int(value, name, error)
    if n < 1:
        raise error(f"{name} must be a positive integer, got {n!r}")
    return n
