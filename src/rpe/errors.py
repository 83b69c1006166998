"""Exception types shared across the library."""

from __future__ import annotations


class RpeError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteValue(RpeError):
    """A series value is NaN, infinite, or missing."""

    def __init__(self, index: int, what: str = "non-finite value"):
        self.index = index
        super().__init__(f"{what} at index {index}")


class WindowTooLarge(RpeError):
    """Requested window length exceeds the series length."""


class SeriesTooShort(RpeError):
    """The series is too short for the requested operation."""


class NotOrthonormal(RpeError):
    """A basis matrix fails the orthonormality check."""


class DimensionMismatch(RpeError):
    """Vector/matrix shapes are incompatible."""


class BadBudget(RpeError):
    """Exclusion budget n_s is negative or leaves fewer rows than the rank."""


class RankDeficient(RpeError):
    """The kept-row submatrix is numerically singular."""


class AllZeroSpectrum(RpeError):
    """Rank selection received a spectrum whose leading value is zero."""


class AllColumnsDropped(RpeError):
    """Column filtering would retain too few columns to fit a basis."""


class CannotPlace(RpeError):
    """Anomaly injection cannot place the requested runs."""


class NoPositives(RpeError):
    """Evaluation requires at least one positive label."""


class NotTrained(RpeError):
    """The detector state has no fitted model."""

