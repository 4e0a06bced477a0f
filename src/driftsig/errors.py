"""Exception types shared across the package."""

from __future__ import annotations


class DriftsigError(Exception):
    """Base class for package-specific errors."""


class PatternSyntaxError(DriftsigError, ValueError):
    """Raised when pattern text does not follow the pattern grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class CapacityError(DriftsigError):
    """Compiled multi-pattern automaton exceeded its state limit."""


class EmptyPositiveSetError(DriftsigError, ValueError):
    """The learner was given no positive strings to cover."""


class DisjointnessViolation(DriftsigError, ValueError):
    """The same string appeared in both the positive and negative sets."""

    def __init__(self, strings):
        self.strings = sorted(strings)
        super().__init__(
            "positive and negative sets overlap: " + ", ".join(repr(s) for s in self.strings)
        )


class UncoverableElements(DriftsigError, ValueError):
    """Some columns of a cover matrix are True in no row."""

    def __init__(self, elements):
        self.elements = frozenset(elements)
        super().__init__(f"columns covered by no row: {sorted(self.elements)}")


class ParseError(DriftsigError, ValueError):
    """A row of an events or blacklist file is malformed."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class LabelError(DriftsigError, ValueError):
    """A string appeared with two different ground-truth labels."""

    def __init__(self, value: str):
        self.value = value
        super().__init__(f"string labeled inconsistently: {value!r}")


class InsufficientStreamError(DriftsigError, ValueError):
    """The event source ended before two full windows were read."""
