"""What both engines answer: a diff result for one direction, and the
four-valued verdict that relates two models of the same kind."""

from __future__ import annotations

from enum import Enum

from .lexer import Record

DEFAULT_MAX_WITNESSES = 10


class DiffResult(Record):
    """Witnesses of model A that model B rejects, in the engine's order;
    ``exhausted`` is True only when no witness was cut off by a cap, a bound
    or a length limit."""

    witnesses: list
    exhausted: bool


class VerdictValue(Enum):
    EQUIVALENT = "EQUIVALENT"
    LEFT_REFINES_RIGHT = "LEFT_REFINES_RIGHT"
    RIGHT_REFINES_LEFT = "RIGHT_REFINES_LEFT"
    INCOMPARABLE = "INCOMPARABLE"


class Verdict(Record):
    """Four-valued comparison outcome; ``bounded`` records whether it only
    holds up to a search bound (class diagrams) or exactly (activity
    diagrams)."""

    value: VerdictValue
    bounded: bool

    def __str__(self) -> str:
        return self.value.value

    @classmethod
    def of(cls, forward: bool, backward: bool, bounded: bool) -> Verdict:
        """The verdict for whether the forward (left minus right) and the
        backward (right minus left) differences are non-empty."""
        if forward and backward:
            value = VerdictValue.INCOMPARABLE
        elif forward:
            value = VerdictValue.RIGHT_REFINES_LEFT
        elif backward:
            value = VerdictValue.LEFT_REFINES_RIGHT
        else:
            value = VerdictValue.EQUIVALENT
        return cls(value, bounded)
