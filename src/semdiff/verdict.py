"""The four-valued verdict that relates two models of the same kind."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class VerdictValue(Enum):
    EQUIVALENT = "EQUIVALENT"
    LEFT_REFINES_RIGHT = "LEFT_REFINES_RIGHT"
    RIGHT_REFINES_LEFT = "RIGHT_REFINES_LEFT"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class Verdict:
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
