"""Semantic differencing for class diagrams and activity diagrams.

Two models of the same kind are compared by their meaning, not their text: a
class diagram denotes the set of object models instantiating it, an activity
diagram the set of action traces it can execute. A diff is a set of concrete
witnesses belonging to the first model's semantics and not the second's.
"""

from .ad_diff import addiff, compare_ad
from .ad_lang import ActivityDiagram, parse_ad, print_ad
from .ad_semantics import (
    DomainMismatchError,
    Trace,
    UnsafeMarkingError,
    accepts,
    build_config_nfa,
    input_valuations,
)
from .cd_diff import cddiff, compare_cd
from .cd_lang import ClassDiagram, Multiplicity, parse_cd, print_cd
from .cd_semantics import (
    ObjectModel,
    Violation,
    ViolationKind,
    is_instance,
    parse_om,
    print_om,
)
from .cli import HistoryRow, history_report, main, run
from .lexer import Diagnostic, ParseError
from .render import (
    OutputFormat,
    parse_trace,
    print_trace,
    render_om,
    render_trace,
)
from .verdict import DiffResult, Verdict, VerdictValue

__version__ = "0.1.0"

__all__ = [
    "ActivityDiagram",
    "ClassDiagram",
    "Diagnostic",
    "DiffResult",
    "DomainMismatchError",
    "HistoryRow",
    "Multiplicity",
    "ObjectModel",
    "OutputFormat",
    "ParseError",
    "Trace",
    "UnsafeMarkingError",
    "Verdict",
    "VerdictValue",
    "Violation",
    "ViolationKind",
    "accepts",
    "addiff",
    "build_config_nfa",
    "cddiff",
    "compare_ad",
    "compare_cd",
    "history_report",
    "input_valuations",
    "is_instance",
    "main",
    "parse_ad",
    "parse_cd",
    "parse_om",
    "parse_trace",
    "print_ad",
    "print_cd",
    "print_om",
    "print_trace",
    "render_om",
    "render_trace",
    "run",
]
