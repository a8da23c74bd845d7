import json
import re

import pytest

from semdiff.ad_diff import addiff
from semdiff.ad_lang import parse_ad
from semdiff.ad_semantics import Trace
from semdiff.cd_semantics import parse_om, print_om
from semdiff.lexer import ParseError
from semdiff.render import (
    OutputFormat,
    diff_json,
    om_dot,
    om_json,
    parse_trace,
    print_trace,
    render_history,
    render_om,
    render_trace,
    trace_dot,
    trace_json,
)

from conftest import fixture_text
from helpers import validate_dot

WITNESS_OM = """
objectmodel w1 {
  e1: Employee;
  t1: Task;
  t2: Task;
  link worksOn e1 -- t1;
  link worksOn e1 -- t2;
}
"""

TRACE = Trace.make(
    {"isInternal": "true"},
    ("register", "getWelcomePackage", "getKeyCard", "stealStapler", "getKeyCard"),
)


def test_om_json_shape():
    om = parse_om(WITNESS_OM)
    assert om_json(om) == {
        "objects": [
            {"id": "e1", "class": "Employee"},
            {"id": "t1", "class": "Task"},
            {"id": "t2", "class": "Task"},
        ],
        "links": [
            {"assoc": "worksOn", "src": "e1", "dst": "t1"},
            {"assoc": "worksOn", "src": "e1", "dst": "t2"},
        ],
    }


def test_om_json_is_link_order_independent():
    reordered = parse_om(
        """
        objectmodel w1 {
          t2: Task; e1: Employee; t1: Task;
          link worksOn e1 -- t2;
          link worksOn e1 -- t1;
        }
        """
    )
    assert om_json(reordered) == om_json(parse_om(WITNESS_OM))


def test_om_dot_structure():
    om = parse_om(WITNESS_OM)
    dot = om_dot(om)
    validate_dot(dot)
    assert dot.splitlines()[0] == 'digraph "w1" {'
    assert '  "e1" [label="e1:Employee"];' in dot
    assert '  "e1" -> "t2" [label="worksOn"];' in dot


def test_empty_om_renders():
    om = parse_om("objectmodel empty { }")
    validate_dot(om_dot(om))
    assert om_json(om) == {"objects": [], "links": []}
    assert render_om(om, OutputFormat.TEXT) == print_om(om)


def test_render_om_json_payload_parses_back():
    om = parse_om(WITNESS_OM)
    text = render_om(om, OutputFormat.JSON)
    assert json.loads(text) == om_json(om)
    assert text.endswith("\n")


def test_print_trace_layout():
    assert print_trace(TRACE) == (
        "inputs: isInternal=true\n"
        "  1. register\n"
        "  2. getWelcomePackage\n"
        "  3. getKeyCard\n"
        "  4. stealStapler\n"
        "  5. getKeyCard\n"
    )
    assert print_trace(Trace.make({}, ())) == "inputs:\n"


def test_trace_text_round_trip():
    assert parse_trace(print_trace(TRACE)) == TRACE
    multi = Trace.make({"b": "x", "a": "y"}, ("go",))
    assert parse_trace(print_trace(multi)) == multi
    assert print_trace(multi).startswith("inputs: a=y, b=x\n")
    bare = Trace((), ("a",))
    assert print_trace(bare) == "inputs:\n  1. a\n"
    assert parse_trace("inputs:\n  1. a\n") == bare
    # Blank lines, also between steps, are skipped.
    assert parse_trace("\ninputs:\n  1. a\n\n  2. b\n\n") == Trace((), ("a", "b"))
    # A CR before the LF is a blank, as in a model file.
    assert parse_trace("inputs: p=true\r\n  1. a\r\n  2. b\r\n") == Trace.make({"p": "true"}, ("a", "b"))


def test_trace_text_round_trips_non_ascii_names():
    # Every name the lexer reads as one identifier must come back from the
    # text form: here an action and an enum input value from a real diff.
    v1 = parse_ad(
        "activity A { input sorte: {thé, café}; action café; action thé; decision d;"
        " start -> d; d -[sorte == café]-> café; d -[sorte == thé]-> thé;"
        " café -> end; thé -> end; }"
    )
    v2 = parse_ad("activity A { input sorte: {thé, café}; action thé; start -> thé; thé -> end; }")
    (witness,) = addiff(v1, v2).witnesses
    assert witness == Trace.make({"sorte": "café"}, ("café",))
    assert print_trace(witness) == "inputs: sorte=café\n  1. café\n"
    assert parse_trace(print_trace(witness)) == witness
    multi = Trace.make({"_ß2": "ǅ", "x": "é_1"}, ("ℌ", "naïve", "a²"))
    assert parse_trace(print_trace(multi)) == multi


@pytest.mark.parametrize("name", ["a b", "1a", "²", "a-b", "a.b", "café!"])
def test_parse_trace_rejects_what_the_lexer_does_not_read_as_one_name(name):
    with pytest.raises(ParseError):
        parse_trace(f"inputs:\n  1. {name}\n")
    with pytest.raises(ParseError):
        parse_trace(f"inputs: v={name}\n")


def trace_error_cases():
    return [
        ("1. register\n", "expected 'inputs:' header"),
        ("", "expected 'inputs:' header"),
        ("inputs: isInternal\n", "malformed input binding 'isInternal'"),
        ("inputs: a=x, a=y\n", "duplicate input variable 'a'"),
        ("inputs:\n  2. register\n", "step number 2 out of order (expected 1)"),
        ("inputs:\n  one. register\n", "expected a numbered action step"),
    ]


@pytest.mark.parametrize("text, fragment", trace_error_cases())
def test_parse_trace_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_trace(text)
    assert any(fragment in d.message for d in err.value.diagnostics)


@pytest.mark.parametrize("text, expected", [
    # Only LF ends a line, so \x85 and \x0c stay inside theirs, as in a model file.
    ("inputs: p=true\n  1. a\x85  2. b\n  x\n",
     "2:1: expected a numbered action step, found '1. a\x85  2. b'; "
     "3:1: expected a numbered action step, found 'x'"),
    ("inputs: p=true\x0c  1. a\n", "1:1: malformed input binding 'p=true\x0c  1. a'"),
])
def test_parse_trace_counts_lines_at_lf_only(text, expected):
    with pytest.raises(ParseError) as err:
        parse_trace(text)
    assert str(err.value) == expected


def test_trace_json_shape():
    assert trace_json(TRACE) == {
        "inputs": {"isInternal": "true"},
        "actions": [
            "register",
            "getWelcomePackage",
            "getKeyCard",
            "stealStapler",
            "getKeyCard",
        ],
    }


def test_trace_dot_marks_visited_steps():
    ad = parse_ad(fixture_text("adv3.ad"))
    dot = trace_dot(ad, TRACE)
    validate_dot(dot)
    assert 'label="getKeyCard [3,5]"' in dot
    assert 'label="register [1]"' in dot
    # Untouched actions keep their plain style.
    assert '"interview" [shape=box, style=rounded, label="interview"];' in dot
    assert '"route" -> "getWelcomePackage" [label="isInternal"];' in dot


def test_trace_dot_keeps_foreign_actions_out_of_the_graph():
    ad = parse_ad(fixture_text("adv3.ad"))
    dot = trace_dot(ad, TRACE)
    assert "// foreign actions (not nodes of this diagram):" in dot
    assert "//   4. stealStapler" in dot
    assert '"stealStapler" [' not in dot


def test_trace_dot_orders_steps_of_a_real_witness():
    from semdiff.ad_diff import addiff

    v2 = parse_ad(fixture_text("adv2.ad"))
    v3 = parse_ad(fixture_text("adv3.ad"))
    witness = next(
        t for t in addiff(v2, v3).witnesses
        if t.actions.index("assignToProject") < t.actions.index("getKeyCard")
    )
    dot = trace_dot(v2, witness)
    validate_dot(dot)
    assign = re.search(r'label="assignToProject \[(\d+)\]"', dot)
    keycard = re.search(r'label="getKeyCard \[(\d+)\]"', dot)
    assert assign and keycard
    assert int(assign.group(1)) < int(keycard.group(1))


def test_render_trace_formats():
    ad = parse_ad(fixture_text("adv3.ad"))
    assert render_trace(ad, TRACE, OutputFormat.TEXT) == print_trace(TRACE)
    assert render_trace(ad, TRACE, OutputFormat.DOT) == trace_dot(ad, TRACE)
    assert json.loads(render_trace(ad, TRACE, OutputFormat.JSON)) == trace_json(TRACE)


def test_diff_json_shape():
    om = parse_om(WITNESS_OM)
    document = diff_json(True, 3, [om_json(om)])
    assert document == {
        "direction": "AtoB",
        "exhausted": True,
        "bound": 3,
        "witnesses": [om_json(om)],
    }
    assert diff_json(False, None, [])["bound"] is None


def test_validate_dot_accepts_quoted_brackets():
    validate_dot('digraph "g" {\n  "a" [label="a [1,3]"];\n  "a" -> "a";\n}\n')


def invalid_dot_cases():
    return [
        "graph \"g\" {\n}\n",
        'digraph "g" {\n  "a" -> "b";\n}\n',
        'digraph "g" {\n  "a";\n  "a" -> "a"\n}\n',
        'digraph "g" {\n  "a";\n',
    ]


@pytest.mark.parametrize("payload", invalid_dot_cases())
def test_validate_dot_rejects_malformed_output(payload):
    with pytest.raises(ValueError):
        validate_dot(payload)


def test_a_history_has_no_dot_form():
    with pytest.raises(ValueError, match="a history has no DOT form"):
        render_history((), OutputFormat.DOT)


def test_rendering_is_deterministic():
    om = parse_om(WITNESS_OM)
    ad = parse_ad(fixture_text("adv3.ad"))
    for fmt in OutputFormat:
        assert render_om(om, fmt) == render_om(om, fmt)
        assert render_trace(ad, TRACE, fmt) == render_trace(ad, TRACE, fmt)
