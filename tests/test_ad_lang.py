import pickle
import sys

import pytest

from semdiff.ad_lang import (
    GuardAnd,
    GuardCmp,
    GuardLit,
    GuardNot,
    GuardOr,
    GuardVar,
    NodeKind,
    VarKind,
    parse_ad,
    print_ad,
    print_guard,
)
from semdiff.lexer import ParseError

from conftest import fixture_text

MINIMAL = "activity A { start -> a; action a; a -> end; }"


def guard_of(ad, src, dst):
    for e in ad.edges:
        if (e.src, e.dst) == (src, dst):
            return e.guard
    raise AssertionError(f"no edge {src} -> {dst}")


def test_minimal_linear_diagram():
    ad = parse_ad(MINIMAL)
    assert ad.name == "A"
    kinds = {n.name: n.kind for n in ad.nodes}
    assert kinds == {
        "a": NodeKind.ACTION,
        "start": NodeKind.INITIAL,
        "end": NodeKind.FINAL,
    }
    assert len(ad.edges) == 2


def test_fixture_adv2_shape(adv):
    ad = adv[1]
    kinds = [n.kind for n in ad.nodes]
    assert kinds.count(NodeKind.FORK) == 1
    assert kinds.count(NodeKind.DECISION) == 1
    assert guard_of(ad, "route", "getWelcomePackage") == GuardVar("isInternal")
    assert guard_of(ad, "route", "assignExternalProject") == GuardNot(GuardVar("isInternal"))
    (decl,) = ad.input_vars()
    assert decl.name == "isInternal" and decl.is_bool()


@pytest.mark.parametrize("name", ["adv1.ad", "adv2.ad", "adv3.ad", "adv4.ad"])
def test_fixture_round_trip(name):
    ad = parse_ad(fixture_text(name))
    assert parse_ad(print_ad(ad)) == ad


def test_round_trip_with_variables_and_assignments():
    source = """
    activity A {
      input mode: {fast, slow};
      local tries: {none, one, many} = one;
      local flag: bool;
      action a / flag := true, tries := many;
      decision d;
      start -> a;
      a -> d;
      d -[mode == fast && !flag]-> b;
      d -[mode != fast || flag]-> c;
      action b;
      action c;
      b -> end;
      c -> end;
    }
    """
    ad = parse_ad(source)
    assert parse_ad(print_ad(ad)) == ad
    tries = next(v for v in ad.variables if v.name == "tries")
    assert tries.kind is VarKind.LOCAL and tries.initial == "one"
    flag = next(v for v in ad.variables if v.name == "flag")
    assert flag.initial == "false"  # locals default to the first domain value


def test_extra_final_nodes():
    ad = parse_ad("activity A { action a; final f; start -> a; a -> f; }")
    finals = [n.name for n in ad.nodes if n.kind is NodeKind.FINAL]
    assert finals == ["f"]
    assert "final f;" in print_ad(ad)
    assert parse_ad(print_ad(ad)) == ad


def test_node_may_reuse_declaration_keywords():
    # Lookahead keeps "input -> end;" an edge while "action input;" declares
    # a node called input.
    ad = parse_ad("activity A { action input; start -> input; input -> end; }")
    assert {n.name: n.kind for n in ad.nodes}["input"] is NodeKind.ACTION


def test_guard_precedence():
    ad = parse_ad(
        """
        activity A {
          input p: bool; input q: bool; input r: bool;
          decision d; action a; action b;
          start -> d0; action d0; d0 -> d;
          d -[p && q || r]-> a;
          d -[!(p || q) && r]-> b;
          a -> end; b -> end;
        }
        """
    )
    assert guard_of(ad, "d", "a") == GuardOr(
        GuardAnd(GuardVar("p"), GuardVar("q")), GuardVar("r")
    )
    assert guard_of(ad, "d", "b") == GuardAnd(
        GuardNot(GuardOr(GuardVar("p"), GuardVar("q"))), GuardVar("r")
    )


def test_print_guard_restores_parentheses():
    guard = GuardAnd(GuardOr(GuardVar("p"), GuardLit(False)), GuardNot(GuardVar("q")))
    assert print_guard(guard) == "(p || false) && !q"


def nested_guard_diagram(guard):
    return (
        "activity A {\n  input p: bool;\n  decision d; action a; action b;\n"
        f"  start -> d;\n  d -[{guard}]-> a;\n  d -[!p]-> b;\n  a -> end; b -> end;\n}}\n"
    )


def test_guard_nesting_up_to_the_limit_parses():
    # 50 negations inside 50 parentheses, and a conjunction 100 levels deep.
    # The records' hash, ==, pickling and repr recurse once per level or more,
    # and the parser's bound keeps them inside the default recursion limit.
    assert sys.getrecursionlimit() == 1000
    for guard in ("!(" * 50 + "p" + ")" * 50, " && ".join(["p"] * 100)):
        text = nested_guard_diagram(guard)
        ad, again = parse_ad(text), parse_ad(text)
        copy = pickle.loads(pickle.dumps(ad))
        assert ad == again == copy
        assert hash(ad) == hash(again) == hash(copy)
        assert repr(copy) == repr(ad)


@pytest.mark.parametrize(
    "guard, col",
    [
        ("!" * 101 + "p", 107),
        ("(" * 101 + "p" + ")" * 101, 107),
        ("!(" * 500 + "p" + ")" * 500, 107),
        (" && ".join(["p"] * 101), 7),
        ("(" + " || ".join(["p"] * 5000) + ")", 7),
    ],
    ids=["negations", "parentheses", "negated-parentheses", "conjunction", "disjunction"],
)
def test_guard_nested_too_deep_is_a_positioned_error(guard, col):
    with pytest.raises(ParseError) as exc:
        parse_ad(nested_guard_diagram(guard))
    (diag,) = exc.value.diagnostics
    assert (diag.line, diag.col) == (5, col)
    assert diag.message == "guard nested more than 100 levels deep"


def test_guard_comparison_forms():
    ad = parse_ad(
        """
        activity A {
          input mode: {fast, slow};
          action a; action b; decision d;
          start -> a; a -> d;
          d -[mode == fast]-> b;
          d -[mode != fast]-> c;
          action c;
          b -> end; c -> end;
        }
        """
    )
    assert guard_of(ad, "d", "b") == GuardCmp("mode", "==", "fast")
    assert guard_of(ad, "d", "c") == GuardCmp("mode", "!=", "fast")


def variable_cases():
    return [
        ("input isInternal: bool = true;", "cannot be initialized"),
        ("input mode: {only};", "at least two values"),
        ("local flag: bool; local flag: bool;", "duplicate variable 'flag'"),
        ("local mode: {a, a};", "repeats a value"),
        ("local mode: {true, off};", "reserved values true/false"),
        ("local mode: {on, off} = broken;", "outside the domain"),
    ]


@pytest.mark.parametrize("decl, fragment", variable_cases())
def test_variable_declaration_errors(decl, fragment):
    with pytest.raises(ParseError) as err:
        parse_ad(f"activity A {{ {decl} start -> a; action a; a -> end; }}")
    assert any(fragment in d.message for d in err.value.diagnostics)


def assignment_cases():
    return [
        ("action a / ghost := true;", "undeclared variable 'ghost'"),
        ("action a / flag := sideways;", "outside the domain of 'flag'"),
        ("action a / flag := mode;", "domains differ"),
    ]


@pytest.mark.parametrize("decl, fragment", assignment_cases())
def test_assignment_errors(decl, fragment):
    source = f"""
    activity A {{
      local flag: bool;
      local mode: {{on, off}};
      {decl}
      start -> a; a -> end;
    }}
    """
    with pytest.raises(ParseError) as err:
        parse_ad(source)
    assert any(fragment in d.message for d in err.value.diagnostics)


def test_assignment_prefers_variable_over_value():
    ad = parse_ad(
        """
        activity A {
          local x: bool; local y: bool;
          action a / x := y;
          start -> a; a -> end;
        }
        """
    )
    (assign,) = next(n for n in ad.nodes if n.name == "a").assignments
    assert assign.source == "y" and assign.source_is_var


@pytest.mark.parametrize("source, expected", [
    # A guard `true` is the literal, so `flag := true` may not read a
    # variable of that name.
    ("activity A {\n local true: bool;\n local flag: bool;\n action a / flag := true;\n"
     " start -> a; a -> end; }",
     ["2:8: 'true' is a reserved value and cannot name a variable",
      "4:21: 'true' names both a variable and a value of 'flag'"]),
    # `x == lo` in a guard compares with the literal, so `x := lo` may not
    # read the variable `lo`.
    ("activity A {\n local lo: {lo, hi} = hi;\n local x: {lo, hi};\n action a / x := lo;\n"
     " start -> a; a -> end; }",
     ["4:18: 'lo' names both a variable and a value of 'x'"]),
])
def test_a_name_that_reads_two_ways_is_a_positioned_error(source, expected):
    with pytest.raises(ParseError) as err:
        parse_ad(source)
    assert [str(d) for d in err.value.diagnostics] == expected


def guard_error_cases():
    return [
        ("d -[ghost]-> b;", "undeclared variable 'ghost'"),
        ("d -[mode]-> b;", "non-bool variable 'mode'"),
        ("d -[mode == sideways]-> b;", "outside its domain"),
        ("d -[!(true && (false || ghost))]-> b;", "undeclared variable 'ghost'"),
        ("d -[(true || !(mode)) && true]-> b;", "non-bool variable 'mode'"),
        ("d -[!!(false || mode != sideways)]-> b;", "outside its domain"),
    ]


@pytest.mark.parametrize("edge, fragment", guard_error_cases())
def test_guard_errors(edge, fragment):
    source = f"""
    activity A {{
      input mode: {{on, off}};
      action a; action b; action c; decision d;
      start -> a; a -> d;
      {edge}
      d -[true]-> c;
      b -> end; c -> end;
    }}
    """
    with pytest.raises(ParseError) as err:
        parse_ad(source)
    assert any(fragment in d.message for d in err.value.diagnostics)


def test_guard_errors_come_left_to_right_through_every_operator():
    source = """activity A {
  input mode: {on, off};
  input p: bool;
  action a; action b; decision d;
  start -> d;
  d -[!(ghost || mode) && (p || !(mode == sideways || nobody))]-> a;
  d -[true]-> b;
  a -> end; b -> end;
}
"""
    with pytest.raises(ParseError) as err:
        parse_ad(source)
    assert [str(d) for d in err.value.diagnostics] == [
        "6:3: guard references undeclared variable 'ghost'",
        "6:3: guard uses non-bool variable 'mode' as a condition",
        "6:3: guard compares 'mode' with 'sideways', which is outside its domain",
        "6:3: guard references undeclared variable 'nobody'",
    ]


def structure_cases():
    return [
        (
            "activity A { action a; action b; start -> a; a -[true]-> b; b -> end; }",
            "guard on an edge leaving non-decision node 'a'",
        ),
        (
            "activity A { action a; action b; decision d; start -> a; a -> d;"
            " d -> b; d -[true]-> b2; action b2; b -> end; b2 -> end; }",
            "unguarded edge leaving decision node 'd'",
        ),
        ("activity A { action a; a -> end; }", "no initial node"),
        ("activity A { action a; start -> a; a -> a; }", "no final node"),
        (
            "activity A { action a; action b; start -> a; start -> b; a -> end; b -> end; }",
            "'start' must have exactly one outgoing edge, found 2",
        ),
        (
            "activity A { action a; start -> a; a -> end; end -> a; }",
            "cannot have outgoing edges",
        ),
        (
            "activity A { action a; action b; start -> a; a -> b; a -> end; b -> end; }",
            "action node 'a' must have exactly one outgoing edge, found 2",
        ),
        (
            "activity A { merge m; action a; start -> a; a -> m; m -> end; m -> a; }",
            "merge node 'm' must have exactly one outgoing edge, found 2",
        ),
        (
            "activity A { decision d; action a; start -> a; a -> d; d -[true]-> end; }",
            "needs at least two outgoing edges",
        ),
        (
            "activity A { fork f; action a; action b; start -> f; a -> f; f -> b; f -> c;"
            " action c; b -> end; c -> end; }",
            "fork node 'f' must have exactly one incoming edge, found 2",
        ),
        (
            "activity A { join j; action a; start -> a; a -> j; j -> end; }",
            "join node 'j' needs at least two incoming edges, found 1",
        ),
        (
            "activity A { action a; action b; start -> a; a -> end; b -> end; }",
            "node 'b' is unreachable from 'start'",
        ),
        (
            "activity A { action start; start -> end; }",
            "'start' is reserved",
        ),
        (
            "activity A { start -> ghost; ghost -> end; }",
            "unknown node 'ghost'",
        ),
        (
            "activity A { action a; action a; start -> a; a -> end; }",
            "duplicate node name 'a'",
        ),
    ]


@pytest.mark.parametrize("source, fragment", structure_cases())
def test_structure_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_ad(source)
    assert any(fragment in d.message for d in err.value.diagnostics), [
        d.message for d in err.value.diagnostics
    ]


@pytest.mark.parametrize("source, expected", [
    (
        "activity A { action a; start -> a; a -> start; a -> end; }",
        ["1:21: action node 'a' must have exactly one outgoing edge, found 2",
         "1:24: 'start' cannot have incoming edges"],
    ),
    (
        "activity A { final f; action a; start -> a; a -> end; }",
        ["1:20: final node 'f' is never reached by an edge",
         "1:20: node 'f' is unreachable from 'start'"],
    ),
    (
        "activity A { decision d; action a; action b; start -> a; a -> d; b -> d; d -[true]-> end; }",
        ["1:23: decision node 'd' must have exactly one incoming edge, found 2",
         "1:23: decision node 'd' needs at least two outgoing edges, found 1",
         "1:43: node 'b' is unreachable from 'start'"],
    ),
    (
        "activity A { fork f; join j; action a; start -> f; f -> a; a -> j; j -> end; j -> a; }",
        ["1:19: fork node 'f' needs at least two outgoing edges, found 1",
         "1:27: join node 'j' needs at least two incoming edges, found 1",
         "1:27: join node 'j' must have exactly one outgoing edge, found 2"],
    ),
    (
        "activity A { action a; start -> a; a -> a; end -> a; }",
        ["1:44: final node 'end' cannot have outgoing edges",
         "1:44: final node 'end' is never reached by an edge",
         "1:44: node 'end' is unreachable from 'start'"],
    ),
])
def test_edge_count_errors_keep_their_wording_order_and_position(source, expected):
    with pytest.raises(ParseError) as err:
        parse_ad(source)
    assert [str(d) for d in err.value.diagnostics] == expected


def test_an_unclosed_body_fails_at_the_end_of_input():
    with pytest.raises(ParseError) as err:
        parse_ad("activity A {")
    assert [str(d) for d in err.value.diagnostics] == ["1:13: expected '}', found end of input"]


def test_every_diagnostic_is_positioned():
    with pytest.raises(ParseError) as err:
        parse_ad("activity A { action a; action a; start -> a; a -> end; }")
    for d in err.value.diagnostics:
        assert d.line >= 1 and d.col >= 1
