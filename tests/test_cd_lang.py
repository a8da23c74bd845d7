import pytest
from hypothesis import given, strategies as st

from semdiff.cd_lang import (
    ClassDecl,
    ClassDiagram,
    ClassModifier,
    Multiplicity,
    closures_of,
    parse_cd,
    print_cd,
)
from semdiff.lexer import ParseError

from conftest import fixture_text


def test_minimal_diagram():
    cd = parse_cd("classdiagram C { class A; }")
    assert cd.name == "C"
    assert [c.name for c in cd.classes] == ["A"]
    assert cd.classes[0].modifier is ClassModifier.CONCRETE
    assert cd.extends == ()
    assert cd.associations == ()


def test_modifiers_and_extends():
    cd = parse_cd(
        """
        classdiagram C {
          abstract class Base;
          singleton class Config;
          class Leaf extends Base;
        }
        """
    )
    mods = {c.name: c.modifier for c in cd.classes}
    assert mods["Base"] is ClassModifier.ABSTRACT
    assert mods["Config"] is ClassModifier.SINGLETON
    assert mods["Leaf"] is ClassModifier.CONCRETE
    assert cd.extends == (("Leaf", "Base"),)


def test_fixture_cd1v2_shape(cd1v2):
    assert ("Manager", "Employee") in cd1v2.extends
    (assoc,) = cd1v2.associations
    assert assoc.name == "worksOn"
    assert assoc.left_mult == Multiplicity(0, None)
    assert assoc.right_mult == Multiplicity(0, 2)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("[*]", Multiplicity(0, None)),
        ("[3]", Multiplicity(3, 3)),
        ("[1..4]", Multiplicity(1, 4)),
        ("[2..*]", Multiplicity(2, None)),
        ("", Multiplicity(0, None)),  # omitted end defaults to *
    ],
)
def test_multiplicity_forms(source, expected):
    cd = parse_cd(f"classdiagram C {{ class A; association r {source} A -- A; }}")
    assert cd.associations[0].left_mult == expected


def test_multiplicity_admits():
    assert Multiplicity(0, 2).admits(0)
    assert Multiplicity(0, 2).admits(2)
    assert not Multiplicity(0, 2).admits(3)
    assert Multiplicity(1, None).admits(100)
    assert not Multiplicity(1, None).admits(0)


@pytest.mark.parametrize("name", ["cd1v1.cd", "cd1v2.cd", "cd5v1.cd", "cd5v2.cd"])
def test_fixture_round_trip(name):
    cd = parse_cd(fixture_text(name))
    assert parse_cd(print_cd(cd)) == cd


@given(
    lo=st.integers(min_value=0, max_value=9),
    span=st.none() | st.integers(min_value=0, max_value=9),
)
def test_multiplicity_round_trips_through_assoc_text(lo, span):
    mult = Multiplicity(lo, None if span is None else lo + span)
    cd = parse_cd(f"classdiagram C {{ class A; association r [{mult}] A -- A [*]; }}")
    assert cd.associations[0].left_mult == mult


def test_positions_do_not_affect_equality():
    compact = parse_cd("classdiagram C { class A; class B extends A; }")
    spread = parse_cd("classdiagram C {\n\n  class A;\n\n  class B extends A;\n}")
    assert compact == spread


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("classdiagram C { class A; class A; }", "duplicate class name 'A'"),
        (
            "classdiagram C { class A; association r A -- A; association r A -- A; }",
            "duplicate association name 'r'",
        ),
        ("classdiagram C { class A extends Ghost; }", "extends unknown class 'Ghost'"),
        (
            "classdiagram C { class A; association r A -- Ghost; }",
            "references unknown class 'Ghost'",
        ),
        ("classdiagram C { class A extends A; }", "inheritance cycle through 'A'"),
        (
            "classdiagram C { class A extends B; class B extends A; }",
            "inheritance cycle",
        ),
        ("classdiagram C { class A; association r [2..1] A -- A; }", "min > max"),
        ("classdiagram C { class A; association r [ A -- A; }", "expected a number, found 'A'"),
        ("classdiagram C { class A; association r [* A -- A; }", "expected ']', found 'A'"),
        ("classdiagram C { class A; association r [1.. A -- A; }", "expected a number, found 'A'"),
        ("classdiagram C { class A; association r [1..* A -- A; }", "expected ']', found 'A'"),
        ("classdiagram C { class A; association r [x] A -- A; }", "expected a number, found 'x'"),
        (
            "classdiagram C { class A; association r [3..1] A -- A; }",
            "multiplicity 3..1 has min > max",
        ),
        ("classdiagram C { class A }", "expected ';'"),
        ("classdiagram C { class A;", "expected '}', found end of input"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_cd(source)
    assert any(fragment in d.message for d in err.value.diagnostics)


def test_validation_collects_multiple_problems():
    with pytest.raises(ParseError) as err:
        parse_cd(
            """
            classdiagram C {
              class A;
              class A;
              association r A -- Ghost;
            }
            """
        )
    messages = [d.message for d in err.value.diagnostics]
    assert len(messages) == 2
    assert all(d.line > 0 for d in err.value.diagnostics)


def test_error_position_points_at_offender():
    with pytest.raises(ParseError) as err:
        parse_cd("classdiagram C {\n  class A;\n  class A;\n}")
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.col) == (3, 3)


def test_closures_with_inheritance(cd1v1, cd1v2):
    assert cd1v2.closures["Employee"] == {"Employee", "Manager"}
    assert cd1v1.closures["Employee"] == {"Employee"}
    assert cd1v2.closures["Task"] == {"Task"}


def test_closures_are_transitive():
    cd = parse_cd(
        "classdiagram C { class A; class B extends A; class C extends B; }"
    )
    assert cd.closures == {"A": {"A", "B", "C"}, "B": {"B", "C"}, "C": {"C"}}


def test_closures_hold_only_declared_classes():
    cd = parse_cd("classdiagram C { class A; }")
    assert cd.closures == {"A": {"A"}}


def test_a_class_that_is_not_declared_has_an_empty_closure():
    closures = parse_cd("classdiagram C { class A; }").closures
    assert closures["B"] == frozenset()
    assert "B" not in closures


def test_closures_leave_equality_hash_and_repr_alone():
    text = "classdiagram C { class A; class B extends A; }"
    cd, fresh = parse_cd(text), parse_cd(text)
    before = (hash(cd), repr(cd))
    assert cd.closures == {"A": {"A", "B"}, "B": {"B"}}
    assert "closures" in vars(cd) and "closures" not in vars(fresh)
    assert (cd == fresh, hash(cd), repr(cd)) == (True, *before)


def test_closure_tolerates_cycles():
    # Validation rejects cyclic extends, but the closure helper itself must
    # not loop forever when handed one directly.
    assert closures_of((("A", "B"), ("B", "A")), ("A", "B")) == {
        "A": {"A", "B"},
        "B": {"A", "B"},
    }


def test_print_rejects_multiple_parents():
    cd = ClassDiagram(
        "C",
        (ClassDecl("A"), ClassDecl("B"), ClassDecl("D")),
        (("D", "A"), ("D", "B")),
        (),
    )
    with pytest.raises(ValueError, match="multiple parents"):
        print_cd(cd)


def test_each_extends_declaration_keeps_its_own_position():
    with pytest.raises(ParseError) as err:
        parse_cd("classdiagram X {\n class A extends P;\n class A extends Q;\n}")
    lines = {d.message: d.line for d in err.value.diagnostics}
    assert lines["'A' extends unknown class 'P'"] == 2
    assert lines["'A' extends unknown class 'Q'"] == 3


def test_inheritance_cycles_name_only_the_classes_on_them():
    # A leads into the cycle B -> C -> B but is not on it.
    with pytest.raises(ParseError) as err:
        parse_cd("classdiagram X {\n class A extends B;\n class B extends C;\n class C extends B;\n}")
    assert [str(d) for d in err.value.diagnostics] == [
        "3:2: inheritance cycle through 'B'",
        "4:2: inheritance cycle through 'C'",
    ]
