"""Every value type is a ``lexer.Record``: it is built from positional,
keyword and default arguments, has an exact ``repr``, compares and hashes by
its fields but ``pos``, pickles, and can be neither assigned nor deleted.

Each case is (record, its exact ``repr``, the tuple its ``==`` and ``hash``
compare: every field but ``pos``)."""

import pickle

import pytest

from semdiff.ad_lang import (
    ActivityDiagram,
    Assign,
    Edge,
    GuardAnd,
    GuardCmp,
    GuardLit,
    GuardNot,
    GuardOr,
    GuardVar,
    Node,
    NodeKind,
    VarDecl,
    VarKind,
)
from semdiff.ad_semantics import Config, Nfa, Trace
from semdiff.cd_lang import Association, ClassDecl, ClassDiagram, ClassModifier, Multiplicity
from semdiff.cd_semantics import ObjectModel, Violation, ViolationKind
from semdiff.cli import HistoryRow
from semdiff.lexer import Diagnostic, Record
from semdiff.verdict import DiffResult, Verdict, VerdictValue

P, X = GuardVar("p"), GuardCmp("x", "!=", "lo")
MANY, ONE = Multiplicity(0, None), Multiplicity(1, 1)
BOOL_P = VarDecl("p", VarKind.INPUT, ("false", "true"))
TAKE = Assign("q", "true")
EQUIVALENT = Verdict(VerdictValue.EQUIVALENT, True)

FROZEN = [
    (Diagnostic(3, 7, "expected ';'"),
     "Diagnostic(line=3, col=7, message=\"expected ';'\")", (3, 7, "expected ';'")),
    (EQUIVALENT, "Verdict(value=<VerdictValue.EQUIVALENT: 'EQUIVALENT'>, bounded=True)",
     (VerdictValue.EQUIVALENT, True)),
    (VarDecl("x", VarKind.INPUT, ("lo", "hi"), None, (2, 3)),
     "VarDecl(name='x', kind=<VarKind.INPUT: 'input'>, domain=('lo', 'hi'), initial=None,"
     " pos=(2, 3))", ("x", VarKind.INPUT, ("lo", "hi"), None)),
    (VarDecl("q", VarKind.LOCAL, ("false", "true"), "true"),
     "VarDecl(name='q', kind=<VarKind.LOCAL: 'local'>, domain=('false', 'true'),"
     " initial='true', pos=(0, 0))", ("q", VarKind.LOCAL, ("false", "true"), "true")),
    (GuardLit(True), "GuardLit(value=True)", (True,)),
    (P, "GuardVar(var='p')", ("p",)),
    (X, "GuardCmp(var='x', op='!=', value='lo')", ("x", "!=", "lo")),
    (GuardNot(GuardLit(False)), "GuardNot(inner=GuardLit(value=False))", (GuardLit(False),)),
    (GuardAnd(P, GuardNot(X)),
     "GuardAnd(left=GuardVar(var='p'), right=GuardNot(inner=GuardCmp(var='x', op='!=',"
     " value='lo')))", (P, GuardNot(X))),
    (GuardOr(P, GuardLit(False)),
     "GuardOr(left=GuardVar(var='p'), right=GuardLit(value=False))", (P, GuardLit(False))),
    (Assign("q", "p", True), "Assign(target='q', source='p', source_is_var=True)",
     ("q", "p", True)),
    (TAKE, "Assign(target='q', source='true', source_is_var=False)", ("q", "true", False)),
    (Node("a", NodeKind.ACTION, (TAKE,), (4, 1)),
     "Node(name='a', kind=<NodeKind.ACTION: 'action'>, assignments=(Assign(target='q',"
     " source='true', source_is_var=False),), pos=(4, 1))", ("a", NodeKind.ACTION, (TAKE,))),
    (Edge("d", "a", P, (5, 9)), "Edge(src='d', dst='a', guard=GuardVar(var='p'), pos=(5, 9))",
     ("d", "a", P)),
    (Edge("start", "a"), "Edge(src='start', dst='a', guard=None, pos=(0, 0))",
     ("start", "a", None)),
    (ActivityDiagram("A", (BOOL_P,), (Node("a", NodeKind.ACTION),), (Edge("start", "a"),)),
     "ActivityDiagram(name='A', variables=(VarDecl(name='p', kind=<VarKind.INPUT: 'input'>,"
     " domain=('false', 'true'), initial=None, pos=(0, 0)),), nodes=(Node(name='a',"
     " kind=<NodeKind.ACTION: 'action'>, assignments=(), pos=(0, 0)),), edges=(Edge("
     "src='start', dst='a', guard=None, pos=(0, 0)),))",
     ("A", (BOOL_P,), (Node("a", NodeKind.ACTION),), (Edge("start", "a"),))),
    (Config(frozenset({1, 3}), (("p", "true"),)),
     "Config(marking=frozenset({1, 3}), state=(('p', 'true'),))",
     (frozenset({1, 3}), (("p", "true"),))),
    (Trace((("p", "true"),), ("a", "b")), "Trace(inputs=(('p', 'true'),), actions=('a', 'b'))",
     ((("p", "true"),), ("a", "b"))),
    (Nfa(2, frozenset({"a"}), ((0, "a", 1), (0, None, 1)), 0, frozenset({1})),
     "Nfa(n_states=2, alphabet=frozenset({'a'}), transitions=((0, 'a', 1), (0, None, 1)),"
     " initial=0, accepting=frozenset({1}))",
     (2, frozenset({"a"}), ((0, "a", 1), (0, None, 1)), 0, frozenset({1}))),
    (MANY, "Multiplicity(min=0, max=None)", (0, None)),
    (ClassDecl("A", ClassModifier.ABSTRACT, (2, 3)),
     "ClassDecl(name='A', modifier=<ClassModifier.ABSTRACT: 'abstract'>, pos=(2, 3))",
     ("A", ClassModifier.ABSTRACT)),
    (ClassDecl("B"), "ClassDecl(name='B', modifier=<ClassModifier.CONCRETE: 'concrete'>,"
     " pos=(0, 0))", ("B", ClassModifier.CONCRETE)),
    (Association("r", "A", MANY, "B", ONE, (3, 1)),
     "Association(name='r', left_class='A', left_mult=Multiplicity(min=0, max=None),"
     " right_class='B', right_mult=Multiplicity(min=1, max=1), pos=(3, 1))",
     ("r", "A", MANY, "B", ONE)),
    (ClassDiagram("C", (ClassDecl("A"),), (("B", "A"),), ()),
     "ClassDiagram(name='C', classes=(ClassDecl(name='A', modifier=<ClassModifier.CONCRETE:"
     " 'concrete'>, pos=(0, 0)),), extends=(('B', 'A'),), associations=())",
     ("C", (ClassDecl("A"),), (("B", "A"),), ())),
    (Violation(ViolationKind.MULTIPLICITY, "r", "too many"),
     "Violation(kind=<ViolationKind.MULTIPLICITY: 'MULTIPLICITY'>, subject='r',"
     " detail='too many')", (ViolationKind.MULTIPLICITY, "r", "too many")),
    (HistoryRow("a.ad", "b.ad", EQUIVALENT, 0, 0),
     "HistoryRow(from_file='a.ad', to_file='b.ad', verdict=Verdict(value=<VerdictValue."
     "EQUIVALENT: 'EQUIVALENT'>, bounded=True), forward=0, backward=0)",
     ("a.ad", "b.ad", EQUIVALENT, 0, 0)),
]

UNHASHABLE = [
    (DiffResult([Trace((("p", "true"),), ("a",))], False),
     "DiffResult(witnesses=[Trace(inputs=(('p', 'true'),), actions=('a',))], exhausted=False)"),
    (ObjectModel("om", {"a1": "A"}, frozenset({("r", "a1", "a1")})),
     "ObjectModel(name='om', objects={'a1': 'A'}, links=frozenset({('r', 'a1', 'a1')}))"),
]


def case_id(case):
    return type(case[0]).__name__


def test_every_value_type_is_a_record():
    types = {type(case[0]) for case in FROZEN + UNHASHABLE}
    assert len(types) == 24 and all(issubclass(t, Record) for t in types)


@pytest.mark.parametrize("record, text, key", FROZEN, ids=map(case_id, FROZEN))
def test_frozen_records_repr_compare_hash_and_pickle(record, text, key):
    assert repr(record) == text
    assert hash(record) == hash(key)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and repr(copy) == text and hash(copy) == hash(key)
    assert record != key  # another class, even with the same values
    field = next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize("record, text", UNHASHABLE, ids=map(case_id, UNHASHABLE))
def test_records_holding_a_dict_or_list_are_frozen_but_unhashable(record, text):
    assert repr(record) == text
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and repr(copy) == text
    with pytest.raises(TypeError):
        hash(record)
    field = next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, "changed")
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize("make", [
    lambda: Edge("a"),
    lambda: Edge(dst="b"),
    lambda: Multiplicity(0, 1, 2),
    lambda: Edge("a", "b", P, (1, 1), None),
    lambda: Edge("a", "b", label="x"),
    lambda: Edge("a", "b", src="c"),
], ids=["missing", "missing-first", "too-many", "too-many-with-defaults", "unknown-keyword",
        "positional-and-keyword"])
def test_wrong_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_defaults_fill_in_around_keyword_arguments():
    edge = Edge("a", "b", pos=(3, 4))
    assert (edge.guard, edge.pos) == (None, (3, 4))
    assert repr(edge) == "Edge(src='a', dst='b', guard=None, pos=(3, 4))"
    assert Edge(dst="b", src="a", guard=P) == Edge("a", "b", P, (9, 9))
    assert VarDecl("q", VarKind.LOCAL, ("false", "true"), pos=(2, 1)).initial is None
    assert Node("a", kind=NodeKind.ACTION).assignments == ()


@pytest.mark.parametrize("make", [
    lambda pos: VarDecl("x", VarKind.INPUT, ("lo", "hi"), pos=pos),
    lambda pos: Node("a", NodeKind.ACTION, pos=pos),
    lambda pos: Edge("a", "b", P, pos),
    lambda pos: ClassDecl("A", pos=pos),
    lambda pos: Association("r", "A", MANY, "B", ONE, pos),
], ids=["VarDecl", "Node", "Edge", "ClassDecl", "Association"])
def test_equality_and_hash_ignore_the_source_position(make):
    here, there = make((1, 1)), make((7, 2))
    assert here == there and hash(here) == hash(there)
    assert repr(here) != repr(there)


def test_records_of_different_classes_with_equal_fields_differ():
    assert GuardAnd(P, X) != GuardOr(P, X)
    assert GuardAnd(P, X) == GuardAnd(GuardVar("p"), GuardCmp("x", "!=", "lo"))
    assert len({GuardAnd(P, X), GuardOr(P, X), GuardAnd(P, X)}) == 2
    assert Diagnostic(1, 2, "m") != (1, 2, "m")
