import pickle
import random
from itertools import product

import pytest

import generators
from semdiff.cd_lang import (
    MANY,
    Association,
    ClassDecl,
    ClassDiagram,
    ClassModifier,
    Multiplicity,
    parse_cd,
    print_cd,
)
from semdiff.cd_semantics import (
    ObjectModel,
    Violation,
    ViolationKind,
    count_vectors,
    is_instance,
    object_id_prefixes,
    parse_om,
    print_om,
    violations,
)
from semdiff.lexer import ParseError

from helpers import reference_is_instance, reference_object_id_prefixes
from oracles import compatible_pairs, reference_object_models, vocabulary_of


def kinds(om, cd):
    return [v.kind for v in is_instance(om, cd)[1]]


# ---------------------------------------------------------------------------
# object model text


def test_parse_om_minimal():
    om = parse_om("objectmodel m { e1: Employee; }")
    assert om.name == "m"
    assert om.objects == {"e1": "Employee"}
    assert om.links == frozenset()


def test_parse_om_links():
    om = parse_om(
        """
        objectmodel m {
          e1: Employee;
          t1: Task;
          link worksOn e1 -- t1;
        }
        """
    )
    assert om.links == {("worksOn", "e1", "t1")}


def test_om_round_trip():
    source = print_om(
        ObjectModel(
            "m",
            {"b1": "B", "a1": "A"},
            frozenset({("r", "b1", "a1"), ("r", "a1", "b1")}),
        )
    )
    assert print_om(parse_om(source)) == source


def test_print_om_is_canonical():
    # Insertion order of objects and links must not leak into the text.
    om1 = ObjectModel("m", {"a1": "A", "b1": "B"}, frozenset({("r", "a1", "b1")}))
    om2 = ObjectModel("m", {"b1": "B", "a1": "A"}, frozenset({("r", "a1", "b1")}))
    assert print_om(om1) == print_om(om2)
    lines = print_om(om1).splitlines()
    assert lines[1] == "  a1: A;"
    assert lines[2] == "  b1: B;"
    assert lines[3] == "  link r a1 -- b1;"


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("objectmodel m { e1: A; e1: B; }", "duplicate object id 'e1'"),
        ("objectmodel m { link r a -- b; }", "unknown object 'a'"),
        ("objectmodel m { e1: A;", "expected '}'"),
    ],
)
def test_parse_om_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_om(source)
    assert any(fragment in d.message for d in err.value.diagnostics)


def test_object_named_link_is_not_a_link_decl():
    # "link" only introduces a link when followed by an identifier chain;
    # "link: Class;" is an ordinary object named link.
    om = parse_om("objectmodel m { link: Hyperlink; }")
    assert om.objects == {"link": "Hyperlink"}


# ---------------------------------------------------------------------------
# instance checking


def test_plain_instance(cd1v1):
    om = parse_om(
        """
        objectmodel m {
          e1: Employee; t1: Task;
          link worksOn e1 -- t1;
        }
        """
    )
    ok, violations = is_instance(om, cd1v1)
    assert ok
    assert violations == []


def test_empty_model_is_instance_of_unconstrained_cd(cd1v1):
    assert is_instance(ObjectModel("m", {}, frozenset()), cd1v1)[0]


def test_unknown_class():
    cd = parse_cd("classdiagram C { class A; }")
    om = ObjectModel("m", {"x1": "Ghost"}, frozenset())
    assert kinds(om, cd) == [ViolationKind.UNKNOWN_CLASS]
    (violation,) = is_instance(om, cd)[1]
    assert str(violation) == "UNKNOWN_CLASS: object 'x1' has class 'Ghost' not declared in 'C'"


def test_abstract_class_cannot_be_instantiated(cd5v2):
    om = ObjectModel("m", {"person1": "Person"}, frozenset())
    assert kinds(om, cd5v2) == [ViolationKind.ABSTRACT_INSTANTIATED]
    # but its concrete subclass can
    assert is_instance(ObjectModel("m", {"employee1": "Employee"}, frozenset()), cd5v2)[0]


def test_singleton_requires_exactly_one():
    cd = parse_cd("classdiagram C { singleton class A; }")
    assert kinds(ObjectModel("m", {}, frozenset()), cd) == [ViolationKind.SINGLETON_COUNT]
    assert is_instance(ObjectModel("m", {"a1": "A"}, frozenset()), cd)[0]
    assert kinds(ObjectModel("m", {"a1": "A", "a2": "A"}, frozenset()), cd) == [
        ViolationKind.SINGLETON_COUNT
    ]


def test_singleton_counts_subclass_instances():
    cd = parse_cd("classdiagram C { singleton class Base; class Leaf extends Base; }")
    assert is_instance(ObjectModel("m", {"leaf1": "Leaf"}, frozenset()), cd)[0]
    om = ObjectModel("m", {"base1": "Base", "leaf1": "Leaf"}, frozenset())
    assert kinds(om, cd) == [ViolationKind.SINGLETON_COUNT]


def test_unknown_association(cd1v1):
    om = ObjectModel(
        "m",
        {"e1": "Employee", "t1": "Task"},
        frozenset({("mentors", "e1", "t1")}),
    )
    assert kinds(om, cd1v1) == [ViolationKind.UNKNOWN_ASSOCIATION]


def test_bad_endpoint_without_inheritance(cd1v1):
    om = ObjectModel(
        "m",
        {"m1": "Manager", "t1": "Task"},
        frozenset({("worksOn", "m1", "t1")}),
    )
    assert ViolationKind.BAD_ENDPOINT in kinds(om, cd1v1)


def test_subclass_objects_satisfy_endpoints(cd1v2):
    om = ObjectModel(
        "m",
        {"m1": "Manager", "t1": "Task"},
        frozenset({("worksOn", "m1", "t1")}),
    )
    assert is_instance(om, cd1v2)[0]


def test_multiplicity_upper_bound_on_outgoing_links(cd1v2):
    objects = {"e1": "Employee", "t1": "Task", "t2": "Task", "t3": "Task"}
    links = frozenset({("worksOn", "e1", t) for t in ("t1", "t2", "t3")})
    om = ObjectModel("m", objects, links)
    violations = is_instance(om, cd1v2)[1]
    assert [v.kind for v in violations] == [ViolationKind.MULTIPLICITY]
    assert "3 outgoing" in violations[0].detail


def test_multiplicity_constrains_incoming_links_via_left_end():
    cd = parse_cd(
        "classdiagram C { class A; class B; association r [0..1] A -- B; }"
    )
    objects = {"a1": "A", "a2": "A", "b1": "B"}
    links = frozenset({("r", "a1", "b1"), ("r", "a2", "b1")})
    violations = is_instance(ObjectModel("m", objects, links), cd)[1]
    assert [v.kind for v in violations] == [ViolationKind.MULTIPLICITY]
    assert "incoming" in violations[0].detail


def test_multiplicity_lower_bound_applies_per_object():
    cd = parse_cd("classdiagram C { class A; class B; association r [1] A -- B; }")
    # every B object needs exactly one incoming r link
    alone = ObjectModel("m", {"b1": "B"}, frozenset())
    assert kinds(alone, cd) == [ViolationKind.MULTIPLICITY]
    paired = ObjectModel("m", {"a1": "A", "b1": "B"}, frozenset({("r", "a1", "b1")}))
    assert is_instance(paired, cd)[0]
    # with no objects at all there is nothing to constrain
    assert is_instance(ObjectModel("m", {}, frozenset()), cd)[0]


def test_both_ends_of_an_association_report_their_own_violations():
    # s's one link starts at a B and ends at an A, so both its ends are
    # broken; under r, a3 links to no B and b1 has two A partners.
    cd = parse_cd(
        "classdiagram C { class A; class B;"
        " association r [0..1] A -- B [1]; association s A -- B; }"
    )
    objects = {"a1": "A", "a2": "A", "a3": "A", "b1": "B"}
    links = frozenset({("r", "a1", "b1"), ("r", "a2", "b1"), ("s", "b1", "a1")})
    assert is_instance(ObjectModel("m", objects, links), cd) == (False, [
        Violation(ViolationKind.BAD_ENDPOINT, "b1",
                  "'b1' is not a 'A' (or subclass), required at the left end of 's'"),
        Violation(ViolationKind.BAD_ENDPOINT, "a1",
                  "'a1' is not a 'B' (or subclass), required at the right end of 's'"),
        Violation(ViolationKind.MULTIPLICITY, "a3", "'a3' has 0 outgoing 'r' links, allowed 1"),
        Violation(ViolationKind.MULTIPLICITY, "b1", "'b1' has 2 incoming 'r' links, allowed 0..1"),
    ])


def test_link_to_an_object_the_model_lacks_is_a_bad_endpoint():
    cd = parse_cd("classdiagram C { class A; association r A -- A; }")
    om = ObjectModel("m", {"a1": "A"}, frozenset({("r", "a1", "ghost")}))
    assert is_instance(om, cd) == (False, [
        Violation(ViolationKind.BAD_ENDPOINT, "ghost",
                  "'ghost' is not a 'A' (or subclass), required at the right end of 'r'"),
    ])


def test_violations_are_exhaustive_and_deterministic():
    cd = parse_cd("classdiagram C { singleton class A; }")
    om = ObjectModel("m", {"x1": "Ghost", "x2": "Ghost"}, frozenset())
    _, first = is_instance(om, cd)
    _, second = is_instance(om, cd)
    assert first == second
    assert [v.kind for v in first] == [
        ViolationKind.UNKNOWN_CLASS,
        ViolationKind.UNKNOWN_CLASS,
        ViolationKind.SINGLETON_COUNT,
    ]


def test_every_kind_is_reported_in_order():
    cd = parse_cd(
        "classdiagram C { abstract class A; singleton class S; class B;"
        " association r [0..1] B -- B [1]; }"
    )
    objects = {"x1": "Ghost", "a1": "A", "b1": "B", "b2": "B"}
    links = frozenset({("q", "b1", "b2"), ("r", "a1", "b1"), ("r", "b1", "b1"), ("r", "b2", "b1")})
    om = ObjectModel("m", objects, links)
    assert is_instance(om, cd) == reference_is_instance(om, cd) == (False, [
        Violation(ViolationKind.ABSTRACT_INSTANTIATED, "a1", "object 'a1' instantiates abstract class 'A'"),
        Violation(ViolationKind.UNKNOWN_CLASS, "x1", "object 'x1' has class 'Ghost' not declared in 'C'"),
        Violation(ViolationKind.SINGLETON_COUNT, "S", "singleton class 'S' has 0 instances, expected exactly 1"),
        Violation(ViolationKind.UNKNOWN_ASSOCIATION, "q", "link uses association 'q' not declared in 'C'"),
        Violation(ViolationKind.BAD_ENDPOINT, "a1",
                  "'a1' is not a 'B' (or subclass), required at the left end of 'r'"),
        Violation(ViolationKind.MULTIPLICITY, "b1", "'b1' has 3 incoming 'r' links, allowed 0..1"),
    ])
    assert {v.kind for v in is_instance(om, cd)[1]} == set(ViolationKind)


def test_violations_of_one_kind_keep_their_order():
    # Singletons in declaration order; links sorted; multiplicities by
    # association name, then object id, then end, whatever the declaration order.
    cd = parse_cd(
        "classdiagram C { singleton class Z; singleton class A; class B; class Bs extends B;"
        " association t [1] B -- B [1]; association s [2] B -- Z; }"
    )
    objects = {"b2": "Bs", "b1": "B", "b3": "B", "y1": "Z", "y2": "Z"}
    links = frozenset({("t", "y2", "y1"), ("t", "b1", "y1"), ("t", "b1", "b2")})
    om = ObjectModel("m", objects, links)
    found = is_instance(om, cd)
    assert found == reference_is_instance(om, cd)
    assert [(v.kind.value, v.subject) for v in found[1]] == [
        ("SINGLETON_COUNT", "Z"), ("SINGLETON_COUNT", "A"),
        ("BAD_ENDPOINT", "y1"), ("BAD_ENDPOINT", "y2"), ("BAD_ENDPOINT", "y1"),
        ("MULTIPLICITY", "y1"), ("MULTIPLICITY", "y2"),
        ("MULTIPLICITY", "b1"), ("MULTIPLICITY", "b1"), ("MULTIPLICITY", "b2"),
        ("MULTIPLICITY", "b3"), ("MULTIPLICITY", "b3"),
    ]
    assert [v.detail for v in found[1][-5:-3]] == [
        "'b1' has 2 outgoing 't' links, allowed 1", "'b1' has 0 incoming 't' links, allowed 1"]
    assert next(violations(om, cd)) == found[1][0]


def test_an_association_end_naming_an_undeclared_class():
    # ``parse_cd`` rejects such a diagram, but a diagram built directly may hold one.
    cd = ClassDiagram("C", (ClassDecl("A"),), (), (Association("r", "A", Multiplicity(1, 1), "Ghost", MANY),))
    om = ObjectModel("m", {"a1": "A", "g1": "Ghost"}, frozenset({("r", "a1", "g1"), ("r", "a1", "a1")}))
    assert is_instance(om, cd) == reference_is_instance(om, cd) == (False, [
        Violation(ViolationKind.UNKNOWN_CLASS, "g1", "object 'g1' has class 'Ghost' not declared in 'C'"),
        Violation(ViolationKind.BAD_ENDPOINT, "a1",
                  "'a1' is not a 'Ghost' (or subclass), required at the right end of 'r'"),
        Violation(ViolationKind.BAD_ENDPOINT, "g1",
                  "'g1' is not a 'Ghost' (or subclass), required at the right end of 'r'"),
    ])


def test_an_object_of_a_class_only_the_other_diagram_declares():
    cd1 = parse_cd("classdiagram C { class A; class B; association r [*] A -- B [1]; }")
    cd2 = parse_cd("classdiagram C { class A; association r [*] A -- A [1]; }")
    om = ObjectModel("m", {"a1": "A", "b1": "B"}, frozenset({("r", "a1", "b1")}))
    assert is_instance(om, cd1) == (True, [])
    assert is_instance(om, cd2) == reference_is_instance(om, cd2) == (False, [
        Violation(ViolationKind.UNKNOWN_CLASS, "b1", "object 'b1' has class 'B' not declared in 'C'"),
        Violation(ViolationKind.BAD_ENDPOINT, "b1",
                  "'b1' is not a 'A' (or subclass), required at the right end of 'r'"),
    ])


def test_repeated_names_are_checked_as_the_reference_does():
    # Two singletons and two associations of one name, as only a diagram built
    # directly can hold: the last association of a name gives the link ends,
    # and each one bounds the links of that name.
    cd = ClassDiagram(
        "C",
        (ClassDecl("A", ClassModifier.SINGLETON), ClassDecl("A", ClassModifier.SINGLETON), ClassDecl("B")),
        (),
        (Association("r", "A", MANY, "B", Multiplicity(0, 1)), Association("r", "B", MANY, "A", MANY)),
    )
    om = ObjectModel("m", {"a1": "A", "b1": "B"}, frozenset({("r", "a1", "b1"), ("r", "a1", "a1")}))
    assert is_instance(om, cd) == reference_is_instance(om, cd)
    assert [v.kind for v in is_instance(om, cd)[1]] == [ViolationKind.BAD_ENDPOINT] * 3 + [ViolationKind.MULTIPLICITY]


def random_object_model(rng, classes, associations):
    ids = rng.sample(["a1", "a2", "b1", "b10", "b2", "c1", "x", "z9"], rng.randint(0, 6))
    objects = {oid: rng.choice(classes) for oid in ids}
    ends = ids + ["ghost"] if rng.random() < 0.2 else ids
    links = frozenset(
        (rng.choice(associations), rng.choice(ends), rng.choice(ends))
        for _ in range(rng.randint(0, 8) if ends else 0)
    )
    return ObjectModel("m", objects, links)


def test_membership_matches_the_reference_on_random_models():
    rng = random.Random(2701)
    kinds_seen, members = set(), 0
    for _ in range(300):
        cd1, cd2 = generators.random_cd_pair(rng, 1, twins=rng.random() < 0.5)
        classes = sorted({c.name for cd in (cd1, cd2) for c in cd.classes}) + ["Ghost"]
        associations = sorted({a.name for cd in (cd1, cd2) for a in cd.associations}) + ["q"]
        for _ in range(8):
            om = random_object_model(rng, classes, associations)
            for cd in (cd1, cd2):
                expected = reference_is_instance(om, cd)
                assert is_instance(om, cd) == expected, (om, cd)
                assert next(violations(om, cd), None) == (expected[1] or [None])[0]
                kinds_seen.update(v.kind for v in expected[1])
                members += expected[0]
    assert kinds_seen == set(ViolationKind)
    assert members >= 200, members


def test_a_diagram_with_a_membership_table_still_pickles(cd1v2):
    # The table is kept on the diagram but left out of ``==``, ``hash`` and ``repr``.
    cd = parse_cd(print_cd(cd1v2))
    assert "membership" not in vars(cd)  # built on first use, not by the parser
    fresh = (repr(cd), hash(cd))
    om = ObjectModel("m", {"m1": "Manager", "t1": "Task", "t2": "Task", "t3": "Task"},
                     frozenset({("worksOn", "m1", t) for t in ("t1", "t2", "t3")}))
    expected = is_instance(om, cd)
    assert not expected[0] and "membership" in vars(cd)
    assert (repr(cd), hash(cd)) == fresh and cd == cd1v2
    copy = pickle.loads(pickle.dumps(cd))
    assert copy == cd and (repr(copy), hash(copy)) == fresh
    assert is_instance(om, copy) == expected


# ---------------------------------------------------------------------------
# the oracle's joint vocabulary and enumeration


def test_universe_merges_class_names(cd1v1, cd1v2):
    u = vocabulary_of(cd1v1, cd1v2)
    assert u.classes == ("Employee", "Manager", "Task")
    assert u.extends == (("Manager", "Employee"),)
    assert u.associations == (("worksOn", (("Employee", "Task"),)),)


def test_universe_keeps_divergent_endpoint_declarations(cd5v1, cd5v2):
    u = vocabulary_of(cd5v1, cd5v2)
    (name, decls) = u.associations[0]
    assert name == "livesIn"
    assert decls == (("Employee", "Address"), ("Person", "Address"))


def test_object_id_prefixes_lowercase_and_collisions():
    assert object_id_prefixes(("Employee", "Task")) == {
        "Employee": "employee",
        "Task": "task",
    }
    assert object_id_prefixes(("Task", "task")) == {"Task": "Task", "task": "task"}


def test_object_id_prefixes_keep_digit_suffixed_names_apart():
    # 'a' plus 11 and 'a1' plus 1 would both spell a11.
    assert object_id_prefixes(("A", "A1")) == {"A": "a", "A1": "a1_"}
    assert object_id_prefixes(("A", "A1", "A1_")) == {"A": "a", "A1": "a1__", "A1_": "a1_"}
    # No number without a leading zero turns 'a' into 'a0...', so 'a0' stays.
    assert object_id_prefixes(("A", "A0", "B2")) == {"A": "a", "A0": "a0", "B2": "b2"}
    classes = ("A", "A1", "A11", "A1_", "a2", "A2")
    prefixes = object_id_prefixes(classes)
    ids = [f"{prefixes[c]}{i}" for c in classes for i in range(1, 120)]
    assert len(set(ids)) == len(ids)


def test_object_id_prefixes_match_the_quadratic_reference():
    rng = random.Random(6)
    tails = ("", "0", "1", "2", "10", "12", "01", "_", "_1", "__")
    for _ in range(5000):
        names = {
            rng.choice("AaBb") + "".join(rng.choice(tails) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 8))
        }
        classes = tuple(rng.sample(sorted(names), len(names)))
        assert object_id_prefixes(classes) == reference_object_id_prefixes(classes), classes


def test_count_vectors_are_the_bounded_tuples_in_lexicographic_order():
    for caps in ([], [0], [2], [1, 0, 2], [3, 1, 2], [0, 0], [2, 2, 2, 1]):
        for total in range(-1, sum(caps) + 2):
            expected = [c for c in product(*(range(k + 1) for k in caps)) if sum(c) == total]
            assert list(count_vectors(caps, total)) == expected


def test_count_vectors_handle_thousands_of_classes():
    caps = [1] * 3000
    vectors = count_vectors(caps, 1)
    assert next(vectors) == (0,) * 2999 + (1,)
    assert next(vectors) == (0,) * 2998 + (1, 0)
    assert list(count_vectors(caps, 0)) == [(0,) * 3000]


def test_compatible_pairs_use_subclass_closure(cd5v1, cd5v2):
    u = vocabulary_of(cd5v1, cd5v2)
    pairs = compatible_pairs(u, {"employee1": "Employee", "address1": "Address"})
    assert pairs == [("livesIn", "employee1", "address1")]


@pytest.mark.parametrize(
    "source, k, expected",
    [
        ("classdiagram U { class A; }", 1, 2),
        ("classdiagram U { class A; }", 2, 3),
        ("classdiagram U { class A; class B; }", 1, 4),
        ("classdiagram U { class A; association r A -- A; }", 1, 3),
        ("classdiagram U { class A; }", 0, 1),
    ],
)
def test_enumeration_counts(source, k, expected):
    u = vocabulary_of(parse_cd(source))
    assert len(reference_object_models(u, k)) == expected


def test_enumeration_order_and_labels():
    u = vocabulary_of(parse_cd("classdiagram U { class A; class B; }"))
    models = reference_object_models(u, 2)
    totals = [len(om.objects) for om in models]
    assert totals == sorted(totals)
    assert models[0].objects == {}
    texts = [print_om(om) for om in models]
    assert texts == sorted(texts, key=lambda t: (t.count(": "), t))
    # ids are prefix-closed: a2 never appears without a1
    for om in models:
        if "a2" in om.objects:
            assert "a1" in om.objects


def test_enumeration_is_deterministic():
    u = vocabulary_of(parse_cd("classdiagram U { class A; association r A -- A; }"))
    first = [print_om(om) for om in reference_object_models(u, 2)]
    second = [print_om(om) for om in reference_object_models(u, 2)]
    assert first == second
