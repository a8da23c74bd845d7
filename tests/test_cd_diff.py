import random
from itertools import product

import pytest

import generators
from semdiff import cd_diff, cd_lang
from semdiff.cd_diff import cddiff, compare_cd
from semdiff.cd_lang import MANY, Association, ClassDecl, ClassDiagram, Multiplicity, parse_cd
from semdiff.cd_semantics import ObjectModel, is_instance, print_om, violations
from semdiff.verdict import Verdict, VerdictValue

from conftest import fixture_text
from helpers import reference_is_instance
from oracles import reference_object_models, vocabulary_of


def texts(result):
    return [print_om(om) for om in result.witnesses]


# ---------------------------------------------------------------------------
# the two fixture scenarios


def test_workload_cap_witness(cd1v1, cd1v2):
    result = cddiff(cd1v1, cd1v2, 3)
    assert result.witnesses
    smallest = result.witnesses[0]
    assert len(smallest.objects) == 4
    assert sorted(smallest.objects.values()) == ["Employee", "Task", "Task", "Task"]
    assert len(smallest.links) == 3
    assert all(assoc == "worksOn" for assoc, _, _ in smallest.links)


def test_manager_inheritance_witness(cd1v1, cd1v2):
    result = cddiff(cd1v2, cd1v1, 3)
    assert result.witnesses
    first = result.witnesses[0]
    assert "Manager" in first.objects.values()
    # v1 rejects it because its Manager is unrelated to Employee
    ok, violations = is_instance(first, cd1v1)
    assert not ok and violations


def test_versions_with_cap_and_inheritance_are_incomparable(cd1v1, cd1v2):
    verdict = compare_cd(cd1v1, cd1v2, 3)
    assert verdict.value is VerdictValue.INCOMPARABLE
    assert verdict.bounded


def test_each_diagram_builds_its_closures_once(monkeypatch):
    calls = []
    real = cd_lang.closures_of

    def counting(extends, roots):
        calls.append(id(extends))
        return real(extends, roots)

    monkeypatch.setattr(cd_lang, "closures_of", counting)
    text = fixture_text("cd1v2.cd")
    a, b = parse_cd(text), parse_cd(text)
    assert cddiff(a, b).witnesses == []
    assert compare_cd(a, b).value is VerdictValue.EQUIVALENT
    assert sorted(calls) == sorted([id(a.extends), id(b.extends)])
    # A pair that differs, so that the is_instance self-checks run as well.
    old = parse_cd(fixture_text("cd1v1.cd"))
    result = cddiff(a, old)
    assert result.witnesses
    assert len(calls) == 3
    cddiff(a, b)
    compare_cd(b, old)
    cddiff(old, a)
    assert is_instance(result.witnesses[0], b) == is_instance(result.witnesses[0], a)
    assert len(calls) == 3


def test_abstract_superclass_refactoring_is_equivalent(cd5v1, cd5v2):
    for k in (0, 1, 2, 3):
        forward = cddiff(cd5v1, cd5v2, k)
        backward = cddiff(cd5v2, cd5v1, k)
        assert forward.witnesses == [] and forward.exhausted
        assert backward.witnesses == [] and backward.exhausted
    assert compare_cd(cd5v1, cd5v2, 3).value is VerdictValue.EQUIVALENT


# ---------------------------------------------------------------------------
# search behavior


@pytest.mark.parametrize("name", ["cd1v1", "cd1v2", "cd5v1", "cd5v2"])
def test_identity_diff_is_empty(name, request):
    cd = request.getfixturevalue(name)
    result = cddiff(cd, cd, 2)
    assert result.witnesses == []
    assert result.exhausted


def test_witnesses_are_sound(cd1v1, cd1v2):
    for a, b in ((cd1v1, cd1v2), (cd1v2, cd1v1)):
        for om in cddiff(a, b, 3).witnesses:
            assert is_instance(om, a)[0]
            assert not is_instance(om, b)[0]


def test_directions_are_disjoint(cd1v1, cd1v2):
    forward = set(texts(cddiff(cd1v1, cd1v2, 3)))
    backward = set(texts(cddiff(cd1v2, cd1v1, 3)))
    assert forward and backward
    assert not (forward & backward)


def test_witness_order_is_smallest_first(cd1v2, cd1v1):
    result = cddiff(cd1v2, cd1v1, 2, max_witnesses=50)
    sizes = [len(om.objects) for om in result.witnesses]
    assert sizes == sorted(sizes)
    by_text = [print_om(om) for om in result.witnesses]
    for a, b in zip(result.witnesses, result.witnesses[1:]):
        if len(a.objects) == len(b.objects):
            assert print_om(a) < print_om(b)
    assert len(by_text) == len(set(by_text))


def test_exhausted_small_space(cd1v2, cd1v1):
    # At k=1 exactly three models separate the versions: manager1 linked to
    # task1, with and without employee1, and the fully linked variant.
    result = cddiff(cd1v2, cd1v1, 1)
    assert len(result.witnesses) == 3
    assert result.exhausted
    for om in result.witnesses:
        assert ("worksOn", "manager1", "task1") in om.links


def test_truncation_clears_exhausted(cd1v2, cd1v1):
    result = cddiff(cd1v2, cd1v1, 1, max_witnesses=2)
    assert len(result.witnesses) == 2
    assert not result.exhausted


def test_a_cap_met_before_the_last_level_reads_not_exhausted():
    # Both witnesses have fewer than two objects, but at cap 2 the level of
    # two objects is left unread, so the flag reads False although it holds
    # no witness; pinned as it is today.
    plain = parse_cd("classdiagram C { class A; class B; }")
    single = parse_cd("classdiagram C { class A; singleton class B; }")
    answers = [(texts(r), r.exhausted) for r in (cddiff(plain, single, 1, cap) for cap in (1, 2, 3))]
    empty, one_a = "objectmodel om {\n}\n", "objectmodel om {\n  a1: A;\n}\n"
    assert answers == [([empty], False), ([empty, one_a], False), ([empty, one_a], True)]


def test_truncation_keeps_the_smallest(cd1v2, cd1v1):
    full = texts(cddiff(cd1v2, cd1v1, 1))
    cut = texts(cddiff(cd1v2, cd1v1, 1, max_witnesses=2))
    assert cut == full[:2]


def test_growing_bound_only_adds_witnesses(cd1v1, cd1v2):
    small = set(texts(cddiff(cd1v1, cd1v2, 1, max_witnesses=10**6)))
    large = set(texts(cddiff(cd1v1, cd1v2, 2, max_witnesses=10**6)))
    assert small <= large


def test_bound_zero_sees_only_the_empty_model():
    plain = parse_cd("classdiagram C { class A; }")
    strict = parse_cd("classdiagram C { singleton class A; }")
    result = cddiff(plain, strict, 0)
    assert len(result.witnesses) == 1
    assert result.witnesses[0].objects == {}
    assert result.exhausted
    # the reverse direction is empty: nothing with zero objects satisfies
    # the singleton constraint
    assert cddiff(strict, plain, 0).witnesses == []


def test_unknown_class_in_one_version_yields_witnesses():
    old = parse_cd("classdiagram C { class A; class B; }")
    new = parse_cd("classdiagram C { class A; }")
    result = cddiff(old, new, 1)
    assert [om.objects for om in result.witnesses] == [
        {"b1": "B"},
        {"a1": "A", "b1": "B"},
    ]


def test_all_four_verdicts():
    wide = parse_cd("classdiagram C { class A; class B; association r A -- B; }")
    narrow = parse_cd("classdiagram C { class A; class B; association r A -- B [0..1]; }")
    assert compare_cd(narrow, wide, 2).value is VerdictValue.LEFT_REFINES_RIGHT
    assert compare_cd(wide, narrow, 2).value is VerdictValue.RIGHT_REFINES_LEFT
    assert compare_cd(wide, wide, 2).value is VerdictValue.EQUIVALENT
    other = parse_cd("classdiagram C { singleton class A; class B; association r A -- B; }")
    assert compare_cd(other, narrow, 2).value is VerdictValue.INCOMPARABLE


def test_parameter_validation(cd1v1):
    with pytest.raises(ValueError):
        cddiff(cd1v1, cd1v1, -1)
    with pytest.raises(ValueError):
        cddiff(cd1v1, cd1v1, 1, max_witnesses=0)
    with pytest.raises(ValueError):
        compare_cd(cd1v1, cd1v1, -1)


def test_compare_stops_at_the_first_witness_of_each_direction(monkeypatch):
    # At k=4 the first level holding a witness of the forward direction has
    # 169 models; a verdict needs one, checked but neither printed nor sorted.
    loose = parse_cd("classdiagram C { class A; association r [*] A -- A [*]; }")
    tight = parse_cd("classdiagram C { class A; association r [*] A -- A [0..2]; }")
    printed, checked = [], []

    def counting_print(om):
        printed.append(om)
        return print_om(om)

    def counting_check(om, cd):
        checked.append(cd)
        return violations(om, cd)

    monkeypatch.setattr(cd_diff, "print_om", counting_print)
    monkeypatch.setattr(cd_diff, "violations", counting_check)
    assert compare_cd(loose, tight, 4).value is VerdictValue.RIGHT_REFINES_LEFT
    assert len(printed) <= 1
    assert checked == [loose, tight]
    printed.clear()
    assert len(cddiff(loose, tight, 4, max_witnesses=1).witnesses) == 1
    assert len(printed) == 169


def test_compare_agrees_with_one_witness_per_direction():
    rng = random.Random(1301)
    verdicts = set()
    for _ in range(120):
        k = rng.choice((1, 2, 2, 3))
        cd1, cd2 = generators.random_cd_pair(rng, k)
        expected = Verdict.of(bool(cddiff(cd1, cd2, k, 1).witnesses),
                              bool(cddiff(cd2, cd1, k, 1).witnesses), bounded=True)
        assert compare_cd(cd1, cd2, k) == expected
        verdicts.add(expected.value)
    assert len(verdicts) == 4


def test_verdict_str():
    assert str(compare_cd(parse_cd("classdiagram C { class A; }"),
                          parse_cd("classdiagram C { class A; }"))) == "EQUIVALENT"


# ---------------------------------------------------------------------------
# per-association decision against the brute-force enumeration
#
# Each pair exercises a case in which the search decides a count vector
# without enumerating some association's link sets, or must not.

EDGE_PAIRS = {
    "b_only_association_with_lower_bound": (
        "classdiagram C { class A; class B; }",
        "classdiagram C { class A; class B; association s [1..*] A -- B; }",
        3,
    ),
    "association_b_does_not_declare": (
        "classdiagram C { class A; class B; association r A -- B [0..1]; }",
        "classdiagram C { class A; class B; }",
        3,
    ),
    "end_reached_through_another_closure": (
        "classdiagram C { class P; class Q extends P; class X;"
        " association r [0..1] P -- X [*]; }",
        "classdiagram C { class R; class P; class Q extends R; class X;"
        " association r [0..1] R -- X [*]; }",
        2,
    ),
    "object_only_in_b_closure": (
        "classdiagram C { class P; class Q; class X; association r P -- X [1..*]; }",
        "classdiagram C { abstract class R; class P extends R; class Q extends R; class X;"
        " association r R -- X [1..*]; }",
        2,
    ),
    "singleton_only_in_b": (
        "classdiagram C { class A; class B; association r [0..1] A -- B; }",
        "classdiagram C { singleton class A; class B; association r [0..1] A -- B; }",
        3,
    ),
    "minimum_above_available_objects": (
        "classdiagram C { class A; class B; association r [*] A -- B [2..*]; }",
        "classdiagram C { class A; class B; association r [*] A -- B [2]; }",
        3,
    ),
    "one_of_three_associations_differs": (
        "classdiagram C { class A; class B; class C; association r A -- B [0..1];"
        " association s [0..1] B -- C [0..1]; association t C -- A [0..1]; }",
        "classdiagram C { class A; class B; class C; association r A -- B [0..1];"
        " association s [0..1] B -- C [0..2]; association t C -- A [0..1]; }",
        2,
    ),
}


def reference_diff(cd1, cd2, k):
    return [
        om
        for om in reference_object_models(vocabulary_of(cd1, cd2), k)
        if reference_is_instance(om, cd1)[0] and not reference_is_instance(om, cd2)[0]
    ]


@pytest.mark.parametrize("name", sorted(EDGE_PAIRS))
def test_edge_pairs_match_reference_enumeration(name):
    text1, text2, k = EDGE_PAIRS[name]
    cd1, cd2 = parse_cd(text1), parse_cd(text2)
    found_any = False
    for a, b in ((cd1, cd2), (cd2, cd1)):
        expected = reference_diff(a, b, k)
        result = cddiff(a, b, k, max_witnesses=10**9)
        assert texts(result) == [print_om(om) for om in expected]
        assert result.exhausted
        found_any = found_any or bool(expected)
    assert found_any


def test_search_checks_membership_only_for_the_self_check(cd1v1, cd1v2, monkeypatch):
    calls = []

    def counting(om, cd):
        calls.append(cd)
        return violations(om, cd)

    monkeypatch.setattr(cd_diff, "violations", counting)
    result = cddiff(cd1v1, cd1v2, 3, max_witnesses=25)
    assert result.witnesses
    assert len(calls) == 2 * len(result.witnesses)


@pytest.mark.parametrize("objects", [{"employee1": "Employee"}, {"ghost1": "Ghost"}],
                         ids=["both-diagrams-admit-it", "neither-does"])
def test_self_check_rejects_an_unsound_witness(cd1v1, cd1v2, objects):
    om = ObjectModel("w", objects, frozenset())
    assert is_instance(om, cd1v1)[0] == is_instance(om, cd1v2)[0]
    with pytest.raises(RuntimeError) as err:
        cd_diff._check_witnesses([om], cd1v1, cd1v2)
    assert str(err.value) == f"diff search produced an unsound witness:\n{print_om(om)}"


def test_prefix_and_digit_class_names_give_distinct_witnesses():
    # Objects of A are a1..a11; those of A1 must not reuse a11.
    plain = parse_cd("classdiagram ids { class A; class A1; }")
    single = parse_cd("classdiagram ids { class A; singleton class A1; }")
    result = cddiff(plain, single, 11, max_witnesses=10**9)
    assert result.exhausted
    assert len(result.witnesses) == 132
    assert len(set(texts(result))) == 132
    counts = sorted(
        (sum(c == "A" for c in om.objects.values()), sum(c == "A1" for c in om.objects.values()))
        for om in result.witnesses
    )
    assert counts == sorted((a, b) for a in range(12) for b in range(12) if b != 1)


def test_large_self_association_compares_without_recursion_error():
    closed = parse_cd("classdiagram C { class C; association r [0] C -- C [0]; }")
    plain = parse_cd("classdiagram C { class C; }")
    assert compare_cd(closed, plain, 35).value is VerdictValue.EQUIVALENT


def test_large_self_association_enumerates_its_link_sets():
    # B needs an incoming link for every object, so the search has to walk
    # all 35 * 35 object pairs of A's association to flag its one link set.
    closed = parse_cd("classdiagram C { class C; association r [0] C -- C [0]; }")
    needy = parse_cd("classdiagram C { class C; association r [1..*] C -- C; }")
    result = cddiff(closed, needy, 35, max_witnesses=100)
    assert result.exhausted
    assert [len(om.objects) for om in result.witnesses] == list(range(1, 36))
    assert all(not om.links for om in result.witnesses)


# ---------------------------------------------------------------------------
# one association's link sets against every subset of its object pairs

LINK_MULTS = ("0", "1", "0..1", "1..*", "2", "*")


def brute_link_sets(a, sources, targets):
    pairs = [(a.name, s, t) for s in sources for t in targets]
    found = set()
    for mask in range(2 ** len(pairs)):
        links = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if all(a.right_mult.admits(sum(src == s for _, src, _ in links)) for s in sources) and all(
            a.left_mult.admits(sum(dst == t for _, _, dst in links)) for t in targets
        ):
            found.add(frozenset(links))
    return found


def link_set_cases():
    for left, right in product(LINK_MULTS, repeat=2):
        two = parse_cd(f"classdiagram C {{ class A; class B; association r [{left}] A -- B [{right}]; }}")
        for na, nb in product(range(4), repeat=2):
            yield two, {**{f"a{i}": "A" for i in range(na)}, **{f"b{i}": "B" for i in range(nb)}}
        one = parse_cd(f"classdiagram C {{ class A; association r [{left}] A -- A [{right}]; }}")
        for n in range(4):
            yield one, {f"a{i}": "A" for i in range(n)}


def test_assoc_link_sets_are_the_admitted_subsets_of_the_object_pairs():
    for cd, objects in link_set_cases():
        (a,) = cd.associations
        sources = sorted(o for o, c in objects.items() if c == a.left_class)
        targets = sorted(o for o, c in objects.items() if c == a.right_class)
        found = cd_diff._assoc_link_sets(a, objects, cd.closures)
        assert len(set(found)) == len(found), (a, objects)
        assert {frozenset(links) for links in found} == brute_link_sets(a, sources, targets), (a, objects)


def test_targets_without_room_are_never_offered():
    # Each of the 2^40 - 1 nonempty subsets of the Bs breaks the [0] end, so
    # the walk must not try them one by one.
    cd = parse_cd("classdiagram C { class A; class B; association r [0] A -- B [*]; }")
    objects = {"a1": "A", "a2": "A", **{f"b{i}": "B" for i in range(40)}}
    assert cd_diff._assoc_link_sets(cd.associations[0], objects, cd.closures) == [()]


# ---------------------------------------------------------------------------
# a hand-built diagram whose association names a class it does not declare


def test_an_undeclared_end_class_admits_no_object():
    declared = parse_cd("classdiagram y { class A; }")
    free = ClassDiagram("x", (ClassDecl("A"),), (), (Association("r", "A", MANY, "B", MANY),))
    assert compare_cd(free, declared, 2).value is VerdictValue.EQUIVALENT
    result = cddiff(declared, free, 2)
    assert result.witnesses == [] and result.exhausted
    # Every A now needs a B partner, which no object can be.
    needy = ClassDiagram(
        "x", (ClassDecl("A"),), (), (Association("r", "A", MANY, "B", Multiplicity(1, None)),)
    )
    assert compare_cd(needy, declared, 2).value is VerdictValue.LEFT_REFINES_RIGHT
    result = cddiff(declared, needy, 2)
    assert texts(result) == ["objectmodel om {\n  a1: A;\n}\n", "objectmodel om {\n  a1: A;\n  a2: A;\n}\n"]
    assert result.exhausted
