"""The class-diagram search's count test and capped expansion.

``cd_diff`` decides each count vector from its class counts and labels
objects only where link sets must be listed; ``cddiff`` expands a level one
count vector at a time, in canonical order, and stops one witness past its
cap. These tests hold that design to what the search did before it:

- the count test's decision equals the object-scan reference in
  ``helpers`` on every count vector of several hundred random pairs;
- no count vector below the total the count test starts a direction's walk
  from has a witness by that reference, so a direction it settles (starts
  past its last total) has none; each settling condition refuses on its
  own, and a settled direction labels no object;
- no direction tests the containment of an association twice on the same
  entry, the totals of its role groups (the classes in its end closures,
  grouped by the ends that hold them); settling and the walk together test
  no more entries than there are count vectors up to the start total and up
  to the last witness; on an ``extends`` chain, whose classes below an end
  form one group, a direction settles on a few entries;
- an entry and its totals cut at the association's multiplicity threshold
  get the same containment answer, so settling meets the same number of
  entries whatever the bound;
- with twin classes (``class Xt extends X;``), the count test, ``cddiff``
  and ``compare_cd`` agree with the object scan and the brute-force oracle;
- every witness list, ``exhausted`` flag and ``compare_cd`` verdict on the
  fixtures and 400 seeded pairs hashes to the outputs recorded in
  ``fixtures/cd_diff_outputs.json``;
- a capped diff builds no model past the count vector that crosses its cap;
- a labelled count vector lists each association's link sets at most once,
  and those of an association the count test does not list only once a
  listed one has a link set the other diagram rejects.

Run ``python tests/test_cd_search.py`` to print the outputs file for the
``semdiff`` on ``PYTHONPATH``. It was written once, at commit ``7178aad``,
by the search that still scanned objects, so it holds that search's answers.
"""

import hashlib
import json
import random
from collections import Counter
from itertools import product

import pytest

import generators
from helpers import reference_count_decision, reference_is_instance
from semdiff import cd_diff
from semdiff.cd_diff import cddiff, compare_cd
from semdiff.cd_lang import Association, ClassDiagram, ClassModifier, Multiplicity, parse_cd
from semdiff.cd_semantics import count_vectors, object_id_prefixes, objects_for_counts, print_om
from semdiff.verdict import DiffResult, Verdict

from conftest import FIXTURES, fixture_text
from oracles import reference_object_models, vocabulary_of

OUTPUTS = FIXTURES / "cd_diff_outputs.json"
UNCAPPED = 10**9
CAPS = (1, 2, 20, UNCAPPED)
FIXTURE_CDS = ("cd1v1", "cd1v2", "cd5v1", "cd5v2")
SWEEP_SEED = 2101
SWEEP_PAIRS = 400


def search_space(cd1, cd2, k):
    """The classes, caps and, lazily, count vectors ``_witness_levels``
    would walk from total 0."""
    classes = tuple(sorted({c.name for cd in (cd1, cd2) for c in cd.classes}))
    concrete = {c.name for c in cd1.classes if c.modifier is not ClassModifier.ABSTRACT}
    caps = [k if c in concrete else 0 for c in classes]
    vectors = (counts for total in range(sum(caps) + 1) for counts in count_vectors(caps, total))
    return classes, caps, vectors


def count_test(cd1, cd2, k):
    """``_count_test``'s decision function and start total for the diff of
    ``cd1`` against ``cd2`` at bound ``k``."""
    classes, caps, _ = search_space(cd1, cd2, k)
    decls2 = {b.name: b for b in cd2.associations}
    pairs = [(a, decls2.get(a.name)) for a in sorted(cd1.associations, key=lambda a: a.name)]
    return cd_diff._count_test(classes, caps, pairs, cd1, cd2)


# ---------------------------------------------------------------------------
# the count test against the object scan


def with_undeclared_end(rng, cd):
    """``cd`` with one association end moved to a class it does not declare,
    as only a hand-built diagram can have."""
    assocs = list(cd.associations)
    i = rng.randrange(len(assocs))
    a = assocs[i]
    if rng.random() < 0.5:
        assocs[i] = Association(a.name, "Z", a.left_mult, a.right_class, a.right_mult)
    else:
        assocs[i] = Association(a.name, a.left_class, a.left_mult, "Z", a.right_mult)
    return ClassDiagram(cd.name, cd.classes, cd.extends, tuple(assocs))


def features(cd1, cd2):
    """Which of the cases the count test must get right a pair exercises."""
    mods = {c.modifier for cd in (cd1, cd2) for c in cd.classes}
    names1 = {a.name for a in cd1.associations}
    declared = [{c.name for c in cd.classes} for cd in (cd1, cd2)]
    return {
        "singleton": ClassModifier.SINGLETON in mods,
        "abstract": ClassModifier.ABSTRACT in mods,
        "extends": bool(cd1.extends or cd2.extends),
        "b_only_needs_a_link": any(
            b.name not in names1 and (b.left_mult.min > 0 or b.right_mult.min > 0)
            for b in cd2.associations
        ),
        "class_in_one_diagram": declared[0] != declared[1],
        "undeclared_end": any(
            end not in d for cd, d in zip((cd1, cd2), declared)
            for a in cd.associations for end in (a.left_class, a.right_class)
        ),
    }


def random_pairs(seed, n=400):
    """``n`` seeded (cd1, cd2, k) at k 0-3, now and then with an association
    end moved to an undeclared class."""
    rng = random.Random(seed)
    for _ in range(n):
        k = rng.choice((0, 1, 2, 3))
        # No oracle enumerates these pairs, so their size need not be held down.
        cd1, cd2 = generators.random_cd_pair(rng, k, space_cap=10**12)
        for _ in range(2):
            if rng.random() < 0.15:
                cd = rng.choice((cd1, cd2))
                if cd.associations:
                    changed = with_undeclared_end(rng, cd)
                    cd1, cd2 = (changed, cd2) if cd is cd1 else (cd1, changed)
        yield cd1, cd2, k


def test_count_test_decides_as_the_object_scan():
    seen, outcomes = Counter(), Counter()
    for cd1, cd2, k in random_pairs(2102):
        seen.update(name for name, present in features(cd1, cd2).items() if present)
        classes, caps, counts_list = search_space(cd1, cd2, k)
        prefixes = object_id_prefixes(classes)
        decide, _ = count_test(cd1, cd2, k)
        for counts in counts_list:
            expected = reference_count_decision(objects_for_counts(classes, prefixes, counts), cd1, cd2)
            assert decide(counts) == expected, (cd1, cd2, counts)
            outcomes["skip" if expected == () else "every" if expected is None else "list"] += 1
    assert len(seen) == 6 and min(seen.values()) >= 10, seen
    assert len(outcomes) == 3 and min(outcomes.values()) >= 100, outcomes
    assert sum(outcomes.values()) > 2500


# ---------------------------------------------------------------------------
# a settled direction has no witness


def diagram(body):
    return parse_cd(f"classdiagram C {{ {body} }}")


def settled(cd1, cd2, k):
    return count_test(cd1, cd2, k)[1] == sum(search_space(cd1, cd2, k)[1]) + 1


def test_a_settled_direction_has_no_witness_in_its_search_space():
    """In every direction, each count vector below the start total has no
    witness; a settled direction starts past its last total."""
    outcomes = Counter()
    for cd1, cd2, k in random_pairs(2201):
        for a, b in ((cd1, cd2), (cd2, cd1)):
            _, first = count_test(a, b, k)
            classes, caps, counts_list = search_space(a, b, k)
            assert 0 <= first <= sum(caps) + 1
            outcomes["refused" if first == 0 else "settled" if first > sum(caps) else "walked"] += 1
            prefixes = object_id_prefixes(classes)
            for counts in counts_list:
                if sum(counts) < first:
                    objects = objects_for_counts(classes, prefixes, counts)
                    assert reference_count_decision(objects, a, b) == (), (a, b, counts)
    assert len(outcomes) == 3 and min(outcomes.values()) >= 50, outcomes


# Each case: the left diagram, then a right diagram that one settling
# condition alone refuses, and a twin of one of them, one declaration apart,
# that settles. (a) a class B bars has a nonzero cap; (b) a B singleton
# closure, cut down to the classes with a cap, is none of A's; either starts
# the walk at 0. (c) a table entry fails, here one of total 1.
REFUSED_ALONE = {
    "a-abstract-in-b": (
        "class P; class Q extends P;", "abstract class P; class Q extends P;",
        ("abstract class P; class Q extends P;", "abstract class P; class Q extends P;"),
    ),
    "b-singleton-in-b": (
        "abstract class S; class T extends S;", "singleton class S; class T extends S;",
        ("abstract class S; singleton class T extends S;", "singleton class S; class T extends S;"),
    ),
    "c-failing-projection": (
        "class A; association r [*] A -- A [*];", "class A; association r [*] A -- A [0];",
        ("class A; association r [*] A -- A [0];", "class A; association r [*] A -- A [*];"),
    ),
}


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize("case", sorted(REFUSED_ALONE))
def test_each_settling_condition_alone_refuses(case, k):
    left, right, twin = REFUSED_ALONE[case]
    a, b = diagram(left), diagram(right)
    assert count_test(a, b, k)[1] == (1 if case.startswith("c-") else 0)
    assert cddiff(a, b, k).witnesses
    a, b = map(diagram, twin)
    assert settled(a, b, k)
    assert cddiff(a, b, k) == DiffResult([], True)


# ---------------------------------------------------------------------------
# the work the count test does


def counting(monkeypatch, name):
    """Replace ``cd_diff.<name>`` by a wrapper that lists each call's arguments."""
    calls, real = [], getattr(cd_diff, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cd_diff, name, wrapper)
    return calls


def test_each_projection_is_tested_once_per_direction(monkeypatch):
    directions = counting(monkeypatch, "_count_test")
    tests = []  # (direction, association, counts of its roles) per containment test
    real = cd_diff._contained

    def contained(*test):
        tests.append((len(directions), test[0], test[-1]))
        return real(*test)

    monkeypatch.setattr(cd_diff, "_contained", contained)
    rng = random.Random(2202)
    pairs = [(*generators.random_cd_pair(rng, k), k) for k in (0, 1, 2, 3) * 50]
    pairs += [(parse_cd(chain_text(n)), parse_cd(chain_text(n, tight=True)), 2) for n in (3, 4, 5)]
    total = 0
    for cd1, cd2, k in pairs:
        for search in (compare_cd, lambda a, b, k: cddiff(a, b, k, 1),
                       lambda a, b, k: cddiff(b, a, k, UNCAPPED)):
            directions.clear()
            tests.clear()
            search(cd1, cd2, k)
            assert len(tests) == len(set(tests)), (cd1, cd2, k)
            total += len(tests)
    assert total > 1000, total


def role_groups(cd1, cd2):
    """Each association's roles, the classes in its end closures in ``cd1``
    and in ``cd2``, in class order, grouped by the ends that hold them; the
    groups in the order of their first class."""
    classes = sorted({c.name for cd in (cd1, cd2) for c in cd.classes})
    decls2 = {b.name: b for b in cd2.associations}
    result = []
    for a in cd1.associations:
        ends = [cd1.closures[a.left_class], cd1.closures[a.right_class]]
        b = decls2.get(a.name)
        if b is not None:
            ends += [cd2.closures[b.left_class], cd2.closures[b.right_class]]
        groups = {}
        for c in classes:
            held = tuple(c in end for end in ends)
            if any(held):
                groups.setdefault(held, []).append(c)
        result.append(list(groups.values()))
    return result


def threshold(a, b):
    """1 plus the largest finite bound of ``a``'s multiplicities and, when
    the other diagram declares it, of ``b``'s: no group total above it
    changes a containment answer."""
    mults = [a.left_mult, a.right_mult] + ([b.left_mult, b.right_mult] if b is not None else [])
    return 1 + max(n for m in mults for n in (m.min, m.max) if n is not None)


def group_caps(cd1, cd2, k):
    """The caps of each association's role groups, in group order, cut at
    its threshold: the entries settling meets."""
    classes, caps, _ = search_space(cd1, cd2, k)
    cap = dict(zip(classes, caps))
    decls2 = {b.name: b for b in cd2.associations}
    return [
        tuple(min(sum(cap[c] for c in group), threshold(a, decls2.get(a.name))) for group in groups)
        for a, groups in zip(cd1.associations, role_groups(cd1, cd2))
    ]


def test_a_settled_direction_labels_no_object(monkeypatch):
    counted = counting(monkeypatch, "count_vectors")
    labelled = counting(monkeypatch, "objects_for_counts")
    built = counting(monkeypatch, "ObjectModel")
    fired = 0
    for cd1, cd2, k in random_pairs(2203, 200):
        for a, b in ((cd1, cd2), (cd2, cd1)):
            if settled(a, b, k):
                fired += 1
                counted.clear()
                assert cddiff(a, b, k, UNCAPPED) == DiffResult([], True)
                assert labelled == built == []
                # Only settling counts, over one association's groups at a time.
                assert all(caps in group_caps(a, b, k) for caps, _ in counted)
    assert fired >= 50
    tight, loose = parse_cd(chain_text(30, tight=True)), parse_cd(chain_text(30))
    counted.clear()
    assert cddiff(tight, loose, 3) == DiffResult([], True)
    assert labelled == built == []
    assert {len(caps) for caps, _ in counted} == {2}


def extends_chain(n, body):
    """C0 .. C(n-1), each extending the one before, then ``body``."""
    classes = ["class C0;"] + [f"class C{i + 1} extends C{i};" for i in range(n - 1)]
    return parse_cd(f"classdiagram X {{ {' '.join(classes)} {body} }}")


# (chain length, left body, right body), diffed at k=3. The roles of an
# association on C0 or C1 span the chain, but fall into at most two groups,
# C0 and the classes below C1, so at k=3 their entries number 4 * (3n - 2)
# where per-class counts would make 4^n.
WALKED_PAIRS = {
    # r fails from one C0 on.
    "6-classes": (6, "association r [*] C0 -- C0 [*];", "association r [*] C1 -- C1 [*];"),
    "12-classes": (12, "association r [*] C0 -- C0 [*];", "association r [*] C1 -- C1 [*];"),
    # a passes on all its 4096 entries and r fails from two Ds on, so
    # settling must meet a's entries by total alongside r's.
    "two-associations": (
        6,
        "class D; association a [*] C0 -- C0 [*]; association r [*] D -- D [*];",
        "class D; association a [*] C0 -- C0 [*]; association r [*] D -- D [0..1];",
    ),
}


def vectors_up_to(caps, total):
    """How many count vectors under ``caps`` hold at most ``total`` objects."""
    return sum(1 for t in range(total + 1) for _ in count_vectors(caps, t))


@pytest.mark.parametrize("case", sorted(WALKED_PAIRS))
def test_settling_tests_no_more_than_the_walk_meets(case, monkeypatch):
    """Settling meets the entries by total and stops at the first failing
    one, so per association it tests no more entries than there are count
    vectors up to the start total; the walk starts there and meets no more
    count vectors than there are up to its last witness's total. Every
    association keeps a table, so none is tested twice on the same entry."""
    n, left, right = WALKED_PAIRS[case]
    cd1, cd2 = extends_chain(n, left), extends_chain(n, right)
    _, caps, _ = search_space(cd1, cd2, 3)
    first = count_test(cd1, cd2, 3)[1]
    walked = []
    real_count_test = cd_diff._count_test

    def counting_count_test(*args):
        decide, start = real_count_test(*args)

        def counted(counts):
            walked.append(counts)
            return decide(counts)

        return counted, start

    monkeypatch.setattr(cd_diff, "_count_test", counting_count_test)
    tests = counting(monkeypatch, "_contained")
    result = cddiff(cd1, cd2, 3)
    assert len(result.witnesses) == 10 and not result.exhausted
    last = len(result.witnesses[-1].objects)
    settling, walk = vectors_up_to(caps, first), vectors_up_to(caps, last)
    assert 0 < first <= last
    assert len(walked) <= walk < 200
    assert 0 < len(tests) <= len(cd1.associations) * (settling + walk)
    assert len({(test[0], test[-1]) for test in tests}) == len(tests)


@pytest.mark.parametrize("k", (3, 9))
@pytest.mark.parametrize("n", (12, 30))
def test_a_chain_direction_settles_on_its_group_totals(n, k, monkeypatch):
    """From the diagram with r on C1, r's roles are C0, in B's ends only,
    and C1 .. C(n-1), in all four: two groups, with caps k and k(n - 1).
    Every multiplicity is ``*``, so r's threshold is 1 and settling tests
    the 4 entries with both totals at most 1, each once, at any bound k.
    Uncut group totals made (k + 1)(k(n - 1) + 1) entries (136 for 12
    classes at k=3), and per-class counts (k + 1)^n."""
    c0 = extends_chain(n, "association r [*] C0 -- C0 [*];")
    c1 = extends_chain(n, "association r [*] C1 -- C1 [*];")
    labelled = counting(monkeypatch, "objects_for_counts")
    tests = counting(monkeypatch, "_contained")
    assert cddiff(c1, c0, k) == DiffResult([], True)
    assert labelled == []
    assert sorted(test[-1] for test in tests) == [(0, 0), (0, 1), (1, 0), (1, 1)]


NARROW = "class P; class A extends P; class Q; class B extends Q; association r [*] A -- B [*];"
WIDE = "class P; class A extends P; class Q; class B extends Q; association r [*] P -- Q [*];"


@pytest.mark.parametrize("k", (3, 12, 24))
def test_settling_meets_as_many_entries_at_every_bound(k, monkeypatch):
    """r's roles fall into four groups, P, A, Q and B, each one class with
    cap k. Its threshold is 1, so settling tests the 16 entries of totals 0
    and 1, where uncut totals made (k + 1)^4 (390,625 at k=24)."""
    labelled = counting(monkeypatch, "objects_for_counts")
    tests = counting(monkeypatch, "_contained")
    assert cddiff(diagram(NARROW), diagram(WIDE), k) == DiffResult([], True)
    assert labelled == []
    assert len(tests) == len({test[-1] for test in tests}) == 16


# The multiplicities the cut-lemma test draws from, as ``min, max``.
LEMMA_MULTS = ((0, None), (0, 1), (1, 1), (1, None), (2, 5), (3, 3), (0, 0))
LEMMA_TOTAL = 6  # the largest group total drawn; only 2..5's threshold, 6, is not below it


def test_an_entry_cut_at_the_threshold_keeps_its_answer():
    """For seeded associations ``a`` and ``b`` (or none) with random end
    memberships over up to four groups, every entry of totals up to 6 gets
    the same ``_contained`` answer as that entry cut at the threshold, each
    total at most ``threshold(a, b)``. The 1 in the threshold is needed:
    a total of 2 targets exceeds ``b``'s ``0..1``, one does not."""
    rng = random.Random(3201)
    cut = 0
    for _ in range(120):
        a, b = (
            Association(name, "X", Multiplicity(*rng.choice(LEMMA_MULTS)), "Y", Multiplicity(*rng.choice(LEMMA_MULTS)))
            for name in ("a", "b")
        )
        if rng.random() < 0.25:
            b = None
        width = rng.randint(1, 4)
        ends = [{j for j in range(width) if rng.random() < 0.5} for _ in range(2 if b is None else 4)]
        ends += [set()] * (4 - len(ends))
        t = threshold(a, b)
        for entry in product(range(LEMMA_TOTAL + 1), repeat=width):
            answer = cd_diff._contained(a, b, *ends, entry)
            assert cd_diff._contained(a, b, *ends, tuple(min(n, t) for n in entry)) == answer, (a, b, ends, entry)
            cut += any(n > t for n in entry)
    assert cut > 10000, cut
    a = Association("r", "X", Multiplicity(0, None), "Y", Multiplicity(1, None))
    b = Association("r", "X", Multiplicity(0, None), "Y", Multiplicity(0, 1))
    assert threshold(a, b) == 2
    ends = ({0}, {1}, {0}, {1})
    assert not cd_diff._contained(a, b, *ends, (1, 2)) and cd_diff._contained(a, b, *ends, (1, 1))


# ---------------------------------------------------------------------------
# interchangeable twins

TWIN_PAIRS = 200
TWIN_SPACE_CAP = 3000  # the oracle models a pair may list, each checked in both diagrams


def test_twin_classes_keep_every_answer():
    """Pairs grown with twin classes, whose roles share groups: the count
    test decides each count vector as the object scan, none below its start
    total has a witness, and ``cddiff`` and ``compare_cd`` answer as the
    brute-force oracle."""
    rng = random.Random(2501)
    grouped = 0
    for _ in range(TWIN_PAIRS):
        k = rng.choice((1, 2))
        cd1, cd2 = generators.random_cd_pair(rng, k, TWIN_SPACE_CAP, twins=True)
        grouped += any(
            len(group) > 1 for a, b in ((cd1, cd2), (cd2, cd1)) for groups in role_groups(a, b) for group in groups
        )
        models = reference_object_models(vocabulary_of(cd1, cd2), k)
        member = {cd: [reference_is_instance(om, cd)[0] for om in models] for cd in (cd1, cd2)}
        differs = []
        for a, b in ((cd1, cd2), (cd2, cd1)):
            classes, _, counts_list = search_space(a, b, k)
            prefixes = object_id_prefixes(classes)
            decide, first = count_test(a, b, k)
            for counts in counts_list:
                decision = reference_count_decision(objects_for_counts(classes, prefixes, counts), a, b)
                assert decide(counts) == decision, (a, b, counts)
                assert decision == () or sum(counts) >= first, (a, b, counts)
            expected = [om for om, ok1, ok2 in zip(models, member[a], member[b]) if ok1 and not ok2]
            assert cddiff(a, b, k, UNCAPPED) == DiffResult(expected, True), (a, b, k)
            differs.append(bool(expected))
        assert compare_cd(cd1, cd2, k) == Verdict.of(*differs, bounded=True), (cd1, cd2, k)
    assert grouped >= TWIN_PAIRS // 4, grouped


# ---------------------------------------------------------------------------
# every output as recorded


def sweep_cases():
    """(label, cd1, cd2, k, caps): every ordered fixture pair at k=2 and,
    capped, at k=3, then the seeded random pairs at k 0-3."""
    cds = {name: parse_cd(fixture_text(f"{name}.cd")) for name in FIXTURE_CDS}
    for k, caps in ((2, CAPS), (3, CAPS[:-1])):
        for a in FIXTURE_CDS:
            for b in FIXTURE_CDS:
                if a != b:
                    yield f"{a}.{b}.k{k}", cds[a], cds[b], k, caps
    rng = random.Random(SWEEP_SEED)
    for i in range(SWEEP_PAIRS):
        k = rng.choice((0, 1, 2, 3))
        cd1, cd2 = generators.random_cd_pair(rng, k)
        yield f"seed{SWEEP_SEED}.{i}.k{k}", cd1, cd2, k, CAPS


def outputs_digest(cd1, cd2, k, caps):
    """A hash of both directions' witness texts and ``exhausted`` flags at
    each cap, in order, and of the verdict."""
    h = hashlib.sha256()
    for a, b in ((cd1, cd2), (cd2, cd1)):
        for cap in caps:
            result = cddiff(a, b, k, cap)
            h.update(f"cap {cap} exhausted {result.exhausted}\n".encode())
            h.update("".join(map(print_om, result.witnesses)).encode())
    h.update(str(compare_cd(cd1, cd2, k)).encode())
    return h.hexdigest()[:16]


def sweep_outputs():
    return {label: outputs_digest(cd1, cd2, k, caps) for label, cd1, cd2, k, caps in sweep_cases()}


def test_outputs_are_the_recorded_ones():
    recorded = json.loads(OUTPUTS.read_text(encoding="utf-8"))["outputs"]
    assert len(recorded) == 24 + SWEEP_PAIRS
    outputs = sweep_outputs()
    assert [label for label in outputs if outputs[label] != recorded[label]] == []
    assert sorted(outputs) == sorted(recorded)


# ---------------------------------------------------------------------------
# a capped diff stops at the count vector that crosses its cap


def chain_text(n, tight=False):
    """n classes in a chain of [*] associations, the first one's right end
    tightened to [0..1] when ``tight``, as the benchmark's class diagrams."""
    classes = [f"C{i}" for i in range(n)]
    assocs = [
        f"association r{i} [*] {classes[i]} -- {classes[i + 1]} [{'0..1' if tight and i == 0 else '*'}];"
        for i in range(n - 1)
    ]
    return "classdiagram chain { " + " ".join([f"class {c};" for c in classes] + assocs) + " }"


CAPPED_PAIRS = [
    (chain_text(2), chain_text(2, tight=True), 2),
    (chain_text(2), chain_text(2, tight=True), 3),
    (chain_text(3), chain_text(3, tight=True), 2),
    (chain_text(4), chain_text(4, tight=True), 2),
    # One class, so one count vector per level.
    ("classdiagram C { class A; association r [*] A -- A [*]; }",
     "classdiagram C { class A; association r [*] A -- A [0..1]; }", 3),
]


@pytest.mark.parametrize("left, right, k", CAPPED_PAIRS, ids=["s2k2", "s2k3", "s3k2", "s4k2", "self-k3"])
def test_a_capped_diff_builds_no_model_past_the_crossing_count_vector(left, right, k, monkeypatch):
    cd1, cd2 = parse_cd(left), parse_cd(right)
    full = cddiff(cd1, cd2, k, UNCAPPED).witnesses
    # The witnesses of one count vector are consecutive and share their objects.
    vector_of = [sorted(w.objects.items()) for w in full]
    built = []
    real = cd_diff.ObjectModel

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(cd_diff, "ObjectModel", counting)
    for cap in (1, 2, 20):
        built.clear()
        result = cddiff(cd1, cd2, k, cap)
        assert result.witnesses == full[:cap]
        if len(full) <= cap:
            assert len(built) == len(full)
            continue
        # The search stops one witness past the cap, after the count vector
        # that holds it, or at the end of a level that fills the cap: at most
        # the cap plus that count vector's witnesses.
        first = vector_of.index(vector_of[cap])
        crossing = vector_of.count(vector_of[cap])
        fills_level = len(full[cap - 1].objects) < len(full[cap].objects)
        assert len(built) == (cap if fills_level else first + crossing) <= cap + crossing


# ---------------------------------------------------------------------------
# a labelled count vector lists each association's link sets once, lazily


def listings_per_vector(cd1, cd2, k, listings):
    """Per count vector the walk labels: its objects, the count test's
    decision, and the names of the associations whose link sets building
    its models listed, with how often; ``listings`` records the calls."""
    classes = search_space(cd1, cd2, k)[0]
    decide = count_test(cd1, cd2, k)[0]
    for vectors in cd_diff._witness_levels(cd1, cd2, k):
        for objects, models in vectors:
            listings.clear()
            list(models)
            present = Counter(objects.values())
            yield objects, decide(tuple(present[c] for c in classes)), Counter(a.name for a, *_ in listings)


def test_each_association_lists_its_link_sets_at_most_once_and_lazily(monkeypatch):
    """Per labelled count vector, each association's link sets are listed
    at most once. Where the count test lists some associations, the others
    are listed only once a listed one has a link set the other diagram
    rejects; where it rejects every model, all are listed."""
    link_sets = cd_diff._assoc_link_sets
    listings = counting(monkeypatch, "_assoc_link_sets")
    lazy = eager = 0
    rng = random.Random(3302)
    pairs = [(*generators.random_cd_pair(rng, k), k) for k in (1, 2) * 150]
    pairs.append((parse_cd(fixture_text("cd1v1.cd")), parse_cd(fixture_text("cd1v2.cd")), 2))
    # One A gives r no link set, since each A needs two sources: r is listed
    # and s is not. Two As give r a link set the other diagram rejects.
    pairs.append((diagram("class A; association r [2] A -- A [*]; association s [*] A -- A [*];"),
                  diagram("class A; association s [*] A -- A [*];"), 3))
    for x, y, k in pairs:
        for cd1, cd2 in ((x, y), (y, x)):
            decls2 = {b.name: b for b in cd2.associations}
            assocs = [(a, decls2.get(a.name)) for a in sorted(cd1.associations, key=lambda a: a.name)]
            every = {a.name for a, _ in assocs}
            for objects, decision, listed in listings_per_vector(cd1, cd2, k, listings):
                assert max(listed.values(), default=1) == 1, (cd1, cd2, objects)
                if decision is None:
                    assert set(listed) == every
                    continue
                checked = [assocs[i] for i in decision]
                if any(not cd_diff._links_ok(b, links, objects, cd2.closures)
                       for a, b in checked for links in link_sets(a, objects, cd1.closures)):
                    assert set(listed) == every
                    eager += len(checked) < len(every)
                else:
                    assert set(listed) == {a.name for a, _ in checked}
                    lazy += len(checked) < len(every)
    assert lazy >= 10 and eager >= 40, (lazy, eager)


if __name__ == "__main__":
    print(json.dumps({"seed": SWEEP_SEED, "outputs": sweep_outputs()}, indent=1))
