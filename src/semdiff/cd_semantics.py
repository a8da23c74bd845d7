"""Object models and the bounded semantics of class diagrams.

An object model is a set of typed, named objects plus directed links. It
counts as an instance of a diagram when every object's class is declared and
concrete, singleton counts hold, link ends respect the subclass closures of
the association ends, and link counts stay inside the multiplicities.
``violations`` yields the ways a model breaks those rules, read from the
diagram's membership table (``ClassDiagram.membership``), which is built on
first use and kept on the diagram. ``is_instance`` lists them all; the diff's
self-check reads only the first on each side. The check is written apart from
the diff search: this module imports nothing from ``cd_diff``.

An object model may hold objects of any class name, so when two diagrams are
compared, an object of a class that only the other diagram declares simply
falls outside this one's semantics. The diff search labels objects with
``object_id_prefixes`` and walks their counts with ``count_vectors``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from enum import Enum
from operator import itemgetter

from .cd_lang import MANY, ClassDiagram, ClassModifier, Multiplicity
from .lexer import IDENT, Diagnostic, ParseError, Record, TokenCursor, tokenize

Link = tuple[str, str, str]  # (association, source object, target object)


class ObjectModel(Record):
    name: str
    objects: dict[str, str]  # object id -> class name
    links: frozenset[Link]


class ViolationKind(Enum):
    UNKNOWN_CLASS = "UNKNOWN_CLASS"
    ABSTRACT_INSTANTIATED = "ABSTRACT_INSTANTIATED"
    SINGLETON_COUNT = "SINGLETON_COUNT"
    UNKNOWN_ASSOCIATION = "UNKNOWN_ASSOCIATION"
    BAD_ENDPOINT = "BAD_ENDPOINT"
    MULTIPLICITY = "MULTIPLICITY"


class Violation(Record):
    kind: ViolationKind
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.detail}"


def parse_om(text: str) -> ObjectModel:
    """Parse object-model text; raises ParseError on bad syntax or references."""
    cur = TokenCursor(tokenize(text))
    name, items = cur.block("objectmodel", "an object model name")
    objects: dict[str, str] = {}
    links: list[tuple[Link, tuple[int, int]]] = []
    problems: list[Diagnostic] = []
    for tok in items:
        if tok.text == "link" and cur.peek(1).kind == IDENT:
            cur.advance()
            assoc = cur.expect_ident("an association name").text
            src = cur.expect_ident("an object id").text
            cur.expect("--")
            dst = cur.expect_ident("an object id").text
            cur.expect(";")
            links.append(((assoc, src, dst), (tok.line, tok.col)))
        else:
            oid = cur.expect_ident("an object id").text
            cur.expect(":")
            cls = cur.expect_ident("a class name").text
            cur.expect(";")
            if oid in objects:
                problems.append(Diagnostic(tok.line, tok.col, f"duplicate object id '{oid}'"))
            objects[oid] = cls
    for (assoc, src, dst), pos in links:
        for end in (src, dst):
            if end not in objects:
                problems.append(Diagnostic(pos[0], pos[1], f"link references unknown object '{end}'"))
    if problems:
        raise ParseError(problems)
    return ObjectModel(name, objects, frozenset(link for link, _ in links))


def print_om(om: ObjectModel) -> str:
    """Canonical text: objects sorted by id, links sorted by (assoc, src, dst)."""
    links = "".join([f"  link {assoc} {src} -- {dst};\n" for assoc, src, dst in sorted(om.links)])
    return f"objectmodel {om.name} {{\n{object_block(om.objects)}{links}}}\n"


def object_block(objects: dict[str, str]) -> str:
    """The object lines of ``print_om``'s text, one per object, sorted by id."""
    return "".join([f"  {oid}: {objects[oid]};\n" for oid in sorted(objects)])


def is_instance(om: ObjectModel, cd: ClassDiagram) -> tuple[bool, list[Violation]]:
    """Check membership of ``om`` in the semantics of ``cd``.

    Returns (ok, violations) where the violation list is exhaustive and
    deterministic, not just the first problem found.
    """
    found = list(violations(om, cd))
    return (not found, found)


def violations(om: ObjectModel, cd: ClassDiagram) -> Iterator[Violation]:
    """Each way ``om`` breaks ``cd``, in a fixed order: objects by id, then
    singletons in declaration order, links in sorted order, and multiplicities
    by association name, object id and end.

    Each part is first checked in any order and sorted only to report what it
    found, so the first ``next`` costs no more than deciding membership."""
    table = cd.membership
    objects = om.objects
    if not table.instantiable.issuperset(objects.values()):
        modifiers = table.modifiers
        for oid in sorted(objects):
            cls = objects[oid]
            mod = modifiers.get(cls)
            if mod is None:
                yield Violation(
                    ViolationKind.UNKNOWN_CLASS, oid,
                    f"object '{oid}' has class '{cls}' not declared in '{cd.name}'")
            elif mod is ClassModifier.ABSTRACT:
                yield Violation(
                    ViolationKind.ABSTRACT_INSTANTIATED, oid,
                    f"object '{oid}' instantiates abstract class '{cls}'")

    if table.singletons:
        class_counts = Counter(objects.values())
        for name, closure in table.singletons:
            n = sum(class_counts[c] for c in closure)
            if n != 1:
                yield Violation(
                    ViolationKind.SINGLETON_COUNT, name,
                    f"singleton class '{name}' has {n} instances, expected exactly 1")

    ends = table.ends
    for assoc, src, dst in om.links:
        assoc_ends = ends.get(assoc)
        if (assoc_ends is None or objects.get(src) not in assoc_ends[0][2]
                or objects.get(dst) not in assoc_ends[1][2]):
            yield from _link_violations(om, cd.name, ends)
            break

    checks = table.checks
    if not checks:
        return
    degrees = (Counter(map(_SOURCE, om.links)), Counter(map(_TARGET, om.links)))
    failed = []
    for oid, cls in objects.items():
        for rank, end, assoc, mult in checks.get(cls, ()):
            n = degrees[end][assoc, oid]
            if not mult.admits(n):
                failed.append(((rank, oid, end), n, assoc, mult))
    failed.sort(key=itemgetter(0))
    for (_, oid, end), n, assoc, mult in failed:
        yield Violation(
            ViolationKind.MULTIPLICITY, oid,
            f"'{oid}' has {n} {_DIRECTIONS[end]} '{assoc}' links, allowed {mult}")


def _link_violations(
    om: ObjectModel, cd_name: str, ends: dict[str, tuple[End, End]]
) -> Iterator[Violation]:
    """The unknown associations and bad endpoints of ``om``'s links, in sorted link order."""
    for assoc, src, dst in sorted(om.links):
        assoc_ends = ends.get(assoc)
        if assoc_ends is None:
            yield Violation(
                ViolationKind.UNKNOWN_ASSOCIATION, assoc,
                f"link uses association '{assoc}' not declared in '{cd_name}'")
            continue
        for oid, (side, end_class, closure) in zip((src, dst), assoc_ends):
            if om.objects.get(oid) not in closure:
                yield Violation(
                    ViolationKind.BAD_ENDPOINT, oid,
                    f"'{oid}' is not a '{end_class}' (or subclass), required at the"
                    f" {side} end of '{assoc}'")


# A link's association and the object at its left (source) or right (target)
# end; the degree of an object at an end counts the links it is there in.
_SOURCE = itemgetter(0, 1)
_TARGET = itemgetter(0, 2)
_DIRECTIONS = ("outgoing", "incoming")

End = tuple[str, str, frozenset[str]]  # side, end class, its subclass closure
Check = tuple[int, int, str, Multiplicity]  # rank, end (0 left, 1 right), association, bound


class MembershipTable(Record):
    """What ``violations`` reads of a diagram, keyed by class and association
    name: ``ClassDiagram.membership``, built once per diagram."""

    modifiers: dict[str, ClassModifier]  # each declared class's modifier
    instantiable: frozenset[str]  # the declared classes that are not abstract
    singletons: tuple[tuple[str, frozenset[str]], ...]  # each singleton class, its closure
    ends: dict[str, tuple[End, End]]  # each association's left and right end
    # Per class, the multiplicities other than ``*`` that bound its objects'
    # links, ranked by association name and end.
    checks: dict[str, tuple[Check, ...]]


def membership_table(cd: ClassDiagram) -> MembershipTable:
    """``cd``'s membership table; ``ClassDiagram.membership`` builds it once and keeps it."""
    closures = cd.closures
    modifiers = {c.name: c.modifier for c in cd.classes}
    checks: dict[str, list[Check]] = {}
    for rank, a in enumerate(sorted(cd.associations, key=lambda a: a.name)):
        # The multiplicity written at one end bounds the links of each object
        # of the other end.
        for end, (end_class, mult) in enumerate(((a.left_class, a.right_mult),
                                                 (a.right_class, a.left_mult))):
            if mult != MANY:
                for cls in closures[end_class]:
                    checks.setdefault(cls, []).append((rank, end, a.name, mult))
    return MembershipTable(
        modifiers,
        frozenset(c for c, mod in modifiers.items() if mod is not ClassModifier.ABSTRACT),
        tuple((c.name, closures[c.name]) for c in cd.classes
              if c.modifier is ClassModifier.SINGLETON),
        {a.name: (("left", a.left_class, closures[a.left_class]),
                  ("right", a.right_class, closures[a.right_class]))
         for a in cd.associations},
        {cls: tuple(found) for cls, found in checks.items()},
    )


def object_id_prefixes(classes: tuple[str, ...]) -> dict[str, str]:
    """Lowercased class names as object-id stems, falling back to the raw name
    when two classes collide case-insensitively.

    A stem that is another stem plus digits (``a1`` beside ``a``) would give
    clashing ids (``a11`` twice), so it gets ``_`` appended until it neither
    equals a stem nor has one as itself plus digits. Stems ending in ``_``
    cannot clash that way, so all ids stay pairwise distinct.
    """
    lowered = Counter(c.lower() for c in classes)
    stems = {c: (c.lower() if lowered[c.lower()] == 1 else c) for c in classes}
    initial = set(stems.values())
    taken = set(initial)
    # Appended stems end in ``_`` and extend nothing, so this need not grow.
    extended = {base for stem in initial for base in _digit_bases(stem)}
    for c in classes:
        stem = stems[c]
        if initial.isdisjoint(_digit_bases(stem)):
            continue
        stem += "_"
        while stem in taken or stem in extended:
            stem += "_"
        taken.add(stem)
        stems[c] = stem
    return stems


def _digit_bases(stem: str) -> list[str]:
    """The prefixes that ``stem`` extends by a number without leading zero,
    so that ids of such a prefix and ids of ``stem`` can spell one string."""
    bases = []
    i = len(stem)
    while i > 0 and stem[i - 1] in "0123456789":
        i -= 1
        if stem[i] != "0":
            bases.append(stem[:i])
    return bases


def count_vectors(caps: list[int], total: int) -> Iterator[tuple[int, ...]]:
    """All count tuples bounded by ``caps`` that sum to ``total``, in
    lexicographic order."""
    n = len(caps)
    room = [0] * (n + 1)  # room[i]: the most that positions i.. can hold
    for i in range(n - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    if not 0 <= total <= room[0]:
        return
    counts = [0] * n
    left = [total] * (n + 1)  # left[i]: what positions i.. must sum to
    start = 0
    while True:
        # Fill positions start.. with their smallest values that can still
        # reach the total.
        for i in range(start, n):
            counts[i] = max(0, left[i] - room[i + 1])
            left[i + 1] = left[i] - counts[i]
        yield tuple(counts)
        j = n - 1
        while j >= 0 and counts[j] >= min(caps[j], left[j]):
            j -= 1
        if j < 0:
            return
        counts[j] += 1
        left[j + 1] = left[j] - counts[j]
        start = j + 1


def objects_for_counts(
    classes: tuple[str, ...], prefixes: dict[str, str], counts: tuple[int, ...]
) -> dict[str, str]:
    objects: dict[str, str] = {}
    for cls, n in zip(classes, counts):
        for i in range(1, n + 1):
            objects[f"{prefixes[cls]}{i}"] = cls
    return objects
