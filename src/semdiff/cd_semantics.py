"""Object models and the bounded semantics of class diagrams.

An object model is a set of typed, named objects plus directed links. It
counts as an instance of a diagram when every object's class is declared and
concrete, singleton counts hold, link ends respect the subclass closures of
the association ends, and link counts stay inside the multiplicities.

An object model may hold objects of any class name, so when two diagrams are
compared, an object of a class that only the other diagram declares simply
falls outside this one's semantics. The diff search labels objects with
``object_id_prefixes`` and walks their counts with ``count_vectors``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from enum import Enum

from .cd_lang import Association, ClassDiagram, ClassModifier, Multiplicity
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
    violations: list[Violation] = []
    modifiers = {c.name: c.modifier for c in cd.classes}
    closures = cd.closures

    for oid in sorted(om.objects):
        cls = om.objects[oid]
        mod = modifiers.get(cls)
        if mod is None:
            violations.append(Violation(
                ViolationKind.UNKNOWN_CLASS, oid,
                f"object '{oid}' has class '{cls}' not declared in '{cd.name}'"))
        elif mod is ClassModifier.ABSTRACT:
            violations.append(Violation(
                ViolationKind.ABSTRACT_INSTANTIATED, oid,
                f"object '{oid}' instantiates abstract class '{cls}'"))

    class_counts = Counter(om.objects.values())
    for decl in cd.classes:
        if decl.modifier is not ClassModifier.SINGLETON:
            continue
        n = sum(class_counts[c] for c in closures[decl.name])
        if n != 1:
            violations.append(Violation(
                ViolationKind.SINGLETON_COUNT, decl.name,
                f"singleton class '{decl.name}' has {n} instances, expected exactly 1"))

    ends = {a.name: _ends(a) for a in cd.associations}
    for assoc, src, dst in sorted(om.links):
        if assoc not in ends:
            violations.append(Violation(
                ViolationKind.UNKNOWN_ASSOCIATION, assoc,
                f"link uses association '{assoc}' not declared in '{cd.name}'"))
            continue
        for oid, (side, end_class, _, _) in zip((src, dst), ends[assoc]):
            if om.objects.get(oid) not in closures[end_class]:
                violations.append(Violation(
                    ViolationKind.BAD_ENDPOINT, oid,
                    f"'{oid}' is not a '{end_class}' (or subclass), required at the"
                    f" {side} end of '{assoc}'"))

    degrees = Counter((assoc, "outgoing", src) for assoc, src, _ in om.links)
    degrees.update((assoc, "incoming", dst) for assoc, _, dst in om.links)
    for a in sorted(cd.associations, key=lambda x: x.name):
        a_ends = _ends(a)
        for oid in sorted(om.objects):
            for _, end_class, direction, mult in a_ends:
                if om.objects[oid] in closures[end_class]:
                    n = degrees[a.name, direction, oid]
                    if not mult.admits(n):
                        violations.append(Violation(
                            ViolationKind.MULTIPLICITY, oid,
                            f"'{oid}' has {n} {direction} '{a.name}' links, allowed {mult}"))

    return (not violations, violations)


def _ends(a: Association) -> tuple[tuple[str, str, str, Multiplicity], ...]:
    """Each end of ``a``, left first: its side, its class, the direction of its
    objects' links, and the opposite multiplicity, which bounds their number."""
    return (
        ("left", a.left_class, "outgoing", a.right_mult),
        ("right", a.right_class, "incoming", a.left_mult),
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
