"""Bounded semantic differencing of class diagrams.

The diff of two diagrams is the set of object models that instantiate the
first but not the second. The search is exhaustive up to a per-class instance
bound k. It walks count vectors (how many objects each class gets) level by
level, fewest objects first, and decides each count vector per association
instead of per model.

Membership in the second diagram B splits into independent parts: B's
object-level checks (declared, concrete and singleton classes), each
association only B declares on the empty link set, and, for each association
of the first diagram A, that association's link set against B's declaration
of it (only the empty set passes when B lacks it). So when the objects alone
rule out B, every model of A is a witness. Otherwise a cheap, sound
containment test settles most associations without enumeration: A's end
classes inside B's end closures, A's possible degrees inside B's
multiplicities. The remaining associations enumerate their A-valid link sets
once and flag those B rejects. A count vector with nothing flagged is
skipped; otherwise only the combinations that hold a flagged link set are
built into models.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from itertools import chain, combinations, product

from .cd_lang import Association, ClassDiagram, ClassModifier, Multiplicity
from .cd_semantics import (
    Link,
    ObjectModel,
    count_vectors,
    is_instance,
    object_id_prefixes,
    objects_for_counts,
    print_om,
)
from .verdict import DEFAULT_MAX_WITNESSES, DiffResult, Verdict

DEFAULT_BOUND = 3

LinkSet = tuple[Link, ...]


def cddiff(
    cd1: ClassDiagram,
    cd2: ClassDiagram,
    k: int = DEFAULT_BOUND,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
) -> DiffResult:
    """Object models instantiating ``cd1`` but not ``cd2``, up to bound ``k``.

    Witnesses come back sorted by total object count, then canonical text,
    truncated at ``max_witnesses``. ``exhausted`` is only true when every
    canonical model within the bound was covered and nothing was cut off.
    """
    _check_bound(k)
    if max_witnesses < 1:
        raise ValueError("max_witnesses must be >= 1")
    witnesses: list[ObjectModel] = []
    exhausted = True
    for total, max_total, level in _witness_levels(cd1, cd2, k):
        witnesses.extend(sorted(level, key=print_om))
        if len(witnesses) >= max_witnesses and total < max_total:
            exhausted = False
            break
    if len(witnesses) > max_witnesses:
        witnesses = witnesses[:max_witnesses]
        exhausted = False
    _check_witnesses(witnesses, cd1, cd2)
    return DiffResult(witnesses, exhausted)


def compare_cd(cd1: ClassDiagram, cd2: ClassDiagram, k: int = DEFAULT_BOUND) -> Verdict:
    """Relate two diagrams up to bound k by probing both diff directions.

    A direction differs as soon as its search meets one witness, which is
    self-checked as ``cddiff`` checks its own; no level is sorted or printed.
    """
    _check_bound(k)
    differs = []
    for a, b in ((cd1, cd2), (cd2, cd1)):
        first = next((om for _, _, level in _witness_levels(a, b, k) for om in level), None)
        if first is not None:
            _check_witnesses([first], a, b)
        differs.append(first is not None)
    return Verdict.of(*differs, bounded=True)


def _check_bound(k: int) -> None:
    if k < 0:
        raise ValueError("bound k must be >= 0")


def _check_witnesses(witnesses: list[ObjectModel], cd1: ClassDiagram, cd2: ClassDiagram) -> None:
    """Confirm that each witness instantiates ``cd1`` and not ``cd2``."""
    for w in witnesses:
        ok1, _ = is_instance(w, cd1)
        ok2, _ = is_instance(w, cd2)
        if not ok1 or ok2:
            raise RuntimeError(f"diff search produced an unsound witness:\n{print_om(w)}")


def _witness_levels(
    cd1: ClassDiagram, cd2: ClassDiagram, k: int
) -> Iterator[tuple[int, int, Iterator[ObjectModel]]]:
    """Yield (total, max_total, witnesses at total, in search order) over the
    sorted class names of both diagrams, smallest total first. Each level's
    witnesses are built as they are read."""
    classes = tuple(sorted({c.name for cd in (cd1, cd2) for c in cd.classes}))
    prefixes = object_id_prefixes(classes)
    decl1 = {c.name: c for c in cd1.classes}
    caps = [
        0 if decl1.get(c) is None or decl1[c].modifier is ClassModifier.ABSTRACT else k
        for c in classes
    ]
    max_total = sum(caps)

    def level(total: int) -> Iterator[ObjectModel]:
        for counts in count_vectors(caps, total):
            objects = objects_for_counts(classes, prefixes, counts)
            if not _object_level_ok(objects, cd1):
                continue
            for links in _rejected_link_choices(objects, cd1, cd2):
                yield ObjectModel("om", dict(objects), links)

    for total in range(max_total + 1):
        yield total, max_total, level(total)


def _rejected_link_choices(
    objects: dict[str, str], cd1: ClassDiagram, cd2: ClassDiagram
) -> Iterator[frozenset[Link]]:
    """Links of every model of ``cd1`` over ``objects`` that ``cd2`` rejects.

    ``objects`` must already pass ``cd1``'s object-level check.
    """
    assocs1 = sorted(cd1.associations, key=lambda a: a.name)
    decls2 = {b.name: b for b in cd2.associations}
    names1 = {a.name for a in assocs1}
    if not _object_level_ok(objects, cd2) or not all(
        _links_ok(b, (), objects, cd2.closures) for b in cd2.associations if b.name not in names1
    ):
        yield from _unions([_assoc_link_sets(a, objects, cd1.closures) for a in assocs1])
        return
    accepted: list[list[LinkSet] | None] = []  # None: cd2 admits every link set
    flagged: list[list[LinkSet]] = []
    for a in assocs1:
        b = decls2.get(a.name)
        if _contained(a, b, objects, cd1.closures, cd2.closures):
            accepted.append(None)
            flagged.append([])
            continue
        ok: list[LinkSet] = []
        bad: list[LinkSet] = []
        for links in _assoc_link_sets(a, objects, cd1.closures):
            (ok if _links_ok(b, links, objects, cd2.closures) else bad).append(links)
        accepted.append(ok)
        flagged.append(bad)
    if not any(flagged):
        return
    every = [
        _assoc_link_sets(a, objects, cd1.closures) if ok is None else ok + bad
        for a, ok, bad in zip(assocs1, accepted, flagged)
    ]
    accepted = [e if ok is None else ok for e, ok in zip(every, accepted)]
    # The rejected combinations, split by the first association whose link
    # set cd2 rejects: accepted sets before it, any set after it.
    for i, bad in enumerate(flagged):
        if bad:
            yield from _unions([*accepted[:i], bad, *every[i + 1:]])


def _unions(choice_lists: list[list[LinkSet]]) -> Iterator[frozenset[Link]]:
    """One link set per association, in every combination, as one link set."""
    for combo in product(*choice_lists):
        yield frozenset(link for links in combo for link in links)


def _object_level_ok(objects: dict[str, str], cd: ClassDiagram) -> bool:
    """Object-population checks only: declared, concrete, singleton counts."""
    modifiers = {c.name: c.modifier for c in cd.classes}
    for cls in objects.values():
        mod = modifiers.get(cls)
        if mod is None or mod is ClassModifier.ABSTRACT:
            return False
    for decl in cd.classes:
        if decl.modifier is ClassModifier.SINGLETON:
            n = sum(1 for cls in objects.values() if cls in cd.closures[decl.name])
            if n != 1:
                return False
    return True


def _links_ok(
    b: Association | None,
    links: LinkSet,
    objects: dict[str, str],
    closures: dict[str, frozenset[str]],
) -> bool:
    """Whether one association's links satisfy its declaration ``b`` in the
    other diagram; an association that diagram lacks admits no links."""
    if b is None:
        return not links
    left = closures[b.left_class]
    right = closures[b.right_class]
    out_counts: Counter[str] = Counter()
    in_counts: Counter[str] = Counter()
    for _, s, t in links:
        if objects[s] not in left or objects[t] not in right:
            return False
        out_counts[s] += 1
        in_counts[t] += 1
    return all(
        (cls not in left or b.right_mult.admits(out_counts[o]))
        and (cls not in right or b.left_mult.admits(in_counts[o]))
        for o, cls in objects.items()
    )


def _contained(
    a: Association,
    b: Association | None,
    objects: dict[str, str],
    closures1: dict[str, frozenset[str]],
    closures2: dict[str, frozenset[str]],
) -> bool:
    """Sound, incomplete test that every link set ``a`` admits over
    ``objects`` also satisfies ``b``: ``a``'s end objects lie inside ``b``'s
    end closures and their possible degrees inside ``b``'s multiplicities."""
    left1 = closures1[a.left_class]
    right1 = closures1[a.right_class]
    sources = [cls for cls in objects.values() if cls in left1]
    targets = [cls for cls in objects.values() if cls in right1]
    linkable = bool(sources and targets) and a.right_mult.max != 0 and a.left_mult.max != 0
    if b is None:
        return not linkable
    left2 = closures2[b.left_class]
    right2 = closures2[b.right_class]
    if linkable and not (all(c in left2 for c in sources) and all(c in right2 for c in targets)):
        return False
    out_range = _degree_range(a.right_mult, len(targets) if linkable else 0)
    in_range = _degree_range(a.left_mult, len(sources) if linkable else 0)
    return all(
        (cls not in left2 or _range_within(out_range if cls in left1 else (0, 0), b.right_mult))
        and (cls not in right2 or _range_within(in_range if cls in right1 else (0, 0), b.left_mult))
        for cls in objects.values()
    )


def _degree_range(mult: Multiplicity, available: int) -> tuple[int, int]:
    """Degrees an end object can have with ``available`` partners."""
    high = available if mult.max is None else min(mult.max, available)
    return mult.min, high


def _range_within(degrees: tuple[int, int], mult: Multiplicity) -> bool:
    # An empty range belongs to an object that no link set can satisfy, so
    # there is no link set to reject.
    low, high = degrees
    return low > high or (low >= mult.min and (mult.max is None or high <= mult.max))


def _assoc_link_sets(
    a: Association, objects: dict[str, str], closures: dict[str, frozenset[str]]
) -> list[LinkSet]:
    """Every link set for one association that satisfies the owning diagram.

    Sources and targets are the objects inside the end closures. Each source
    in turn picks as many targets as the right-end multiplicity admits, among
    those still below the left-end maximum; a full assignment is kept when
    every target has reached the left-end minimum. The walk keeps one lazy
    pick iterator per source on its own stack, so its depth does not grow with
    the population and no source's picks are listed in full.
    """
    sources = sorted(o for o, c in objects.items() if c in closures[a.left_class])
    targets = sorted(o for o, c in objects.items() if c in closures[a.right_class])
    out_mult, in_mult = a.right_mult, a.left_mult
    if not sources:
        return [()] if not targets or in_mult.admits(0) else []
    in_counts = dict.fromkeys(targets, 0)

    def picks(s: str) -> Iterator[LinkSet]:
        free = [(a.name, s, t) for t in targets if in_mult.max is None or in_counts[t] < in_mult.max]
        most = len(free) if out_mult.max is None else min(out_mult.max, len(free))
        return chain.from_iterable(combinations(free, d) for d in range(out_mult.min, most + 1))

    results: list[LinkSet] = []
    chosen: list[LinkSet] = []  # chosen[i]: the links sources[i] picked
    stack = [picks(sources[0])]  # stack[i]: the picks sources[i] has yet to try
    while stack:
        if len(chosen) == len(stack):  # take back the top source's last pick
            for _, _, t in chosen.pop():
                in_counts[t] -= 1
        pick = next(stack[-1], None)
        if pick is None:
            stack.pop()
            continue
        for _, _, t in pick:
            in_counts[t] += 1
        chosen.append(pick)
        if len(chosen) < len(sources):
            stack.append(picks(sources[len(chosen)]))
        elif all(n >= in_mult.min for n in in_counts.values()):
            results.append(tuple(chain.from_iterable(chosen)))
    return results
