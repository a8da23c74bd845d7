"""Bounded semantic differencing of class diagrams.

The diff of two diagrams is the set of object models that instantiate the
first but not the second. The search is exhaustive up to a per-class instance
bound k. It walks count vectors (how many objects each class gets) level by
level, fewest objects first, and decides each count vector from its class
counts before it labels a single object.

Membership in the second diagram B splits into independent parts: B's
object-level checks (declared, concrete and singleton classes), each
association only B declares on the empty link set, and, for each association
of the first diagram A, that association's link set against B's declaration
of it (only the empty set passes when B lacks it). All of them but the last
read only how many objects each class has. So per count vector: A's
singleton counts say whether A has a model at all; when B's class-level
parts fail, every model of A is a witness; otherwise a cheap, sound
containment test settles most associations from the numbers of sources and
targets and the classes present: A's end classes inside B's end closures,
A's possible degrees inside B's multiplicities. A count vector whose
associations all pass is skipped without labelling its objects. Only the
rest get objects; there the remaining associations enumerate their A-valid
link sets once and split off those B rejects, and only the combinations that
hold a rejected link set are built into models.

The count test also gives the total the walk starts from, past the last one
for a direction it proves empty (see ``_count_test``). It settles on group
totals cut at each association's multiplicity threshold, whatever the bound.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from itertools import chain, combinations, product
from operator import itemgetter

from .cd_lang import Association, ClassDiagram, ClassModifier, Multiplicity
from .cd_semantics import (
    Link,
    ObjectModel,
    count_vectors,
    object_block,
    object_id_prefixes,
    objects_for_counts,
    print_om,
    violations,
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
    truncated at ``max_witnesses``. ``exhausted`` is true when no witness
    lies past the cap and no level of the search is left unread; a level
    past the cap is not read, so it counts even when it holds no witness.
    """
    _check_bound(k)
    if max_witnesses < 1:
        raise ValueError("max_witnesses must be >= 1")
    levels = _witness_levels(cd1, cd2, k)
    witnesses: list[ObjectModel] = []
    for vectors in levels:
        # The count vectors of one level give object blocks of one length, so
        # those blocks alone order their models' texts; links only order the
        # models of one count vector. One witness past the cap settles
        # ``exhausted``, so the level is expanded no further.
        for _, models in sorted(vectors, key=lambda vector: object_block(vector[0])):
            witnesses.extend(sorted(models, key=print_om))
            if len(witnesses) > max_witnesses:
                break
        if len(witnesses) >= max_witnesses:
            break
    exhausted = len(witnesses) <= max_witnesses and next(levels, None) is None
    witnesses = witnesses[:max_witnesses]
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
        first = next((om for vectors in _witness_levels(a, b, k)
                      for _, models in vectors for om in models), None)
        if first is not None:
            _check_witnesses([first], a, b)
        differs.append(first is not None)
    return Verdict.of(*differs, bounded=True)


def _check_bound(k: int) -> None:
    if k < 0:
        raise ValueError("bound k must be >= 0")


def _check_witnesses(witnesses: list[ObjectModel], cd1: ClassDiagram, cd2: ClassDiagram) -> None:
    """Confirm that each witness instantiates ``cd1`` and not ``cd2``; the
    first violation on each side settles it."""
    for w in witnesses:
        ok1 = next(violations(w, cd1), None) is None
        ok2 = next(violations(w, cd2), None) is None
        if not ok1 or ok2:
            raise RuntimeError(f"diff search produced an unsound witness:\n{print_om(w)}")


Vector = tuple[dict[str, str], Iterator[ObjectModel]]  # objects, their witnesses
Decision = tuple[int, ...] | None  # a count vector's, as ``_count_test`` gives it
Pairs = list[tuple[Association, Association | None]]  # A's associations by name, each with B's


def _witness_levels(cd1: ClassDiagram, cd2: ClassDiagram, k: int) -> Iterator[Iterator[Vector]]:
    """Yield the count vectors of each total over the sorted class names of
    both diagrams, one level per total, smallest total first.

    Each count vector is decided from its counts alone (``_count_test``).
    Only a count vector that may hold witnesses is labelled with objects
    (``objects_for_counts``): one on which B rejects every model of A, or
    one with an association whose link sets must be listed. A level yields
    those count vectors in search order, each as its objects and its
    witnesses, which are built as they are read. The levels start at the
    count test's start total, so a direction it settles yields none."""
    classes = tuple(sorted({c.name for cd in (cd1, cd2) for c in cd.classes}))
    decl1 = {c.name: c for c in cd1.classes}
    caps = [
        0 if decl1.get(c) is None or decl1[c].modifier is ClassModifier.ABSTRACT else k
        for c in classes
    ]
    decls2 = {b.name: b for b in cd2.associations}
    pairs = [(a, decls2.get(a.name)) for a in sorted(cd1.associations, key=lambda a: a.name)]
    decide, first = _count_test(classes, caps, pairs, cd1, cd2)
    max_total = sum(caps)
    if first > max_total:
        return
    prefixes = object_id_prefixes(classes)

    def level(total: int) -> Iterator[Vector]:
        for counts in count_vectors(caps, total):
            listed = decide(counts)
            if listed != ():
                objects = objects_for_counts(classes, prefixes, counts)
                yield objects, _rejected_models(objects, listed, pairs, cd1, cd2)

    for total in range(first, max_total + 1):
        yield level(total)


def _count_test(
    classes: tuple[str, ...], caps: list[int], pairs: Pairs, cd1: ClassDiagram, cd2: ClassDiagram
) -> tuple[Callable[[tuple[int, ...]], Decision], int]:
    """Decide count vectors over ``classes`` (objects per class, in that
    order, at most ``caps``) for the diff of ``cd1`` against ``cd2``, reading
    counts only; and give the total the walk starts from: every count vector
    of a smaller total is decided ``()``.

    The decision for one count vector is ``()`` when it has no witness: A
    has no model on it (a singleton count is not 1), or each of A's
    associations passes the containment test. It is ``None`` when B rejects
    every model of A on it: a class B bars is present (B lacks it or
    declares it abstract, or it must have a link of an association only B
    declares), or a singleton count of B is not 1. Otherwise it is the
    positions, in ``pairs``, of A's associations whose link sets must be
    listed. A's declared and concrete classes are the ones
    ``_witness_levels`` gives a nonzero cap.

    The containment test of an association reads only the counts of its
    roles, the classes in its four end closures, ``cd1``'s and ``cd2``'s:
    the test's sums run over ``cd1``'s ends, and a class outside them is no
    end of either diagram's association. Roles that lie in the same ends are
    interchangeable for it, so it reads only each such group's total. Its
    answers are kept in a table keyed by those totals (an entry), which
    holds at most the product over the groups of their caps plus one: the
    classes of an ``extends`` chain below an end fall into one group.

    The start total is 0 unless

    (a) no class that B bars has a nonzero cap: no count vector has an
        object of a barred class, so none is ``None`` for one; and
    (b) each of B's singleton closures, cut down to the classes with a
        nonzero cap, is one of A's cut down alike: a class without a cap
        counts 0, so wherever A's singleton counts are 1, B's are too, and
        no count vector on which A has a model is ``None`` for them.

    Then only a failing entry can make a decision other than ``()``. The
    start total is that of the first entry that fails, met by total, fewest
    objects first, all associations at one total before the next; or
    ``sum(caps) + 1``, settling the direction, when every entry up to its
    groups' caps passes. A count vector of a smaller total projects onto
    entries of no larger total, which all pass. ``decide`` reads the tables
    this fills.

    Settling meets only the entries whose totals are at most the
    association's threshold ``T``: 1 plus the largest finite ``min`` or
    ``max`` of its multiplicities in A and in B (A's two when B lacks it),
    the only ones ``_contained`` reads. (1) An entry and its totals each cut
    to at most ``T`` get the same answer: a total is zero after the cut
    exactly when it was before, and a total, or a sum of totals, of at least
    ``T`` still is after the cut, so it lies on the same side of every bound
    of at most ``T - 1``. (2) So a failing entry cuts to a failing entry of
    no larger total, and the least total of a failing entry is met among the
    cut ones. (3) So the start total, and which directions settle, are those
    of the uncut walk, while settling meets at most the product over the
    groups of ``min(cap, T) + 1`` entries, whatever the bound.
    """
    index = {c: i for i, c in enumerate(classes)}

    def singletons(cd: ClassDiagram) -> list[frozenset[int]]:
        return [_members(cd, d.name, index) for d in cd.classes if d.modifier is ClassModifier.SINGLETON]

    singletons1, singletons2 = singletons(cd1), singletons(cd2)
    # Classes whose objects B rejects whatever their links: undeclared or
    # abstract in B, or at an end of an association only B declares where
    # it needs a link.
    modifiers2 = {c.name: c.modifier for c in cd2.classes}
    barred = {i for c, i in index.items() if modifiers2.get(c) in (None, ClassModifier.ABSTRACT)}
    names1 = {a.name for a, _ in pairs}
    for b in cd2.associations:
        if b.name not in names1:
            if not b.right_mult.admits(0):
                barred |= _members(cd2, b.left_class, index)
            if not b.left_mult.admits(0):
                barred |= _members(cd2, b.right_class, index)
    # Per association: the key that reads its entry off a count vector, its
    # groups' caps (the entry of ``caps``) cut at its threshold, its table,
    # and the arguments of ``_contained`` before the entry, its ends as
    # positions among the groups.
    parts = []
    for a, b in pairs:
        ends = [_members(cd1, a.left_class, index), _members(cd1, a.right_class, index), set(), set()]
        if b is not None:
            ends[2:] = _members(cd2, b.left_class, index), _members(cd2, b.right_class, index)
        left1, right1, left2, right2 = ends
        roles = sorted(set().union(*ends))
        groups: dict[tuple[bool, ...], list[int]] = {}  # the roles, by the ends that hold them
        for i in roles:
            groups.setdefault((i in left1, i in right1, i in left2, i in right2), []).append(i)
        # Where each group is one class, ``itemgetter`` reads the entry fastest.
        key = (itemgetter(*roles) if len(groups) == len(roles) > 1
               else lambda counts, m=tuple(groups.values()): tuple(sum(counts[i] for i in g) for g in m))
        test = (a, b, *({j for j, held in enumerate(groups) if held[e]} for e in range(4)))
        mults = [m for d in (a, b) if d is not None for m in (d.left_mult, d.right_mult)]
        threshold = 1 + max(n for m in mults for n in (m.min, m.max) if n is not None)
        parts.append((key, tuple(min(cap, threshold) for cap in key(caps)), {}, test))

    def passes(part: tuple, entry: tuple[int, ...]) -> bool:
        _, _, table, test = part
        ok = table.get(entry)
        if ok is None:
            ok = table[entry] = _contained(*test, entry)
        return ok

    def decide(counts: tuple[int, ...]) -> Decision:
        if any(sum(counts[i] for i in s) != 1 for s in singletons1):
            return ()
        if any(counts[i] for i in barred) or any(sum(counts[i] for i in s) != 1 for s in singletons2):
            return None
        return tuple(j for j, part in enumerate(parts) if not passes(part, part[0](counts)))

    capped = {i for i, cap in enumerate(caps) if cap}
    if barred & capped or not {s & capped for s in singletons2} <= {s & capped for s in singletons1}:
        return decide, 0
    most = max((sum(group_caps) for _, group_caps, _, _ in parts), default=0)
    failing = (
        total
        for total in range(most + 1)
        for part in parts
        for entry in count_vectors(part[1], total)
        if not passes(part, entry)
    )
    return decide, next(failing, sum(caps) + 1)


def _members(cd: ClassDiagram, name: str, index: dict[str, int]) -> frozenset[int]:
    """Positions in ``index`` of the classes in ``name``'s closure in ``cd``."""
    return frozenset(index[c] for c in cd.closures[name] if c in index)


def _contained(
    a: Association,
    b: Association | None,
    left1: set[int],
    right1: set[int],
    left2: set[int],
    right2: set[int],
    counts: tuple[int, ...],
) -> bool:
    """Sound, incomplete test that every link set ``a`` admits over the
    objects of ``counts`` also satisfies ``b``: ``a``'s end classes lie inside
    ``b``'s end closures and their possible degrees inside ``b``'s
    multiplicities. ``left1`` .. ``right2`` are ``a``'s and ``b``'s end
    closures as positions in ``counts``, which holds the totals of groups of
    classes that lie in the same ends."""
    sources = sum(counts[i] for i in left1)
    targets = sum(counts[i] for i in right1)
    linkable = sources > 0 and targets > 0 and a.right_mult.max != 0 and a.left_mult.max != 0
    if b is None:
        return not linkable
    present = [i for i, n in enumerate(counts) if n]
    if linkable and any(
        i in left1 and i not in left2 or i in right1 and i not in right2 for i in present
    ):
        return False
    out_range = _degree_range(a.right_mult, targets if linkable else 0)
    in_range = _degree_range(a.left_mult, sources if linkable else 0)
    return all(
        (i not in left2 or _range_within(out_range if i in left1 else (0, 0), b.right_mult))
        and (i not in right2 or _range_within(in_range if i in right1 else (0, 0), b.left_mult))
        for i in present
    )


def _rejected_models(
    objects: dict[str, str], listed: Decision, pairs: Pairs, cd1: ClassDiagram, cd2: ClassDiagram
) -> Iterator[ObjectModel]:
    """The models of ``cd1`` over ``objects`` that ``cd2`` rejects, built as
    they are read.

    ``listed`` is the count test's decision for ``objects``: None when
    ``cd2`` rejects every model of ``cd1`` over them, else the positions, in
    ``pairs``, of the associations whose link sets must be checked against
    ``cd2``. Each of those lists its link sets once and splits them into the
    ones ``cd2`` accepts and the ones it rejects. Every other association's
    link sets all pass; they are listed only once a checked association has
    a rejected link set. A rejected model is built under the first
    association whose link set ``cd2`` rejects: accepted link sets before
    it, any link set after it.
    """
    if listed is None:
        splits = [[_assoc_link_sets(a, objects, cd1.closures) for a, _ in pairs]]
    else:
        checked: dict[int, tuple[list[LinkSet], list[LinkSet]]] = {}  # accepted, rejected
        for i in listed:
            a, b = pairs[i]
            ok, bad = checked[i] = [], []
            for links in _assoc_link_sets(a, objects, cd1.closures):
                (ok if _links_ok(b, links, objects, cd2.closures) else bad).append(links)
        if not any(bad for _, bad in checked.values()):
            return
        every = [checked[i][0] + checked[i][1] if i in checked else _assoc_link_sets(a, objects, cd1.closures)
                 for i, (a, _) in enumerate(pairs)]
        accepted = [checked[i][0] if i in checked else sets for i, sets in enumerate(every)]
        splits = [[*accepted[:i], bad, *every[i + 1:]] for i, (_, bad) in checked.items() if bad]
    for choices in splits:
        for combo in product(*choices):
            yield ObjectModel("om", dict(objects), frozenset(chain.from_iterable(combo)))


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
