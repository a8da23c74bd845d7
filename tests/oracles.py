"""Brute-force oracles for the two diff engines, sharing nothing with them.

The class-diagram oracle lists every labeled object model within a bound, and
the activity-diagram oracle every word an automaton accepts up to a length;
the sweeps filter these lists by membership and compare the result with what
``cddiff`` and ``addiff`` return. The subclass closures, object labels
(``helpers.reference_object_id_prefixes``), count vectors, config NFAs
(``helpers.reference_build_config_nfa``) and the subset walk are all built
here or in ``helpers``, so a fault in an engine helper shows up as a mismatch
instead of on both sides. ``tests/test_layering.py`` checks that this module
takes only data types and ``print_om`` from ``semdiff``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator, NamedTuple

from helpers import reference_build_config_nfa, reference_object_id_prefixes
from semdiff.ad_semantics import EPSILON, Nfa
from semdiff.cd_semantics import ObjectModel, print_om

Link = tuple[str, str, str]  # (association, source object, target object)


class Vocabulary(NamedTuple):
    """The joint vocabulary two class diagrams are compared over.

    ``associations`` maps each association name to every endpoint
    declaration it has across the diagrams, since the same name may connect
    different classes in different versions.
    """

    classes: tuple[str, ...]
    extends: tuple[tuple[str, str], ...]
    associations: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]


def vocabulary_of(*cds) -> Vocabulary:
    classes: set[str] = set()
    extends: set[tuple[str, str]] = set()
    ends: dict[str, set[tuple[str, str]]] = {}
    for cd in cds:
        classes.update(c.name for c in cd.classes)
        extends.update(cd.extends)
        for a in cd.associations:
            ends.setdefault(a.name, set()).add((a.left_class, a.right_class))
    assocs = tuple((name, tuple(sorted(ends[name]))) for name in sorted(ends))
    return Vocabulary(tuple(sorted(classes)), tuple(sorted(extends)), assocs)


def subclass_closures(vocab: Vocabulary) -> dict[str, set[str]]:
    """Each class with every class below it under the joint ``extends``."""
    closures = {c: {c} for c in vocab.classes}
    grown = True
    while grown:
        grown = False
        for child, parent in vocab.extends:
            for members in closures.values():
                if parent in members and child not in members:
                    members.add(child)
                    grown = True
    return closures


def compatible_pairs(vocab: Vocabulary, objects: dict[str, str]) -> list[Link]:
    """All links the vocabulary can justify over ``objects``, sorted: a pair
    fits an association when some declaration of that name covers both ends
    through the joint subclass closures."""
    closures = subclass_closures(vocab)
    pairs: set[Link] = set()
    for name, decls in vocab.associations:
        for left, right in decls:
            sources = [o for o, c in objects.items() if c in closures.get(left, ())]
            targets = [o for o, c in objects.items() if c in closures.get(right, ())]
            pairs.update((name, s, t) for s in sources for t in targets)
    return sorted(pairs)


def populations(vocab: Vocabulary, k: int) -> Iterator[tuple[int, dict[str, str]]]:
    """(object count, objects) for every way of giving each class at most
    ``k`` objects, labeled stem1..stemj per class."""
    prefixes = reference_object_id_prefixes(vocab.classes)
    for counts in product(range(k + 1), repeat=len(vocab.classes)):
        yield sum(counts), {
            f"{prefixes[c]}{i}": c for c, n in zip(vocab.classes, counts) for i in range(1, n + 1)
        }


def reference_object_models(vocab: Vocabulary, k: int) -> list[ObjectModel]:
    """Every labeled object model within the bound: each population with
    every subset of its compatible pairs as links, sorted by object count
    and then by canonical text. Isomorphic models with distinct labelings
    both occur."""
    levels: list[list[ObjectModel]] = [[] for _ in range(k * len(vocab.classes) + 1)]
    for total, objects in populations(vocab, k):
        pairs = compatible_pairs(vocab, objects)
        for r in range(len(pairs) + 1):
            for chosen in combinations(pairs, r):
                levels[total].append(ObjectModel("om", dict(objects), frozenset(chosen)))
    return [om for level in levels for om in sorted(level, key=print_om)]


def reference_words(nfa: Nfa, max_len: int, cap: int | None = None) -> list[tuple[str, ...]] | None:
    """All words ``nfa`` accepts up to ``max_len`` letters, shortest first,
    then lexicographic. With a ``cap``, None once more than ``cap`` (word,
    state set) branches were expanded."""
    silent: dict[int, list[int]] = {}
    moves: dict[tuple[int, str], list[int]] = {}
    for src, label, dst in nfa.transitions:
        if label is EPSILON:
            silent.setdefault(src, []).append(dst)
        else:
            moves.setdefault((src, label), []).append(dst)

    def closure(states) -> frozenset[int]:
        out, todo = set(states), list(states)
        while todo:
            for t in silent.get(todo.pop(), ()):
                if t not in out:
                    out.add(t)
                    todo.append(t)
        return frozenset(out)

    letters = sorted(nfa.alphabet)
    words: list[tuple[str, ...]] = []
    level = [((), closure({nfa.initial}))]
    expanded = 0
    for length in range(max_len + 1):
        nxt = []
        for word, states in level:
            expanded += 1
            if cap is not None and expanded > cap:
                return None
            if states & nfa.accepting:
                words.append(word)
            if length == max_len:
                continue
            for letter in letters:
                succ = closure({t for s in states for t in moves.get((s, letter), ())})
                if succ:
                    nxt.append((word + (letter,), succ))
        level = nxt
    return words


def reference_traces(ad, valuation: dict[str, str], max_len: int) -> list[tuple[str, ...]]:
    """Action sequences of up to ``max_len`` actions that ``ad`` can run
    under one valuation, shortest first."""
    return reference_words(reference_build_config_nfa(ad, valuation), max_len)
