"""Test-only helpers: a structural DOT validator, word membership for the
``Dfa`` that ``determinize`` returns, and the quadratic reference for
``object_id_prefixes``."""

from __future__ import annotations

import re
from collections import Counter

from semdiff.ad_diff import Dfa

# ---------------------------------------------------------------------------
# DOT validation (structural only; enough to catch malformed output)

_DOT_ATTRS = r'\[(?:[^\]"]|"(?:[^"\\]|\\.)*")*\]'
_DOT_NODE_RE = re.compile(r'^\s*("(?:[^"\\]|\\.)*")\s*(%s)?\s*;\s*$' % _DOT_ATTRS)
_DOT_EDGE_RE = re.compile(
    r'^\s*("(?:[^"\\]|\\.)*")\s*->\s*("(?:[^"\\]|\\.)*")\s*(%s)?\s*;\s*$' % _DOT_ATTRS
)


def validate_dot(payload: str) -> None:
    """Check digraph shape: header, balanced braces, edges between declared
    nodes. Raises ValueError on the first problem."""
    lines = payload.splitlines()
    if not lines or not re.match(r'^digraph\s+("(?:[^"\\]|\\.)*"|\w+)\s*\{$', lines[0]):
        raise ValueError("missing digraph header")
    if not lines or lines[-1].strip() != "}":
        raise ValueError("missing closing brace")
    declared: set[str] = set()
    for line in lines[1:-1]:
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        edge = _DOT_EDGE_RE.match(line)
        if edge:
            for endpoint in (edge.group(1), edge.group(2)):
                if endpoint not in declared:
                    raise ValueError(f"edge endpoint {endpoint} is not a declared node")
            continue
        node = _DOT_NODE_RE.match(line)
        if node:
            declared.add(node.group(1))
            continue
        raise ValueError(f"unrecognized DOT line: {stripped!r}")
    if payload.count("{") != payload.count("}"):
        raise ValueError("unbalanced braces")


# ---------------------------------------------------------------------------
# deterministic automata


def dfa_complement(dfa: Dfa) -> Dfa:
    flipped = frozenset(range(dfa.n_states)) - dfa.accepting
    return Dfa(dfa.alphabet, dfa.transitions, dfa.initial, flipped)


def dfa_accepts_word(dfa: Dfa, word) -> bool:
    col = {a: i for i, a in enumerate(dfa.alphabet)}
    state = dfa.initial
    for letter in word:
        if letter not in col:
            return False
        state = dfa.transitions[state][col[letter]]
    return state in dfa.accepting


# ---------------------------------------------------------------------------
# object ids


def reference_object_id_prefixes(classes: tuple[str, ...]) -> dict[str, str]:
    """``object_id_prefixes`` as first written: each stem is compared with
    every other, so it is quadratic in the number of classes."""
    lowered = Counter(c.lower() for c in classes)
    stems = {c: (c.lower() if lowered[c.lower()] == 1 else c) for c in classes}
    initial = set(stems.values())
    taken = set(initial)
    for c in classes:
        stem = stems[c]
        if not any(_digit_extension(stem, other) for other in initial):
            continue
        stem += "_"
        while stem in taken or any(_digit_extension(other, stem) for other in taken):
            stem += "_"
        taken.add(stem)
        stems[c] = stem
    return stems


def _digit_extension(stem: str, base: str) -> bool:
    """Whether ``stem`` is ``base`` followed by a number without leading zero."""
    tail = stem[len(base):]
    return (
        len(stem) > len(base)
        and stem.startswith(base)
        and tail.isascii()
        and tail.isdigit()
        and tail[0] != "0"
    )
