"""Test-only helpers: the README's model blocks, a structural DOT validator,
complement and word membership for the complete deterministic ``Nfa`` that
``determinize`` returns, the character-loop reference for ``tokenize``, the
quadratic reference for ``object_id_prefixes``, the per-call reference for
``is_instance``, the object-scan reference for the class-diagram diff's
count test, the reference config-NFA builder that ``build_config_nfa`` must
agree with, the memo-free subset step that ``NfaRunner`` must agree with,
and ``addiff`` with nothing shared between valuations."""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

from semdiff import ad_diff
from semdiff.ad_lang import (
    ActivityDiagram,
    Guard,
    GuardAnd,
    GuardCmp,
    GuardLit,
    GuardNot,
    GuardOr,
    GuardVar,
    NodeKind,
    VarKind,
)
from semdiff.ad_semantics import (
    EPSILON,
    Config,
    ConfigTable,
    Nfa,
    Trace,
    UnsafeMarkingError,
    input_valuations,
)
from semdiff.cd_lang import Association, ClassDiagram, ClassModifier, Multiplicity
from semdiff.cd_semantics import ObjectModel, Violation, ViolationKind
from semdiff.lexer import EOF, IDENT, NAT, SYM, Diagnostic, ParseError, Token
from semdiff.verdict import DiffResult

README = Path(__file__).resolve().parent.parent / "README.md"
MODEL_KEYWORDS = ("classdiagram", "activity", "objectmodel")


def readme_blocks() -> list[str]:
    """The text of each fenced README block."""
    return re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


def model_blocks() -> list[tuple[str, str]]:
    """(keyword, text) of each fenced README block that starts with a model
    keyword."""
    blocks = []
    for text in readme_blocks():
        words = text.split(maxsplit=1)
        if words and words[0] in MODEL_KEYWORDS:
            blocks.append((words[0], text))
    return blocks


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


def dfa_complement(dfa: Nfa) -> Nfa:
    """The complement of a complete deterministic automaton over its alphabet."""
    return Nfa(dfa.n_states, dfa.alphabet, dfa.transitions, dfa.initial,
               frozenset(range(dfa.n_states)) - dfa.accepting)


def dfa_accepts_word(dfa: Nfa, word) -> bool:
    """Word membership for a deterministic automaton, read straight off its
    transition triples; a letter without a move rejects."""
    move = {(src, letter): dst for src, letter, dst in dfa.transitions}
    state = dfa.initial
    for letter in word:
        if (state, letter) not in move:
            return False
        state = move[state, letter]
    return state in dfa.accepting


# ---------------------------------------------------------------------------
# tokens

REFERENCE_SYMBOLS = (
    "]->", ":=", "==", "!=", "&&", "||", "-[", "--", "->", "..",
    "{", "}", "(", ")", "[", "]", ";", ":", ",", "*", "!", "=", "/",
)


def reference_tokenize(text: str) -> list[Token]:
    """``tokenize`` as first written: one character at a time, trying every
    symbol, longest first, with ``str.startswith``."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token(IDENT, text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token(NAT, text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in REFERENCE_SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(SYM, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(Diagnostic(line, col, f"unexpected character {ch!r}"))
    tokens.append(Token(EOF, "", line, col))
    return tokens


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


# ---------------------------------------------------------------------------
# class-diagram membership


def reference_is_instance(om: ObjectModel, cd: ClassDiagram) -> tuple[bool, list[Violation]]:
    """``cd_semantics.is_instance`` as first written: every call rebuilds the
    diagram's dicts, sorts the objects again for each association and lists
    every violation."""
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

    ends = {a.name: _reference_ends(a) for a in cd.associations}
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
        a_ends = _reference_ends(a)
        for oid in sorted(om.objects):
            for _, end_class, direction, mult in a_ends:
                if om.objects[oid] in closures[end_class]:
                    n = degrees[a.name, direction, oid]
                    if not mult.admits(n):
                        violations.append(Violation(
                            ViolationKind.MULTIPLICITY, oid,
                            f"'{oid}' has {n} {direction} '{a.name}' links, allowed {mult}"))

    return (not violations, violations)


def _reference_ends(a: Association) -> tuple[tuple[str, str, str, Multiplicity], ...]:
    """Each end of ``a``, left first: its side, its class, the direction of its
    objects' links, and the opposite multiplicity, which bounds their number."""
    return (
        ("left", a.left_class, "outgoing", a.right_mult),
        ("right", a.right_class, "incoming", a.left_mult),
    )


# ---------------------------------------------------------------------------
# the class-diagram count test


def reference_count_decision(
    objects: dict[str, str], cd1: ClassDiagram, cd2: ClassDiagram
) -> tuple[int, ...] | None:
    """``cd_diff``'s count-test decision, read object by object as the diff
    search first did: ``()`` when ``cd1`` has no model over ``objects`` or
    every association passes the containment test, ``None`` when the objects
    alone rule ``cd2`` out, else the positions (by name) of ``cd1``'s
    associations that fail the containment test."""
    if not reference_object_level_ok(objects, cd1):
        return ()
    if not reference_object_level_ok(objects, cd2) or reference_b_only_rejects(objects, cd1, cd2):
        return None
    decls2 = {b.name: b for b in cd2.associations}
    assocs1 = sorted(cd1.associations, key=lambda a: a.name)
    return tuple(
        i for i, a in enumerate(assocs1)
        if not reference_contained(a, decls2.get(a.name), objects, cd1.closures, cd2.closures)
    )


def reference_object_level_ok(objects: dict[str, str], cd: ClassDiagram) -> bool:
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


def reference_b_only_rejects(objects: dict[str, str], cd1: ClassDiagram, cd2: ClassDiagram) -> bool:
    """Whether an association only ``cd2`` declares rejects the empty link
    set over ``objects``: some object in one of its end closures needs a
    link."""
    names1 = {a.name for a in cd1.associations}
    return any(
        cls in cd2.closures[b.left_class] and not b.right_mult.admits(0)
        or cls in cd2.closures[b.right_class] and not b.left_mult.admits(0)
        for b in cd2.associations if b.name not in names1
        for cls in objects.values()
    )


def reference_contained(
    a: Association,
    b: Association | None,
    objects: dict[str, str],
    closures1: dict[str, frozenset[str]],
    closures2: dict[str, frozenset[str]],
) -> bool:
    """Sound, incomplete test that every link set ``a`` admits over
    ``objects`` also satisfies ``b``: ``a``'s end objects lie inside ``b``'s
    end closures and their possible degrees inside ``b``'s multiplicities.
    An object with no possible degree has no link set to reject."""

    def degrees(mult: Multiplicity, partners: int) -> range:
        """The degrees ``mult`` lets an end object have with ``partners``
        objects at the other end."""
        return range(mult.min, (partners if mult.max is None else min(mult.max, partners)) + 1)

    def within(possible: range, mult: Multiplicity) -> bool:
        return all(mult.admits(d) for d in possible)

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
    out_degrees = degrees(a.right_mult, len(targets) if linkable else 0)
    in_degrees = degrees(a.left_mult, len(sources) if linkable else 0)
    return all(
        (cls not in left2 or within(out_degrees if cls in left1 else range(1), b.right_mult))
        and (cls not in right2 or within(in_degrees if cls in right1 else range(1), b.left_mult))
        for cls in objects.values()
    )


# ---------------------------------------------------------------------------
# config NFAs


def reference_build_config_nfa(ad: ActivityDiagram, valuation: dict[str, str]) -> Nfa:
    """``build_config_nfa`` as first written: markings are frozensets of edge
    indices, the diagram is indexed again on every call, every node is tried
    for every configuration, and guards are evaluated on their syntax trees."""
    state0: dict[str, str] = {}
    for v in ad.variables:
        if v.kind is VarKind.INPUT:
            if v.name not in valuation:
                raise ValueError(f"valuation is missing input variable '{v.name}'")
            value = valuation[v.name]
            if value not in v.domain:
                raise ValueError(
                    f"value '{value}' is outside the domain of input '{v.name}'")
            state0[v.name] = value
        else:
            state0[v.name] = v.initial

    nodes = {n.name: n for n in ad.nodes}
    out_edges: dict[str, list[int]] = {n.name: [] for n in ad.nodes}
    in_edges: dict[str, list[int]] = {n.name: [] for n in ad.nodes}
    for i, e in enumerate(ad.edges):
        out_edges[e.src].append(i)
        in_edges[e.dst].append(i)

    start_out = out_edges["start"][0]
    initial = Config(frozenset([start_out]), tuple(sorted(state0.items())))

    index: dict[Config, int] = {initial: 0}
    configs: list[Config] = [initial]
    transitions: list[tuple[int, str | None, int]] = []
    accepting: set[int] = set()
    todo = [0]
    while todo:
        cur_id = todo.pop(0)
        cur = configs[cur_id]
        if any(nodes[ad.edges[i].dst].kind is NodeKind.FINAL for i in cur.marking):
            accepting.add(cur_id)
            continue
        for label, nxt in _firings(ad, out_edges, in_edges, cur):
            nxt_id = index.get(nxt)
            if nxt_id is None:
                nxt_id = len(configs)
                index[nxt] = nxt_id
                configs.append(nxt)
                todo.append(nxt_id)
            transitions.append((cur_id, label, nxt_id))
    return Nfa(
        n_states=len(configs),
        alphabet=frozenset(ad.action_names()),
        transitions=tuple(transitions),
        initial=0,
        accepting=frozenset(accepting),
    )


def _firings(ad, out_edges, in_edges, config: Config):
    """Enabled firings of one configuration, in deterministic node order."""
    marking = config.marking
    state = dict(config.state)
    for node in ad.nodes:
        kind = node.kind
        if kind in (NodeKind.INITIAL, NodeKind.FINAL):
            continue
        ins = in_edges[node.name]
        outs = out_edges[node.name]
        if kind is NodeKind.ACTION:
            for i in ins:
                if i in marking:
                    new_state = dict(state)
                    for a in node.assignments:
                        new_state[a.target] = new_state[a.source] if a.source_is_var else a.source
                    yield node.name, _move(node.name, ad, config, [i], outs, new_state)
        elif kind is NodeKind.DECISION:
            i = ins[0]
            if i in marking:
                for o in outs:
                    if eval_guard(ad.edges[o].guard, state):
                        yield EPSILON, _move(node.name, ad, config, [i], [o], state)
        elif kind is NodeKind.MERGE:
            for i in ins:
                if i in marking:
                    yield EPSILON, _move(node.name, ad, config, [i], outs, state)
        elif kind is NodeKind.FORK:
            i = ins[0]
            if i in marking:
                yield EPSILON, _move(node.name, ad, config, [i], outs, state)
        elif kind is NodeKind.JOIN:
            if all(i in marking for i in ins):
                yield EPSILON, _move(node.name, ad, config, ins, outs, state)


def _move(node_name, ad, config: Config, consume, emit, state) -> Config:
    nxt = set(config.marking)
    for i in consume:
        nxt.discard(i)
    for o in emit:
        if o in nxt:
            edge = ad.edges[o]
            raise UnsafeMarkingError(node_name, (edge.src, edge.dst), config)
        nxt.add(o)
    return Config(frozenset(nxt), tuple(sorted(state.items())))


def eval_guard(guard: Guard, state: dict[str, str]) -> bool:
    if isinstance(guard, GuardLit):
        return guard.value
    if isinstance(guard, GuardVar):
        return state[guard.var] == "true"
    if isinstance(guard, GuardCmp):
        hit = state[guard.var] == guard.value
        return hit if guard.op == "==" else not hit
    if isinstance(guard, GuardNot):
        return not eval_guard(guard.inner, state)
    if isinstance(guard, GuardAnd):
        return eval_guard(guard.left, state) and eval_guard(guard.right, state)
    if isinstance(guard, GuardOr):
        return eval_guard(guard.left, state) or eval_guard(guard.right, state)
    raise TypeError(f"not a guard: {guard!r}")


# ---------------------------------------------------------------------------
# subset steps


def reference_step(nfa: Nfa, states, letter: str) -> frozenset[int]:
    """The states one ``letter`` move from ``states`` leads to, closed under
    silent moves: the raw targets are gathered from ``nfa.transitions`` and
    closed by a search of their own, and nothing is kept between calls."""
    out = {dst for src, label, dst in nfa.transitions if src in states and label == letter}
    todo = list(out)
    while todo:
        state = todo.pop()
        for src, label, dst in nfa.transitions:
            if src == state and label is EPSILON and dst not in out:
                out.add(dst)
                todo.append(dst)
    return frozenset(out)


# ---------------------------------------------------------------------------
# activity-diagram diff


def reference_addiff(ad1: ActivityDiagram, ad2: ActivityDiagram, max_witnesses: int,
                     max_len: int | None = None) -> tuple[DiffResult, int]:
    """``addiff`` with fresh configuration tables and a fresh pair graph for
    every valuation, so that no valuation reuses another's pairs, liveness or
    reachability. Returns the result and the number of pairs the graphs
    held, summed over the valuations."""
    witnesses: list[Trace] = []
    exhausted, pairs = True, 0
    for v in input_valuations(ad1.input_vars(), ad2.input_vars()):
        budget = max_witnesses - len(witnesses)
        if budget == 0:
            exhausted = False
            break
        a, b = ConfigTable(ad1), ConfigTable(ad2)
        graph = ad_diff._PairGraph(a, b)
        words, done = graph.words(graph.add(a.start(v), b.start(v)), budget, max_len)
        pairs += len(graph.rows)
        witnesses += [Trace.make(v, w) for w in words]
        exhausted = exhausted and done
    return DiffResult(witnesses, exhausted), pairs
