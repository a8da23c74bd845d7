"""Trace semantics of activity diagrams via a token game over edges.

A configuration is a 1-safe marking of the edges plus the current variable
state. Firing an action consumes one incoming token, emits the action name,
applies its assignments, and marks the outgoing edge; the control nodes fire
silently. A token reaching a final node ends the run (remaining tokens are
discarded), so such configurations accept and have no outgoing transitions.
Compiling all reachable configurations gives a finite NFA whose language is
the set of action traces for one input valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .ad_lang import (
    ActivityDiagram,
    NodeKind,
    VarDecl,
    VarKind,
    eval_guard,
)

EPSILON = None


class UnsafeMarkingError(Exception):
    """A firing tried to put a second token on an already marked edge."""

    def __init__(self, node: str, edge: tuple[str, str], config: "Config"):
        self.node = node
        self.edge = edge
        self.config = config
        super().__init__(
            f"firing '{node}' would mark the edge {edge[0]} -> {edge[1]} twice"
            f" in configuration {config}"
        )


class DomainMismatchError(ValueError):
    """Two diagrams share an input variable name with different domains."""


@dataclass(frozen=True)
class Config:
    marking: frozenset[int]  # indices into the diagram's edge tuple
    state: tuple[tuple[str, str], ...]  # sorted (variable, value)

    def __str__(self) -> str:
        vals = ", ".join(f"{k}={v}" for k, v in self.state)
        return f"<edges {sorted(self.marking)}; {vals}>"


@dataclass(frozen=True)
class Trace:
    """One witness run: the input values it started from plus the actions."""

    inputs: tuple[tuple[str, str], ...]
    actions: tuple[str, ...]

    @staticmethod
    def make(inputs: dict[str, str], actions: tuple[str, ...] | list[str]) -> "Trace":
        return Trace(tuple(sorted(inputs.items())), tuple(actions))

    def inputs_dict(self) -> dict[str, str]:
        return dict(self.inputs)


@dataclass(frozen=True)
class Nfa:
    """A plain nondeterministic automaton; EPSILON (None) labels silent moves."""

    n_states: int
    alphabet: frozenset[str]
    transitions: tuple[tuple[int, str | None, int], ...]
    initial: int
    accepting: frozenset[int]


def input_valuations(
    inputs_a: tuple[VarDecl, ...], inputs_b: tuple[VarDecl, ...]
) -> list[dict[str, str]]:
    """All valuations over the union of two input signatures.

    Variables are ordered by name and each domain keeps declaration order
    (false before true for bool), the last variable cycling fastest. A name
    shared by both signatures must carry the identical domain.
    """
    domains: dict[str, tuple[str, ...]] = {}
    for decl in tuple(inputs_a) + tuple(inputs_b):
        if decl.kind is not VarKind.INPUT:
            raise ValueError(f"'{decl.name}' is not an input variable")
        if decl.name in domains and domains[decl.name] != decl.domain:
            raise DomainMismatchError(
                f"input '{decl.name}' has domain {domains[decl.name]} in one"
                f" diagram and {decl.domain} in the other"
            )
        domains.setdefault(decl.name, decl.domain)
    names = sorted(domains)
    return [dict(zip(names, combo)) for combo in product(*(domains[n] for n in names))]


def build_config_nfa(ad: ActivityDiagram, valuation: dict[str, str]) -> Nfa:
    """Explore every configuration reachable under one input valuation.

    ``valuation`` must cover the diagram's input variables; extra variables
    are ignored. Raises UnsafeMarkingError if any firing would double-mark an
    edge.
    """
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
            # A token has entered a final node: the run stops here and any
            # other tokens are discarded.
            accepting.add(cur_id)
            continue
        for label, nxt in _firings(ad, nodes, out_edges, in_edges, cur):
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


def _firings(ad, nodes, out_edges, in_edges, config: Config):
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


class NfaRunner:
    """Index over an Nfa for closure/step queries."""

    def __init__(self, nfa: Nfa):
        self.nfa = nfa
        self.eps: dict[int, list[int]] = {}
        self.moves: dict[int, dict[str, list[int]]] = {}
        for src, label, dst in nfa.transitions:
            if label is EPSILON:
                self.eps.setdefault(src, []).append(dst)
            else:
                self.moves.setdefault(src, {}).setdefault(label, []).append(dst)

    def closure(self, states) -> frozenset[int]:
        out = set(states)
        todo = list(states)
        while todo:
            s = todo.pop()
            for t in self.eps.get(s, ()):
                if t not in out:
                    out.add(t)
                    todo.append(t)
        return frozenset(out)

    def step(self, states: frozenset[int], letter: str) -> frozenset[int]:
        out: set[int] = set()
        for s in states:
            out.update(self.moves.get(s, {}).get(letter, ()))
        return self.closure(out)

    def successors(self, states: frozenset[int]) -> dict[str, frozenset[int]]:
        """``step(states, letter)`` for each letter where it is not empty."""
        out: dict[str, set[int]] = {}
        for s in states:
            for letter, targets in self.moves.get(s, {}).items():
                out.setdefault(letter, set()).update(targets)
        return {letter: self.closure(targets) for letter, targets in out.items()}

    def is_accepting(self, states: frozenset[int]) -> bool:
        return bool(states & self.nfa.accepting)

    def accepts(self, word) -> bool:
        states = self.closure({self.nfa.initial})
        for letter in word:
            states = self.step(states, letter)
            if not states:
                return False
        return self.is_accepting(states)


def nfa_words(nfa: Nfa, max_len: int) -> list[tuple[str, ...]]:
    """All accepted words up to ``max_len``, shortest first, then lexicographic."""
    runner = NfaRunner(nfa)
    letters = sorted(nfa.alphabet)
    words: list[tuple[str, ...]] = []
    frontier: list[tuple[tuple[str, ...], frozenset[int]]] = [
        ((), runner.closure({nfa.initial}))
    ]
    for length in range(max_len + 1):
        nxt: list[tuple[tuple[str, ...], frozenset[int]]] = []
        for word, states in frontier:
            if runner.is_accepting(states):
                words.append(word)
            if length == max_len:
                continue
            for letter in letters:
                succ = runner.step(states, letter)
                if succ:
                    nxt.append((word + (letter,), succ))
        frontier = nxt
    return words


def enumerate_traces(
    ad: ActivityDiagram, valuation: dict[str, str], max_len: int
) -> list[tuple[str, ...]]:
    """Action sequences the diagram can produce under one valuation,
    up to ``max_len`` actions, shortest first."""
    return nfa_words(build_config_nfa(ad, valuation), max_len)


def accepts(ad: ActivityDiagram, trace: Trace) -> bool:
    """Membership of one trace in the diagram's semantics.

    The trace's inputs must cover the diagram's input variables; extra
    variables are ignored.
    """
    return NfaRunner(build_config_nfa(ad, trace.inputs_dict())).accepts(trace.actions)
