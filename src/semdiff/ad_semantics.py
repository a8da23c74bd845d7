"""Trace semantics of activity diagrams via a token game over edges.

A configuration is a 1-safe marking of the edges plus the current variable
state. Firing an action consumes one incoming token, emits the action name,
applies its assignments, and marks the outgoing edge; the control nodes fire
silently. A token reaching a final node ends the run (remaining tokens are
discarded), so such configurations accept and have no outgoing transitions.
Compiling all reachable configurations gives a finite NFA whose language is
the set of action traces for one input valuation.

Each diagram is compiled once into tables (``compile_ad``, cached on the
diagram): a marking is an int with bit i for edge i, a state a tuple of
values in sorted variable order, and guards are closures over that tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .ad_lang import START, ActivityDiagram, NodeKind, VarDecl, VarKind, compile_guard

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
) -> Iterator[dict[str, str]]:
    """All valuations over the union of two input signatures, each built
    when it is read.

    Variables are ordered by name and each domain keeps declaration order
    (false before true for bool), the last variable cycling fastest. A name
    shared by both signatures must carry the identical domain; that is
    checked by the call itself, before any valuation is read.
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
    return (dict(zip(names, combo)) for combo in product(*(domains[n] for n in names)))


def compile_ad(ad: ActivityDiagram):
    """The tables ``build_config_nfa`` plays the token game on, cached as
    ``ad.compiled``: (variable names in slot order, start edge bit, mask of
    the edges entering a final node, destination node of each edge, firings
    of each node in edge order). A firing is (label, consumed edges, marked
    edges, guard or None, assignments), an assignment (target slot, source
    slot or -1, literal)."""
    var_names = tuple(sorted(v.name for v in ad.variables))
    slots = {name: i for i, name in enumerate(var_names)}
    node_index = {n.name: i for i, n in enumerate(ad.nodes)}
    ins, outs = [[] for _ in ad.nodes], [[] for _ in ad.nodes]
    for i, e in enumerate(ad.edges):
        outs[node_index[e.src]].append(i)
        ins[node_index[e.dst]].append(i)
    edge_dst = tuple(node_index[e.dst] for e in ad.edges)
    firings = []
    for node, node_ins, node_outs in zip(ad.nodes, ins, outs):
        emit = sum(1 << o for o in node_outs)
        if node.kind in (NodeKind.ACTION, NodeKind.MERGE):
            label = node.name if node.kind is NodeKind.ACTION else EPSILON
            assigns = tuple((slots[a.target], slots[a.source] if a.source_is_var else -1, a.source)
                            for a in node.assignments)
            rules = [(label, 1 << i, emit, None, assigns) for i in node_ins]
        elif node.kind is NodeKind.DECISION:
            rules = [(EPSILON, 1 << node_ins[0], 1 << o, compile_guard(ad.edges[o].guard, slots), ())
                     for o in node_outs]
        elif node.kind is NodeKind.FORK:
            rules = [(EPSILON, 1 << node_ins[0], emit, None, ())]
        elif node.kind is NodeKind.JOIN:
            rules = [(EPSILON, sum(1 << i for i in node_ins), emit, None, ())]
        else:  # initial and final nodes never fire
            rules = []
        firings.append(tuple(rules))
    final_mask = sum(1 << i for i, n in enumerate(edge_dst) if ad.nodes[n].kind is NodeKind.FINAL)
    return var_names, 1 << outs[node_index[START]][0], final_mask, edge_dst, tuple(firings)


def build_config_nfa(ad: ActivityDiagram, valuation: dict[str, str]) -> Nfa:
    """Explore every configuration reachable under one input valuation.

    ``valuation`` must cover the diagram's input variables; extra variables
    are ignored. Raises UnsafeMarkingError if any firing would double-mark an
    edge. Configurations are numbered breadth-first, and the firings of each
    are tried in node order, then edge order.
    """
    var_names, start_bit, final_mask, edge_dst, firings = ad.compiled
    state0: list[str | None] = [None] * len(var_names)
    for v in ad.variables:
        value = v.initial
        if v.kind is VarKind.INPUT:
            if v.name not in valuation:
                raise ValueError(f"valuation is missing input variable '{v.name}'")
            value = valuation[v.name]
            if value not in v.domain:
                raise ValueError(
                    f"value '{value}' is outside the domain of input '{v.name}'")
        state0[var_names.index(v.name)] = value

    initial = (start_bit, tuple(state0))
    index = {initial: 0}
    configs = [initial]
    transitions: list[tuple[int, str | None, int]] = []
    accepting: list[int] = []
    for cur_id, (marking, state) in enumerate(configs):
        if marking & final_mask:
            # A token has entered a final node: the run stops here and any
            # other tokens are discarded.
            accepting.append(cur_id)
            continue
        # Only the nodes that a marked edge enters can fire.
        for n in sorted({edge_dst[i] for i in _edges(marking)}):
            for label, consume, emit, guard, assigns in firings[n]:
                if marking & consume != consume or guard is not None and not guard(state):
                    continue
                rest = marking ^ consume
                if rest & emit:
                    edge = ad.edges[next(_edges(rest & emit))]
                    raise UnsafeMarkingError(ad.nodes[n].name, (edge.src, edge.dst), Config(
                        frozenset(_edges(marking)), tuple(zip(var_names, state))))
                nxt = (rest | emit, _assign(state, assigns) if assigns else state)
                nxt_id = index.get(nxt)
                if nxt_id is None:
                    nxt_id = index[nxt] = len(configs)
                    configs.append(nxt)
                transitions.append((cur_id, label, nxt_id))
    return Nfa(
        n_states=len(configs),
        alphabet=ad.action_names(),
        transitions=tuple(transitions),
        initial=0,
        accepting=frozenset(accepting),
    )


def _edges(mask: int):
    """The edge indices in a bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _assign(state: tuple[str, ...], assigns) -> tuple[str, ...]:
    """``state`` after an action's assignments, applied in order."""
    out = list(state)
    for target, source, literal in assigns:
        out[target] = out[source] if source >= 0 else literal
    return tuple(out)


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


def accepts(ad: ActivityDiagram, trace: Trace) -> bool:
    """Membership of one trace in the diagram's semantics.

    The trace's inputs must cover the diagram's input variables; extra
    variables are ignored.
    """
    return NfaRunner(build_config_nfa(ad, trace.inputs_dict())).accepts(trace.actions)
