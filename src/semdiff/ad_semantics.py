"""Trace semantics of activity diagrams via a token game over edges.

A configuration is a 1-safe marking of the edges plus the current variable
state. Firing an action consumes one incoming token, emits the action name,
applies its assignments, and marks the outgoing edge; the control nodes fire
silently. A token reaching a final node ends the run (remaining tokens are
discarded), so such configurations accept and have no outgoing transitions.
Compiling all reachable configurations gives a finite NFA whose language is
the set of action traces for one input valuation.

Each diagram is compiled once, into the ``ConfigTable`` kept as
``ActivityDiagram.table``: a marking is an int with bit i for edge i, a
state a tuple of values in sorted variable order, and guards are closures
over that tuple. The table's one firing loop, ``ConfigTable.play``, plays
the game for ``build_config_nfa`` and for the table itself, which keeps the
configurations of many valuations of the diagram in one automaton. There a
value that no marked edge can read before it is written is set to None, so
valuations that differ only in such values share configurations.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from .ad_lang import (
    START,
    ActivityDiagram,
    NodeKind,
    VarDecl,
    VarKind,
    compile_guard,
    guard_variables,
)
from .lexer import Record

EPSILON = None
EMPTY: frozenset[int] = frozenset()  # the subset no move leads to


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


class Config(Record):
    marking: frozenset[int]  # indices into the diagram's edge tuple
    state: tuple[tuple[str, str], ...]  # sorted (variable, value)

    def __str__(self) -> str:
        vals = ", ".join(f"{k}={v}" for k, v in self.state)
        return f"<edges {sorted(self.marking)}; {vals}>"


class Trace(Record):
    """One witness run: the input values it started from plus the actions."""

    inputs: tuple[tuple[str, str], ...]
    actions: tuple[str, ...]

    @staticmethod
    def make(inputs: dict[str, str], actions: tuple[str, ...] | list[str]) -> "Trace":
        return Trace(tuple(sorted(inputs.items())), tuple(actions))

    def inputs_dict(self) -> dict[str, str]:
        return dict(self.inputs)


class Nfa(Record):
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


def build_config_nfa(ad: ActivityDiagram, valuation: dict[str, str]) -> Nfa:
    """Explore every configuration reachable under one input valuation.

    ``valuation`` must cover the diagram's input variables; extra variables
    are ignored. Raises UnsafeMarkingError if any firing would double-mark an
    edge. Configurations are numbered breadth-first, and the firings of each
    are tried in node order, then edge order.
    """
    configs, rows, accepting = ad.table.explore(valuation)
    return Nfa(
        n_states=len(configs),
        alphabet=ad.action_names(),
        transitions=tuple((src, label, dst) for src, row in enumerate(rows) for label, dst in row),
        initial=0,
        accepting=frozenset(accepting),
    )


def _live(live_of: dict, edge_live: tuple[int, ...], marking: int) -> int:
    """The mask of the slots some edge of ``marking`` may read, kept in
    ``live_of``."""
    live = live_of.get(marking)
    if live is None:
        live = 0
        for i in _bits(marking):
            live |= edge_live[i]
        live_of[marking] = live
    return live


def _cleared(state: tuple, mask: int) -> tuple:
    """``state`` with the slots in ``mask`` set to None."""
    out = list(state)
    for i in _bits(mask):
        out[i] = None
    return tuple(out)


def _bits(mask: int):
    """The set bit positions of ``mask``, lowest first."""
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
    """Subset queries over an automaton's moves, kept per state as a list of
    (label, target); each state's ε-closure is computed once. A step's set
    is the union of its targets' ε-closures, as the closure of a union is
    the union of the closures. ``initial`` is the closure of the initial
    state."""

    def __init__(self, nfa: Nfa):
        self.rows: list[list[tuple[str | None, int]]] = [[] for _ in range(nfa.n_states)]
        for src, label, dst in nfa.transitions:
            self.rows[src].append((label, dst))
        self.accepting = nfa.accepting
        self._closures: dict[int, frozenset[int]] = {}
        self.initial = self.closure(nfa.initial)

    def closure(self, state: int) -> frozenset[int]:
        """The states that silent moves lead to from ``state``, it included."""
        closure = self._closures.get(state)
        if closure is None:
            out = {state}
            todo = [state]
            rows = self.rows
            while todo:
                for label, t in rows[todo.pop()]:
                    if label is EPSILON and t not in out:
                        out.add(t)
                        todo.append(t)
            closure = self._closures[state] = frozenset(out)
        return closure

    def step(self, states: frozenset[int], letter: str) -> frozenset[int]:
        """The states one ``letter`` move from ``states`` leads to, closed."""
        return self.successors(states).get(letter, EMPTY)

    def successors(self, states: frozenset[int]) -> dict[str, frozenset[int]]:
        """Per letter that some state of ``states`` can read, the union of the
        closures of the states it leads to."""
        out: dict[str, frozenset[int]] = {}
        more: dict[str, list[frozenset[int]]] = {}  # per letter, the closures after its first
        rows, closures = self.rows, self._closures
        for s in states:
            for label, t in rows[s]:
                if label is not EPSILON:
                    closure = closures.get(t) or self.closure(t)
                    if out.setdefault(label, closure) is not closure:
                        more.setdefault(label, []).append(closure)
        for label, others in more.items():  # one union, not a copy per closure
            out[label] = out[label].union(*others)
        return out

    def is_accepting(self, states: frozenset[int]) -> bool:
        return not self.accepting.isdisjoint(states)

    def accepts(self, word, states: frozenset[int]) -> bool:
        """Whether ``word`` leads from ``states`` to an accepting state,
        taken one ``step`` at a time."""
        for letter in word:
            states = self.step(states, letter)
            if not states:
                return False
        return self.is_accepting(states)


class ConfigTable(NfaRunner):
    """One diagram compiled for the token game, and its configuration NFAs
    under several valuations as one ``NfaRunner`` that every valuation
    extends. A diagram keeps one, as ``ActivityDiagram.table``, for every
    diff it takes part in; it has no ``initial``: ``start`` returns each
    valuation's initial closure to the search that asked.

    Slot i of a state holds variable ``var_names[i]`` (``slots`` maps back).
    A firing of ``firings[node]`` is (label, consumed edges, marked edges,
    guard or None, assignments, mask of the slots they write), an assignment
    (target slot, source slot or -1, literal). ``edge_live[e]`` masks the
    slots a token on edge e may read: those that some path from e reads, in
    a guard or as an assignment source, before an assignment writes them.

    State values that no marked edge can read are set to None, so valuations
    that differ only in those share configurations and their closures. That
    keeps each valuation's language: a firing reads only the slots its
    consumed edges may read, and it writes every slot that its marked edges
    may read and its consumed ones may not.
    """

    def __init__(self, ad: ActivityDiagram):
        # The diagram's own tuples, not the diagram: the diagram holds its
        # table, so a reference back would make the two a cycle.
        self.variables, self.nodes, self.edges = ad.variables, ad.nodes, ad.edges
        self.var_names = tuple(sorted(v.name for v in ad.variables))
        slots = self.slots = {name: i for i, name in enumerate(self.var_names)}
        node_index = {n.name: i for i, n in enumerate(ad.nodes)}
        ins, outs = [[] for _ in ad.nodes], [[] for _ in ad.nodes]
        for i, e in enumerate(ad.edges):
            outs[node_index[e.src]].append(i)
            ins[node_index[e.dst]].append(i)
        edge_dst = self.edge_dst = tuple(node_index[e.dst] for e in ad.edges)
        node_assigns = [tuple((slots[a.target], slots[a.source] if a.source_is_var else -1,
                               a.source) for a in node.assignments) for node in ad.nodes]

        # A token reads the guards on the edges leaving its node, then what the
        # tokens on those edges may read, less what the node's assignments write
        # (taken last to first, as one may read an earlier one's target). When
        # an edge's mask grows, the edges into its source node are revisited.
        reads = [0 if e.guard is None else sum(1 << slots[v] for v in guard_variables(e.guard))
                 for e in ad.edges]
        edge_live = [0] * len(ad.edges)
        todo = list(range(len(ad.edges)))
        while todo:
            i = todo.pop()
            n = edge_dst[i]
            live = 0
            for o in outs[n]:
                live |= edge_live[o] | reads[o]
            for target, source, _ in reversed(node_assigns[n]):
                live &= ~(1 << target)
                if source >= 0:
                    live |= 1 << source
            if live != edge_live[i]:
                edge_live[i] = live
                todo += ins[node_index[ad.edges[i].src]]
        self.edge_live = tuple(edge_live)

        firings = []
        for node, node_ins, node_outs, assigns in zip(ad.nodes, ins, outs, node_assigns):
            emit = sum(1 << o for o in node_outs)
            if node.kind in (NodeKind.ACTION, NodeKind.MERGE):
                label = node.name if node.kind is NodeKind.ACTION else EPSILON
                written = sum(1 << target for target, _, _ in assigns)
                rules = [(label, 1 << i, emit, None, assigns, written) for i in node_ins]
            elif node.kind is NodeKind.DECISION:
                rules = [(EPSILON, 1 << node_ins[0], 1 << o,
                          compile_guard(ad.edges[o].guard, slots), (), 0) for o in node_outs]
            elif node.kind is NodeKind.FORK:
                rules = [(EPSILON, 1 << node_ins[0], emit, None, (), 0)]
            elif node.kind is NodeKind.JOIN:
                rules = [(EPSILON, sum(1 << i for i in node_ins), emit, None, (), 0)]
            else:  # initial and final nodes never fire
                rules = []
            firings.append(tuple(rules))
        self.firings = tuple(firings)
        self.start_bit = 1 << outs[node_index[START]][0]
        self.final_mask = sum(1 << i for i, n in enumerate(edge_dst)
                              if ad.nodes[n].kind is NodeKind.FINAL)

        self.rows = []
        self.accepting = set()
        self._closures = {}
        self.configs: list[tuple[int, tuple]] = []
        self.index: dict[tuple[int, tuple], int] = {}
        self.live_of: dict[int, int] | None = {} if ad.variables else None

    def _initial_state(self, valuation: dict[str, str]) -> tuple[str, ...]:
        """The state a run under ``valuation`` starts in, checked against the
        input domains."""
        state0: list[str | None] = [None] * len(self.slots)
        for v in self.variables:
            value = v.initial
            if v.kind is VarKind.INPUT:
                if v.name not in valuation:
                    raise ValueError(f"valuation is missing input variable '{v.name}'")
                value = valuation[v.name]
                if value not in v.domain:
                    raise ValueError(
                        f"value '{value}' is outside the domain of input '{v.name}'")
            state0[self.slots[v.name]] = value
        return tuple(state0)

    def explore(self, valuation: dict[str, str]) -> tuple[list, list, set]:
        """(configurations, rows, accepting ids) of all that ``valuation``
        reaches, unprojected and numbered breadth-first, apart from the table's."""
        initial = (self.start_bit, self._initial_state(valuation))
        configs, rows, accepting = [initial], [], set()
        self.play(configs, {initial: 0}, rows, accepting)
        return configs, rows, accepting

    def play(self, configs: list, index: dict, rows: list, accepting: set,
             live_of: dict | None = None) -> None:
        """The token game: fire each configuration of ``configs`` from
        ``len(rows)`` on, in order, appending its moves to ``rows`` as a list
        of (label, target id) and the configurations they reach that
        ``index`` lacks to ``configs`` and ``index``; accepting ones go to
        ``accepting``.

        With ``live_of``, a cache of ``_live`` per marking, each reached state
        has the slots that no marked edge may read set to None, as the
        configurations already in ``configs`` must have.
        """
        final_mask, edge_dst = self.final_mask, self.edge_dst
        firings, edge_live = self.firings, self.edge_live
        # Index from len(rows): each call reads only the configurations not yet
        # fired, the ones it appends itself included.
        while len(rows) < len(configs):
            marking, state = configs[len(rows)]
            row: list = []
            rows.append(row)
            if marking & final_mask:
                # A token has entered a final node: the run stops here and any
                # other tokens are discarded.
                accepting.add(len(rows) - 1)
                continue
            if live_of is not None:
                live = live_of[marking]
            # Only the nodes that a marked edge enters can fire.
            if marking & (marking - 1):
                nodes = sorted({edge_dst[i] for i in _bits(marking)})
            else:
                nodes = (edge_dst[marking.bit_length() - 1],)
            for n in nodes:
                for label, consume, emit, guard, assigns, written in firings[n]:
                    if marking & consume != consume or guard is not None and not guard(state):
                        continue
                    rest = marking ^ consume
                    if rest & emit:
                        edge = self.edges[next(_bits(rest & emit))]
                        raise UnsafeMarkingError(self.nodes[n].name, (edge.src, edge.dst), Config(
                            frozenset(_bits(marking)), tuple(zip(self.var_names, state))))
                    nxt_marking = rest | emit
                    nxt_state = _assign(state, assigns) if assigns else state
                    if live_of is not None:
                        # Only the slots live before the firing or written by it
                        # can hold a value.
                        dead = (live | written) & ~_live(live_of, edge_live, nxt_marking)
                        if dead:
                            nxt_state = _cleared(nxt_state, dead)
                    nxt = (nxt_marking, nxt_state)
                    nxt_id = index.get(nxt)
                    if nxt_id is None:
                        nxt_id = index[nxt] = len(configs)
                        configs.append(nxt)
                    row.append((label, nxt_id))

    def start(self, valuation: dict[str, str]) -> frozenset[int]:
        """The initial closure under ``valuation``, after exploring every
        configuration the valuation reaches that the table lacks. An unsafe
        firing raises the UnsafeMarkingError of ``build_config_nfa``, which
        shows the whole state, and leaves the table as it was before."""
        state = self._initial_state(valuation)
        if self.live_of is not None:
            dead = ((1 << len(state)) - 1) & ~_live(self.live_of, self.edge_live, self.start_bit)
            if dead:
                state = _cleared(state, dead)
        initial = (self.start_bit, state)
        cid = self.index.get(initial)
        if cid is not None:
            return self.closure(cid)
        cid = self.index[initial] = len(self.configs)
        self.configs.append(initial)
        try:
            self.play(self.configs, self.index, self.rows, self.accepting, self.live_of)
        except UnsafeMarkingError as err:
            # Drop every configuration this start added: one indexed but not
            # fired would make a later start skip the error.
            for config in self.configs[cid:]:
                del self.index[config]
            self.accepting.difference_update(range(cid, len(self.configs)))
            del self.configs[cid:], self.rows[cid:]
            projected = err
        else:
            return self.closure(cid)
        # Replayed outside the handler, so that the error raised does not carry
        # the projected one, with its cleared slots, as its context.
        self.explore(valuation)
        raise projected


def accepts(ad: ActivityDiagram, trace: Trace) -> bool:
    """Membership of one trace in the diagram's semantics.

    The trace's inputs must cover the diagram's input variables; extra
    variables are ignored.
    """
    runner = NfaRunner(build_config_nfa(ad, trace.inputs_dict()))
    return runner.accepts(trace.actions, runner.initial)
