"""Semantic differencing of activity diagrams.

For each input valuation both diagrams compile to finite NFAs, their config
NFAs. Each diagram keeps one ``ConfigTable`` (``ActivityDiagram.table``),
which every valuation that any call starts extends with the configurations
it reaches that the table lacks, so a diagram compared with several others,
as ``history`` does, plays each configuration's token game once. The table
sets the state values that no marked edge can read to None, so valuations
that differ only in those share configurations and ε-closures. ``start``
returns a valuation's initial closure to the call, which keeps it. ``addiff``
searches one graph per call, the pair graph: its states are the pairs
(A-subset, B-subset) of configurations that reading the same trace leads to
in A and in B. Each valuation interns the pair of its initial closures and
explores, breadth-first, only the pairs the graph lacks; a pair's
successors depend only on the pair, so every valuation after the first
reuses the pairs, and the facts about them, that earlier ones found. A pair
accepts when its A-subset holds an accepting configuration and its B-subset
holds none, and the graph stops at accepting pairs, so every path to one
spells a prefix-minimal trace of A that B cannot produce. B's subset is a
function of the trace, so the pair graph is exactly the determinized
product of A with the complement of B (``difference_automaton``), built
without materializing either.

Witnesses come shortest first and lexicographic within a length, following
Ackerman & Shallit, "Efficient enumeration of words in regular languages"
(TCS 2009): the walk for length L steps at depth d only into pairs with an
accepting pair exactly L - d - 1 steps away. Every step then leads to a
witness, so a witness costs O(L·k) steps, k the largest out-degree, however
many shorter traces A has. Whether a pair reaches an accepting pair at all
(liveness) is kept per pair for the whole call. How many steps away one is
comes from the breadth-first layers the walk builds anyway, one set of live
pairs per length, which last for one ``words`` call.

A verdict needs only whether each direction has a witness, so ``compare_ad``
neither walks nor lists witnesses: per valuation it runs one breadth-first
search of the joint pair graph. Its moves are the letters either side can
read, so one side of a pair may be empty. A pair where A accepts and B does
not decides the forward direction; one where B accepts and A does not
decides the backward direction. An emptied side never accepts again, so the
search drops pairs whose side is empty for every open direction, and it
stops as soon as no direction is open. The word that first decided a
direction, rebuilt from the search's parent links, is its shortest witness.
``addiff`` and ``compare_ad`` both re-run every witness on the two tables'
per-configuration moves, one step at a time, apart from the pair graph and
the joint search (``_checked``).

Unlike the bounded class-diagram search this is exact: the state spaces are
finite. ``determinize`` and ``difference_automaton`` return the graphs they
explore as deterministic ``Nfa``s, complete for ``determinize``.
"""

from __future__ import annotations

from .ad_lang import ActivityDiagram
from .ad_semantics import (
    EMPTY,
    Nfa,
    NfaRunner,
    Trace,
    input_valuations,
)
from .verdict import DEFAULT_MAX_WITNESSES, DiffResult, Verdict

_NOTHING = Nfa(n_states=1, alphabet=frozenset(), transitions=(), initial=0, accepting=frozenset())


class _PairGraph:
    """The pair graph of ``a`` against ``b`` (see the module docstring), kept
    and extended by every start pair that ``add`` interns.

    Pairs are numbered in discovery order. Per pair id the graph keeps its
    successors as (letter, id) in letter order, whether it accepts, and
    whether some accepting pair is reachable from it (live). None of these
    facts changes once the pair is explored, as a pair's successors depend
    only on the pair. Unless ``trimmed`` is False, accepting pairs have no
    successors.
    """

    def __init__(self, a: NfaRunner, b: NfaRunner, trimmed: bool = True):
        self.a, self.b, self.trimmed = a, b, trimmed
        self.index: dict = {}
        self.rows: list[list[tuple[str, int]]] = []
        self.final: list[bool] = []
        self.live: list[bool] = []

    def add(self, states_a: frozenset[int], states_b: frozenset[int]) -> int:
        """The id of the pair (``states_a``, ``states_b``), after exploring
        breadth-first the pairs it reaches that the graph lacks and deciding
        their liveness."""
        pid = self.index.get((states_a, states_b))
        if pid is not None:
            return pid
        a, b, index, rows, final = self.a, self.b, self.index, self.rows, self.final
        first = len(rows)
        new = [(states_a, states_b)]
        index[new[0]] = first
        for x, y in new:  # the loop reads the pairs appended while it runs
            accepting = a.is_accepting(x) and not b.is_accepting(y)
            final.append(accepting)
            row = []
            if not (accepting and self.trimmed):
                succ_b = b.successors(y)
                for letter, succ_a in sorted(a.successors(x).items()):
                    succ = (succ_a, succ_b.get(letter, EMPTY))
                    sid = index.get(succ)
                    if sid is None:
                        sid = index[succ] = first + len(new)
                        new.append(succ)
                    row.append((letter, sid))
            rows.append(row)

        # A new pair is live when it accepts or has a live successor. An old
        # successor's liveness is final, as all it reaches is old; among the
        # new pairs liveness spreads backward.
        live = self.live
        preds: list[list[int]] = [[] for _ in new]
        todo = []
        for pid in range(first, len(rows)):
            alive = final[pid]
            for _, sid in rows[pid]:
                if sid >= first:
                    preds[sid - first].append(pid)
                elif live[sid]:
                    alive = True
            live.append(alive)
            if alive:
                todo.append(pid)
        while todo:
            for back in preds[todo.pop() - first]:
                if not live[back]:
                    live[back] = True
                    todo.append(back)
        return first

    def words(
        self, start: int, max_words: int | None, max_len: int | None
    ) -> tuple[list[tuple[str, ...]], bool]:
        """Words spelling a path from pair ``start`` to an accepting pair,
        shortest first, then lexicographic.

        Layer d holds the live pairs that end a path of d steps from
        ``start``. Whenever the newest layer holds an accepting pair,
        ``_words_of`` lists the words of that length. The graph must be
        trimmed, so no word is a prefix of another. Returns (words,
        exhausted); exhausted is False exactly when some further word exists
        beyond ``max_words`` or ``max_len``.
        """
        rows, final, live = self.rows, self.final, self.live
        words: list[tuple[str, ...]] = []
        layers = [{start} if live[start] else set()]
        while layers[-1]:
            if any(final[pid] for pid in layers[-1]):
                for word in self._words_of(start, layers):
                    if max_words is not None and len(words) >= max_words:
                        return words, False
                    words.append(word)
            frontier = {sid for pid in layers[-1] for _, sid in rows[pid] if live[sid]}
            if frontier and len(layers) - 1 == max_len:
                return words, False
            layers.append(frontier)
        return words, True

    def _words_of(self, start: int, layers: list[set[int]]):
        """The words of paths from pair ``start`` through ``layers`` to an
        accepting pair in the last layer, in letter order.

        The last layer keeps its accepting pairs. Walking back, each earlier
        layer keeps its pairs with a move into a pair kept in the next one:
        the pairs with an accepting pair exactly as many steps away as
        layers remain. The walk takes only those moves, so every step leads
        to a word."""
        rows, final, length = self.rows, self.final, len(layers) - 1
        moves = [{pid: [] for pid in layers[-1] if final[pid]}]  # kept pair -> its kept moves
        for layer in reversed(layers[:-1]):
            after = moves[-1]
            moves.append({pid: m for pid in layer if (m := [s for s in rows[pid] if s[1] in after])})
        moves.reverse()
        letters: list[str] = []
        stack = [iter(moves[0][start])]  # stack[d]: the moves at depth d not yet taken
        while stack:
            if len(stack) > length:
                yield tuple(letters)
            else:
                step = next(stack[-1], None)
                if step is not None:
                    letters.append(step[0])
                    stack.append(iter(moves[len(stack)][step[1]]))
                    continue
            stack.pop()
            if letters:
                letters.pop()


def determinize(nfa: Nfa, alphabet: frozenset[str] | None = None) -> Nfa:
    """Subset construction over ``alphabet`` (the NFA's own by default),
    completed with a sink: every state of the result has exactly one move
    per letter and no silent move."""
    a, b = NfaRunner(nfa), NfaRunner(_NOTHING)
    graph = _PairGraph(a, b, trimmed=False)
    graph.add(a.initial, b.initial)
    return _graph_nfa(graph, alphabet if alphabet is not None else nfa.alphabet, complete=True)


def difference_automaton(a: Nfa, b: Nfa) -> Nfa:
    """An NFA accepting L(a) minus L(b) over the union of both alphabets.

    It is the pair graph of ``a`` against ``b`` without the cut at accepting
    pairs (see the module docstring), so it is deterministic.
    """
    graph = _PairGraph(NfaRunner(a), NfaRunner(b), trimmed=False)
    graph.add(graph.a.initial, graph.b.initial)
    return _graph_nfa(graph, a.alphabet | b.alphabet)


def _graph_nfa(graph: _PairGraph, alphabet: frozenset[str], complete: bool = False) -> Nfa:
    """``graph`` as an ``Nfa`` over ``alphabet`` from its first pair. When
    ``complete``, every missing move goes to a sink, added last."""
    transitions = []
    n_states = sink = len(graph.rows)
    for sid, row in enumerate(graph.rows):
        moves = dict(row)
        for letter in sorted(alphabet) if complete else moves:
            transitions.append((sid, letter, moves.get(letter, sink)))
    if any(tid == sink for _, _, tid in transitions):
        n_states += 1
        transitions += [(sink, letter, sink) for letter in sorted(alphabet)]
    return Nfa(
        n_states=n_states,
        alphabet=frozenset(alphabet),
        transitions=tuple(transitions),
        initial=0,
        accepting=frozenset(sid for sid, f in enumerate(graph.final) if f),
    )


def prefix_minimal_words(
    nfa: Nfa, max_witnesses: int | None = None, max_len: int | None = None
) -> tuple[list[tuple[str, ...]], bool]:
    """Accepted words none of whose proper prefixes are accepted.

    Shortest first, lexicographic within a length. The walk runs on the
    pair graph of ``nfa`` against an automaton accepting nothing, that is on
    the determinized view of ``nfa``, which stops at accepting state sets
    (the prefix-minimality cut); it only enters state sets from which
    acceptance is reachable, so it terminates whenever the language of
    prefix-minimal words is finite. Returns (words, exhausted); exhausted is
    False when the word list was cut off by either limit.
    """
    a, b = NfaRunner(nfa), NfaRunner(_NOTHING)
    graph = _PairGraph(a, b)
    return graph.words(graph.add(a.initial, b.initial), max_witnesses, max_len)


def _checked(a: NfaRunner, b: NfaRunner, starts, valuation: dict[str, str], words) -> list[Trace]:
    """``words`` as traces under ``valuation``, each re-run from the start
    subsets ``starts`` of ``a`` and ``b`` to confirm that ``a`` accepts it
    and ``b`` does not."""
    traces = [Trace.make(valuation, w) for w in words]
    for trace in traces:
        if not a.accepts(trace.actions, starts[0]) or b.accepts(trace.actions, starts[1]):
            raise RuntimeError(f"diff search produced an unsound witness: {trace}")
    return traces


def _shortest_witnesses(a: NfaRunner, b: NfaRunner, start, wanted) -> list[tuple[str, ...] | None]:
    """Per direction, forward (``a`` accepts, ``b`` does not) and backward,
    a shortest word that witnesses it, or None where there is none or the
    direction is not ``wanted``; one breadth-first search of the joint pair
    graph (see the module docstring) from the pair of start subsets
    ``start``.

    Direction d needs side d non-empty, and a pair where exactly one side
    accepts decides the direction of that side."""
    todo = list(wanted)  # todo[d]: direction d is still open
    words: list[tuple[str, ...] | None] = [None, None]
    accepting_a, accepting_b = a.accepting, b.accepting

    def settles(pair) -> bool:
        """Decide the direction ``pair`` witnesses, if any; True once none is open."""
        a_accepts = not pair[0].isdisjoint(accepting_a)
        b_accepts = not pair[1].isdisjoint(accepting_b)
        if a_accepts != b_accepts and todo[b_accepts]:  # b_accepts indexes the accepting side
            todo[b_accepts] = False
            words[b_accepts] = _word_to(pair, links)
        return not any(todo)

    links: dict = {start: None}  # pair -> (parent pair, letter)
    queue = [start]
    if settles(start):
        return words
    for pair in queue:
        if not (todo[0] and pair[0] or todo[1] and pair[1]):
            continue
        succ_a = a.successors(pair[0]) if pair[0] else {}
        succ_b = b.successors(pair[1]) if pair[1] else {}
        for letter in {**succ_a, **succ_b}:
            succ = (succ_a.get(letter, EMPTY), succ_b.get(letter, EMPTY))
            if succ not in links and (todo[0] and succ[0] or todo[1] and succ[1]):
                links[succ] = (pair, letter)
                if settles(succ):
                    return words
                queue.append(succ)
    return words


def _word_to(pair, links) -> tuple[str, ...]:
    """The letters on the ``links`` path from the first pair to ``pair``."""
    word = []
    while links[pair] is not None:
        pair, letter = links[pair]
        word.append(letter)
    return tuple(reversed(word))


def addiff(
    ad1: ActivityDiagram,
    ad2: ActivityDiagram,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
    max_len: int | None = None,
) -> DiffResult:
    """Prefix-minimal traces possible in ``ad1`` and impossible in ``ad2``.

    Valuations over the union of both input signatures are visited in order;
    within one valuation witnesses come shortest first, then lexicographic.
    ``exhausted`` is True only when every valuation's difference was fully
    enumerated with nothing cut off by ``max_witnesses`` or ``max_len``.
    """
    if max_witnesses < 1:
        raise ValueError("max_witnesses must be >= 1")
    if max_len is not None and max_len < 0:
        raise ValueError("max_len must be >= 0")
    witnesses: list[Trace] = []
    exhausted = True
    a, b = ad1.table, ad2.table
    graph = _PairGraph(a, b)
    for v in input_valuations(ad1.input_vars(), ad2.input_vars()):
        budget = max_witnesses - len(witnesses)
        if budget == 0:
            exhausted = False
            break
        starts = (a.start(v), b.start(v))
        words, done = graph.words(graph.add(*starts), budget, max_len)
        witnesses.extend(_checked(a, b, starts, v, words))
        exhausted = exhausted and done
    return DiffResult(witnesses, exhausted)


def compare_ad(ad1: ActivityDiagram, ad2: ActivityDiagram) -> Verdict:
    """Relate two activity diagrams exactly.

    A direction differs when some valuation has a witness for it. Valuations
    are visited in order until both directions differ; each valuation serves
    one joint search for the directions still open.
    """
    tables = (ad1.table, ad2.table)
    differs = [False, False]
    starts = [None, None]  # each valuation sets both
    for v in input_valuations(ad1.input_vars(), ad2.input_vars()):
        if all(differs):
            break
        # Start in the order a forward search, then a backward one, would, so
        # that of two unsafe diagrams the same one is reported.
        for side in ((1, 0) if differs[0] else (0, 1)):
            starts[side] = tables[side].start(v)
        words = _shortest_witnesses(*tables, tuple(starts), [not d for d in differs])
        for d, (a, b) in enumerate((tables, tables[::-1])):
            if words[d] is not None:
                _checked(a, b, (starts[d], starts[1 - d]), v, [words[d]])
                differs[d] = True
    return Verdict.of(*differs, bounded=False)
