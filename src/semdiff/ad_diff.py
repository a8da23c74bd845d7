"""Semantic differencing of activity diagrams.

For each input valuation both diagrams compile to finite NFAs, their config
NFAs. A call keeps one ``ConfigTable`` per diagram, which every valuation
extends with the configurations it reaches that the table lacks. The table
sets the state values that no marked edge can read to None, so valuations
that differ only in those share configurations, ε-closures and subset
successors. Per valuation, ``addiff`` searches one graph, the pair graph:
its states are the pairs (A-subset, B-subset) of configurations that
reading the same trace leads to in A and in B, built breadth-first over the
union alphabet from the pair of initial closures; each pair's successors
are computed once per call. A pair accepts when its A-subset holds an
accepting configuration and its B-subset holds none, and the graph stops at
accepting pairs, so every path to one spells a prefix-minimal trace of A
that B cannot produce. B's subset is a function of the trace, so the pair
graph is exactly the determinized product of A with the complement of B
(``difference_automaton``), built without materializing either.

Witnesses come shortest first and lexicographic within a length, following
Ackerman & Shallit, "Efficient enumeration of words in regular languages"
(TCS 2009): the backward layer ``reach[r]`` holds the pairs that reach an
accepting pair in exactly r steps, and the walk for length L only steps into
pairs of ``reach[L - depth - 1]``. Every step then leads to a witness, so a
witness costs O(L·|Σ|) steps however many shorter traces A has.

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
per-configuration moves, one step at a time, without the subset and pair
memos (``_checked``).

Unlike the bounded class-diagram search this is exact: the state spaces are
finite. ``determinize`` and ``difference_automaton`` return the graphs they
explore as deterministic ``Nfa``s, complete for ``determinize``.
"""

from __future__ import annotations

from .ad_lang import ActivityDiagram
from .ad_semantics import (
    ConfigTable,
    Nfa,
    NfaRunner,
    Trace,
    input_valuations,
)
from .verdict import DEFAULT_MAX_WITNESSES, DiffResult, Verdict

_EMPTY: frozenset[int] = frozenset()


def _explore(initial, successors, letters, stop):
    """Breadth-first walk of the deterministic graph that ``successors``
    spells out.

    ``successors(state)`` maps letters to successor states, omitting letters
    without one; states where ``stop`` holds get no successors. Returns the
    states in discovery order (the initial one has id 0) and per state its
    successor ids by letter index (-1 where there is none).
    """
    index = {initial: 0}
    order = [initial]
    rows: list[list[int]] = []
    for state in order:
        row: list[int] = []
        if not stop(state):
            succs = successors(state)
            for letter in letters:
                succ = succs.get(letter)
                if succ is None:
                    row.append(-1)
                    continue
                succ_id = index.get(succ)
                if succ_id is None:
                    succ_id = index[succ] = len(order)
                    order.append(succ)
                row.append(succ_id)
        rows.append(row)
    return order, rows


def _walk(
    rows: list[list[int]],
    final: list[bool],
    letters,
    max_words: int | None,
    max_len: int | None,
) -> tuple[list[tuple[str, ...]], bool]:
    """Words spelling a path from state 0 to a final state, shortest first,
    then lexicographic.

    Final states must have no successors, so no word is a prefix of another.
    Returns (words, exhausted); exhausted is False exactly when some further
    word exists beyond ``max_words`` or ``max_len``.
    """
    if not any(final):
        return [], True
    preds: list[list[int]] = [[] for _ in rows]
    for sid, row in enumerate(rows):
        for tid in row:
            if tid >= 0:
                preds[tid].append(sid)
    reach = [{sid for sid, f in enumerate(final) if f}]
    live = set(reach[0])
    todo = list(live)
    while todo:
        for back in preds[todo.pop()]:
            if back not in live:
                live.add(back)
                todo.append(back)

    words: list[tuple[str, ...]] = []
    frontier = {0} & live  # live states at the end of some path of this length
    length = 0
    while frontier:
        if any(final[sid] for sid in frontier):
            while len(reach) < length:
                reach.append({back for sid in reach[-1] for back in preds[sid]})
            for word in _words_of_length(rows, letters, reach, length):
                if max_words is not None and len(words) >= max_words:
                    return words, False
                words.append(word)
        frontier = {tid for sid in frontier for tid in rows[sid] if tid in live}
        if frontier and length == max_len:
            return words, False
        length += 1
    return words, True


def _words_of_length(rows, letters, reach, length: int):
    """Paths of exactly ``length`` steps from state 0 to a final state, in
    letter order; ``reach[r]`` must hold the states with such a path of r
    steps, for r < ``length``, and state 0 must have one of ``length``."""
    states = [0]
    chosen: list[int] = []  # letter index taken at each depth
    i = 0
    while True:
        depth = len(chosen)
        if depth == length:
            yield tuple(letters[c] for c in chosen)
        else:
            row = rows[states[-1]]
            viable = reach[length - depth - 1]
            while i < len(row) and row[i] not in viable:
                i += 1
            if i < len(row):
                chosen.append(i)
                states.append(row[i])
                i = 0
                continue
        if not chosen:
            return
        i = chosen.pop() + 1
        states.pop()


def determinize(nfa: Nfa, alphabet: frozenset[str] | None = None) -> Nfa:
    """Subset construction over ``alphabet`` (the NFA's own by default),
    completed with a sink: every state of the result has exactly one move
    per letter and no silent move."""
    letters = tuple(sorted(alphabet if alphabet is not None else nfa.alphabet))
    runner = NfaRunner(nfa)
    order, rows = _explore(
        runner.initial,
        lambda states: {letter: runner.step(states, letter) for letter in letters},
        letters,
        _never,
    )
    return _graph_nfa(rows, [runner.is_accepting(s) for s in order], letters)


def difference_automaton(a: Nfa, b: Nfa) -> Nfa:
    """An NFA accepting L(a) minus L(b) over the union of both alphabets.

    It is the pair graph of ``a`` against ``b`` without the cut at accepting
    pairs (see the module docstring), so it is deterministic.
    """
    return _graph_nfa(*_pair_graph(NfaRunner(a), NfaRunner(b), trimmed=False))


def _graph_nfa(rows: list[list[int]], final: list[bool], letters) -> Nfa:
    """The graph that ``_explore`` spelled out as an ``Nfa`` from state 0."""
    return Nfa(
        n_states=len(rows),
        alphabet=frozenset(letters),
        transitions=tuple(
            (sid, letter, tid)
            for sid, row in enumerate(rows)
            for letter, tid in zip(letters, row)
            if tid >= 0
        ),
        initial=0,
        accepting=frozenset(sid for sid, f in enumerate(final) if f),
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
    nothing = Nfa(n_states=1, alphabet=frozenset(), transitions=(), initial=0,
                  accepting=frozenset())
    rows, final, letters = _pair_graph(NfaRunner(nfa), NfaRunner(nothing))
    return _walk(rows, final, letters, max_witnesses, max_len)


def _pair_graph(a: NfaRunner, b: NfaRunner, trimmed: bool = True, memo: dict | None = None):
    """The pair graph of ``a`` against ``b`` (see the module docstring) from
    their ``initial`` subsets, as (successor rows, accepting flags, letters).
    Unless ``trimmed``, accepting pairs keep their successors. ``memo`` keeps
    each pair's successors for the next graph over the same runners."""
    letters = sorted(a.alphabet | b.alphabet)
    memo = {} if memo is None else memo

    def successors(pair):
        succ = memo.get(pair)
        if succ is None:
            succ_b = b.successors(pair[1])
            succ = memo[pair] = {
                letter: (succ_a, succ_b.get(letter, _EMPTY))
                for letter, succ_a in a.successors(pair[0]).items()
            }
        return succ

    def accepting(pair):
        return a.is_accepting(pair[0]) and not b.is_accepting(pair[1])

    order, rows = _explore((a.initial, b.initial), successors, letters,
                           accepting if trimmed else _never)
    return rows, [accepting(pair) for pair in order], letters


def _never(state) -> bool:
    return False


def _checked(a: NfaRunner, b: NfaRunner, valuation: dict[str, str], words) -> list[Trace]:
    """``words`` as traces under ``valuation``, each re-run from the
    runners' ``initial`` subsets to confirm that ``a`` accepts it and ``b``
    does not."""
    traces = [Trace.make(valuation, w) for w in words]
    for trace in traces:
        if not a.accepts(trace.actions) or b.accepts(trace.actions):
            raise RuntimeError(f"diff search produced an unsound witness: {trace}")
    return traces


def _shortest_witnesses(a: NfaRunner, b: NfaRunner, wanted) -> list[tuple[str, ...] | None]:
    """Per direction, forward (``a`` accepts, ``b`` does not) and backward,
    a shortest word that witnesses it, or None where there is none or the
    direction is not ``wanted``; one breadth-first search of the joint pair
    graph (see the module docstring).

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

    start = (a.initial, b.initial)
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
            succ = (succ_a.get(letter, _EMPTY), succ_b.get(letter, _EMPTY))
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
    a, b = ConfigTable(ad1), ConfigTable(ad2)
    pairs: dict = {}
    for v in input_valuations(ad1.input_vars(), ad2.input_vars()):
        budget = max_witnesses - len(witnesses)
        if budget == 0:
            exhausted = False
            break
        a.start(v)
        b.start(v)
        rows, final, letters = _pair_graph(a, b, memo=pairs)
        words, done = _walk(rows, final, letters, budget, max_len)
        witnesses.extend(_checked(a, b, v, words))
        exhausted = exhausted and done
    return DiffResult(witnesses, exhausted)


def compare_ad(ad1: ActivityDiagram, ad2: ActivityDiagram) -> Verdict:
    """Relate two activity diagrams exactly.

    A direction differs when some valuation has a witness for it. Valuations
    are visited in order until both directions differ; each valuation serves
    one joint search for the directions still open.
    """
    tables = (ConfigTable(ad1), ConfigTable(ad2))
    differs = [False, False]
    for v in input_valuations(ad1.input_vars(), ad2.input_vars()):
        if all(differs):
            break
        # Start in the order a forward search, then a backward one, would, so
        # that of two unsafe diagrams the same one is reported.
        for side in ((1, 0) if differs[0] else (0, 1)):
            tables[side].start(v)
        words = _shortest_witnesses(*tables, [not d for d in differs])
        for d, (a, b) in enumerate((tables, tables[::-1])):
            if words[d] is not None:
                _checked(a, b, v, [words[d]])
                differs[d] = True
    return Verdict.of(*differs, bounded=False)
