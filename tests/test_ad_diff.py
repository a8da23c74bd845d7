import random
import time
from collections import Counter
from itertools import product

import pytest

import generators
from conftest import fixture_text
from helpers import dfa_accepts_word, dfa_complement, reference_addiff
from oracles import reference_words
from semdiff import ad_diff
from semdiff.ad_diff import (
    addiff,
    compare_ad,
    determinize,
    difference_automaton,
    prefix_minimal_words,
)
from semdiff.ad_lang import parse_ad, print_ad
from semdiff.ad_semantics import (
    ConfigTable,
    Nfa,
    NfaRunner,
    Trace,
    UnsafeMarkingError,
    accepts,
    build_config_nfa,
    input_valuations,
)
from semdiff.verdict import DiffResult, Verdict, VerdictValue


def nfa_of(words, alphabet):
    """A chain-shaped automaton accepting exactly the given words."""
    transitions = []
    n = 1
    accepting = set()
    for word in words:
        state = 0
        for letter in word:
            transitions.append((state, letter, n))
            state = n
            n += 1
        accepting.add(state)
    return Nfa(
        n_states=max(n, 1),
        alphabet=frozenset(alphabet),
        transitions=tuple(transitions),
        initial=0,
        accepting=frozenset(accepting),
    )


def test_determinize_and_complement():
    # a (b | c)* with a silent transition into the loop.
    nfa = Nfa(
        n_states=3,
        alphabet=frozenset("abc"),
        transitions=((0, "a", 1), (1, None, 2), (2, "b", 2), (2, "c", 2)),
        initial=0,
        accepting=frozenset({2}),
    )
    dfa = determinize(nfa)
    comp = dfa_complement(dfa)
    for word, inside in [
        ((), False),
        (("a",), True),
        (("a", "b", "c", "b"), True),
        (("b",), False),
        (("a", "a"), False),
    ]:
        assert dfa_accepts_word(dfa, word) is inside
        assert dfa_accepts_word(comp, word) is (not inside)


def test_determinize_over_wider_alphabet():
    nfa = nfa_of([("a",)], "a")
    dfa = determinize(nfa, alphabet=frozenset("ab"))
    assert dfa_accepts_word(dfa, ("a",))
    assert not dfa_accepts_word(dfa, ("b",))
    assert not dfa_accepts_word(dfa_complement(dfa), ("a",))
    assert dfa_accepts_word(dfa_complement(dfa), ("b",))


def test_difference_automaton_language():
    a = nfa_of([("x",), ("x", "y"), ("y",)], "xy")
    b = nfa_of([("x", "y"), ("z",)], "xyz")
    diff = difference_automaton(a, b)
    assert sorted(reference_words(diff, 3)) == [("x",), ("y",)]
    # And the swapped direction.
    back = difference_automaton(b, a)
    assert sorted(reference_words(back, 3)) == [("z",)]


def random_nfa(rng):
    n = rng.randint(2, 5)
    letters = ("a", "b", None)
    transitions = tuple(
        (rng.randrange(n), rng.choice(letters), rng.randrange(n))
        for _ in range(rng.randint(2, 8))
    )
    accepting = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Nfa(
        n_states=n,
        alphabet=frozenset("ab"),
        transitions=transitions,
        initial=0,
        accepting=accepting,
    )


def test_difference_language_matches_word_enumeration():
    import random

    rng = random.Random(9)
    for _ in range(60):
        a, b = random_nfa(rng), random_nfa(rng)
        expected = sorted(set(reference_words(a, 8)) - set(reference_words(b, 8)))
        got = sorted(reference_words(difference_automaton(a, b), 8))
        assert got == expected


def test_determinize_gives_one_move_per_letter_and_no_silent_move(adv):
    rng = random.Random(11)
    nfas = [random_nfa(rng) for _ in range(100)]
    nfas += [build_config_nfa(ad, v) for ad in adv for v in input_valuations(ad.input_vars(), ())]
    for nfa in nfas:
        runner = NfaRunner(nfa)
        for wider in (None, nfa.alphabet | {"a", "z"}):
            dfa = determinize(nfa, wider)
            letters = wider or nfa.alphabet
            assert dfa.alphabet == letters
            # Exactly the (state, letter) keys, once each: EPSILON is no letter.
            moves = Counter((src, letter) for src, letter, _ in dfa.transitions)
            assert moves == Counter({(sid, x): 1 for sid in range(dfa.n_states) for x in letters})
            for length in range(4):
                for word in product(sorted(letters), repeat=length):
                    assert dfa_accepts_word(dfa, word) == runner.accepts(word, runner.initial)


def test_prefix_minimal_trims_at_first_accept():
    nfa = nfa_of([("a",), ("a", "b"), ("b", "c")], "abc")
    words, exhausted = prefix_minimal_words(nfa)
    assert words == [("a",), ("b", "c")]
    assert exhausted


def test_prefix_minimal_of_infinite_language_is_finite():
    # a+ : every longer word extends the minimal witness "a".
    nfa = Nfa(
        n_states=2,
        alphabet=frozenset("a"),
        transitions=((0, "a", 1), (1, "a", 1)),
        initial=0,
        accepting=frozenset({1}),
    )
    words, exhausted = prefix_minimal_words(nfa)
    assert words == [("a",)]
    assert exhausted


def cube_nfa():
    # All words of length exactly three over {a, b}: eight incomparable words.
    transitions = []
    for level in range(3):
        for letter in "ab":
            transitions.append((level, letter, level + 1))
    return Nfa(
        n_states=4,
        alphabet=frozenset("ab"),
        transitions=tuple(transitions),
        initial=0,
        accepting=frozenset({3}),
    )


def test_prefix_minimal_ordering_and_truncation():
    words, exhausted = prefix_minimal_words(cube_nfa())
    assert exhausted and len(words) == 8
    assert words == sorted(words)
    partial, exhausted = prefix_minimal_words(cube_nfa(), max_witnesses=3)
    assert not exhausted
    assert partial == words[:3]
    none, exhausted = prefix_minimal_words(cube_nfa(), max_len=2)
    assert none == [] and not exhausted
    exact, exhausted = prefix_minimal_words(cube_nfa(), max_len=3)
    assert exact == words and exhausted


def test_added_keycard_breaks_nothing_backward(adv):
    result = addiff(adv[2], adv[1])
    assert result.witnesses == [] and result.exhausted


def test_sequencing_keycard_removes_interleavings(adv):
    result = addiff(adv[1], adv[2])
    assert result.exhausted
    assert len(result.witnesses) == 4
    for trace in result.witnesses:
        assert trace.inputs_dict() == {"isInternal": "true"}
        assert "getKeyCard" in trace.actions
        assert accepts(adv[1], trace) and not accepts(adv[2], trace)
    # In the sequenced diagram the key card comes right after the welcome
    # package; some surviving interleavings hand out the project first.
    assert any(
        t.actions.index("assignToProject") < t.actions.index("getKeyCard")
        for t in result.witnesses
    )
    assert [t.actions for t in result.witnesses] == sorted(
        t.actions for t in result.witnesses
    )


def test_moved_report_changes_external_path(adv):
    forward = addiff(adv[2], adv[3])
    assert [t.actions for t in forward.witnesses] == [
        ("register", "assignExternalProject", "authorizePayments")
    ]
    assert forward.witnesses[0].inputs_dict() == {"isInternal": "false"}
    backward = addiff(adv[3], adv[2])
    assert [t.actions for t in backward.witnesses] == [
        ("register", "assignExternalProject", "getManagerReport", "authorizePayments")
    ]


def test_identity_diff_is_empty(adv):
    for ad in adv:
        result = addiff(ad, ad)
        assert result.witnesses == [] and result.exhausted


def test_witnesses_are_prefix_minimal_per_valuation(adv):
    result = addiff(adv[1], adv[0])
    assert len(result.witnesses) == 6
    for earlier in result.witnesses:
        for later in result.witnesses:
            if earlier is later or earlier.inputs != later.inputs:
                continue
            assert later.actions[: len(earlier.actions)] != earlier.actions or (
                later.actions == earlier.actions
            )


def test_witness_budget_spans_valuations(adv):
    result = addiff(adv[1], adv[2], max_witnesses=2)
    assert len(result.witnesses) == 2 and not result.exhausted
    full = addiff(adv[1], adv[2])
    assert result.witnesses == full.witnesses[:2]


def test_length_cutoff_reports_unfinished_search(adv):
    result = addiff(adv[1], adv[2], max_len=5)
    assert result.witnesses == [] and not result.exhausted
    at_the_edge = addiff(adv[1], adv[2], max_len=8)
    assert len(at_the_edge.witnesses) == 4 and at_the_edge.exhausted


def test_a_length_cutoff_ignores_paths_that_lead_to_no_witness():
    # After c both diagrams run alike, so the path c e f, longer than the
    # witness a b, can never become one.
    a = parse_ad("activity A { decision d; action a; action b; action c; action e; action f;"
                 " start -> d; d -[true]-> a; a -> b; b -> end;"
                 " d -[true]-> c; c -> e; e -> f; f -> end; }")
    b = parse_ad("activity B { action c; action e; action f;"
                 " start -> c; c -> e; e -> f; f -> end; }")
    assert addiff(a, b, max_len=1) == DiffResult([], False)
    for max_len in (2, 3, None):
        assert addiff(a, b, max_len=max_len) == DiffResult([Trace((), ("a", "b"))], True)


def test_walk_lists_a_witness_at_every_length_in_order():
    # A runs a+ b and B runs a+ c, so each length from 2 on has one witness.
    loop = ("activity L {{ merge m; action a; decision d; action {0}; start -> m; m -> a;"
            " a -> d; d -[true]-> m; d -[true]-> {0}; {0} -> end; }}")
    a, b = parse_ad(loop.format("b")), parse_ad(loop.format("c"))
    assert addiff(a, b, 300) == DiffResult(
        [Trace((), ("a",) * k + ("b",)) for k in range(1, 301)], False)
    capped = addiff(a, b, max_len=5)
    assert [len(t.actions) for t in capped.witnesses] == [2, 3, 4, 5]
    assert not capped.exhausted


def test_valuations_group_in_order():
    a = parse_ad(
        """
        activity A {
          input p: bool;
          action walk; action run; decision d; action lead;
          start -> lead; lead -> d;
          d -[p]-> run; d -[!p]-> walk;
          run -> end; walk -> end;
        }
        """
    )
    b = parse_ad("activity B { action lead; start -> lead; lead -> end; }")
    result = addiff(a, b)
    assert [t.inputs_dict()["p"] for t in result.witnesses] == ["false", "true"]
    assert [t.actions for t in result.witnesses] == [("lead", "walk"), ("lead", "run")]


def test_parameter_validation(adv):
    with pytest.raises(ValueError, match="max_witnesses"):
        addiff(adv[0], adv[1], max_witnesses=0)
    with pytest.raises(ValueError, match="max_len"):
        addiff(adv[0], adv[1], max_len=-1)


def test_compare_all_verdicts(adv):
    assert compare_ad(adv[0], adv[0]).value is VerdictValue.EQUIVALENT
    assert compare_ad(adv[2], adv[1]).value is VerdictValue.LEFT_REFINES_RIGHT
    assert compare_ad(adv[1], adv[2]).value is VerdictValue.RIGHT_REFINES_LEFT
    assert compare_ad(adv[2], adv[3]).value is VerdictValue.INCOMPARABLE


def test_compare_is_exact():
    verdict = compare_ad(
        parse_ad("activity A { action a; start -> a; a -> end; }"),
        parse_ad("activity B { action a; start -> a; a -> end; }"),
    )
    assert not verdict.bounded
    assert str(verdict) == "EQUIVALENT"


def test_initial_pairs_alone_can_settle_the_last_open_direction():
    # Under p=false, A's trace "a" settles A->B; under p=true, B accepts the
    # empty word at its start pair, which settles B->A before any move.
    a = parse_ad(
        "activity A { input p: bool; action a; action b; decision d; start -> d;"
        " d -[!p]-> a; d -[p]-> b; a -> end; b -> end; }"
    )
    b = parse_ad(
        "activity B { input p: bool; action c; decision d; start -> d;"
        " d -[p]-> end; d -[p]-> c; c -> end; }"
    )
    assert compare_ad(a, b).value is VerdictValue.INCOMPARABLE


def test_traces_round_trip_through_make(adv):
    result = addiff(adv[1], adv[2])
    for trace in result.witnesses:
        assert Trace.make(trace.inputs_dict(), trace.actions) == trace


def paths_by_length(graph, start, upto):
    """How many paths of each length up to ``upto`` lead from pair ``start``
    of a pair graph to an accepting pair."""
    counts = []
    paths = Counter({start: 1})
    for _ in range(upto + 1):
        counts.append(sum(n for pid, n in paths.items() if graph.final[pid]))
        step = Counter()
        for pid, n in paths.items():
            for _, sid in graph.rows[pid]:
                step[sid] += n
        paths = step
    return counts


def test_walk_limits_cut_a_prefix_and_exhausted_means_nothing_more():
    rng = random.Random(505)
    infinite = 0
    for _ in range(30):
        ad1, ad2 = generators.random_ad_pair(rng, max_len=8)
        # One graph for every valuation of the pair, as in ``addiff``.
        a, b = ConfigTable(ad1), ConfigTable(ad2)
        graph = ad_diff._PairGraph(a, b)
        for v in input_valuations(ad1.input_vars(), ad2.input_vars()):
            starts = (a.start(v), b.start(v))
            start = graph.add(*starts)
            reference, _ = graph.words(start, 50, None)
            # A word beyond a list is, if there is one, pumped down to at most
            # len(graph.rows) letters past the list's longest word or max_len.
            top = max([8] + [len(w) for w in reference[:7]]) + len(graph.rows)
            counts = paths_by_length(graph, start, top)
            infinite += counts[-1] > 0
            for max_len in (None, 0, 1, 2, 3, 5, 8):
                uncapped, _ = graph.words(start, 50, max_len)
                for cap in (1, 2, 3, 7):
                    words, exhausted = graph.words(start, cap, max_len)
                    assert words == uncapped[:cap]
                    for w in words:
                        assert a.accepts(w, starts[0]) and not b.accepts(w, starts[1])
                    upto = max([max_len or 0] + [len(w) for w in words]) + len(graph.rows)
                    assert exhausted == (sum(counts[: upto + 1]) == len(words))
    assert infinite > 0  # loops gave some valuation an infinite difference


def has_cycle(ad):
    """Whether the diagram's edges form a cycle: a topological sort of its
    nodes leaves some out."""
    indegree = Counter(e.dst for e in ad.edges)
    todo = [n.name for n in ad.nodes if not indegree[n.name]]
    for name in todo:
        for e in ad.edges:
            if e.src == name:
                indegree[e.dst] -= 1
                if not indegree[e.dst]:
                    todo.append(e.dst)
    return len(todo) < len(ad.nodes)


def test_one_pair_graph_per_call_answers_as_a_fresh_graph_per_valuation():
    rng = random.Random(508)
    loops = 0
    for _ in range(200):
        ad1, ad2 = generators.random_ad_pair(rng, max_len=8)
        loops += has_cycle(ad1) or has_cycle(ad2)
        for x, y in ((ad1, ad2), (ad2, ad1)):
            for max_len in (None, 0, 2, 6):
                for cap in (1, 3, 50):
                    assert addiff(x, y, cap, max_len) == reference_addiff(x, y, cap, max_len)[0]
    assert loops > 0


def chain_pair():
    """The 8-input decision chain and a copy whose fourth decision is
    swapped: every one of the 256 valuations has one witness."""
    text = generators.decision_chain_text(8)
    swapped = text.replace("d3 -[b3]-> y3", "d3 -[!b3]-> y3").replace("d3 -[!b3]-> n3", "d3 -[b3]-> n3")
    return parse_ad(text), parse_ad(swapped)


def test_each_pair_is_expanded_once_per_call(monkeypatch):
    plain, swapped = chain_pair()
    # A fresh graph per valuation holds 2304 pairs over the 256 valuations.
    fresh, visits = reference_addiff(plain, swapped, 300)
    assert len(fresh.witnesses) == 256 and visits == 2304
    graphs, expanded = [], Counter()
    add = ad_diff._PairGraph.add

    def recording_add(graph, states_a, states_b):
        before = len(graph.rows)
        pid = add(graph, states_a, states_b)
        graphs.append(graph)
        expanded[id(graph)] += len(graph.rows) - before
        return pid

    monkeypatch.setattr(ad_diff._PairGraph, "add", recording_add)
    seen = []
    for _ in range(2):
        graphs.clear()
        expanded.clear()
        assert addiff(plain, swapped, 300) == fresh
        (graph,) = set(graphs)  # one graph for the call, one start per valuation
        assert len(graphs) == 256 and graph not in seen
        assert expanded == Counter({id(graph): 766})
        assert len(graph.index) == len(graph.rows) == 766
        seen.append(graph)


def test_a_long_sequence_over_a_large_alphabet_diffs_quickly():
    # 8000 actions in a row: each pair has one successor, so the graph,
    # its liveness and the walk are linear, and nothing recurses per letter.
    n = 8000
    names = [f"a{i}" for i in range(n)]

    def sequence(name, order):
        edges = " ".join(f"{x} -> {y};" for x, y in zip(["start"] + order, order + ["end"]))
        return parse_ad(f"activity {name} {{ {' '.join(f'action {a};' for a in names)} {edges} }}")

    plain = sequence("P", names)
    swapped = sequence("S", names[:-2] + [names[-1], names[-2]])
    for other, expected in ((swapped, [tuple(names)]), (plain, [])):
        started = time.monotonic()
        result = addiff(plain, other)
        assert time.monotonic() - started < 2.0
        assert [t.actions for t in result.witnesses] == expected and result.exhausted


def test_addiff_limits_cut_a_prefix_of_the_uncapped_answer():
    rng = random.Random(506)
    for _ in range(25):
        ad1, ad2 = generators.random_ad_pair(rng, max_len=8)
        for max_len in (None, 0, 2, 5):
            full = addiff(ad1, ad2, 50, max_len)
            for cap in (1, 2, 3, 7):
                result = addiff(ad1, ad2, cap, max_len)
                assert result.witnesses == full.witnesses[:cap]
                if result.exhausted:
                    assert full.exhausted and result.witnesses == full.witnesses
                if len(full.witnesses) > cap:
                    assert not result.exhausted


def test_a_budget_filled_before_the_last_valuation_reads_not_exhausted(adv):
    # adv3 -> adv4 has one witness, in the first valuation. A budget of one
    # stops before the second valuation is walked, so the flag reads False
    # although the uncapped call finds nothing more; pinned as it is today.
    capped, full = addiff(adv[2], adv[3], 1), addiff(adv[2], adv[3])
    assert capped.witnesses == full.witnesses and len(full.witnesses) == 1
    assert (capped.exhausted, full.exhausted) == (False, True)


def test_compare_agrees_with_one_witness_per_direction(adv):
    rng = random.Random(507)
    pairs = [generators.random_ad_pair(rng, max_len=8) for _ in range(200)]
    pairs += [(x, y) for x in adv for y in adv]
    verdicts = Counter()
    for x, y in pairs:
        verdict = compare_ad(x, y)
        forward, backward = addiff(x, y, 1).witnesses, addiff(y, x, 1).witnesses
        assert verdict == Verdict.of(bool(forward), bool(backward), bounded=False)
        verdicts[verdict.value] += 1
    assert len(verdicts) == 4  # the sweep meets every verdict


def record_exploration(monkeypatch):
    """How often the shared firing loop explored each configuration of each
    diagram, and how often ``ConfigTable.start`` started each table under
    each valuation."""
    explored, started = Counter(), Counter()
    play, start = ConfigTable.play, ConfigTable.start

    def recording_play(table, configs, index, rows, *rest):
        first = len(rows)
        play(table, configs, index, rows, *rest)
        explored.update((id(table), config) for config in configs[first:])

    def recording_start(table, valuation):
        started[id(table), tuple(sorted(valuation.items()))] += 1
        return start(table, valuation)

    monkeypatch.setattr(ConfigTable, "play", recording_play)
    monkeypatch.setattr(ConfigTable, "start", recording_start)
    return explored, started


def test_each_configuration_is_explored_once_per_diagram_across_calls(monkeypatch):
    explored, started = record_exploration(monkeypatch)
    adv = [parse_ad(fixture_text(f"adv{n}.ad")) for n in (1, 2, 3, 4)]
    valuations = [tuple(sorted(v.items())) for v in input_valuations(
        adv[1].input_vars(), adv[2].input_vars())]
    assert len(valuations) == 2
    first = addiff(adv[1], adv[2])
    assert len(first.witnesses) == 4
    assert started == Counter({(id(ad.table), v): 1 for ad in adv[1:3] for v in valuations})
    assert explored and max(explored.values()) == 1
    # The same call again starts the same tables and explores nothing new.
    seen = Counter(explored)
    started.clear()
    assert addiff(adv[1], adv[2]) == first
    assert started == Counter({(id(ad.table), v): 1 for ad in adv[1:3] for v in valuations})
    assert explored == seen

    # The only witness of the first valuation fills the budget: one
    # valuation, and only adv4 is new.
    started.clear()
    assert len(addiff(adv[2], adv[3], max_witnesses=1).witnesses) == 1
    assert started == Counter({(id(ad.table), valuations[0]): 1 for ad in adv[2:4]})
    assert {table for table, _ in explored - seen} == {id(adv[3].table)}
    assert max(explored.values()) == 1

    for pair in ((adv[1], adv[2]), (adv[2], adv[1]), (adv[2], adv[3])):
        for _ in range(2):
            seen = Counter(explored)
            started.clear()
            compare_ad(*pair)
            assert started and max(started.values()) == 1
            assert sum(started.values()) <= 2 * len(valuations)
            assert max(explored.values()) == 1
        assert explored == seen  # the second call explored 0 configurations


def test_valuations_share_configurations_once_their_inputs_are_read(monkeypatch):
    # On a chain of 8 decisions, input i is dead once decision i has fired,
    # so the 256 valuations share what follows: at most a third of the
    # configurations that one build per valuation holds.
    plain = parse_ad(generators.decision_chain_text(8))
    valuations = list(input_valuations(plain.input_vars(), ()))
    assert sum(build_config_nfa(plain, v).n_states for v in valuations) == 6400
    explored, _ = record_exploration(monkeypatch)
    swapped = parse_ad(generators.decision_chain_text(8).replace("d3 -[b3]-> y3", "d3 -[!b3]-> y3")
                       .replace("d3 -[!b3]-> n3", "d3 -[b3]-> n3"))
    assert len(addiff(plain, swapped, 300).witnesses) == 256
    configs = Counter(table for table, _ in explored)
    assert configs == Counter({id(plain.table): 1531, id(swapped.table): 1531})


def test_compare_expands_each_joint_pair_once_per_call(monkeypatch):
    # Identical diagrams: no direction ever closes, so every valuation
    # searches, and the later ones meet the pairs the earlier ones kept.
    a, b = parse_ad(generators.decision_chain_text(6)), parse_ad(generators.decision_chain_text(6))
    expanded = Counter()
    successors = ConfigTable.successors

    def counting_successors(table, states):
        expanded[id(table), states] += 1
        return successors(table, states)

    monkeypatch.setattr(ConfigTable, "successors", counting_successors)
    assert compare_ad(a, b).value is VerdictValue.EQUIVALENT
    assert len(list(input_valuations(a.input_vars(), b.input_vars()))) == 64
    assert {id(a.table), id(b.table)} == {table for table, _ in expanded}
    assert max(expanded.values()) == 1


def test_unsound_search_result_fails_the_self_check(monkeypatch):
    par = parse_ad(
        "activity P { action x; action y; fork f; join j;"
        " start -> f; f -> x; f -> y; x -> j; y -> j; j -> end; }"
    )
    seq = parse_ad("activity S { action x; action y; start -> x; x -> y; y -> end; }")
    assert [t.actions for t in addiff(par, seq).witnesses] == [("y", "x")]
    assert compare_ad(par, seq).value is VerdictValue.RIGHT_REFINES_LEFT
    # A kernel that returns a trace both diagrams allow.
    monkeypatch.setattr(ad_diff._PairGraph, "words", lambda *args: ([("x", "y")], True))
    with pytest.raises(RuntimeError, match="unsound witness"):
        addiff(par, seq)
    # A joint search that claims that trace for every open direction.
    monkeypatch.setattr(
        ad_diff, "_shortest_witnesses",
        lambda a, b, start, wanted, links: [("x", "y") if w else None for w in wanted])
    with pytest.raises(RuntimeError, match="unsound witness"):
        compare_ad(par, seq)


def test_ten_way_fork_refines_to_its_sequenced_variant():
    plain, sequenced = parse_ad(generators.fork_text(10, False)), parse_ad(generators.fork_text(10, True))
    assert compare_ad(plain, sequenced).value is VerdictValue.RIGHT_REFINES_LEFT
    result = addiff(plain, sequenced, 2)
    first = ("a1", "a0", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "fin")
    second = ("a1", "a0", "a2", "a3", "a4", "a5", "a6", "a7", "a9", "a8", "fin")
    assert [t.actions for t in result.witnesses] == [first, second]
    assert not result.exhausted


def test_compare_reports_the_unsafe_diagram_a_backward_search_meets_first():
    x, y = generators.unsafe_when_p("X", ["x1", "z"]), generators.unsafe_when_p("Y", ["z"])
    # Forward differs at p=false already; only the backward direction reaches
    # p=true, and a backward search builds the right diagram first.
    with pytest.raises(UnsafeMarkingError, match="'mY'"):
        compare_ad(x, y)
    with pytest.raises(UnsafeMarkingError, match="'mY'"):
        compare_ad(y, x)


def test_a_failed_start_leaves_the_shared_tables_as_they_were():
    # X and Y are safe when p is false and unsafe when it holds. A start that
    # fails must not leave a configuration indexed but not fired: a later
    # start would then skip the error, or read a row that is not there.
    def fresh():
        return generators.unsafe_when_p("X", ["x1", "z"]), generators.unsafe_when_p("Y", ["z"])

    def error(call, x, y):
        with pytest.raises(UnsafeMarkingError) as err:
            call(x, y)
        e = err.value
        return str(e), e.node, e.edge, e.config

    calls = [compare_ad, lambda x, y: compare_ad(y, x), addiff, lambda x, y: addiff(y, x)]
    expected = [error(call, *fresh()) for call in calls]
    assert {e[1] for e in expected} == {"mX", "mY"}
    assert all(e[3].state == (("p", "true"),) for e in expected)
    for order in (calls + calls, (calls + calls)[::-1]):
        x, y = fresh()
        for call in order:
            assert error(call, x, y) == expected[calls.index(call)]
            for ad in (x, y):
                assert len(ad.table.rows) == len(ad.table.configs) == len(ad.table.index)
        # The only witness of p=false fills the budget, so p=true is never
        # started and the answer is that of fresh diagrams.
        result = addiff(x, y, 1)
        assert result == addiff(*fresh(), 1)
        assert [t.inputs for t in result.witnesses] == [(("p", "false"),)]


def test_repeated_calls_on_the_same_diagrams_answer_as_fresh_ones():
    # Every call extends the tables that the diagrams keep, so a call made
    # after others must answer as the same call on diagrams parsed anew.
    rng = random.Random(2929)
    queries = [(addiff, forward, cap, max_len) for forward in (True, False)
               for cap, max_len in ((1, None), (3, None), (10**9, 6))]
    queries += [(addiff, True, 3, 2), (compare_ad, True, None, None)]

    def ask(query, x, y):
        search, forward, cap, max_len = query
        left, right = (x, y) if forward else (y, x)
        if search is compare_ad:
            return compare_ad(left, right)
        return addiff(left, right, cap, max_len)

    for _ in range(150):
        x, y = generators.random_ad_pair(rng, max_len=8)
        texts = print_ad(x), print_ad(y)
        expected = [ask(q, *map(parse_ad, texts)) for q in queries]
        order = list(range(len(queries))) * 2
        rng.shuffle(order)
        for i in order:
            assert ask(queries[i], x, y) == expected[i], (texts, queries[i])


def joint_search_pairs(adv):
    """Fork widths 2..6, from 3 on also with a sequenced pair, diagrams
    unsafe under one valuation, and the fixtures: every ordered pair of each
    group."""
    forks = [parse_ad(generators.fork_text(n, seq))
             for n in range(2, 7) for seq in (False, True) if n > 2 or not seq]
    unsafe = [generators.unsafe_when_p(name, idle) for name, idle in
              (("X", ["x1", "z"]), ("Y", ["z"]), ("Z", ["x1"]))]
    return [(x, y) for group in (forks, unsafe, adv) for x in group for y in group]


def test_compare_matches_one_witness_per_direction_on_forks_and_unsafe_diagrams(adv):
    verdicts = Counter()
    for x, y in joint_search_pairs(adv):
        try:
            expected = Verdict.of(
                bool(addiff(x, y, 1).witnesses), bool(addiff(y, x, 1).witnesses), bounded=False)
        except UnsafeMarkingError:
            # Some direction meets the unsafe valuation before a witness, so
            # the joint search meets it too.
            with pytest.raises(UnsafeMarkingError):
                compare_ad(x, y)
            verdicts["unsafe"] += 1
            continue
        assert compare_ad(x, y) == expected
        verdicts[expected.value] += 1
    assert len(verdicts) == 5  # every verdict, and some unsafe pair


def test_compare_takes_no_more_successor_steps_than_two_one_witness_diffs(adv, monkeypatch):
    # A table keeps no subset's successors, so this counts every time a
    # search expands a subset. Each ``step`` of the self-check reads one
    # ``successors`` call too, and is not counted.
    calls = Counter()
    real_successors, real_step = NfaRunner.successors, NfaRunner.step

    def counting(runner, states):
        calls["successors"] += 1
        return real_successors(runner, states)

    def counting_step(runner, states, letter):
        calls["step"] += 1
        return real_step(runner, states, letter)

    monkeypatch.setattr(NfaRunner, "successors", counting)
    monkeypatch.setattr(NfaRunner, "step", counting_step)

    def steps(search, *pairs):
        calls.clear()
        for pair in pairs:
            try:
                search(*pair)
            except UnsafeMarkingError:
                pass
        return calls["successors"] - calls["step"]

    fewer = 0
    for x, y in joint_search_pairs(adv):
        joint = steps(compare_ad, (x, y))
        separate = steps(lambda a, b: addiff(a, b, 1), (x, y), (y, x))
        assert joint <= separate
        fewer += joint < separate
    assert fewer > 0
