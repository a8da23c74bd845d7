import pickle
import random
import time
import traceback

import pytest

import generators
from helpers import reference_build_config_nfa, reference_step
from oracles import reference_words
from semdiff.ad_diff import addiff, compare_ad
from semdiff.ad_lang import guard_variables, parse_ad, print_ad
from semdiff.ad_semantics import (
    EMPTY,
    EPSILON,
    ConfigTable,
    DomainMismatchError,
    Nfa,
    NfaRunner,
    Trace,
    UnsafeMarkingError,
    accepts,
    build_config_nfa,
    input_valuations,
)


def engine_traces(ad, valuation, max_len):
    """The words of the engine's config NFA, walked by the oracle."""
    return reference_words(build_config_nfa(ad, valuation), max_len)


INTERNAL_HIRE = (
    "register",
    "getWelcomePackage",
    "assignToProject",
    "addToComputerSystem",
    "interview",
    "getManagerReport",
    "authorizePayments",
)


def test_linear_diagram_has_one_trace():
    ad = parse_ad("activity A { start -> a; action a; a -> end; }")
    assert engine_traces(ad, {}, 5) == [("a",)]


def test_fork_interleavings(adv):
    traces = engine_traces(adv[0], {"isInternal": "true"}, 10)
    assert traces == [
        (
            "register",
            "getWelcomePackage",
            "addToComputerSystem",
            "assignToProject",
            "interview",
            "getManagerReport",
            "authorizePayments",
        ),
        INTERNAL_HIRE,
    ]


def test_decision_selects_branch(adv):
    traces = engine_traces(adv[0], {"isInternal": "false"}, 10)
    assert traces == [("register", "assignExternalProject", "authorizePayments")]


def test_merge_and_decision_loop():
    ad = parse_ad(
        """
        activity L {
          action a; merge m; decision d;
          start -> m; m -> a; a -> d;
          d -[true]-> m;
          d -[true]-> end;
        }
        """
    )
    assert engine_traces(ad, {}, 4) == [
        ("a",),
        ("a", "a"),
        ("a", "a", "a"),
        ("a", "a", "a", "a"),
    ]


def test_run_stops_when_any_token_reaches_final():
    ad = parse_ad(
        """
        activity S {
          fork f; action a; action b;
          start -> f; f -> a; f -> b;
          a -> end; b -> end;
        }
        """
    )
    # The first token to enter a final node ends the run, so the two actions
    # never both appear in one trace.
    assert engine_traces(ad, {}, 5) == [("a",), ("b",)]


def test_stuck_configuration_yields_no_traces():
    ad = parse_ad(
        """
        activity K {
          input p: bool;
          action a1; action a2; action lead; decision d;
          start -> lead; lead -> d;
          d -[p]-> a1; d -[p]-> a2;
          a1 -> end; a2 -> end;
        }
        """
    )
    assert engine_traces(ad, {"p": "false"}, 5) == []
    assert engine_traces(ad, {"p": "true"}, 5) == [("lead", "a1"), ("lead", "a2")]


def test_assignment_feeds_later_guard():
    template = """
    activity F {{
      local flag: bool;
      action prepare{assign}; action yes; action no; decision d;
      start -> prepare; prepare -> d;
      d -[flag]-> yes; d -[!flag]-> no;
      yes -> end; no -> end;
    }}
    """
    with_assign = parse_ad(template.format(assign=" / flag := true"))
    without = parse_ad(template.format(assign=""))
    assert engine_traces(with_assign, {}, 5) == [("prepare", "yes")]
    assert engine_traces(without, {}, 5) == [("prepare", "no")]


FORK_INTO_MERGE = parse_ad(
    """
    activity U {
      fork f; merge m; action a; action b; action c;
      start -> f; f -> a; f -> b;
      a -> m; b -> m;
      m -> c; c -> end;
    }
    """
)


def test_double_marking_is_rejected():
    with pytest.raises(UnsafeMarkingError) as err:
        build_config_nfa(FORK_INTO_MERGE, {})
    assert err.value.node == "m"
    assert err.value.edge == ("m", "c")
    assert "m -> c" in str(err.value)


def test_build_config_nfa_matches_the_reference_builder(adv):
    rng = random.Random(2011)
    diagrams = [ad for _ in range(150) for ad in generators.random_ad_pair(rng, max_len=8)]
    diagrams += adv
    diagrams += [parse_ad(generators.fork_text(n, False)) for n in range(2, 9)]
    diagrams += [parse_ad(generators.fork_text(n, True)) for n in range(3, 9)]
    diagrams += [parse_ad(generators.decision_chain_text(n, rich))
                 for n in (1, 2, 4) for rich in (False, True)]
    builds = 0
    for ad in diagrams:
        for v in input_valuations(ad.input_vars(), ()):
            # Nfa equality covers state numbering, transition order and the
            # accepting set.
            assert build_config_nfa(ad, v) == reference_build_config_nfa(ad, v)
            builds += 1
    assert builds > len(diagrams)


# A fork that fires again while two of its outgoing edges are still marked.
REFORKING_LOOP = parse_ad(
    "activity W { fork f; merge m; action a; action b; action c;"
    " start -> m; m -> f; f -> a; f -> b; f -> c; c -> m; a -> end; b -> end; }"
)


@pytest.mark.parametrize("ad, valuation", [
    (FORK_INTO_MERGE, {}),
    (generators.unsafe_when_p("X", ["x1", "z"]), {"p": "true"}),
    (generators.unsafe_when_p("Y", ["z"]), {"p": "true"}),
    (REFORKING_LOOP, {}),
], ids=["fork-into-merge", "unsafe-X", "unsafe-Y", "reforking-loop"])
def test_unsafe_marking_error_matches_the_reference_builder(ad, valuation):
    with pytest.raises(UnsafeMarkingError) as ours:
        build_config_nfa(ad, valuation)
    with pytest.raises(UnsafeMarkingError) as ref:
        reference_build_config_nfa(ad, valuation)
    assert str(ours.value) == str(ref.value)
    assert ours.value.node == ref.value.node
    assert ours.value.edge == ref.value.edge
    assert ours.value.config == ref.value.config


def same_language(a, b, start) -> bool:
    """Whether two runners accept the same words from the pair of subsets
    ``start``: no pair of subsets that one word leads to has exactly one
    side accepting."""
    empty = frozenset()
    seen = {start}
    todo = [start]
    while todo:
        sa, sb = todo.pop()
        if a.is_accepting(sa) != b.is_accepting(sb):
            return False
        succ_a = a.successors(sa) if sa else {}
        succ_b = b.successors(sb) if sb else {}
        for letter in {**succ_a, **succ_b}:
            pair = (succ_a.get(letter, empty), succ_b.get(letter, empty))
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


# A fork whose left branch assigns the local that a decision on the right
# branch reads, from an input or a literal: the two race.
RACING_FORK = """
activity R {
  input p: bool; input q: {lo, hi}; local x: bool; local y: {lo, hi} = hi;
  fork f; join j; decision d; merge m;
  action w / x := p, y := q; action v / x := true; action r; action yes; action no; action z;
  start -> f; f -> w; f -> r; w -> v; v -> j; r -> d;
  d -[x || y == lo]-> yes; d -[!x]-> no; yes -> m; no -> m; m -> j; j -> z; z -> end;
}
"""


def test_shared_tables_keep_each_valuations_language(adv):
    rng = random.Random(1313)
    diagrams = [ad for _ in range(100) for ad in generators.random_ad_pair(rng, max_len=8)]
    diagrams += adv
    diagrams += [parse_ad(generators.decision_chain_text(n, True)) for n in (1, 2, 3, 4)]
    diagrams.append(parse_ad(RACING_FORK))
    compared = shared = 0
    for ad in diagrams:
        table = ConfigTable(ad)
        for v in input_valuations(ad.input_vars(), ()):
            explored = len(table.configs)
            initial = table.start(v)
            nfa = build_config_nfa(ad, v)
            shared += len(table.configs) - explored < nfa.n_states
            runner = NfaRunner(nfa)
            assert same_language(table, runner, (initial, runner.initial)), (print_ad(ad), v)
            compared += 1
    assert compared > len(diagrams) and shared > 0


def check_steps(runner, nfa, states) -> None:
    """``successors`` and ``step`` of ``runner`` from ``states`` against
    ``reference_step``, for every letter of ``nfa`` and one it lacks."""
    succ = runner.successors(states)
    assert EMPTY not in succ.values()
    for letter in sorted(nfa.alphabet) + ["noSuchAction"]:
        expected = reference_step(nfa, states, letter)
        assert succ.get(letter, EMPTY) == expected, (states, letter)
        assert runner.step(states, letter) == expected, (states, letter)


def test_subset_steps_agree_with_the_memo_free_reference():
    rng = random.Random(3131)
    subsets = united = 0
    for _ in range(30):
        for ad in generators.random_ad_pair(rng, max_len=6):
            table = ConfigTable(ad)
            starts = {table.start(v) for v in input_valuations(ad.input_vars(), ())}
            nfa = Nfa(len(table.rows), ad.action_names(), tuple(
                (src, label, dst) for src, row in enumerate(table.rows) for label, dst in row),
                0, frozenset(table.accepting))
            seen, todo = set(starts), list(starts)
            while todo:
                states = todo.pop()
                for letter in nfa.alphabet:
                    nxt = reference_step(nfa, states, letter)
                    if nxt and nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            # The subsets reading leads to, and the union of each with the
            # next, where states of several valuations read the same letter.
            walked = sorted(seen, key=sorted)
            walked += [x | y for x, y in zip(walked, walked[1:])]
            for states in walked:
                check_steps(NfaRunner(nfa), nfa, states)  # only the initial closure kept
                check_steps(table, nfa, states)  # closures kept from earlier steps
                for letter in nfa.alphabet:
                    parts = {reference_step(nfa, {s}, letter) for s in states} - {EMPTY}
                    united += len(parts) > 1 and reference_step(nfa, states, letter) not in parts
            subsets += len(walked)
    assert subsets > 500 and united > 20


def test_a_letter_read_by_two_states_unites_their_targets_closures():
    # States 1 and 2 both read a, to 3 and to 4 (2 to 3 as well), whose
    # closures share 5 and 6; b leads back.
    nfa = Nfa(9, frozenset("ab"), (
        (0, EPSILON, 1), (0, EPSILON, 2), (1, "a", 3), (2, "a", 4), (2, "a", 3),
        (3, EPSILON, 5), (4, EPSILON, 5), (5, EPSILON, 6), (3, EPSILON, 7), (4, EPSILON, 8),
        (6, "b", 0),
    ), 0, frozenset({8}))
    runner = NfaRunner(nfa)
    assert runner.initial == {0, 1, 2}
    after_a = frozenset({3, 4, 5, 6, 7, 8})
    assert runner.successors(runner.initial) == {"a": after_a}
    assert runner.successors(after_a) == {"b": runner.initial}
    # One target's letter gets that target's kept closure itself.
    assert runner.successors(frozenset({1}))["a"] is runner.closure(3)
    assert runner.accepts("a", runner.initial) and not runner.accepts("ab", runner.initial)
    for states in (runner.initial, after_a, frozenset({1}), frozenset({2}), EMPTY):
        check_steps(NfaRunner(nfa), nfa, states)
        check_steps(runner, nfa, states)


def test_the_racing_fork_projects_a_variable_only_once_no_branch_reads_it():
    ad = parse_ad(RACING_FORK)
    table = ConfigTable(ad)
    for v in input_valuations(ad.input_vars(), ()):
        table.start(v)
    var_names, edge_live = table.var_names, table.edge_live
    assert var_names == ("p", "q", "x", "y")
    # A configuration keeps a value exactly where a marked edge may read it.
    for marking, state in table.configs:
        live = 0
        for i in range(len(ad.edges)):
            if marking >> i & 1:
                live |= edge_live[i]
        assert [value is not None for value in state] == [bool(live >> i & 1) for i in range(4)]
    states = {state for _, state in table.configs}
    # Before w fires, its sources and the guard's x and y are all live.
    assert ("true", "lo", "false", "hi") in states
    # Once both branches are past their reads and writes, nothing is.
    assert (None, None, None, None) in states


def test_a_nested_guard_makes_its_three_variables_live_before_the_decision():
    ad = parse_ad("""activity N {
  input p: bool; local q: bool; input u: bool; input x: {lo, hi}; local z: bool = true;
  action a; action b; decision d;
  start -> d;
  d -[!(x == hi && (p || !(q))) || !!(p && x != lo)]-> a;
  d -[true]-> b;
  a -> end; b -> end;
}
""")
    guard = next(e.guard for e in ad.edges if e.dst == "a")
    assert guard_variables(guard) == {"p", "q", "x"}
    var_names, edge_live = ad.table.var_names, ad.table.edge_live
    assert var_names == ("p", "q", "u", "x", "z")
    # Only the token entering the decision reads; slots p, q and x.
    assert edge_live == tuple(0b01011 if e.dst == "d" else 0 for e in ad.edges)


def test_liveness_reaches_back_along_a_long_chain_quickly():
    # A guard at the end of 5000 actions keeps its variable live on every
    # edge before it. Revisiting every edge until nothing changes would take
    # one pass per action, several seconds here.
    n = 5000
    lines = ["activity L { local x: bool; decision d; action y; action z; start -> a0;"]
    lines += [f"action a{i}; a{i} -> {f'a{i + 1}' if i + 1 < n else 'd'};" for i in range(n)]
    lines.append("d -[x]-> y; d -[!x]-> z; y -> end; z -> end; }")
    ad = parse_ad("\n".join(lines))
    started = time.monotonic()
    edge_live = ad.table.edge_live
    assert time.monotonic() - started < 2.0
    guarded = {i for i, e in enumerate(ad.edges) if e.dst == "d" or e.dst.startswith("a")}
    assert len(guarded) == n + 1
    assert all(edge_live[i] == 1 for i in guarded)
    assert all(edge_live[i] == 0 for i in range(len(ad.edges)) if i not in guarded)


def test_a_diagram_with_many_variables_starts_quickly():
    # Each start finds every declared variable's slot in a map; searching
    # the sorted names for each one took about 7 s on a 2-core machine.
    n = 20000
    text = " ".join(f"local v{i}: bool;" for i in range(n))
    ad = parse_ad(f"activity V {{ {text} action a; start -> a; a -> end; }}")
    started = time.monotonic()
    assert str(compare_ad(ad, ad)) == "EQUIVALENT"
    assert time.monotonic() - started < 2.0


class ReadCountingList(list):
    """A list that counts the items read from it, by index or by iteration."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        i = 0
        while i < len(self):  # sees the items appended while it runs
            self.reads += 1
            yield super().__getitem__(i)
            i += 1


def test_each_start_reads_only_the_configurations_it_fires():
    # Stepping over the table's configurations to reach the new ones made
    # every start pay for the whole table: the 13-input chain's self-compare
    # took 4.7 s instead of 1.1 s on a 2-core machine.
    ad = parse_ad(generators.decision_chain_text(6))
    table = ConfigTable(ad)
    table.configs = ReadCountingList()
    for v in input_valuations(ad.input_vars(), ()):
        reads, fired = table.configs.reads, len(table.rows)
        table.start(v)
        assert table.configs.reads - reads == len(table.rows) - fired
    assert len(table.rows) == len(table.configs) > 64


def test_unsafe_marking_errors_read_the_same_through_every_entry():
    x, y = generators.unsafe_when_p("X", ["x1", "z"]), generators.unsafe_when_p("Y", ["z"])
    texts = {}
    for name, ad in (("X", x), ("Y", y)):
        with pytest.raises(UnsafeMarkingError) as err:
            build_config_nfa(ad, {"p": "true"})
        texts[name] = str(err.value)
    assert texts["Y"] == ("firing 'mY' would mark the edge mY -> c twice in configuration"
                          " <edges [7, 8]; p=true>")
    for search, left, right, reported in ((addiff, x, y, "X"), (addiff, y, x, "Y"),
                                          (compare_ad, x, y, "Y"), (compare_ad, y, x, "Y")):
        with pytest.raises(UnsafeMarkingError) as err:
            search(left, right)
        assert str(err.value) == texts[reported]


def test_an_unsafe_start_shows_only_the_unprojected_error():
    # The table meets the unsafe firing in a projected configuration, p=None
    # here. The error raised is the unprojected replay's, and a traceback
    # shows that one alone, not the projected one as its context.
    y, x = generators.unsafe_when_p("Y", ["z"]), generators.unsafe_when_p("X", ["x1", "z"])
    with pytest.raises(UnsafeMarkingError) as err:
        addiff(y, x, 1)
    assert str(err.value) == ("firing 'mY' would mark the edge mY -> c twice in configuration"
                              " <edges [7, 8]; p=true>")
    assert err.value.__context__ is None and err.value.__cause__ is None
    text = "".join(traceback.format_exception(err.value))
    assert text.count("Traceback (most recent call last)") == 1 and "p=None" not in text


def test_missing_inputs_name_the_first_declared_one():
    ad = parse_ad(
        "activity M { input zeta: bool; input alpha: bool; decision d; action x;"
        " action y; start -> d; d -[zeta && alpha]-> x; d -[!zeta || !alpha]-> y;"
        " x -> end; y -> end; }"
    )
    for build in (build_config_nfa, reference_build_config_nfa):
        with pytest.raises(ValueError, match="missing input variable 'zeta'$"):
            build(ad, {})


def test_addiff_compiles_each_diagram_once(monkeypatch):
    compiled = []
    real = ConfigTable.__init__

    def counting(table, ad):
        compiled.append(id(ad))
        real(table, ad)

    monkeypatch.setattr(ConfigTable, "__init__", counting)
    text = generators.decision_chain_text(8)
    a, b = parse_ad(text), parse_ad(text)
    assert len(list(input_valuations(a.input_vars(), b.input_vars()))) == 256
    assert addiff(a, b).witnesses == []
    assert sorted(compiled) == sorted([id(a), id(b)])
    addiff(a, b)
    addiff(b, a)
    assert len(compiled) == 2


def test_accepts_membership(adv):
    ad = adv[0]
    yes = Trace.make({"isInternal": "true"}, INTERNAL_HIRE)
    assert accepts(ad, yes)
    assert not accepts(ad, Trace.make({"isInternal": "false"}, INTERNAL_HIRE))
    # A proper prefix of a run is not itself a run.
    assert not accepts(ad, Trace.make({"isInternal": "true"}, INTERNAL_HIRE[:-1]))
    assert not accepts(ad, Trace.make({"isInternal": "true"}, INTERNAL_HIRE + ("extra",)))


def test_accepts_ignores_extra_inputs(adv):
    trace = Trace.make({"isInternal": "false", "unrelated": "x"},
                       ("register", "assignExternalProject", "authorizePayments"))
    assert accepts(adv[0], trace)


def test_accepts_requires_all_inputs(adv):
    with pytest.raises(ValueError, match="missing input variable 'isInternal'"):
        accepts(adv[0], Trace.make({}, ("register",)))


def test_valuation_value_must_be_in_domain(adv):
    with pytest.raises(ValueError, match="outside the domain"):
        build_config_nfa(adv[0], {"isInternal": "maybe"})


def test_input_valuations_ordering():
    a = parse_ad(
        "activity A { input p: bool; decision d; action x; action y; action w;"
        " start -> w; w -> d; d -[p]-> x; d -[!p]-> y; x -> end; y -> end; }"
    )
    b = parse_ad(
        "activity B { input m: {red, green}; input p: bool; decision d;"
        " action x; action y; action w;"
        " start -> w; w -> d; d -[m == red && p]-> x; d -[m != red || !p]-> y;"
        " x -> end; y -> end; }"
    )
    vals = list(input_valuations(a.input_vars(), b.input_vars()))
    assert vals == [
        {"m": "red", "p": "false"},
        {"m": "red", "p": "true"},
        {"m": "green", "p": "false"},
        {"m": "green", "p": "true"},
    ]
    # The union signature is symmetric.
    assert list(input_valuations(b.input_vars(), a.input_vars())) == vals


def test_input_valuations_empty_signature():
    assert list(input_valuations((), ())) == [{}]


def test_shared_input_domains_must_agree():
    a = parse_ad(
        "activity A { input p: bool; decision d; action x; action y; action w;"
        " start -> w; w -> d; d -[p]-> x; d -[!p]-> y; x -> end; y -> end; }"
    )
    b = parse_ad(
        "activity B { input p: {on, off}; decision d; action x; action y; action w;"
        " start -> w; w -> d; d -[p == on]-> x; d -[p != on]-> y; x -> end; y -> end; }"
    )
    with pytest.raises(DomainMismatchError, match="input 'p'"):
        input_valuations(a.input_vars(), b.input_vars())


def test_input_valuations_take_only_input_declarations():
    ad = parse_ad("activity A { local v: bool; action a; start -> a; a -> end; }")
    with pytest.raises(ValueError, match="'v' is not an input variable"):
        input_valuations(ad.variables, ())


def test_enumeration_is_deterministic(adv):
    first = engine_traces(adv[1], {"isInternal": "true"}, 10)
    second = engine_traces(adv[1], {"isInternal": "true"}, 10)
    assert first == second and len(first) > 1


def test_a_compiled_diagram_still_pickles(adv):
    ad, other = parse_ad(print_ad(adv[1])), parse_ad(print_ad(adv[2]))
    before = pickle.dumps(ad)
    build_config_nfa(ad, {"isInternal": "true"})
    forward, backward = addiff(ad, other), addiff(other, ad)
    assert "table" in vars(ad) and ad.table.configs
    copy = pickle.loads(pickle.dumps(ad))
    assert pickle.dumps(ad) == before
    assert copy == ad and "table" not in vars(copy)
    assert build_config_nfa(copy, {"isInternal": "true"}) == build_config_nfa(ad, {"isInternal": "true"})
    assert (addiff(copy, other), addiff(other, copy)) == (forward, backward)
    assert compare_ad(copy, other) == compare_ad(ad, other)
