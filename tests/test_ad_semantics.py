import pickle
import random

import pytest

import generators
from helpers import reference_build_config_nfa
from oracles import reference_words
from semdiff import ad_semantics
from semdiff.ad_diff import addiff
from semdiff.ad_lang import parse_ad, print_ad
from semdiff.ad_semantics import (
    DomainMismatchError,
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
    real = ad_semantics.compile_ad

    def counting(ad):
        compiled.append(id(ad))
        return real(ad)

    monkeypatch.setattr(ad_semantics, "compile_ad", counting)
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


def test_enumeration_is_deterministic(adv):
    first = engine_traces(adv[1], {"isInternal": "true"}, 10)
    second = engine_traces(adv[1], {"isInternal": "true"}, 10)
    assert first == second and len(first) > 1


def test_a_compiled_diagram_still_pickles(adv):
    ad = parse_ad(print_ad(adv[1]))
    before = pickle.dumps(ad)
    build_config_nfa(ad, {"isInternal": "true"})
    copy = pickle.loads(pickle.dumps(ad))
    assert pickle.dumps(ad) == before
    assert copy == ad and "compiled" not in vars(copy)
    assert build_config_nfa(copy, {"isInternal": "true"}) == build_config_nfa(ad, {"isInternal": "true"})
