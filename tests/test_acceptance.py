"""End-to-end acceptance checks for the differencing pipeline.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per check. The oracle-based checks regenerate their random models from
fixed seeds, so failures reproduce exactly.
"""

import random
import subprocess
import sys
import time

from hypothesis import given, settings, strategies as st

from semdiff import cd_diff, cd_semantics
from semdiff.ad_diff import addiff, compare_ad
from semdiff.ad_lang import parse_ad, print_ad
from semdiff.ad_semantics import ConfigTable, Trace, accepts, input_valuations
from semdiff.cd_diff import cddiff, compare_cd
from semdiff.cd_lang import parse_cd, print_cd
from semdiff.cd_semantics import is_instance, print_om
from semdiff.cli import run
from semdiff.verdict import Verdict

import generators
import oracles
from conftest import fixture_path, fixture_text
from helpers import reference_is_instance

UNBOUNDED = 10**9


def fx(name):
    return str(fixture_path(name))


def test_multiplicity_tightening_yields_witnesses_both_ways(cd1v1, cd1v2):
    started = time.monotonic()
    forward = cddiff(cd1v1, cd1v2, 3)
    backward = cddiff(cd1v2, cd1v1, 3)
    elapsed = time.monotonic() - started

    assert forward.witnesses, "tightened multiplicity should exclude old instances"
    smallest = forward.witnesses[0]
    employees = [oid for oid, cls in smallest.objects.items() if cls == "Employee"]
    assert any(
        sum(1 for (assoc, src, _) in smallest.links if assoc == "worksOn" and src == e) == 3
        for e in employees
    ), "smallest forward witness should overload one employee with three tasks"

    assert backward.witnesses, "new subclass should admit instances the old diagram rejects"
    assert any(
        any(cls == "Manager" for cls in w.objects.values())
        and any(
            w.objects.get(src) == "Manager" or w.objects.get(dst) == "Manager"
            for (assoc, src, dst) in w.links
            if assoc == "worksOn"
        )
        and not is_instance(w, cd1v1)[0]
        for w in backward.witnesses
    ), "some backward witness should link a manager in a way the old diagram rejects"

    assert elapsed < 5.0


def test_hierarchy_flattening_is_bounded_equivalent(cd5v1, cd5v2):
    for k in (3, 4):
        started = time.monotonic()
        forward = cddiff(cd5v1, cd5v2, k, max_witnesses=UNBOUNDED)
        backward = cddiff(cd5v2, cd5v1, k, max_witnesses=UNBOUNDED)
        elapsed = time.monotonic() - started
        assert forward.witnesses == [] and forward.exhausted
        assert backward.witnesses == [] and backward.exhausted
        assert elapsed < 60.0
    verdict = compare_cd(cd5v1, cd5v2, 3)
    assert str(verdict) == "EQUIVALENT" and verdict.bounded


def test_workflow_versions_compare_and_witness_as_expected(adv):
    v1, v2, v3, v4 = adv
    started = time.monotonic()

    assert str(compare_ad(v1, v2)) == "INCOMPARABLE"
    assert str(compare_ad(v3, v2)) == "LEFT_REFINES_RIGHT"

    sequenced = addiff(v2, v3)
    assert sequenced.exhausted and sequenced.witnesses
    assert any(
        t.actions.index("assignToProject") < t.actions.index("getKeyCard")
        for t in sequenced.witnesses
    ), "some lost interleaving should hand out the project before the key card"

    moved = addiff(v3, v4)
    assert len(moved.witnesses) == 1 and moved.exhausted
    assert moved.witnesses[0].inputs_dict() == {"isInternal": "false"}

    assert time.monotonic() - started < 5.0


def reference_model_diff(models, cd1, cd2):
    return [om for om in models
            if reference_is_instance(om, cd1)[0] and not reference_is_instance(om, cd2)[0]]


def cd_matches_oracle(cd1, cd2, k):
    models = oracles.reference_object_models(oracles.vocabulary_of(cd1, cd2), k)
    result = cddiff(cd1, cd2, k, max_witnesses=UNBOUNDED)
    return result.witnesses == reference_model_diff(models, cd1, cd2) and result.exhausted


def test_class_diagram_search_matches_reference_enumeration():
    rng = random.Random(1203)
    mismatches = 0
    for _ in range(200):
        k = rng.choice((1, 1, 2))
        cd1, cd2 = generators.random_cd_pair(rng, k)
        if not cd_matches_oracle(cd1, cd2, k):
            mismatches += 1
    assert mismatches == 0


def reference_trace_diff(ad1, ad2, max_len):
    witnesses = []
    for valuation in input_valuations(ad1.input_vars(), ad2.input_vars()):
        ours = oracles.reference_traces(ad1, valuation, max_len)
        theirs = set(oracles.reference_traces(ad2, valuation, max_len))
        raw = {w for w in ours if w not in theirs}
        minimal = [
            w for w in ours
            if w in raw and not any(w[:i] in raw for i in range(len(w)))
        ]
        witnesses.extend(Trace.make(valuation, w) for w in minimal)
    return witnesses


def ad_matches_oracle(ad1, ad2, max_len):
    expected = reference_trace_diff(ad1, ad2, max_len)
    result = addiff(ad1, ad2, max_witnesses=UNBOUNDED, max_len=max_len)
    return result.witnesses == expected


def test_activity_diagram_search_matches_reference_enumeration():
    rng = random.Random(77)
    mismatches = 0
    for _ in range(200):
        ad1, ad2 = generators.random_ad_pair(rng, max_len=12)
        if not ad_matches_oracle(ad1, ad2, 12):
            mismatches += 1
    assert mismatches == 0


def oracle_confirms_first_witness(ad1, ad2):
    """Whether ``addiff`` finds a witness that the oracle's traces of its
    length confirm: ``ad1`` can run it and ``ad2`` cannot."""
    for w in addiff(ad1, ad2, max_witnesses=1).witnesses:
        v, n = w.inputs_dict(), len(w.actions)
        return (w.actions in oracles.reference_traces(ad1, v, n)
                and w.actions not in oracles.reference_traces(ad2, v, n))
    return False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_both_engines_match_the_oracles_on_drawn_seeds(seed):
    # The two fixed sweeps above on seeds that Hypothesis draws, both
    # directions of each pair, and the verdicts that compare_* derive.
    rng = random.Random(seed)
    k = rng.choice((1, 1, 2))
    cd1, cd2 = generators.random_cd_pair(rng, k)
    models = oracles.reference_object_models(oracles.vocabulary_of(cd1, cd2), k)
    differs = []
    for x, y in ((cd1, cd2), (cd2, cd1)):
        expected = reference_model_diff(models, x, y)
        result = cddiff(x, y, k, max_witnesses=UNBOUNDED)
        assert result.witnesses == expected and result.exhausted
        differs.append(bool(expected))
    assert compare_cd(cd1, cd2, k) == Verdict.of(*differs, bounded=True)

    ad1, ad2 = generators.random_ad_pair(rng, max_len=12)
    differs = []
    for x, y in ((ad1, ad2), (ad2, ad1)):
        expected = reference_trace_diff(x, y, 12)
        assert addiff(x, y, max_witnesses=UNBOUNDED, max_len=12).witnesses == expected
        # A difference may first show beyond 12 actions; addiff's shortest
        # witness then stands for it, confirmed by the oracle.
        differs.append(bool(expected) or oracle_confirms_first_witness(x, y))
    assert compare_ad(ad1, ad2) == Verdict.of(*differs, bounded=False)


def test_cd_oracle_catches_colliding_object_ids(monkeypatch):
    # With plain lowercased stems, the eleventh object of A and the first of
    # A1 are both a11. The oracle labels objects itself, so it must notice.
    plain = parse_cd("classdiagram ids { class A; class A1; }")
    single = parse_cd("classdiagram ids { class A; singleton class A1; }")
    assert cd_matches_oracle(plain, single, 11)
    for module in (cd_semantics, cd_diff):
        monkeypatch.setattr(module, "object_id_prefixes", lambda classes: {c: c.lower() for c in classes})
    assert not cd_matches_oracle(plain, single, 11)


def test_ad_oracle_catches_a_dropped_transition(monkeypatch, adv):
    # The oracle builds its config NFAs with the reference builder, so a
    # firing loop that loses a transition must change some fixture pair's
    # diff. The loop fills the search's configuration tables and
    # build_config_nfa alike. Each diagram keeps its table, so the lossy
    # loop runs on diagrams parsed after it is in place.
    assert all(ad_matches_oracle(a, b, 12) for a in adv for b in adv)
    play = ConfigTable.play

    def lossy(table, configs, index, rows, *rest):
        first = len(rows)
        play(table, configs, index, rows, *rest)
        fired = [row for row in rows[first:] if row]
        fired[-1].pop()

    monkeypatch.setattr(ConfigTable, "play", lossy)
    fresh = [parse_ad(print_ad(ad)) for ad in adv]
    assert not all(ad_matches_oracle(a, b, 12) for a in fresh for b in fresh)


def test_diff_identities_hold_across_random_models():
    rng = random.Random(4242)
    checks = 0

    for _ in range(170):
        k = rng.choice((1, 1, 2))
        cd1, cd2 = generators.random_cd_pair(rng, k)
        for cd in (cd1, cd2):
            identity = cddiff(cd, cd, k, max_witnesses=UNBOUNDED)
            assert identity.witnesses == [] and identity.exhausted
            checks += 1
        forward = cddiff(cd1, cd2, k)
        backward = cddiff(cd2, cd1, k)
        for w in forward.witnesses:
            assert is_instance(w, cd1)[0] and not is_instance(w, cd2)[0]
            checks += 1
        for w in backward.witnesses:
            assert is_instance(w, cd2)[0] and not is_instance(w, cd1)[0]
            checks += 1
        assert not (
            {print_om(w) for w in forward.witnesses}
            & {print_om(w) for w in backward.witnesses}
        )
        checks += 1

    for _ in range(170):
        ad1, ad2 = generators.random_ad_pair(rng, max_len=10)
        for ad in (ad1, ad2):
            identity = addiff(ad, ad, max_len=10)
            assert identity.witnesses == []
            checks += 1
        forward = addiff(ad1, ad2, max_len=10)
        backward = addiff(ad2, ad1, max_len=10)
        for t in forward.witnesses:
            assert accepts(ad1, t) and not accepts(ad2, t)
            checks += 1
        for t in backward.witnesses:
            assert accepts(ad2, t) and not accepts(ad1, t)
            checks += 1
        assert not (set(forward.witnesses) & set(backward.witnesses))
        checks += 1

    assert checks >= 1000


def test_commands_are_deterministic_and_parsers_round_trip(tmp_path):
    trace_file = tmp_path / "w.trace"
    trace_file.write_text(
        "inputs: isInternal=false\n"
        "  1. register\n  2. assignExternalProject\n  3. authorizePayments\n"
    )
    commands = [
        ["cd", "diff", fx("cd1v1.cd"), fx("cd1v2.cd"), "--format", "json"],
        ["cd", "diff", fx("cd1v2.cd"), fx("cd1v1.cd"), "--format", "dot"],
        ["cd", "compare", fx("cd5v1.cd"), fx("cd5v2.cd")],
        ["ad", "diff", fx("adv2.ad"), fx("adv3.ad")],
        ["ad", "diff", fx("adv3.ad"), fx("adv4.ad"), "--format", "json"],
        ["history", "ad", fx("adv1.ad"), fx("adv2.ad"), fx("adv3.ad"), fx("adv4.ad")],
        ["render", "trace", fx("adv1.ad"), str(trace_file), "--format", "dot"],
    ]
    for argv in commands:
        first = subprocess.run(
            [sys.executable, "-m", "semdiff", *argv], capture_output=True
        )
        second = subprocess.run(
            [sys.executable, "-m", "semdiff", *argv], capture_output=True
        )
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
        assert first.returncode == second.returncode

    for name in ("cd1v1.cd", "cd1v2.cd", "cd5v1.cd", "cd5v2.cd"):
        cd = parse_cd(fixture_text(name))
        assert parse_cd(print_cd(cd)) == cd
    for name in ("adv1.ad", "adv2.ad", "adv3.ad", "adv4.ad"):
        ad = parse_ad(fixture_text(name))
        assert parse_ad(print_ad(ad)) == ad


def test_cli_exit_codes_follow_contract(tmp_path):
    om_file = tmp_path / "w.om"
    om_file.write_text("objectmodel w { e1: Employee; }\n")
    expectations = [
        (["cd", "diff", fx("cd5v1.cd"), fx("cd5v2.cd")], 0),
        (["cd", "diff", fx("cd1v1.cd"), fx("cd1v1.cd")], 0),
        (["ad", "diff", fx("adv3.ad"), fx("adv2.ad")], 0),
        (["cd", "compare", fx("cd5v1.cd"), fx("cd5v2.cd")], 0),
        (["ad", "compare", fx("adv4.ad"), fx("adv4.ad")], 0),
        (["render", "om", str(om_file)], 0),
        (["cd", "diff", fx("cd1v1.cd"), fx("cd1v2.cd")], 1),
        (["ad", "diff", fx("adv2.ad"), fx("adv3.ad")], 1),
        (["ad", "compare", fx("adv3.ad"), fx("adv4.ad")], 1),
        (["history", "ad", fx("adv1.ad"), fx("adv2.ad"), fx("adv3.ad"), fx("adv4.ad")], 1),
        (["cd", "diff", "/nonexistent.cd", fx("cd1v1.cd")], 2),
        (["cd", "diff", fx("adv1.ad"), fx("cd1v1.cd")], 2),
        (["ad", "diff", fx("adv1.ad"), fx("adv2.ad"), "--max-len", "-1"], 2),
        (["history", "cd", fx("cd1v1.cd")], 2),
    ]
    for argv, expected in expectations:
        import io

        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out, err) == expected, (argv, err.getvalue())
