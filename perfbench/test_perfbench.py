"""The benchmark's own test: ``python3 -m pytest perfbench/test_perfbench.py``
from the root of a checkout.

Each workload runs at its smallest sizes; every answer must pass its check
except the known A/A1 fault, and the checks must reject corrupted answers.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", params=sorted(workloads.BUILDERS))
def measured(request):
    wl = workloads.build(request.param, 7, ROOT / "tests" / "fixtures", small=True)
    _, result, crossed = run.measure_workload(wl, ROOT, 0, False)
    return wl, result, crossed


def rejected(wl, result, crossed, qid, corrupt):
    bad = copy.deepcopy(result)
    corrupt(bad["outputs"][qid])
    failed, _ = run.judge(wl, bad, crossed)
    return qid in failed


def test_small_workloads_pass_except_the_known_fault(measured):
    wl, result, crossed = measured
    failed, unexpected = run.judge(wl, result, crossed)
    assert unexpected == []
    assert failed == {q.qid for q in wl.queries if q.known_fault}
    assert all(n == 0 for n in result["mismatches"].values())
    assert set(crossed) == {q.qid for q in wl.queries if not q.heavy}


def diff_with(wl, result, lang, at_least):
    """A library or JSON diff query with at least ``at_least`` witnesses."""
    for q in wl.queries:
        if q.kind != "diff" or q.known_fault:
            continue
        out = result["outputs"][q.qid]
        if "witnesses" in out and len(out["witnesses"]) >= at_least and (q.op[0] == "cddiff") == (lang == "cd"):
            return q.qid, None
        if q.expect.get("format") == "json" and q.op[1] == lang and out["code"] == 1:
            if len(json.loads(out["out"])["witnesses"]) >= at_least:
                return q.qid, "json"
    pytest.skip(f"no {lang} diff with {at_least} witnesses in this workload")


def edit_witnesses(out, how, fmt):
    if fmt is None:
        how(out["witnesses"])
    else:
        doc = json.loads(out["out"])
        how(doc["witnesses"])
        out["out"] = json.dumps(doc)


@pytest.mark.parametrize("lang", ["cd", "ad"])
@pytest.mark.parametrize("damage", ["drop", "duplicate", "swap"])
def test_corrupted_witness_lists_are_rejected(measured, lang, damage):
    wl, result, crossed = measured
    qid, fmt = diff_with(wl, result, lang, 2)
    how = {
        "drop": lambda ws: ws.pop(len(ws) // 2),
        "duplicate": lambda ws: ws.append(ws[0]),
        "swap": lambda ws: ws.insert(0, ws.pop(1)),
    }[damage]
    assert rejected(wl, result, crossed, qid, lambda out: edit_witnesses(out, how, fmt))


def test_wrong_verdicts_are_rejected(measured):
    wl, result, crossed = measured
    for q in wl.queries:
        if q.kind != "verdict":
            continue
        out = result["outputs"][q.qid]
        if "verdict" in out:
            flip = "INCOMPARABLE" if out["verdict"] != "INCOMPARABLE" else "EQUIVALENT"
            assert rejected(wl, result, crossed, q.qid, lambda o: o.update(verdict=flip))
        elif q.op[1] in ("cd", "ad"):
            assert rejected(wl, result, crossed, q.qid, lambda o: o.update(out="EQUIVALENT\n"))
        else:  # a history table: change the last row's verdict
            def wrong_row(o):
                if q.expect["format"] == "json":
                    doc = json.loads(o["out"])
                    doc["rows"][-1]["verdict"] = "INCOMPARABLE" if doc["rows"][-1]["verdict"] != "INCOMPARABLE" \
                        else "EQUIVALENT"
                    o["out"] = json.dumps(doc)
                else:
                    lines = o["out"].rstrip("\n").split("\n")
                    row = lines[-1].split()
                    row[2] = "INCOMPARABLE" if row[2] != "INCOMPARABLE" else "EQUIVALENT"
                    o["out"] = "\n".join(lines[:-1] + ["  ".join(row)]) + "\n"
            assert rejected(wl, result, crossed, q.qid, wrong_row)


def test_a_false_exhausted_claim_is_rejected(measured):
    wl, result, crossed = measured
    for q in wl.queries:
        out = result["outputs"][q.qid]
        if q.kind == "diff" and not out.get("exhausted", True):
            assert rejected(wl, result, crossed, q.qid, lambda o: o.update(exhausted=True))
            return
    pytest.skip("no library diff cut at its budget in this workload")


def test_a_hash_seed_difference_is_rejected(measured):
    wl, result, crossed = measured
    qid = next(iter(crossed))
    other = dict(crossed, **{qid: {"error": "different"}})
    failed, _ = run.judge(wl, result, other)
    assert qid in failed


def test_oracle_closed_forms_agree_with_enumeration():
    rng = random.Random(3)
    (a, b), info = workloads.fork_pair(rng, 4)
    full = oracle.ad_diff_full(oracle.parse_ad(a), oracle.parse_ad(b))
    assert full == workloads.fork_witnesses(info, 10 ** 6)
    assert len(full) == 12  # 4!/2
    spec = workloads.chain_spec(rng, 3)
    plain = workloads.chain_text(spec, False, rng)
    swapped = workloads.chain_text(spec, True, rng)
    assert oracle.ad_diff_full(oracle.parse_ad(plain), oracle.parse_ad(swapped)) == workloads.chain_witnesses(spec)

