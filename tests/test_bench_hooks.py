"""The benchmark's tracer (``perfbench/tracing.py``) finds the functions it
wraps by name, so deleting or renaming one of them breaks
``perfbench/run.py --trace 1``. Build the tracer here so that such a change
fails the tests instead."""

from pathlib import Path

import semdiff
from semdiff import ad_diff, ad_semantics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_hook_and_counts_through_them(monkeypatch, adv):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (ad_diff.build_config_nfa, ad_semantics.NfaRunner.step, semdiff.addiff)
    tracer = tracing.Tracer()
    tracer.reset()
    tracer.install()
    try:
        semdiff.addiff(adv[1], adv[2])
        semdiff.compare_ad(adv[2], adv[3])
    finally:
        tracer.uninstall()
    values = tracer.finish()
    # addiff builds both diagrams for each of the two valuations; compare_ad
    # finds both directions differing in the first valuation.
    assert values["ad_semantics.config_nfas"] == 6
    assert values["ad_diff.addiff_ms"] > 0
    assert values["ad_semantics.subset_steps"] > 0
    assert (ad_diff.build_config_nfa, ad_semantics.NfaRunner.step, semdiff.addiff) == originals
