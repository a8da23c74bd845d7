"""The benchmark's tracer (``perfbench/tracing.py``) finds the functions it
wraps by name, so deleting or renaming one of them breaks
``perfbench/run.py --trace 1``. Build the tracer here so that such a change
fails the tests instead."""

from pathlib import Path

import semdiff
from semdiff import ad_semantics
from semdiff.ad_semantics import Trace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_hook_and_counts_through_them(monkeypatch, adv):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (ad_semantics.build_config_nfa, ad_semantics.NfaRunner.step, semdiff.addiff)
    tracer = tracing.Tracer()
    tracer.reset()
    tracer.install()
    try:
        semdiff.addiff(adv[1], adv[2])
        semdiff.compare_ad(adv[2], adv[3])
        # The searches keep their configurations in tables of their own;
        # membership builds one config NFA per call.
        for value in ("false", "true"):
            semdiff.accepts(adv[1], Trace.make({"isInternal": value}, ("register",)))
    finally:
        tracer.uninstall()
    values = tracer.finish()
    assert values["ad_semantics.config_nfas"] == 2
    assert values["ad_semantics.config_states"] > 0
    assert values["ad_diff.addiff_ms"] > 0
    assert values["ad_semantics.subset_steps"] > 0
    assert (ad_semantics.build_config_nfa, ad_semantics.NfaRunner.step, semdiff.addiff) == originals
