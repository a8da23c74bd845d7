"""Diagrams are freed once the caller drops them: every table derived from a
diagram lives on the instance, and no module keeps a cache keyed by one."""

import gc
import tracemalloc
import weakref

from semdiff.ad_diff import addiff, compare_ad
from semdiff.ad_lang import parse_ad
from semdiff.cd_diff import cddiff, compare_cd
from semdiff.cd_lang import parse_cd
from semdiff.cd_semantics import is_instance

from conftest import fixture_text


# Texts no other test parses: a cache keyed by an equal diagram built
# earlier would keep that one alive instead of these.
RETAINED_V1 = """classdiagram retained {
  class Account;
  class Savings extends Account;
  association owns [*] Account -- Account [*];
}"""
RETAINED_V2 = RETAINED_V1.replace("Account [*];", "Account [0..1];")


def test_compared_class_diagrams_are_freed():
    cd1, cd2 = parse_cd(RETAINED_V1), parse_cd(RETAINED_V2)
    result = cddiff(cd1, cd2)
    assert result.witnesses
    assert is_instance(result.witnesses[0], cd1)[0]
    assert not is_instance(result.witnesses[0], cd2)[0]
    compare_cd(cd1, cd2)
    # The self-check built each diagram's membership table, kept on the diagram.
    assert "membership" in vars(cd1) and "membership" in vars(cd2)
    refs = [weakref.ref(cd1), weakref.ref(cd2)]
    del cd1, cd2
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert result.witnesses  # the answer outlives the diagrams


def test_compared_activity_diagrams_are_freed():
    ad1, ad2 = parse_ad(fixture_text("adv1.ad")), parse_ad(fixture_text("adv2.ad"))
    result = addiff(ad1, ad2)
    assert result.witnesses
    compare_ad(ad1, ad2)
    # Both calls explored each diagram's configurations into one table, kept
    # on the diagram.
    assert "table" in vars(ad1) and "table" in vars(ad2)
    refs = [weakref.ref(x) for x in (ad1, ad2, ad1.table, ad2.table)]
    # The table holds the diagram's tuples, not the diagram, so the two form
    # no cycle: dropping the diagrams frees them and their tables with the
    # collector off.
    enabled = gc.isenabled()
    gc.disable()
    try:
        del ad1, ad2
        assert [ref() for ref in refs] == [None] * 4
    finally:
        if enabled:
            gc.enable()
    assert result.witnesses


def test_memory_stays_flat_over_many_compared_activity_diagrams():
    # Each round parses two diagrams no earlier round parsed, diffs them both
    # ways and drops them. Whatever a round leaves behind adds up over the
    # rounds; one live pair with its tables takes more than the allowed growth.
    def round_(i):
        ad1, ad2 = (parse_ad(fixture_text(name).replace("activity hire", f"activity hire{i}"))
                    for name in ("adv1.ad", "adv2.ad"))
        addiff(ad1, ad2)
        addiff(ad2, ad1)
        compare_ad(ad1, ad2)
        return ad1, ad2

    tracemalloc.start()
    try:
        for i in range(10):  # warm-up: first-use caches of the interpreter
            round_(i)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        kept = round_(10_000)
        one_pair = tracemalloc.get_traced_memory()[0] - before
        del kept
        for i in range(10, 110):
            round_(i)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert one_pair > 20_000 and growth < one_pair / 2, (one_pair, growth)
