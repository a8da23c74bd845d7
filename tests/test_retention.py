"""Diagrams are freed once the caller drops them: every table derived from a
diagram lives on the instance, and no module keeps a cache keyed by one."""

import gc
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
    refs = [weakref.ref(ad1), weakref.ref(ad2)]
    del ad1, ad2
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert result.witnesses
