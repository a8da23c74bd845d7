"""Every model example in README.md must be accepted by its parser."""

import pytest

from semdiff.ad_lang import parse_ad
from semdiff.cd_lang import parse_cd
from semdiff.cd_semantics import is_instance, parse_om

from helpers import model_blocks

PARSERS = {"classdiagram": parse_cd, "activity": parse_ad, "objectmodel": parse_om}


def test_readme_shows_every_model_language():
    assert sorted(kind for kind, _ in model_blocks()) == sorted(PARSERS)


@pytest.mark.parametrize("kind, text", model_blocks(), ids=[kind for kind, _ in model_blocks()])
def test_readme_model_block_parses(kind, text):
    PARSERS[kind](text)


def test_readme_object_model_instantiates_the_class_diagram():
    models = dict(model_blocks())
    ok, violations = is_instance(parse_om(models["objectmodel"]), parse_cd(models["classdiagram"]))
    assert ok, violations
