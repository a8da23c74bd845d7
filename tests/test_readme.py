"""Every model example in README.md must be accepted by its parser, and
its history table must be what the command prints."""

import io

import pytest

from semdiff.ad_lang import parse_ad
from semdiff.cd_lang import parse_cd
from semdiff.cd_semantics import is_instance, parse_om
from semdiff.cli import run

from conftest import fixture_path
from helpers import model_blocks, readme_blocks

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


def test_readme_history_table_is_the_command_output():
    (table,) = [text for text in readme_blocks() if text.split()[:3] == ["from", "to", "verdict"]]
    out, err = io.StringIO(), io.StringIO()
    code = run(["history", "ad", *(fixture_path(f"adv{n}.ad") for n in (1, 2, 3, 4))], out, err)
    assert (code, out.getvalue(), err.getvalue()) == (1, table, "")
