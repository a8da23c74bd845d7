"""No input ends in a traceback: mutated model texts either parse or raise
``ParseError``, and the command line answers them with exit code 0, 1 or 2."""

import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from semdiff.ad_lang import parse_ad
from semdiff.cd_lang import parse_cd
from semdiff.cd_semantics import parse_om
from semdiff.cli import run
from semdiff.lexer import ParseError
from semdiff.render import parse_trace

from conftest import FIXTURES, fixture_path
from helpers import model_blocks

OM_TEXT = """\
objectmodel om {
  employee1: Employee;
  task1: Task;
  link worksOn employee1 -- task1;
}
"""
TRACE_TEXT = "inputs: isInternal=true\n  1. register\n  2. getWelcomePackage\n"

CD_FILES = sorted(p.name for p in FIXTURES.glob("*.cd"))
AD_FILES = sorted(p.name for p in FIXTURES.glob("*.ad"))
README = dict(model_blocks())
CD_TEXTS = [(FIXTURES / name).read_text(encoding="utf-8") for name in CD_FILES] + [README["classdiagram"]]
AD_TEXTS = [(FIXTURES / name).read_text(encoding="utf-8") for name in AD_FILES] + [README["activity"]]
ALL_TEXTS = CD_TEXTS + AD_TEXTS + [README["objectmodel"], OM_TEXT, TRACE_TEXT]

# What an edit may splice in, besides a copy of another part of the text.
PIECES = [
    "", " ", "\n", "\t", "//", "²", "٣", "é", "\xa0", "0", "7", "x", "_",
    "{", "}", ";", ":", ",", "*", "!", "=", "/", "[", "]", "(", ")", "..", "--", "->", "-[", "]->",
    ":=", "==", "!=", "&&", "||", "class", "abstract", "singleton", "extends", "association",
    "link", "input", "local", "bool", "action", "decision", "merge", "fork", "join", "start",
    "end", "true", "false", "inputs:", "1.",
]


@st.composite
def mutated(draw, texts):
    """One of ``texts`` with 1 to 4 spans replaced by a piece or by a copy
    of another span."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        if draw(st.booleans()):
            piece = draw(st.sampled_from(PIECES))
        else:
            k = draw(st.integers(0, len(text)))
            piece = text[k:k + draw(st.integers(1, 20))]
        text = text[:i] + piece + text[j:]
    return text


# Byte sequences that are not UTF-8 wherever they are spliced into UTF-8.
NOT_UTF8 = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]


@st.composite
def encoded(draw, texts):
    """A mutated text as UTF-8 bytes; in about one draw in four, with a
    sequence that is not UTF-8 spliced in."""
    data = draw(mutated(texts)).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.sampled_from(NOT_UTF8)) + data[i:]
    return data


def is_utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@settings(max_examples=500, deadline=None)
@given(mutated(ALL_TEXTS))
def test_parsers_return_a_model_or_raise_parse_error(text):
    for parse in (parse_cd, parse_ad, parse_om, parse_trace):
        try:
            parse(text)
        except ParseError:
            pass


@settings(max_examples=200, deadline=None)
@given(cd=encoded(CD_TEXTS), ad=encoded(AD_TEXTS), cd_other=st.sampled_from(CD_FILES),
       ad_other=st.sampled_from(AD_FILES))
def test_cli_answers_mutated_files_with_an_exit_code(cd, ad, cd_other, ad_other):
    with tempfile.TemporaryDirectory() as tmp:
        cd_path, ad_path = f"{tmp}/m.cd", f"{tmp}/m.ad"
        Path(cd_path).write_bytes(cd)
        Path(ad_path).write_bytes(ad)
        cd_other, ad_other = fixture_path(cd_other), fixture_path(ad_other)
        for argv in (
            ["cd", "diff", cd_path, cd_other, "--bound", "1"],
            ["cd", "diff", cd_other, cd_path, "--bound", "1"],
            ["cd", "compare", cd_path, cd_other, "--bound", "1"],
            ["ad", "diff", ad_path, ad_other, "--max-len", "6"],
            ["ad", "diff", ad_other, ad_path, "--max-len", "6"],
            ["ad", "compare", ad_path, ad_other],
            ["history", "cd", cd_other, cd_path, "--bound", "1"],
            ["history", "ad", ad_other, ad_path],
        ):
            out, err = io.StringIO(), io.StringIO()
            code = run(argv, out, err)
            assert code in (0, 1, 2), argv
            path, data = (cd_path, cd) if cd_path in argv else (ad_path, ad)
            if not is_utf8(data):
                assert (code, out.getvalue()) == (2, ""), argv
                assert re.match(rf"{re.escape(path)}:\d+:\d+: byte 0x", err.getvalue()), argv
