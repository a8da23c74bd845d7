import time

import pytest
from hypothesis import given, strategies as st

from semdiff import ad_lang, cd_lang, cd_semantics
from semdiff.ad_lang import parse_ad
from semdiff.cd_lang import parse_cd
from semdiff.cd_semantics import parse_om
from semdiff.lexer import EOF, IDENT, NAT, SYM, ParseError, TokenCursor, is_ident, tokenize

from conftest import FIXTURES
from helpers import reference_tokenize

# Text for the differential tests: every character of the fixtures, plus
# characters that sit on the edges of the lexical rules (non-decimal digits,
# digits of other scripts, a combining accent, separators that are not
# token separators) and the comment opener.
PIECES = sorted({ch for path in FIXTURES.iterdir() for ch in path.read_text(encoding="utf-8")}) + [
    "\u00b2", "\u00bd", "\u216b", "\u0663", "\U0001d7d9", "\u00e9", "\u0301",
    "\x0b", "\x0c", "\xa0", "\x85", "\t", "\r", "//",
]


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source)]


def test_basic_token_stream():
    assert kinds_and_texts("class A;") == [
        (IDENT, "class"),
        (IDENT, "A"),
        (SYM, ";"),
        (EOF, ""),
    ]


def test_maximal_munch_prefers_long_symbols():
    # "-[" must not split into "-" (unknown) + "[", and "]->" must stay whole.
    toks = tokenize("a -[x]-> b")
    assert [(t.kind, t.text) for t in toks[:6]] == [
        (IDENT, "a"),
        (SYM, "-["),
        (IDENT, "x"),
        (SYM, "]->"),
        (IDENT, "b"),
        (EOF, ""),
    ]


def test_range_and_comparison_symbols():
    assert kinds_and_texts("0..2 != ==")[:-1] == [
        (NAT, "0"),
        (SYM, ".."),
        (NAT, "2"),
        (SYM, "!="),
        (SYM, "=="),
    ]


def test_comments_and_whitespace_are_skipped():
    source = "a // rest of line ignored\n\t b"
    assert kinds_and_texts(source)[:-1] == [(IDENT, "a"), (IDENT, "b")]


def test_positions_track_lines_and_columns():
    toks = tokenize("ab\n  cd")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_unexpected_character_is_positioned():
    with pytest.raises(ParseError) as err:
        tokenize("a\n  $")
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.col) == (2, 3)
    assert "unexpected character" in diag.message


def test_cursor_expectations_report_found_token():
    cur = TokenCursor(tokenize("class 7"))
    cur.expect("class")
    with pytest.raises(ParseError, match="expected an identifier, found '7'"):
        cur.expect_ident()


def test_cursor_reports_end_of_input():
    cur = TokenCursor(tokenize(""))
    with pytest.raises(ParseError, match="end of input"):
        cur.expect("{")


@pytest.mark.parametrize(
    "source, read, expected",
    [
        ("class\n  7", lambda cur: cur.expect("{"), "2:3: expected '{', found '7'"),
        ("{ ", lambda cur: cur.expect("}"), "1:3: expected '}', found end of input"),
        ("class\n  7", lambda cur: cur.expect_ident("a class name"), "2:3: expected a class name, found '7'"),
        ("[ x", lambda cur: cur.expect_nat(), "1:3: expected a number, found 'x'"),
        ("} ]", lambda cur: cur.expect_eof(), "1:3: expected end of input, found ']'"),
    ],
)
def test_each_expectation_fails_at_the_token_it_found(source, read, expected):
    cur = TokenCursor(tokenize(source))
    cur.advance()
    with pytest.raises(ParseError) as err:
        read(cur)
    assert str(err.value) == expected


@pytest.mark.parametrize(
    "parse, source, expected",
    [
        (parse_cd, "classdiagram C {\n  class A;\n", "3:1: expected '}', found end of input"),
        (parse_cd, "classdiagram C { class A; } class B;", "1:29: expected end of input, found 'class'"),
        (parse_ad, "activity A {\n  start -> end;\n", "3:1: expected '}', found end of input"),
        (parse_ad, "activity A { start -> end; } }", "1:30: expected end of input, found '}'"),
        (parse_om, "objectmodel m {\n  a: A;\n", "3:1: expected '}', found end of input"),
        (parse_om, "objectmodel m { a: A; } ;", "1:25: expected end of input, found ';'"),
    ],
)
def test_a_model_file_is_one_block_with_nothing_after_it(parse, source, expected):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == expected


def test_diagnostic_str_format():
    with pytest.raises(ParseError) as err:
        tokenize("%")
    assert str(err.value.diagnostics[0]) == "1:1: unexpected character '%'"


def test_cursor_verbs_read_symbols_keywords_and_numbers_alike():
    cur = TokenCursor(tokenize("class [ 7"))
    assert cur.at("class") and not cur.at("[")
    assert cur.eat("class") and not cur.eat("class")
    assert cur.expect("[").text == "["
    assert cur.expect("7").kind == NAT
    with pytest.raises(ParseError, match="expected '}', found end of input"):
        cur.expect("}")


def outcome(tokenizer, text):
    """The token list, or the diagnostic text of the error."""
    try:
        return tokenizer(text)
    except ParseError as err:
        return str(err)


def reads_as_one_ident(text):
    try:
        first = reference_tokenize(text)[0]
    except ParseError:
        return False
    return first.kind == IDENT and first.text == text


@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_tokenize_matches_the_character_loop(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


@given(st.lists(st.sampled_from(PIECES), max_size=4).map("".join))
def test_is_ident_matches_the_character_loop(text):
    assert is_ident(text) == reads_as_one_ident(text)


@pytest.mark.parametrize("text, expected", [
    ("a\u00b2", [(IDENT, "a\u00b2", 1, 1), (EOF, "", 1, 3)]),
    ("\u00e9 _1 \u0663\u0663", [(IDENT, "\u00e9", 1, 1), (IDENT, "_1", 1, 3), (NAT, "\u0663\u0663", 1, 6),
                                (EOF, "", 1, 8)]),
    ("a // note", [(IDENT, "a", 1, 1), (EOF, "", 1, 3)]),
    ("a // note\nb", [(IDENT, "a", 1, 1), (IDENT, "b", 2, 1), (EOF, "", 2, 2)]),
])
def test_token_positions_at_the_edges(text, expected):
    assert tokenize(text) == expected == reference_tokenize(text)


@pytest.mark.parametrize("text, message", [
    ("\u00b2a", "1:1: unexpected character '\u00b2'"),
    ("1\u00bd", "1:2: unexpected character '\u00bd'"),
    ("x\u0301", "1:2: unexpected character " + repr("\u0301")),
    ("a\x0bb", "1:2: unexpected character '\\x0b'"),
    ("a\xa0", "1:2: unexpected character '\\xa0'"),
    ("\n\x85", "2:1: unexpected character '\\x85'"),
])
def test_characters_outside_the_rules_are_positioned_errors(text, message):
    assert outcome(tokenize, text) == message == outcome(reference_tokenize, text)


def test_blanks_at_the_end_of_a_line_take_linear_time():
    blanks = " \t\r" * 7000
    started = time.monotonic()
    tokens = tokenize(f"a{blanks}\n{blanks}")
    elapsed = time.monotonic() - started
    assert tokens == [(IDENT, "a", 1, 1), (EOF, "", 2, len(blanks) + 1)]
    assert elapsed < 1.0


def test_trailing_comment_leaves_end_of_input_at_its_start():
    with pytest.raises(ParseError) as err:
        parse_cd("classdiagram C {\n  class A; // note")
    assert str(err.value) == "2:12: expected '}', found end of input"


@pytest.mark.parametrize("text, expected", [
    ("a", True), ("_", True), ("caf\u00e9", True), ("a\u00b2", True),
    ("", False), ("1a", False), ("\u00b2a", False), ("x\u0301", False), ("a b", False),
    ("a//", False), ("a\n", False), ("->", False), ("7", False),
    (" a", False), ("a ", False), ("\ta", False), ("a\r", False),
])
def test_is_ident(text, expected):
    assert is_ident(text) is expected is reads_as_one_ident(text)


def test_cursor_stops_at_end_of_input():
    cur = TokenCursor(tokenize("a ;"))
    cur.advance()
    assert cur.peek().text == ";"
    assert cur.peek(1).kind == EOF
    cur.advance()
    end = cur.advance()
    assert end.kind == EOF and (end.line, end.col) == (1, 4)
    assert cur.advance() is cur.peek() is end
    assert cur.peek(1) == end
    cur.expect_eof()


# The first witness ``cddiff`` prints for the cd1v1 -> cd1v2 fixtures at k=3.
# It is written out, not computed, so that a fault in the class-diagram
# search fails the class-diagram tests without dropping these at collection.
CD1_WITNESS = """objectmodel om {
  employee1: Employee;
  task1: Task;
  task2: Task;
  task3: Task;
  link worksOn employee1 -- task1;
  link worksOn employee1 -- task2;
  link worksOn employee1 -- task3;
}
"""


def sweep_cases():
    """Every .cd and .ad fixture, and one object model that ``cddiff`` prints,
    each with its parser."""
    parsers = {".cd": parse_cd, ".ad": parse_ad}
    cases = [pytest.param(parsers[path.suffix], path.read_text(encoding="utf-8"), id=path.name)
             for path in sorted(FIXTURES.iterdir()) if path.suffix in parsers]
    return cases + [pytest.param(parse_om, CD1_WITNESS, id="cd1-witness.om")]


def parsed(parse, text):
    """The model and its repr, which shows the source positions ``==`` leaves
    out, or the diagnostic text of the error."""
    try:
        model = parse(text)
    except ParseError as err:
        return str(err)
    return model, repr(model)


@pytest.mark.parametrize("parse, text", sweep_cases())
def test_every_prefix_parses_as_with_the_character_loop(parse, text, monkeypatch):
    prefixes = [text[:n] for n in range(len(text) + 1)]
    ours = [parsed(parse, prefix) for prefix in prefixes]
    for module in (ad_lang, cd_lang, cd_semantics):
        monkeypatch.setattr(module, "tokenize", reference_tokenize)
    for prefix, got in zip(prefixes, ours):
        assert got == parsed(parse, prefix), prefix
    assert not isinstance(ours[-1], str)
