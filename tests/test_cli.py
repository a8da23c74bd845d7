import io
import json
import subprocess
import sys

import pytest

from semdiff.cli import history_report, run

from conftest import fixture_path
from helpers import validate_dot

EXPECTED_FORWARD_WITNESS = """\
objectmodel om {
  employee1: Employee;
  task1: Task;
  task2: Task;
  task3: Task;
  link worksOn employee1 -- task1;
  link worksOn employee1 -- task2;
  link worksOn employee1 -- task3;
}
"""


def go(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return str(fixture_path(name))


def test_cd_diff_identity_is_clean():
    code, out, err = go("cd", "diff", fx("cd1v1.cd"), fx("cd1v1.cd"))
    assert (code, err) == (0, "")
    assert out == "no witnesses (exhausted, k=3)\n"


def test_cd_diff_reports_witnesses():
    code, out, err = go(
        "cd", "diff", fx("cd1v1.cd"), fx("cd1v2.cd"), "--max-witnesses", "1"
    )
    assert (code, err) == (1, "")
    assert out == (
        "1 witness (not exhausted, k=3)\nwitness 1:\n" + EXPECTED_FORWARD_WITNESS
    )


def test_cd_diff_json_document():
    code, out, err = go(
        "cd", "diff", fx("cd1v1.cd"), fx("cd1v2.cd"),
        "--max-witnesses", "1", "--format", "json",
    )
    assert code == 1
    document = json.loads(out)
    assert document["direction"] == "AtoB"
    assert document["exhausted"] is False
    assert document["bound"] == 3
    (witness,) = document["witnesses"]
    assert [o["id"] for o in witness["objects"]] == [
        "employee1", "task1", "task2", "task3",
    ]
    assert len(witness["links"]) == 3
    assert all(link["assoc"] == "worksOn" for link in witness["links"])


def test_cd_diff_dot_output_is_wellformed():
    code, out, err = go(
        "cd", "diff", fx("cd1v1.cd"), fx("cd1v2.cd"),
        "--max-witnesses", "2", "--format", "dot",
    )
    assert code == 1
    assert out.count("digraph") == 2
    for chunk in out.split("\n\n"):
        if chunk.strip():
            validate_dot(chunk if chunk.endswith("\n") else chunk + "\n")


def test_cd_compare_verdict_lines():
    code, out, _ = go("cd", "compare", fx("cd5v1.cd"), fx("cd5v2.cd"))
    assert (code, out) == (0, "EQUIVALENT (bounded k=3)\n")
    code, out, _ = go("cd", "compare", fx("cd1v1.cd"), fx("cd1v2.cd"))
    assert (code, out) == (1, "INCOMPARABLE (bounded k=3)\n")
    code, out, _ = go("cd", "compare", fx("cd5v1.cd"), fx("cd5v2.cd"), "--bound", "4")
    assert (code, out) == (0, "EQUIVALENT (bounded k=4)\n")


def test_ad_diff_text_output():
    code, out, err = go("ad", "diff", fx("adv3.ad"), fx("adv4.ad"))
    assert (code, err) == (1, "")
    assert out == (
        "1 witness (exhausted)\n"
        "witness 1:\n"
        "inputs: isInternal=false\n"
        "  1. register\n"
        "  2. assignExternalProject\n"
        "  3. authorizePayments\n"
    )


def test_ad_diff_identity_is_clean():
    code, out, err = go("ad", "diff", fx("adv2.ad"), fx("adv2.ad"))
    assert (code, err) == (0, "")
    assert out == "no witnesses (exhausted)\n"


def test_ad_diff_json_document():
    code, out, _ = go("ad", "diff", fx("adv3.ad"), fx("adv4.ad"), "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "direction": "AtoB",
        "exhausted": True,
        "bound": None,
        "witnesses": [
            {
                "inputs": {"isInternal": "false"},
                "actions": ["register", "assignExternalProject", "authorizePayments"],
            }
        ],
    }


def test_ad_diff_max_len_appears_as_bound():
    code, out, _ = go(
        "ad", "diff", fx("adv2.ad"), fx("adv3.ad"), "--max-len", "5", "--format", "json"
    )
    document = json.loads(out)
    assert (code, document["bound"], document["exhausted"]) == (0, 5, False)


def test_ad_compare_verdicts():
    code, out, _ = go("ad", "compare", fx("adv2.ad"), fx("adv3.ad"))
    assert (code, out) == (1, "RIGHT_REFINES_LEFT\n")
    code, out, _ = go("ad", "compare", fx("adv1.ad"), fx("adv1.ad"))
    assert (code, out) == (0, "EQUIVALENT\n")


def test_history_table():
    code, out, err = go(
        "history", "ad", fx("adv1.ad"), fx("adv2.ad"), fx("adv3.ad"), fx("adv4.ad")
    )
    assert (code, err) == (1, "")
    assert out == (
        "from     to       verdict             forward  backward\n"
        "adv1.ad  adv2.ad  INCOMPARABLE        2        6\n"
        "adv2.ad  adv3.ad  RIGHT_REFINES_LEFT  4        0\n"
        "adv3.ad  adv4.ad  INCOMPARABLE        1        1\n"
    )


def test_history_json():
    code, out, _ = go(
        "history", "ad", fx("adv2.ad"), fx("adv3.ad"), "--format", "json"
    )
    assert code == 1
    assert json.loads(out) == {
        "rows": [
            {
                "from": "adv2.ad",
                "to": "adv3.ad",
                "verdict": "RIGHT_REFINES_LEFT",
                "forward": 4,
                "backward": 0,
            }
        ]
    }


def test_history_mirror_swaps_refinement():
    (f,) = history_report([fx("adv2.ad"), fx("adv3.ad")], "ad")
    (b,) = history_report([fx("adv3.ad"), fx("adv2.ad")], "ad")
    assert str(f.verdict) == "RIGHT_REFINES_LEFT"
    assert str(b.verdict) == "LEFT_REFINES_RIGHT"
    assert (f.forward, f.backward) == (b.backward, b.forward)


def test_history_palindrome_mirrors_rows():
    first, second = history_report([fx("adv2.ad"), fx("adv3.ad"), fx("adv2.ad")], "ad")
    assert str(first.verdict) == "RIGHT_REFINES_LEFT"
    assert str(second.verdict) == "LEFT_REFINES_RIGHT"
    assert (first.forward, first.backward) == (second.backward, second.forward)


def test_history_all_equivalent_exits_zero():
    code, out, _ = go("history", "cd", fx("cd5v1.cd"), fx("cd5v2.cd"))
    assert code == 0
    assert "EQUIVALENT" in out


def test_render_om(tmp_path):
    source = "objectmodel tiny {\n  e1: Employee;\n}\n"
    path = tmp_path / "tiny.om"
    path.write_text(source)
    code, out, err = go("render", "om", str(path))
    assert (code, out, err) == (0, source, "")
    code, out, _ = go("render", "om", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "objects": [{"id": "e1", "class": "Employee"}],
        "links": [],
    }
    code, out, _ = go("render", "om", str(path), "--format", "dot")
    assert code == 0 and out.startswith('digraph "tiny" {')


def test_render_trace(tmp_path):
    path = tmp_path / "w.trace"
    path.write_text(
        "inputs: isInternal=false\n"
        "  1. register\n  2. assignExternalProject\n  3. authorizePayments\n"
    )
    code, out, err = go("render", "trace", fx("adv1.ad"), str(path))
    assert (code, err) == (0, "")
    assert out == path.read_text()
    code, out, _ = go("render", "trace", fx("adv1.ad"), str(path), "--format", "dot")
    assert code == 0
    assert 'label="register [1]"' in out


def error_invocations():
    return [
        (("cd", "diff", "/nonexistent.cd", fx("cd1v1.cd")), "No such file"),
        (("cd", "diff", fx("adv1.ad"), fx("cd1v1.cd")), "expected 'classdiagram'"),
        (("ad", "diff", fx("cd1v1.cd"), fx("adv1.ad")), "expected 'activity'"),
        (("render", "om", fx("cd1v1.cd")), "expected 'objectmodel'"),
        (("cd", "diff", fx("cd1v1.cd"), fx("cd1v2.cd"), "--bound", "-1"),
         "--bound must be >= 0"),
        (("cd", "diff", fx("cd1v1.cd"), fx("cd1v2.cd"), "--max-witnesses", "0"),
         "--max-witnesses must be >= 1"),
        (("ad", "diff", fx("adv1.ad"), fx("adv2.ad"), "--max-len", "-2"),
         "--max-len must be >= 0"),
        (("history", "cd", fx("cd1v1.cd")), "at least two files"),
        (("history", "cd", fx("cd1v1.cd"), fx("adv1.ad")), "adv1.ad"),
    ]


@pytest.mark.parametrize("argv, fragment", error_invocations())
def test_usage_and_input_errors_exit_two(argv, fragment):
    code, out, err = go(*argv)
    assert code == 2
    assert fragment in err


@pytest.mark.parametrize("argv, message", [
    (("cd", "diff", "/nonexistent.cd", "/nonexistent.cd", "--max-witnesses", "0", "--bound", "-1"),
     "--bound must be >= 0\n"),
    (("cd", "compare", "/nonexistent.cd", "/nonexistent.cd", "--bound", "-1"), "--bound must be >= 0\n"),
    (("ad", "diff", "/nonexistent.ad", "/nonexistent.ad", "--max-len", "-1", "--max-witnesses", "0"),
     "--max-witnesses must be >= 1\n"),
    (("history", "cd", "/nonexistent.cd", "--bound", "-1"), "--bound must be >= 0\n"),
])
def test_the_first_option_out_of_range_is_reported_before_any_file_is_read(argv, message):
    assert go(*argv) == (2, "", message)


def test_an_empty_path_is_a_missing_file():
    code, out, err = go("cd", "compare", "", fx("cd1v1.cd"))
    assert (code, out) == (2, "")
    assert err == ": No such file or directory\n"


def test_parse_errors_carry_file_positions():
    code, out, err = go("cd", "diff", fx("adv1.ad"), fx("cd1v1.cd"))
    assert code == 2
    assert err.startswith(f"{fx('adv1.ad')}:4:1: ")


def test_deeply_nested_guard_exits_two_with_position(tmp_path):
    guard = "!(" * 400 + "v" + ")" * 400
    ad_file = tmp_path / "deep.ad"
    ad_file.write_text(
        "activity deep {\n  input v: bool;\n  action a;\n  action b;\n  decision d;\n"
        f"  start -> d;\n  d -[{guard}]-> a;\n  d -[!v]-> b;\n  a -> end;\n  b -> end;\n}}\n"
    )
    code, out, err = go("ad", "compare", str(ad_file), str(ad_file))
    assert (code, out) == (2, "")
    assert err == f"{ad_file}:7:107: guard nested more than 100 levels deep\n"


# The diagrams of the CI step "Unsafe diagram error": under p, firing the
# merge mY marks the edge mY -> c a second time.
UNSAFE_X = """\
activity X { input p: bool; action a; action b; action c; decision d; fork f; merge mX;
  action x1; d -[!p]-> x1; x1 -> end; action z; d -[!p]-> z; z -> end;
  start -> d; d -[p]-> f; f -> a; f -> b; a -> mX; b -> mX; mX -> c; c -> end; }
"""
UNSAFE_Y = """\
activity Y { input p: bool; action a; action b; action c; decision d; fork f; merge mY;
  action z; d -[!p]-> z; z -> end;
  start -> d; d -[p]-> f; f -> a; f -> b; a -> mY; b -> mY; mY -> c; c -> end; }
"""


@pytest.mark.parametrize("left, right, message", [
    (UNSAFE_X, UNSAFE_Y,
     "firing 'mY' would mark the edge mY -> c twice in configuration <edges [7, 8]; p=true>"),
    ("activity P { input p: bool; action a; start -> a; a -> end; }",
     "activity P { input p: {lo, hi}; action a; start -> a; a -> end; }",
     "input 'p' has domain ('false', 'true') in one diagram and ('lo', 'hi') in the other"),
], ids=["unsafe", "domain-mismatch"])
def test_engine_errors_exit_two_with_one_line(tmp_path, left, right, message):
    (tmp_path / "x.ad").write_text(left)
    (tmp_path / "y.ad").write_text(right)
    code, out, err = go("ad", "compare", str(tmp_path / "x.ad"), str(tmp_path / "y.ad"))
    assert (code, out, err) == (2, "", message + "\n")


# Files with the byte 0xff at '@', and where that byte is in characters:
# CRLF, CR and LF all end a line, as ``open`` reads them.
NOT_UTF8 = {
    "bad.cd": ("classdiagram C {\r\n  class \u00e9t\u00e9@;\r\n}\r\n", "2:12"),
    "bad.ad": ("activity A {\n  // r\u00e9sum\u00e9 @\n  start -> end;\n}\n", "2:13"),
    "bad.om": ("objectmodel om {\r  x@: A;\r}\r", "2:4"),
}


@pytest.mark.parametrize("argv, name", [
    (("cd", "compare", "{}", fx("cd1v1.cd")), "bad.cd"),
    (("ad", "diff", fx("adv1.ad"), "{}"), "bad.ad"),
    (("history", "cd", fx("cd1v1.cd"), "{}", fx("cd1v2.cd")), "bad.cd"),
    (("render", "om", "{}"), "bad.om"),
], ids=["cd-compare", "ad-diff", "history", "render-om"])
def test_a_byte_that_is_not_utf8_is_a_positioned_error(tmp_path, argv, name):
    text, position = NOT_UTF8[name]
    path = tmp_path / name
    before, after = text.split("@")
    path.write_bytes(before.encode("utf-8") + b"\xff" + after.encode("utf-8"))
    code, out, err = go(*(arg.format(path) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"{path}:{position}: byte 0xff is not UTF-8 (invalid start byte)\n"


def _self_association(tmp_path, name, mult):
    path = tmp_path / name
    path.write_text(f"classdiagram C {{\n  class A;\n  association r [{mult}] A -- A [*];\n}}\n")
    return str(path)


def test_non_decimal_digit_is_a_positioned_error(tmp_path):
    path = _self_association(tmp_path, "f.cd", "\u00b2")  # superscript two
    code, out, err = go("cd", "compare", path, path)
    assert (code, out, err) == (2, "", f"{path}:3:18: unexpected character '\u00b2'\n")


def test_unicode_decimal_digits_read_as_a_number(tmp_path):
    arabic = _self_association(tmp_path, "arabic.cd", "\u0663")  # Arabic-Indic three
    three = _self_association(tmp_path, "three.cd", "3")
    two = _self_association(tmp_path, "two.cd", "2")
    assert go("cd", "compare", arabic, three) == (0, "EQUIVALENT (bounded k=3)\n", "")
    assert go("cd", "compare", arabic, two)[0] == 1


def test_thousand_class_diagram_compares_at_bound_zero(tmp_path):
    path = tmp_path / "big.cd"
    classes = "".join(f"  class C{i};\n" for i in range(1100))
    path.write_text(f"classdiagram big {{\n{classes}}}\n")
    code, out, err = go("cd", "compare", str(path), str(path), "--bound", "0")
    assert (code, out, err) == (0, "EQUIVALENT (bounded k=0)\n", "")


def test_unknown_commands_exit_two(capsys):
    assert go("bogus")[0] == 2
    assert go("cd", "bogus")[0] == 2
    assert go("cd", "diff", "only-one-file")[0] == 2
    assert capsys.readouterr() == ("", "")  # usage went to the given streams


def test_missing_argument_usage_goes_to_the_given_stderr(capsys):
    code, out, err = go("cd", "diff")
    assert (code, out) == (2, "")
    assert err.startswith("usage: semdiff cd diff ")
    assert "the following arguments are required: left, right" in err
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_stdout(capsys):
    code, out, err = go("--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: semdiff ")
    assert "Semantic differencing of class and activity diagrams." in out
    assert capsys.readouterr() == ("", "")


with open(fixture_path("cli_help.json"), encoding="utf-8") as _f:
    HELP_CASES = json.load(_f)


@pytest.mark.parametrize(
    "case", HELP_CASES, ids=lambda case: " ".join(case["argv"]) or "(no arguments)"
)
def test_help_and_usage_bytes_are_pinned(case, monkeypatch):
    # The -h text of every parser, the usage error of every command run with
    # no arguments, and both --format choice errors, byte for byte. argparse
    # wraps to the terminal width, so fix it.
    monkeypatch.setenv("COLUMNS", "80")
    assert go(*case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "semdiff", "cd", "compare",
         fx("cd5v1.cd"), fx("cd5v2.cd")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "EQUIVALENT (bounded k=3)\n"


def test_closed_stdout_pipe_exits_one_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "semdiff", "ad", "diff",
         fx("adv2.ad"), fx("adv3.ad"), "--format", "dot"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes away before any output is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
