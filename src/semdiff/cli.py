"""Command-line front end.

Exit codes follow the diff convention: 0 when the requested diff is empty or
the models are equivalent, 1 when semantic differences were found, 2 on
usage, parse, or input-validation errors. Results go to stdout, diagnostics
to stderr.
"""

from __future__ import annotations

import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

from .ad_diff import addiff, compare_ad
from .ad_lang import parse_ad
from .ad_semantics import DomainMismatchError, UnsafeMarkingError
from .cd_diff import DEFAULT_BOUND, cddiff, compare_cd
from .cd_lang import parse_cd
from .cd_semantics import parse_om
from .lexer import Diagnostic, ParseError, Record
from .render import (
    OutputFormat,
    parse_trace,
    render_diff,
    render_history,
    render_om,
    render_trace,
)
from .verdict import DEFAULT_MAX_WITNESSES, Verdict, VerdictValue


class CliError(Exception):
    """Input problem with messages already formatted for stderr."""

    def __init__(self, messages):
        super().__init__("; ".join(messages))
        self.messages = list(messages)


class HistoryRow(Record):
    from_file: str
    to_file: str
    verdict: Verdict
    forward: int
    backward: int


def _load(path: str, parser):
    """``parser`` applied to the text of the file at ``path``; read, decode
    and parse errors become messages that start with the path."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise CliError([f"{path}: {exc.strerror or exc}"]) from exc
    try:
        return parser(_decode(data))
    except ParseError as exc:
        raise CliError([f"{path}:{d}" for d in exc.diagnostics]) from exc


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text with newlines translated as ``open`` does; the
    first byte that is not UTF-8 is a ParseError at its line and column."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _decode(data[:exc.start])
        line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise ParseError(Diagnostic(
            line, col, f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})")) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CliError([message])


# Each numeric option's least value, checked in order before a command reads a file.
_LEAST = (("bound", 0), ("max_witnesses", 1), ("max_len", 0))


def history_report(
    paths: list[str], kind: str, bound: int = DEFAULT_BOUND
) -> tuple[HistoryRow, ...]:
    """Compare each consecutive pair of model files of one kind.

    Witness counts are capped at ``DEFAULT_MAX_WITNESSES`` per direction; the
    verdict is derived from the two counts.
    """
    _check(kind in ("cd", "ad"), f"unknown history kind '{kind}'")
    _check(len(paths) >= 2, "history needs at least two files")
    if kind == "cd":
        parser, diff = parse_cd, lambda x, y: cddiff(x, y, bound)
    else:
        parser, diff = parse_ad, addiff
    models = [_load(p, parser) for p in paths]
    rows = []
    for old_path, new_path, old, new in zip(paths, paths[1:], models, models[1:]):
        fwd = len(diff(old, new).witnesses)
        bwd = len(diff(new, old).witnesses)
        verdict = Verdict.of(fwd > 0, bwd > 0, bounded=kind == "cd")
        rows.append(HistoryRow(
            os.path.basename(old_path), os.path.basename(new_path), verdict, fwd, bwd))
    return tuple(rows)


def _cmd_cd_diff(args, out) -> int:
    cd1 = _load(args.left, parse_cd)
    cd2 = _load(args.right, parse_cd)
    result = cddiff(cd1, cd2, args.bound, args.max_witnesses)
    fmt = OutputFormat(args.format)
    out.write(render_diff(result.witnesses, result.exhausted, args.bound, fmt))
    return 1 if result.witnesses else 0


def _cmd_cd_compare(args, out) -> int:
    cd1 = _load(args.left, parse_cd)
    cd2 = _load(args.right, parse_cd)
    verdict = compare_cd(cd1, cd2, args.bound)
    print(f"{verdict} (bounded k={args.bound})", file=out)
    return 0 if verdict.value is VerdictValue.EQUIVALENT else 1


def _cmd_ad_diff(args, out) -> int:
    ad1 = _load(args.left, parse_ad)
    ad2 = _load(args.right, parse_ad)
    result = addiff(ad1, ad2, args.max_witnesses, args.max_len)
    fmt = OutputFormat(args.format)
    out.write(render_diff(result.witnesses, result.exhausted, args.max_len, fmt, ad1))
    return 1 if result.witnesses else 0


def _cmd_ad_compare(args, out) -> int:
    ad1 = _load(args.left, parse_ad)
    ad2 = _load(args.right, parse_ad)
    verdict = compare_ad(ad1, ad2)
    print(str(verdict), file=out)
    return 0 if verdict.value is VerdictValue.EQUIVALENT else 1


def _cmd_history(args, out) -> int:
    rows = history_report(args.files, args.kind, args.bound)
    out.write(render_history(rows, OutputFormat(args.format)))
    clean = all(r.verdict.value is VerdictValue.EQUIVALENT for r in rows)
    return 0 if clean else 1


def _cmd_render_om(args, out) -> int:
    om = _load(args.file, parse_om)
    out.write(render_om(om, OutputFormat(args.format)))
    return 0


def _cmd_render_trace(args, out) -> int:
    ad = _load(args.ad_file, parse_ad)
    trace = _load(args.trace_file, parse_trace)
    out.write(render_trace(ad, trace, OutputFormat(args.format)))
    return 0


@lru_cache(maxsize=1)
def _parser():
    """The parser, built once per process; parsing leaves it unchanged."""
    import argparse  # here, not at the top: only a command line needs it

    def parent(*names, **options):
        # Arguments that several commands share; a command lists its parents in help order.
        shared = argparse.ArgumentParser(add_help=False)
        for name in names:
            shared.add_argument(name, **options)
        return shared

    pair = parent("left", "right")
    bound = parent("--bound", type=int, default=DEFAULT_BOUND, metavar="K")
    witnesses = parent("--max-witnesses", type=int, default=DEFAULT_MAX_WITNESSES, metavar="N")
    max_len = parent("--max-len", type=int, default=None, metavar="L")
    fmt = parent("--format", choices=["text", "dot", "json"], default="text")

    parser = argparse.ArgumentParser(
        prog="semdiff", description="Semantic differencing of class and activity diagrams."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    def command(subs, name, help, handler, *parents):
        cmd = subs.add_parser(name, help=help, parents=parents)
        cmd.set_defaults(handler=handler)
        return cmd

    cd = group("cd", "class diagram commands")
    command(cd, "diff", "object models of A that are not instances of B", _cmd_cd_diff,
            pair, bound, witnesses, fmt)
    command(cd, "compare", "four-valued verdict up to the bound", _cmd_cd_compare, pair, bound)

    ad = group("ad", "activity diagram commands")
    command(ad, "diff", "traces of A that are not traces of B", _cmd_ad_diff,
            pair, witnesses, max_len, fmt)
    command(ad, "compare", "exact four-valued verdict", _cmd_ad_compare, pair)

    hist = command(sub, "history", "compare consecutive versions of one model", _cmd_history, bound)
    hist.add_argument("kind", choices=["cd", "ad"])
    hist.add_argument("files", nargs="+", metavar="FILE")
    hist.add_argument("--format", choices=["text", "json"], default="text")

    render = group("render", "render a model or witness on its own")
    command(render, "om", "render an object model", _cmd_render_om, fmt).add_argument("file")
    trace = command(render, "trace", "render a trace over its diagram", _cmd_render_trace, fmt)
    trace.add_argument("ad_file")
    trace.add_argument("trace_file")
    return parser


def run(argv, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        # argparse writes usage errors and --help to the sys streams.
        with redirect_stdout(out), redirect_stderr(err):
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for dest, least in _LEAST:
            value = getattr(args, dest, None)
            _check(value is None or value >= least, f"--{dest.replace('_', '-')} must be >= {least}")
        return args.handler(args, out)
    except CliError as exc:
        for message in exc.messages:
            print(message, file=err)
        return 2
    except (UnsafeMarkingError, DomainMismatchError) as exc:
        print(str(exc), file=err)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        # Flush here, so that a reader that closed the pipe early is noticed
        # inside this block rather than at interpreter shutdown.
        sys.stdout.flush()
    except BrokenPipeError:
        # The recipe from the "Note on SIGPIPE" in the docs of ``signal``:
        # point stdout at devnull so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
