"""Command-line front end.

Exit codes follow the diff convention: 0 when the requested diff is empty or
the models are equivalent, 1 when semantic differences were found, 2 on
usage, parse, or input-validation errors. Results go to stdout, diagnostics
to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .ad_diff import addiff, compare_ad
from .ad_lang import ActivityDiagram, parse_ad
from .ad_semantics import DomainMismatchError, Trace, UnsafeMarkingError
from .cd_diff import (
    DEFAULT_BOUND,
    DEFAULT_MAX_WITNESSES,
    Verdict,
    VerdictValue,
    _verdict_value,
    cddiff,
    compare_cd,
)
from .cd_lang import ClassDiagram, parse_cd
from .cd_semantics import ObjectModel, parse_om, print_om
from .lexer import ParseError
from .render import (
    OutputFormat,
    diff_json,
    om_dot,
    om_json,
    parse_trace,
    print_trace,
    trace_dot,
    trace_json,
    _json_dump,
)


class CliError(Exception):
    """Input problem with messages already formatted for stderr."""

    def __init__(self, messages):
        super().__init__("; ".join(messages))
        self.messages = list(messages)


@dataclass(frozen=True)
class HistoryRow:
    from_file: str
    to_file: str
    verdict: Verdict
    forward: int
    backward: int


@dataclass(frozen=True)
class HistoryReport:
    rows: tuple[HistoryRow, ...]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError([f"{path}: {exc.strerror or exc}"]) from exc


def _parse_with_path(path: str, parser, text: str):
    try:
        return parser(text)
    except ParseError as exc:
        raise CliError([f"{path}:{d}" for d in exc.diagnostics]) from exc


def _load_cd(path: str) -> ClassDiagram:
    return _parse_with_path(path, parse_cd, _read(path))


def _load_ad(path: str) -> ActivityDiagram:
    return _parse_with_path(path, parse_ad, _read(path))


def _load_om(path: str) -> ObjectModel:
    return _parse_with_path(path, parse_om, _read(path))


def _load_trace(path: str) -> Trace:
    return _parse_with_path(path, parse_trace, _read(path))


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CliError([message])


def history_report(
    paths: list[str],
    kind: str,
    bound: int = DEFAULT_BOUND,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
) -> HistoryReport:
    """Compare each consecutive pair of model files of one kind.

    Witness counts are capped at ``max_witnesses`` per direction; the verdict
    is derived from the two counts.
    """
    _check(kind in ("cd", "ad"), f"unknown history kind '{kind}'")
    _check(len(paths) >= 2, "history needs at least two files")
    if kind == "cd":
        models = [_load_cd(p) for p in paths]
    else:
        models = [_load_ad(p) for p in paths]
    rows = []
    for old_path, new_path, old, new in zip(paths, paths[1:], models, models[1:]):
        if kind == "cd":
            fwd = len(cddiff(old, new, bound, max_witnesses).witnesses)
            bwd = len(cddiff(new, old, bound, max_witnesses).witnesses)
            verdict = Verdict(_verdict_value(fwd > 0, bwd > 0), bounded=True)
        else:
            fwd = len(addiff(old, new, max_witnesses).witnesses)
            bwd = len(addiff(new, old, max_witnesses).witnesses)
            verdict = Verdict(_verdict_value(fwd > 0, bwd > 0), bounded=False)
        rows.append(
            HistoryRow(Path(old_path).name, Path(new_path).name, verdict, fwd, bwd)
        )
    return HistoryReport(tuple(rows))


def _witness_headline(count: int, exhausted: bool, suffix: str = "") -> str:
    state = "exhausted" if exhausted else "not exhausted"
    noun = "witness" if count == 1 else "witnesses"
    head = f"no witnesses ({state}" if count == 0 else f"{count} {noun} ({state}"
    return f"{head}{suffix})"


def _cmd_cd_diff(args, out, err) -> int:
    _check(args.bound >= 0, "--bound must be >= 0")
    _check(args.max_witnesses >= 1, "--max-witnesses must be >= 1")
    cd1 = _load_cd(args.left)
    cd2 = _load_cd(args.right)
    result = cddiff(cd1, cd2, args.bound, args.max_witnesses)
    fmt = OutputFormat(args.format)
    if fmt is OutputFormat.TEXT:
        print(
            _witness_headline(len(result.witnesses), result.exhausted, f", k={args.bound}"),
            file=out,
        )
        for i, om in enumerate(result.witnesses, 1):
            print(f"witness {i}:", file=out)
            out.write(print_om(om))
    elif fmt is OutputFormat.DOT:
        out.write("\n".join(om_dot(om) for om in result.witnesses))
    else:
        document = diff_json(
            "AtoB", result.exhausted, args.bound, [om_json(om) for om in result.witnesses]
        )
        out.write(_json_dump(document))
    return 1 if result.witnesses else 0


def _cmd_cd_compare(args, out, err) -> int:
    _check(args.bound >= 0, "--bound must be >= 0")
    cd1 = _load_cd(args.left)
    cd2 = _load_cd(args.right)
    verdict = compare_cd(cd1, cd2, args.bound)
    print(f"{verdict} (bounded k={args.bound})", file=out)
    return 0 if verdict.value is VerdictValue.EQUIVALENT else 1


def _cmd_ad_diff(args, out, err) -> int:
    _check(args.max_witnesses >= 1, "--max-witnesses must be >= 1")
    _check(args.max_len is None or args.max_len >= 0, "--max-len must be >= 0")
    ad1 = _load_ad(args.left)
    ad2 = _load_ad(args.right)
    result = addiff(ad1, ad2, args.max_witnesses, args.max_len)
    fmt = OutputFormat(args.format)
    if fmt is OutputFormat.TEXT:
        print(_witness_headline(len(result.witnesses), result.exhausted), file=out)
        for i, trace in enumerate(result.witnesses, 1):
            print(f"witness {i}:", file=out)
            out.write(print_trace(trace))
    elif fmt is OutputFormat.DOT:
        out.write("\n".join(trace_dot(ad1, t) for t in result.witnesses))
    else:
        document = diff_json(
            "AtoB",
            result.exhausted,
            result.max_len,
            [trace_json(t) for t in result.witnesses],
        )
        out.write(_json_dump(document))
    return 1 if result.witnesses else 0


def _cmd_ad_compare(args, out, err) -> int:
    ad1 = _load_ad(args.left)
    ad2 = _load_ad(args.right)
    verdict = compare_ad(ad1, ad2)
    print(str(verdict), file=out)
    return 0 if verdict.value is VerdictValue.EQUIVALENT else 1


def _cmd_history(args, out, err) -> int:
    _check(args.bound >= 0, "--bound must be >= 0")
    report = history_report(args.files, args.kind, args.bound)
    if args.format == "json":
        document = {
            "rows": [
                {
                    "from": r.from_file,
                    "to": r.to_file,
                    "verdict": str(r.verdict),
                    "forward": r.forward,
                    "backward": r.backward,
                }
                for r in report.rows
            ]
        }
        out.write(_json_dump(document))
    else:
        headers = ("from", "to", "verdict", "forward", "backward")
        table = [
            (r.from_file, r.to_file, str(r.verdict), str(r.forward), str(r.backward))
            for r in report.rows
        ]
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in table)) if table else len(headers[i])
            for i in range(len(headers))
        ]
        for row in (headers, *table):
            line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            print(line.rstrip(), file=out)
    clean = all(r.verdict.value is VerdictValue.EQUIVALENT for r in report.rows)
    return 0 if clean else 1


def _cmd_render_om(args, out, err) -> int:
    om = _load_om(args.file)
    fmt = OutputFormat(args.format)
    if fmt is OutputFormat.TEXT:
        out.write(print_om(om))
    elif fmt is OutputFormat.DOT:
        out.write(om_dot(om))
    else:
        out.write(_json_dump(om_json(om)))
    return 0


def _cmd_render_trace(args, out, err) -> int:
    ad = _load_ad(args.ad_file)
    trace = _load_trace(args.trace_file)
    fmt = OutputFormat(args.format)
    if fmt is OutputFormat.TEXT:
        out.write(print_trace(trace))
    elif fmt is OutputFormat.DOT:
        out.write(trace_dot(ad, trace))
    else:
        out.write(_json_dump(trace_json(trace)))
    return 0


def _add_format(parser, choices=("text", "dot", "json")) -> None:
    parser.add_argument("--format", choices=list(choices), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semdiff", description="Semantic differencing of class and activity diagrams."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cd = sub.add_parser("cd", help="class diagram commands")
    cd_sub = cd.add_subparsers(dest="subcommand", required=True)
    cd_diff = cd_sub.add_parser("diff", help="object models of A that are not instances of B")
    cd_diff.add_argument("left")
    cd_diff.add_argument("right")
    cd_diff.add_argument("--bound", type=int, default=DEFAULT_BOUND, metavar="K")
    cd_diff.add_argument(
        "--max-witnesses", type=int, default=DEFAULT_MAX_WITNESSES, metavar="N"
    )
    _add_format(cd_diff)
    cd_diff.set_defaults(handler=_cmd_cd_diff)
    cd_cmp = cd_sub.add_parser("compare", help="four-valued verdict up to the bound")
    cd_cmp.add_argument("left")
    cd_cmp.add_argument("right")
    cd_cmp.add_argument("--bound", type=int, default=DEFAULT_BOUND, metavar="K")
    cd_cmp.set_defaults(handler=_cmd_cd_compare)

    ad = sub.add_parser("ad", help="activity diagram commands")
    ad_sub = ad.add_subparsers(dest="subcommand", required=True)
    ad_diff = ad_sub.add_parser("diff", help="traces of A that are not traces of B")
    ad_diff.add_argument("left")
    ad_diff.add_argument("right")
    ad_diff.add_argument(
        "--max-witnesses", type=int, default=DEFAULT_MAX_WITNESSES, metavar="N"
    )
    ad_diff.add_argument("--max-len", type=int, default=None, metavar="L")
    _add_format(ad_diff)
    ad_diff.set_defaults(handler=_cmd_ad_diff)
    ad_cmp = ad_sub.add_parser("compare", help="exact four-valued verdict")
    ad_cmp.add_argument("left")
    ad_cmp.add_argument("right")
    ad_cmp.set_defaults(handler=_cmd_ad_compare)

    hist = sub.add_parser("history", help="compare consecutive versions of one model")
    hist.add_argument("kind", choices=["cd", "ad"])
    hist.add_argument("files", nargs="+", metavar="FILE")
    hist.add_argument("--bound", type=int, default=DEFAULT_BOUND, metavar="K")
    _add_format(hist, choices=("text", "json"))
    hist.set_defaults(handler=_cmd_history)

    render = sub.add_parser("render", help="render a model or witness on its own")
    render_sub = render.add_subparsers(dest="subcommand", required=True)
    render_om = render_sub.add_parser("om", help="render an object model")
    render_om.add_argument("file")
    _add_format(render_om)
    render_om.set_defaults(handler=_cmd_render_om)
    render_trace = render_sub.add_parser("trace", help="render a trace over its diagram")
    render_trace.add_argument("ad_file")
    render_trace.add_argument("trace_file")
    _add_format(render_trace)
    render_trace.set_defaults(handler=_cmd_render_trace)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def run(argv, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, out, err)
    except CliError as exc:
        for message in exc.messages:
            print(message, file=err)
        return 2
    except (UnsafeMarkingError, DomainMismatchError) as exc:
        print(str(exc), file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
