"""Witness rendering: text, DOT graph descriptions, and JSON documents.

This is the one module that picks an output format: for one witness
(``render_om``, ``render_trace``), for a diff result (``render_diff``) and
for a history (``render_history``). Everything here is byte-deterministic
for identical inputs. The text forms round-trip through their parsers; DOT
output is meant for graphviz.
"""

from __future__ import annotations

import json
from enum import Enum

from .ad_lang import ActivityDiagram, NodeKind, print_guard
from .ad_semantics import Trace
from .cd_semantics import ObjectModel, print_om
from .lexer import Diagnostic, ParseError, is_ident


class OutputFormat(Enum):
    TEXT = "text"
    DOT = "dot"
    JSON = "json"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _json_dump(document) -> str:
    return json.dumps(document, indent=2) + "\n"


def _witness_form(format: OutputFormat, ad: ActivityDiagram | None):
    """How one witness is written in ``format``: an object model when ``ad``
    is None, else a trace drawn over ``ad``. The JSON form is a document."""
    if ad is None:
        forms = {OutputFormat.TEXT: print_om, OutputFormat.DOT: om_dot, OutputFormat.JSON: om_json}
    else:
        forms = {
            OutputFormat.TEXT: print_trace,
            OutputFormat.DOT: lambda trace: trace_dot(ad, trace),
            OutputFormat.JSON: trace_json,
        }
    return forms[format]


def _payload(format: OutputFormat, value) -> str:
    """``value`` as output text; a JSON document is dumped first."""
    return _json_dump(value) if format is OutputFormat.JSON else value


# ---------------------------------------------------------------------------
# object models


def om_json(om: ObjectModel) -> dict:
    return {
        "objects": [
            {"id": oid, "class": cls} for oid, cls in sorted(om.objects.items())
        ],
        "links": [
            {"assoc": assoc, "src": src, "dst": dst}
            for assoc, src, dst in sorted(om.links)
        ],
    }


def om_dot(om: ObjectModel) -> str:
    lines = [f"digraph {_dot_quote(om.name)} {{"]
    for oid, cls in sorted(om.objects.items()):
        lines.append(f"  {_dot_quote(oid)} [label={_dot_quote(f'{oid}:{cls}')}];")
    for assoc, src, dst in sorted(om.links):
        lines.append(
            f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(assoc)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_om(om: ObjectModel, format: OutputFormat) -> str:
    return _payload(format, _witness_form(format, None)(om))


# ---------------------------------------------------------------------------
# traces


def print_trace(trace: Trace) -> str:
    header = "inputs:"
    if trace.inputs:
        header += " " + ", ".join(f"{name}={value}" for name, value in trace.inputs)
    lines = [header]
    lines.extend(f"  {i}. {action}" for i, action in enumerate(trace.actions, 1))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Trace:
    """Parse the textual trace form back into a Trace.

    The first non-blank line is `inputs:` followed by comma-separated
    name=value pairs; each following line is a 1-based numbered action. Lines
    end at LF only, as in ``tokenize``.
    """
    diagnostics: list[Diagnostic] = []
    inputs: dict[str, str] = {}
    actions: list[str] = []
    seen_header = False
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        if not seen_header:
            if not line.startswith("inputs:"):
                diagnostics.append(Diagnostic(lineno, 1, "expected 'inputs:' header"))
                break
            seen_header = True
            rest = line[len("inputs:"):].strip()
            if not rest:
                continue
            for part in rest.split(","):
                name, sep, value = part.strip().partition("=")
                name, value = name.strip(), value.strip()
                if not sep or not is_ident(name) or not is_ident(value):
                    diagnostics.append(
                        Diagnostic(lineno, 1, f"malformed input binding '{part.strip()}'")
                    )
                elif name in inputs:
                    diagnostics.append(
                        Diagnostic(lineno, 1, f"duplicate input variable '{name}'")
                    )
                else:
                    inputs[name] = value
            continue
        digits, _, action = line.partition(".")
        action = action.strip()
        if not digits.isdecimal() or not is_ident(action):
            diagnostics.append(
                Diagnostic(lineno, 1, f"expected a numbered action step, found '{line}'")
            )
            continue
        number = int(digits)
        if number != len(actions) + 1:
            diagnostics.append(
                Diagnostic(
                    lineno, 1,
                    f"step number {number} out of order (expected {len(actions) + 1})",
                )
            )
            continue
        actions.append(action)
    if not seen_header and not diagnostics:
        diagnostics.append(Diagnostic(1, 1, "expected 'inputs:' header"))
    if diagnostics:
        raise ParseError(diagnostics)
    return Trace.make(inputs, actions)


def trace_json(trace: Trace) -> dict:
    return {"inputs": dict(trace.inputs), "actions": list(trace.actions)}


_NODE_STYLE = {
    NodeKind.INITIAL: 'shape=circle, style=filled, fillcolor=black, label=""',
    NodeKind.FINAL: 'shape=doublecircle, label=""',
    NodeKind.DECISION: "shape=diamond",
    NodeKind.MERGE: "shape=diamond",
    NodeKind.FORK: 'shape=box, style=filled, fillcolor=black, height=0.08, label=""',
    NodeKind.JOIN: 'shape=box, style=filled, fillcolor=black, height=0.08, label=""',
}


def trace_dot(ad: ActivityDiagram, trace: Trace) -> str:
    """The diagram's graph with trace steps numbered onto its action nodes.

    Actions visited by the trace are filled and carry their 1-based step
    numbers; actions the diagram does not know are listed in a comment block
    because they have no node to attach to.
    """
    steps: dict[str, list[int]] = {}
    foreign: list[tuple[int, str]] = []
    known = ad.action_names()
    for i, action in enumerate(trace.actions, 1):
        if action in known:
            steps.setdefault(action, []).append(i)
        else:
            foreign.append((i, action))

    lines = [f"digraph {_dot_quote(ad.name)} {{"]
    for node in ad.nodes:
        if node.kind is NodeKind.ACTION:
            if node.name in steps:
                numbers = ",".join(str(n) for n in steps[node.name])
                label = _dot_quote(f"{node.name} [{numbers}]")
                attrs = f'shape=box, style="rounded,filled", fillcolor=lightblue, label={label}'
            else:
                attrs = f"shape=box, style=rounded, label={_dot_quote(node.name)}"
        else:
            attrs = _NODE_STYLE[node.kind]
        lines.append(f"  {_dot_quote(node.name)} [{attrs}];")
    for edge in ad.edges:
        attrs = ""
        if edge.guard is not None:
            attrs = f" [label={_dot_quote(print_guard(edge.guard))}]"
        lines.append(f"  {_dot_quote(edge.src)} -> {_dot_quote(edge.dst)}{attrs};")
    if foreign:
        lines.append("  // foreign actions (not nodes of this diagram):")
        for i, action in foreign:
            lines.append(f"  //   {i}. {action}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_trace(ad: ActivityDiagram, trace: Trace, format: OutputFormat) -> str:
    return _payload(format, _witness_form(format, ad)(trace))


# ---------------------------------------------------------------------------
# diff results and histories


def diff_json(exhausted: bool, bound: int | None, witnesses: list[dict]) -> dict:
    return {
        "direction": "AtoB",
        "exhausted": exhausted,
        "bound": bound,
        "witnesses": witnesses,
    }


def render_diff(
    witnesses: list,
    exhausted: bool,
    bound: int | None,
    format: OutputFormat,
    ad: ActivityDiagram | None = None,
) -> str:
    """A diff result: object models searched up to ``bound`` objects per
    class or, given ``ad``, traces of ``ad`` cut at length ``bound``.

    Text is a headline and a numbered block per witness, DOT one graph per
    witness, and JSON one ``diff_json`` document.
    """
    form = _witness_form(format, ad)
    if format is OutputFormat.DOT:
        return "\n".join(form(w) for w in witnesses)
    if format is OutputFormat.JSON:
        return _json_dump(diff_json(exhausted, bound, [form(w) for w in witnesses]))
    state = "exhausted" if exhausted else "not exhausted"
    if ad is None:
        state += f", k={bound}"
    count = len(witnesses)
    head = "no witnesses" if count == 0 else f"{count} witness{'' if count == 1 else 'es'}"
    blocks = [f"witness {i}:\n{form(w)}" for i, w in enumerate(witnesses, 1)]
    return "".join([f"{head} ({state})\n", *blocks])


def render_history(rows, format: OutputFormat) -> str:
    """History rows (``from_file``, ``to_file``, ``verdict``, ``forward``,
    ``backward``) as an aligned text table or a JSON document."""
    if format is OutputFormat.DOT:
        raise ValueError("a history has no DOT form")
    columns = ("from", "to", "verdict", "forward", "backward")
    table = [(r.from_file, r.to_file, str(r.verdict), r.forward, r.backward) for r in rows]
    if format is OutputFormat.JSON:
        return _json_dump({"rows": [dict(zip(columns, row)) for row in table]})
    cells = [columns, *([str(value) for value in row] for row in table)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]
    return "".join(line + "\n" for line in lines)
