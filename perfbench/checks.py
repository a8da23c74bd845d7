"""Judging each answer against the expected computation in ``oracle``.

``check`` returns a list of problems, empty when the answer is right. Outputs
arrive as plain data: verdicts as strings, object models as sorted
(id, class) and (assoc, src, dst) lists, traces as (inputs, actions).
"""

from __future__ import annotations

import json
import re

import oracle
from oracle import Om, check_listing, is_member, replay
from workloads import chain_witnesses, fork_witnesses


class Context:
    """Parsed inputs and cached expectations for one workload."""

    def __init__(self, texts):
        self.texts = texts
        self._cache = {}

    def cd(self, f):
        return self._memo(("cd", f), lambda: oracle.parse_cd(self.texts[f]))

    def ad(self, f):
        return self._memo(("ad", f), lambda: oracle.parse_ad(self.texts[f]))

    def cd_prefix(self, a, b, k, limit):
        return self._memo(("cdp", a, b, k, limit),
                          lambda: oracle.cd_diff_prefix(self.cd(a), self.cd(b), k, limit))

    def ad_full(self, a, b):
        return self._memo(("adf", a, b), lambda: oracle.ad_diff_full(self.ad(a), self.ad(b)))

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]


def om_of(data):
    objects, links = data
    return Om(tuple(map(tuple, objects)), tuple(map(tuple, links)))


def trace_of(data):
    inputs, actions = data
    return (tuple(map(tuple, inputs)), tuple(actions))


# ---------------------------------------------------------------------------
# witness lists


def cd_expected(ctx, a, b, k, budget, nonempty):
    """(expected prefix, complete) for A minus B at bound k."""
    if not nonempty:
        return [], True
    found = ctx.cd_prefix(a, b, k, budget + 1)
    return found, len(found) <= budget


def check_cd_witnesses(ctx, a, b, k, budget, nonempty, got, exhausted):
    problems = []
    for w in got:
        if not is_member(w, ctx.cd(a)) or is_member(w, ctx.cd(b)):
            problems.append(f"witness is not in {a} minus {b}:\n{w.text()}")
            break
    if got != sorted(got, key=Om.key):
        problems.append("witnesses are not in the documented order")
    expected, complete = cd_expected(ctx, a, b, k, budget, nonempty)
    return problems + check_listing(got, exhausted, budget, expected, complete)


def ad_expected(ctx, a, b, expect, budget):
    if expect.get("empty"):
        return [], True
    if "fork" in expect:
        found = fork_witnesses(expect["fork"], budget + 1)
        return found, len(found) <= budget
    if "chain" in expect:
        return chain_witnesses(expect["chain"]), True
    return ctx.ad_full(a, b), True


def check_ad_witnesses(ctx, a, b, expect, budget, got, exhausted):
    problems = []
    for inputs, actions in got:
        if not replay(ctx.ad(a), inputs, actions) or replay(ctx.ad(b), inputs, actions):
            problems.append(f"witness {inputs} {actions} is not in {a} minus {b}")
            break
    expected, complete = ad_expected(ctx, a, b, expect, budget)
    return problems + check_listing(got, exhausted, budget, expected, complete)


def check_ids(ctx, a, b, expect, got, exhausted):
    """A/A1 at k=11: one witness per count vector (a, b) with b != 1."""
    k = expect["k"]
    problems = []
    if len(set(got)) != len(got):
        problems.append(f"{len(got) - len(set(got))} of {len(got)} witnesses are duplicates")
    for w in got:
        if not is_member(w, ctx.cd(a)) or is_member(w, ctx.cd(b)):
            problems.append(f"witness is not in {a} minus {b}:\n{w.text()}")
            break
    vectors = sorted((sum(c == "A" for _, c in w.objects), sum(c == "A1" for _, c in w.objects)) for w in got)
    want = sorted((x, y) for x in range(k + 1) for y in range(k + 1) if y != 1)
    if vectors != want:
        problems.append(f"count vectors cover {len(set(vectors))} of the {len(want)} expected")
    if got != sorted(got, key=Om.key):
        problems.append("witnesses are not in the documented order")
    if not exhausted:
        problems.append("an uncapped search is not marked exhausted")
    return problems


# ---------------------------------------------------------------------------
# library calls


def check_library(ctx, q, out):
    op, e = q.op, q.expect
    if op[0] in ("compare_cd", "compare_ad"):
        want = e.get("verdict") or ad_verdict(ctx, op[1], op[2])
        bounded = op[0] == "compare_cd"
        problems = [] if out["verdict"] == want else [f"verdict {out['verdict']}, expected {want}"]
        if out["bounded"] != bounded:
            problems.append(f"bounded is {out['bounded']}")
        return problems
    if op[0] == "cddiff":
        got = [om_of(w) for w in out["witnesses"]]
        if "count_vectors" in e:
            return check_ids(ctx, op[1], op[2], e["count_vectors"], got, out["exhausted"])
        return check_cd_witnesses(ctx, op[1], op[2], op[3], op[4], e["nonempty"], got, out["exhausted"])
    got = [trace_of(w) for w in out["witnesses"]]
    return check_ad_witnesses(ctx, op[1], op[2], e, op[3], got, out["exhausted"])


def ad_verdict(ctx, a, b):
    return oracle.verdict(bool(ctx.ad_full(a, b)), bool(ctx.ad_full(b, a)))


# ---------------------------------------------------------------------------
# command-line calls


_HEADLINE = re.compile(r"^(?:no witnesses|(\d+) witness(?:es)?) \((exhausted|not exhausted)(?:, k=(\d+))?\)$")
_DOT_OBJ = re.compile(r'^\s*"(\w+)" \[label="(\w+):(\w+)"\];$')
_DOT_LINK = re.compile(r'^\s*"(\w+)" -> "(\w+)" \[label="(\w+)"\];$')
_DOT_STEP = re.compile(r'label="(\w+) \[([\d,]+)\]"')


def parse_trace_text(text):
    lines = text.strip("\n").split("\n")
    head = lines[0][len("inputs:"):].strip()
    inputs = tuple(tuple(p.strip().split("=")) for p in head.split(",")) if head else ()
    actions = tuple(ln.split(". ", 1)[1].strip() for ln in lines[1:])
    return (inputs, actions)


def read_text_listing(out, lang):
    """(witnesses, exhausted) from the text format, or raise ValueError."""
    head, _, rest = out.partition("\n")
    m = _HEADLINE.match(head)
    if m is None:
        raise ValueError(f"bad headline {head!r}")
    blocks = re.split(r"^witness \d+:\n", rest, flags=re.M)[1:]
    if len(blocks) != int(m.group(1) or 0):
        raise ValueError(f"headline says {m.group(1) or 0} witnesses, found {len(blocks)}")
    parse = oracle.parse_om if lang == "cd" else parse_trace_text
    return [parse(b) for b in blocks], m.group(2) == "exhausted"


def om_from_json(doc):
    return Om.make({o["id"]: o["class"] for o in doc["objects"]},
                   [(ln["assoc"], ln["src"], ln["dst"]) for ln in doc["links"]])


def read_json_listing(out, lang):
    doc = json.loads(out)
    if lang == "cd":
        ws = [om_from_json(w) for w in doc["witnesses"]]
    else:
        ws = [(tuple(sorted(w["inputs"].items())), tuple(w["actions"])) for w in doc["witnesses"]]
    return ws, doc["exhausted"]


def dot_blocks(out):
    return [b for b in re.split(r"^(?=digraph )", out, flags=re.M) if b.strip()]


def dot_om(block):
    objects, links = {}, []
    for line in block.split("\n"):
        m = _DOT_OBJ.match(line)
        if m and m.group(1) == m.group(2):
            objects[m.group(1)] = m.group(3)
        m = _DOT_LINK.match(line)
        if m:
            links.append((m.group(3), m.group(1), m.group(2)))
    return Om.make(objects, links)


def dot_actions(block):
    steps = {}
    for name, numbers in _DOT_STEP.findall(block):
        for n in numbers.split(","):
            steps[int(n)] = name
    return tuple(steps[i] for i in sorted(steps))


def check_cli_listing(ctx, q, res):
    argv, e = q.op[1:], q.expect
    lang, a, b, fmt = argv[0], argv[2], argv[3], e["format"]
    if lang == "cd":
        k, budget = e["cd_diff"][2], e["cd_diff"][3]
        expected, _ = cd_expected(ctx, a, b, k, budget, e["nonempty"])
    else:
        budget = e["budget"]
        expected, _ = ad_expected(ctx, a, b, e, budget)
    expected = expected[:budget]
    want_code = 1 if expected else 0
    problems = [] if res["code"] == want_code else [f"exit code {res['code']}, expected {want_code}"]
    if fmt == "dot":
        blocks = dot_blocks(res["out"])
        if len(blocks) != len(expected):
            return problems + [f"DOT output draws {len(blocks)} witnesses, expected {len(expected)}"]
        if lang == "cd":
            got = [dot_om(bl) for bl in blocks]
        else:
            got = [(w[0], dot_actions(bl)) for w, bl in zip(expected, blocks)]
        if got != expected:
            problems.append("DOT output draws witnesses that differ from the expected ones")
        return problems
    got, exhausted = (read_text_listing if fmt == "text" else read_json_listing)(res["out"], lang)
    if lang == "cd":
        return problems + check_cd_witnesses(ctx, a, b, k, budget, e["nonempty"], got, exhausted)
    return problems + check_ad_witnesses(ctx, a, b, e, budget, got, exhausted)


def expected_history(ctx, q):
    e = q.expect
    files, kind, rows = e["files"], e["history"], []
    for i, (old, new) in enumerate(zip(files, files[1:])):
        if kind == "cd":
            verdict = e["verdicts"][i]
            counts = []
            for x, y, nonempty in ((old, new, verdict in ("RIGHT_REFINES_LEFT", "INCOMPARABLE")),
                                   (new, old, verdict in ("LEFT_REFINES_RIGHT", "INCOMPARABLE"))):
                counts.append(min(10, len(cd_expected(ctx, x, y, e["bound"], 10, nonempty)[0])))
        else:
            counts = [min(10, len(ctx.ad_full(old, new))), min(10, len(ctx.ad_full(new, old)))]
            verdict = oracle.verdict(*(c > 0 for c in counts))
            if e["verdicts"] is not None and e["verdicts"][i] != verdict:
                raise AssertionError(f"edit verdict {e['verdicts'][i]} disagrees with the oracle ({verdict})")
        rows.append([old, new, verdict, counts[0], counts[1]])
    return rows


def check_history(ctx, q, res):
    want = expected_history(ctx, q)
    out = res["out"]
    if q.expect["format"] == "json":
        got = [[r["from"], r["to"], r["verdict"], r["forward"], r["backward"]] for r in json.loads(out)["rows"]]
    else:
        lines = out.strip("\n").split("\n")
        got = [[f, t, v, int(x), int(y)] for f, t, v, x, y in (ln.split() for ln in lines[1:])]
    problems = [] if got == want else [f"history rows {got} differ from expected {want}"]
    want_code = 0 if all(r[2] == "EQUIVALENT" for r in want) else 1
    if res["code"] != want_code:
        problems.append(f"exit code {res['code']}, expected {want_code}")
    return problems


def check_render(ctx, q, res):
    e, out = q.expect, res["out"]
    fmt = e["format"]
    if "render_om" in e:
        om = oracle.parse_om(ctx.texts[e["render_om"]])
        if fmt == "text":
            ok = out == om.text("sample")
        elif fmt == "json":
            ok = om_from_json(json.loads(out)) == om
        else:
            ok = dot_om(out) == om
    else:
        ad_file, trace_file = e["render_trace"]
        inputs, actions = parse_trace_text(ctx.texts[trace_file])
        if fmt == "text":
            ok = parse_trace_text(out) == (inputs, actions)
        elif fmt == "json":
            doc = json.loads(out)
            ok = (tuple(sorted(doc["inputs"].items())), tuple(doc["actions"])) == (inputs, actions)
        else:
            ok = dot_actions(out) == actions
        ok = ok and replay(ctx.ad(ad_file), inputs, actions)
    problems = [] if ok else [f"rendered {fmt} output does not match the model"]
    if res["code"] != 0:
        problems.append(f"exit code {res['code']}, expected 0")
    return problems


def check_cli(ctx, q, res):
    argv, e = q.op[1:], q.expect
    if res["err"]:
        return [f"unexpected stderr: {res['err'][:200]!r}"]
    if argv[0] in ("cd", "ad") and argv[1] == "diff":
        return check_cli_listing(ctx, q, res)
    if argv[0] in ("cd", "ad") and argv[1] == "compare":
        want = e.get("verdict") or ad_verdict(ctx, argv[2], argv[3])
        text = f"{want} (bounded k={e['bound']})" if argv[0] == "cd" else want
        problems = [] if res["out"] == text + "\n" else [f"printed {res['out']!r}, expected {text!r}"]
        if res["code"] != (0 if want == "EQUIVALENT" else 1):
            problems.append(f"exit code {res['code']}")
        return problems
    if argv[0] == "history":
        return check_history(ctx, q, res)
    return check_render(ctx, q, res)


def check(ctx, q, out):
    """Problems with one query's output. A call that raised is one problem;
    output the checks cannot read raises here."""
    if "error" in out:
        return [f"raised {out['error']}"]
    if q.op[0] == "cli":
        return check_cli(ctx, q, out)
    return check_library(ctx, q, out)
