"""Seeded generators for the three workloads.

A workload is a list of queries plus the diagram texts they read. The seed
picks names, declaration order and, where it does not change the amount of
work, which of two symmetric choices is made; the sizes are fixed, so runs
with different seeds do the same work on differently named inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

from oracle import parse_ad, traces, valuations

CLASS_POOL = (
    "Account", "Booking", "Client", "Course", "Device", "Invoice", "Lesson", "Member",
    "Order", "Parcel", "Project", "Report", "Room", "Ticket", "Vendor", "Wallet",
)
SUPER_POOL = ("Asset", "Entity", "Holder", "Party", "Thing", "Unit")
ASSOC_POOL = ("books", "holds", "owns", "pays", "sends", "serves", "tracks", "uses")
ACTION_POOL = (
    "approve", "archive", "audit", "bill", "check", "close", "deliver", "draft",
    "grade", "inspect", "label", "notify", "pack", "quote", "rate", "review",
    "sign", "ship", "sort", "stamp", "test", "verify", "weigh", "wrap",
)
INPUT_POOL = ("big", "late", "paid", "remote", "senior", "signed", "urgent", "vip")

SMALL_BUDGET = 10
LARGE_BUDGET = 100
CHAIN_BUDGET = 300  # above 2**8, so the whole input-chain difference is listed
CD_BUDGET = 20
UNCAPPED = 1000  # more than the 144 models of the A/A1 pair at k=11

FIXTURES = ("cd1v1.cd", "cd1v2.cd", "cd5v1.cd", "cd5v2.cd", "adv1.ad", "adv2.ad", "adv3.ad", "adv4.ad")

CD5V1 = """classdiagram cd5 {
  class Employee;
  class Address;
  association livesIn [*] Employee -- Address [*];
}
"""
CD5V2 = """classdiagram cd5 {
  abstract class Person;
  class Employee extends Person;
  class Address;
  association livesIn [*] Person -- Address [*];
}
"""
A_PLAIN = "classdiagram ids { class A; class A1; }\n"
A_SINGLETON = "classdiagram ids { class A; singleton class A1; }\n"


@dataclass
class Query:
    """One operation. ``kind`` is verdict, diff or other; ``expect`` says how
    the answer is judged; ``reps`` back-to-back calls make one pass's share;
    ``heavy`` queries take about a second and are left out of the warm-up and
    the second-hash-seed cross-check; ``known_fault`` names a fault that makes
    the query fail until it is fixed."""

    qid: str
    kind: str
    op: list
    expect: dict
    reps: int = 1
    heavy: bool = False
    known_fault: str | None = None


@dataclass
class Workload:
    name: str
    texts: dict = field(default_factory=dict)  # file name -> diagram text
    queries: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# class diagrams


@dataclass
class CdSpec:
    """A chain of classes C0 - r0 - C1 - r1 - ..., each association [*] at both
    ends unless tightened to [0..1], optionally lifted to an abstract parent."""

    name: str
    classes: list
    assocs: list  # [name, left_index, right_index]
    tight: set = field(default_factory=set)  # (assoc index, "left" | "right")
    lifted: dict = field(default_factory=dict)  # assoc index -> superclass name

    def copy(self):
        return CdSpec(self.name, list(self.classes), [list(a) for a in self.assocs],
                      set(self.tight), dict(self.lifted))

    def text(self, rng):
        lines = []
        parents = {self.assocs[i][1]: sup for i, sup in self.lifted.items()}
        for sup in self.lifted.values():
            lines.append(f"abstract class {sup};")
        for i, cls in enumerate(self.classes):
            ext = f" extends {parents[i]}" if i in parents else ""
            lines.append(f"class {cls}{ext};")
        for i, (name, left, right) in enumerate(self.assocs):
            lcls = self.lifted.get(i, self.classes[left])
            lm = "0..1" if (i, "left") in self.tight else "*"
            rm = "0..1" if (i, "right") in self.tight else "*"
            lines.append(f"association {name} [{lm}] {lcls} -- {self.classes[right]} [{rm}];")
        rng.shuffle(lines)
        return f"classdiagram {self.name} {{\n" + "".join(f"  {ln}\n" for ln in lines) + "}\n"


def cd_chain(rng, n_classes):
    classes = rng.sample(CLASS_POOL, n_classes)
    names = rng.sample(ASSOC_POOL, n_classes - 1)
    return CdSpec(rng.choice(("shop", "school", "office")), classes,
                  [[names[i], i, i + 1] for i in range(n_classes - 1)])


# (classes, k, edit, reps, heavy); the cd5 pair at k=4 is added literally.
CD_SCHEDULE = (
    (2, 2, "tighten", 8, False), (2, 3, "tighten", 4, False), (2, 4, "tighten", 2, False),
    (2, 2, "lift", 8, False), (2, 3, "lift", 2, False),
    (3, 2, "tighten", 2, False), (3, 2, "lift", 2, False),
    (4, 2, "tighten", 1, False), (4, 2, "lift", 1, True),
)


def cd_pair_queries(wl, tag, left, right, k, edit_verdict, reps, heavy):
    """compare_cd plus cddiff in both directions for one pair of files."""
    fwd, bwd = edit_verdict in ("RIGHT_REFINES_LEFT", "INCOMPARABLE"), edit_verdict in (
        "LEFT_REFINES_RIGHT", "INCOMPARABLE")
    wl.queries.append(Query(f"{tag}.compare", "verdict", ["compare_cd", left, right, k],
                            {"verdict": edit_verdict}, reps, heavy))
    for d, (a, b, nonempty) in (("fwd", (left, right, fwd)), ("bwd", (right, left, bwd))):
        wl.queries.append(Query(f"{tag}.diff_{d}", "diff", ["cddiff", a, b, k, CD_BUDGET],
                                {"cd_diff": [a, b, k, CD_BUDGET], "nonempty": nonempty}, reps, heavy))


def cd_bounded(seed, small=False):
    rng = random.Random(seed)
    wl = Workload("cd-bounded")
    for i, (n, k, edit, reps, heavy) in enumerate(CD_SCHEDULE):
        if small and k > 2:
            continue
        base = cd_chain(rng, n)
        edited = base.copy()
        if edit == "tighten":
            edited.tight.add((0, "right"))
            verdict = "RIGHT_REFINES_LEFT"
        else:
            edited.lifted[0] = rng.choice(SUPER_POOL)
            verdict = "EQUIVALENT"
        pair = [base, edited]
        if rng.random() < 0.5:
            pair.reverse()
            verdict = {"RIGHT_REFINES_LEFT": "LEFT_REFINES_RIGHT"}.get(verdict, verdict)
        files = [f"p{i}_{side}.cd" for side in ("l", "r")]
        for f, spec in zip(files, pair):
            wl.texts[f] = spec.text(rng)
        cd_pair_queries(wl, f"s{n}k{k}.{edit}", *files, k, verdict, reps, heavy)
    wl.texts["cd5v1.cd"], wl.texts["cd5v2.cd"] = CD5V1, CD5V2
    cd_pair_queries(wl, "cd5k4.lift", "cd5v1.cd", "cd5v2.cd", 2 if small else 4, "EQUIVALENT", 1, True)
    wl.texts["ids_plain.cd"], wl.texts["ids_singleton.cd"] = A_PLAIN, A_SINGLETON
    wl.queries.append(Query(
        "ids.k11.diff_fwd", "diff", ["cddiff", "ids_plain.cd", "ids_singleton.cd", 11, UNCAPPED],
        {"count_vectors": {"k": 11, "singleton_index": 1}}, 1, False,
        known_fault="object ids of A (a1..a11) collide with those of A1 (a11..)"))
    return wl


# ---------------------------------------------------------------------------
# activity diagrams


def ad_text(name, inputs, nodes, edges, rng):
    """``nodes`` are (keyword, name); ``edges`` are (src, dst, guard text)."""
    lines = [f"input {v}: bool;" for v in inputs] + [f"{kw} {n};" for kw, n in nodes]
    rng.shuffle(lines)
    lines += [f"{s} -[{g}]-> {d};" if g else f"{s} -> {d};" for s, d, g in edges]
    return f"activity {name} {{\n" + "".join(f"  {ln}\n" for ln in lines) + "}\n"


def fork_pair(rng, n):
    """An n-way fork of single actions, then a final action; the variant puts
    the pair (first, second) in sequence on one branch."""
    acts = rng.sample(ACTION_POOL, n + 1)
    fin, acts = acts[0], acts[1:]
    first, second = rng.sample(acts, 2)
    nodes = [("action", a) for a in acts + [fin]] + [("fork", "split"), ("join", "sync")]
    tail = [("sync", fin, None), (fin, "end", None)]
    plain = [("start", "split", None)] + [e for a in acts for e in (("split", a, None), (a, "sync", None))]
    seq = [("start", "split", None)]
    for a in acts:
        if a == first:
            seq += [("split", a, None), (a, second, None), (second, "sync", None)]
        elif a != second:
            seq += [("split", a, None), (a, "sync", None)]
    texts = [ad_text("work", [], nodes, plain + tail, rng), ad_text("work", [], nodes, seq + tail, rng)]
    return texts, {"actions": acts, "first": first, "second": second, "final": fin}


def fork_witnesses(info, limit):
    """The first ``limit`` forward witnesses of a fork pair: interleavings with
    the sequenced pair reversed, then the final action, lexicographically."""
    out = []
    for perm in permutations(sorted(info["actions"])):
        if perm.index(info["second"]) < perm.index(info["first"]):
            out.append(((), perm + (info["final"],)))
            if len(out) == limit:
                break
    return out


def chain_spec(rng, n):
    vars_ = rng.sample(INPUT_POOL, n)
    acts = rng.sample(ACTION_POOL, 2 * n)
    return {"vars": vars_, "yes": acts[:n], "no": acts[n:], "swap": rng.randrange(n)}


def chain_text(spec, swapped, rng):
    """n decisions in a row, decision i taking its yes action when input i holds;
    the swapped copy exchanges the guards of one decision."""
    n = len(spec["vars"])
    nodes, edges = [], [("start", "d0", None)]
    for i, v in enumerate(spec["vars"]):
        y, no = spec["yes"][i], spec["no"][i]
        nodes += [("decision", f"d{i}"), ("merge", f"m{i}"), ("action", y), ("action", no)]
        gy, gn = (f"!{v}", v) if swapped and i == spec["swap"] else (v, f"!{v}")
        edges += [(f"d{i}", y, gy), (f"d{i}", no, gn), (y, f"m{i}", None), (no, f"m{i}", None),
                  (f"m{i}", f"d{i + 1}" if i + 1 < n else "end", None)]
    return ad_text("route", spec["vars"], nodes, edges, rng)


def chain_witnesses(spec):
    """One forward witness per valuation: the plain diagram's only trace."""
    out = []
    for v in valuations(parse_ad(chain_text(spec, False, random.Random(0)))):
        env = dict(v)
        word = tuple(spec["yes"][i] if env[x] == "true" else spec["no"][i]
                     for i, x in enumerate(spec["vars"]))
        out.append((v, word))
    return out


def ad_traces(seed, small=False):
    rng = random.Random(seed)
    wl = Workload("ad-traces")
    for n in range(4, 6 if small else 10):
        (a, b), info = fork_pair(rng, n)
        fa, fb = f"fork{n}_plain.ad", f"fork{n}_seq.ad"
        wl.texts[fa], wl.texts[fb] = a, b
        reps = 4 if n <= 6 else 1
        wl.queries.append(Query(f"fork{n}.compare", "verdict", ["compare_ad", fa, fb],
                                {"verdict": "RIGHT_REFINES_LEFT"}, reps, n >= 9))
        wl.queries.append(Query(f"fork{n}.diff_fwd_small", "diff", ["addiff", fa, fb, SMALL_BUDGET],
                                {"fork": info, "budget": SMALL_BUDGET}, reps, n >= 9))
        wl.queries.append(Query(f"fork{n}.diff_bwd_small", "diff", ["addiff", fb, fa, SMALL_BUDGET],
                                {"empty": True, "budget": SMALL_BUDGET}, 4 if n <= 7 else 1))
        if n <= 8:
            wl.queries.append(Query(f"fork{n}.diff_fwd_large", "diff", ["addiff", fa, fb, LARGE_BUDGET],
                                    {"fork": info, "budget": LARGE_BUDGET}, 4 if n <= 4 else 1, n >= 8))
    for n in range(2, 4 if small else 9):
        spec = chain_spec(rng, n)
        fa, fb = f"chain{n}_plain.ad", f"chain{n}_swap.ad"
        wl.texts[fa], wl.texts[fb] = chain_text(spec, False, rng), chain_text(spec, True, rng)
        wl.queries.append(Query(f"chain{n}.compare", "verdict", ["compare_ad", fa, fb],
                                {"verdict": "INCOMPARABLE"}, 4, False))
        for size, budget in (("small", SMALL_BUDGET), ("large", CHAIN_BUDGET)):
            wl.queries.append(Query(
                f"chain{n}.diff_fwd_{size}", "diff", ["addiff", fa, fb, budget],
                {"chain": spec, "budget": budget},
                4 if size == "small" or n <= 5 else 1, size == "large" and n >= 8))
    for i in range(1, 4):
        a, b = f"adv{i}.ad", f"adv{i + 1}.ad"
        wl.texts[a] = wl.texts[b] = None  # filled from the fixtures
        wl.queries.append(Query(f"adv{i}.compare", "verdict", ["compare_ad", a, b], {"ad_full": True}, 4))
        for d, (x, y) in (("fwd", (a, b)), ("bwd", (b, a))):
            wl.queries.append(Query(f"adv{i}.diff_{d}", "diff", ["addiff", x, y, SMALL_BUDGET],
                                    {"ad_full": True, "budget": SMALL_BUDGET}, 4))
    return wl


# ---------------------------------------------------------------------------
# command line


HISTORY_CD_SCRIPT = (
    ("tighten", 0, "right"), ("lift", 1), ("tighten", 1, "left"), ("loosen", 0, "right"),
    ("lift", 0), ("tighten", 0, "right"), ("unlift", 1), ("loosen", 1, "left"), ("unlift", 0),
)
HISTORY_AD_SCRIPT = (
    ("sequence", 0, 1), ("swap",), ("sequence", 2, 3), ("unsequence", 0, 1), ("swap",),
    ("unsequence", 2, 3), ("sequence", 1, 3), ("swap",), ("unsequence", 1, 3),
)
EDIT_VERDICT = {
    "tighten": "RIGHT_REFINES_LEFT", "loosen": "LEFT_REFINES_RIGHT", "lift": "EQUIVALENT",
    "unlift": "EQUIVALENT", "sequence": "RIGHT_REFINES_LEFT", "unsequence": "LEFT_REFINES_RIGHT",
    "swap": "INCOMPARABLE",
}
HISTORY_BOUND = 2


def history_cd_chain(rng):
    spec = cd_chain(rng, 3)
    supers = rng.sample(SUPER_POOL, 2)
    texts = [spec.text(rng)]
    for edit in HISTORY_CD_SCRIPT:
        if edit[0] == "tighten":
            spec.tight.add(edit[1:])
        elif edit[0] == "loosen":
            spec.tight.discard(edit[1:])
        elif edit[0] == "lift":
            spec.lifted[edit[1]] = supers[edit[1]]
        else:
            del spec.lifted[edit[1]]
        texts.append(spec.text(rng))
    return texts, [EDIT_VERDICT[e[0]] for e in HISTORY_CD_SCRIPT]


def history_ad_chain(rng):
    """A decision on one input picks one of two actions, then a fork of four
    actions whose branches the script puts in and out of sequence."""
    var = rng.choice(INPUT_POOL)
    acts = rng.sample(ACTION_POOL, 8)
    first, yes, no, fin, xs = acts[0], acts[1], acts[2], acts[3], acts[4:]
    branches = [[x] for x in xs]
    swapped = False

    def text():
        nodes = [("action", a) for a in acts] + [("decision", "route"), ("merge", "rejoin"),
                                                  ("fork", "split"), ("join", "sync")]
        gy, gn = (f"!{var}", var) if swapped else (var, f"!{var}")
        edges = [("start", first, None), (first, "route", None), ("route", yes, gy),
                 ("route", no, gn), (yes, "rejoin", None), (no, "rejoin", None),
                 ("rejoin", "split", None)]
        for br in branches:
            edges.append(("split", br[0], None))
            edges += [(x, y, None) for x, y in zip(br, br[1:])]
            edges.append((br[-1], "sync", None))
        edges += [("sync", fin, None), (fin, "end", None)]
        return ad_text("onboard", [var], nodes, edges, rng)

    texts = [text()]
    for edit in HISTORY_AD_SCRIPT:
        if edit[0] == "swap":
            swapped = not swapped
        elif edit[0] == "sequence":
            a, b = xs[edit[1]], xs[edit[2]]
            branches = [br for br in branches if br not in ([a], [b])] + [[a, b]]
        else:
            a, b = xs[edit[1]], xs[edit[2]]
            branches = [br for br in branches if br != [a, b]] + [[a], [b]]
        texts.append(text())
    return texts, [EDIT_VERDICT[e[0]] for e in HISTORY_AD_SCRIPT]


def cli_history(seed, small=False):
    rng = random.Random(seed)
    wl = Workload("cli-history")
    for f in FIXTURES:
        wl.texts[f] = None
    q = wl.queries
    fmts = ("text", "dot", "json")
    for a, b, nonempty in (("cd1v1", "cd1v2", True), ("cd1v2", "cd1v1", True),
                           ("cd5v1", "cd5v2", False), ("cd5v2", "cd5v1", False)):
        for fmt in fmts:
            q.append(Query(f"cli.cd_diff.{a}.{b}.{fmt}", "diff",
                           ["cli", "cd", "diff", f"{a}.cd", f"{b}.cd", "--format", fmt],
                           {"cd_diff": [f"{a}.cd", f"{b}.cd", 3, 10], "nonempty": nonempty, "format": fmt}))
    for a, b, verdict in (("cd1v1", "cd1v2", "INCOMPARABLE"), ("cd5v1", "cd5v2", "EQUIVALENT")):
        q.append(Query(f"cli.cd_compare.{a}.{b}", "verdict", ["cli", "cd", "compare", f"{a}.cd", f"{b}.cd"],
                       {"verdict": verdict, "bound": 3}, 2))
    for i in range(1, 4):
        a, b = f"adv{i}.ad", f"adv{i + 1}.ad"
        for x, y in ((a, b), (b, a)):
            for fmt in fmts:
                q.append(Query(f"cli.ad_diff.{x}.{y}.{fmt}", "diff", ["cli", "ad", "diff", x, y, "--format", fmt],
                               {"ad_full": True, "budget": 10, "format": fmt}, 2))
        q.append(Query(f"cli.ad_compare.{a}.{b}", "verdict", ["cli", "ad", "compare", a, b], {"ad_full": True}, 2))
    cd_texts, cd_verdicts = history_cd_chain(rng)
    ad_texts, ad_verdicts = history_ad_chain(rng)
    cd_files = [f"hist_{i:02d}.cd" for i in range(len(cd_texts))]
    ad_files = [f"hist_{i:02d}.ad" for i in range(len(ad_texts))]
    wl.texts.update(zip(cd_files, cd_texts))
    wl.texts.update(zip(ad_files, ad_texts))
    histories = (
        ("cd.fixtures", "cd", ["cd1v1.cd", "cd1v2.cd"], ["INCOMPARABLE"], 3),
        ("ad.fixtures", "ad", [f"adv{i}.ad" for i in range(1, 5)], None, None),
        ("cd.chain", "cd", cd_files, cd_verdicts, HISTORY_BOUND),
        ("ad.chain", "ad", ad_files, ad_verdicts, None),
    )
    for tag, kind, files, verdicts, bound in histories:
        extra = ["--bound", str(bound)] if bound is not None and bound != 3 else []
        for fmt in ("text", "json"):
            q.append(Query(f"cli.history.{tag}.{fmt}", "verdict", ["cli", "history", kind, *files, *extra,
                                                                   "--format", fmt],
                           {"history": kind, "files": files, "verdicts": verdicts, "bound": bound or 3,
                            "format": fmt}))
    om = random_om(rng)
    wl.texts["sample.om"] = om
    ad_file = ad_files[0]
    ad = parse_ad(ad_texts[0])
    v = rng.choice(valuations(ad))
    word = rng.choice(sorted(traces(ad, dict(v))))
    wl.texts["sample.trace"] = "inputs: " + ", ".join(f"{n}={x}" for n, x in v) + "\n" + "".join(
        f"  {i}. {a}\n" for i, a in enumerate(word, 1))
    for fmt in fmts:
        q.append(Query(f"cli.render_om.{fmt}", "other", ["cli", "render", "om", "sample.om", "--format", fmt],
                       {"render_om": "sample.om", "format": fmt}, 4))
        q.append(Query(f"cli.render_trace.{fmt}", "other",
                       ["cli", "render", "trace", ad_file, "sample.trace", "--format", fmt],
                       {"render_trace": [ad_file, "sample.trace"], "format": fmt}, 4))
    return wl


def random_om(rng):
    classes = rng.sample(CLASS_POOL, 2)
    assoc = rng.choice(ASSOC_POOL)
    objs = {f"{c.lower()}{i}": c for c in classes for i in range(1, 4)}
    order = list(objs)
    rng.shuffle(order)
    lines = [f"  {o}: {objs[o]};" for o in order]
    srcs = [o for o in objs if objs[o] == classes[0]]
    dsts = [o for o in objs if objs[o] == classes[1]]
    lines += [f"  link {assoc} {s} -- {d};" for s in srcs for d in dsts if rng.random() < 0.5]
    return "objectmodel sample {\n" + "\n".join(lines) + "\n}\n"


BUILDERS = {"cd-bounded": cd_bounded, "ad-traces": ad_traces, "cli-history": cli_history}


def build(name, seed, fixture_dir, small=False):
    """The workload with every text filled in, fixtures read from ``fixture_dir``;
    ``small`` keeps only the smallest sizes of each family."""
    wl = BUILDERS[name](seed, small)
    for f, text in wl.texts.items():
        if text is None:
            wl.texts[f] = (Path(fixture_dir) / f).read_text(encoding="utf-8")
    return wl

