"""The benchmark's own semantics, written from the module docstrings of semdiff.

Nothing here imports semdiff. Diagram text is read by small parsers for the
subset of the languages the benchmark generates (and the fixtures use), and
answers are judged by an independent membership check, an independent token
game and a brute-force enumeration, so that a wrong answer from the program
cannot also be the expected one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations, product

# ---------------------------------------------------------------------------
# class diagrams and object models


@dataclass
class Cd:
    modifiers: dict  # class -> "concrete" | "abstract" | "singleton"
    parent: dict  # child -> parent
    assocs: list  # (name, (lmin, lmax), left, right, (rmin, rmax)); max None = *

    def closure(self, cls):
        """``cls`` and every class that transitively extends it."""
        out = {cls}
        grew = True
        while grew:
            grew = False
            for child, par in self.parent.items():
                if par in out and child not in out:
                    out.add(child)
                    grew = True
        return out


def _strip_comments(text):
    return re.sub(r"//[^\n]*", "", text)


def _mult(text):
    if text is None or text == "*":
        return (0, None)
    lo, _, hi = text.partition("..")
    if not hi:
        return (int(lo), int(lo))
    return (int(lo), None if hi == "*" else int(hi))


_CLASS_RE = re.compile(r"^(abstract|singleton)?\s*class\s+(\w+)(?:\s+extends\s+(\w+))?$")
_ASSOC_RE = re.compile(
    r"^association\s+(\w+)\s*(?:\[([^\]]+)\])?\s*(\w+)\s*--\s*(\w+)\s*(?:\[([^\]]+)\])?$"
)


def parse_cd(text):
    body = _strip_comments(text)
    body = body[body.index("{") + 1: body.rindex("}")]
    cd = Cd({}, {}, [])
    for stmt in (s.strip() for s in body.split(";")):
        if not stmt:
            continue
        m = _CLASS_RE.match(stmt)
        if m:
            cd.modifiers[m.group(2)] = m.group(1) or "concrete"
            if m.group(3):
                cd.parent[m.group(2)] = m.group(3)
            continue
        m = _ASSOC_RE.match(stmt)
        if not m:
            raise ValueError(f"unsupported class-diagram statement {stmt!r}")
        name, lm, left, right, rm = m.groups()
        cd.assocs.append((name, _mult(lm), left, right, _mult(rm)))
    return cd


@dataclass(frozen=True)
class Om:
    objects: tuple  # sorted (id, class)
    links: tuple  # sorted (assoc, src, dst)

    @staticmethod
    def make(objects, links):
        return Om(tuple(sorted(objects.items())), tuple(sorted(links)))

    def text(self, name="om"):
        """The canonical text form: objects by id, links by (assoc, src, dst)."""
        lines = [f"objectmodel {name} {{"]
        lines += [f"  {oid}: {cls};" for oid, cls in self.objects]
        lines += [f"  link {a} {s} -- {t};" for a, s, t in self.links]
        return "\n".join(lines + ["}"]) + "\n"

    def key(self):
        """The documented witness order: total object count, then canonical text."""
        return (len(self.objects), self.text())


_OM_OBJ_RE = re.compile(r"^(\w+)\s*:\s*(\w+)$")
_OM_LINK_RE = re.compile(r"^link\s+(\w+)\s+(\w+)\s*--\s*(\w+)$")


def parse_om(text):
    body = text[text.index("{") + 1: text.rindex("}")]
    objects, links = {}, []
    for stmt in (s.strip() for s in body.split(";")):
        if not stmt:
            continue
        m = _OM_LINK_RE.match(stmt) or _OM_OBJ_RE.match(stmt)
        if m is None:
            raise ValueError(f"unsupported object-model statement {stmt!r}")
        if len(m.groups()) == 3:
            links.append(m.groups())
        else:
            objects[m.group(1)] = m.group(2)
    return Om.make(objects, links)


def _admits(mult, n):
    return mult[0] <= n and (mult[1] is None or n <= mult[1])


def is_member(om, cd):
    """Object model ``om`` instantiates ``cd``: declared concrete classes,
    singleton counts (over the subclass closure), declared associations whose
    link ends lie in the end closures, and link counts inside the
    multiplicities."""
    objects = dict(om.objects)
    for cls in objects.values():
        if cd.modifiers.get(cls) in (None, "abstract"):
            return False
    for cls, mod in cd.modifiers.items():
        if mod == "singleton":
            members = cd.closure(cls)
            if sum(1 for c in objects.values() if c in members) != 1:
                return False
    assocs = {a[0]: a for a in cd.assocs}
    for name, src, dst in om.links:
        a = assocs.get(name)
        if a is None or objects[src] not in cd.closure(a[2]) or objects[dst] not in cd.closure(a[3]):
            return False
    for name, lmult, left, right, rmult in cd.assocs:
        lefts, rights = cd.closure(left), cd.closure(right)
        for oid, cls in objects.items():
            if cls in lefts:
                out = sum(1 for a, s, _ in om.links if a == name and s == oid)
                if not _admits(rmult, out):
                    return False
            if cls in rights:
                inc = sum(1 for a, _, t in om.links if a == name and t == oid)
                if not _admits(lmult, inc):
                    return False
    return True


def id_stems(classes):
    """Lowercased class names, or the raw name where two collide case-insensitively."""
    lowered = [c.lower() for c in classes]
    return {c: (c.lower() if lowered.count(c.lower()) == 1 else c) for c in classes}


def _link_sets(cd, name, lmult, left, right, rmult, objects):
    """Every link set of one association that keeps its multiplicities."""
    sources = sorted(o for o, c in objects.items() if c in cd.closure(left))
    targets = sorted(o for o, c in objects.items() if c in cd.closure(right))
    per_source = []
    for s in sources:
        options = [
            chosen
            for r in range(len(targets) + 1)
            if _admits(rmult, r)
            for chosen in combinations(targets, r)
        ]
        per_source.append([tuple((name, s, t) for t in chosen) for chosen in options])
    out = []
    for combo in product(*per_source):
        links = [link for part in combo for link in part]
        counts = {t: 0 for t in targets}
        for _, _, t in links:
            counts[t] += 1
        if all(_admits(lmult, n) for n in counts.values()):
            out.append(links)
    return out


def cd_models_at(cd, classes, k, total):
    """Every labeled instance of ``cd`` with ``total`` objects, at most ``k`` per
    class, objects named stem1..stemN over the joint class list ``classes``."""
    stems = id_stems(classes)
    for counts in product(range(k + 1), repeat=len(classes)):
        if sum(counts) != total:
            continue
        objects = {}
        for cls, n in zip(classes, counts):
            for i in range(1, n + 1):
                objects[f"{stems[cls]}{i}"] = cls
        if any(cd.modifiers.get(c) in (None, "abstract") for c in objects.values()):
            continue
        per_assoc = [_link_sets(cd, *a, objects) for a in cd.assocs]
        for combo in product(*per_assoc):
            om = Om.make(objects, [link for part in combo for link in part])
            if is_member(om, cd):
                yield om


def joint_classes(*cds):
    return tuple(sorted({c for cd in cds for c in cd.modifiers}))


def cd_diff_prefix(a, b, k, limit):
    """The first witnesses of A minus B in the documented order, level by level,
    stopping after the first level that brings the count to ``limit``."""
    classes = joint_classes(a, b)
    found = []
    for total in range(k * len(classes) + 1):
        level = [om for om in cd_models_at(a, classes, k, total) if not is_member(om, b)]
        found += sorted(level, key=Om.key)
        if len(found) >= limit:
            break
    return found


# ---------------------------------------------------------------------------
# activity diagrams and traces


@dataclass
class Ad:
    inputs: dict  # input -> domain tuple
    kinds: dict  # node -> action | decision | merge | fork | join | initial | final
    edges: list  # (src, dst, guard) with guard None, ("var", x) or ("not", x)
    outs: dict = field(default_factory=dict)
    ins: dict = field(default_factory=dict)

    def __post_init__(self):
        for n in self.kinds:
            self.outs.setdefault(n, [])
            self.ins.setdefault(n, [])
        for i, (s, d, _) in enumerate(self.edges):
            self.outs[s].append(i)
            self.ins[d].append(i)


_AD_KINDS = ("action", "decision", "merge", "fork", "join", "final")
_EDGE_RE = re.compile(r"^(\w+)\s*(?:-\[\s*(!?)\s*(\w+)\s*\]->|->)\s*(\w+)$")


def parse_ad(text):
    body = _strip_comments(text)
    body = body[body.index("{") + 1: body.rindex("}")]
    inputs, kinds, edges = {}, {"start": "initial", "end": "final"}, []
    for stmt in (s.strip() for s in body.split(";")):
        if not stmt:
            continue
        words = stmt.split()
        if words[0] == "input":
            m = re.match(r"^input\s+(\w+)\s*:\s*bool$", stmt)
            if m is None:
                raise ValueError(f"unsupported input declaration {stmt!r}")
            inputs[m.group(1)] = ("false", "true")
        elif words[0] in _AD_KINDS and len(words) == 2:
            kinds[words[1]] = words[0]
        else:
            m = _EDGE_RE.match(stmt)
            if m is None:
                raise ValueError(f"unsupported activity statement {stmt!r}")
            src, neg, var, dst = m.groups()
            guard = None if var is None else ("not" if neg else "var", var)
            edges.append((src, dst, guard))
    return Ad(inputs, kinds, edges)


def valuations(*ads):
    """All valuations over the union of the inputs: names sorted, false before
    true, the last name cycling fastest."""
    domains = {}
    for ad in ads:
        domains.update(ad.inputs)
    names = sorted(domains)
    return [tuple(zip(names, combo)) for combo in product(*(domains[n] for n in names))]


def _holds(guard, env):
    truth = env[guard[1]] == "true"
    return truth if guard[0] == "var" else not truth


def _moves(ad, marking, env):
    """(label, next marking) for every enabled firing; label None is silent."""
    for node, kind in ad.kinds.items():
        ins, outs = ad.ins[node], ad.outs[node]
        if kind == "action":
            for i in ins:
                if i in marking:
                    yield node, (marking - {i}) | frozenset(outs)
        elif kind == "decision":
            if ins[0] in marking:
                for o in outs:
                    if _holds(ad.edges[o][2], env):
                        yield None, (marking - {ins[0]}) | {o}
        elif kind == "merge":
            for i in ins:
                if i in marking:
                    yield None, (marking - {i}) | frozenset(outs)
        elif kind == "fork":
            if ins[0] in marking:
                yield None, (marking - {ins[0]}) | frozenset(outs)
        elif kind == "join":
            if all(i in marking for i in ins):
                yield None, (marking - set(ins)) | frozenset(outs)


def _done(ad, marking):
    """A token that entered a final node ends the run."""
    return any(ad.kinds[ad.edges[i][1]] == "final" for i in marking)


def _silent_closure(ad, markings, env):
    out, todo = set(markings), list(markings)
    while todo:
        m = todo.pop()
        if _done(ad, m):
            continue
        for label, nxt in _moves(ad, m, env):
            if label is None and nxt not in out:
                out.add(nxt)
                todo.append(nxt)
    return out


def replay(ad, inputs, actions):
    """Whether the token game can run ``actions`` to completion under ``inputs``."""
    env = dict(inputs)
    current = _silent_closure(ad, {frozenset(ad.outs["start"])}, env)
    for act in actions:
        stepped = {
            nxt
            for m in current
            if not _done(ad, m)
            for label, nxt in _moves(ad, m, env)
            if label == act
        }
        if not stepped:
            return False
        current = _silent_closure(ad, stepped, env)
    return any(_done(ad, m) for m in current)


def traces(ad, env):
    """Every complete action sequence of an acyclic diagram under one valuation."""
    out = set()
    todo = [(frozenset(ad.outs["start"]), ())]
    seen = set()
    while todo:
        marking, word = todo.pop()
        if (marking, word) in seen:
            continue
        seen.add((marking, word))
        if _done(ad, marking):
            out.add(word)
            continue
        for label, nxt in _moves(ad, marking, env):
            todo.append((nxt, word if label is None else word + (label,)))
    return out


def ad_diff_full(a, b):
    """Prefix-minimal traces of A minus B for every valuation, in the documented
    order: valuations in order, then shortest first, then lexicographic."""
    found = []
    for v in valuations(a, b):
        env = dict(v)
        diff = traces(a, env) - traces(b, env)
        minimal = [w for w in diff if not any(w[:i] in diff for i in range(len(w)))]
        found += [(v, w) for w in sorted(minimal, key=lambda w: (len(w), w))]
    return found


# ---------------------------------------------------------------------------
# verdicts and answer checks


def verdict(forward_nonempty, backward_nonempty):
    if forward_nonempty and backward_nonempty:
        return "INCOMPARABLE"
    if forward_nonempty:
        return "RIGHT_REFINES_LEFT"
    if backward_nonempty:
        return "LEFT_REFINES_RIGHT"
    return "EQUIVALENT"


def check_listing(got, exhausted, budget, expected, expected_complete):
    """Problems with a witness list against the expected prefix.

    ``expected`` holds the first witnesses in the documented order; when
    ``expected_complete`` is true it is the whole difference. A list of fewer
    than ``budget`` witnesses must be the whole difference and exhausted; a
    list cut at ``budget`` must not claim to be exhausted while more exist.
    """
    problems = []
    if len(set(got)) != len(got):
        problems.append(f"{len(got) - len(set(got))} duplicated witnesses")
    if len(got) > budget:
        problems.append(f"{len(got)} witnesses for a budget of {budget}")
    if got != expected[: len(got)]:
        problems.append("witnesses differ from the expected prefix")
    if len(got) < budget and (len(got) != len(expected) or not expected_complete):
        problems.append(f"{len(got)} witnesses, but more exist")
    if len(got) < budget and not exhausted:
        problems.append("a list shorter than the budget is not marked exhausted")
    if exhausted and (len(expected) > len(got) or not expected_complete):
        problems.append("marked exhausted but witnesses are missing")
    return problems
