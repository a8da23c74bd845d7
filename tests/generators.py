"""Seeded random model builders for oracle and property tests.

Everything takes an explicit random.Random so a failing seed reproduces.
Diagrams are produced as source text and run through the real parsers, which
keeps the generators honest: they can only hand out models the language
accepts. Pair generators resample until the brute-force oracle space is
small enough that exhaustive filtering stays fast.
"""

from __future__ import annotations

import random
import re

from oracles import compatible_pairs, populations, reference_words, vocabulary_of
from semdiff import build_config_nfa, input_valuations, parse_ad, parse_cd

CD_CLASS_POOL = ("A", "B", "C")
MULT_POOL = ("*", "0..1", "1", "1..*", "0..2", "2")
AD_ACTION_POOL = ("a", "b", "c", "d", "e", "f")


# ---------------------------------------------------------------------------
# class diagrams


def random_cd_text(rng: random.Random, name: str, max_classes: int = 3, max_assocs: int = 2) -> str:
    n_classes = rng.randint(1, max_classes)
    classes = CD_CLASS_POOL[:n_classes]
    lines = [f"classdiagram {name} {{"]
    for i, cls in enumerate(classes):
        roll = rng.random()
        mods = "abstract " if roll < 0.15 else "singleton " if roll < 0.25 else ""
        ext = ""
        if i > 0 and rng.random() < 0.30:
            ext = f" extends {rng.choice(classes[:i])}"
        lines.append(f"  {mods}class {cls}{ext};")
    for i in range(rng.randint(0, max_assocs)):
        left = rng.choice(classes)
        right = rng.choice(classes)
        lm = rng.choice(MULT_POOL)
        rm = rng.choice(MULT_POOL)
        lines.append(f"  association r{i + 1} [{lm}] {left} -- {right} [{rm}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def enumeration_space(vocab, k: int, cap: int) -> int:
    """Size of the oracle's labeled-model space at bound ``k``, stopping early
    once it exceeds ``cap`` (returns a value > cap in that case)."""
    size = 0
    for _, objects in populations(vocab, k):
        size += 2 ** len(compatible_pairs(vocab, objects))
        if size > cap:
            return size
    return size


def with_twins(rng: random.Random, texts: list[str]) -> list[str]:
    """``texts`` with ``class Xt extends X;`` for one or two of their
    classes X, in both diagrams or in one. Xt lies in every end closure X
    lies in, so where both diagrams hold it, the two classes are
    interchangeable for an association's containment test."""
    declared = [set(re.findall(r"\bclass (\w+)", text)) for text in texts]
    texts = list(texts)
    pool = sorted(declared[0] | declared[1])
    for x in rng.sample(pool, min(rng.choice((1, 2)), len(pool))):
        sides = [i for i in (0, 1) if x in declared[i]]
        if len(sides) == 2 and rng.random() < 0.5:
            sides = [rng.choice(sides)]
        for i in sides:
            texts[i] = texts[i][:texts[i].rindex("}")] + f"  class {x}t extends {x};\n}}\n"
    return texts


def random_cd_pair(rng: random.Random, k: int, space_cap: int = 30000, twins: bool = False):
    """Two diagrams over a shared class pool whose joint enumeration space at
    bound ``k`` stays under ``space_cap`` models, grown ``with_twins`` when
    ``twins``."""
    while True:
        texts = [random_cd_text(rng, "g1"), random_cd_text(rng, "g2")]
        if twins:
            texts = with_twins(rng, texts)
        cd1, cd2 = map(parse_cd, texts)
        if enumeration_space(vocabulary_of(cd1, cd2), k, space_cap) <= space_cap:
            return cd1, cd2


# ---------------------------------------------------------------------------
# activity diagrams

_GUARD_SHAPES = (
    lambda v: (v, f"!{v}"),
    lambda v: (f"{v} == true", f"{v} != true"),
    lambda v: ("true", "true"),
    lambda v: (v, "true"),
)


class _AdBuilder:
    """Grows a structurally valid diagram out of nested blocks.

    Each block hands back (entry, exit) node names with exactly one dangling
    in-edge slot and one out-edge slot, so composition can never violate the
    degree rules, and forks always flow into their own joins, which keeps
    every marking 1-safe.
    """

    def __init__(self, rng: random.Random, n_vars: int):
        self.rng = rng
        self.vars = [f"v{i + 1}" for i in range(n_vars)]
        self.nodes: list[str] = []
        self.edges: list[str] = []
        self.used: set[str] = set()
        self.counter = 0

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def action(self) -> tuple[str, str]:
        free = [a for a in AD_ACTION_POOL if a not in self.used]
        label = self.rng.choice(free) if free else self.fresh("x")
        self.used.add(label)
        decl = f"  action {label}"
        if self.vars and self.rng.random() < 0.25:
            var = self.rng.choice(self.vars)
            value = self.rng.choice(("true", "false"))
            decl += f" / {var} := {value}"
        self.nodes.append(decl + ";")
        return label, label

    def seq(self, budget: int) -> tuple[str, str]:
        first_in, first_out = self.block(budget // 2)
        second_in, second_out = self.block(budget - budget // 2)
        self.edges.append(f"  {first_out} -> {second_in};")
        return first_in, second_out

    def decision(self, budget: int) -> tuple[str, str]:
        d = self.fresh("d")
        m = self.fresh("m")
        self.nodes.append(f"  decision {d};")
        self.nodes.append(f"  merge {m};")
        if self.vars:
            g1, g2 = self.rng.choice(_GUARD_SHAPES)(self.rng.choice(self.vars))
        else:
            g1, g2 = "true", "true"
        left_in, left_out = self.block(budget // 2)
        right_in, right_out = self.block(budget - budget // 2)
        self.edges.append(f"  {d} -[{g1}]-> {left_in};")
        self.edges.append(f"  {d} -[{g2}]-> {right_in};")
        self.edges.append(f"  {left_out} -> {m};")
        self.edges.append(f"  {right_out} -> {m};")
        return d, m

    def fork(self, budget: int) -> tuple[str, str]:
        f = self.fresh("f")
        j = self.fresh("j")
        self.nodes.append(f"  fork {f};")
        self.nodes.append(f"  join {j};")
        branches = 2 if budget < 3 else self.rng.choice((2, 2, 3))
        for _ in range(branches):
            label, _ = self.action()
            self.edges.append(f"  {f} -> {label};")
            self.edges.append(f"  {label} -> {j};")
        return f, j

    def loop(self, budget: int) -> tuple[str, str]:
        m = self.fresh("m")
        d = self.fresh("d")
        self.nodes.append(f"  merge {m};")
        self.nodes.append(f"  decision {d};")
        body_in, body_out = self.block(max(1, budget - 1))
        self.edges.append(f"  {m} -> {body_in};")
        self.edges.append(f"  {body_out} -> {d};")
        self.edges.append(f"  {d} -[true]-> {m};")
        # Exit through a distinct action so the loop always has a way out.
        exit_label, exit_out = self.action()
        self.edges.append(f"  {d} -[true]-> {exit_label};")
        return m, exit_out

    def block(self, budget: int) -> tuple[str, str]:
        if budget <= 1:
            return self.action()
        roll = self.rng.random()
        if roll < 0.35:
            return self.seq(budget)
        if roll < 0.60:
            return self.decision(budget)
        if roll < 0.85:
            return self.fork(budget)
        return self.loop(budget)


def random_ad_text(rng: random.Random, name: str, max_vars: int = 2, budget: int = 4) -> str:
    builder = _AdBuilder(rng, rng.randint(0, max_vars))
    entry, exit_ = builder.block(budget)
    lines = [f"activity {name} {{"]
    for v in builder.vars:
        lines.append(f"  input {v}: bool;")
    lines.extend(builder.nodes)
    lines.append(f"  start -> {entry};")
    lines.extend(builder.edges)
    lines.append(f"  {exit_} -> end;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_ad_pair(rng: random.Random, max_len: int, word_cap: int = 3000):
    """Two diagrams over the shared action pool, both with trace spaces small
    enough to enumerate up to ``max_len``."""
    while True:
        ad1 = parse_ad(random_ad_text(rng, "g1"))
        ad2 = parse_ad(random_ad_text(rng, "g2"))
        ok = True
        for v in input_valuations(ad1.input_vars(), ad2.input_vars()):
            for ad in (ad1, ad2):
                if reference_words(build_config_nfa(ad, v), max_len, word_cap) is None:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return ad1, ad2


def fork_text(n, sequenced):
    """An n-way fork of single actions, then a final action; ``sequenced``
    puts a1 right after a0 on one branch."""
    acts = [f"a{i}" for i in range(n)]
    lines = ["activity work {"] + [f"  action {a};" for a in acts + ["fin"]]
    lines += ["  fork split;", "  join sync;", "  start -> split;"]
    for a in acts:
        if sequenced and a == "a1":
            continue
        lines.append(f"  split -> {a};")
        lines.append(f"  {a} -> {'a1' if sequenced and a == 'a0' else 'sync'};")
    if sequenced:
        lines.append("  a1 -> sync;")
    lines += ["  sync -> fin;", "  fin -> end;", "}"]
    return "\n".join(lines) + "\n"


def unsafe_when_p(name, idle_actions):
    """Safe when p is false; when p holds, two tokens meet on the edge out of
    the merge named after the diagram."""
    merge = f"m{name}"
    idle = "".join(f" action {a}; d -[!p]-> {a}; {a} -> end;" for a in idle_actions)
    return parse_ad(
        f"activity {name} {{ input p: bool; action a; action b; action c;"
        f" decision d; fork f; merge {merge};{idle}"
        f" start -> d; d -[p]-> f; f -> a; f -> b; a -> {merge}; b -> {merge};"
        f" {merge} -> c; c -> end; }}"
    )


def decision_chain_text(n: int, rich: bool = False) -> str:
    """n decisions in a row: decision i takes action y_i when bool input b_i
    holds and n_i otherwise. ``rich`` adds an enum input, locals that the
    actions assign from inputs, literals and each other (one reading a value
    assigned earlier in the same action), and guards that read them, some
    overlapping and some leaving no way on."""
    lines = ["activity chain {"] + [f"  input b{i}: bool;" for i in range(n)]
    if rich:
        lines += ["  input mode: {low, mid, high};", "  local seen: bool;",
                  "  local last: {low, mid, high} = high;", "  local prev: {low, mid, high};"]
    entry = "start"
    for i in range(n):
        yes, no = f"y{i}", f"n{i}"
        if rich:
            lines += [f"  action {yes} / seen := b{i}, last := mode;",
                      f"  action {no} / last := low, prev := last;"]
            guards = (f"b{i} && (seen || last != mid)", f"!b{i} || mode == low || prev == high")
        else:
            lines += [f"  action {yes};", f"  action {no};"]
            guards = (f"b{i}", f"!b{i}")
        lines += [f"  decision d{i};", f"  merge m{i};", f"  {entry} -> d{i};",
                  f"  d{i} -[{guards[0]}]-> {yes};", f"  d{i} -[{guards[1]}]-> {no};",
                  f"  {yes} -> m{i};", f"  {no} -> m{i};"]
        entry = f"m{i}"
    lines += [f"  {entry} -> end;", "}"]
    return "\n".join(lines) + "\n"
