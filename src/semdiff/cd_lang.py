"""Textual class-diagram language: syntax tree, parser, printer, well-formedness.

A diagram declares plain, abstract, or singleton classes, single inheritance
via ``extends``, and named binary associations whose ends carry multiplicities.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .lexer import Diagnostic, ParseError, Record, TokenCursor, tokenize

UNBOUNDED = None


class ClassModifier(Enum):
    CONCRETE = "concrete"
    ABSTRACT = "abstract"
    SINGLETON = "singleton"


class Multiplicity(Record):
    """An inclusive instance-count range; ``max=None`` means unbounded."""

    min: int
    max: int | None

    def admits(self, n: int) -> bool:
        return self.min <= n and (self.max is None or n <= self.max)

    def __str__(self) -> str:
        if self.min == 0 and self.max is None:
            return "*"
        if self.max is None:
            return f"{self.min}..*"
        if self.min == self.max:
            return str(self.min)
        return f"{self.min}..{self.max}"


MANY = Multiplicity(0, UNBOUNDED)


class ClassDecl(Record):
    name: str
    modifier: ClassModifier = ClassModifier.CONCRETE
    pos: tuple[int, int] = (0, 0)


class Association(Record):
    """``association name [left_mult] left -- right [right_mult];``

    The multiplicity written at one end bounds how many objects of that end
    each object of the opposite end may link to.
    """

    name: str
    left_class: str
    left_mult: Multiplicity
    right_class: str
    right_mult: Multiplicity
    pos: tuple[int, int] = (0, 0)


class ClassDiagram(Record):
    name: str
    classes: tuple[ClassDecl, ...]
    extends: tuple[tuple[str, str], ...]  # (child, parent) pairs
    associations: tuple[Association, ...]

    @cached_property
    def closures(self) -> dict[str, frozenset[str]]:
        """Each declared class's subclass closure (``closures_of``), built on first use."""
        return closures_of(self.extends, tuple(c.name for c in self.classes))

    @cached_property
    def membership(self):
        """The membership check's tables (``cd_semantics.membership_table``), built on first use."""
        from .cd_semantics import membership_table  # not at the top: it imports this module
        return membership_table(self)


# The keywords written before ``class``; a concrete class has none.
_MODIFIERS = {m.value: m for m in ClassModifier if m is not ClassModifier.CONCRETE}


def parse_cd(text: str) -> ClassDiagram:
    """Parse and validate class-diagram text.

    Raises ParseError with positioned diagnostics on the first syntax error
    or on any collection of validation problems.
    """
    cur = TokenCursor(tokenize(text))
    name, items = cur.block("classdiagram", "a diagram name")
    classes: list[ClassDecl] = []
    extends: list[tuple[str, str]] = []
    extend_pos: list[tuple[int, int]] = []  # the declaration of each extends pair
    associations: list[Association] = []
    for tok in items:
        if tok.text == "association":
            associations.append(_parse_assoc(cur))
        else:
            decl, parent = _parse_classdecl(cur)
            classes.append(decl)
            if parent is not None:
                extends.append((decl.name, parent))
                extend_pos.append(decl.pos)
    cd = ClassDiagram(name, tuple(classes), tuple(extends), tuple(associations))
    problems = _validate(cd, extend_pos)
    if problems:
        raise ParseError(problems)
    return cd


def _parse_classdecl(cur: TokenCursor) -> tuple[ClassDecl, str | None]:
    tok = cur.peek()
    modifier = _MODIFIERS[cur.advance().text] if tok.text in _MODIFIERS else ClassModifier.CONCRETE
    cur.expect("class")
    name = cur.expect_ident("a class name").text
    parent = None
    if cur.eat("extends"):
        parent = cur.expect_ident("a parent class name").text
    cur.expect(";")
    return ClassDecl(name, modifier, (tok.line, tok.col)), parent


def _parse_assoc(cur: TokenCursor) -> Association:
    tok = cur.expect("association")
    name = cur.expect_ident("an association name").text
    left_mult = _parse_mult(cur)
    left = cur.expect_ident("a class name").text
    cur.expect("--")
    right = cur.expect_ident("a class name").text
    right_mult = _parse_mult(cur)
    cur.expect(";")
    return Association(name, left, left_mult, right, right_mult, (tok.line, tok.col))


def _parse_mult(cur: TokenCursor) -> Multiplicity:
    # An omitted multiplicity reads as "*".
    if not cur.eat("["):
        return MANY
    lo_tok, mult = cur.peek(), MANY
    if not cur.eat("*"):
        lo = hi = cur.expect_nat()
        if cur.eat(".."):
            hi = UNBOUNDED if cur.eat("*") else cur.expect_nat()
        mult = Multiplicity(lo, hi)
    cur.expect("]")
    if mult.max is not UNBOUNDED and mult.min > mult.max:
        cur.fail(f"multiplicity {mult} has min > max", lo_tok)
    return mult


def _validate(cd: ClassDiagram, extend_pos: list[tuple[int, int]]) -> list[Diagnostic]:
    problems: list[Diagnostic] = []
    seen: dict[str, ClassDecl] = {}
    for decl in cd.classes:
        if decl.name in seen:
            problems.append(Diagnostic(*decl.pos, f"duplicate class name '{decl.name}'"))
        else:
            seen[decl.name] = decl
    declared = set(seen)
    for (child, parent), pos in zip(cd.extends, extend_pos):
        if parent not in declared:
            problems.append(Diagnostic(*pos, f"'{child}' extends unknown class '{parent}'"))
    assoc_seen: set[str] = set()
    for a in cd.associations:
        if a.name in assoc_seen:
            problems.append(Diagnostic(*a.pos, f"duplicate association name '{a.name}'"))
        assoc_seen.add(a.name)
        for end in (a.left_class, a.right_class):
            if end not in declared:
                problems.append(Diagnostic(*a.pos, f"association '{a.name}' references unknown class '{end}'"))
    # A class declared twice keeps its last parent, and that declaration's position.
    parents = dict(cd.extends)
    parent_pos = {child: pos for (child, _), pos in zip(cd.extends, extend_pos)}
    for name in sorted(declared):
        hop = parents.get(name)
        seen_chain = {name}
        while hop is not None:
            if hop == name:
                problems.append(Diagnostic(*parent_pos[name], f"inheritance cycle through '{name}'"))
                break
            if hop in seen_chain:
                break
            seen_chain.add(hop)
            hop = parents.get(hop)
    return problems


def print_cd(cd: ClassDiagram) -> str:
    """Serialize a diagram back to its textual form (multiplicities explicit)."""
    parents: dict[str, list[str]] = {}
    for child, parent in cd.extends:
        parents.setdefault(child, []).append(parent)
    lines = [f"classdiagram {cd.name} {{"]
    for decl in cd.classes:
        prefix = "" if decl.modifier is ClassModifier.CONCRETE else f"{decl.modifier.value} "
        sup = parents.get(decl.name, [])
        if len(sup) > 1:
            raise ValueError(f"class '{decl.name}' has multiple parents; not printable")
        ext = f" extends {sup[0]}" if sup else ""
        lines.append(f"  {prefix}class {decl.name}{ext};")
    for a in cd.associations:
        lines.append(
            f"  association {a.name} [{a.left_mult}] {a.left_class}"
            f" -- {a.right_class} [{a.right_mult}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


class _Closures(dict):
    """Subclass closures by class name; a class that is not a root has none."""

    def __missing__(self, name: str) -> frozenset[str]:
        return frozenset()


def closures_of(
    extends: tuple[tuple[str, str], ...], roots: tuple[str, ...]
) -> dict[str, frozenset[str]]:
    """Each root's reflexive-transitive subclass closure under an extends relation."""
    children: dict[str, list[str]] = {}
    for child, parent in extends:
        children.setdefault(parent, []).append(child)
    closures = _Closures()
    for root in roots:
        out = {root}
        todo = [root]
        while todo:
            for ch in children.get(todo.pop(), ()):
                if ch not in out:
                    out.add(ch)
                    todo.append(ch)
        closures[root] = frozenset(out)
    return closures
