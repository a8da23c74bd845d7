"""Textual activity-diagram language: syntax tree, parser, printer, checks.

Diagrams declare typed variables (bool or small enums), control nodes, and
edges. ``start`` and ``end`` are reserved names for the implicit initial and
final nodes; extra final nodes can be declared with ``final name;``. Guards
are boolean expressions over the variables and may only label edges leaving
decision nodes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from enum import Enum
from functools import cached_property

from .lexer import IDENT, Diagnostic, ParseError, Record, Token, TokenCursor, tokenize

BOOL_DOMAIN = ("false", "true")

START = "start"
END = "end"


class VarKind(Enum):
    INPUT = "input"
    LOCAL = "local"


class NodeKind(Enum):
    INITIAL = "initial"
    FINAL = "final"
    ACTION = "action"
    DECISION = "decision"
    MERGE = "merge"
    FORK = "fork"
    JOIN = "join"


class VarDecl(Record):
    name: str
    kind: VarKind
    domain: tuple[str, ...]
    initial: str | None = None  # locals only; resolved to a concrete value
    pos: tuple[int, int] = (0, 0)

    def is_bool(self) -> bool:
        return self.domain == BOOL_DOMAIN


# --- guards ---------------------------------------------------------------


class GuardLit(Record):
    value: bool


class GuardVar(Record):
    var: str


class GuardCmp(Record):
    var: str
    op: str  # "==" or "!="
    value: str


class GuardNot(Record):
    inner: "Guard"


class GuardAnd(Record):
    left: "Guard"
    right: "Guard"


class GuardOr(Record):
    left: "Guard"
    right: "Guard"


Guard = GuardLit | GuardVar | GuardCmp | GuardNot | GuardAnd | GuardOr


# Deeper guards are rejected by the parser, which keeps compile_guard and
# print_guard, the two recursive guard functions (and the records' own
# hash, equality and repr), well inside Python's recursion limit.
MAX_GUARD_DEPTH = 100


def _guard_terms(guard: Guard) -> Iterator[tuple[Guard, int]]:
    """Each subterm of ``guard`` with its level, ``guard`` itself at level 1,
    parents before children and left before right, walked without recursion.
    Every guard traversal but compile_guard and print_guard, which build
    their values bottom-up, is this walk."""
    todo = [(guard, 1)]
    while todo:
        g, level = todo.pop()
        yield g, level
        if isinstance(g, GuardNot):
            todo.append((g.inner, level + 1))
        elif isinstance(g, (GuardAnd, GuardOr)):
            todo += ((g.right, level + 1), (g.left, level + 1))


def guard_variables(guard: Guard) -> frozenset[str]:
    """The names of the variables ``guard`` reads."""
    return frozenset(g.var for g, _ in _guard_terms(guard)
                     if isinstance(g, (GuardVar, GuardCmp)))


def compile_guard(guard: Guard, slots: dict[str, int]) -> Callable[[tuple[str, ...]], bool]:
    """``guard`` as a closure over a state tuple, which holds the value of
    each variable at the position ``slots`` gives it."""
    if isinstance(guard, GuardLit):
        value = guard.value
        return lambda state: value
    if isinstance(guard, GuardVar):
        i = slots[guard.var]
        return lambda state: state[i] == "true"
    if isinstance(guard, GuardCmp):
        i, value, equal = slots[guard.var], guard.value, guard.op == "=="
        return lambda state: (state[i] == value) is equal
    if isinstance(guard, GuardNot):
        inner = compile_guard(guard.inner, slots)
        return lambda state: not inner(state)
    if isinstance(guard, GuardAnd):
        left, right = compile_guard(guard.left, slots), compile_guard(guard.right, slots)
        return lambda state: left(state) and right(state)
    if isinstance(guard, GuardOr):
        left, right = compile_guard(guard.left, slots), compile_guard(guard.right, slots)
        return lambda state: left(state) or right(state)
    raise TypeError(f"not a guard: {guard!r}")


_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4


def print_guard(guard: Guard, _parent: int = 0) -> str:
    if isinstance(guard, GuardLit):
        return "true" if guard.value else "false"
    if isinstance(guard, GuardVar):
        return guard.var
    if isinstance(guard, GuardCmp):
        return f"{guard.var} {guard.op} {guard.value}"
    if isinstance(guard, GuardNot):
        return f"!{print_guard(guard.inner, _PREC_NOT)}"
    if isinstance(guard, GuardAnd):
        text = f"{print_guard(guard.left, _PREC_AND)} && {print_guard(guard.right, _PREC_AND)}"
        return f"({text})" if _parent > _PREC_AND else text
    if isinstance(guard, GuardOr):
        text = f"{print_guard(guard.left, _PREC_OR)} || {print_guard(guard.right, _PREC_OR)}"
        return f"({text})" if _parent > _PREC_OR else text
    raise TypeError(f"not a guard: {guard!r}")


# --- nodes and edges --------------------------------------------------------


class Assign(Record):
    target: str
    source: str
    source_is_var: bool = False


class Node(Record):
    name: str
    kind: NodeKind
    assignments: tuple[Assign, ...] = ()
    pos: tuple[int, int] = (0, 0)


class Edge(Record):

    src: str
    dst: str
    guard: Guard | None = None
    pos: tuple[int, int] = (0, 0)


class ActivityDiagram(Record):
    name: str
    variables: tuple[VarDecl, ...]
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def action_names(self) -> frozenset[str]:
        return frozenset(n.name for n in self.nodes if n.kind is NodeKind.ACTION)

    def input_vars(self) -> tuple[VarDecl, ...]:
        return tuple(v for v in self.variables if v.kind is VarKind.INPUT)

    @cached_property
    def table(self):
        """The diagram compiled for the token game, with the configurations
        of every valuation a diff has started so far
        (``ad_semantics.ConfigTable``): built on first use and shared by
        every diff and ``build_config_nfa`` call on this diagram. Not safe to
        extend from several threads at once."""
        from .ad_semantics import ConfigTable  # not at the top: ad_semantics imports this module
        return ConfigTable(self)

    def __getstate__(self):
        # The table's compiled guards are closures, which do not pickle; a
        # copy builds its table again.
        return {k: v for k, v in self.__dict__.items() if k != "table"}


_VAR_KEYWORDS = {k.value: k for k in VarKind}
_NODE_KEYWORDS = {k.value: k for k in NodeKind if k is not NodeKind.INITIAL}


def parse_ad(text: str) -> ActivityDiagram:
    """Parse and validate activity-diagram text.

    Validation covers declarations, guard typing, node degree rules, and
    reachability; every problem is reported with its source position.
    """
    cur = TokenCursor(tokenize(text))
    name, items = cur.block("activity", "an activity name")
    raw_vars: list[tuple[Token, VarKind, tuple[str, ...], Token | None]] = []
    raw_nodes: list[tuple[NodeKind, Token, list[tuple[Token, Token]]]] = []
    raw_edges: list[tuple[Token, Guard | None, Token]] = []
    for tok in items:
        if tok.kind != IDENT:
            cur.fail(f"expected a declaration or an edge, found {tok.describe()}")
        if tok.text in _VAR_KEYWORDS and cur.peek(1).kind == IDENT:
            raw_vars.append(_parse_vardecl(cur))
        elif tok.text in _NODE_KEYWORDS and cur.peek(1).kind == IDENT:
            raw_nodes.append(_parse_nodedecl(cur))
        else:
            raw_edges.append(_parse_edge(cur))
    return _resolve(name, raw_vars, raw_nodes, raw_edges)


def _parse_vardecl(cur: TokenCursor):
    kind = _VAR_KEYWORDS[cur.advance().text]
    name_tok = cur.expect_ident("a variable name")
    cur.expect(":")
    if cur.eat("bool"):
        domain = BOOL_DOMAIN
    else:
        cur.expect("{")
        values = [cur.expect_ident("a domain value").text]
        if not cur.at(","):
            cur.fail("expected ',' (enum domains need at least two values)")
        while cur.eat(","):
            values.append(cur.expect_ident("a domain value").text)
        cur.expect("}")
        domain = tuple(values)
    initial_tok = None
    if cur.eat("="):
        initial_tok = cur.expect_ident("an initial value")
    cur.expect(";")
    return name_tok, kind, domain, initial_tok


def _parse_nodedecl(cur: TokenCursor):
    kind = _NODE_KEYWORDS[cur.advance().text]
    name_tok = cur.expect_ident("a node name")
    assigns: list[tuple[Token, Token]] = []
    if kind is NodeKind.ACTION and cur.eat("/"):
        while True:
            target = cur.expect_ident("an assignment target")
            cur.expect(":=")
            source = cur.expect_ident("a value or variable")
            assigns.append((target, source))
            if not cur.eat(","):
                break
    cur.expect(";")
    return kind, name_tok, assigns


def _parse_edge(cur: TokenCursor):
    src_tok = cur.expect_ident("a node name")
    guard = None
    if cur.eat("-["):
        guard_tok = cur.peek()
        guard = _parse_guard(cur, 0)
        if max(level for _, level in _guard_terms(guard)) > MAX_GUARD_DEPTH:
            cur.fail(f"guard nested more than {MAX_GUARD_DEPTH} levels deep", guard_tok)
        cur.expect("]->")
    else:
        cur.expect("->")
    dst_tok = cur.expect_ident("a node name")
    cur.expect(";")
    return src_tok, guard, dst_tok


def _parse_guard(cur: TokenCursor, depth: int) -> Guard:
    left = _parse_guard_and(cur, depth)
    while cur.eat("||"):
        left = GuardOr(left, _parse_guard_and(cur, depth))
    return left


def _parse_guard_and(cur: TokenCursor, depth: int) -> Guard:
    left = _parse_guard_unary(cur, depth)
    while cur.eat("&&"):
        left = GuardAnd(left, _parse_guard_unary(cur, depth))
    return left


def _parse_guard_unary(cur: TokenCursor, depth: int) -> Guard:
    # ``depth`` counts the enclosing '!' and '(' and bounds the parser's own
    # recursion; _parse_edge bounds the height of the finished tree.
    if (cur.at("!") or cur.at("(")) and depth >= MAX_GUARD_DEPTH:
        cur.fail(f"guard nested more than {MAX_GUARD_DEPTH} levels deep")
    if cur.eat("!"):
        return GuardNot(_parse_guard_unary(cur, depth + 1))
    if cur.eat("("):
        inner = _parse_guard(cur, depth + 1)
        cur.expect(")")
        return inner
    tok = cur.expect_ident("a guard term")
    if tok.text == "true":
        return GuardLit(True)
    if tok.text == "false":
        return GuardLit(False)
    if cur.at("==") or cur.at("!="):
        op = cur.advance().text
        value = cur.expect_ident("a value").text
        return GuardCmp(tok.text, op, value)
    return GuardVar(tok.text)


def _resolve(name, raw_vars, raw_nodes, raw_edges) -> ActivityDiagram:
    problems: list[Diagnostic] = []

    variables: list[VarDecl] = []
    var_table: dict[str, VarDecl] = {}
    for name_tok, kind, domain, initial_tok in raw_vars:
        pos = (name_tok.line, name_tok.col)
        if name_tok.text in var_table:
            problems.append(Diagnostic(*pos, f"duplicate variable '{name_tok.text}'"))
            continue
        if name_tok.text in BOOL_DOMAIN:
            problems.append(Diagnostic(
                *pos, f"'{name_tok.text}' is a reserved value and cannot name a variable"))
        if len(set(domain)) != len(domain):
            problems.append(Diagnostic(*pos, f"domain of '{name_tok.text}' repeats a value"))
        if domain != BOOL_DOMAIN and ("true" in domain or "false" in domain):
            problems.append(Diagnostic(
                *pos, f"domain of '{name_tok.text}' may not use the reserved values true/false"))
        initial = None
        if kind is VarKind.INPUT:
            if initial_tok is not None:
                problems.append(Diagnostic(
                    initial_tok.line, initial_tok.col,
                    f"input variable '{name_tok.text}' takes its value from the"
                    " environment and cannot be initialized"))
        else:
            # A local without an explicit initializer starts at the first
            # domain value (false for bool).
            initial = domain[0]
            if initial_tok is not None:
                if initial_tok.text not in domain:
                    problems.append(Diagnostic(
                        initial_tok.line, initial_tok.col,
                        f"initial value '{initial_tok.text}' is outside the domain"
                        f" of '{name_tok.text}'"))
                else:
                    initial = initial_tok.text
        decl = VarDecl(name_tok.text, kind, domain, initial, pos)
        variables.append(decl)
        var_table[decl.name] = decl

    nodes: list[Node] = []
    node_table: dict[str, Node] = {}
    for kind, name_tok, raw_assigns in raw_nodes:
        pos = (name_tok.line, name_tok.col)
        if name_tok.text in (START, END):
            problems.append(Diagnostic(*pos, f"'{name_tok.text}' is reserved and cannot be declared"))
            continue
        if name_tok.text in node_table:
            problems.append(Diagnostic(*pos, f"duplicate node name '{name_tok.text}'"))
            continue
        assigns = []
        for target_tok, source_tok in raw_assigns:
            assign = _resolve_assign(target_tok, source_tok, var_table, problems)
            if assign is not None:
                assigns.append(assign)
        node = Node(name_tok.text, kind, tuple(assigns), pos)
        nodes.append(node)
        node_table[node.name] = node

    edges: list[Edge] = []
    for src_tok, guard, dst_tok in raw_edges:
        pos = (src_tok.line, src_tok.col)
        for tok in (src_tok, dst_tok):
            if tok.text in (START, END) and tok.text not in node_table:
                kind = NodeKind.INITIAL if tok.text == START else NodeKind.FINAL
                node = Node(tok.text, kind, (), (tok.line, tok.col))
                nodes.append(node)
                node_table[tok.text] = node
            elif tok.text not in node_table:
                problems.append(Diagnostic(tok.line, tok.col, f"unknown node '{tok.text}'"))
        if guard is not None:
            _check_guard(guard, var_table, pos, problems)
        edges.append(Edge(src_tok.text, dst_tok.text, guard, pos))

    problems.extend(_check_structure(node_table, edges))
    if problems:
        raise ParseError(problems)
    return ActivityDiagram(name, tuple(variables), tuple(nodes), tuple(edges))


def _resolve_assign(target_tok, source_tok, var_table, problems) -> Assign | None:
    target = var_table.get(target_tok.text)
    if target is None:
        problems.append(Diagnostic(
            target_tok.line, target_tok.col,
            f"assignment to undeclared variable '{target_tok.text}'"))
        return None
    source = source_tok.text
    # A name that matches a declared variable is a variable read; anything
    # else must be a literal value of the target's domain. A name that is
    # both would read one way here and the other in a guard's comparison.
    if source in var_table and source in target.domain:
        problems.append(Diagnostic(
            source_tok.line, source_tok.col,
            f"'{source}' names both a variable and a value of '{target.name}'"))
        return None
    if source in var_table:
        if var_table[source].domain != target.domain:
            problems.append(Diagnostic(
                source_tok.line, source_tok.col,
                f"cannot assign '{source}' to '{target.name}': domains differ"))
            return None
        return Assign(target.name, source, source_is_var=True)
    if source not in target.domain:
        problems.append(Diagnostic(
            source_tok.line, source_tok.col,
            f"value '{source}' is outside the domain of '{target.name}'"))
        return None
    return Assign(target.name, source, source_is_var=False)


def _check_guard(guard: Guard, var_table, pos, problems) -> None:
    for g, _ in _guard_terms(guard):
        if not isinstance(g, (GuardVar, GuardCmp)):
            continue
        decl = var_table.get(g.var)
        if decl is None:
            problems.append(Diagnostic(*pos, f"guard references undeclared variable '{g.var}'"))
        elif isinstance(g, GuardVar) and not decl.is_bool():
            problems.append(Diagnostic(
                *pos, f"guard uses non-bool variable '{g.var}' as a condition"))
        elif isinstance(g, GuardCmp) and g.value not in decl.domain:
            problems.append(Diagnostic(
                *pos, f"guard compares '{g.var}' with '{g.value}', which is outside its domain"))


# Per node kind, the (direction, fewest, most) edge counts it must have, in
# reporting order; None is no upper limit.
_DEGREES = {
    NodeKind.INITIAL: (("incoming", 0, 0), ("outgoing", 1, 1)),
    NodeKind.FINAL: (("outgoing", 0, 0), ("incoming", 1, None)),
    NodeKind.ACTION: (("outgoing", 1, 1),),
    NodeKind.MERGE: (("outgoing", 1, 1),),
    NodeKind.DECISION: (("incoming", 1, 1), ("outgoing", 2, None)),
    NodeKind.FORK: (("incoming", 1, 1), ("outgoing", 2, None)),
    NodeKind.JOIN: (("incoming", 2, None), ("outgoing", 1, 1)),
}


def _degree_message(direction: str, fewest: int, most: int | None, n: int) -> str:
    if most == 0:
        return f"cannot have {direction} edges"
    if most == 1:
        return f"must have exactly one {direction} edge, found {n}"
    if fewest == 1:
        return "is never reached by an edge"
    return f"needs at least two {direction} edges, found {n}"


def _check_structure(node_table: dict[str, Node], edges: list[Edge]) -> list[Diagnostic]:
    problems: list[Diagnostic] = []
    known_edges = [e for e in edges
                   if e.src in node_table and e.dst in node_table]
    outgoing: dict[str, list[Edge]] = {n: [] for n in node_table}
    incoming: dict[str, list[Edge]] = {n: [] for n in node_table}
    for e in known_edges:
        outgoing[e.src].append(e)
        incoming[e.dst].append(e)

    for e in known_edges:
        if e.guard is not None and node_table[e.src].kind is not NodeKind.DECISION:
            problems.append(Diagnostic(
                *e.pos, f"guard on an edge leaving non-decision node '{e.src}'"))

    if START not in node_table:
        problems.append(Diagnostic(1, 1, "no initial node: nothing connects to 'start'"))
    finals = [n for n in node_table.values() if n.kind is NodeKind.FINAL]
    if not finals:
        problems.append(Diagnostic(1, 1, "no final node: nothing reaches 'end' and no 'final' is declared"))

    for node in node_table.values():
        label = "'start'" if node.kind is NodeKind.INITIAL else f"{node.kind.value} node '{node.name}'"
        for direction, fewest, most in _DEGREES[node.kind]:
            n = len((incoming if direction == "incoming" else outgoing)[node.name])
            if n < fewest or (most is not None and n > most):
                problems.append(Diagnostic(*node.pos, f"{label} {_degree_message(direction, fewest, most, n)}"))
        if node.kind is NodeKind.DECISION:
            for e in outgoing[node.name]:
                if e.guard is None:
                    problems.append(Diagnostic(*e.pos, f"unguarded edge leaving decision node '{node.name}'"))

    if START in node_table:
        reached = {START}
        frontier = [START]
        while frontier:
            cur = frontier.pop()
            for e in outgoing[cur]:
                if e.dst not in reached:
                    reached.add(e.dst)
                    frontier.append(e.dst)
        for name in sorted(node_table):
            if name not in reached:
                problems.append(Diagnostic(*node_table[name].pos, f"node '{name}' is unreachable from 'start'"))
    return problems


def print_ad(ad: ActivityDiagram) -> str:
    """Serialize back to source text: variables, then nodes, then edges."""
    lines = [f"activity {ad.name} {{"]
    for v in ad.variables:
        dom = "bool" if v.is_bool() else "{" + ", ".join(v.domain) + "}"
        init = f" = {v.initial}" if v.kind is VarKind.LOCAL else ""
        lines.append(f"  {v.kind.value} {v.name}: {dom}{init};")
    for n in ad.nodes:
        if n.kind in (NodeKind.INITIAL, NodeKind.FINAL):
            if n.kind is NodeKind.FINAL and n.name != END:
                lines.append(f"  final {n.name};")
            continue
        suffix = ""
        if n.assignments:
            parts = ", ".join(f"{a.target} := {a.source}" for a in n.assignments)
            suffix = f" / {parts}"
        lines.append(f"  {n.kind.value} {n.name}{suffix};")
    for e in ad.edges:
        arrow = "->" if e.guard is None else f"-[{print_guard(e.guard)}]->"
        lines.append(f"  {e.src} {arrow} {e.dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"
