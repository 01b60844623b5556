"""Expression and assignment mini-language.

Used by Condition if/then/else, Action script/result, and __STATE__ queries.

Grammar (EBNF), tightest binding last:

    expr   := or ; or := and ("||" and)* ; and := cmp ("&&" cmp)* ;
    cmp    := add (("=="|"!="|"<"|"<="|">"|">=") add)? ;
    add    := mul (("+"|"-") mul)* ; mul := unary (("*"|"/") unary)* ;
    unary  := ("!"|"-") unary | atom ;
    atom   := NUMBER | "'" TEXT "'" | "true" | "false"
            | "SUCCESS" | "FAILURE" | "RUNNING" | "EMPTY" | IDENT | "(" expr ")" ;
    IDENT  := [A-Za-z_][A-Za-z0-9_/.-]*     (excluding the reserved words above)
    assignment := IDENT ":=" expr

Note that IDENT may contain "-", "/" and ".", so arithmetic over variables
needs spaces around the operators ("a - b", not "a-b").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import ExprError
from .model import ReturnState, Value, value_tag, values_equal


@dataclass(frozen=True)
class Lit:
    value: Value


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "!" or "-"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Var, Unary, Binary]


@dataclass(frozen=True)
class Assignment:
    key: str
    value: Expr


_RESERVED = {
    "true": Lit(True),
    "false": Lit(False),
    "SUCCESS": Lit(ReturnState.SUCCESS),
    "FAILURE": Lit(ReturnState.FAILURE),
    "RUNNING": Lit(ReturnState.RUNNING),
    "EMPTY": Lit(ReturnState.EMPTY),
}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<text>'[^']*')
      | (?P<ident>[A-Za-z_][A-Za-z0-9_/.\-]*)
      | (?P<op>\|\||&&|==|!=|<=|>=|:=|[-<>+*/!()])
    """,
    re.VERBOSE,
)

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError("EXPR_SYNTAX", f"unexpected character {text[pos]!r}", offset=pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(0), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# Parsing, evaluation and printing recurse once per level, so nesting is
# capped: an atom is one level, and each operator or pair of parentheses
# around an operand adds one.
MAX_EXPR_DEPTH = 64

_CMP, _ADD, _MUL = frozenset(_CMP_OPS), frozenset({"+", "-"}), frozenset({"*", "/"})
_PREFIX = frozenset({"!", "-"})


class _Parser:
    """Recursive descent over the token list. Each rule returns the parsed
    node with its nesting depth. Only operator tokens can have an operator
    as their text, so rules match operators by text alone."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # enclosing parentheses and prefix operators

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        raise ExprError("EXPR_SYNTAX", message, offset=self.peek()[2])

    def too_deep(self, offset):
        raise ExprError("EXPR_SYNTAX", "expression is nested too deeply", offset=offset)

    def join(self, left, operand):
        """Consume the operator at the cursor and its right operand."""
        _, op, offset = self.advance()
        right = operand()
        depth = max(left[1], right[1]) + 1
        if depth > MAX_EXPR_DEPTH:
            self.too_deep(offset)
        return Binary(op, left[0], right[0]), depth

    def expr(self):
        left = self.and_()
        while self.tokens[self.pos][1] == "||":
            left = self.join(left, self.and_)
        return left

    def and_(self):
        left = self.cmp()
        while self.tokens[self.pos][1] == "&&":
            left = self.join(left, self.cmp)
        return left

    def cmp(self):
        left = self.add()
        if self.tokens[self.pos][1] in _CMP:
            return self.join(left, self.add)
        return left

    def add(self):
        left = self.mul()
        while self.tokens[self.pos][1] in _ADD:
            left = self.join(left, self.mul)
        return left

    def mul(self):
        left = self.unary()
        while self.tokens[self.pos][1] in _MUL:
            left = self.join(left, self.unary)
        return left

    def enter(self, offset):
        """Open a prefix operator or parenthesis. Its operand is at least
        one level deep, so the cap is hit before the recursion goes on."""
        self.open += 1
        if self.open >= MAX_EXPR_DEPTH:
            self.too_deep(offset)

    def unary(self):
        _, op, offset = self.tokens[self.pos]
        if op not in _PREFIX:
            return self.atom()
        self.pos += 1
        self.enter(offset)
        operand, depth = self.unary()
        self.open -= 1
        if depth >= MAX_EXPR_DEPTH:
            self.too_deep(offset)
        return Unary(op, operand), depth + 1

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "number":
            if "." in value or "e" in value or "E" in value:
                return Lit(float(value)), 1
            return Lit(int(value)), 1
        if kind == "text":
            return Lit(value[1:-1]), 1
        if kind == "ident":
            return _RESERVED.get(value) or Var(value), 1
        if value == "(":
            self.enter(offset)
            inner, depth = self.expr()
            self.open -= 1
            if self.tokens[self.pos][1] != ")":
                self.fail("expected ')'")
            self.pos += 1
            if depth >= MAX_EXPR_DEPTH:
                self.too_deep(offset)
            return inner, depth + 1
        self.pos -= 1
        self.fail(f"expected a value, found {value!r}" if value else "expected a value")


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    e, _ = p.expr()
    kind, value, offset = p.peek()
    if kind != "eof":
        raise ExprError("EXPR_SYNTAX", f"unexpected trailing {value!r}", offset=offset)
    return e


def parse_assignment(text: str) -> Assignment:
    """Parse ``<key> := <expr>``. A single ``=`` is reserved and rejected."""
    p = _Parser(text)
    kind, key, offset = p.peek()
    if kind != "ident" or key in _RESERVED:
        raise ExprError("EXPR_SYNTAX", "assignment must start with a memory key", offset=offset)
    p.advance()
    if p.peek()[1] != ":=":
        raise ExprError("EXPR_SYNTAX", "expected ':='", offset=p.peek()[2])
    p.advance()
    value, _ = p.expr()
    kind, tok, offset = p.peek()
    if kind != "eof":
        raise ExprError("EXPR_SYNTAX", f"unexpected trailing {tok!r}", offset=offset)
    return Assignment(key, value)


def _require_bool(v, op):
    if not isinstance(v, bool):
        raise ExprError("TYPE_ERROR", f"'{op}' requires booleans, got {value_tag(v)}")
    return v


def _require_number(v, op):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ExprError("TYPE_ERROR", f"'{op}' requires numbers, got {value_tag(v)}")
    return v


def _divide(a, b):
    if b == 0:
        raise ExprError("DIVISION_BY_ZERO", "division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q = a // b
        if q < 0 and q * b != a:
            q += 1  # truncate toward zero
        return q
    return a / b


def eval_expr(e: Expr, memory: Mapping[str, Value]) -> Value:
    """Evaluate against the blackboard. Pure: never writes memory.

    && and || short-circuit, so the right operand is not evaluated (and may
    reference undefined keys) when the left side decides the result.
    """
    t = type(e)
    if t is Var:
        try:
            return memory[e.name]
        except KeyError:
            raise ExprError("UNDEFINED_VARIABLE", f"'{e.name}' is not defined",
                            subject=e.name) from None
    if t is Lit:
        return e.value
    if t is Binary:
        op = e.op
        if op == "&&":
            left = _require_bool(eval_expr(e.left, memory), op)
            if not left:
                return False
            return _require_bool(eval_expr(e.right, memory), op)
        if op == "||":
            left = _require_bool(eval_expr(e.left, memory), op)
            if left:
                return True
            return _require_bool(eval_expr(e.right, memory), op)
        left = eval_expr(e.left, memory)
        right = eval_expr(e.right, memory)
        if op == "==":
            return values_equal(left, right)
        if op == "!=":
            return not values_equal(left, right)
        if op in ("<", "<=", ">", ">="):
            a = _require_number(left, op)
            b = _require_number(right, op)
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b
        a = _require_number(left, op)
        b = _require_number(right, op)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return _divide(a, b)
    if t is Unary:
        v = eval_expr(e.operand, memory)
        if e.op == "!":
            return not _require_bool(v, "!")
        return -_require_number(v, "-")
    raise TypeError(f"not an expression node: {e!r}")


def eval_state_expr(e: Expr, memory: Mapping[str, Value]) -> ReturnState:
    v = eval_expr(e, memory)
    if not isinstance(v, ReturnState):
        raise ExprError("NOT_A_STATE", f"expected a return state, got {value_tag(v)}")
    return v


# Precedence levels for the minimal-parentheses printer.
_LEVELS = {"||": 1, "&&": 2}
_LEVELS.update({op: 3 for op in _CMP_OPS})
_LEVELS.update({"+": 4, "-": 4, "*": 5, "/": 5})
_UNARY_LEVEL = 6
_ATOM_LEVEL = 7


def _level(e):
    if isinstance(e, Binary):
        return _LEVELS[e.op]
    if isinstance(e, Unary):
        return _UNARY_LEVEL
    return _ATOM_LEVEL


def print_expr(e: Expr) -> str:
    """Render with the fewest parentheses such that parse_expr round-trips."""
    if isinstance(e, Lit):
        v = e.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, ReturnState):
            return v.value
        if isinstance(v, (int, float)):
            return repr(v) if isinstance(v, float) else str(v)
        if "'" in v:
            raise ValueError("text literals cannot contain a single quote")
        return f"'{v}'"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        inner = print_expr(e.operand)
        if _level(e.operand) < _UNARY_LEVEL:
            inner = f"({inner})"
        return e.op + inner
    if isinstance(e, Binary):
        lvl = _LEVELS[e.op]
        left = print_expr(e.left)
        right = print_expr(e.right)
        if e.op in _CMP_OPS:
            # comparisons do not chain: both operands must bind tighter
            if _level(e.left) <= lvl:
                left = f"({left})"
            if _level(e.right) <= lvl:
                right = f"({right})"
        else:
            if _level(e.left) < lvl:
                left = f"({left})"
            if _level(e.right) <= lvl:
                right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")
