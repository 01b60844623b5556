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

The binary operators, their levels and the prefix operators are written
once, in the operator table below; the tokenizer, the parser, the compiler
and the printer all read it.

Note that IDENT may contain "-", "/" and ".", so arithmetic over variables
needs spaces around the operators ("a - b", not "a-b").
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Union

from .errors import ExprError
from .model import MAX_INT_DIGITS, ReturnState, Value, value_tag, value_text, values_equal


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

# --- operators -----------------------------------------------------------
#
# compile_expr turns a parsed expression into nested closures, one per
# operator, so that an evaluation dispatches on nothing: each closure
# applies its own operator and checks its operands' types with the
# language's error codes and messages. An operator's builder makes its
# closure from its compiled operands. Each closure takes its operands as
# default arguments rather than closure cells, which would cost 40 bytes
# more per operand.

_NUMBER = frozenset({int, float})  # exact types: bool is not a number


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


def _not(operand):
    def not_(memory, operand=operand):
        return not _require_bool(operand(memory), "!")
    return not_


def _negate(operand):
    def negate(memory, operand=operand):
        return -_require_number(operand(memory), "-")
    return negate


def _and(left, right):
    def and_(memory, left=left, right=right):
        return _require_bool(left(memory), "&&") and _require_bool(right(memory), "&&")
    return and_


def _or(left, right):
    def or_(memory, left=left, right=right):
        return _require_bool(left(memory), "||") or _require_bool(right(memory), "||")
    return or_


def _equal(left, right):
    def equal(memory, left=left, right=right):
        return values_equal(left(memory), right(memory))
    return equal


def _unequal(left, right):
    return _not(_equal(left, right))  # a != b is !(a == b), errors too


def _numeric(op, fn):
    """The builder of ``op``, which applies ``fn`` to two numbers."""
    def build(left, right):
        def numeric(memory, op=op, fn=fn, left=left, right=right):
            a = left(memory)
            b = right(memory)
            if type(a) in _NUMBER and type(b) in _NUMBER:
                return fn(a, b)
            return fn(_require_number(a, op), _require_number(b, op))
        return numeric
    return build


# The operator table. A binary operator has a precedence level, 1 binding
# loosest, and a builder; it is left-associative, except that comparisons
# do not chain. A prefix operator binds tighter than every binary one.
_BINARY = {"||": (1, _or), "&&": (2, _and), "==": (3, _equal), "!=": (3, _unequal)} | {
    op: (level, _numeric(op, fn)) for op, level, fn in (
        ("<", 3, operator.lt), ("<=", 3, operator.le), (">", 3, operator.gt),
        (">=", 3, operator.ge), ("+", 4, operator.add), ("-", 4, operator.sub),
        ("*", 5, operator.mul), ("/", 5, _divide))}
_COMPARISON = _BINARY["=="][0]
_PREFIX = {"!": _not, "-": _negate}
_PREFIX_LEVEL = 1 + max(level for level, _ in _BINARY.values())  # atoms bind tighter still

_OPERATORS = sorted({*_BINARY, *_PREFIX, ":=", "(", ")"}, key=lambda op: (-len(op), op))
_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<text>'[^']*')
      | (?P<ident>[A-Za-z_][A-Za-z0-9_/.\-]*)
      | (?P<op>""" + "|".join(map(re.escape, _OPERATORS)) + ")",
    re.VERBOSE,
)


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


# Parsing, compiling, evaluation and printing recurse once per level, so
# nesting is capped: an atom is one level, and each operator or pair of
# parentheses around an operand adds one.
MAX_EXPR_DEPTH = 64


class _Parser:
    """Precedence climbing over the token list. Each rule returns the parsed
    node with its nesting depth. Only operator tokens can have an operator
    as their text, so rules match operators by text alone."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # enclosing parentheses and prefix operators

    def fail(self, message):
        raise ExprError("EXPR_SYNTAX", message, offset=self.tokens[self.pos][2])

    def too_deep(self, offset):
        raise ExprError("EXPR_SYNTAX", "expression is nested too deeply", offset=offset)

    def to_end(self):
        """An expression that runs to the end of the text."""
        e, _ = self.binary(1)
        kind, value, offset = self.tokens[self.pos]
        if kind != "eof":
            raise ExprError("EXPR_SYNTAX", f"unexpected trailing {value!r}", offset=offset)
        return e

    def binary(self, floor):
        """Operands joined by the binary operators of level ``floor`` or
        tighter. An operator's right operand takes every tighter operator
        after it, so the next operator joined here binds no tighter than the
        last one: operators are left-associative. A comparison drops that
        ceiling below its own level, so comparisons do not chain."""
        left = self.unary()
        ceiling = _PREFIX_LEVEL
        while True:
            _, op, offset = self.tokens[self.pos]
            level = _BINARY[op][0] if op in _BINARY else 0
            if not floor <= level <= ceiling:
                return left
            self.pos += 1
            right = self.binary(level + 1)
            depth = max(left[1], right[1]) + 1
            if depth > MAX_EXPR_DEPTH:
                self.too_deep(offset)
            left = Binary(op, left[0], right[0]), depth
            ceiling = level - 1 if level == _COMPARISON else level

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
        kind, value, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "number":
            if "." in value or "e" in value or "E" in value:
                return Lit(float(value)), 1
            if len(value) > MAX_INT_DIGITS:
                raise ExprError("EXPR_SYNTAX", f"integer literal longer than "
                                f"{MAX_INT_DIGITS} digits", offset=offset)
            return Lit(int(value)), 1
        if kind == "text":
            return Lit(value[1:-1]), 1
        if kind == "ident":
            return _RESERVED.get(value) or Var(value), 1
        if value == "(":
            self.enter(offset)
            inner, depth = self.binary(1)
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
    return _Parser(text).to_end()


def parse_assignment(text: str) -> Assignment:
    """Parse ``<key> := <expr>``. A single ``=`` is reserved and rejected."""
    p = _Parser(text)
    kind, key, offset = p.tokens[0]
    if kind != "ident" or key in _RESERVED:
        raise ExprError("EXPR_SYNTAX", "assignment must start with a memory key", offset=offset)
    _, op, offset = p.tokens[1]
    if op != ":=":
        raise ExprError("EXPR_SYNTAX", "expected ':='", offset=offset)
    p.pos = 2
    return Assignment(key, p.to_end())


# --- compiling and evaluation ----------------------------------------------
#
# Key reads and literals are leaves shared process-wide, like the engine's
# per-text caches.

@lru_cache(maxsize=None)
def _key(name):
    def key(memory, name=name):
        try:
            return memory[name]
        except KeyError:
            raise ExprError("UNDEFINED_VARIABLE", f"'{name}' is not defined",
                            subject=name) from None
    return key


@lru_cache(maxsize=None)
def _constant(kind, value):
    """One leaf per literal: ``kind`` keeps 1, 1.0 and true apart."""
    return lambda memory, value=value: value


def compile_expr(e: Expr) -> Callable[[Mapping[str, Value]], Value]:
    """Compile ``e`` into a function of the memory that returns what
    ``eval_expr(e, memory)`` returns and raises what it raises."""
    t = type(e)
    if t is Var:
        return _key(e.name)
    if t is Lit:
        v = e.value
        # 0.0 == -0.0, so float literals get a leaf of their own
        return (_constant.__wrapped__ if type(v) is float else _constant)(type(v), v)
    if t is Unary:
        return _PREFIX[e.op](compile_expr(e.operand))
    if t is not Binary:
        raise TypeError(f"not an expression node: {e!r}")
    return _BINARY[e.op][1](compile_expr(e.left), compile_expr(e.right))


def eval_expr(e: Expr, memory: Mapping[str, Value]) -> Value:
    """Evaluate against the blackboard: compile ``e``, then call it. Pure:
    never writes memory.

    && and || short-circuit, so the right operand is not evaluated (and may
    reference undefined keys) when the left side decides the result.
    """
    return compile_expr(e)(memory)


def not_a_state(v: Value) -> ExprError:
    """The error for a state slot whose text evaluated to ``v``."""
    return ExprError("NOT_A_STATE", f"expected a return state, got {value_tag(v)}")


def eval_state_expr(e: Expr, memory: Mapping[str, Value]) -> ReturnState:
    v = compile_expr(e)(memory)
    if not isinstance(v, ReturnState):
        raise not_a_state(v)
    return v


# --- printing ------------------------------------------------------------

def _level(e):
    if isinstance(e, Binary):
        return _BINARY[e.op][0]
    return _PREFIX_LEVEL if isinstance(e, Unary) else _PREFIX_LEVEL + 1


def print_expr(e: Expr) -> str:
    """Render with the fewest parentheses such that parse_expr round-trips."""
    if isinstance(e, Lit):
        v = e.value
        if not isinstance(v, str):
            return value_text(v)
        if "'" in v:
            raise ValueError("text literals cannot contain a single quote")
        return f"'{v}'"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        inner = print_expr(e.operand)
        return e.op + (f"({inner})" if _level(e.operand) < _PREFIX_LEVEL else inner)
    if isinstance(e, Binary):
        level = _BINARY[e.op][0]
        left = print_expr(e.left)
        right = print_expr(e.right)
        # left-associative, except that a comparison's left operand must
        # bind tighter too: comparisons do not chain
        if _level(e.left) < level + (level == _COMPARISON):
            left = f"({left})"
        if _level(e.right) <= level:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")
