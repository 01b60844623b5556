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

parse_expr and parse_assignment parse each shape once: beside the
tokenizer, the splitter turns a text into its shape and its names and
literal values (see "shapes" below).

Note that IDENT may contain "-", "/" and ".", so arithmetic over variables
needs spaces around the operators ("a - b", not "a-b").
"""

from __future__ import annotations

import math
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
# closure from its compiled operands and their folded nodes (see
# _compile): ==, != and the numeric operators hold a literal right
# operand in the closure, whose type is then known, and read a memory-key
# left operand there too, which saves a call per operand. Each closure
# takes its operands as default arguments rather than closure cells, which
# would cost 40 bytes more per operand.

_NUMBER = frozenset({int, float})  # exact types: bool is not a number


def _not_bool(v, op):
    return ExprError("TYPE_ERROR", f"'{op}' requires booleans, got {value_tag(v)}")


def _require_number(v, op):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ExprError("TYPE_ERROR", f"'{op}' requires numbers, got {value_tag(v)}")
    return v


def _too_large(op):  # an integer past about 309 digits met a float
    return ExprError("FLOAT_OVERFLOW", f"'{op}' mixes a float with an integer too large "
                     "for a float")


def _undefined(name):
    return ExprError("UNDEFINED_VARIABLE", f"'{name}' is not defined", subject=name)


def _divide(a, b):
    if b == 0:
        raise ExprError("DIVISION_BY_ZERO", "division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q = a // b
        if q < 0 and q * b != a:
            q += 1  # truncate toward zero
        return q
    return a / b  # OverflowError is the caller's to turn into _too_large


def _not(operand):
    def not_(memory, operand=operand):
        v = operand(memory)
        if v is True or v is False:
            return not v
        raise _not_bool(v, "!")
    return not_


def _negate(operand):
    def negate(memory, operand=operand):
        return -_require_number(operand(memory), "-")
    return negate


def _junction(op, go_on):
    """The builder of ``op``, && or ||, whose right operand is evaluated
    only when the left one is ``go_on``."""
    def build(left, right, *_nodes):
        def junction(memory, left=left, right=right, go_on=go_on, op=op):
            v = left(memory)
            if v is go_on:
                v = right(memory)
            if v is True or v is False:
                return v
            raise _not_bool(v, op)
        return junction
    return build


def _fused(op, fn, fast, slow, left, lnode, b):
    """The closure of ``left op b`` for a literal ``b``: ``fn(a, b)`` when
    the left value ``a`` has a type in ``fast``, ``slow(a, b)`` otherwise.
    A memory-key left operand ``lnode`` is read in the closure itself."""
    name = lnode.name if type(lnode) is Var else None

    def fused(memory, left=left, name=name, b=b, op=op, fn=fn, fast=fast, slow=slow):
        try:
            a = left(memory) if name is None else memory[name]
        except KeyError:  # only memory[name] raises it; compiled operands raise ExprError
            raise _undefined(name) from None
        if type(a) in fast:
            try:
                return fn(a, b)
            except OverflowError:
                raise _too_large(op) from None
        return slow(a, b)
    return fused


def _equality(op, cmp):
    """The builder of ``op``, == or !=, which applies ``cmp`` to two values
    of one type."""
    same = cmp(0, 0)  # what op gives for equal values

    def slow(a, b):
        return values_equal(a, b) is same

    def build(left, right, lnode, rnode):
        if type(rnode) is Lit:
            b = rnode.value
            return _fused(op, cmp, (type(b),), slow, left, lnode, b)

        def equality(memory, left=left, right=right, same=same):
            return values_equal(left(memory), right(memory)) is same
        return equality
    return build


def _numeric(op, fn):
    """The builder of ``op``, which applies ``fn`` to two numbers."""
    def slow(a, b):  # a is not a number
        return fn(_require_number(a, op), b)

    def build(left, right, lnode, rnode):
        if type(rnode) is Lit and type(rnode.value) in _NUMBER:
            return _fused(op, fn, _NUMBER, slow, left, lnode, rnode.value)

        def numeric(memory, op=op, fn=fn, left=left, right=right):
            a = left(memory)
            b = right(memory)
            if type(a) in _NUMBER and type(b) in _NUMBER:
                try:
                    return fn(a, b)
                except OverflowError:
                    raise _too_large(op) from None
            return fn(_require_number(a, op), _require_number(b, op))
        return numeric
    return build


# The operator table. A binary operator has a precedence level, 1 binding
# loosest, and a builder; it is left-associative, except that comparisons
# do not chain. A prefix operator binds tighter than every binary one.
_BINARY = {"||": (1, _junction("||", False)), "&&": (2, _junction("&&", True)),
           "==": (3, _equality("==", operator.eq)), "!=": (3, _equality("!=", operator.ne))} | {
    op: (level, _numeric(op, fn)) for op, level, fn in (
        ("<", 3, operator.lt), ("<=", 3, operator.le), (">", 3, operator.gt),
        (">=", 3, operator.ge), ("+", 4, operator.add), ("-", 4, operator.sub),
        ("*", 5, operator.mul), ("/", 5, _divide))}
_COMPARISON = _BINARY["=="][0]
_PREFIX = {"!": _not, "-": _negate}
_PREFIX_LEVEL = 1 + max(level for level, _ in _BINARY.values())  # atoms bind tighter still

_OPERATORS = sorted({*_BINARY, *_PREFIX, ":=", "(", ")"}, key=lambda op: (-len(op), op))
# The tokens that carry a value, each a name and a pattern; the tokenizer
# and the splitter both match them. Digits and spaces are ASCII ones, as in
# identifiers.
_VALUE_TOKENS = (("number", r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"), ("text", r"'[^']*'"),
                 ("ident", r"[A-Za-z_][A-Za-z0-9_/.\-]*"))
_TOKEN_RE = re.compile("|".join([
    r"(?P<ws>\s+)", *(f"(?P<{kind}>{pattern})" for kind, pattern in _VALUE_TOKENS),
    "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")"]), re.ASCII)
_VALUE_RE = re.compile("(" + "|".join(pattern for _, pattern in _VALUE_TOKENS) + ")", re.ASCII)


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


def _number(literal, offset=None):
    """The value of the number literal ``literal`` at ``offset``: a float if
    it is written with a point or an exponent, else an integer. A float too
    large for a float, or an integer longer than MAX_INT_DIGITS digits, is
    an EXPR_SYNTAX error."""
    if "." in literal or "e" in literal or "E" in literal:
        number = float(literal)
        if number == math.inf:
            raise ExprError("EXPR_SYNTAX", "float literal too large for a float", offset=offset)
        return number
    if len(literal) > MAX_INT_DIGITS:
        raise ExprError("EXPR_SYNTAX", f"integer literal longer than {MAX_INT_DIGITS} digits",
                        offset=offset)
    return int(literal)


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

    def assignment(self):
        """``<key> := <expr>``, to the end of the text."""
        kind, key, offset = self.tokens[0]
        if kind != "ident" or key in _RESERVED:
            raise ExprError("EXPR_SYNTAX", "assignment must start with a memory key",
                            offset=offset)
        _, op, offset = self.tokens[1]
        if op != ":=":
            raise ExprError("EXPR_SYNTAX", "expected ':='", offset=offset)
        self.pos = 2
        return Assignment(key, self.to_end())

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
            return Lit(_number(value, offset)), 1
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


# --- shapes ----------------------------------------------------------------
#
# Templates fill their own names, and often numbers, into the same
# patterns. A text's shape is the text with each name, integer, float and
# text literal replaced by a placeholder of its kind. The splitter matches
# the tokenizer's own value patterns, so a shape's tokens are the text's
# but for their values. Each shape is parsed once, and each text binds its
# own values into the shape's tree, in source order. A text whose shape
# does not parse, or with a number literal out of range, is parsed on its
# own, so that its error and offset are its own.

def _split(text):
    """``text``'s shape and its names and literal values in source order, or
    None if a number literal in it is out of range."""
    parts = _VALUE_RE.split(text)  # text between tokens, then a token, and so on
    values = []
    for i in range(1, len(parts), 2):
        token = parts[i]
        first = token[0]
        if first == "'":
            values.append(token[1:-1])
            parts[i] = "''"
        elif first.isdigit():
            try:
                value = _number(token)
            except ExprError:
                return None
            values.append(value)
            parts[i] = "0.0" if type(value) is float else "0"
        elif token not in _RESERVED:
            values.append(token)
            parts[i] = "n"
    return "".join(parts), values


@lru_cache(maxsize=None)
def _parsed_shape(shape, rule):
    """``rule``, a parser method, applied to ``shape``, or None if it fails."""
    try:
        return rule(_Parser(shape))
    except ExprError:
        return None


_RESERVED_TYPES = {type(lit.value) for lit in _RESERVED.values()}


def _bind(e, values):
    """The shape tree ``e`` with its placeholders replaced, in source order,
    by the names and values the iterator ``values`` yields."""
    t = type(e)
    if t is Binary:
        return Binary(e.op, _bind(e.left, values), _bind(e.right, values))
    if t is Var:
        return Var(next(values))
    if t is Lit:  # a reserved word stays; every other literal is a placeholder
        return e if type(e.value) in _RESERVED_TYPES else Lit(next(values))
    if t is Unary:
        return Unary(e.op, _bind(e.operand, values))
    return Assignment(next(values), _bind(e.value, values))


def _parse(text, rule):
    split = _split(text)
    if split is not None:
        shape, values = split
        e = _parsed_shape(shape, rule)
        if e is not None:
            return _bind(e, iter(values))
    return rule(_Parser(text))


def parse_expr(text: str) -> Expr:
    return _parse(text, _Parser.to_end)


def parse_assignment(text: str) -> Assignment:
    """Parse ``<key> := <expr>``. A single ``=`` is reserved and rejected."""
    return _parse(text, _Parser.assignment)


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
            raise _undefined(name) from None
    return key


@lru_cache(maxsize=None)
def _constant(kind, value):
    """One leaf per literal: ``kind`` keeps 1, 1.0 and true apart."""
    return lambda memory, value=value: value


def _leaf(v):
    # 0.0 == -0.0, so float literals get a leaf of their own
    return (_constant.__wrapped__ if type(v) is float else _constant)(type(v), v)


def _compile(e):
    """``e`` folded and compiled: its folded node and its function.

    An operator whose operands all folded to literals is applied to them
    once, here, and folds to the literal it gives. One that raises stays
    compiled, so that it raises at every evaluation as it would unfolded;
    the operators over it do not fold either. Each operator is applied at
    most once, so compiling stays linear in the size of ``e``.
    """
    t = type(e)
    if t is Var:
        return e, _key(e.name)
    if t is Lit:
        return e, _leaf(e.value)
    if t is Unary:
        node, operand = _compile(e.operand)
        fn = _PREFIX[e.op](operand)
        literal = type(node) is Lit
    elif t is Binary:
        lnode, left = _compile(e.left)
        rnode, right = _compile(e.right)
        fn = _BINARY[e.op][1](left, right, lnode, rnode)
        literal = type(lnode) is Lit and type(rnode) is Lit
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if literal:
        try:
            v = fn({})  # no key to read
        except ExprError:
            return e, fn
        return Lit(v), _leaf(v)
    return e, fn


def compile_expr(e: Expr) -> Callable[[Mapping[str, Value]], Value]:
    """Compile ``e`` into a function of the memory that returns what
    ``eval_expr(e, memory)`` returns and raises what it raises."""
    return _compile(e)[1]


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
