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

parse_expr and parse_assignment parse their own text. The engine's path
parses each shape once: beside the tokenizer, the splitter turns a text
into its shape and its names and literal values (see "shapes" below). Each
structure compiles once into the source of one Python function, whose
factory each text then calls with its own keys and literal values (see
"compiling" below).

Note that IDENT may contain "-", "/" and ".", so arithmetic over variables
needs spaces around the operators ("a - b", not "a-b").
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Union

from .errors import ExprError
from .model import IDENT, MAX_INT_DIGITS, ReturnState, Value, value_tag, value_text, values_equal


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
# Each expression shape compiles into the source of one Python function (see
# "compiling" below) that evaluates the whole expression in straight-line
# code. Each operator there checks its operands' types, with a fast path for
# operands of the exact classes int and float, or for == and != of a literal
# operand's class, and raises the language's error codes and messages
# through the helpers here.

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


# The operator table. A binary operator has a precedence level, 1 binding
# loosest, a kind and its Python: for a junction, the left value on which
# its right operand is evaluated; for the others, the expression of their
# fast path over two operands. Binary operators are left-associative, except
# that comparisons do not chain. A prefix operator, of its own kind, binds
# tighter than every binary one.
_BINARY = {"||": (1, "junction", "False"), "&&": (2, "junction", "True"),
           "==": (3, "equality", "{} == {}"), "!=": (3, "equality", "{} != {}")} | {
    op: (level, "numeric", "_divide({}, {})" if op == "/" else f"{{}} {op} {{}}")
    for op, level in (("<", 3), ("<=", 3), (">", 3), (">=", 3), ("+", 4), ("-", 4), ("*", 5),
                      ("/", 5))}
_COMPARISON = _BINARY["=="][0]
_PREFIX = {"!": "not", "-": "negate"}
_PREFIX_LEVEL = 1 + max(level for level, _, _ in _BINARY.values())  # atoms bind tighter still

_OPERATORS = sorted({*_BINARY, *_PREFIX, ":=", "(", ")"}, key=lambda op: (-len(op), op))
# The tokens that carry a value, each a name and a pattern; the tokenizer
# and the splitter both match them. Digits and spaces are ASCII ones, as in
# identifiers.
_VALUE_TOKENS = (("number", r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"), ("text", r"'[^']*'"),
                 ("ident", IDENT))
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
# own values into the shape's binder. A text whose shape does not parse, or
# with a number literal out of range, is parsed on its own, so its error
# and offset are its own.

def _split(text):
    """``text``'s shape and the values of its leaves in source order (its
    names, literals and reserved words), or None if a number literal in it
    is out of range."""
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
        elif token in _RESERVED:
            values.append(_RESERVED[token].value)
        else:
            values.append(token)
            parts[i] = "n"
    return "".join(parts), values


@lru_cache(maxsize=None)
def _binder(shape, rule):
    """The binder of ``shape`` parsed by ``rule``, a parser method, or None
    if it does not parse: a function of a text's values (see _split) that
    returns what the text compiles to. An assignment's first value is its
    key, which is returned with its value's compiled function."""
    try:
        e = rule(_Parser(shape))
    except ExprError:
        return None
    if type(e) is not Assignment:
        return _skeleton_binder(_skeleton(e, []))
    bind = _skeleton_binder(_skeleton(e.value, []))
    return lambda values: (values[0], bind(values[1:]))


def _compile_text(text, rule):
    """``text`` parsed by ``rule`` and bound by its shape's binder. A text
    whose shape does not parse, or with a number literal out of range, does
    not parse itself: its own parse raises its own error."""
    split = _split(text)
    bind = split and _binder(split[0], rule)
    if bind is None:
        rule(_Parser(text))
    return bind(split[1])


# The per-text caches that the engine and check_expressions read: each text
# is compiled once per process, and only its compiled function is kept. A
# text that does not parse is not cached.
@lru_cache(maxsize=None)
def _compiled_expr(text):
    return _compile_text(text, _Parser.to_end)


@lru_cache(maxsize=None)
def _compiled_assignment(text):
    """``key := expr`` as the key and the compiled expression."""
    return _compile_text(text, _Parser.assignment)


def parse_expr(text: str) -> Expr:
    return _Parser(text).to_end()


def parse_assignment(text: str) -> Assignment:
    """Parse ``<key> := <expr>``. A single ``=`` is reserved and rejected."""
    return _Parser(text).assignment()


# --- compiling and evaluation ----------------------------------------------
#
# An expression tree's skeleton is its structure without its values: an
# operator is a tuple of its symbol and its operands' skeletons, a key read
# is _KEY and a literal is its value's class. Each skeleton is written once
# as the source of a factory (see _Writer), which is compiled once; each
# text or tree then calls the factory with its own leaf values, its keys and
# literals, as arguments, in source order, and gets its own function of the
# memory. Texts of one shape, and trees of one structure, share one factory.
#
# The fold rule: a literal-only subtree (an operator whose operands are all
# literals, or fold to literals) is evaluated once per text, when the text is
# bound, and its value becomes a literal leaf. One that raises is not folded,
# so that it raises at every evaluation, and the operators over it do not
# fold either. So a factory is keyed on the skeleton with its folded
# subtrees replaced, which says both the shape and what folded.

_KEY = None
_CLASS_NAMES = {bool: "bool", int: "int", float: "float", str: "str", ReturnState: "ReturnState"}
# The names a factory's source may use besides its own, and Python's builtins.
_GLOBALS = {"_undefined": _undefined, "_not_bool": _not_bool, "_too_large": _too_large,
            "_require_number": _require_number, "_divide": _divide, "_NUMBER": _NUMBER,
            "values_equal": values_equal, "ReturnState": ReturnState}


class _Writer:
    """The source of ``skeleton``'s factory: a function of the skeleton's
    leaf values that returns the function of the memory that evaluates it.

    That function is straight-line code: each key read and operator puts its
    value in a temporary of its own, ``v0``, ``v1``, …, and a junction's
    right operand is a block under its test. Leaf values are the factory's
    arguments, ``a0``, ``a1``, …, which the function holds as defaults. So
    the source is written from the operator table and these names alone,
    and no text of a document ever appears in it.

    Each operand's exact class is known when it is a literal, or a value
    that ==, !=, ! or a junction gave, which is a bool. A check that a known
    class passes is not written, nor is a fast path that it fails."""

    def __init__(self, skeleton):
        self.lines = []
        self.indent = 2
        self.args = self.temps = 0
        value, _ = self.operand(skeleton)
        self.write(f"return {value}")
        args = [f"a{i}" for i in range(self.args)]
        self.source = "\n".join([
            f"def factory({', '.join(args)}):",
            f"    def evaluate(memory{''.join(f', {a}={a}' for a in args)}):",
            *self.lines, "    return evaluate\n"])

    def write(self, *lines):
        self.lines.extend("    " * self.indent + line for line in lines)

    def temp(self):
        self.temps += 1
        return f"v{self.temps - 1}"

    def operand(self, node):
        """Write the code of ``node``; return the name that holds its value
        and its exact class, or None if that is not known."""
        if type(node) is not tuple:
            arg = f"a{self.args}"
            self.args += 1
            if node is not _KEY:
                return arg, node
            v = self.temp()
            self.write("try:", f"    {v} = memory[{arg}]",
                       "except KeyError:", f"    raise _undefined({arg}) from None")
            return v, None
        op, *operands = node
        if len(operands) == 1:
            return self.prefix(op, self.operand(operands[0]))
        _, kind, python = _BINARY[op]
        left = self.operand(operands[0])
        if kind == "junction":
            return self.junction(op, python, left, operands[1])
        right = self.operand(operands[1])
        return (self.equality if kind == "equality" else self.numeric)(op, python, left, right)

    def junction(self, op, go_on, left, right):
        """The right operand is evaluated, and then checked, when the left
        one is ``go_on``; else the left one must be the other bool."""
        (a, a_cls), v = left, self.temp()
        self.write(f"{v} = {a}", f"if {v} is {go_on}:")
        self.indent += 1
        b, b_cls = self.operand(right)
        self.write(f"{v} = {b}")
        if b_cls is not bool:
            self.write(f"if {v} is not True and {v} is not False:",
                       f"    raise _not_bool({v}, {op!r})")
        self.indent -= 1
        if a_cls is not bool:
            self.write(f"elif {v} is not {go_on == 'False'}:", f"    raise _not_bool({v}, {op!r})")
        return v, bool

    def equality(self, op, python, left, right):
        """``values_equal``, or the operator itself when one operand's class
        is known and the other has it."""
        (a, a_cls), (b, b_cls) = left, right
        v = self.temp()
        line = f"values_equal({a}, {b}) is {op == '=='}"
        if (a_cls is None) != (b_cls is None) and (a_cls or b_cls) in _CLASS_NAMES:
            name = _CLASS_NAMES[a_cls or b_cls]
            line = f"{python.format(a, b)} if type({b if a_cls else a}) is {name} else {line}"
        self.write(f"{v} = {line}")
        return v, bool

    def numeric(self, op, python, left, right):
        """The fast path when each operand is an int or a float, else the
        same with each operand checked in turn; an overflow is _too_large."""
        v = self.temp()
        tests, checked = zip(*(_number_test(a, cls, op) for a, cls in (left, right)))
        slow = f"{v} = {python.format(*checked)}"
        self.write("try:")
        if False in tests or not any(tests):  # no fast path, or no test for it
            self.write(f"    {slow}")
        else:
            self.write(f"    if {' and '.join(filter(None, tests))}:",
                       f"        {v} = {python.format(left[0], right[0])}",
                       "    else:", f"        {slow}")
        self.write("except OverflowError:", f"    raise _too_large({op!r}) from None")
        return v, None

    def prefix(self, op, operand):
        a, cls = operand
        v = self.temp()
        if _PREFIX[op] == "not":
            if cls is not bool:
                self.write(f"if {a} is not True and {a} is not False:",
                           f"    raise _not_bool({a}, {op!r})")
            self.write(f"{v} = {a} is False")
            return v, bool
        test, checked = _number_test(a, cls, op)
        self.write(f"{v} = -{a} if {test} else -{checked}" if test else f"{v} = -{checked}")
        return v, None


def _number_test(a, cls, op):
    """The test under which the operand ``a``, of exact class ``cls`` or
    None, is a number (None if it is one, False if it is not), and ``a``
    checked to be one."""
    if cls in _NUMBER:
        return None, a
    return (f"type({a}) in _NUMBER" if cls is None else False), f"_require_number({a}, {op!r})"


@lru_cache(maxsize=None)
def _factory(skeleton):
    """The factory of ``skeleton`` (see _Writer), compiled once."""
    namespace = dict(_GLOBALS)
    exec(compile(_Writer(skeleton).source, "<btt expression>", "exec"), namespace)
    return namespace["factory"]


def _skeleton(e, values, depth=1):
    """The skeleton of the expression tree ``e``, ``depth`` levels down; its
    leaf values are appended to ``values`` in source order. A hand-built
    tree deeper than the parser's cap is refused, as a parsed one would be."""
    if depth > MAX_EXPR_DEPTH:
        raise ExprError("EXPR_SYNTAX", "expression is nested too deeply")
    t = type(e)
    if t is Var:
        values.append(e.name)
        return _KEY
    if t is Lit:
        values.append(e.value)
        return type(e.value)
    if t is Unary:
        return e.op, _skeleton(e.operand, values, depth + 1)
    if t is Binary:
        return e.op, _skeleton(e.left, values, depth + 1), _skeleton(e.right, values, depth + 1)
    raise TypeError(f"not an expression node: {e!r}")


def _reads(node):
    """Whether the skeleton ``node`` reads a key."""
    return node is _KEY if type(node) is not tuple else any(map(_reads, node[1:]))


def _folds(node):
    """Whether an operator of the skeleton ``node`` reads no key."""
    return type(node) is tuple and (not _reads(node) or any(map(_folds, node[1:])))


def _fold(node, values, out):
    """``node`` with each literal-only subtree that evaluates replaced by its
    value's class (the fold rule): ``values`` iterates its leaf values, and
    the leaf values of the result are appended to ``out``."""
    if type(node) is not tuple:
        out.append(next(values))
        return node
    start = len(out)
    node = (node[0], *(_fold(operand, values, out) for operand in node[1:]))
    if any(type(operand) is tuple or operand is _KEY for operand in node[1:]):
        return node
    try:
        v = _factory(node)(*out[start:])({})  # no key to read
    except ExprError:
        return node
    out[start:] = [v]
    return type(v)


@lru_cache(maxsize=None)
def _skeleton_binder(skeleton):
    """A function of leaf values that returns ``skeleton``'s function of the
    memory over them, each text folding its own literal-only subtrees."""
    if _folds(skeleton):
        def bind(values):
            out = []
            folded = _fold(skeleton, iter(values), out)
            return _constant(folded, *out) if folded in _SHARED else _factory(folded)(*out)
        return bind
    if skeleton in _SHARED:
        return lambda values: _constant(skeleton, *values)
    factory = _factory(skeleton)
    return lambda values: factory(*values)


# The classes whose equal values are alike (0.0 == -0.0), and so whose
# constants texts may share: a call site that meets one function, as a
# tick's does when many texts are or fold to one value, is specialized for
# it.
_SHARED = frozenset({bool, int, str, ReturnState})


@lru_cache(maxsize=None)
def _constant(cls, v):
    """The function of every text that folds to ``v``, of class ``cls``."""
    return _factory(cls)(v)


def compile_expr(e: Expr) -> Callable[[Mapping[str, Value]], Value]:
    """Compile ``e`` into a function of the memory that returns what
    ``eval_expr(e, memory)`` returns and raises what it raises."""
    values = []
    return _skeleton_binder(_skeleton(e, values))(values)


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
