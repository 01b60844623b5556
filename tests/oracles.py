"""Test-only reference implementations, kept independent of the code under test."""

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace

import yaml

from btt import (
    MAX_EXPR_DEPTH,
    Assignment,
    Binary,
    Diagnostic,
    Document,
    ExpandedTree,
    ExpandError,
    ExprError,
    ForeachBlock,
    Lit,
    NodeDef,
    NodeKind,
    ReturnState,
    SchemaError,
    SourceSpan,
    TemplateDef,
    TickError,
    TraceEvent,
    Unary,
    ValidationFailure,
    Var,
    state_key,
    validate_expanded,
    value_text,
    values_equal,
    with_leaf_defaults,
)
from btt.model import (
    LEAF_PAYLOAD,
    MAX_INT_DIGITS,
    NAME_RE,
    PAYLOAD_FIELDS,
    PRIMARY_KINDS,
    TEMPLATED_PAYLOAD,
    value_tag,
)

S, F, R, E = (ReturnState.SUCCESS, ReturnState.FAILURE,
              ReturnState.RUNNING, ReturnState.EMPTY)

# The control rules, written out here rather than read from btt.engine so
# that the oracle shares no table with the code it checks: a serial kind
# moves on while a child returns its continue state, and a parallel node
# returns the first of these states that any child returned.
CONTINUE_STATE = {NodeKind.SEQUENCE: S, NodeKind.SELECTOR: F, NodeKind.SKIPPER: E}
PARALLEL_PRIORITY = (F, R, S, E)


def control_step(kind, results):
    """Serial control rule: consume child results lazily, in order, and
    return the first one outside the kind's continue state. If every child
    returns the continue state, so does the node."""
    cont = CONTINUE_STATE[kind]
    for r in results:
        if r is not cont:
            return r
    return cont


def parallel_step(results):
    """No short-circuit: FAILURE beats RUNNING beats SUCCESS beats EMPTY."""
    results = list(results)
    return next((s for s in PARALLEL_PRIORITY if s in results), E)


# The recursive-descent parser that ``btt.parse_expr`` replaced: one rule
# per precedence level, each with its own operator set.

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
    re.VERBOSE | re.ASCII,
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


_MAX_INT_DIGITS = 4300

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
                number = float(value)
                if number == math.inf:
                    raise ExprError("EXPR_SYNTAX", "float literal too large for a float",
                                    offset=offset)
                return Lit(number), 1
            if len(value) > _MAX_INT_DIGITS:
                raise ExprError("EXPR_SYNTAX", f"integer literal longer than "
                                f"{_MAX_INT_DIGITS} digits", offset=offset)
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


def reference_parse_expr(text):
    p = _Parser(text)
    e, _ = p.expr()
    kind, value, offset = p.peek()
    if kind != "eof":
        raise ExprError("EXPR_SYNTAX", f"unexpected trailing {value!r}", offset=offset)
    return e


def reference_parse_assignment(text):
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


def reference_eval_expr(e, memory):
    """The tree-walking interpreter that ``btt.eval_expr`` replaced: it
    dispatches on the node type and operator at every node it evaluates.

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
            left = _require_bool(reference_eval_expr(e.left, memory), op)
            if not left:
                return False
            return _require_bool(reference_eval_expr(e.right, memory), op)
        if op == "||":
            left = _require_bool(reference_eval_expr(e.left, memory), op)
            if left:
                return True
            return _require_bool(reference_eval_expr(e.right, memory), op)
        left = reference_eval_expr(e.left, memory)
        right = reference_eval_expr(e.right, memory)
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
        try:
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            return _divide(a, b)
        except OverflowError:  # an integer too large to convert to a float
            raise ExprError("FLOAT_OVERFLOW", f"'{op}' mixes a float with an integer too "
                            "large for a float") from None
    if t is Unary:
        v = reference_eval_expr(e.operand, memory)
        if e.op == "!":
            return not _require_bool(v, "!")
        return -_require_number(v, "-")
    raise TypeError(f"not an expression node: {e!r}")


def reference_eval_state_expr(e, memory):
    v = reference_eval_expr(e, memory)
    if not isinstance(v, ReturnState):
        raise ExprError("NOT_A_STATE", f"expected a return state, got {value_tag(v)}")
    return v


class ReferenceEngine:
    """The recursive tree-walking interpreter that ``btt.Engine`` replaced.

    It reads each node by name and parses each expression text every time
    it is evaluated. Ticking recurses once per tree level, so it is only
    for trees a few hundred levels deep. Construction assumes the scenario
    names only actions of the tree; ``Engine`` checks that.
    """

    def __init__(self, tree, scenario=None, memory=None):
        self.nodes = {nd.name: nd for nd in tree.nodes}
        self.root = tree.root
        self.memory = memory if memory is not None else {}
        self.scripts = dict(scenario.actions) if scenario is not None else {}
        self.cursors = dict.fromkeys(self.scripts, 0)
        self.tick_count = 0
        self.events = []  # the current tick's events
        for name in self.nodes:
            self.memory.setdefault(state_key(name), ReturnState.EMPTY)
        if scenario is not None:
            self.memory.update(scenario.memory)

    def tick(self):
        """Returns (root state, this tick's events); a TickError carries
        the events recorded before the failing node."""
        self.tick_count += 1
        self.events = []
        try:
            result = self.tick_node(self.root)
        except TickError as exc:
            exc.events = self.events
            raise
        return result, self.events

    def tick_node(self, name):
        nd = self.nodes[name]
        try:
            if nd.type == "condition":
                branch = reference_eval_expr(reference_parse_expr(nd.if_), self.memory)
                if not isinstance(branch, bool):
                    raise ExprError("TYPE_ERROR", "condition 'if' must evaluate to a boolean")
                text = nd.then if branch else nd.else_
                result = reference_eval_state_expr(reference_parse_expr(text), self.memory)
            elif nd.type == "action":
                if name in self.scripts:
                    script = self.scripts[name]
                    cursor = self.cursors[name]
                    self.cursors[name] = cursor + 1
                    result = script[min(cursor, len(script) - 1)]
                else:
                    for line in nd.script:
                        asg = reference_parse_assignment(line)
                        self.memory[asg.key] = reference_eval_expr(asg.value, self.memory)
                    result = reference_eval_state_expr(reference_parse_expr(nd.result), self.memory)
            elif nd.type == "parallel":
                result = parallel_step([self.tick_node(c) for c in nd.children])
            else:
                result = control_step(NodeKind(nd.type),
                                      (self.tick_node(c) for c in nd.children))
        except ExprError as exc:
            raise TickError(exc.render(), node=name, tick=self.tick_count) from exc
        self.memory[state_key(name)] = result
        self.events.append(TraceEvent(self.tick_count, name, result))
        return result


def _star_oracle(scripts, ticks, remember_on, clear_result):
    """Reference simulation of a Node* control with memory.

    Per tick, children whose last consumed result was ``remember_on`` are
    skipped; the first non-remembered child consumes the next entry of its
    script (last entry repeats). A result other than ``remember_on`` is
    returned immediately with memory retained. When every child has
    returned ``remember_on``, all memory clears and ``clear_result`` is
    returned, so the next tick starts from scratch.

    Returns (per-tick root results, per-child tick counts).
    """
    n = len(scripts)
    cursors = [0] * n
    remembered = [False] * n
    results = []
    for _ in range(ticks):
        outcome = None
        for i in range(n):
            if remembered[i]:
                continue
            script = scripts[i]
            r = script[min(cursors[i], len(script) - 1)]
            cursors[i] += 1
            if r is remember_on:
                remembered[i] = True
                continue
            outcome = r
            break
        if outcome is None:
            remembered = [False] * n
            outcome = clear_result
        results.append(outcome)
    return results, list(cursors)


def oracle_sequence_star(child_scripts, ticks: int) -> list:
    """Per-tick root results of a Sequence* over scripted children."""
    results, _ = _star_oracle(child_scripts, ticks,
                              ReturnState.SUCCESS, ReturnState.SUCCESS)
    return results


def oracle_selector_star(child_scripts, ticks: int) -> list:
    """Per-tick root results of a Selector* over scripted children."""
    results, _ = _star_oracle(child_scripts, ticks,
                              ReturnState.FAILURE, ReturnState.FAILURE)
    return results


def oracle_star_with_counts(kind: str, child_scripts, ticks: int):
    """Oracle results plus per-child tick counts; kind is 'sequence' or 'selector'."""
    if kind == "sequence":
        return _star_oracle(child_scripts, ticks, ReturnState.SUCCESS, ReturnState.SUCCESS)
    if kind == "selector":
        return _star_oracle(child_scripts, ticks, ReturnState.FAILURE, ReturnState.FAILURE)
    raise ValueError(f"unknown star kind: {kind!r}")


# --- reference expander ---------------------------------------------------

_SUBSTITUTE_RE = re.compile(r"\$(@?)([A-Za-z_][A-Za-z0-9_]*)?|~")
_WHOLE_REF_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")
_SPLICE_RE = re.compile(r"\$@([A-Za-z0-9_.\-]+)")

def _payload_problem(nd, kind):
    """btt.model.payload_problem written out again: a key counts as carried
    when its field is not None, empty or not."""
    takes = TEMPLATED_PAYLOAD if kind is None else LEAF_PAYLOAD.get(kind, {})
    for key, fld in PAYLOAD_FIELDS.items():
        if getattr(nd, fld) is None:
            if key in takes and takes[key] is None:
                return f"a {kind} node requires '{key}'"
        elif key not in takes:
            return f"a {kind or 'templated'} node takes no '{key}'"
    return None


@dataclass
class _Binding:
    """Bound parameter values for one instantiation.

    ``values`` maps param names (plus foreach loop/index variables) to
    scalars, tuples (lists), or node-name text. ``instance`` is the
    qualified name of the templated node being instantiated.
    """

    values: dict
    instance: str


@contextmanager
def _chained(stack):
    """Annotate errors from nested operations with the instantiation chain."""
    try:
        yield
    except ExpandError as exc:
        if exc.chain:
            raise
        raise ExpandError(exc.code, exc.message, subject=exc.subject,
                          span=exc.span, chain=stack) from exc


def _bind_arguments(tmpl: TemplateDef, inst: NodeDef) -> _Binding:
    values = {}
    node_params = [p for p in tmpl.params if p.kind in ("node", "nodes")]
    singles = [p for p in node_params if p.kind == "node"]
    variadic = node_params[-1] if node_params and node_params[-1].kind == "nodes" else None
    children = list(inst.children)
    if variadic is None:
        if len(children) != len(singles):
            raise ExpandError(
                "ARITY_MISMATCH",
                f"template '{tmpl.name}' takes {len(singles)} child(ren), got {len(children)}",
                subject=inst.name, span=inst.span)
    elif len(children) < len(singles) + 1:
        raise ExpandError(
            "ARITY_MISMATCH",
            f"template '{tmpl.name}' takes at least {len(singles) + 1} children, "
            f"got {len(children)}",
            subject=inst.name, span=inst.span)
    for i, p in enumerate(singles):
        values[p.name] = children[i]
    if variadic is not None:
        values[variadic.name] = tuple(children[len(singles):])

    declared = {p.name: p for p in tmpl.params}
    for key, v in (inst.args or {}).items():
        p = declared.get(key)
        if p is None:
            raise ExpandError("UNKNOWN_ARG", f"template '{tmpl.name}' declares no arg '{key}'",
                              subject=inst.name, span=inst.span)
        if p.kind in ("node", "nodes"):
            raise ExpandError("KIND_MISMATCH",
                              f"arg '{key}' is a {p.kind} parameter; it is bound from children",
                              subject=inst.name, span=inst.span)
        if p.kind == "scalar" and isinstance(v, tuple):
            raise ExpandError("KIND_MISMATCH", f"arg '{key}' expects a scalar, got a list",
                              subject=inst.name, span=inst.span)
        if p.kind == "scalar-list" and not isinstance(v, tuple):
            raise ExpandError("KIND_MISMATCH", f"arg '{key}' expects a list, got a scalar",
                              subject=inst.name, span=inst.span)
        values[key] = v
    for p in tmpl.params:
        if p.kind in ("scalar", "scalar-list") and p.name not in values:
            if p.default is not None:
                values[p.name] = p.default
            else:
                raise ExpandError(
                    "MISSING_ARG",
                    f"arg '{p.name}' of template '{tmpl.name}' has no value and no default",
                    subject=inst.name, span=inst.span)
    return _Binding(values=values, instance=inst.name)


def _substitute(pattern: str, binding: _Binding, where) -> str:
    """Single-pass placeholder substitution; output is not re-scanned.
    ``where`` is the (subject, span) an error names: the node the pattern
    belongs to, or the instance for a body key, foreach emit or root."""
    subject, span = where

    def error(code, message):
        return ExpandError(code, f"{message}, in '{pattern}'", subject=subject, span=span)

    def repl(m):
        if m.group(0) == "~":
            return binding.instance
        splice, ident = m.groups()
        if splice:
            raise error("UNBOUND_PLACEHOLDER",
                        "'$@' splices are only valid as a whole children entry")
        if ident is None:
            raise error("UNBOUND_PLACEHOLDER", "'$' must be followed by a parameter name")
        if ident == "name":
            return binding.instance
        if ident not in binding.values:
            raise error("UNBOUND_PLACEHOLDER", f"'${ident}' is not bound")
        v = binding.values[ident]
        if isinstance(v, tuple):
            raise error("LIST_IN_SCALAR_POSITION",
                        f"list parameter '{ident}' used where a scalar is required")
        return value_text(v)

    return _SUBSTITUTE_RE.sub(repl, pattern)


def _qualify(instance, name):
    if name == instance or name.startswith(instance + "/"):
        return name
    return f"{instance}/{name}"


@dataclass
class _Pending:
    """One substituted body node awaiting children resolution."""

    name_sub: str
    pattern: NodeDef
    binding: _Binding
    blocks: dict  # emitted names of foreach blocks at this body level
    final: str = ""


def _expand_body_items(body, binding, stack=()):
    items = []
    level_blocks = {}
    for key, entry in body.items():
        if isinstance(entry, ForeachBlock):
            sub_items, emitted = _expand_block_items(entry, binding, stack)
            level_blocks[key] = emitted
            items.extend(sub_items)
        else:
            items.append(_Pending(_substitute(key, binding, (binding.instance, entry.span)),
                                  entry, binding, level_blocks))
    return items


def _expand_block_items(block, binding, stack=()):
    m = _WHOLE_REF_RE.fullmatch(block.list_ref)
    if m is None:
        raise ExpandError("NOT_A_LIST",
                          f"foreach 'list' must be a $param reference, got '{block.list_ref}'",
                          subject=block.list_ref, span=block.span, chain=stack)
    ident = m.group(1)
    if ident not in binding.values:
        raise ExpandError("UNBOUND_PLACEHOLDER", f"'${ident}' is not bound",
                          subject=block.list_ref, span=block.span, chain=stack)
    value = binding.values[ident]
    if not isinstance(value, tuple):
        raise ExpandError("NOT_A_LIST",
                          f"foreach iterates a list, but '${ident}' is a scalar",
                          subject=block.list_ref, span=block.span, chain=stack)
    items = []
    emitted = []
    seen = set()
    for k, elem in enumerate(value):
        ib = _Binding({**binding.values, block.var: elem, block.index: k}, binding.instance)
        for it in _expand_body_items(block.nodes, ib, stack):
            if it.name_sub in seen:
                raise ExpandError("NAME_CLASH",
                                  f"iterations produce the same node name '{it.name_sub}'",
                                  subject=it.name_sub, span=block.span, chain=stack)
            seen.add(it.name_sub)
            items.append(it)
        emitted.append(_substitute(block.emit, ib, (binding.instance, block.span)))
    return items, emitted


def _resolve_children(entries, binding, local_map, blocks, where):
    out = []
    for entry in entries:
        m = _SPLICE_RE.fullmatch(entry)
        if m is not None:
            name = m.group(1)
            if name not in blocks:
                raise ExpandError("UNKNOWN_BLOCK",
                                  f"no foreach block named '{name}', in '{entry}'",
                                  subject=where[0], span=where[1])
            out.extend(local_map.get(nm, nm) for nm in blocks[name])
            continue
        w = _WHOLE_REF_RE.fullmatch(entry)
        if w is not None:
            ident = w.group(1)
            bound = binding.values.get(ident)
            if isinstance(bound, tuple):
                # a list param as a whole children entry splices element-wise
                for v in bound:
                    t = value_text(v)
                    out.append(local_map.get(t, t))
                continue
        t = _substitute(entry, binding, where)
        out.append(local_map.get(t, t))
    return tuple(out)


def _forward_value(v, binding, where):
    if not isinstance(v, str):
        return v
    w = _WHOLE_REF_RE.fullmatch(v)
    if w is not None:
        ident = w.group(1)
        if ident == "name":
            return binding.instance
        if ident in binding.values:
            return binding.values[ident]  # forwarded with its kind intact
    return _substitute(v, binding, where)


def _forward_args(args, binding, where):
    if args is None:
        return None
    out = {}
    for key, v in args.items():
        if isinstance(v, tuple):
            flat = []
            for elem in v:
                fwd = _forward_value(elem, binding, where)
                if isinstance(fwd, tuple):
                    flat.extend(fwd)
                else:
                    flat.append(fwd)
            out[key] = tuple(flat)
        else:
            out[key] = _forward_value(v, binding, where)
    return out


def _check_payload(nd, kind, name):
    """Raise BAD_NODE for node ``name`` unless ``nd`` carries the payload
    that ``kind`` takes; ``kind`` is None for a templated node."""
    problem = _payload_problem(nd, kind)
    if problem is not None:
        raise ExpandError("BAD_NODE", problem, subject=name, span=nd.span)


def _finalize_primary(it, type_sub, children):
    pat = it.pattern
    binding = it.binding
    if not NAME_RE.fullmatch(it.final):
        raise ExpandError("INVALID_NAME",
                          f"substitution produced an invalid node name '{it.final}'",
                          subject=it.final, span=pat.span)
    _check_payload(pat, type_sub, it.final)
    where = (it.final, pat.span)
    sub = lambda s: None if s is None else _substitute(s, binding, where)
    node = NodeDef(
        name=it.final,
        type=type_sub,
        children=children,
        if_=sub(pat.if_),
        then=sub(pat.then),
        else_=sub(pat.else_),
        script=None if pat.script is None else tuple(sub(s) for s in pat.script),
        result=sub(pat.result),
        span=pat.span,
    )
    return with_leaf_defaults(node)


def _finalize_item(it, local_map, registry, stack, max_depth):
    where = (it.final, it.pattern.span)
    type_sub = _substitute(it.pattern.type, it.binding, where)
    children = _resolve_children(it.pattern.children, it.binding, local_map, it.blocks, where)
    if type_sub in PRIMARY_KINDS:
        return [_finalize_primary(it, type_sub, children)]
    if type_sub in registry:
        if type_sub in stack:
            raise ExpandError("RECURSIVE_TEMPLATE",
                              f"template '{type_sub}' is already being expanded",
                              subject=it.final, span=it.pattern.span, chain=stack)
        if not NAME_RE.fullmatch(it.final):
            raise ExpandError("INVALID_NAME",
                              f"substitution produced an invalid node name '{it.final}'",
                              subject=it.final, span=it.pattern.span)
        # the pattern's leaf payload rides along for instantiate to reject
        inst = replace(it.pattern, name=it.final, type=type_sub, children=children,
                       args=_forward_args(it.pattern.args, it.binding, where))
        return reference_instantiate(registry[type_sub], inst, registry,
                           stack + (type_sub,), max_depth=max_depth)
    raise ExpandError("UNKNOWN_TYPE",
                      f"type '{type_sub}' is neither a primary kind nor a template",
                      subject=it.final, span=it.pattern.span, chain=stack)


def reference_instantiate(tmpl: TemplateDef, inst: NodeDef, registry: dict,
                stack=None, max_depth: int = 64) -> list:
    """Expand one templated node into its primary node collection.

    ``stack`` is the instantiation chain including ``tmpl.name`` itself.
    The returned collection contains exactly one node named ``inst.name``
    (the template's root); all others are prefixed ``<inst.name>/``.
    """
    stack = tuple(stack) if stack is not None else (tmpl.name,)
    with _chained(stack):
        if len(stack) > max_depth:
            raise ExpandError("DEPTH_EXCEEDED",
                              f"template nesting deeper than {max_depth}",
                              subject=inst.name, span=inst.span, chain=stack)
        _check_payload(inst, None, inst.name)
        binding = _bind_arguments(tmpl, inst)
        items = _expand_body_items(tmpl.body, binding, stack)
        root_q = _qualify(inst.name, _substitute(tmpl.root, binding, (inst.name, tmpl.span)))
        local_map = {}
        finals = set()
        root_count = 0
        for it in items:
            q = _qualify(inst.name, it.name_sub)
            if q == root_q:
                it.final = inst.name
                root_count += 1
            else:
                it.final = q
            if it.final in finals:
                raise ExpandError("DUPLICATE_NAME",
                                  f"expansion produces duplicate node '{it.final}'",
                                  subject=it.final, span=tmpl.span)
            finals.add(it.final)
            local_map[it.name_sub] = it.final
            local_map[q] = it.final
        if root_count != 1:
            raise ExpandError("BAD_TEMPLATE_ROOT",
                              f"template root '{tmpl.root}' does not resolve to a body node",
                              subject=inst.name, span=tmpl.span)
        out = []
        for it in items:
            out.extend(_finalize_item(it, local_map, registry, stack, max_depth))
        return out


def reference_expand_document(doc: Document, builtins: dict | None = None,
                    max_depth: int = 64) -> ExpandedTree:
    """The expander that compiled template plans replaced: every instance
    re-scans each pattern string with a regex callback and re-checks each
    node's payload."""
    registry = dict(builtins) if builtins else {}
    registry.update(doc.templates)
    out = []
    for name, nd in doc.nodes.items():
        if nd.type in PRIMARY_KINDS:
            out.append(with_leaf_defaults(nd))
        elif nd.type in registry:
            out.extend(reference_instantiate(registry[nd.type], nd, registry,
                                   (nd.type,), max_depth=max_depth))
        else:
            raise ExpandError("UNKNOWN_TYPE",
                              f"type '{nd.type}' is neither a primary kind nor a template",
                              subject=name, span=nd.span)
    tree = ExpandedTree(tuple(out), doc.root)
    diags = validate_expanded(tree)
    if diags:
        raise ValidationFailure(diags)
    return tree


# --- reference validation -------------------------------------------------

def _is_sequence(v):
    return isinstance(v, (tuple, list))


def _listed(nd: NodeDef):
    """The node's children, or none if they are not a tuple or list."""
    return nd.children if _is_sequence(nd.children) else ()


def _first_non_text(nd: NodeDef):
    """What is wrong with the first of the node's name, payload texts,
    script lines, script and children that is not text (a script: None or
    a tuple or list; children: a tuple or list), or None if each is."""
    if not isinstance(nd.name, str):
        return f"the name must be text, not {type(nd.name).__name__}"
    for key in ("if", "then", "else", "result"):
        value = getattr(nd, PAYLOAD_FIELDS[key])
        if value is not None and not isinstance(value, str):
            return f"'{key}' must be text, not {type(value).__name__}"
    if _is_sequence(nd.script):
        for line in nd.script:
            if not isinstance(line, str):
                return f"a 'script' line must be text, not {type(line).__name__}"
    elif nd.script is not None:
        return f"'script' must be a sequence of text, not {type(nd.script).__name__}"
    if not _is_sequence(nd.children):
        return f"'children' must be a sequence of text, not {type(nd.children).__name__}"
    return None


def _texts_with_placeholder(nd: NodeDef):
    # "$" is residue anywhere; "~" only counts in name positions, since
    # quoted expression text may legitimately contain a tilde. A value that
    # is not text, or a script that is not a sequence, carries no residue.
    script = nd.script if _is_sequence(nd.script) else ()
    names = [t for t in (nd.name, nd.type, *_listed(nd)) if isinstance(t, str)]
    texts = [t for t in (nd.if_, nd.then, nd.else_, nd.result, *script)
             if isinstance(t, str)]
    return any("$" in t or "~" in t for t in names) or any("$" in t for t in texts)


def _key(v):
    """``v``, or a new object if ``v`` cannot be hashed: such a name, type,
    child entry or root equals nothing, so it names no node and no kind."""
    try:
        hash(v)
    except TypeError:
        return object()
    return v


def reference_validate_expanded(tree: ExpandedTree) -> list:
    """The validation that per-shape payload verdicts, one residue scan per
    tree and a plain walk for trees without shared children replaced: every
    node's payload is checked key by key, every node's texts are scanned
    (a name, payload text or script line that is not text is BAD_NODE, and
    so is a script or children that is not a sequence; such children are
    read as none), and the walk is a DFS with colours. It builds its own
    first-occurrence index instead of calling ``tree.by_name()``."""
    diags = []
    seen = set()
    defined = {}
    for nd in tree.nodes:
        name = _key(nd.name)
        if name in seen:
            diags.append(
                Diagnostic("DUPLICATE_NAME", nd.name, "node name defined more than once")
            )
        seen.add(name)
        defined.setdefault(name, nd)

    for nd in defined.values():
        if _key(nd.type) not in PRIMARY_KINDS:
            diags.append(
                Diagnostic("UNKNOWN_TYPE", nd.name,
                           f"type '{nd.type}' is not a primary node kind")
            )
        else:
            if nd.type in LEAF_PAYLOAD and _listed(nd):
                diags.append(
                    Diagnostic("LEAF_WITH_CHILDREN", nd.name,
                               f"{nd.type} node must not have children")
                )
            elif nd.type not in LEAF_PAYLOAD and not _listed(nd):
                diags.append(
                    Diagnostic("CONTROL_WITHOUT_CHILDREN", nd.name,
                               f"{nd.type} node requires at least one child")
                )
            # an expanded leaf also carries the default of every optional key
            unset = [key for key, default in LEAF_PAYLOAD.get(nd.type, {}).items()
                     if default is not None and getattr(nd, PAYLOAD_FIELDS[key]) is None]
            problem = (_payload_problem(nd, nd.type)
                       or unset and f"a {nd.type} node has no '{unset[0]}'")
            if problem:
                diags.append(Diagnostic("BAD_NODE", nd.name, problem))
        non_text = _first_non_text(nd)
        if non_text is not None:
            diags.append(Diagnostic("BAD_NODE", nd.name, non_text))
        if _texts_with_placeholder(nd):
            diags.append(
                Diagnostic("UNSUBSTITUTED_PLACEHOLDER", nd.name,
                           "node carries an unsubstituted '$' or '~'")
            )
        for child in _listed(nd):
            if _key(child) not in defined:
                diags.append(
                    Diagnostic("UNRESOLVED_CHILD", nd.name,
                               f"child '{child}' is not defined")
                )

    parents = {}
    for nd in defined.values():
        for child in _listed(nd):
            if _key(child) in defined:
                parents.setdefault(child, []).append(nd.name)
    for name, nd in defined.items():
        ps = parents.get(name, ())
        if len(ps) > 1:
            diags.append(
                Diagnostic("MULTIPLE_PARENTS", nd.name,
                           f"listed as child of multiple nodes: {', '.join(map(str, ps))}")
            )

    if _key(tree.root) not in defined:
        diags.append(
            Diagnostic("BAD_ROOT", tree.root, "root does not name a defined node")
        )
        return diags

    # Iterative DFS from the root: flags back edges (cycles) and, afterwards,
    # nodes the traversal never reached.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in defined}
    cycle_hits = []
    stack = [(tree.root, iter(_listed(defined[tree.root])))]
    color[tree.root] = GRAY
    while stack:
        name, children = stack[-1]
        advanced = False
        for child in children:
            if _key(child) not in defined:
                continue
            if color[child] == GRAY:
                if child not in cycle_hits:
                    cycle_hits.append(child)
            elif color[child] == WHITE:
                color[child] = GRAY
                stack.append((child, iter(_listed(defined[child]))))
                advanced = True
                break
        if not advanced:
            color[name] = BLACK
            stack.pop()
    for hit in cycle_hits:
        diags.append(
            Diagnostic("CYCLE", hit, "node participates in a reference cycle")
        )
    for name, nd in defined.items():
        if color[name] == WHITE:
            diags.append(
                Diagnostic("UNREACHABLE", nd.name, "node is not reachable from the root")
            )
    return diags


# --- reference YAML typing --------------------------------------------------

_CONSTRUCTOR = yaml.constructor.SafeConstructor()
_TYPED = {
    "tag:yaml.org,2002:bool": ("a boolean", _CONSTRUCTOR.construct_yaml_bool),
    "tag:yaml.org,2002:int": (f"an integer of at most {MAX_INT_DIGITS} digits",
                              _CONSTRUCTOR.construct_yaml_int),
    "tag:yaml.org,2002:float": ("a float", _CONSTRUCTOR.construct_yaml_float),
}
_INT_BOUND = 10 ** MAX_INT_DIGITS


def reference_typed_scalar(node, what):
    """A typed position's value (a template arg, an arg default or a memory
    seed) as the front end read it while its composition resolved every
    scalar's tag, as yaml.compose does: ``node`` is yaml.compose's, under
    either loader. Plain scalars get YAML bool/int/float typing, anything
    quoted is text."""
    span = SourceSpan(node.start_mark.line + 1, node.start_mark.column + 1)
    if not isinstance(node, yaml.ScalarNode):
        raise SchemaError("SCHEMA_ERROR", f"{what} must be a scalar", span=span)
    # libyaml's composer gives a plain scalar the style '', PyYAML's None
    typed = _TYPED.get(node.tag) if not node.style else None
    if typed is None:
        return node.value
    expected, construct = typed
    try:
        value = construct(node)
    except (ValueError, KeyError):
        value = None
    if value is None or type(value) is int and not -_INT_BOUND < value < _INT_BOUND:
        raise SchemaError("SCHEMA_ERROR", f"{what} is not {expected}", span=span)
    return value
