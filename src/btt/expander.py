"""Template instantiation: turns a Document into a flat tree of primary nodes.

The rules, in the order they apply to one templated node:

1. bind_arguments pairs the instance's children with node-kind params
   (positionally; a trailing ``nodes`` param takes the rest) and its args
   with scalar params, falling back to declared defaults.
2. Every string in the template body is substituted in a single
   left-to-right pass: ``$param`` becomes the bound value's text, ``~`` and
   ``$name`` become the instance name. Substituted output is never
   re-scanned, so values cannot inject further placeholders.
3. foreach blocks are unrolled, one copy of their fragment per list
   element, and export the per-iteration ``emit`` node names.
4. Children lists are spliced: a ``$@block`` entry expands to that block's
   emitted names, a ``$param`` entry bound to a list expands element-wise.
5. Node names are qualified under the instance name
   (``<instance>/<local>``); the body node the template's ``root`` resolves
   to takes the instance's own name, so the parent's child reference keeps
   working. Children references prefer local body names over external ones.
6. Nested templated nodes recurse with the instantiation stack extended;
   a template already on the stack is a RECURSIVE_TEMPLATE error.

A template is compiled once, on first use, into a plan kept on the
TemplateDef; an instance binds its arguments and fills the plan's pieces,
raising each error where the rules above meet it.
"""

from __future__ import annotations

import re
from dataclasses import replace

from .errors import ExpandError, ValidationFailure
from .model import (
    BLOCK_NAME,
    NAME_RE,
    PARAM_NAME,
    PRIMARY_KINDS,
    Document,
    ExpandedTree,
    ForeachBlock,
    NodeDef,
    TemplateDef,
    payload_problem,
    validate_expanded,
    value_text,
    with_leaf_defaults,
)

DEFAULT_MAX_DEPTH = 64
MAX_DEPTH_CEILING = 256  # instantiate recurses once per level: far below the recursion limit

_PLACEHOLDER_RE = re.compile(rf"\$(@?)({PARAM_NAME})?|~")
_WHOLE_REF_RE = re.compile(rf"\$({PARAM_NAME})")
_SPLICE_RE = re.compile(rf"\$@({BLOCK_NAME})")

# Fill-environment keys no parameter or foreach variable can take, since
# those are strings: _INSTANCE holds the instance name; a misplaced "$@"
# splice and a "$" without a name read keys never bound.
_INSTANCE = ("~",)
_NEVER_BOUND = {("$@",): "'$@' splices are only valid as a whole children entry",
                ("$",): "'$' must be followed by a parameter name"}
_UNBOUND = object()


def bind_arguments(tmpl: TemplateDef, inst: NodeDef) -> dict:
    """The instance's values for the template's params: node names from
    its children, scalars and lists from its args or their defaults."""
    _, _, singles, variadic, declared, scalars = _plan(tmpl)
    children = inst.children
    n, least = len(children), len(singles) + (variadic is not None)
    if n < least or variadic is None and n > least:
        takes = f"{least} child(ren)" if variadic is None else f"at least {least} children"
        raise ExpandError("ARITY_MISMATCH", f"template '{tmpl.name}' takes {takes}, got {n}",
                          subject=inst.name, span=inst.span)
    values = dict(zip(singles, children))
    if variadic is not None:
        values[variadic] = tuple(children[len(singles):])
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
    for name, default in scalars:
        if name not in values:
            if default is None:
                raise ExpandError(
                    "MISSING_ARG",
                    f"arg '{name}' of template '{tmpl.name}' has no value and no default",
                    subject=inst.name, span=inst.span)
            values[name] = default
    return values


# --- compiled pattern strings ---------------------------------------------

class _Text:
    """A pattern string with placeholders, split into ``(literal, key)``
    pieces and a literal tail; ``key`` is the env key a placeholder reads."""

    __slots__ = ("pattern", "pieces", "tail")

    def __init__(self, pattern):
        self.pattern = pattern
        pieces = []
        start = 0
        for m in _PLACEHOLDER_RE.finditer(pattern):
            splice, ident = m.groups()  # splice is None for "~"
            key = ("$@",) if splice else (
                _INSTANCE if splice is None or ident == "name" else ident or ("$",))
            pieces.append((pattern[start:m.start()], key))
            start = m.end()
        self.pieces = tuple(pieces)
        self.tail = pattern[start:]

    def fill(self, env):
        parts = []
        for literal, key in self.pieces:
            parts.append(literal)
            v = env.get(key, _UNBOUND)
            cls = v.__class__
            parts.append(v if cls is str else str(v) if cls is int else self._text(key, v))
        parts.append(self.tail)
        return "".join(parts)

    def _text(self, key, v):
        if v is _UNBOUND:
            message = _NEVER_BOUND.get(key) or f"'${key}' is not bound"
            raise _Unfilled("UNBOUND_PLACEHOLDER", f"{message}, in '{self.pattern}'")
        if isinstance(v, tuple):
            raise _Unfilled("LIST_IN_SCALAR_POSITION",
                            f"list parameter '{key}' used where a scalar is required, "
                            f"in '{self.pattern}'")
        return value_text(v)


class _Unfilled(Exception):
    """A placeholder ``_Text.fill`` cannot fill, or a children entry naming
    no block. The caller knows which node the text belongs to and turns it
    into a located ExpandError."""

    def at(self, subject, span):
        code, message = self.args
        return ExpandError(code, message, subject=subject, span=span)


def _compile(pattern):
    """A pattern with no placeholder, or None, stays as it is."""
    return _Text(pattern) if pattern and ("$" in pattern or "~" in pattern) else pattern


def _fill(text, env):
    return text.fill(env) if text.__class__ is _Text else text


def _forward_value(v, env):
    if not isinstance(v, str):
        return v
    w = _WHOLE_REF_RE.fullmatch(v)
    key = w and (_INSTANCE if w.group(1) == "name" else w.group(1))
    if key in env:
        return env[key]  # forwarded with its kind intact
    return _fill(_compile(v), env)


def _forward_args(args, env):
    if args is None:
        return None
    out = {}
    for key, v in args.items():
        if isinstance(v, tuple):  # a forwarded list splices into a list arg
            fwd = [_forward_value(elem, env) for elem in v]
            out[key] = tuple(x for f in fwd for x in (f if isinstance(f, tuple) else (f,)))
        else:
            out[key] = _forward_value(v, env)
    return out


# --- the plan -------------------------------------------------------------

def _compile_child(entry, blocks):
    """A children entry: a ``$@block`` splice, a whole ``$param`` reference,
    or text; ``blocks`` names the foreach blocks at the entry's body level."""
    m = _SPLICE_RE.fullmatch(entry)
    if m is not None:
        return ("block" if m.group(1) in blocks else "no block", m.group(1))
    w = _WHOLE_REF_RE.fullmatch(entry)
    return ("ref", (w.group(1), _Text(entry))) if w else ("text", _compile(entry))


class _NodePlan:
    """One body node pattern, compiled."""

    __slots__ = ("pattern", "key", "type", "children", "leaves")

    def __init__(self, key, pattern, blocks):
        self.pattern, self.key, self.type = pattern, _compile(key), _compile(pattern.type)
        self.children = tuple(_compile_child(entry, blocks) for entry in pattern.children)
        self.leaves = {}  # primary kind -> leaf(kind)

    def leaf(self, kind):
        """The payload problem for ``kind``, and the payload fields with
        ``kind``'s defaults: if, then, else, script (None if not carried),
        result."""
        cached = self.leaves.get(kind)
        if cached is None:
            nd = with_leaf_defaults(replace(self.pattern, type=kind))
            script = nd.script and tuple(map(_compile, nd.script))
            fields = (*map(_compile, (nd.if_, nd.then, nd.else_)), script, _compile(nd.result))
            cached = self.leaves[kind] = (payload_problem(self.pattern, kind), fields)
        return cached


def _compile_block(key, block):
    """A foreach block: (key, block, list param, emit, body level, emit_at).
    ``emit_at`` is the place, among one iteration's items, of the body node
    whose key is the emit pattern, so that the emitted name is its name;
    None if there is none, or a block before it makes the place vary."""
    w = _WHOLE_REF_RE.fullmatch(block.list_ref)
    emit_at = None
    for at, (local, entry) in enumerate(block.nodes.items()):
        if isinstance(entry, ForeachBlock) or local == block.emit:
            emit_at = None if isinstance(entry, ForeachBlock) else at
            break
    return (key, block, w and w.group(1), _compile(block.emit), _compile_level(block.nodes),
            emit_at)


def _compile_level(body):
    """One body level: its entries in order."""
    blocks = {key for key, entry in body.items() if isinstance(entry, ForeachBlock)}
    return tuple(_compile_block(key, entry) if key in blocks else _NodePlan(key, entry, blocks)
                 for key, entry in body.items())


def _plan(tmpl):
    """The template's compiled body and root, then its signature: the single
    and the variadic node params, the params by name and the scalar params
    with their defaults. Built on first use."""
    if tmpl.plan is None:
        nodes = [p for p in tmpl.params if p.kind in ("node", "nodes")]
        object.__setattr__(tmpl, "plan", (
            _compile_level(tmpl.body), _compile(tmpl.root),
            tuple(p.name for p in nodes if p.kind == "node"),
            nodes[-1].name if nodes and nodes[-1].kind == "nodes" else None,
            {p.name: p for p in tmpl.params},
            tuple((p.name, p.default) for p in tmpl.params
                  if p.kind in ("scalar", "scalar-list"))))
    return tmpl.plan


# --- instantiation --------------------------------------------------------

class _NodeDef:
    """NodeDef's slots without its frozen __setattr__: a call fills them with
    plain stores and makes the object a NodeDef, at a quarter of the cost."""

    __slots__ = NodeDef.__slots__

    def __init__(self, name, type_, children, args, if_, then, else_, script, result, span):
        self.name, self.type, self.children, self.args = name, type_, children, args
        self.if_, self.then, self.else_, self.script, self.result = if_, then, else_, script, result
        self.span = span
        self.__class__ = NodeDef


def _collect(level, env, items):
    """Append ``(local name, node plan, env, emitted)`` for each body node of a
    level, unrolling its blocks; ``emitted`` maps block names to emitted names."""
    emitted = {}
    for entry in level:
        if entry.__class__ is _NodePlan:
            key = entry.key
            try:
                items.append((key.fill(env) if key.__class__ is _Text else key, entry, env,
                              emitted))
            except _Unfilled as exc:
                raise exc.at(env[_INSTANCE], entry.pattern.span) from None
        else:
            emitted[entry[0]] = _unroll(entry, env, items)


def _unroll(plan, env, items):
    _, block, list_key, emit, body, emit_at = plan

    def error(code, message, subject=block.list_ref):
        return ExpandError(code, message, subject=subject, span=block.span)

    if list_key is None:
        raise error("NOT_A_LIST",
                    f"foreach 'list' must be a $param reference, got '{block.list_ref}'")
    value = env.get(list_key, _UNBOUND)
    if value is _UNBOUND:
        raise error("UNBOUND_PLACEHOLDER", f"'${list_key}' is not bound")
    if not isinstance(value, tuple):
        raise error("NOT_A_LIST", f"foreach iterates a list, but '${list_key}' is a scalar")
    emitted = []
    seen = set()
    var, index = block.var, block.index
    for k, elem in enumerate(value):
        ienv = {**env, var: elem, index: k}
        start = len(items)
        _collect(body, ienv, items)
        for i in range(start, len(items)):
            name = items[i][0]
            if name in seen:
                raise error("NAME_CLASH", f"iterations produce the same node name '{name}'", name)
            seen.add(name)
        if emit_at is not None:  # filled already, as that node's name
            emitted.append(items[start + emit_at][0])
            continue
        try:
            emitted.append(_fill(emit, ienv))
        except _Unfilled as exc:
            raise exc.at(env[_INSTANCE], block.span) from None
    return emitted


def _children(entries, env, local_map, emitted):
    out = []
    for tag, entry in entries:
        if tag == "text":
            t = _fill(entry, env)
            out.append(local_map.get(t, t))
        elif tag == "ref":
            bound = env.get(entry[0])
            if isinstance(bound, tuple):  # a list param splices element-wise
                out.extend(local_map.get(t, t) for t in map(value_text, bound))
            else:
                t = entry[1].fill(env)
                out.append(local_map.get(t, t))
        elif tag == "block":
            out.extend(local_map.get(nm, nm) for nm in emitted[entry])
        else:
            raise _Unfilled("UNKNOWN_BLOCK", f"no foreach block named '{entry}', in '$@{entry}'")
    return tuple(out)


def _check_max_depth(max_depth):
    if not 1 <= max_depth <= MAX_DEPTH_CEILING:
        raise ValueError(f"max_depth must be from 1 to {MAX_DEPTH_CEILING}, not {max_depth}")


def _invalid_name(name, span):
    return ExpandError("INVALID_NAME",
                       f"substitution produced an invalid node name '{name}'",
                       subject=name, span=span)


def instantiate(tmpl: TemplateDef, inst: NodeDef, registry: dict,
                stack=None, max_depth: int = DEFAULT_MAX_DEPTH) -> list:
    """Expand one templated node into its primary node collection.

    ``stack`` is the instantiation chain including ``tmpl.name`` itself.
    The returned collection contains exactly one node named ``inst.name``
    (the template's root); all others are prefixed ``<inst.name>/``.
    An ExpandError raised within that carries no chain gets ``stack``.
    A ``max_depth`` outside 1 to MAX_DEPTH_CEILING is a ValueError.
    """
    _check_max_depth(max_depth)
    stack = tuple(stack) if stack is not None else (tmpl.name,)
    try:
        if len(stack) > max_depth:
            raise ExpandError("DEPTH_EXCEEDED",
                              f"template nesting deeper than {max_depth}",
                              subject=inst.name, span=inst.span)
        problem = payload_problem(inst, None)  # a templated node takes only args
        if problem is not None:
            raise ExpandError("BAD_NODE", problem, subject=inst.name, span=inst.span)
        env = bind_arguments(tmpl, inst)
        instance = env[_INSTANCE] = inst.name
        level, root = _plan(tmpl)[:2]
        items = []
        _collect(level, env, items)

        prefix = instance + "/"
        try:
            root = _fill(root, env)
        except _Unfilled as exc:
            raise exc.at(instance, tmpl.span) from None
        root_q = root if root == instance or root.startswith(prefix) else prefix + root
        local_map = {}
        seen = set()
        for item in items:
            name = item[0]
            q = name if name == instance or name.startswith(prefix) else prefix + name
            final = instance if q == root_q else q
            if final in seen:
                raise ExpandError("DUPLICATE_NAME",
                                  f"expansion produces duplicate node '{final}'",
                                  subject=final, span=tmpl.span)
            seen.add(final)
            local_map[name] = local_map[q] = final
        if root_q not in local_map:  # no body node qualifies to it
            raise ExpandError("BAD_TEMPLATE_ROOT",
                              f"template root '{tmpl.root}' does not resolve to a body node",
                              subject=instance, span=tmpl.span)
        out = []
        try:
            for name, node, ienv, emitted in items:
                final, span = local_map[name], node.pattern.span
                type_ = node.type
                if type_.__class__ is _Text:
                    type_ = type_.fill(ienv)
                children = (_children(node.children, ienv, local_map, emitted)
                            if node.children else ())
                if type_ in PRIMARY_KINDS:
                    if not NAME_RE.fullmatch(final):
                        raise _invalid_name(final, span)
                    problem, (if_, then, else_, script, result) = node.leaf(type_)
                    if problem is not None:
                        raise ExpandError("BAD_NODE", problem, subject=final, span=span)
                    # filled in field order, so that the first bad text wins
                    out.append(_NodeDef(
                        final, type_, children, None,
                        if_.fill(ienv) if if_.__class__ is _Text else if_,
                        then.fill(ienv) if then.__class__ is _Text else then,
                        else_.fill(ienv) if else_.__class__ is _Text else else_,
                        tuple([s.fill(ienv) if s.__class__ is _Text else s for s in script])
                        if script else script,
                        result.fill(ienv) if result.__class__ is _Text else result, span))
                elif type_ in registry:
                    if type_ in stack:
                        raise ExpandError("RECURSIVE_TEMPLATE",
                                          f"template '{type_}' is already being expanded",
                                          subject=final, span=span)
                    if not NAME_RE.fullmatch(final):
                        raise _invalid_name(final, span)
                    # the pattern's leaf payload rides along for instantiate to reject
                    p = node.pattern
                    nested = _NodeDef(final, type_, children, _forward_args(p.args, ienv),
                                      p.if_, p.then, p.else_, p.script, p.result, span)
                    out.extend(instantiate(registry[type_], nested, registry, stack + (type_,),
                                           max_depth=max_depth))
                else:
                    raise ExpandError("UNKNOWN_TYPE",
                                      f"type '{type_}' is neither a primary kind nor a template",
                                      subject=final, span=span)
        except _Unfilled as exc:  # a fill of the current item's texts
            raise exc.at(final, span) from None
        return out
    except ExpandError as exc:
        if exc.chain:
            raise
        raise ExpandError(exc.code, exc.message, subject=exc.subject,
                          span=exc.span, chain=stack) from exc


def expand_document(doc: Document, builtins: dict | None = None,
                    max_depth: int = DEFAULT_MAX_DEPTH) -> ExpandedTree:
    """Expand every templated node; primary nodes pass through verbatim.

    Document-local templates take precedence over builtins of the same
    name. The result always passes validate_expanded, and is marked
    ``validated`` so that serializing it does not check it again; any
    diagnostics are promoted to a ValidationFailure. A ``max_depth``
    outside 1 to MAX_DEPTH_CEILING is a ValueError.
    """
    _check_max_depth(max_depth)
    registry = dict(builtins) if builtins else {}
    registry.update(doc.templates)
    out = []
    for name, nd in doc.nodes.items():
        if nd.type in PRIMARY_KINDS:
            out.append(with_leaf_defaults(nd))
        elif nd.type in registry:
            out.extend(instantiate(registry[nd.type], nd, registry,
                                   (nd.type,), max_depth=max_depth))
        else:
            raise ExpandError("UNKNOWN_TYPE",
                              f"type '{nd.type}' is neither a primary kind nor a template",
                              subject=name, span=nd.span)
    tree = ExpandedTree(tuple(out), doc.root)
    diags = validate_expanded(tree)
    if diags:
        raise ValidationFailure(diags)
    object.__setattr__(tree, "validated", True)
    return tree
