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
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .errors import ExpandError, ValidationFailure
from .model import (
    NAME_RE,
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

_SUBSTITUTE_RE = re.compile(r"\$(@?)([A-Za-z_][A-Za-z0-9_]*)?|~")
_WHOLE_REF_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")
_SPLICE_RE = re.compile(r"\$@([A-Za-z0-9_.\-]+)")


@dataclass
class Binding:
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


def bind_arguments(tmpl: TemplateDef, inst: NodeDef) -> Binding:
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
    for key, v in inst.args.items():
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
    return Binding(values=values, instance=inst.name)


def substitute(pattern: str, binding: Binding) -> str:
    """Single-pass placeholder substitution; output is not re-scanned."""

    def repl(m):
        if m.group(0) == "~":
            return binding.instance
        splice, ident = m.groups()
        if splice:
            raise ExpandError(
                "UNBOUND_PLACEHOLDER",
                "'$@' splices are only valid as a whole children entry",
                subject=pattern)
        if ident is None:
            raise ExpandError("UNBOUND_PLACEHOLDER",
                              "'$' must be followed by a parameter name",
                              subject=pattern)
        if ident == "name":
            return binding.instance
        if ident not in binding.values:
            raise ExpandError("UNBOUND_PLACEHOLDER", f"'${ident}' is not bound",
                              subject=pattern)
        v = binding.values[ident]
        if isinstance(v, tuple):
            raise ExpandError(
                "LIST_IN_SCALAR_POSITION",
                f"list parameter '{ident}' used where a scalar is required",
                subject=pattern)
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
    binding: Binding
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
            items.append(_Pending(substitute(key, binding), entry, binding, level_blocks))
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
        ib = Binding({**binding.values, block.var: elem, block.index: k}, binding.instance)
        for it in _expand_body_items(block.nodes, ib, stack):
            if it.name_sub in seen:
                raise ExpandError("NAME_CLASH",
                                  f"iterations produce the same node name '{it.name_sub}'",
                                  subject=it.name_sub, span=block.span, chain=stack)
            seen.add(it.name_sub)
            items.append(it)
        emitted.append(substitute(block.emit, ib))
    return items, emitted


def _resolve_children(entries, binding, local_map, blocks):
    out = []
    for entry in entries:
        m = _SPLICE_RE.fullmatch(entry)
        if m is not None:
            name = m.group(1)
            if name not in blocks:
                raise ExpandError("UNKNOWN_BLOCK", f"no foreach block named '{name}'",
                                  subject=entry)
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
        t = substitute(entry, binding)
        out.append(local_map.get(t, t))
    return tuple(out)


def _forward_value(v, binding):
    if not isinstance(v, str):
        return v
    w = _WHOLE_REF_RE.fullmatch(v)
    if w is not None:
        ident = w.group(1)
        if ident == "name":
            return binding.instance
        if ident in binding.values:
            return binding.values[ident]  # forwarded with its kind intact
    return substitute(v, binding)


def _forward_args(args, binding):
    out = {}
    for key, v in args.items():
        if isinstance(v, tuple):
            flat = []
            for elem in v:
                fwd = _forward_value(elem, binding)
                if isinstance(fwd, tuple):
                    flat.extend(fwd)
                else:
                    flat.append(fwd)
            out[key] = tuple(flat)
        else:
            out[key] = _forward_value(v, binding)
    return out


def _check_payload(nd, kind, name):
    """Raise BAD_NODE for node ``name`` unless ``nd`` carries the payload
    that ``kind`` takes; ``kind`` is None for a templated node."""
    problem = payload_problem(nd, kind)
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
    sub = lambda s: None if s is None else substitute(s, binding)
    node = NodeDef(
        name=it.final,
        type=type_sub,
        children=children,
        if_=sub(pat.if_),
        then=sub(pat.then),
        else_=sub(pat.else_),
        script=tuple(substitute(s, binding) for s in pat.script),
        result=sub(pat.result),
        span=pat.span,
    )
    return with_leaf_defaults(node)


def _finalize_item(it, local_map, registry, stack, max_depth):
    type_sub = substitute(it.pattern.type, it.binding)
    children = _resolve_children(it.pattern.children, it.binding, local_map, it.blocks)
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
                       args=_forward_args(it.pattern.args, it.binding))
        return instantiate(registry[type_sub], inst, registry,
                           stack + (type_sub,), max_depth=max_depth)
    raise ExpandError("UNKNOWN_TYPE",
                      f"type '{type_sub}' is neither a primary kind nor a template",
                      subject=it.final, span=it.pattern.span, chain=stack)


def instantiate(tmpl: TemplateDef, inst: NodeDef, registry: dict,
                stack=None, max_depth: int = DEFAULT_MAX_DEPTH) -> list:
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
                              subject=inst.name, chain=stack)
        _check_payload(inst, None, inst.name)
        binding = bind_arguments(tmpl, inst)
        items = _expand_body_items(tmpl.body, binding, stack)
        root_q = _qualify(inst.name, substitute(tmpl.root, binding))
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


def expand_document(doc: Document, builtins: dict | None = None,
                    max_depth: int = DEFAULT_MAX_DEPTH) -> ExpandedTree:
    """Expand every templated node; primary nodes pass through verbatim.

    Document-local templates take precedence over builtins of the same
    name. The result always passes validate_expanded; any diagnostics are
    promoted to a ValidationFailure.
    """
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
    return tree
