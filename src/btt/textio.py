"""Reading the YAML description format and writing canonical expanded trees.

Parsing makes one pass over PyYAML's parser events (libyaml's when PyYAML
has it, its pure-Python parser otherwise) and builds the YAML node tree
itself, so every definition carries a source span, unsupported YAML
features are caught in the same pass, and nesting is capped without
recursion. Values that the schema treats as text (names, types, patterns,
expressions) are taken verbatim from the scalar, so quoting never changes
meaning; only scalar *arguments* (template args, defaults, scenario memory
seeds) get YAML's boolean/integer/float typing.

The canonical writer is hand-rolled: output must be byte-identical across
runs and platforms, which rules out yaml.dump.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

import yaml
from yaml.events import (
    AliasEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
)
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .engine import Scenario
from .errors import CanonicalizeError, ParseError, SchemaError
from .model import (
    BLOCK_NAME,
    LEAF_PAYLOAD,
    MAX_INT_DIGITS,
    NAME_RE,
    PARAM_NAME,
    PATTERN_NAME_RE,
    PAYLOAD_FIELDS,
    PRIMARY_KINDS,
    RETURN_STATES,
    TEMPLATED_PAYLOAD,
    Document,
    ExpandedTree,
    ForeachBlock,
    NodeDef,
    ParamDecl,
    TemplateDef,
    dfs_preorder,
    require_valid,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int  # 1-based
    column: int  # 1-based
    source: str | None = None  # None: the file being read; builtins: btt:templates/<file>


_PARAM_NAME_RE = re.compile(PARAM_NAME)
_LIST_REF_RE = re.compile(r"\$" + PARAM_NAME)
_TEMPLATE_NAME_RE = re.compile(BLOCK_NAME)
_CHILD_PATTERN_RE = re.compile(r"[A-Za-z0-9_/.\-$~@]+")

# A node whose type is not a primary kind names a template, or a type that
# substitution supplies, so it may carry any payload until the expander
# resolves its type and checks the payload against it.
_OPEN_PAYLOAD = {**TEMPLATED_PAYLOAD,
                 **{key: default for row in LEAF_PAYLOAD.values() for key, default in row.items()}}

_constructor = yaml.constructor.SafeConstructor()
# The YAML types a plain scalar argument may take: what each must be, and
# its constructor. An integer is capped like an integer literal.
_TYPED = {
    "tag:yaml.org,2002:bool": ("a boolean", _constructor.construct_yaml_bool),
    "tag:yaml.org,2002:int": (f"an integer of at most {MAX_INT_DIGITS} digits",
                              _constructor.construct_yaml_int),
    "tag:yaml.org,2002:float": ("a float", _constructor.construct_yaml_float),
}
_INT_BOUND = 10 ** MAX_INT_DIGITS
# The commonest integer spelling: the resolver and constructor give int(text).
_DECIMAL_RE = re.compile(rf"[-+]?(?:0|[1-9][0-9]{{0,{MAX_INT_DIGITS - 1}}})")

# libyaml when PyYAML was built with it; the pure-Python parser otherwise.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
MAX_NESTING = 256  # open collections allowed at once
_COLLECTIONS = {SequenceStartEvent: SequenceNode, MappingStartEvent: MappingNode}
_resolve = yaml.resolver.Resolver().resolve


def _mark_span(mark, source=None) -> SourceSpan:
    return SourceSpan(mark.line + 1, mark.column + 1, source)


def _span(node, source=None) -> SourceSpan:
    return _mark_span(node.start_mark, source)


def _compose(text, what):
    """Build the node tree in one pass over the parser's events. A node keeps
    the tag its text gave (None for none); only _typed_scalar resolves one.

    Anchors, aliases and extra documents are recorded, located, as the
    first schema problem and raised only once the whole stream has parsed,
    so a syntax error anywhere still wins. Collections nested deeper than
    MAX_NESTING stop the pass at once with a PARSE_ERROR at their start.
    """
    root = None
    stack = []  # open collections, innermost last
    problem = None
    documents = 0
    try:
        for ev in yaml.parse(text, Loader=_LOADER):
            kind = type(ev)
            if kind is DocumentStartEvent:
                documents += 1
            if problem is None:
                if kind is AliasEvent:
                    problem = "YAML aliases are not supported", ev.start_mark
                elif getattr(ev, "anchor", None) is not None:
                    problem = "YAML anchors are not supported", ev.start_mark
                elif documents > 1:
                    problem = "multi-document streams are not supported", ev.start_mark
            if kind is ScalarEvent:
                # libyaml reports plain scalars with style '', PyYAML with None
                node = ScalarNode(ev.tag, ev.value, ev.start_mark, ev.end_mark,
                                  style=ev.style or None)
            elif kind in _COLLECTIONS:
                if len(stack) == MAX_NESTING:
                    raise ParseError("PARSE_ERROR", f"{what} is nested too deeply",
                                     span=_mark_span(ev.start_mark))
                stack.append(_COLLECTIONS[kind](ev.tag, [], ev.start_mark, None,
                                                flow_style=ev.flow_style))
                continue
            elif kind is SequenceEndEvent or kind is MappingEndEvent:
                node = stack.pop()
                node.end_mark = ev.end_mark
                if kind is MappingEndEvent:  # children arrive as key, value, key, ...
                    flat = node.value
                    node.value = list(zip(flat[::2], flat[1::2]))
            else:
                continue
            if stack:
                stack[-1].value.append(node)
            elif root is None:
                root = node
    except yaml.YAMLError as exc:
        raise _parse_error(exc, what) from None
    except UnicodeEncodeError as exc:  # libyaml takes UTF-8: a lone surrogate fails there
        raise ParseError("PARSE_ERROR", f"{what}: {exc.reason}") from None
    if problem is not None:
        raise SchemaError("SCHEMA_ERROR", problem[0], span=_mark_span(problem[1]))
    return root


def _parse_error(exc, what):
    mark = getattr(exc, "problem_mark", None)
    span = _mark_span(mark) if mark is not None else None
    problem = getattr(exc, "problem", None) or str(exc)
    return ParseError("PARSE_ERROR", f"{what}: {problem}", span=span)


def _mapping_items(node, what, subject=None):
    if not isinstance(node, yaml.nodes.MappingNode):
        raise SchemaError("SCHEMA_ERROR", f"{what} must be a mapping",
                          span=_span(node) if node is not None else None, subject=subject)
    items = []
    seen = set()
    for key_node, value_node in node.value:
        if not isinstance(key_node, yaml.nodes.ScalarNode):
            raise SchemaError("SCHEMA_ERROR", f"{what} keys must be scalars",
                              span=_span(key_node), subject=subject)
        key = key_node.value
        if key == "<<":
            raise SchemaError("SCHEMA_ERROR", "YAML merge keys are not supported",
                              span=_span(key_node), subject=subject)
        if key in seen:
            raise SchemaError("SCHEMA_ERROR", f"duplicate key '{key}' in {what}",
                              span=_span(key_node), subject=subject or key)
        seen.add(key)
        items.append((key, value_node, key_node))
    return items


# Every mapping whose keys are fixed: the keys it takes and those it requires.
# Which payload keys a node takes also depends on its type; _parse_node checks that.
_KEYS = {
    "node": (("type", "children", *_OPEN_PAYLOAD), ("type",)),
    "document": (("templates", "nodes", "root"), ("root",)),
    "templates document": (("templates",), ()),
    "scenario": (("memory", "actions"), ()),
    "template": (("args", "root", "nodes"), ("root", "nodes")),
    "arg declaration": (("name", "kind", "default"), ("name", "kind")),
    "foreach block": (("foreach", "emit", "nodes"), ("emit", "nodes")),
    "foreach": (("list", "var", "index"), ("list", "var")),
}


def _fields(node, what, subject=None):
    """The value node of each key of ``node``, a ``what`` mapping of _KEYS.
    Its keys are judged before any value is read: an unknown one is an error
    at the key, a missing required one at the mapping. ``subject`` names the
    owner; a top-level mapping, which has none, names the key."""
    takes, requires = _KEYS[what]
    fields = {}
    for key, value_node, key_node in _mapping_items(node, what, subject):
        if key not in takes:
            raise SchemaError("SCHEMA_ERROR", f"unknown key '{key}' in {what}",
                              span=_span(key_node), subject=subject or key)
        fields[key] = value_node
    for key in requires:
        if key not in fields:
            raise SchemaError("SCHEMA_ERROR", f"{what} is missing '{key}'",
                              span=_span(node), subject=subject or key)
    return fields


def _text(node, what):
    if not isinstance(node, yaml.nodes.ScalarNode):
        raise SchemaError("SCHEMA_ERROR", f"{what} must be a scalar", span=_span(node))
    return node.value


def _text_list(node, what):
    if not isinstance(node, yaml.nodes.SequenceNode):
        raise SchemaError("SCHEMA_ERROR", f"{what} must be a list", span=_span(node))
    return [_text(item, f"{what} entry") for item in node.value]


def _typed_scalar(node, what):
    """Plain scalars get YAML bool/int/float typing; anything quoted is text."""
    if not isinstance(node, yaml.nodes.ScalarNode):
        raise SchemaError("SCHEMA_ERROR", f"{what} must be a scalar", span=_span(node))
    tag = node.tag
    if node.style is None and tag in (None, "!"):  # the resolver decides
        if _DECIMAL_RE.fullmatch(node.value):
            return int(node.value)
        tag = _resolve(ScalarNode, node.value, (True, False))
    typed = _TYPED.get(tag) if node.style is None else None
    if typed is None:
        return node.value
    expected, construct = typed
    try:
        value = construct(node)
    except (ValueError, KeyError):  # "0x_", "!!bool maybe", or past CPython's digit limit
        value = None
    if value is None or type(value) is int and not -_INT_BOUND < value < _INT_BOUND:
        raise SchemaError("SCHEMA_ERROR", f"{what} is not {expected}", span=_span(node))
    return value


def _scalar_or_list(node, what):
    if isinstance(node, yaml.nodes.SequenceNode):
        return tuple(_typed_scalar(item, f"{what} entry") for item in node.value)
    return _typed_scalar(node, what)


def _check_name(name, what, span, pattern=False):
    rx = PATTERN_NAME_RE if pattern else NAME_RE
    if not rx.fullmatch(name):
        raise SchemaError("SCHEMA_ERROR", f"invalid {what} '{name}'",
                          span=span, subject=name)


def _parse_node(name, node, pattern, source=None):
    keys = _fields(node, "node", name)
    type_ = _text(keys["type"], "type")
    payload = LEAF_PAYLOAD.get(type_, {}) if type_ in PRIMARY_KINDS else _OPEN_PAYLOAD
    for key_node, _ in node.value:  # the keys a node of this type does not take
        if key_node.value not in payload and key_node.value not in ("type", "children"):
            raise SchemaError("SCHEMA_ERROR", f"unknown key '{key_node.value}' in {type_} node",
                              span=_span(key_node), subject=name)

    children = tuple(_text_list(keys["children"], "children")) if "children" in keys else ()
    rx = _CHILD_PATTERN_RE if pattern else NAME_RE
    for entry in children:
        if not rx.fullmatch(entry):
            raise SchemaError("SCHEMA_ERROR", f"invalid child reference '{entry}'",
                              span=_span(keys["children"]), subject=name)

    # A primary kind's absent keys take defaults; other types leave them None.
    primary = type_ in PRIMARY_KINDS
    fields = {}
    for key, default in payload.items():
        value = keys.get(key)
        if value is None:
            if primary:
                if default is None:
                    raise SchemaError("SCHEMA_ERROR", f"{type_} node is missing '{key}'",
                                      span=_span(node), subject=name)
                fields[PAYLOAD_FIELDS[key]] = default
            continue
        if isinstance(default, dict):  # args, which only a non-primary type takes
            value = _args(value, name)
        elif isinstance(default, tuple):
            value = tuple(_text_list(value, key))
        else:
            value = _text(value, key)
        fields[PAYLOAD_FIELDS[key]] = value
    return NodeDef(name, type_, children, span=_span(node, source), **fields)


def _args(node, owner):
    args = {}
    for pname, pvalue, pkey in _mapping_items(node, "args"):
        if not _PARAM_NAME_RE.fullmatch(pname):
            raise SchemaError("SCHEMA_ERROR", f"invalid argument name '{pname}'",
                              span=_span(pkey), subject=owner)
        args[pname] = _scalar_or_list(pvalue, f"argument '{pname}'")
    return args


def _parse_body(node, owner, source):
    """Template body: node patterns and foreach blocks, in source order."""
    body = {}
    for key, value_node, key_node in _mapping_items(node, f"nodes of {owner}"):
        entry = value_node.value if isinstance(value_node, yaml.nodes.MappingNode) else ()
        if any(k.value == "foreach" for k, _ in entry):
            body[key] = _parse_foreach(key, value_node, key_node, source)
        else:
            _check_name(key, "node name pattern", _span(key_node), pattern=True)
            body[key] = _parse_node(key, value_node, pattern=True, source=source)
    return body


def _parse_foreach(key, node, key_node, source):
    if not _TEMPLATE_NAME_RE.fullmatch(key):
        raise SchemaError("SCHEMA_ERROR", f"invalid foreach block name '{key}'",
                          span=_span(key_node), subject=key)
    fields = _fields(node, "foreach block", key)
    spec = {k: _text(v, k) for k, v in _fields(fields["foreach"], "foreach", key).items()}
    spec_span = _span(fields["foreach"])
    if not _LIST_REF_RE.fullmatch(spec["list"]):
        raise SchemaError("SCHEMA_ERROR",
                          f"foreach 'list' must be a $param reference, got '{spec['list']}'",
                          span=spec_span, subject=key)
    var = spec["var"]
    index = spec.get("index", "i")
    for label, token in (("var", var), ("index", index)):
        if not _PARAM_NAME_RE.fullmatch(token) or token == "name":
            raise SchemaError("SCHEMA_ERROR", f"invalid foreach {label} '{token}'",
                              span=spec_span, subject=key)
    if var == index:
        raise SchemaError("SCHEMA_ERROR", "foreach var and index must differ",
                          span=spec_span, subject=key)

    return ForeachBlock(
        list_ref=spec["list"],
        var=var,
        index=index,
        emit=_text(fields["emit"], "emit"),
        nodes=_parse_body(fields["nodes"], f"foreach block '{key}'", source),
        span=_span(node, source),
    )


def _parse_template(name, node, source):
    fields = _fields(node, "template", name)
    params = []
    if "args" in fields:
        if not isinstance(fields["args"], yaml.nodes.SequenceNode):
            raise SchemaError("SCHEMA_ERROR", "template args must be a list",
                              span=_span(fields["args"]), subject=name)
        for item in fields["args"].value:
            decl = _fields(item, "arg declaration", name)
            pname = _text(decl["name"], "arg name")
            kind = _text(decl["kind"], "arg kind")
            if not _PARAM_NAME_RE.fullmatch(pname) or pname == "name":
                raise SchemaError("SCHEMA_ERROR", f"invalid arg name '{pname}'",
                                  span=_span(item), subject=name)
            if any(p.name == pname for p in params):
                raise SchemaError("SCHEMA_ERROR", f"duplicate arg '{pname}'",
                                  span=_span(item), subject=name)
            if kind not in ParamDecl.PARAM_KINDS:
                raise SchemaError("SCHEMA_ERROR",
                                  f"arg kind must be one of {', '.join(ParamDecl.PARAM_KINDS)}, "
                                  f"got '{kind}'",
                                  span=_span(item), subject=name)
            default = None
            if "default" in decl:
                if kind in ("node", "nodes"):
                    raise SchemaError("SCHEMA_ERROR",
                                      "defaults are only allowed for scalar kinds",
                                      span=_span(item), subject=name)
                default = _scalar_or_list(decl["default"], "default")
                if isinstance(default, tuple) != (kind == "scalar-list"):
                    must = "must" if kind == "scalar-list" else "must not"
                    raise SchemaError("SCHEMA_ERROR", f"{kind} default {must} be a list",
                                      span=_span(item), subject=name)
            params.append(ParamDecl(pname, kind, default))

    node_kinds = [p for p in params if p.kind in ("node", "nodes")]
    variadic = [p for p in node_kinds if p.kind == "nodes"]
    if len(variadic) > 1:
        raise SchemaError("SCHEMA_ERROR", "at most one arg of kind 'nodes' is allowed",
                          span=_span(node), subject=name)
    if variadic and node_kinds[-1].kind != "nodes":
        raise SchemaError("SCHEMA_ERROR", "the 'nodes' arg must be the last node-kind arg",
                          span=_span(node), subject=name)

    body = _parse_body(fields["nodes"], f"template '{name}'", source)
    if not body:
        raise SchemaError("SCHEMA_ERROR", f"template '{name}' must define at least one node",
                          span=_span(fields["nodes"]), subject=name)
    return TemplateDef(
        name=name,
        params=tuple(params),
        body=body,
        root=_text(fields["root"], "template root"),
        span=_span(node, source),
    )


def _parse_templates_map(node, source=None):
    templates = {}
    for name, value_node, key_node in _mapping_items(node, "templates"):
        if not _TEMPLATE_NAME_RE.fullmatch(name):
            raise SchemaError("SCHEMA_ERROR", f"invalid template name '{name}'",
                              span=_span(key_node), subject=name)
        if name in PRIMARY_KINDS:
            raise SchemaError("SCHEMA_ERROR",
                              f"template name '{name}' collides with a primary node kind",
                              span=_span(key_node), subject=name)
        templates[name] = _parse_template(name, value_node, source)
    return templates


def parse_document(text: str) -> Document:
    """Parse a document. Type names are carried verbatim; whether a type is
    a primary kind, a template, or a typo is decided by the expander."""
    root_node = _compose(text, "document")
    if root_node is None:
        raise ParseError("PARSE_ERROR", "document is empty")
    fields = _fields(root_node, "document")
    templates = _parse_templates_map(fields["templates"]) if "templates" in fields else {}
    nodes = {}
    if "nodes" in fields:
        for name, nd_node, nd_key in _mapping_items(fields["nodes"], "nodes"):
            _check_name(name, "node name", _span(nd_key))
            nodes[name] = _parse_node(name, nd_node, pattern=False)
    root = _text(fields["root"], "root")
    if root not in nodes:
        raise SchemaError("SCHEMA_ERROR", f"root '{root}' does not name a defined node",
                          span=_span(fields["root"]), subject=root)
    return Document(templates=templates, nodes=nodes, root=root)


def parse_templates(text: str, source: str | None = None) -> dict:
    """Parse a templates-only fragment (used for the builtin definitions).
    ``source`` names the text on the spans of its definitions and errors."""
    try:
        root_node = _compose(text, "templates")
        if root_node is None:
            raise ParseError("PARSE_ERROR", "templates document is empty")
        fields = _fields(root_node, "templates document")
        return _parse_templates_map(fields["templates"], source) if "templates" in fields else {}
    except (ParseError, SchemaError) as exc:
        if exc.span is not None:
            exc.span = replace(exc.span, source=source)
        raise


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario: optional memory seeds plus per-action result scripts."""
    root_node = _compose(text, "scenario")
    if root_node is None:
        return Scenario()
    fields = _fields(root_node, "scenario")
    memory = {}
    actions = {}
    if "memory" in fields:
        for mkey, mvalue, mkey_node in _mapping_items(fields["memory"], "memory"):
            _check_name(mkey, "memory key", _span(mkey_node))
            memory[mkey] = _typed_scalar(mvalue, f"memory value for '{mkey}'")
    if "actions" in fields:
        for aname, avalue, akey_node in _mapping_items(fields["actions"], "actions"):
            _check_name(aname, "action name", _span(akey_node))
            states = []
            for entry in _text_list(avalue, f"results for '{aname}'"):
                if entry not in RETURN_STATES:
                    raise SchemaError("UNKNOWN_STATE", f"'{entry}' is not a return state",
                                      span=_span(avalue), subject=aname)
                states.append(RETURN_STATES[entry])
            if not states:
                raise SchemaError("SCHEMA_ERROR", f"action '{aname}' needs at least one result",
                                  span=_span(avalue), subject=aname)
            actions[aname] = tuple(states)
    return Scenario(memory=memory, actions=actions)


# --- canonical writer ---------------------------------------------------

_PLAIN_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_/.\-]*")
_PLAIN_BLOCK_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_/.\-=!<>&|+*()' :]*")


def _quote(s):
    if any(ord(c) < 0x20 or c == "\x7f" for c in s):
        return json.dumps(s)
    return "'" + s.replace("'", "''") + "'"


def _block_scalar(s):
    if (_PLAIN_BLOCK_RE.fullmatch(s) and ": " not in s and " #" not in s
            and not s.endswith(":") and not s.endswith(" ")):
        return s
    return _quote(s)


def _flow_scalar(s):
    if _PLAIN_NAME_RE.fullmatch(s):
        return s
    return _quote(s)


def _flow_list(items):
    return "[" + ", ".join(_flow_scalar(i) for i in items) + "]"


def serialize_expanded(tree: ExpandedTree) -> str:
    """Canonical YAML form of an expanded tree.

    Nodes appear in depth-first pre-order from the root; per-node keys are
    in fixed order (type, if, then, else, script, result, children) with
    defaulted fields omitted. Two-space indent, LF endings, byte-identical
    across runs for equal trees. The tree passes ``require_valid`` first.
    """
    require_valid(tree, CanonicalizeError, "CANONICALIZE_ERROR")
    index = tree.by_name()
    lines = [f"root: {_flow_scalar(tree.root)}", "nodes:"]
    for name in dfs_preorder(tree):
        nd = index[name]
        lines.append(f"  {_flow_scalar(name)}:")
        lines.append(f"    type: {_block_scalar(nd.type)}")
        for key, default in LEAF_PAYLOAD.get(nd.type, {}).items():
            value = getattr(nd, PAYLOAD_FIELDS[key])
            if isinstance(value, str):
                if value != default:
                    lines.append(f"    {key}: {_block_scalar(value)}")
            elif value:  # a script, a tuple or a list, written unless empty
                lines.append(f"    {key}: {_flow_list(value)}")
        if nd.children:
            lines.append(f"    children: {_flow_list(nd.children)}")
    return "\n".join(lines) + "\n"
