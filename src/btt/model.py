"""Document object model for the behavior-tree description language.

Holds the parsed document (templates plus user nodes), the fully expanded
tree of primary nodes, and the structural validation that every expanded
tree must pass before it may be serialized or executed.
"""

from __future__ import annotations

import enum
import keyword
import re
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import attrgetter, is_not
from typing import Union

# The name grammar, built from one alphabet: node names, memory keys and
# expression identifiers are spelled in it, and "/" doubles as the
# qualification separator of the expander and of __STATE__/<node> keys.
NAME_CHARS = r"A-Za-z0-9_/.\-"
NAME_RE = re.compile(f"[{NAME_CHARS}]+")
# Template-body keys may also carry the markers "$" and "~", and children
# entries in a body "$@" splices.
PATTERN_NAME_RE = re.compile(f"[{NAME_CHARS}$~]+")
CHILD_PATTERN_RE = re.compile(f"[{NAME_CHARS}$~@]+")
# Template args and foreach variables, which "$name" refers to; a declared
# one may not be "name", the instance's own.
PARAM_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
PARAM_NAME_RE = re.compile(PARAM_NAME)
DECLARED_PARAM_RE = re.compile(rf"(?!name\Z){PARAM_NAME}")
PARAM_REF_RE = re.compile(rf"\$({PARAM_NAME})")  # a whole "$param"
IDENT = f"[A-Za-z_][{NAME_CHARS}]*"  # expression identifiers: begun as a param, then the alphabet
# Template and foreach block names: the alphabet but "/"; "$@name" splices a block.
BLOCK_NAME = "[" + NAME_CHARS.replace("/", "") + "]+"
BLOCK_NAME_RE = re.compile(BLOCK_NAME)

# CPython 3.11+ refuses to convert longer digit strings to int; the cap on
# integer literals and YAML integers holds on every version, so that a
# document reads the same everywhere.
MAX_INT_DIGITS = 4300


class ReturnState(enum.Enum):
    """Four-valued tick result. EMPTY means "no decision produced"."""

    SUCCESS = "SUCCESS"
    FAILURE = "FAILURE"
    RUNNING = "RUNNING"
    EMPTY = "EMPTY"

    def __repr__(self):
        return self.value


RETURN_STATES = {s.value: s for s in ReturnState}


class NodeKind(enum.Enum):
    SEQUENCE = "sequence"
    SELECTOR = "selector"
    SKIPPER = "skipper"
    PARALLEL = "parallel"
    ACTION = "action"
    CONDITION = "condition"


PRIMARY_KINDS = {k.value: k for k in NodeKind}

# The payload each leaf kind takes: document key -> default, None where the
# key is required. A kind is a leaf if and only if it has a row here; the
# control kinds take no payload. Rows list their keys in canonical order.
LEAF_PAYLOAD = {
    NodeKind.CONDITION.value: {"if": None, "then": "SUCCESS", "else": "FAILURE"},
    NodeKind.ACTION.value: {"script": (), "result": "SUCCESS"},
}
# A templated node takes only args besides its children, wherever it appears.
TEMPLATED_PAYLOAD = {"args": {}}
# Every payload key and the NodeDef field that holds it; "if" and "else"
# are Python keywords, so their fields end in "_".
PAYLOAD_FIELDS = {key: key + "_" if keyword.iskeyword(key) else key
                  for row in (TEMPLATED_PAYLOAD, *LEAF_PAYLOAD.values()) for key in row}

# A scalar blackboard value. bool must be tested before int everywhere:
# Python's bool is an int subclass but the two are distinct tags here.
Value = Union[bool, int, float, str, ReturnState]


def value_tag(v: Value) -> str:
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, int):
        return "integer"
    if isinstance(v, float):
        return "float"
    if isinstance(v, ReturnState):
        return "state"
    if isinstance(v, str):
        return "text"
    raise TypeError(f"not a scalar value: {v!r}")


_SCALAR_TYPES = frozenset({bool, int, float, str, ReturnState})


def values_equal(a: Value, b: Value) -> bool:
    """Equality within one tag; any cross-tag comparison is False, never an error."""
    t = type(a)
    if t is type(b) and t in _SCALAR_TYPES:
        return a == b
    if value_tag(a) != value_tag(b):
        return False
    return a == b


def value_text(v: Value) -> str:
    """Canonical textual form: true/false, base-10 integers, shortest
    round-trip floats, state names, text verbatim."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, ReturnState):
        return v.value
    if isinstance(v, (int, float)):
        return repr(v) if isinstance(v, float) else str(v)
    return v


@dataclass(frozen=True, slots=True)
class NodeDef:
    """One node definition.

    ``type`` is kept as text: it may name a primary kind or a template;
    resolution happens in the expander. A payload field is None exactly
    when the node does not carry its key; an empty ``script`` or ``args``
    is carried. A leaf carries every optional key of its kind: one left
    unset takes its LEAF_PAYLOAD default. ``args`` carries scalar arguments
    for template instantiation only; expanded primary nodes have none.
    """

    name: str
    type: str
    children: tuple[str, ...] = ()
    args: dict | None = None
    if_: str | None = None
    then: str | None = None
    else_: str | None = None
    script: tuple[str, ...] | None = None
    result: str | None = None
    span: "SourceSpan | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        # Only a type of the exact class str is looked up, so that this never
        # raises; the class rules of validate_expanded judge any other.
        if type(self.type) is str:
            for key, default in LEAF_PAYLOAD.get(self.type, {}).items():
                if default is not None and getattr(self, PAYLOAD_FIELDS[key]) is None:
                    object.__setattr__(self, PAYLOAD_FIELDS[key], default)


_TEXT, _SEQUENCE, _NONE = frozenset({str}), frozenset({tuple, list}), frozenset({type(None)})
# The exact classes (``type(v) in``, so that no subclass passes) that each
# field and container of a hand-built ExpandedTree, NodeDef and Scenario,
# and each entry of an Engine's memory, may hold, so that every other rule
# reads a name or text as text. A templated node's args are judged when
# they are bound (args_problem), and a span is only carried along.
_CLASSES = {
    "nodes": _SEQUENCE, "node": frozenset({NodeDef}), "root": _TEXT, "name": _TEXT,
    "type": _TEXT, "children": _SEQUENCE, "child": _TEXT, "script": _SEQUENCE | _NONE,
    "script line": _TEXT, **dict.fromkeys(("if_", "then", "else_", "result"), _TEXT | _NONE),
    # Scenario.memory and .actions, and the memory an Engine is given
    "mapping": frozenset({dict}), "memory key": _TEXT, "memory value": _SCALAR_TYPES,
    "results": _SEQUENCE, "state": frozenset({ReturnState}),
    # NodeDef.args: each value a scalar or a tuple of scalars
    "args": frozenset({dict}) | _NONE, "arg name": _TEXT, "arg value": _SCALAR_TYPES,
}
# What a message calls each NodeDef field of _CLASSES, in judging order,
# and for a sequence, what it calls one entry and that entry's row.
_FIELD_TEXT = (("name", "the name"), ("if_", "'if'"), ("then", "'then'"), ("else_", "'else'"),
               ("result", "'result'"), ("script", "'script'", "a 'script' line", "script line"),
               ("children", "'children'", "a child", "child"), ("type", "the type"))
_NAME, _TYPE, _CHILDREN, _SCRIPT = map(attrgetter, ("name", "type", "children", "script"))
_TEXTS = tuple(map(attrgetter, ("if_", "then", "else_", "result")))
_CARRIED = partial(is_not, None)  # a payload text the node carries


def payload_problem(nd: NodeDef, kind: str | None) -> str | None:
    """What is wrong with ``nd``'s payload for ``kind`` (a primary kind, or
    None for a templated node), or None if nothing is. A key is carried
    exactly when its field is not None."""
    takes = TEMPLATED_PAYLOAD if kind is None else LEAF_PAYLOAD.get(kind, {})
    for key, fld in PAYLOAD_FIELDS.items():
        if getattr(nd, fld) is None:
            if key in takes and takes[key] is None:
                return f"a {kind} node requires '{key}'"
        elif key not in takes:
            return f"a {kind or 'templated'} node takes no '{key}'"
    return None


def args_problem(args) -> str | None:
    """What is wrong with the classes a templated node's ``args`` holds, or
    None if nothing is."""
    if type(args) not in _CLASSES["args"]:
        return f"'args' must be a dict, not {type(args).__name__}"
    for key, v in (args or {}).items():
        if type(key) not in _CLASSES["arg name"]:
            return f"an arg name must be text, not {type(key).__name__}"
        items = v if type(v) is tuple else (v,)
        if not {*map(type, items)} <= _CLASSES["arg value"]:
            item = next(i for i in items if type(i) not in _CLASSES["arg value"])
            return (f"arg '{key}' must be a scalar or a tuple of scalars, "
                    f"not {type(item).__name__}")
    return None


@dataclass(frozen=True)
class ParamDecl:
    name: str
    kind: str  # "scalar" | "scalar-list" | "node" | "nodes"
    default: object = None  # scalar kinds only; Value or tuple of Values

    PARAM_KINDS = ("scalar", "scalar-list", "node", "nodes")


@dataclass(frozen=True)
class ForeachBlock:
    """Replicates a node fragment once per element of a list argument.

    ``list_ref`` is a ``$param`` reference; ``var`` binds the element and
    ``index`` the 0-based position. ``emit`` names the per-iteration node
    exported for splicing into a children list.
    """

    list_ref: str
    var: str
    emit: str
    nodes: dict  # local-name pattern -> NodeDef pattern or nested ForeachBlock
    index: str = "i"
    span: "SourceSpan | None" = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TemplateDef:
    name: str
    params: tuple[ParamDecl, ...]
    body: dict  # local-name pattern -> NodeDef pattern | block-name -> ForeachBlock
    root: str
    span: "SourceSpan | None" = field(default=None, compare=False, repr=False)
    # The expander's compiled instantiation plan, built on first use.
    plan: object = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Document:
    templates: dict  # name -> TemplateDef, source order
    nodes: dict  # name -> NodeDef, source order
    root: str


@dataclass(frozen=True)
class ExpandedTree:
    """Flat collection of primary nodes plus the root name.

    Nodes are kept as an ordered sequence (not a mapping) so that
    validation can still report duplicated names. ``validated`` is set
    only by ``expand_document``, once the tree has passed
    ``validate_expanded``; a tree built by hand, or by ``replace`` from
    one, starts unmarked.
    """

    nodes: tuple[NodeDef, ...]
    root: str
    validated: bool = field(default=False, init=False, compare=False, repr=False)
    _index: dict = field(default=None, init=False, compare=False, repr=False)

    def by_name(self) -> dict:
        """Name -> NodeDef for the first occurrence of each name."""
        index = self._index
        if index is None:
            index = dict(zip(map(_NAME, self.nodes), self.nodes))
            if len(index) != len(self.nodes):  # a later duplicate overwrote the first
                index = {}
                for nd in self.nodes:
                    index.setdefault(nd.name, nd)
            object.__setattr__(self, "_index", index)
        return index


@dataclass
class Scenario:
    """Deterministic test double: memory seeds plus scripted action results.

    Each scripted action returns its next listed state instead of running
    its script; the last entry repeats once the list is exhausted.
    """

    memory: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)  # name -> tuple[ReturnState, ...]


@dataclass(frozen=True)
class Diagnostic:
    code: str
    node: str
    message: str
    span: "SourceSpan | None" = field(default=None, compare=False, repr=False)


def diagnostic_render(d: Diagnostic) -> str:
    return f"{d.code}: {d.node}: {d.message}"


def _class_problem(nd: NodeDef) -> str | None:
    """What the first field of ``nd`` that _CLASSES does not allow holds,
    or None if every field holds a class it allows."""
    for fld, what, *entry in _FIELD_TEXT:
        v = getattr(nd, fld)
        if type(v) not in _CLASSES[fld]:
            kind = "a sequence of text" if entry else "text"
            return f"{what} must be {kind}, not {type(v).__name__}"
        if entry and v is not None:
            what, row = entry
            for item in v:
                if type(item) not in _CLASSES[row]:
                    return f"{what} must be text, not {type(item).__name__}"
    return None


def node_class_diagnostics(nodes) -> list[Diagnostic]:
    """One BAD_NODE for each of ``nodes``, a sequence, that is not a NodeDef
    or holds a class _CLASSES does not allow, in order; none, after one scan
    (see _texts), if every one passes. A node is named by its name if that
    is text, else by its place."""
    if _texts(nodes) is not None:
        return []
    diags = []
    for i, nd in enumerate(nodes):
        if type(nd) not in _CLASSES["node"]:
            diags.append(Diagnostic("BAD_NODE", f"nodes[{i}]",
                                    f"a node must be a NodeDef, not {type(nd).__name__}"))
            continue
        problem = _class_problem(nd)
        if problem:
            name = nd.name if type(nd.name) in _CLASSES["name"] else f"nodes[{i}]"
            diags.append(Diagnostic("BAD_NODE", name, problem, nd.span))
    return diags


def _class_diagnostics(tree: ExpandedTree) -> list[Diagnostic]:
    """The BAD_NODE diagnostics of ``tree``'s nodes (see
    node_class_diagnostics), then BAD_ROOT for a root that is not text."""
    nodes = tree.nodes
    if type(nodes) in _CLASSES["nodes"]:
        diags = node_class_diagnostics(nodes)
    else:
        diags = [Diagnostic("BAD_NODE", "nodes", "'nodes' must be a sequence of NodeDef, "
                            f"not {type(nodes).__name__}")]
    if type(tree.root) not in _CLASSES["root"]:
        diags.append(Diagnostic("BAD_ROOT", "root",
                                f"the root must be text, not {type(tree.root).__name__}"))
    return diags


def _texts(nodes) -> tuple[str, str] | None:
    """The name positions (names, types, child entries) of ``nodes`` joined,
    and their payload texts and script lines joined; or None if a node, or
    a field or container of one, holds a class _CLASSES does not allow. One
    scan of C-level passes: the classes of the nodes and their containers,
    then of both text streams in one set, before the streams are joined."""
    if not ({*map(type, nodes)} <= _CLASSES["node"]
            and {*map(type, map(_CHILDREN, nodes))} <= _CLASSES["children"]
            and {*map(type, map(_SCRIPT, nodes))} <= _CLASSES["script"]):
        return None
    names = [*map(_NAME, nodes), *map(_TYPE, nodes), *chain.from_iterable(map(_CHILDREN, nodes))]
    texts = [*chain(*(filter(_CARRIED, map(text, nodes)) for text in _TEXTS),
                    chain.from_iterable(filter(None, map(_SCRIPT, nodes))))]
    if not {*map(type, names), *map(type, texts)} <= _TEXT:
        return None
    return "".join(names), "".join(texts)


def _residue(texts: tuple[str, str]) -> bool:
    """Whether joined texts (see _texts) hold "$", or their name positions
    "~"; quoted expression text may legitimately contain a tilde."""
    names, payload = texts
    return "$" in names or "~" in names or "$" in payload


def _node_verdict(nd: NodeDef) -> tuple:
    """The (code, message) pairs the per-node rules give ``nd``, in order:
    its kind, its children, then its payload (see payload_problem)."""
    kind = nd.type
    if kind not in PRIMARY_KINDS:
        return (("UNKNOWN_TYPE", f"type '{kind}' is not a primary node kind"),)
    verdict = []
    leaf = LEAF_PAYLOAD.get(kind)
    if leaf is not None and nd.children:
        verdict.append(("LEAF_WITH_CHILDREN", f"{kind} node must not have children"))
    elif leaf is None and not nd.children:
        verdict.append(("CONTROL_WITHOUT_CHILDREN", f"{kind} node requires at least one child"))
    problem = payload_problem(nd, kind)
    if problem:
        verdict.append(("BAD_NODE", problem))
    return tuple(verdict)


def validate_expanded(tree: ExpandedTree) -> list[Diagnostic]:
    """Check all structural invariants; return one Diagnostic per violation,
    located at the node it names (a duplicate name at its later copy).

    A tree with a field that holds a class _CLASSES does not allow gets
    only those class diagnostics; the structural rules run on the rest.
    Pure and deterministic: the same tree always yields the same list in
    the same order. An empty list means the tree is valid.
    """
    nodes = tree.nodes
    texts = (_texts(nodes) if type(nodes) in _CLASSES["nodes"]
             and type(tree.root) in _CLASSES["root"] else None)
    if texts is None:
        return _class_diagnostics(tree)
    residue = _residue(texts)
    diags = []

    def flag(code, name, message, nd=None):
        diags.append(Diagnostic(code, name, message, None if nd is None else nd.span))

    defined = tree.by_name()
    if len(defined) != len(nodes):
        seen = set()
        for nd in nodes:
            if nd.name in seen:
                flag("DUPLICATE_NAME", nd.name, "node name defined more than once", nd)
            seen.add(nd.name)

    verdicts = {}  # shape -> verdict
    parent = {}  # child entry -> the last node listing it
    entries = 0  # child entries of all nodes
    dangling = False
    for nd in defined.values():
        # A node's shape: its kind, whether it has children, and the class of
        # each payload field. The shape decides what the per-node rules say:
        # one verdict holds for every node of a shape.
        children = nd.children
        shape = (nd.type, not children, nd.args.__class__, nd.if_.__class__, nd.then.__class__,
                 nd.else_.__class__, nd.script.__class__, nd.result.__class__)
        verdict = verdicts.get(shape)
        if verdict is None:
            verdict = verdicts[shape] = _node_verdict(nd)
        for code, message in verdict:
            flag(code, nd.name, message, nd)
        if residue and _residue(_texts((nd,))):
            flag("UNSUBSTITUTED_PLACEHOLDER", nd.name, "node carries an unsubstituted '$' or '~'",
                 nd)
        if children:
            entries += len(children)
            for child in children:
                parent[child] = nd.name
                if child not in defined:
                    dangling = True
                    flag("UNRESOLVED_CHILD", nd.name, f"child '{child}' is not defined", nd)

    shared = entries != len(parent)  # some entry is listed more than once
    if shared:
        parents = {}
        for nd in defined.values():
            for child in nd.children:
                if child in defined:
                    parents.setdefault(child, []).append(nd.name)
        for nd in defined.values():
            ps = parents.get(nd.name, ())
            if len(ps) > 1:
                flag("MULTIPLE_PARENTS", nd.name,
                     f"listed as child of multiple nodes: {', '.join(ps)}", nd)

    root = tree.root
    if root not in defined:
        flag("BAD_ROOT", root, "root does not name a defined node")
        return diags

    if shared or dangling or root in parent:
        reached, cycle_hits = _depth_first(defined, root)
    else:
        # Every node has at most one parent and the root has none, so no
        # cycle is reachable and the walk meets each node it reaches once.
        reached = [root]
        for name in reached:
            reached.extend(defined[name].children)
        cycle_hits = ()
    for hit in cycle_hits:
        flag("CYCLE", hit, "node participates in a reference cycle", defined[hit])
    if len(reached) != len(defined):
        reached = set(reached)
        for name, nd in defined.items():
            if name not in reached:
                flag("UNREACHABLE", name, "node is not reachable from the root", nd)
    return diags


def require_valid(tree: ExpandedTree, error, code: str) -> None:
    """Trust a tree that ``expand_document`` marked, validate any other, and
    refuse a failing one as ``error(code, ...)`` at its first diagnostic."""
    diags = () if tree.validated else validate_expanded(tree)
    if diags:
        d = diags[0]
        raise error(code, f"tree fails validation: {d.code} on '{d.node}'", span=d.span)


def _depth_first(defined, root):
    """Iterative DFS from the root: the nodes it reaches, and the back
    edges' targets (cycles) in the order it meets them."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in defined}
    cycle_hits = []
    stack = [(root, iter(defined[root].children))]
    color[root] = GRAY
    while stack:
        name, children = stack[-1]
        advanced = False
        for child in children:
            if child not in defined:
                continue
            if color[child] == GRAY:
                if child not in cycle_hits:
                    cycle_hits.append(child)
            elif color[child] == WHITE:
                color[child] = GRAY
                stack.append((child, iter(defined[child].children)))
                advanced = True
                break
        if not advanced:
            color[name] = BLACK
            stack.pop()
    return [name for name in defined if color[name] != WHITE], cycle_hits


def _preorder(tree: ExpandedTree) -> list[str]:
    """The node names of the valid tree ``tree`` in depth-first pre-order
    from the root, children in listed order."""
    index = tree.by_name()
    out = []
    stack = [tree.root]
    while stack:
        name = stack.pop()
        out.append(name)
        stack.extend(reversed(index[name].children))
    return out
