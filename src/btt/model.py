"""Document object model for the behavior-tree description language.

Holds the parsed document (templates plus user nodes), the fully expanded
tree of primary nodes, and the structural validation that every expanded
tree must pass before it may be serialized or executed.
"""

from __future__ import annotations

import enum
import keyword
import re
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter
from typing import Union

# Node names, memory keys and expression identifiers share one alphabet;
# "/" doubles as the qualification separator used by the expander and by
# the engine's __STATE__/<node> keys.
NAME_RE = re.compile(r"[A-Za-z0-9_/.\-]+")
# Template-body keys may additionally carry substitution markers.
PATTERN_NAME_RE = re.compile(r"[A-Za-z0-9_/.\-$~]+")
# Template args and foreach variables, which "$name" refers to.
PARAM_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# Template and foreach block names; "$@name" splices a block.
BLOCK_NAME = r"[A-Za-z0-9_.\-]+"

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
    resolution happens in the expander. Leaf payload fields are None/empty
    when they do not apply. ``args`` carries scalar arguments for template
    instantiation only; expanded primary nodes have no args.
    """

    name: str
    type: str
    children: tuple[str, ...] = ()
    args: dict = field(default_factory=dict)
    if_: str | None = None
    then: str | None = None
    else_: str | None = None
    script: tuple[str, ...] = ()
    result: str | None = None
    span: "SourceSpan | None" = field(default=None, compare=False, repr=False)


class EmptyScript(tuple):
    """A ``script: []`` written on a node whose type is not yet known: equal
    to (), but carried, as the key is where the type is written out."""


class EmptyArgs(dict):
    """An ``args: {}`` written on a node whose type is not yet known."""


# NodeDef's values for a payload key the node does not carry, unless written.
_ABSENT = (None, (), {})
_WRITTEN = (EmptyScript, EmptyArgs)
_NAME, _TYPE, _CHILDREN, _SCRIPT = map(attrgetter, ("name", "type", "children", "script"))
_TEXTS = tuple(map(attrgetter, ("if_", "then", "else_", "result")))


def payload_problem(nd: NodeDef, kind: str | None) -> str | None:
    """What is wrong with ``nd``'s payload for ``kind`` (a primary kind, or
    None for a templated node), or None if nothing is. A key counts as
    carried when the source wrote it, or its field holds anything but the
    field's empty value."""
    takes = TEMPLATED_PAYLOAD if kind is None else LEAF_PAYLOAD.get(kind, {})
    for key, fld in PAYLOAD_FIELDS.items():
        value = getattr(nd, fld)
        if value in _ABSENT and value.__class__ not in _WRITTEN:
            if key in takes and takes[key] is None:
                return f"a {kind} node requires '{key}'"
        elif key not in takes:
            return f"a {kind or 'templated'} node takes no '{key}'"
    return None


def with_leaf_defaults(node: NodeDef) -> NodeDef:
    """Fill the defaults of the optional leaf payload keys ``node`` leaves unset."""
    unset = {PAYLOAD_FIELDS[key]: default
             for key, default in LEAF_PAYLOAD.get(node.type, {}).items()
             if default is not None and getattr(node, PAYLOAD_FIELDS[key]) is None}
    return replace(node, **unset) if unset else node


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


@dataclass(frozen=True)
class Diagnostic:
    code: str
    node: str
    message: str
    span: "SourceSpan | None" = field(default=None, compare=False, repr=False)


def diagnostic_render(d: Diagnostic) -> str:
    return f"{d.code}: {d.node}: {d.message}"


def _texts_with_placeholder(nd: NodeDef):
    # "$" is residue anywhere; "~" only counts in name positions, since
    # quoted expression text may legitimately contain a tilde.
    names = "".join((nd.name, nd.type, *nd.children))
    return ("$" in names or "~" in names
            or "$" in f"{nd.if_}{nd.then}{nd.else_}{nd.result}{''.join(nd.script or ())}")


def _may_carry_placeholder(defined: dict) -> bool:
    """False only if no node of ``defined`` carries residue: one scan over
    all their texts, so that the per-node test runs only on a tree that may
    fail it. A value that is not text makes it answer True."""
    nodes = defined.values()
    try:
        names = "".join(chain(defined, map(_TYPE, nodes),
                              chain.from_iterable(map(_CHILDREN, nodes))))
        texts = "".join(chain(*(filter(None, map(text, nodes)) for text in _TEXTS),
                              chain.from_iterable(filter(None, map(_SCRIPT, nodes)))))
    except TypeError:
        return True
    return "$" in names or "~" in names or "$" in texts


# A node's payload shape: its kind, the class of each payload field, and
# whether args and script are empty. When args is a dict, script a tuple
# and the other fields text or None, the shape alone decides which keys
# are carried and which are None, so one verdict holds for its every node.
_TEXT_CLASSES = {str, type(None)}
_UNJUDGED = object()


def _payload_verdict(nd: NodeDef, shape, verdicts) -> str | None:
    """What is wrong with a primary-kind node's payload, or None: a key
    its kind does not take, a required key missing, or an optional key
    without its default. Kept in ``verdicts`` if the shape decides it."""
    kind = nd.type
    unset = [key for key, default in LEAF_PAYLOAD.get(kind, {}).items()
             if default is not None and getattr(nd, PAYLOAD_FIELDS[key]) is None]
    verdict = payload_problem(nd, kind) or unset and f"a {kind} node has no '{unset[0]}'" or None
    _, args, _, if_, then, else_, script, _, result = shape
    if args is dict and script is tuple and {if_, then, else_, result} <= _TEXT_CLASSES:
        verdicts[shape] = verdict
    return verdict


def validate_expanded(tree: ExpandedTree) -> list[Diagnostic]:
    """Check all structural invariants; return one Diagnostic per violation.

    Pure and deterministic: the same tree always yields the same list in
    the same order. An empty list means the tree is valid.
    """
    diags = []
    nodes = tree.nodes
    defined = tree.by_name()
    if len(defined) != len(nodes):
        seen = set()
        for nd in nodes:
            if nd.name in seen:
                diags.append(
                    Diagnostic("DUPLICATE_NAME", nd.name, "node name defined more than once")
                )
            seen.add(nd.name)

    residue = _may_carry_placeholder(defined)
    verdicts = {}  # payload shape -> verdict
    parent = {}  # child entry -> the last node listing it
    entries = 0  # child entries of all nodes
    dangling = False
    for nd in defined.values():
        kind = nd.type
        children = nd.children
        if kind not in PRIMARY_KINDS:
            diags.append(
                Diagnostic("UNKNOWN_TYPE", nd.name,
                           f"type '{kind}' is not a primary node kind")
            )
        else:
            if kind in LEAF_PAYLOAD and children:
                diags.append(
                    Diagnostic("LEAF_WITH_CHILDREN", nd.name,
                               f"{kind} node must not have children")
                )
            elif kind not in LEAF_PAYLOAD and not children:
                diags.append(
                    Diagnostic("CONTROL_WITHOUT_CHILDREN", nd.name,
                               f"{kind} node requires at least one child")
                )
            args, script = nd.args, nd.script
            shape = (kind, args.__class__, not args, nd.if_.__class__, nd.then.__class__,
                     nd.else_.__class__, script.__class__, not script, nd.result.__class__)
            problem = verdicts.get(shape, _UNJUDGED)
            if problem is _UNJUDGED:
                problem = _payload_verdict(nd, shape, verdicts)
            if problem:
                diags.append(Diagnostic("BAD_NODE", nd.name, problem))
        if residue and _texts_with_placeholder(nd):
            diags.append(
                Diagnostic("UNSUBSTITUTED_PLACEHOLDER", nd.name,
                           "node carries an unsubstituted '$' or '~'")
            )
        if children:
            entries += len(children)
            for child in children:
                parent[child] = nd.name
                if child not in defined:
                    dangling = True
                    diags.append(
                        Diagnostic("UNRESOLVED_CHILD", nd.name,
                                   f"child '{child}' is not defined")
                    )

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
                diags.append(
                    Diagnostic("MULTIPLE_PARENTS", nd.name,
                               f"listed as child of multiple nodes: {', '.join(ps)}")
                )

    root = tree.root
    if root not in defined:
        diags.append(
            Diagnostic("BAD_ROOT", root, "root does not name a defined node")
        )
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
        diags.append(
            Diagnostic("CYCLE", hit, "node participates in a reference cycle")
        )
    if len(reached) != len(defined):
        reached = set(reached)
        for name in defined:
            if name not in reached:
                diags.append(
                    Diagnostic("UNREACHABLE", name, "node is not reachable from the root")
                )
    return diags


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


def dfs_preorder(tree: ExpandedTree) -> list[str]:
    """Depth-first pre-order from the root, children in listed order.

    Intended for valid trees; repeated or missing references are skipped
    defensively rather than visited twice.
    """
    index = tree.by_name()
    out = []
    seen = set()
    stack = [tree.root]
    while stack:
        name = stack.pop()
        if name in seen or name not in index:
            continue
        seen.add(name)
        out.append(name)
        stack.extend(reversed(index[name].children))
    return out
