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
from functools import partial
from itertools import chain
from operator import attrgetter, is_not
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
    resolution happens in the expander. A payload field is None exactly
    when the node does not carry its key; an empty ``script`` or ``args``
    is carried. ``args`` carries scalar arguments for template
    instantiation only; expanded primary nodes have none.
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


_NAME, _TYPE, _CHILDREN, _SCRIPT = map(attrgetter, ("name", "type", "children", "script"))
_TEXTS = tuple(map(attrgetter, ("if_", "then", "else_", "result")))
_CARRIED = partial(is_not, None)  # a payload text the node carries
_SCRIPT_CLASSES = {tuple, type(None)}


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


def _sequence(v) -> bool:
    """Whether a node's children or script ``v`` is a sequence: a tuple or a list."""
    return isinstance(v, (tuple, list))


def _text_problems(nd: NodeDef) -> list:
    """The (code, message) pairs the per-node text rules give ``nd``: the
    first of a name, payload text or script line that is not text, a script
    that is neither None nor a sequence, and children that are not a
    sequence, is BAD_NODE; then "$" in any text, or "~" in a name position,
    is residue, since quoted expression text may legitimately contain a
    tilde. A script or children that are not a sequence hold no text, and a
    type or child that is not text is left to the kind and children rules."""
    script = () if nd.script is None else nd.script
    children = nd.children
    texts = [("the name", nd.name)]
    texts += [(f"'{key}'", v) for key, v in zip(("if", "then", "else", "result"),
                                                 (nd.if_, nd.then, nd.else_, nd.result))
              if v is not None]  # None: the node does not carry the key
    texts += [("a 'script' line", line) for line in (script if _sequence(script) else ())]
    problems = []
    for what, v in texts:
        if not isinstance(v, str):
            problems.append(("BAD_NODE", f"{what} must be text, not {type(v).__name__}"))
            break
    else:
        for key, v in (("script", script), ("children", children)):
            if not _sequence(v):
                problems.append(("BAD_NODE", f"'{key}' must be a sequence of text, "
                                 f"not {type(v).__name__}"))
                break
    if not _sequence(children):
        children = ()
    names = "".join(t for t in (nd.name, nd.type, *children) if isinstance(t, str))
    payload = "".join(v for _, v in texts[1:] if isinstance(v, str))
    if "$" in names or "~" in names or "$" in payload:
        problems.append(("UNSUBSTITUTED_PLACEHOLDER", "node carries an unsubstituted '$' or '~'"))
    return problems


def _may_carry_placeholder(defined: dict) -> bool:
    """False only if no node of ``defined`` carries residue, a value that is
    not text, or children or a script that is not a tuple: one scan over all
    their texts, so that the per-node text rules run only on a tree that may
    fail them."""
    nodes = defined.values()
    if not ({*map(type, map(_CHILDREN, nodes))} <= {tuple}
            and {*map(type, map(_SCRIPT, nodes))} <= _SCRIPT_CLASSES):
        return True
    try:
        names = "".join(chain(defined, map(_TYPE, nodes),
                              chain.from_iterable(map(_CHILDREN, nodes))))
        texts = "".join(chain(*(filter(_CARRIED, map(text, nodes)) for text in _TEXTS),
                              chain.from_iterable(filter(None, map(_SCRIPT, nodes)))))
    except TypeError:
        return True
    return "$" in names or "~" in names or "$" in texts


class _Unhashable:
    """A name, type, child entry or root that cannot be hashed, as
    validation holds it: it equals nothing, so it names no node and no
    kind, and it prints as its value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __str__(self):
        return str(self.value)


def _hashable(v):
    try:
        hash(v)
    except TypeError:
        return _Unhashable(v)
    return v


def _node_verdict(nd: NodeDef) -> tuple:
    """The (code, message) pairs the per-node rules give ``nd``, in order:
    its kind, its children, then its payload (see payload_problem), whose
    optional keys an expanded leaf carries with their defaults."""
    kind = nd.type
    if kind not in PRIMARY_KINDS:
        return (("UNKNOWN_TYPE", f"type '{kind}' is not a primary node kind"),)
    verdict = []
    leaf = LEAF_PAYLOAD.get(kind)
    if leaf is not None and nd.children:
        verdict.append(("LEAF_WITH_CHILDREN", f"{kind} node must not have children"))
    elif leaf is None and not nd.children:
        verdict.append(("CONTROL_WITHOUT_CHILDREN", f"{kind} node requires at least one child"))
    unset = [key for key, default in (leaf or {}).items()
             if default is not None and getattr(nd, PAYLOAD_FIELDS[key]) is None]
    problem = payload_problem(nd, kind) or unset and f"a {kind} node has no '{unset[0]}'"
    if problem:
        verdict.append(("BAD_NODE", problem))
    return tuple(verdict)


def validate_expanded(tree: ExpandedTree) -> list[Diagnostic]:
    """Check all structural invariants; return one Diagnostic per violation,
    located at the node it names (a duplicate name at its later copy).

    Pure and deterministic: the same tree always yields the same list in
    the same order. An empty list means the tree is valid.
    """
    diags = []

    def flag(code, name, message, nd=None):
        if name.__class__ is _Unhashable:
            name = name.value
        diags.append(Diagnostic(code, name, message, None if nd is None else nd.span))

    nodes = tree.nodes
    try:
        defined = tree.by_name()
    except TypeError:  # a name that cannot be hashed
        defined = None
    problems = {}  # name -> what the text rules say, if they run
    if defined is None or _may_carry_placeholder(defined):
        # every other rule reads children that are not a sequence as none,
        # and a name, type or child entry that cannot be hashed as a stand-in
        keyed = [replace(nd, name=_hashable(nd.name), type=_hashable(nd.type),
                         children=tuple(map(_hashable, nd.children))
                         if _sequence(nd.children) else ())
                 for nd in nodes]
        defined = {}
        for nd, written in zip(keyed, nodes):
            if nd.name not in defined:
                defined[nd.name] = nd
                problems[nd.name] = _text_problems(written)
        nodes = keyed
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
        # each payload field. When the kind is text, the shape decides what
        # the per-node rules say: one verdict holds for every node of a shape.
        kind, children = nd.type, nd.children
        shape = (kind, not children, nd.args.__class__, nd.if_.__class__, nd.then.__class__,
                 nd.else_.__class__, nd.script.__class__, nd.result.__class__)
        verdict = verdicts.get(shape)
        if verdict is None:
            verdict = _node_verdict(nd)
            if kind.__class__ is str:
                verdicts[shape] = verdict
        for code, message in verdict:
            flag(code, nd.name, message, nd)
        if problems:
            for code, message in problems[nd.name]:
                flag(code, nd.name, message, nd)
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
                     f"listed as child of multiple nodes: {', '.join(map(str, ps))}", nd)

    root = _hashable(tree.root)
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
