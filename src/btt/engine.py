"""Synchronous tick execution over a blackboard memory.

One tick is a single top-down traversal from the root. Every ticked node's
return state is recorded under ``__STATE__/<name>``, which is what lets
templates such as Latch observe and skip completed children.

The engine compiles the tree once into flat per-node lists (kind code,
first child, next sibling, parent, state key, leaf payload) and ticks it
with a loop over those links, so a tick costs no recursion and no name
lookups, and tree depth is unbounded.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, repeat
from typing import NamedTuple

from .errors import DumpError, EngineError, ExprError, TickError
from .exprs import _compiled_assignment, _compiled_expr, not_a_state
from .model import (
    LEAF_PAYLOAD,
    MAX_INT_DIGITS,
    NAME_RE,
    PAYLOAD_FIELDS,
    _CLASSES,
    Diagnostic,
    ExpandedTree,
    NodeKind,
    ReturnState,
    Scenario,
    require_valid,
    value_text,
)

STATE_PREFIX = "__STATE__/"


def state_key(name: str) -> str:
    return STATE_PREFIX + name


class TraceEvent(NamedTuple):
    tick: int
    node: str
    result: ReturnState


class TickEvents(Sequence):
    """One tick's events in visit order, read-only. The tick records only
    node numbers and states; each TraceEvent is built when it is read."""

    __slots__ = ("_tick", "_names", "_nodes", "_results")

    def __init__(self, tick, names, nodes, results):
        self._tick, self._names, self._nodes, self._results = tick, names, nodes, results

    def __len__(self):
        return len(self._nodes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        return _new_event(TraceEvent, (self._tick, self._names[self._nodes[i]], self._results[i]))

    def __iter__(self):
        fields = zip(repeat(self._tick), map(self._names.__getitem__, self._nodes), self._results)
        return map(_new_event, repeat(TraceEvent), fields)

    def _lines(self):
        """Each event's trace line, with no TraceEvent built: its tick, node
        and state, tab-separated, ending in a newline."""
        head, names = f"{self._tick}\t", self._names
        return [f"{head}{names[node]}\t{_STATE_TEXT[state]}\n"
                for node, state in zip(self._nodes, self._results)]


def render_memory_dump(memory) -> str:
    """One ``<key> = <value>`` line per entry, sorted bytewise by key; the
    first integer past MAX_INT_DIGITS digits, which has no text, is a DumpError."""
    lines = []
    for k in sorted(memory):
        try:
            lines.append(f"{k} = {value_text(memory[k])}")
        except ValueError:
            raise DumpError("RUNTIME_ERROR", f"memory value is an integer of more than "
                            f"{MAX_INT_DIGITS} digits, too long to write", subject=k) from None
    return "\n".join(lines)


# Kind codes of the compiled program: the index into _KINDS, with scripted
# actions as a kind of their own. Control kinds come first.
_KINDS = (NodeKind.SEQUENCE, NodeKind.SELECTOR, NodeKind.SKIPPER, NodeKind.PARALLEL,
          NodeKind.CONDITION, NodeKind.ACTION)
_SEQUENCE, _SELECTOR, _SKIPPER, _PARALLEL, _CONDITION, _ACTION, _SCRIPTED = range(7)
_CODES = {kind.value: code for code, kind in enumerate(_KINDS)}

# The continue state of each serial kind, by kind code.
_CONTINUE = (ReturnState.SUCCESS, ReturnState.FAILURE, ReturnState.EMPTY)
# A parallel node returns the first of these that any child returned.
_PARALLEL_ORDER = (ReturnState.FAILURE, ReturnState.RUNNING, ReturnState.SUCCESS,
                   ReturnState.EMPTY)
_RANK = _PARALLEL_ORDER.index
_NONE_YET = len(_PARALLEL_ORDER) - 1
_new_event = tuple.__new__  # skips NamedTuple's Python-level __new__
_STATE_TEXT = {state: state.value for state in ReturnState}


def check_expressions(tree: ExpandedTree) -> list[Diagnostic]:
    """Parse and compile every expression text of ``tree`` through the
    per-text caches that ``tick()`` reads, as it would when it reaches them.

    Returns one diagnostic per text that does not parse, in node order
    and then payload key order, located at its node's span.
    """
    diags = []
    for nd in tree.nodes:
        for key in LEAF_PAYLOAD.get(nd.type, ()):
            value = getattr(nd, PAYLOAD_FIELDS[key])
            if key == "script":
                texts = [(f"script[{i}]", _compiled_assignment, line)
                         for i, line in enumerate(value)]
            else:
                texts = [(key, _compiled_expr, value)]
            for where, parse, text in texts:
                try:
                    parse(text)
                except ExprError as exc:
                    diags.append(Diagnostic(exc.code, nd.name, f"{where}: {exc.message}",
                                            nd.span))
    return diags


class Engine:
    """Ticks one expanded tree. A tree that ``expand_document`` did not
    return is validated first, and one that fails is ``NOT_A_TREE``.

    ``memory`` may be a dict shared with other engines (the blackboard is
    one memory layer; several trees may operate on it). Existing entries
    are kept; missing ``__STATE__/<node>`` keys are seeded with EMPTY and
    scenario seeds are applied on top.
    """

    def __init__(self, tree: ExpandedTree, scenario: Scenario | None = None,
                 memory: dict | None = None):
        # A valid tree gives each node one parent and the root none, so the
        # walk from the root cannot meet a cycle and a tick always ends.
        require_valid(tree, EngineError, "NOT_A_TREE")
        memory = {} if memory is None else memory
        seeds, actions = ({}, {}) if scenario is None else (scenario.memory, scenario.actions)
        # What parse_scenario refuses in a text, refused in a hand-built
        # scenario or memory before anything is written to the memory.
        for what, mapping in (("memory", memory), ("memory", seeds), ("actions", actions)):
            if type(mapping) not in _CLASSES["mapping"]:
                raise EngineError("SCHEMA_ERROR", f"{what} must be a mapping")
        for key, value in chain(memory.items(), seeds.items()):
            if type(key) not in _CLASSES["memory key"] or not NAME_RE.fullmatch(key):
                raise EngineError("SCHEMA_ERROR", f"invalid memory key '{key}'", subject=key)
            if type(value) not in _CLASSES["memory value"]:
                raise EngineError("SCHEMA_ERROR", f"memory value for '{key}' must be a scalar",
                                  subject=key)
        self.tree = tree
        self.memory = memory
        self.scenario = scenario
        self.tick_count = 0

        # The program: one slot per node, numbered in tree.nodes order, in
        # flat lists of kind codes, links, state keys and names. The
        # expression slots stay None until the node first evaluates that
        # text, so a text that does not parse fails when, and each time,
        # it is reached, as if it were parsed on every tick.
        nodes = tree.nodes
        n = len(nodes)
        names = [nd.name for nd in nodes]
        numbers = dict(zip(names, range(n)))
        kinds = [_CODES[nd.type] for nd in nodes]
        scripts = [None] * n  # parsed script lines, or a scripted action's results
        for name, results in actions.items():
            if type(name) not in _CLASSES["name"] or not NAME_RE.fullmatch(name):
                raise EngineError("SCHEMA_ERROR", f"invalid action name '{name}'", subject=name)
            if type(results) not in _CLASSES["results"]:
                raise EngineError("SCHEMA_ERROR", f"results for '{name}' must be a list",
                                  subject=name)
            for state in results:
                if type(state) not in _CLASSES["state"]:
                    raise EngineError("UNKNOWN_STATE", f"'{state}' is not a return state",
                                      subject=name)
            if not results:
                raise EngineError("SCHEMA_ERROR", f"action '{name}' needs at least one result",
                                  subject=name)
            i = numbers.get(name)
            if i is None or kinds[i] != _ACTION:
                raise EngineError(
                    "UNKNOWN_SCENARIO_ACTION",
                    f"scenario scripts '{name}', which is not an action in the tree",
                    subject=name,
                )
            kinds[i] = _SCRIPTED
            scripts[i] = results

        first, sibling, parent = [-1] * n, [-1] * n, [-1] * n
        for i, nd in enumerate(nodes):
            if nd.children:
                prev = first[i] = numbers[nd.children[0]]
                parent[prev] = i
                for child in nd.children[1:]:
                    j = numbers[child]
                    parent[j] = i
                    sibling[prev] = j
                    prev = j
        self._root = numbers[tree.root]

        keys = [STATE_PREFIX + name for name in names]
        # setdefault for every key, in one C-level merge: entries already
        # in memory keep their value and place, new keys follow in order
        self.memory.update({**dict.fromkeys(keys, ReturnState.EMPTY), **self.memory})
        self.memory.update(seeds)
        self._program = (nodes, kinds, first, sibling, parent, keys, names, [None] * n,
                         [None] * n, [None] * n, [None] * n, scripts, [0] * n, [_NONE_YET] * n)

    def tick(self):
        """Run one traversal; returns (root state, this tick's TickEvents).

        The walk descends through first-child links to a leaf, evaluates
        it, then climbs: each completed node writes its state, appends its
        number and state to the tick's two lists, and its parent either
        moves on to the next sibling or completes.
        """
        self.tick_count = tick = self.tick_count + 1
        memory = self.memory
        visited, states = [], []
        visit, record = visited.append, states.append
        (nodes, kinds, first, sibling, parent, keys, names,
         ifs, thens, elses, results, scripts, cursors, ranks) = self._program
        node = self._root
        try:
            while True:
                kind = kinds[node]
                if kind < _CONDITION:
                    if kind == _PARALLEL:
                        ranks[node] = _NONE_YET
                    node = first[node]
                    continue
                if kind == _CONDITION:
                    e = ifs[node]
                    if e is None:
                        e = ifs[node] = _compiled_expr(nodes[node].if_)
                    branch = e(memory)
                    if branch.__class__ is not bool:
                        raise ExprError("TYPE_ERROR", "condition 'if' must evaluate to a boolean")
                    slots = thens if branch else elses
                    e = slots[node]
                    if e is None:
                        nd = nodes[node]
                        e = slots[node] = _compiled_expr(nd.then if branch else nd.else_)
                    result = e(memory)
                    if result.__class__ is not ReturnState:
                        raise not_a_state(result)
                elif kind == _SCRIPTED:  # the last result repeats
                    script = scripts[node]
                    cursor = cursors[node]
                    result = script[cursor]
                    if cursor < len(script) - 1:
                        cursors[node] = cursor + 1
                else:
                    script = scripts[node]
                    if script is None:  # first run: parse each line just before it runs
                        script = []
                        for text in nodes[node].script:
                            key, e = line = _compiled_assignment(text)
                            memory[key] = e(memory)
                            script.append(line)
                        scripts[node] = script
                    else:
                        for key, e in script:
                            memory[key] = e(memory)
                    e = results[node]
                    if e is None:
                        e = results[node] = _compiled_expr(nodes[node].result)
                    result = e(memory)
                    if result.__class__ is not ReturnState:
                        raise not_a_state(result)
                while True:
                    memory[keys[node]] = result
                    visit(node)
                    record(result)
                    up = parent[node]
                    if up < 0:
                        return result, TickEvents(tick, names, visited, states)
                    kind = kinds[up]
                    if kind == _PARALLEL:
                        rank = _RANK(result)
                        if rank < ranks[up]:
                            ranks[up] = rank
                        if sibling[node] >= 0:
                            break
                        result = _PARALLEL_ORDER[ranks[up]]
                    elif result is _CONTINUE[kind] and sibling[node] >= 0:
                        break
                    node = up
                node = sibling[node]
        except ExprError as exc:
            # abort the tick; no state write for the failing node or above
            raise TickError(exc.render(), node=names[node], tick=tick, span=nodes[node].span,
                            events=TickEvents(tick, names, visited, states)) from exc
