"""Synchronous tick execution over a blackboard memory.

One tick is a single top-down traversal from the root. Every ticked node's
return state is recorded under ``__STATE__/<name>``, which is what lets
templates such as Latch observe and skip completed children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import EngineError, ExprError, TickError
from .exprs import eval_expr, eval_state_expr, parse_assignment, parse_expr
from .model import ExpandedTree, NodeKind, ReturnState, value_text

STATE_PREFIX = "__STATE__/"


def state_key(name: str) -> str:
    return STATE_PREFIX + name


@dataclass
class Scenario:
    """Deterministic test double: memory seeds plus scripted action results.

    Each scripted action returns its next listed state instead of running
    its script; the last entry repeats once the list is exhausted.
    """

    memory: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)  # name -> tuple[ReturnState, ...]


@dataclass(frozen=True)
class TraceEvent:
    tick: int
    node: str
    result: ReturnState


def render_trace_event(event: TraceEvent) -> str:
    return f"{event.tick}\t{event.node}\t{event.result.value}"


def render_memory_dump(memory) -> str:
    """One ``<key> = <value>`` line per entry, sorted bytewise by key."""
    return "\n".join(f"{k} = {value_text(memory[k])}" for k in sorted(memory))


_CONTINUE = {
    NodeKind.SEQUENCE: ReturnState.SUCCESS,
    NodeKind.SELECTOR: ReturnState.FAILURE,
    NodeKind.SKIPPER: ReturnState.EMPTY,
}


def control_step(kind: NodeKind, results) -> ReturnState:
    """Serial control rule: consume child results lazily, in order, and
    return the first one outside the kind's continue-set. If every child
    is in the continue-set, the result is that sole continue state."""
    cont = _CONTINUE[kind]
    for r in results:
        if r is not cont:
            return r
    return cont


def parallel_step(results) -> ReturnState:
    """No short-circuit: FAILURE beats RUNNING beats SUCCESS beats EMPTY."""
    rs = list(results)
    if ReturnState.FAILURE in rs:
        return ReturnState.FAILURE
    if ReturnState.RUNNING in rs:
        return ReturnState.RUNNING
    if ReturnState.SUCCESS in rs:
        return ReturnState.SUCCESS
    return ReturnState.EMPTY


# Expression ASTs are immutable, so parses are shared process-wide.
_parsed_expr = lru_cache(maxsize=None)(parse_expr)
_parsed_assignment = lru_cache(maxsize=None)(parse_assignment)


class Engine:
    """Ticks one expanded tree. Callers must pass a tree that validates.

    ``memory`` may be a dict shared with other engines (the blackboard is
    one memory layer; several trees may operate on it). Existing entries
    are kept; missing ``__STATE__/<node>`` keys are seeded with EMPTY and
    scenario seeds are applied on top.
    """

    def __init__(self, tree: ExpandedTree, scenario: Scenario | None = None,
                 memory: dict | None = None):
        self.tree = tree
        self.nodes = {nd.name: nd for nd in tree.nodes}
        self.memory = memory if memory is not None else {}
        self.scenario = scenario
        self.tick_count = 0
        self.trace: list[TraceEvent] = []
        self._cursors = {}
        if scenario is not None:
            for name in scenario.actions:
                nd = self.nodes.get(name)
                if nd is None or nd.type != NodeKind.ACTION.value:
                    raise EngineError(
                        "UNKNOWN_SCENARIO_ACTION",
                        f"scenario scripts '{name}', which is not an action in the tree",
                        subject=name,
                    )
            self._cursors = dict.fromkeys(scenario.actions, 0)
        for name in self.nodes:
            self.memory.setdefault(STATE_PREFIX + name, ReturnState.EMPTY)
        if scenario is not None:
            self.memory.update(scenario.memory)

    def tick(self):
        """Run one traversal; returns (root state, this tick's events)."""
        self.tick_count += 1
        start = len(self.trace)
        result = self.tick_node(self.tree.root)
        return result, self.trace[start:]

    def tick_node(self, name: str) -> ReturnState:
        nd = self.nodes[name]
        type_ = nd.type
        try:
            if type_ == "condition":
                branch = eval_expr(_parsed_expr(nd.if_), self.memory)
                if not isinstance(branch, bool):
                    raise ExprError("TYPE_ERROR", "condition 'if' must evaluate to a boolean")
                text = nd.then if branch else nd.else_
                result = eval_state_expr(_parsed_expr(text), self.memory)
            elif type_ == "action":
                if name in self._cursors:
                    script = self.scenario.actions[name]
                    cursor = self._cursors[name]
                    self._cursors[name] = cursor + 1
                    result = script[min(cursor, len(script) - 1)]
                else:
                    for line in nd.script:
                        asg = _parsed_assignment(line)
                        self.memory[asg.key] = eval_expr(asg.value, self.memory)
                    result = eval_state_expr(_parsed_expr(nd.result), self.memory)
            elif type_ == "parallel":
                result = parallel_step([self.tick_node(c) for c in nd.children])
            else:
                kind = NodeKind(type_)
                result = control_step(kind, (self.tick_node(c) for c in nd.children))
        except ExprError as exc:
            # abort the tick; no state write for the failing node
            raise TickError(exc.render(), node=name, tick=self.tick_count) from exc
        self.memory[STATE_PREFIX + name] = result
        self.trace.append(TraceEvent(self.tick_count, name, result))
        return result
