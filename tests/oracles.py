"""Test-only reference implementations, kept independent of the code under test."""

from btt import (
    ExprError,
    NodeKind,
    ReturnState,
    TickError,
    TraceEvent,
    eval_expr,
    eval_state_expr,
    parse_assignment,
    parse_expr,
    state_key,
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
        self.trace = []
        for name in self.nodes:
            self.memory.setdefault(state_key(name), ReturnState.EMPTY)
        if scenario is not None:
            self.memory.update(scenario.memory)

    def tick(self):
        self.tick_count += 1
        start = len(self.trace)
        result = self.tick_node(self.root)
        return result, self.trace[start:]

    def tick_node(self, name):
        nd = self.nodes[name]
        try:
            if nd.type == "condition":
                branch = eval_expr(parse_expr(nd.if_), self.memory)
                if not isinstance(branch, bool):
                    raise ExprError("TYPE_ERROR", "condition 'if' must evaluate to a boolean")
                text = nd.then if branch else nd.else_
                result = eval_state_expr(parse_expr(text), self.memory)
            elif nd.type == "action":
                if name in self.scripts:
                    script = self.scripts[name]
                    cursor = self.cursors[name]
                    self.cursors[name] = cursor + 1
                    result = script[min(cursor, len(script) - 1)]
                else:
                    for line in nd.script:
                        asg = parse_assignment(line)
                        self.memory[asg.key] = eval_expr(asg.value, self.memory)
                    result = eval_state_expr(parse_expr(nd.result), self.memory)
            elif nd.type == "parallel":
                result = parallel_step([self.tick_node(c) for c in nd.children])
            else:
                result = control_step(NodeKind(nd.type),
                                      (self.tick_node(c) for c in nd.children))
        except ExprError as exc:
            raise TickError(exc.render(), node=name, tick=self.tick_count) from exc
        self.memory[state_key(name)] = result
        self.trace.append(TraceEvent(self.tick_count, name, result))
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
