"""Test-only reference implementations, kept independent of the code under test."""

from btt import (
    ExprError,
    NodeKind,
    ReturnState,
    TickError,
    TraceEvent,
    control_step,
    eval_expr,
    eval_state_expr,
    parallel_step,
    parse_assignment,
    parse_expr,
    state_key,
)


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
