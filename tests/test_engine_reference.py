"""Differential test: ``btt.Engine`` against the recursive reference
interpreter in ``oracles.py``, tick by tick, on every shipped document,
the benchmark workloads' quick documents and seeded random trees."""

import itertools
import random
import sys

import pytest

from btt import (
    Engine,
    ReturnState,
    Scenario,
    TickError,
    builtin_templates,
    expand_document,
    parse_document,
    parse_scenario,
)
from oracles import ReferenceEngine
from util import CORPUS_DOCS, EXAMPLES, REPO, action, condition, control, expand_path, tree

sys.path.insert(0, str(REPO / "bench"))
import workloads  # noqa: E402  (bench/workloads.py)

ALL = tuple(ReturnState)


def snapshot(memory):
    # bool and int are distinct value types, so compare types as well
    return [(k, type(v).__name__, v) for k, v in memory.items()]


def step(engine):
    try:
        result, events = engine.tick()
    except TickError as exc:
        return ("error", exc.code, exc.node, exc.tick, exc.message, list(exc.events),
                snapshot(engine.memory))
    return ("ok", result, list(events), snapshot(engine.memory))


def assert_same_run(expanded, scenario_factory, ticks):
    """Tick both engines; return how many ticks ended in a TickError."""
    new = Engine(expanded, scenario=scenario_factory())
    ref = ReferenceEngine(expanded, scenario=scenario_factory())
    assert snapshot(new.memory) == snapshot(ref.memory)
    failed = 0
    for tick in range(1, ticks + 1):
        outcome = step(new)
        assert outcome == step(ref), f"tick {tick}"
        failed += outcome[0] == "error"
    return failed


def random_scenario(rng, expanded):
    actions = sorted(nd.name for nd in expanded.nodes if nd.type == "action")
    scripted = rng.sample(actions, rng.randint(0, len(actions)))
    return Scenario(actions={name: tuple(rng.choices(ALL, k=rng.randint(1, 4)))
                             for name in scripted})


SHIPPED = [pytest.param(p, id=p.name) for p in CORPUS_DOCS]


@pytest.mark.parametrize("path", SHIPPED)
def test_shipped_documents_tick_like_the_reference(path):
    expanded = expand_path(path)
    assert_same_run(expanded, lambda: None, 4)
    rng = random.Random(path.name)
    for _ in range(10):
        scenario = random_scenario(rng, expanded)
        assert_same_run(expanded, lambda: Scenario(actions=dict(scenario.actions)), 6)


@pytest.mark.parametrize("doc, scen", [("latch.yaml", "latch_scenario.yaml"),
                                       ("patrol.yaml", "patrol_scenario.yaml")])
def test_examples_with_their_scenarios_tick_like_the_reference(doc, scen):
    text = (EXAMPLES / scen).read_text(encoding="utf-8")
    assert_same_run(expand_path(EXAMPLES / doc), lambda: parse_scenario(text), 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bench_quick_documents_tick_like_the_reference(name):
    w = workloads.make(name, 1, quick=True)
    expanded = expand_document(parse_document(w.document), builtins=builtin_templates())
    assert_same_run(expanded, lambda: parse_scenario(w.scenario), w.steady_ticks + 1)


# --- seeded random trees -------------------------------------------------

_BOOL = ["x < 3", "flag", "!flag || y == 2", "x - y > 0 && flag", "y >= x",
         "x == 1.5", "$state == SUCCESS", "$state != RUNNING || flag",
         "false && missing", "true || 1 / 0 > 1"]
_STATE = ["SUCCESS", "FAILURE", "RUNNING", "EMPTY", "$state"]
_ASSIGN = ["x := x + 1", "y := y * 2 - x", "flag := !flag", "$state := EMPTY",
           "z := 'text'", "x := x * 0.5", "flag := x > 2"]
# Each fails at run time: undefined key, wrong type, division by zero, syntax.
_FAULTY = {"bool": ["missing > 0", "x", "'a' < 1", "(("],
           "state": ["x", "((", "flag && x"],
           "assign": ["x := x / (y - y)", "x = 1", "y := missing", "flag := flag + 1"]}


def _draw(rng, role, choices, names):
    text = rng.choice(_FAULTY[role] if rng.random() < 0.03 else choices)
    return text.replace("$state", f"__STATE__/{rng.choice(names)}")


def random_tree(rng):
    """A random tree of a few dozen nodes at most, over the memory keys x,
    y, z and flag and the ``__STATE__`` keys of n0..n29. Some expressions
    fail, and some name a node that is not built, whose key is undefined."""
    names = [f"n{i}" for i in range(30)]
    counter = itertools.count()
    nodes = []

    def build(depth):
        name = f"n{next(counter)}"
        draw = rng.random()
        if depth == 0 or (depth < 6 and draw < 0.4 and len(nodes) < 40):
            kind = rng.choice(["sequence", "selector", "skipper", "parallel"])
            kids = [build(depth + 1) for _ in range(rng.randint(1, 4))]
            nodes.append(control(name, kind, kids))
        elif draw < 0.7:
            nodes.append(condition(name, _draw(rng, "bool", _BOOL, names),
                                   then=_draw(rng, "state", _STATE, names),
                                   else_=_draw(rng, "state", _STATE, names)))
        else:
            script = tuple(_draw(rng, "assign", _ASSIGN, names)
                           for _ in range(rng.choice([0, 1, 1, 2, 3])))
            nodes.append(action(name, script=script,
                                result=_draw(rng, "state", _STATE, names)))
        return name

    root = build(0)
    rng.shuffle(nodes)  # the engine must not depend on the node order
    return tree(*nodes, root=root)


def test_random_trees_tick_like_the_reference():
    rng = random.Random(4)
    errors = 0
    for _ in range(400):
        expanded = random_tree(rng)
        scenario = random_scenario(rng, expanded)
        memory = {"x": rng.randint(-2, 4), "y": rng.choice([0, 1, 2, 2.5]), "flag": True}
        errors += assert_same_run(
            expanded,
            lambda: Scenario(memory=dict(memory), actions=dict(scenario.actions)),
            6) > 0
    # the generator exercises both clean runs and runtime errors
    assert 40 < errors < 200
