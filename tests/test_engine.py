import gc
import itertools
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btt import (
    BttError,
    DumpError,
    Engine,
    EngineError,
    NodeDef,
    NodeKind,
    ReturnState,
    Scenario,
    TickError,
    TraceEvent,
    parse_scenario,
    render_memory_dump,
    state_key,
)
from oracles import control_step, parallel_step
from util import (EXAMPLES, HASHABLE_ODD, ODD, SCALARS, action, condition, control, expand_path,
                  expand_text, run_ticks, tree)

S, F, R, E = (ReturnState.SUCCESS, ReturnState.FAILURE,
              ReturnState.RUNNING, ReturnState.EMPTY)
ALL = (S, F, R, E)

SERIAL_KINDS = (NodeKind.SEQUENCE, NodeKind.SELECTOR, NodeKind.SKIPPER)
CONTINUE = {NodeKind.SEQUENCE: S, NodeKind.SELECTOR: F, NodeKind.SKIPPER: E}


def control_oracle(kind, results):
    """Independent statement of the continue-set rule: scan the full list,
    return the first result outside the set plus how many were consumed."""
    cont = CONTINUE[kind]
    for i, r in enumerate(results):
        if r != cont:
            return r, i + 1
    return cont, len(results)


def parallel_oracle(results):
    for state in (F, R, S):
        if any(r == state for r in results):
            return state
    return E


class CountingIter:
    def __init__(self, items):
        self.items = iter(items)
        self.consumed = 0

    def __iter__(self):
        return self

    def __next__(self):
        value = next(self.items)
        self.consumed += 1
        return value


def test_control_step_matches_oracle_exhaustively():
    for kind in SERIAL_KINDS:
        for k in (1, 2, 3):
            for results in itertools.product(ALL, repeat=k):
                want, want_consumed = control_oracle(kind, results)
                supplier = CountingIter(results)
                assert control_step(kind, supplier) is want
                assert supplier.consumed == want_consumed  # lazy short-circuit


def test_control_step_spec_rows():
    assert control_step(NodeKind.SEQUENCE, iter([S, S, S])) is S
    assert control_step(NodeKind.SKIPPER, iter([E, F])) is F


def test_parallel_step_matches_rule_order_oracle():
    for k in (1, 2, 3):
        for results in itertools.product(ALL, repeat=k):
            assert parallel_step(list(results)) is parallel_oracle(results)
    assert parallel_step([S, R]) is R
    assert parallel_step([E, E]) is E


# --- engine construction -------------------------------------------------

def latch_tree():
    return expand_path(EXAMPLES / "latch.yaml")


def test_init_seeds_state_keys():
    eng = Engine(latch_tree())
    state_keys = [k for k in eng.memory if k.startswith("__STATE__/")]
    assert sorted(state_keys) == sorted(
        state_key(n.name) for n in eng.tree.nodes)
    assert all(eng.memory[k] is E for k in state_keys)
    assert eng.tick_count == 0


def test_init_keeps_existing_memory_entries_in_place():
    memory = {"battery": 3, state_key("goto"): S}
    Engine(latch_tree(), memory=memory)
    expected = {"battery": 3, state_key("goto"): S}
    for nd in latch_tree().nodes:
        expected.setdefault(state_key(nd.name), E)
    assert list(memory.items()) == list(expected.items())


def test_scenario_seeds_memory():
    eng = Engine(latch_tree(), scenario=Scenario(memory={"battery": 42}))
    assert eng.memory["battery"] == 42


def test_scenario_seed_may_override_state_keys():
    eng = Engine(latch_tree(), scenario=Scenario(memory={state_key("goto"): S}))
    assert eng.memory[state_key("goto")] is S


def test_unknown_scenario_action():
    with pytest.raises(EngineError) as exc:
        Engine(latch_tree(), scenario=Scenario(actions={"ghost": (S,)}))
    assert exc.value.code == "UNKNOWN_SCENARIO_ACTION"
    # naming a non-action node is also rejected
    with pytest.raises(EngineError):
        Engine(latch_tree(), scenario=Scenario(actions={"example/saved": (S,)}))


def test_a_hand_built_scenario_is_refused_as_its_yaml_is():
    """An action with no result, a result that is not a state, or a memory
    key or action name that is not a name, is the EngineError whose code
    and message parse_scenario gives the same fault, before anything is
    written to memory; a memory key is checked before its value, and an
    action name before its results, as in the YAML."""
    refused = []
    for scenario, text, subject in (
            (Scenario(actions={"a": ()}), "actions: {a: []}\n", "a"),
            (Scenario(actions={"a": (S, "X")}), "actions: {a: [SUCCESS, X]}\n", "a"),
            (Scenario(memory={"x": 1, "a b": 2}), "memory: {x: 1, a b: 2}\n", "a b"),
            (Scenario(memory={"a b": [1]}), "memory: {a b: [1]}\n", "a b"),
            (Scenario(actions={"a b": (S,)}), "actions: {a b: [SUCCESS]}\n", "a b"),
            (Scenario(actions={"a b": ()}), "actions: {a b: []}\n", "a b")):
        with pytest.raises(BttError) as parsed:
            parse_scenario(text)
        memory = {}
        with pytest.raises(EngineError) as exc:
            Engine(tree(action("a")), scenario=scenario, memory=memory)
        assert (exc.value.code, exc.value.message, exc.value.subject) == (
            parsed.value.code, parsed.value.message, subject)
        assert memory == {}
        refused.append((exc.value.code, exc.value.message))
    assert refused[1:3] == [("UNKNOWN_STATE", "'X' is not a return state"),
                            ("SCHEMA_ERROR", "invalid memory key 'a b'")]
    assert refused[4:] == [("SCHEMA_ERROR", "invalid action name 'a b'")] * 2
    # a key or an action name that is not text, which no YAML scenario
    # gives, is refused alike
    for scenario, message in ((Scenario(memory={1: 2}), "invalid memory key '1'"),
                              (Scenario(actions={1: (S,)}), "invalid action name '1'")):
        memory = {}
        with pytest.raises(EngineError) as exc:
            Engine(tree(action("a")), scenario=scenario, memory=memory)
        assert (exc.value.code, exc.value.message, exc.value.subject) == (
            "SCHEMA_ERROR", message, 1)
        assert memory == {}
    # a valid name that is not an action in the tree is the tree's fault
    with pytest.raises(EngineError) as exc:
        Engine(tree(action("a")), scenario=Scenario(actions={"b": (S,)}))
    assert exc.value.code == "UNKNOWN_SCENARIO_ACTION"


def test_a_hand_built_scenario_with_no_result_list_or_a_memory_value_that_is_not_a_scalar():
    """Each is the EngineError whose code and message parse_scenario gives
    the same fault, before anything is written to memory."""
    for scenario, text, subject in ((Scenario(actions={"a": None}), "actions: {a: null}\n", "a"),
                                    (Scenario(actions={"a": S}), "actions: {a: SUCCESS}\n", "a"),
                                    (Scenario(memory={"x": [1]}), "memory: {x: [1]}\n", "x"),
                                    (Scenario(memory={"x": None}), "memory: {x: {}}\n", "x")):
        with pytest.raises(BttError) as parsed:
            parse_scenario(text)
        memory = {}
        with pytest.raises(EngineError) as exc:
            Engine(tree(action("a")), scenario=scenario, memory=memory)
        assert (exc.value.code, exc.value.message, exc.value.subject) == (
            parsed.value.code, parsed.value.message, subject)
        assert memory == {}
    assert [parsed.value.code, parsed.value.message] == [
        "SCHEMA_ERROR", "memory value for 'x' must be a scalar"]


def test_memory_or_a_scenario_field_that_is_not_a_dict_is_refused_as_its_yaml_is():
    """The memory an engine is given, and a scenario's memory and actions,
    must each be a dict; anything else is the SCHEMA_ERROR parse_scenario
    gives a scenario field that is not a mapping, and nothing is written."""
    for kwargs, text in ((dict(memory=[1]), "memory: [1]\n"),
                         (dict(scenario=Scenario(memory=None)), "memory: null\n"),
                         (dict(scenario=Scenario(memory=[("x", 1)])), "memory: [[x, 1]]\n"),
                         (dict(scenario=Scenario(actions=None)), "actions: null\n")):
        with pytest.raises(BttError) as parsed:
            parse_scenario(text)
        with pytest.raises(EngineError) as exc:
            Engine(tree(action("a")), **kwargs)
        assert (exc.value.code, exc.value.message) == (parsed.value.code, parsed.value.message)
    assert [parsed.value.code, parsed.value.message] == ["SCHEMA_ERROR",
                                                         "actions must be a mapping"]


def test_the_memory_an_engine_is_given_is_judged_as_a_scenario_memory_is():
    """Each entry already in the memory argument meets the key rule and then
    the value rule, so that no tick and no memory dump meets a value of
    another class; a refused engine writes nothing to that memory."""
    for memory, message, subject in (({"x": [1]}, "memory value for 'x' must be a scalar", "x"),
                                     ({1: 2, "x": 1}, "invalid memory key '1'", 1)):
        before = dict(memory)
        with pytest.raises(EngineError) as exc:
            Engine(tree(action("a", script=("y := x",))), memory=memory)
        assert (exc.value.code, exc.value.message, exc.value.subject) == (
            "SCHEMA_ERROR", message, subject)
        assert memory == before


_KEYS = st.one_of(st.sampled_from(["a", "b", "x", "a b", state_key("a")]), SCALARS,
                  HASHABLE_ODD)
# A list of results, or its tuple. The choice is drawn as a flag, not
# sampled from the drawn values: Hypothesis hashes the values a strategy is
# built from, and a drawn HashRaises would raise there.
_RESULTS = st.one_of(st.tuples(st.lists(st.one_of(st.sampled_from(ALL), SCALARS, ODD),
                                        max_size=3), st.booleans())
                     .map(lambda p: tuple(p[0]) if p[1] else p[0]),
                     SCALARS, ODD)


def _mapping(valid, values):
    """A third of the time each: ``valid``, a dict of any keys to
    ``values``, or a value of any class instead of a dict."""
    return st.sampled_from([
        valid, st.dictionaries(_KEYS, values, min_size=1, max_size=3),
        st.one_of(SCALARS, ODD, st.lists(st.tuples(_KEYS, values), max_size=2))]).flatmap(
            lambda strategy: strategy)


_MEMORY = _mapping(st.dictionaries(st.sampled_from(["x", "y", state_key("b")]), SCALARS,
                                   max_size=2), st.one_of(SCALARS, ODD))


@settings(max_examples=400)
@given(seeds=_MEMORY, memory=st.one_of(st.none(), _MEMORY), actions=_mapping(
    st.dictionaries(st.just("a"), st.lists(st.sampled_from(ALL), min_size=1, max_size=3)
                    .map(tuple), max_size=1), _RESULTS))
def test_hand_built_scenarios_and_memory_are_classified(seeds, actions, memory):
    """A scenario's memory and actions, and the memory an engine is given,
    of any class and with entries of any class, give the engine, three
    ticks and a memory dump a BttError at worst; a refused engine leaves
    the memory it was given as it was."""
    t = tree(control("r", "sequence", ["a", "b"]), action("a", script=("n := 1",)),
             condition("b", "x == 1"))
    before = list(memory.items()) if type(memory) is dict else None
    try:
        engine = Engine(t, scenario=Scenario(memory=seeds, actions=actions), memory=memory)
    except BttError:
        if before is not None:
            assert list(memory.items()) == before
        return
    try:
        for _ in range(3):
            engine.tick()
        render_memory_dump(engine.memory)
    except BttError:
        pass


# --- ticking -------------------------------------------------------------

def test_single_action_tick():
    eng = Engine(expand_text("root: a\nnodes:\n  a: {type: action}\n"))
    result, events = eng.tick()
    assert result is S
    assert [(e.tick, e.node, e.result) for e in events] == [(1, "a", S)]


def test_latch_first_tick_event_order():
    # hand-simulated: guard EMPTY, child RUNNING, root RUNNING, in
    # completion order with the root last
    eng = Engine(latch_tree(), scenario=Scenario(actions={"goto": (R,)}))
    result, events = eng.tick()
    assert result is R
    assert [(e.node, e.result) for e in events] == [
        ("example/saved", E), ("goto", R), ("example", R)]


def test_latch_remembers_and_stops_ticking_child():
    eng = Engine(latch_tree(), scenario=Scenario(actions={"goto": (R, R, S)}))
    roots, events = run_ticks(eng, 5)
    assert roots == [R, R, S, S, S]
    goto_events = [e for e in events if e.node == "goto"]
    assert len(goto_events) == 3
    assert eng.memory[state_key("goto")] is S


def test_condition_defaults():
    eng = Engine(expand_text("root: c\nnodes:\n  c: {type: condition, if: '1 < 2'}\n"))
    assert eng.tick()[0] is S
    assert eng.memory[state_key("c")] is S


def test_action_script_and_result():
    eng = Engine(expand_text(
        "root: a\nnodes:\n  a: {type: action, script: ['x := 1'], result: 'RUNNING'}\n"))
    assert eng.tick()[0] is R
    assert eng.memory["x"] == 1


def test_scenario_replaces_script_entirely():
    eng = Engine(
        expand_text("root: a\nnodes:\n  a: {type: action, script: ['x := 1']}\n"),
        scenario=Scenario(actions={"a": (F,)}),
    )
    assert eng.tick()[0] is F
    assert "x" not in eng.memory


def test_scenario_cursor_last_entry_repeats():
    eng = Engine(expand_text("root: a\nnodes:\n  a: {type: action}\n"),
                 scenario=Scenario(actions={"a": (R, S)}))
    assert [eng.tick()[0] for _ in range(4)] == [R, S, S, S]


def test_short_circuit_children_not_ticked():
    text = """
root: main
nodes:
  main:
    type: sequence
    children: [first, second]
  first: {type: action, result: "FAILURE"}
  second: {type: action}
"""
    eng = Engine(expand_text(text))
    result, events = eng.tick()
    assert result is F
    assert [e.node for e in events] == ["first", "main"]
    assert eng.memory[state_key("second")] is E  # untouched


def test_parallel_ticks_all_children():
    text = """
root: main
nodes:
  main:
    type: parallel
    children: [first, second]
  first: {type: action, result: "FAILURE"}
  second: {type: action}
"""
    eng = Engine(expand_text(text))
    result, events = eng.tick()
    assert result is F
    assert [e.node for e in events] == ["first", "second", "main"]


def test_runtime_error_names_node_and_tick():
    eng = Engine(expand_text(
        "root: c\nnodes:\n  c: {type: condition, if: 'missing == 1'}\n"))
    with pytest.raises(TickError) as exc:
        eng.tick()
    err = exc.value
    assert err.code == "RUNTIME_ERROR"
    assert err.node == "c"
    assert err.tick == 1
    assert "UNDEFINED_VARIABLE" in str(err)
    # the tick aborted: no state write for the failing node
    assert eng.memory[state_key("c")] is E
    assert list(err.events) == []


def test_a_state_expression_that_gives_no_state_fails_the_tick():
    eng = Engine(tree(condition("c", "true", then="1 + 1")))
    with pytest.raises(TickError) as exc:
        eng.tick()
    assert str(exc.value) == ("RUNTIME_ERROR: c: tick 1: NOT_A_STATE: "
                              "expected a return state, got integer")
    # a state expression that gives a state is the node's result
    assert Engine(tree(condition("c", "true", then="__STATE__/c"))).tick()[0] is E


def test_determinism():
    def run():
        eng = Engine(latch_tree(), scenario=Scenario(actions={"goto": (R, S)}))
        return list(run_ticks(eng, 4)[1]), render_memory_dump(eng.memory)

    assert run() == run()


def test_state_bookkeeping_matches_trace():
    eng = Engine(latch_tree(), scenario=Scenario(actions={"goto": (R, R, S)}))
    last = {}
    for e in run_ticks(eng, 5)[1]:
        last[e.node] = e.result
    for nd in eng.tree.nodes:
        expected = last.get(nd.name, E)
        assert eng.memory[state_key(nd.name)] is expected


def test_reset_tree_over_shared_memory_reenables_child():
    eng = Engine(latch_tree(), scenario=Scenario(actions={"goto": (S,)}))
    _, events = run_ticks(eng, 2)
    assert [e.node for e in events].count("goto") == 1  # latched

    reset_tree = expand_text(
        "root: unlatch\nnodes:\n  unlatch: {type: reset, args: {targets: [goto]}}\n")
    resetter = Engine(reset_tree, memory=eng.memory)
    assert resetter.tick()[0] is S
    assert eng.memory[state_key("goto")] is E

    events += run_ticks(eng, 1)[1]
    assert [e.node for e in events].count("goto") == 2  # ticked again


def test_ticks_a_chain_deeper_than_the_recursion_limit():
    depth = 10**5
    chain = [control(f"n{i}", "sequence", [f"n{i + 1}"]) for i in range(depth)]
    eng = Engine(tree(*chain, action(f"n{depth}")))
    result, events = eng.tick()
    assert result is S
    assert len(events) == depth + 1
    assert events[0] == (1, f"n{depth}", S)  # the leaf completes first
    assert events[-1] == (1, "n0", S)
    assert eng.memory[state_key("n0")] is S


@pytest.mark.parametrize("nodes, root, first", [
    ((control("a", "sequence", ["b"]), control("b", "sequence", ["a"])), None, "CYCLE"),
    ((control("a", "sequence", ["b"]), control("b", "sequence", ["c"]),
      control("c", "sequence", ["b"])), None, "MULTIPLE_PARENTS"),
    ((control("a", "parallel", ["b", "b"]), action("b")), None, "MULTIPLE_PARENTS"),
    ((control("a", "sequence", ["ghost"]),), None, "UNRESOLVED_CHILD"),
    ((control("a", "sequnce", ["b"]), action("b")), None, "UNKNOWN_TYPE"),
    ((action("a"),), "ghost", "BAD_ROOT"),
    ((NodeDef("a", "condition"),), None, "BAD_NODE"),
], ids=["through-root", "below-root", "repeated-child", "dangling-child", "unknown-type",
        "undefined-root", "condition-without-if"])
def test_tree_that_would_not_end_a_tick_is_rejected(nodes, root, first):
    """Engine validates a tree that expand_document did not mark, and
    rejects one that fails, naming the first diagnostic."""
    memory = {}
    with pytest.raises(EngineError) as exc:
        Engine(tree(*nodes, root=root), memory=memory)
    assert exc.value.code == "NOT_A_TREE"
    assert f": {first} on " in exc.value.message
    assert memory == {}  # rejected before seeding


def test_trace_event_is_a_plain_tuple():
    event = TraceEvent(2, "a", R)
    assert event == (2, "a", R)
    assert (event.tick, event.node, event.result) == (2, "a", R)
    tick, node, result = event
    assert (tick, node, result) == (2, "a", R)


@pytest.mark.parametrize("name, ticks", [("latch", 4), ("patrol", 6)])
def test_trace_lines_are_the_rendered_events(name, ticks):
    """The CLI writes each tick's trace with ``_lines``: per event, its
    tick, node and state, tab-separated, also for a tick that fails."""
    scenario = parse_scenario((EXAMPLES / f"{name}_scenario.yaml").read_text(encoding="utf-8"))
    eng = Engine(expand_path(EXAMPLES / f"{name}.yaml"), scenario=scenario)
    for _ in range(ticks):
        _, events = eng.tick()
        assert events._lines() == [f"{e.tick}\t{e.node}\t{e.result.value}\n" for e in events]
    eng = Engine(tree(control("s", "sequence", ["a", "c"]), action("a"), condition("c", "y > 1")))
    with pytest.raises(TickError) as exc:
        eng.tick()
    events = exc.value.events
    assert events._lines() == [f"{e.tick}\t{e.node}\t{e.result.value}\n" for e in events]
    assert events._lines() == ["1\ta\tSUCCESS\n"]


def test_render_formats():
    dump = render_memory_dump({"b": 2, "a": True, "c": "x", "d": S})
    assert dump == "a = true\nb = 2\nc = x\nd = SUCCESS"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on integer-to-text conversion")
def test_a_memory_dump_names_the_first_key_it_cannot_write():
    long = 10 ** 4300
    with pytest.raises(DumpError) as exc:
        render_memory_dump({"c": long, "a": 1, "b": -long})
    assert exc.value.render() == ("RUNTIME_ERROR: b: memory value is an integer of more "
                                  "than 4300 digits, too long to write")
    assert render_memory_dump({"a": long - 1}) == f"a = {'9' * 4300}"


# --- per-tick state -------------------------------------------------------

def scripted_star(n):
    """A sequence over n scripted actions that all succeed, so a tick
    visits every node."""
    leaves = [action(f"a{i}") for i in range(n)]
    root = control("root", "sequence", [leaf.name for leaf in leaves])
    return Engine(tree(root, *leaves), scenario=Scenario(
        actions={leaf.name: (S,) for leaf in leaves}))


def test_tick_events_read_like_a_list():
    eng = scripted_star(3)
    eng.tick()
    root, events = eng.tick()
    want = [TraceEvent(2, "a0", S), TraceEvent(2, "a1", S), TraceEvent(2, "a2", S),
            TraceEvent(2, "root", S)]
    assert root is S
    assert list(events) == want
    assert len(events) == 4
    assert [events[i] for i in range(-4, 4)] == want + want
    assert events[1:3] == want[1:3]
    assert list(reversed(events)) == want[::-1]
    assert want[3] in events
    with pytest.raises(IndexError):
        events[4]
    assert not hasattr(eng, "trace")


def test_tick_error_carries_the_events_before_the_failing_node():
    eng = Engine(expand_text("""
root: main
nodes:
  main: {type: sequence, children: [ok, bad, never]}
  ok: {type: action}
  bad: {type: condition, if: 'missing == 1'}
  never: {type: action}
"""))
    with pytest.raises(TickError) as exc:
        eng.tick()
    assert list(exc.value.events) == [TraceEvent(1, "ok", S)]


def test_per_tick_memory_is_bounded():
    eng = scripted_star(5000)
    tracemalloc.start()
    try:
        for _ in range(20):
            eng.tick()
        after_20 = tracemalloc.get_traced_memory()[0]
        for _ in range(180):
            eng.tick()
        after_200 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_200 - after_20 < 4096


def test_a_tick_allocates_no_object_per_node():
    """The young-generation count rises by the same few objects whether a
    tick visits 101 nodes or 5,001. The count also depends on CPython's
    free lists, which the first tick measured may find empty, so each
    size takes the least rise of three ticks."""
    rises = {}
    for n in (100, 5000):
        eng = scripted_star(n)
        counts = []
        for _ in range(3):
            gc.disable()
            try:
                before = gc.get_count()[0]
                outcome = eng.tick()  # kept alive, so no free offsets the count
                counts.append(gc.get_count()[0] - before)
            finally:
                gc.enable()
            assert len(outcome[1]) == n + 1
            del outcome
        rises[n] = min(counts)
    assert rises[100] == rises[5000] <= 8, rises
