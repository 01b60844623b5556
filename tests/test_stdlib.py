import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btt import (
    Engine,
    ReturnState,
    Scenario,
    builtin_templates,
    parse_templates,
    shadowed_builtins,
    state_key,
)
from oracles import oracle_selector_star, oracle_sequence_star, oracle_star_with_counts
from util import TEMPLATES, expand_text, run_ticks

S, F, R, E = (ReturnState.SUCCESS, ReturnState.FAILURE,
              ReturnState.RUNNING, ReturnState.EMPTY)


def test_registry_contents():
    reg = builtin_templates()
    assert sorted(reg) == ["latch", "reset", "selector_star", "sequence_star"]
    latch = reg["latch"]
    assert [(p.name, p.kind) for p in latch.params] == [
        ("child", "node"), ("remember", "scalar-list")]
    # the remember default is text, not ReturnState: args are never coerced
    assert latch.params[1].default == ("SUCCESS", "FAILURE")
    star = reg["sequence_star"]
    assert [(p.name, p.kind) for p in star.params] == [("children", "nodes")]


def test_shipped_files_define_their_templates():
    paths = sorted(TEMPLATES.glob("*.yaml"))
    for path in paths:
        assert list(parse_templates(path.read_text(encoding="utf-8"))) == [path.stem], path
    assert set(builtin_templates()) == {path.stem for path in paths}


def test_shadowed_builtins():
    assert shadowed_builtins(["latch", "mine"]) == ["latch"]
    assert shadowed_builtins([]) == []


def test_builtin_latch_expansion_shape():
    t = expand_text("""
root: keep
nodes:
  keep: {type: latch, children: [goto]}
  goto: {type: action}
""")
    by_name = t.by_name()
    assert by_name["keep"].type == "skipper"
    assert by_name["keep"].children == ("keep/saved", "goto")
    guard = by_name["keep/saved"]
    assert guard.type == "skipper"
    assert guard.children == ("keep/saved/check_0", "keep/saved/check_1")
    check0 = by_name["keep/saved/check_0"]
    assert check0.if_ == "__STATE__/goto == SUCCESS"
    assert check0.then == "__STATE__/goto"
    assert check0.else_ == "EMPTY"
    assert by_name["keep/saved/check_1"].if_ == "__STATE__/goto == FAILURE"


def test_reset_single_target_is_two_nodes():
    t = expand_text("""
root: clearer
nodes:
  clearer: {type: reset, args: {targets: [goto]}}
""")
    assert len(t.nodes) == 2
    by_name = t.by_name()
    assert by_name["clearer"].type == "sequence"
    assert by_name["clearer/clear_0"].script == ("__STATE__/goto := EMPTY",)


# --- oracles: frozen hand-simulated rows ----------------------------------

def test_oracle_sequence_star_rows():
    assert oracle_sequence_star([[S], [S]], 2) == [S, S]  # restarts after reset
    assert oracle_sequence_star([[R, S], [S]], 3) == [R, S, S]
    assert oracle_sequence_star([[F, S]], 2) == [F, S]
    # counts: tick 3 restarts, so child 1 is consumed three times
    results, counts = oracle_star_with_counts("sequence", [[R, S], [S]], 3)
    assert results == [R, S, S]
    assert counts == [3, 2]


def test_oracle_selector_star_rows():
    assert oracle_selector_star([[F]], 2) == [F, F]
    assert oracle_selector_star([[F], [S]], 1) == [S]
    assert oracle_selector_star([[R], [S]], 1) == [R]


# --- template/oracle equivalence ------------------------------------------

def star_tree(kind, n):
    children = ", ".join(f"c{i}" for i in range(n))
    lines = [f"root: task", "nodes:",
             f"  task: {{type: {kind}_star, children: [{children}]}}"]
    for i in range(n):
        lines.append(f"  c{i}: {{type: action}}")
    return expand_text("\n".join(lines) + "\n")


def run_star(tree, names, scripts, ticks):
    eng = Engine(tree, scenario=Scenario(
        actions={names[i]: tuple(scripts[i]) for i in range(len(names))}))
    results, events = run_ticks(eng, ticks)
    counts = [sum(1 for e in events if e.node == name) for name in names]
    return results, counts


@pytest.mark.parametrize("kind", ["sequence", "selector"])
def test_star_template_equals_oracle_small_sweep(kind):
    # quick version of the full acceptance sweep: 2 children, scripts of
    # length <= 2 over {S, F, R}, 4 ticks
    tree = star_tree(kind, 2)
    names = ["c0", "c1"]
    scripts = [list(p) for k in (1, 2) for p in itertools.product((S, F, R), repeat=k)]
    for s0, s1 in itertools.product(scripts, repeat=2):
        want = oracle_star_with_counts(kind, [s0, s1], 4)
        got = run_star(tree, names, [s0, s1], 4)
        assert got == tuple(want), (kind, s0, s1)


_script = st.lists(st.sampled_from([S, F, R]), min_size=1, max_size=4)


@given(scripts=st.lists(_script, min_size=1, max_size=3), data=st.data())
def test_latch_retick_property(scripts, data):
    """Once a child's state falls in the remember set, no further events for
    that child appear until its __STATE__ key is reset."""
    n = len(scripts)
    names = [f"c{i}" for i in range(n)]
    tree = star_tree("sequence", n)
    eng = Engine(tree, scenario=Scenario(
        actions={names[i]: tuple(scripts[i]) for i in range(n)}))
    _, events = run_ticks(eng, 6)
    assert events
    # replay the trace: after a child SUCCESS, the only legal next event for
    # it comes after its reset action ran in some tick
    remembered = {}
    for e in events:
        if e.node in remembered and remembered[e.node]:
            raise AssertionError(f"{e.node} ticked while remembered")
        if e.node.endswith("/reset"):
            remembered = {}
        if e.node in names and e.result is S:
            remembered[e.node] = True


def test_reset_only_clears_its_targets():
    tree = expand_text("""
root: unlatch
nodes:
  unlatch: {type: reset, args: {targets: [a, b]}}
""")
    memory = {state_key("a"): S, state_key("b"): F, state_key("other"): R, "x": 7}
    eng = Engine(tree, memory=memory)
    eng.tick()
    assert memory[state_key("a")] is E
    assert memory[state_key("b")] is E
    assert memory[state_key("other")] is R
    assert memory["x"] == 7
