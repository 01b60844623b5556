import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btt import (
    Diagnostic,
    NodeDef,
    ReturnState,
    diagnostic_render,
    dfs_preorder,
    validate_expanded,
    value_text,
    values_equal,
    with_leaf_defaults,
)
from util import CORPUS_DOCS, action, condition, control, expand_path, tree


def codes(diags):
    return [d.code for d in diags]


def test_return_state_is_four_distinct_values():
    states = list(ReturnState)
    assert len(states) == 4
    assert len(set(states)) == 4
    for a, b in itertools.product(states, repeat=2):
        assert (a == b) == (a is b)


def test_cross_tag_equality_is_false_not_an_error():
    assert not values_equal(True, 1)
    assert not values_equal(1, 1.0)
    assert not values_equal("SUCCESS", ReturnState.SUCCESS)
    assert not values_equal(0, False)
    assert not values_equal("1", 1)
    assert values_equal(1, 1)
    assert values_equal("x", "x")


scalar_values = st.one_of(
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=4),
    st.sampled_from(list(ReturnState)),
)


@given(a=scalar_values, b=scalar_values)
def test_value_equality_reflexive_and_symmetric(a, b):
    assert values_equal(a, a)
    assert values_equal(a, b) == values_equal(b, a)


def test_value_text_canonical_forms():
    assert value_text(True) == "true"
    assert value_text(False) == "false"
    assert value_text(42) == "42"
    assert value_text(2.5) == "2.5"
    assert value_text(ReturnState.EMPTY) == "EMPTY"
    assert value_text("as written") == "as written"
    # shortest round-trip floats
    assert float(value_text(0.1)) == 0.1


def test_minimal_valid_tree():
    assert validate_expanded(tree(action("a"))) == []


def test_unresolved_child_reported_at_parent():
    t = tree(control("main", "sequence", ["goto"]), action("other"), root="main")
    diags = validate_expanded(t)
    assert [(d.code, d.node) for d in diags if d.code == "UNRESOLVED_CHILD"] == [
        ("UNRESOLVED_CHILD", "main")
    ]


def test_multiple_parents_matches_reference_count_oracle():
    # independent oracle: count parent references by scanning children lists
    t = tree(
        control("p", "sequence", ["a", "q"]),
        control("q", "sequence", ["a"]),
        action("a"),
        root="p",
    )
    counts = {}
    for nd in t.nodes:
        for c in nd.children:
            counts[c] = counts.get(c, 0) + 1
    expected = sorted(name for name, n in counts.items() if n > 1)
    got = sorted(d.node for d in validate_expanded(t) if d.code == "MULTIPLE_PARENTS")
    assert got == expected == ["a"]


def test_duplicate_name():
    t = tree(action("x"), action("x"))
    assert "DUPLICATE_NAME" in codes(validate_expanded(t))


def test_cycle_reported_at_back_edge_target():
    t = tree(
        control("a", "sequence", ["b"]),
        control("b", "sequence", ["a"]),
        root="a",
    )
    diags = validate_expanded(t)
    lines = [diagnostic_render(d) for d in diags]
    assert any(line.startswith("CYCLE: a:") for line in lines)


def test_leaf_and_control_child_rules():
    bad_leaf = tree(action("a", children=("b",)), action("b"))
    assert "LEAF_WITH_CHILDREN" in codes(validate_expanded(bad_leaf))
    bad_control = tree(control("s", "sequence", []))
    assert "CONTROL_WITHOUT_CHILDREN" in codes(validate_expanded(bad_control))


def test_leaf_payload_rules():
    """A leaf must carry its required keys and nothing its kind does not
    take; a control node carries no payload at all."""
    cases = {
        "condition without if": NodeDef("c", "condition", then="SUCCESS", else_="FAILURE"),
        "action with if": action("c", if_="x"),
        "condition with script": condition("c", "true", script=("x := 1",)),
        "sequence with result": NodeDef("c", "sequence", children=("a",), result="SUCCESS"),
        "parallel with args": NodeDef("c", "parallel", children=("a",), args={"x": 1}),
    }
    for label, nd in cases.items():
        t = tree(nd, *([action("a")] if nd.children else []))
        assert [(d.code, d.node) for d in validate_expanded(t)] == [("BAD_NODE", "c")], label
    ok = tree(control("s", "sequence", ["c", "a"]), condition("c", "true", then="RUNNING"),
              action("a", script=("x := 1",), result="FAILURE"))
    assert validate_expanded(ok) == []


def test_leaf_without_its_defaults():
    """A hand-built leaf that never went through with_leaf_defaults is
    BAD_NODE; the engine and the writer would trip over its None fields."""
    cases = [
        (NodeDef("c", "condition", if_="true"), "a condition node has no 'then'"),
        (NodeDef("c", "condition", if_="true", then="SUCCESS"), "a condition node has no 'else'"),
        (NodeDef("c", "action"), "a action node has no 'result'"),
        (NodeDef("c", "action", script=None, result="SUCCESS"), "a action node has no 'script'"),
    ]
    for nd, message in cases:
        assert validate_expanded(tree(nd)) == [Diagnostic("BAD_NODE", "c", message)]
        assert validate_expanded(tree(with_leaf_defaults(nd))) == []


def test_unsubstituted_placeholder():
    t = tree(control("main", "sequence", ["$child"]))
    assert "UNSUBSTITUTED_PLACEHOLDER" in codes(validate_expanded(t))
    t2 = tree(action("~/saved"))
    assert "UNSUBSTITUTED_PLACEHOLDER" in codes(validate_expanded(t2))


def test_bad_root():
    t = tree(action("a"), root="main")
    assert [(d.code, d.node) for d in validate_expanded(t)] == [("BAD_ROOT", "main")]


def test_unknown_type_in_hand_built_tree():
    t = tree(NodeDef(name="a", type="latch"))
    assert "UNKNOWN_TYPE" in codes(validate_expanded(t))


def test_unreachable_node():
    t = tree(action("a"), action("orphan"), root="a")
    diags = validate_expanded(t)
    assert [(d.code, d.node) for d in diags] == [("UNREACHABLE", "orphan")]


def test_validation_is_pure():
    t = tree(
        control("p", "sequence", ["a", "q", "ghost"]),
        control("q", "sequence", ["a"]),
        action("a"),
        root="p",
    )
    assert validate_expanded(t) == validate_expanded(t)


def test_diagnostic_render_format():
    assert (
        diagnostic_render(Diagnostic("DUPLICATE_NAME", "x", "node name defined more than once"))
        == "DUPLICATE_NAME: x: node name defined more than once"
    )
    assert (
        diagnostic_render(Diagnostic("BAD_ROOT", "main", "root does not name a defined node"))
        == "BAD_ROOT: main: root does not name a defined node"
    )


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.name)
def test_dfs_visits_every_node_exactly_once(path):
    t = expand_path(path)
    order = dfs_preorder(t)
    assert sorted(order) == sorted(nd.name for nd in t.nodes)
    assert len(order) == len(set(order))
    assert order[0] == t.root
