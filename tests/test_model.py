import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btt import (
    BttError,
    CanonicalizeError,
    Diagnostic,
    Engine,
    EngineError,
    ExpandedTree,
    NodeDef,
    ReturnState,
    SourceSpan,
    diagnostic_render,
    parse_document,
    render_memory_dump,
    serialize_expanded,
    validate_expanded,
    value_text,
    values_equal,
)
from btt.model import _preorder
from oracles import reference_validate_expanded
from util import (CORPUS_DOCS, ODD, SCALARS, EqRaises, HashRaises, Text, action, condition,
                  control, expand_path, expand_text, tree)


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


@given(a=SCALARS, b=SCALARS)
def test_value_equality_reflexive_and_symmetric(a, b):
    assert values_equal(a, a)
    assert values_equal(a, b) == values_equal(b, a)


def test_values_of_one_tag_compare_by_value_whatever_their_class():
    """values_equal takes any value: a str subclass is text to it."""
    class Sub(str):
        pass

    assert values_equal(Sub("a"), "a")
    assert not values_equal(Sub("a"), "b")


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


def test_each_repeated_entry_is_one_duplicate_name_and_the_first_entry_counts():
    x = action("x")
    # the second x lists the same object again; the third x, a selector over
    # y, would give y a second parent if it counted
    t = tree(control("r", "sequence", ["x", "y"]), x, action("y"), x, action("y"),
             control("x", "selector", ["y"]))
    assert [(d.code, d.node) for d in validate_expanded(t)] == [
        ("DUPLICATE_NAME", "x"), ("DUPLICATE_NAME", "y"), ("DUPLICATE_NAME", "x")]


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
    """A hand-built leaf that leaves an optional key unset carries its
    default: it is complete and valid, as its YAML would be."""
    cases = [
        (NodeDef("c", "condition", if_="true"), ("true", "SUCCESS", "FAILURE", None, None)),
        (NodeDef("c", "condition", if_="true", then="RUNNING"),
         ("true", "RUNNING", "FAILURE", None, None)),
        (NodeDef("c", "action", script=()), (None, None, None, (), "SUCCESS")),
        (NodeDef("c", "action", script=None, result="FAILURE"),
         (None, None, None, (), "FAILURE")),
    ]
    for nd, fields in cases:
        assert (nd.if_, nd.then, nd.else_, nd.script, nd.result) == fields
        assert validate_expanded(tree(nd)) == []
    # a control node, a template's node and a type that is not exactly text fill nothing
    for type_ in ("sequence", "latch", "$k", Text("action"), ["action"]):
        nd = NodeDef("c", type_)
        assert (nd.if_, nd.then, nd.else_, nd.script, nd.result) == (None,) * 5


def test_a_hand_built_leaf_is_the_node_its_yaml_parses_to():
    for text, nd in [("{type: action}", NodeDef("a", "action")),
                     ("{type: condition, if: 'x == 1'}", NodeDef("a", "condition", if_="x == 1"))]:
        assert parse_document(f"root: a\nnodes:\n  a: {text}\n").nodes == {"a": nd}


# Each leaf kind's optional fields and their defaults, written out here
# rather than read from btt.model; each row's values are valid for its field.
_OPTIONAL = {
    "condition": {"then": "SUCCESS", "else_": "FAILURE"},
    "action": {"script": (), "result": "SUCCESS"},
}
_WRITTEN = {"then": ["SUCCESS", "FAILURE", "RUNNING"], "else_": ["SUCCESS", "FAILURE", "RUNNING"],
            "result": ["SUCCESS", "FAILURE", "RUNNING"],
            "script": [(), [], ("n := 1",), ["n := 1", "m := n + 1"]]}


@settings(max_examples=200)
@given(data=st.data(), kind=st.sampled_from(sorted(_OPTIONAL)))
def test_a_leaf_built_with_any_optional_keys_unset_is_complete(data, kind):
    """Leaving any subset of a leaf's optional keys unset builds the node
    written with those keys at their defaults; the validator, the writer
    and the engine over three ticks all accept it."""
    defaults = _OPTIONAL[kind]
    unset = data.draw(st.sets(st.sampled_from(sorted(defaults))), label="unset")
    written = {fld: data.draw(st.sampled_from(_WRITTEN[fld]), label=fld)
               for fld in sorted(defaults) if fld not in unset}
    if kind == "condition":
        written["if_"] = "true"
    nd = NodeDef("a", kind, **written)
    full = NodeDef("a", kind, **written, **{fld: defaults[fld] for fld in unset})
    assert nd == full
    t = tree(nd)
    assert validate_expanded(t) == []
    assert serialize_expanded(t) == serialize_expanded(tree(full))
    engine = Engine(t)
    for _ in range(3):
        engine.tick()


def test_an_empty_payload_is_carried_as_the_written_key_is():
    """A payload key is carried exactly when its field is not None: an empty
    script on a hand-built condition, a tuple or a list, and empty args on a
    hand-built sequence, are refused as written YAML is once its type is
    substituted."""
    written = """
templates:
  t:
    args:
      - {{name: k, kind: scalar}}
    root: "~"
    nodes:
      "~": {{type: "$k"{payload}}}
root: a
nodes:
  a: {{type: t, args: {{k: {kind}}}}}
"""
    b = action("b")
    for nd, kind, payload, key in [
            (condition("a", "true", script=()), "condition", ', if: "true", script: []', "script"),
            (condition("a", "true", script=[]), "condition", ', if: "true", script: []', "script"),
            (NodeDef("a", "sequence", children=("b",), args={}), "sequence",
             ", children: [b], args: {}", "args")]:
        message = f"a {kind} node takes no '{key}'"
        t = tree(nd, *([b] if nd.children else []))
        assert validate_expanded(t) == [Diagnostic("BAD_NODE", "a", message)]
        assert validate_expanded(t) == reference_validate_expanded(t)
        with pytest.raises(BttError) as exc:
            expand_text(written.format(kind=kind, payload=payload) + "  b: {type: action}\n")
        assert (exc.value.code, exc.value.subject, exc.value.message) == ("BAD_NODE", "a", message)
    # without the key the same nodes validate
    assert validate_expanded(tree(condition("a", "true"))) == []
    assert validate_expanded(tree(NodeDef("a", "sequence", children=("b",)), b)) == []


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
    order = _preorder(t)
    assert sorted(order) == sorted(nd.name for nd in t.nodes)
    assert len(order) == len(set(order))
    assert order[0] == t.root


# --- validation against the reference -----------------------------------

# Small pools, so that names repeat, children dangle or point back, and a
# text or a name now and then carries residue.
_NAMES = ["a", "b", "c", "d", "e", "f$", "g~"]
_TYPES = ["sequence", "selector", "skipper", "parallel", "action", "condition",
          "latch", "se$q", "sel~"]
_TEXTS = st.sampled_from([None, "", "true", "SUCCESS", "x == $y", "a~b", "n := 1"])
_SCRIPTS = st.sampled_from([(), [], ("n := 1",), ("n := 1", "m := $k"), None, ("a~b",)])
_ARGS = st.sampled_from([{}, [], {"k": 1}, None])


@st.composite
def _node(draw, name=None, type_=None, children=None):
    return NodeDef(
        name=draw(st.sampled_from(_NAMES)) if name is None else name,
        type=draw(st.sampled_from(_TYPES)) if type_ is None else type_,
        children=(tuple(draw(st.lists(st.sampled_from(_NAMES + ["zz"]), max_size=3)))
                  if children is None else children),
        args=draw(_ARGS), if_=draw(_TEXTS), then=draw(_TEXTS), else_=draw(_TEXTS),
        script=draw(_SCRIPTS), result=draw(_TEXTS))


@st.composite
def _soup(draw):
    """Anything: random names, kinds, payloads and links."""
    nodes = draw(st.lists(_node(), max_size=7))
    if nodes and draw(st.booleans()):  # the same NodeDef object listed twice
        nodes.insert(draw(st.integers(0, len(nodes))), draw(st.sampled_from(nodes)))
    root = draw(st.sampled_from(_NAMES + ["missing"]))
    return ExpandedTree(tuple(nodes), root)


@st.composite
def _mostly_tree(draw):
    """A well-formed tree, then a few edits: an extra link, a lost node, a
    stray payload key or residue, a new root."""
    n = draw(st.integers(1, 8))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    children = [[j for j in range(n) if parents[j] == i] for i in range(n)]
    names = [f"n{i}" for i in range(n)]
    nodes = []
    for i in range(n):
        if children[i]:
            kind = draw(st.sampled_from(_TYPES[:4]))
            nodes.append(NodeDef(names[i], kind, tuple(names[j] for j in children[i])))
        elif draw(st.booleans()):
            nodes.append(action(names[i], result=draw(st.sampled_from(["SUCCESS", "x"]))))
        else:
            nodes.append(condition(names[i], draw(st.sampled_from(["true", "y < 2"]))))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(nodes) - 1))
        edit = draw(st.sampled_from(["link", "drop", "payload", "swap"]))
        if edit == "link":
            extra = draw(st.sampled_from(names + ["zz"]))
            nodes[i] = replace(nodes[i], children=nodes[i].children + (extra,))
        elif edit == "drop" and len(nodes) > 1:
            del nodes[i]
        elif edit == "payload":
            nodes[i] = draw(_node(name=nodes[i].name, type_=nodes[i].type,
                                  children=nodes[i].children))
        elif edit == "swap":
            nodes.append(draw(_node()))
    root = draw(st.sampled_from(["n0", "n0", draw(st.sampled_from(names + ["missing"]))]))
    return ExpandedTree(tuple(nodes), root)


@settings(max_examples=600)
@given(t=st.one_of(_soup(), _mostly_tree()))
def test_validation_matches_the_reference(t):
    assert validate_expanded(t) == reference_validate_expanded(t)
    # the message and the order too, not only what Diagnostic compares
    assert ([diagnostic_render(d) for d in validate_expanded(t)]
            == [diagnostic_render(d) for d in reference_validate_expanded(t)])


# Any value where a tree holds text or a sequence: a scalar, None, or a
# value of a class no field may hold (see util.ODD); names and kinds that
# resolve now and then, so that some trees are valid and get ticked.
_ANY = st.one_of(st.none(), SCALARS, ODD)
_LISTS = st.lists(st.sampled_from(["a", "b", "sequence"]), max_size=2)
_ANY_NAME = st.one_of(st.sampled_from(["a", "b", "c"]), _ANY, _LISTS)
_ANY_TEXT = st.one_of(st.sampled_from(["true", "SUCCESS", "x == 1", "n := 1"]), _ANY)
_ANY_FIELD = {
    "name": _ANY_NAME, "type": st.one_of(st.sampled_from(_TYPES[:6]), _ANY, _LISTS),
    # children and a script may also be a lone name or text, or any value
    "children": st.one_of(st.lists(_ANY_NAME, max_size=3).map(tuple), _ANY_NAME),
    "if_": _ANY_TEXT, "then": _ANY_TEXT, "else_": _ANY_TEXT, "result": _ANY_TEXT,
    "script": st.one_of(st.lists(_ANY_TEXT, max_size=2).map(tuple), _ANY_TEXT),
}


@st.composite
def _any_node(draw):
    """A well-formed node with up to three fields drawn again from anything."""
    name = draw(st.sampled_from(["a", "b", "c"]))
    nd = draw(st.sampled_from([action(name), condition(name, "x == 1"),
                               control(name, "sequence", ["b"])]))
    for fld in draw(st.lists(st.sampled_from(sorted(_ANY_FIELD)), max_size=3)):
        nd = replace(nd, **{fld: draw(_ANY_FIELD[fld])})
    return nd


@st.composite
def _any_tree(draw):
    """Nodes in a tuple or a list, now and then with one entry or the whole
    container drawn from anything instead, and now and then a root drawn
    like a name."""
    nodes = draw(st.lists(_any_node(), min_size=1, max_size=4))
    edit = draw(st.sampled_from(["tuple", "tuple", "list", "entry", "container"]))
    if edit == "entry":
        nodes[draw(st.integers(0, len(nodes) - 1))] = draw(_ANY)
    if edit == "container":
        nodes = draw(_ANY)
    root = draw(st.booleans().flatmap(lambda odd: _ANY_NAME if odd else st.just("a")))
    return ExpandedTree(nodes if edit in ("list", "container") else tuple(nodes), root)


@settings(max_examples=600)
@given(t=_any_tree())
def test_values_that_are_not_text_are_classified(t):
    """A field or container of any class is judged, never a crash: a value
    of a class the table does not allow is BAD_NODE or BAD_ROOT; the writer
    and the engine refuse or run the tree with a BttError at worst, and a
    refused engine leaves the memory it was given as it was."""
    diags = validate_expanded(t)
    assert diags == reference_validate_expanded(t)
    assert ([diagnostic_render(d) for d in diags]
            == [diagnostic_render(d) for d in reference_validate_expanded(t)])
    assert all(type(d.node) is str for d in diags)
    memory = {"m": 1}
    try:
        serialize_expanded(t)
    except BttError:
        pass
    try:
        engine = Engine(t, memory=memory)
    except BttError:
        assert memory == {"m": 1}
        return
    try:
        for _ in range(3):
            engine.tick()
        render_memory_dump(memory)
    except BttError:
        pass


@settings(max_examples=400)
@given(fields=st.fixed_dictionaries({"type": _ANY_FIELD["type"], **{
    fld: st.one_of(st.none(), SCALARS, ODD, _LISTS)
    for fld in ("name", "children", "args", "if_", "then", "else_", "script", "result")}}))
def test_a_nodedef_is_built_from_any_field_values(fields):
    """Building a NodeDef never raises; it fills a field only when the type
    is exactly the text of a leaf kind and the field is None."""
    nd = NodeDef(**fields)
    fills = _OPTIONAL.get(fields["type"], {}) if type(fields["type"]) is str else {}
    for fld, given_value in fields.items():
        if given_value is None and fld in fills:
            assert getattr(nd, fld) == fills[fld]
        else:
            assert getattr(nd, fld) is given_value


def test_a_non_text_name_payload_or_script_line_is_bad_node():
    """A tree with a value of a class its slot may not hold gets only its
    class diagnostics: one BAD_NODE for each such node, naming its first
    faulty field, at its name if that is text and else at its place."""
    cases = [(NodeDef(1, "action", script=(), result="SUCCESS"), "nodes[0]",
              "the name must be text, not int"),
             (NodeDef("a", "action", script=(), result=ReturnState.SUCCESS), "a",
              "'result' must be text, not ReturnState"),
             (NodeDef("a", "condition", if_=True, then="SUCCESS", else_="FAILURE"), "a",
              "'if' must be text, not bool"),
             (NodeDef("a", "action", script=("n := 1", None), result="SUCCESS"), "a",
              "a 'script' line must be text, not NoneType"),
             # a kind or a child that is not text is a class fault too
             (NodeDef("a", 1), "a", "the type must be text, not int"),
             (control("a", "sequence", [1]), "a", "a child must be text, not int"),
             (NodeDef("a", 1, children=(2,), result=3), "a", "'result' must be text, not int")]
    for nd, node, message in cases:
        t = ExpandedTree((nd,), "a")
        assert validate_expanded(t) == [Diagnostic("BAD_NODE", node, message)]
        assert validate_expanded(t) == reference_validate_expanded(t)


def test_a_name_type_child_or_root_that_cannot_be_hashed_is_judged_not_a_crash():
    """Such a value is of a class its slot may not hold, so the tree gets
    only its class diagnostics, and the writer and the engine refuse it as
    invalid. A root that is not text is BAD_ROOT at ``root``. Classes are
    compared exactly, so a str subclass is not text, and no name is hashed
    or compared before it is judged."""
    b = action("b")
    cases = [(ExpandedTree((control("a", "sequence", ["b"]), b, action(["b"])), "a"),
              [("BAD_NODE", "nodes[2]", "the name must be text, not list")]),
             *((ExpandedTree((action(name),), "a"),
                [("BAD_NODE", "nodes[0]", f"the name must be text, not {type(name).__name__}")])
               for name in (HashRaises("a"), EqRaises(), Text("a"))),
             (ExpandedTree((NodeDef("a", ["x"]),), "a"),
              [("BAD_NODE", "a", "the type must be text, not list")]),
             (ExpandedTree((control("a", "sequence", ["b", ["b"]]), b), "a"),
              [("BAD_NODE", "a", "a child must be text, not list")]),
             (ExpandedTree((control("a", "sequence", ["b"]), b), ["a"]),
              [("BAD_ROOT", "root", "the root must be text, not list")])]
    for t, want in cases:
        diags = validate_expanded(t)
        assert [(d.code, d.node, d.message) for d in diags] == want
        assert diags == reference_validate_expanded(t)
        with pytest.raises(CanonicalizeError, match="CANONICALIZE_ERROR"):
            serialize_expanded(t)
        with pytest.raises(EngineError, match="NOT_A_TREE"):
            Engine(t)


def test_children_or_a_script_that_is_not_a_sequence_is_bad_node():
    """A text is not iterated as its characters, and the tree gets no
    other diagnostic."""
    b = action("b")
    cases = [(NodeDef("a", "sequence", children=None),
              "'children' must be a sequence of text, not NoneType"),
             (NodeDef("a", "sequence", children="b"),
              "'children' must be a sequence of text, not str"),
             (NodeDef("a", "action", script=5, result="SUCCESS"),
              "'script' must be a sequence of text, not int"),
             (NodeDef("a", "action", script="x := 1", result="SUCCESS"),
              "'script' must be a sequence of text, not str")]
    for nd, message in cases:
        t = ExpandedTree((nd, b), "a")
        diags = validate_expanded(t)
        assert diags == [Diagnostic("BAD_NODE", "a", message)]
        assert diags == reference_validate_expanded(t)
        with pytest.raises(EngineError, match="NOT_A_TREE"):
            Engine(t)


def test_nodes_that_are_not_a_sequence_of_nodedefs_are_bad_node():
    """The container is named ``nodes``, an entry that is no NodeDef by its
    place; no node can have either name, since a name has no brackets."""
    cases = [(ExpandedTree(None, "a"),
              [("BAD_NODE", "nodes", "'nodes' must be a sequence of NodeDef, not NoneType")]),
             (ExpandedTree((None,), "a"),
              [("BAD_NODE", "nodes[0]", "a node must be a NodeDef, not NoneType")]),
             (ExpandedTree((action("a"), "a"), 1),
              [("BAD_NODE", "nodes[1]", "a node must be a NodeDef, not str"),
               ("BAD_ROOT", "root", "the root must be text, not int")]),
             (ExpandedTree(("a",), "a"),
              [("BAD_NODE", "nodes[0]", "a node must be a NodeDef, not str")])]
    for t, want in cases:
        diags = validate_expanded(t)
        assert [(d.code, d.node, d.message) for d in diags] == want
        assert diags == reference_validate_expanded(t)
        with pytest.raises(CanonicalizeError, match="CANONICALIZE_ERROR"):
            serialize_expanded(t)
        with pytest.raises(EngineError, match="NOT_A_TREE"):
            Engine(t)


@settings(max_examples=600)
@given(t=st.one_of(_soup(), _mostly_tree()))
def test_every_diagnostic_is_located_at_the_node_it_names(t):
    """Each node gets its own span. A duplicate name is located at its
    later copy, the root naming no node nowhere, and every other
    diagnostic at the first node of the name it names."""
    nodes = tuple(replace(nd, span=SourceSpan(i + 1, 1)) for i, nd in enumerate(t.nodes))
    diags = validate_expanded(ExpandedTree(nodes, t.root))
    first, copies = {}, []
    for nd in nodes:
        if nd.name in first:
            copies.append(nd.span)
        first.setdefault(nd.name, nd)
    assert [d.span for d in diags if d.code == "DUPLICATE_NAME"] == copies
    for d in diags:
        if d.code == "BAD_ROOT":
            assert d.span is None
        elif d.code != "DUPLICATE_NAME":
            assert d.span == first[d.node].span, d


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.name)
def test_expanded_documents_validate_as_the_reference_does(path):
    t = expand_path(path)
    assert validate_expanded(t) == reference_validate_expanded(t) == []
