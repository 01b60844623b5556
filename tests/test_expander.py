import pytest

from btt import (
    ExpandError,
    ForeachBlock,
    NodeDef,
    TemplateDef,
    ValidationFailure,
    bind_arguments,
    builtin_templates,
    expand_document,
    instantiate,
    parse_document,
    serialize_expanded,
)
from btt.expander import _INSTANCE, _Text, _Unfilled
from util import (BODY_PAYLOAD_LINE, CORPUS_DOCS, EXAMPLES, GOLDEN, LEAF_PAYLOAD_VALUES,
                  body_payload_doc, expand_path, expand_text)

BUILTINS = builtin_templates()
LATCH_DOC = parse_document((EXAMPLES / "latch.yaml").read_text())
USER_LATCH = LATCH_DOC.templates["latch"]


def expand_err(text, builtins=True):
    with pytest.raises((ExpandError, ValidationFailure)) as exc:
        expand_text(text, builtins=builtins)
    return exc.value


def inst(name, type_, children=(), args=None):
    return NodeDef(name=name, type=type_, children=tuple(children), args=args or {})


# --- bind_arguments ------------------------------------------------------

def test_bind_single_node_param():
    assert bind_arguments(USER_LATCH, inst("example", "latch", ["goto"])) == {"child": "goto"}


def test_bind_variadic_nodes_param():
    star = BUILTINS["sequence_star"]
    values = bind_arguments(star, inst("task", "sequence_star", ["a", "b"]))
    assert values == {"children": ("a", "b")}


def test_arity_mismatch():
    e = pytest.raises(ExpandError, bind_arguments, USER_LATCH,
                      inst("x", "latch", ["a", "b"])).value
    assert e.code == "ARITY_MISMATCH"
    star = BUILTINS["sequence_star"]
    e = pytest.raises(ExpandError, bind_arguments, star, inst("x", "sequence_star", [])).value
    assert e.code == "ARITY_MISMATCH"  # a nodes param takes at least one child


def test_scalar_args_defaults_and_errors():
    latch = BUILTINS["latch"]
    values = bind_arguments(latch, inst("x", "latch", ["a"]))
    assert values["remember"] == ("SUCCESS", "FAILURE")  # declared default
    values = bind_arguments(latch, inst("x", "latch", ["a"], args={"remember": ("SUCCESS",)}))
    assert values["remember"] == ("SUCCESS",)

    assert pytest.raises(ExpandError, bind_arguments, latch,
                         inst("x", "latch", ["a"], args={"wat": 1})).value.code == "UNKNOWN_ARG"
    assert pytest.raises(ExpandError, bind_arguments, latch,
                         inst("x", "latch", ["a"], args={"remember": 1})
                         ).value.code == "KIND_MISMATCH"
    assert pytest.raises(ExpandError, bind_arguments, latch,
                         inst("x", "latch", ["a"], args={"child": "y"})
                         ).value.code == "KIND_MISMATCH"

    reset = BUILTINS["reset"]
    assert pytest.raises(ExpandError, bind_arguments, reset,
                         inst("x", "reset")).value.code == "MISSING_ARG"


# --- substitution, one pattern string at a time ---------------------------

def fill(pattern, values, instance="i"):
    """``pattern`` filled as instantiate fills a body text of the instance."""
    return _Text(pattern).fill({**values, _INSTANCE: instance})


def test_substitute_examples():
    b = {"child": "goto"}
    assert fill("__STATE__/$child == SUCCESS", b, "example") == "__STATE__/goto == SUCCESS"
    assert fill("~/saved", b, "example") == "example/saved"
    assert fill("$name/saved", b, "example") == "example/saved"
    assert fill("$child$child", {"child": "a"}) == "aa"
    assert fill("a~b", b, "example") == "aexampleb"
    assert fill("pre/$name/post", b, "example") == "pre/example/post"
    assert fill("$a$b", {"a": "x", "b": "y"}) == "xy"
    typed = {"t": True, "f": False, "n": -3, "r": 0.1}
    assert fill("$t $f $n $r", typed) == "true false -3 0.1"


def test_substitute_is_single_pass():
    # a value containing placeholder syntax is not re-scanned
    assert fill("$x", {"x": "$y", "y": "boom"}) == "$y"


def test_substitute_errors():
    b = {"xs": ("a", "b")}
    for pattern in ("$nope", "$", "ab$", "$1", "$$", "a $@x b"):
        code, message = pytest.raises(_Unfilled, fill, pattern, b).value.args
        assert code == "UNBOUND_PLACEHOLDER"
        assert message.endswith(f", in '{pattern}'")
    code, _ = pytest.raises(_Unfilled, fill, "$xs", b).value.args
    assert code == "LIST_IN_SCALAR_POSITION"
    # instantiate locates the error at the node whose text it fills
    tmpl = parse_document(
        "templates:\n  t:\n    root: c\n    nodes:\n"
        "      c: {type: condition, if: '$nope == 1'}\n"
        "root: x\nnodes:\n  x: {type: t}\n").templates["t"]
    e = pytest.raises(ExpandError, instantiate, tmpl, inst("x", "t"), {"t": tmpl}).value
    assert (e.code, e.subject, e.span.line) == ("UNBOUND_PLACEHOLDER", "x", 5)


# --- foreach blocks and splices, through instantiate ---------------------

def instantiate_text(text):
    """Instantiate the document's root node against its own templates."""
    doc = parse_document(text)
    root = doc.nodes[doc.root]
    return instantiate(doc.templates[root.type], root, doc.templates)


def test_foreach_emitted_names():
    # sequence_star's "wrapped" block emits one latch per child, in order
    nodes = instantiate(BUILTINS["sequence_star"],
                        inst("task", "sequence_star", ["a", "b"]), BUILTINS)
    by_name = {n.name: n for n in nodes}
    assert by_name["task"].children == ("task/latch_0", "task/latch_1", "task/reset")
    assert by_name["task/latch_0"].children == ("task/latch_0/saved", "a")
    assert by_name["task/latch_1"].children == ("task/latch_1/saved", "b")
    assert [n.name for n in nodes] == [
        "task",
        "task/latch_0", "task/latch_0/saved", "task/latch_0/saved/check_0",
        "task/latch_1", "task/latch_1/saved", "task/latch_1/saved/check_0",
        "task/reset", "task/reset/clear_0", "task/reset/clear_1",
    ]


def test_foreach_empty_list():
    nodes = instantiate(BUILTINS["reset"], inst("x", "reset", args={"targets": ()}), BUILTINS)
    assert [(n.name, n.type, n.children) for n in nodes] == [("x", "sequence", ())]


def test_foreach_name_clash():
    with pytest.raises(ExpandError) as exc:
        instantiate_text(
            """
templates:
  t:
    args:
      - {name: xs, kind: scalar-list}
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["$@ws"]
      ws:
        foreach: {list: "$xs", var: c}
        emit: "~/w_$c"
        nodes:
          "~/w_$c": {type: action}
root: a
nodes:
  a: {type: t, args: {xs: [x, x]}}
"""
        )
    assert exc.value.code == "NAME_CLASH"
    assert exc.value.subject == "a/w_x"


def test_foreach_not_a_list():
    with pytest.raises(ExpandError) as exc:
        instantiate_text(
            """
templates:
  t:
    args:
      - {name: x, kind: scalar}
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["$@ws"]
      ws:
        foreach: {list: "$x", var: c}
        emit: "~/w_$c"
        nodes:
          "~/w_$c": {type: action}
root: a
nodes:
  a: {type: t, args: {x: 1}}
"""
        )
    assert exc.value.code == "NOT_A_LIST"
    assert exc.value.subject == "$x"


def test_foreach_hand_built_bad_list_ref():
    # the parser rejects such a block, so only a hand-built template has one
    block = ForeachBlock(list_ref="oops", var="v", emit="e", nodes={})
    tmpl = TemplateDef(name="t", params=(), root="~",
                       body={"~": NodeDef(name="~", type="sequence"), "ws": block})
    with pytest.raises(ExpandError) as exc:
        instantiate(tmpl, inst("i", "t"), {})
    assert exc.value.code == "NOT_A_LIST"
    assert exc.value.subject == "oops"


def test_splice_examples():
    text = """
templates:
  t:
    args:
      - {name: xs, kind: scalar-list}
    root: "~"
    nodes:
      "~":
        type: sequence
        children: [before, "$@ws", "~/after"]
      ws:
        foreach: {list: "$xs", var: c}
        emit: "~/w_$c"
        nodes:
          "~/w_$c": {type: action}
      "~/after": {type: action}
root: a
nodes:
  a: {type: t, args: {xs: [p, q]}}
"""
    nodes = instantiate_text(text)
    assert nodes[0].name == "a"
    assert nodes[0].children == ("before", "a/w_p", "a/w_q", "a/after")
    with pytest.raises(ExpandError) as exc:
        instantiate_text(text.replace('"$@ws"', '"$@nope"'))
    assert exc.value.code == "UNKNOWN_BLOCK"
    assert exc.value.subject == "a"
    assert exc.value.message == "no foreach block named 'nope', in '$@nope'"


# --- instantiate ---------------------------------------------------------

def test_instantiate_latch_reference_template():
    nodes = instantiate(USER_LATCH, inst("example", "latch", ["goto"]), {})
    by_name = {n.name: n for n in nodes}
    assert set(by_name) == {"example", "example/saved"}
    assert by_name["example"].type == "skipper"
    assert by_name["example"].children == ("example/saved", "goto")
    guard = by_name["example/saved"]
    assert guard.type == "condition"
    assert guard.if_ == "__STATE__/goto == SUCCESS || __STATE__/goto == FAILURE"
    assert guard.then == "__STATE__/goto"
    assert guard.else_ == "EMPTY"


def test_instantiate_sequence_star_node_set():
    star = BUILTINS["sequence_star"]
    nodes = instantiate(star, inst("task", "sequence_star", ["a", "b"]), BUILTINS)
    names = [n.name for n in nodes]
    assert len(names) == len(set(names)) == 10
    # wrapped children appear exactly once each, as latch children
    refs = [c for n in nodes for c in n.children]
    assert refs.count("a") == 1 and refs.count("b") == 1
    assert names[0] == "task"  # instance root carries the instance name


def test_recursive_template_rejected():
    e = expand_err(
        """
templates:
  loop:
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/again"]
      "~/again": {type: loop}
root: a
nodes:
  a: {type: loop}
"""
    )
    assert e.code == "RECURSIVE_TEMPLATE"
    assert "loop" in e.chain


def test_mutually_recursive_templates_rejected():
    e = expand_err(
        """
templates:
  ping:
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/x"]
      "~/x": {type: pong}
  pong:
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/y"]
      "~/y": {type: ping}
root: a
nodes:
  a: {type: ping}
"""
    )
    assert e.code == "RECURSIVE_TEMPLATE"


def test_depth_exceeded_with_small_cap():
    # six distinct templates chained; cap of three trips first
    parts = []
    for i in range(6):
        inner = "action}" if i == 5 else f"t{i + 1}}}"
        parts.append(
            f"""
  t{i}:
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/in"]
      "~/in": {{type: {inner.rstrip('}')}}}"""
        )
    text = "templates:" + "".join(parts) + "\nroot: a\nnodes:\n  a: {type: t0}\n"
    doc = parse_document(text)
    with pytest.raises(ExpandError) as exc:
        expand_document(doc, max_depth=3)
    assert exc.value.code == "DEPTH_EXCEEDED"
    expand_document(doc, max_depth=10)  # generous cap is fine


# --- expand_document -----------------------------------------------------

def test_identity_expansion():
    text = "root: a\nnodes:\n  a: {type: action}\n"
    t = expand_text(text)
    assert [n.name for n in t.nodes] == ["a"]
    assert t.nodes[0].result == "SUCCESS"


def test_unknown_type():
    e = expand_err("root: a\nnodes:\n  a: {type: sequnce, children: [a]}\n")
    assert e.code == "UNKNOWN_TYPE"


def test_duplicate_qualified_name():
    # instance "x" produces body node "x/y"; a top-level "x/y" collides
    e = expand_err(
        """
templates:
  t:
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/y"]
      "~/y": {type: action}
root: main
nodes:
  main:
    type: sequence
    children: [x, x/y]
  x: {type: t}
  x/y: {type: action}
"""
    )
    assert e.code == "DUPLICATE_NAME"


def test_document_templates_take_precedence_over_builtins():
    # examples/latch.yaml defines its own simpler latch; 3 nodes, not 5
    t = expand_path(EXAMPLES / "latch.yaml")
    assert len(t.nodes) == 3


def test_templated_node_takes_no_leaf_payload():
    e = expand_err(
        """
root: a
nodes:
  a: {type: reset, args: {targets: [x]}, result: "SUCCESS"}
"""
    )
    assert e.code == "BAD_NODE"


@pytest.mark.parametrize("key", list(LEAF_PAYLOAD_VALUES))
@pytest.mark.parametrize("type_", ["latch", '"$k"'])
def test_templated_node_in_a_body_takes_no_leaf_payload(type_, key):
    """The rule holds for a templated node generated by a template body,
    whether its type is written there or substituted."""
    with pytest.raises(ExpandError) as exc:
        expand_text(body_payload_doc(type_, key))
    e = exc.value
    assert (e.code, e.subject, e.span.line) == ("BAD_NODE", "a/inner", BODY_PAYLOAD_LINE)
    assert e.chain == ("t", "latch")
    assert f"'{key}'" in e.message


# Independent statement of which payload keys each primary kind takes.
KIND_TAKES = {"sequence": (), "selector": (), "skipper": (), "parallel": (),
              "condition": ("if", "then", "else"), "action": ("script", "result")}
PAYLOAD_TEXTS = {"args": "{x: 1}", "if": '"true"', "then": "SUCCESS", "else": "FAILURE",
                 "script": '["x := 1"]', "result": "SUCCESS"}


def test_substituted_type_rejects_mismatched_payload():
    # type arrives via substitution, so only the expander can catch this
    doc = """
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
    cases = [("condition", ", then: SUCCESS", "if")]  # a condition without 'if'
    for kind, takes in KIND_TAKES.items():
        for key, text in PAYLOAD_TEXTS.items():
            if key not in takes:
                needed = ', if: "true"' if kind == "condition" else ""
                cases.append((kind, f", {key}: {text}{needed}", key))
    assert len(cases) == 1 + 4 * 6 + 3 + 4
    for kind, payload, key in cases:
        e = expand_err(doc.format(kind=kind, payload=payload))
        assert isinstance(e, ExpandError), (kind, payload)
        assert (e.code, e.subject, e.span.line) == ("BAD_NODE", "a", 8), (kind, payload)
        assert e.chain == ("t",)
        assert f"'{key}'" in e.message, (kind, payload)


def test_an_empty_payload_key_is_judged_as_written():
    """`script: []` and `args: {}` count as carried wherever the type is not
    written out as a primary kind: substituted, or naming a template, in a
    body or in the document. A substituted action takes `script: []`, as a
    literal one does."""
    doc = """
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
    for kind, payload, key in [("condition", ', if: "true", script: []', "script"),
                               ("sequence", ", children: [~/x], script: []", "script"),
                               ("condition", ', if: "true", args: {}', "args"),
                               ("action", ", args: {}", "args")]:
        e = expand_err(doc.format(kind=kind, payload=payload))
        assert (e.code, e.subject, e.span.line, e.chain) == ("BAD_NODE", "a", 8, ("t",)), kind
        assert e.message == f"a {kind} node takes no '{key}'"
    tree = expand_text(doc.format(kind="action", payload=", script: []"))
    assert tree.nodes[0].script == () and type(tree.nodes[0].script) is tuple

    e = expand_err(body_payload_doc("latch", "script").replace('["y := 2"]', "[]"))
    assert (e.code, e.subject, e.chain) == ("BAD_NODE", "a/inner", ("t", "latch"))
    assert e.message == "a templated node takes no 'script'"
    e = expand_err("root: a\nnodes:\n  a: {type: latch, children: [b], script: []}\n"
                   "  b: {type: action}\n")
    assert (e.code, e.subject, e.message) == ("BAD_NODE", "a", "a templated node takes no 'script'")


def test_invalid_generated_name():
    e = expand_err(
        """
templates:
  t:
    args:
      - {name: label, kind: scalar}
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/k_$label"]
      "~/k_$label": {type: action}
root: a
nodes:
  a: {type: t, args: {label: "no spaces"}}
"""
    )
    assert e.code == "INVALID_NAME"


def test_bad_template_root():
    e = expand_err(
        """
templates:
  t:
    root: "~/nope"
    nodes:
      "~": {type: action}
root: a
nodes:
  a: {type: t}
"""
    )
    assert e.code == "BAD_TEMPLATE_ROOT"


def test_validation_diagnostics_promoted_to_errors():
    e = expand_err("root: a\nnodes:\n  a: {type: sequence, children: [ghost]}\n")
    assert isinstance(e, ValidationFailure)
    assert e.code == "UNRESOLVED_CHILD"
    assert (e.span.line, e.span.column) == (3, 6) == (e.diagnostics[0].span.line,
                                                      e.diagnostics[0].span.column)


@pytest.mark.parametrize("max_depth", [0, -1, 257, 5000])
def test_a_max_depth_outside_1_to_256_is_a_value_error(max_depth):
    doc = parse_document("root: a\nnodes:\n  a: {type: action}\n")
    with pytest.raises(ValueError, match="max_depth must be from 1 to 256"):
        expand_document(doc, max_depth=max_depth)
    tmpl = TemplateDef("t", (), {"~": NodeDef("~", "action")}, "~")
    with pytest.raises(ValueError, match="max_depth must be from 1 to 256"):
        instantiate(tmpl, NodeDef("a", "t"), {"t": tmpl}, max_depth=max_depth)
    for cap in (1, 256):
        assert [nd.name for nd in expand_document(doc, max_depth=cap).nodes] == ["a"]
        assert [nd.name for nd in instantiate(tmpl, NodeDef("a", "t"), {"t": tmpl},
                                              max_depth=cap)] == ["a"]


# --- laws ----------------------------------------------------------------

@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.name)
def test_determinism_and_idempotence(path):
    outs = {serialize_expanded(expand_path(path)) for _ in range(3)}
    assert len(outs) == 1
    out = outs.pop()
    again = expand_document(parse_document(out), builtins=BUILTINS)
    assert serialize_expanded(again) == out


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.name)
def test_prefix_property(path):
    doc = parse_document(path.read_text())
    t = expand_document(doc, builtins=BUILTINS)
    top = set(doc.nodes)
    for nd in t.nodes:
        if nd.name in top:
            continue
        assert any(nd.name.startswith(name + "/") for name in top), nd.name


def test_compositionality_hand_inlined_latch_matches_nested():
    # sequence_star's body uses latch; inlining latch's definition by hand
    # must yield a byte-identical expansion
    inlined = """
templates:
  seq_star_inline:
    args:
      - {name: children, kind: nodes}
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["$@wrapped", "~/reset"]
      wrapped:
        foreach: {list: "$children", var: c}
        emit: "~/latch_$i"
        nodes:
          "~/latch_$i":
            type: skipper
            children: ["~/latch_$i/saved", "$c"]
          "~/latch_$i/saved":
            type: skipper
            children: ["~/latch_$i/saved/check_0"]
          "~/latch_$i/saved/check_0":
            type: condition
            if: "__STATE__/$c == SUCCESS"
            then: "__STATE__/$c"
            else: "EMPTY"
      "~/reset":
        type: reset
        args: {targets: "$children"}
root: task
nodes:
  task: {type: seq_star_inline, children: [a, b]}
  a: {type: action}
  b: {type: action}
"""
    got = serialize_expanded(expand_text(inlined))
    assert got == (GOLDEN / "sequence_star_expanded.yaml").read_text()
