import dataclasses
import math
import random
import time
from dataclasses import replace

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from btt import (
    BttError,
    CanonicalizeError,
    Document,
    Engine,
    EngineError,
    ExpandedTree,
    ForeachBlock,
    NodeDef,
    ParamDecl,
    ParseError,
    ReturnState,
    Scenario,
    SchemaError,
    SourceSpan,
    TemplateDef,
    builtin_templates,
    expand_document,
    parse_document,
    parse_scenario,
    parse_templates,
    serialize_expanded,
    textio,
)
from btt.cli import main
from oracles import reference_typed_scalar
from util import (
    CORPUS,
    CORPUS_DOCS,
    EXAMPLES,
    GOLDEN,
    TEMPLATES,
    action,
    condition,
    control,
    expand_path,
    mutate,
    needs_libyaml,
    tree,
)

LATCH_DOC = (EXAMPLES / "latch.yaml").read_text()


def schema_err(text):
    with pytest.raises(SchemaError) as exc:
        parse_document(text)
    return exc.value


# --- parse_document ------------------------------------------------------

def test_reference_document():
    doc = parse_document(LATCH_DOC)
    assert list(doc.templates) == ["latch"]
    latch = doc.templates["latch"]
    assert latch.params == (ParamDecl("child", "node", None),)
    assert latch.root == "~"
    assert list(latch.body) == ["~", "~/saved"]
    assert list(doc.nodes) == ["example", "goto"]
    assert doc.root == "example"
    assert doc.nodes["example"].children == ("goto",)
    # action default applied at parse
    assert doc.nodes["goto"].result == "SUCCESS"
    # source spans attached
    assert doc.nodes["goto"].span.line > 0
    assert latch.span.line > 0


def test_condition_defaults():
    doc = parse_document("root: c\nnodes:\n  c: {type: condition, if: 'true'}\n")
    nd = doc.nodes["c"]
    assert nd.then == "SUCCESS"
    assert nd.else_ == "FAILURE"


def test_empty_input_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_document("")
    with pytest.raises(ParseError):
        parse_document("   \n# only a comment\n")


def test_type_resolution_is_deferred_to_the_expander():
    doc = parse_document("root: a\nnodes:\n  a: {type: sequnce, children: [a]}\n")
    assert doc.nodes["a"].type == "sequnce"


def test_schema_errors():
    assert schema_err("root: a\nnodes: {a: {type: action}}\nextra: 1\n").code == "SCHEMA_ERROR"
    assert schema_err("root: a\nnodes: {a: {type: action, wat: 1}}\n").code == "SCHEMA_ERROR"
    assert schema_err("nodes: {a: {type: action}}\n").code == "SCHEMA_ERROR"  # missing root
    assert schema_err("root: b\nnodes: {a: {type: action}}\n").code == "SCHEMA_ERROR"
    # bad param kind
    bad_kind = """
templates:
  t:
    args:
      - {name: x, kind: scalars}
    root: "~"
    nodes:
      "~": {type: action}
root: a
nodes:
  a: {type: action}
"""
    assert "scalars" in schema_err(bad_kind).message
    # default on a node-kind param
    bad_default = bad_kind.replace("kind: scalars", "kind: node, default: z")
    assert schema_err(bad_default).code == "SCHEMA_ERROR"
    # template name colliding with a primary kind
    shadow_kind = """
templates:
  sequence:
    root: "~"
    nodes:
      "~": {type: action}
root: a
nodes:
  a: {type: action}
"""
    assert schema_err(shadow_kind).code == "SCHEMA_ERROR"
    # condition without if
    assert schema_err("root: a\nnodes: {a: {type: condition}}\n").code == "SCHEMA_ERROR"
    # args on a literal primary kind
    assert schema_err("root: a\nnodes: {a: {type: action, args: {x: 1}}}\n").code == "SCHEMA_ERROR"


# A document that uses every fixed-key mapping but the scenario; each case
# below edits it once, by replacing the first occurrence of a text.
_FIXED_KEYS = """\
templates:
  t:
    args: [{name: xs, kind: scalar-list}]
    root: "~"
    nodes:
      "~": {type: sequence, children: ["$@b"]}
      b: {foreach: {list: "$xs", var: s}, emit: "~/c$i", nodes: {"~/c$i": {type: action}}}
root: a
nodes:
  a: {type: t, args: {xs: [1]}}
"""
_TEMPLATE_NODES = _FIXED_KEYS[_FIXED_KEYS.index("    nodes:"):_FIXED_KEYS.index("root: a")]


@pytest.mark.parametrize("old, new, located", [
    ("{type: t,", "{type: t, zz: 1,", "10:16: SCHEMA_ERROR: a: unknown key 'zz' in node"),
    ("{type: t, ", "{", "10:6: SCHEMA_ERROR: a: node is missing 'type'"),
    ("{type: action}}}", "{type: action, zz: 1}}}",
     "7:90: SCHEMA_ERROR: ~/c$i: unknown key 'zz' in node"),
    ("{type: action}}}", "{type: action, if: 'true'}}}",
     "7:90: SCHEMA_ERROR: ~/c$i: unknown key 'if' in action node"),
    ("[1]}}\n", "[1]}}\nzz: 1\n", "11:1: SCHEMA_ERROR: zz: unknown key 'zz' in document"),
    ("root: a\n", "", "1:1: SCHEMA_ERROR: root: document is missing 'root'"),
    ("root: a", "root: b", "8:7: SCHEMA_ERROR: b: root 'b' does not name a defined node"),
    ('root: "~"\n', 'root: "~"\n    zz: 1\n', "5:5: SCHEMA_ERROR: t: unknown key 'zz' in template"),
    ('    root: "~"\n', "", "3:5: SCHEMA_ERROR: t: template is missing 'root'"),
    (_TEMPLATE_NODES, "", "3:5: SCHEMA_ERROR: t: template is missing 'nodes'"),
    ("scalar-list}", "scalar-list, zz: 1}",
     "3:42: SCHEMA_ERROR: t: unknown key 'zz' in arg declaration"),
    ("{name: xs, ", "{", "3:12: SCHEMA_ERROR: t: arg declaration is missing 'name'"),
    (", kind: scalar-list", "", "3:12: SCHEMA_ERROR: t: arg declaration is missing 'kind'"),
    ("b: {", "b: {zz: 1, ", "7:11: SCHEMA_ERROR: b: unknown key 'zz' in foreach block"),
    (', emit: "~/c$i"', "", "7:10: SCHEMA_ERROR: b: foreach block is missing 'emit'"),
    (', nodes: {"~/c$i": {type: action}}', "",
     "7:10: SCHEMA_ERROR: b: foreach block is missing 'nodes'"),
    ("var: s}", "var: s, zz: 1}", "7:42: SCHEMA_ERROR: b: unknown key 'zz' in foreach"),
    ('list: "$xs", ', "", "7:20: SCHEMA_ERROR: b: foreach is missing 'list'"),
    (", var: s}", "}", "7:20: SCHEMA_ERROR: b: foreach is missing 'var'"),
], ids=["node-unknown", "node-missing-type", "body-node-unknown", "body-node-payload",
        "document-unknown", "document-missing-root", "root-undefined", "template-unknown",
        "template-missing-root", "template-missing-nodes", "arg-unknown", "arg-missing-name",
        "arg-missing-kind", "block-unknown", "block-missing-emit", "block-missing-nodes",
        "foreach-unknown", "foreach-missing-list", "foreach-missing-var"])
def test_fixed_key_errors_are_located(tmp_path, capsys, old, new, located):
    """A key that a fixed mapping does not take is reported at the key; a
    required key it lacks, at the mapping; a root naming no node, at the root."""
    assert old in _FIXED_KEYS
    path = tmp_path / "doc.yaml"
    path.write_text(_FIXED_KEYS.replace(old, new, 1), encoding="utf-8")
    assert main(["expand", str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}:{located}\n")


def test_top_level_unknown_keys_are_located(tmp_path, capsys):
    doc, scenario = tmp_path / "doc.yaml", tmp_path / "s.yaml"
    doc.write_text(_FIXED_KEYS, encoding="utf-8")
    scenario.write_text("memory: {k: 1}\nzz: 1\n", encoding="utf-8")
    assert main(["run", str(doc), "--scenario", str(scenario)]) == 2
    assert capsys.readouterr() == ("", f"{scenario}:2:1: SCHEMA_ERROR: zz: "
                                       "unknown key 'zz' in scenario\n")
    with pytest.raises(SchemaError) as exc:
        parse_templates("templates: {}\nbogus: 1\n")
    assert exc.value.span == SourceSpan(2, 1)
    assert exc.value.render() == "SCHEMA_ERROR: bogus: unknown key 'bogus' in templates document"


@pytest.mark.parametrize("text, error, span", [
    ("templates:\n  t: {root: a}\n", SchemaError, (2, 6)),
    ("templates: [\n", ParseError, (2, 1)),
])
def test_errors_in_a_named_templates_text_carry_its_name(text, error, span):
    with pytest.raises(error) as exc:
        parse_templates(text, source="btt:templates/t.yaml")
    assert exc.value.span == SourceSpan(*span, "btt:templates/t.yaml")


def test_yaml_features_are_rejected():
    anchored = "root: a\nnodes:\n  a: &x {type: action}\n"
    assert schema_err(anchored).message.startswith("YAML anchors")
    assert schema_err(anchored).span == SourceSpan(3, 6)  # each is located at its first one
    aliased = "root: a\nnodes:\n  a: &x {type: action}\n  b: *x\n"
    assert "not supported" in schema_err(aliased).message
    merge = "root: a\nnodes:\n  a: {<<: {type: action}}\n"
    assert "merge keys" in schema_err(merge).message
    multi = "---\nroot: a\nnodes: {a: {type: action}}\n---\nroot: b\nnodes: {}\n"
    assert "multi-document" in schema_err(multi).message
    assert schema_err(multi).span == SourceSpan(4, 1)
    assert schema_err("- just\n- a list\n").code == "SCHEMA_ERROR"
    assert schema_err("root: a\nroot: b\nnodes: {a: {type: action}}\n").code == "SCHEMA_ERROR"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_document("root: a\nnodes:\n  a: {type: action\n")
    assert exc.value.span is not None


def test_scalar_argument_typing():
    doc = parse_document(
        """
root: a
nodes:
  a:
    type: some_template
    args: {flag: true, count: 3, ratio: 2.5, word: hello, quoted: "7", state: SUCCESS}
"""
    )
    args = doc.nodes["a"].args
    assert args["flag"] is True
    assert args["count"] == 3
    assert args["ratio"] == 2.5
    assert args["word"] == "hello"
    assert args["quoted"] == "7"  # quoting keeps it text
    assert args["state"] == "SUCCESS"  # states are NOT auto-converted in args


def test_parse_templates_fragment():
    templates = parse_templates(
        """
templates:
  one:
    root: "~"
    nodes:
      "~": {type: action}
"""
    )
    assert list(templates) == ["one"]
    with pytest.raises(SchemaError):
        parse_templates("root: a\n")
    with pytest.raises(ParseError) as exc:
        parse_templates("")
    assert (exc.value.code, exc.value.message) == ("PARSE_ERROR", "templates document is empty")


# --- serialize_expanded --------------------------------------------------

def test_single_action_tree_is_exactly_four_lines():
    out = serialize_expanded(tree(action("a")))
    assert out == "root: a\nnodes:\n  a:\n    type: action\n"


def test_latch_golden_file():
    got = serialize_expanded(expand_path(EXAMPLES / "latch.yaml"))
    assert got == (GOLDEN / "latch_expanded.yaml").read_text()


def test_sequence_star_golden_file():
    got = serialize_expanded(expand_path(EXAMPLES / "sequence_star.yaml"))
    assert got == (GOLDEN / "sequence_star_expanded.yaml").read_text()


def test_canonical_output_has_no_residue():
    for path in CORPUS_DOCS:
        out = serialize_expanded(expand_path(path))
        assert "$" not in out
        assert "~" not in out


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.name)
def test_round_trip_and_fixpoint(path):
    t = expand_path(path)
    out = serialize_expanded(t)
    reparsed = expand_document(parse_document(out))
    # identity expansion reproduces the same node set and the same bytes
    assert reparsed.root == t.root
    assert reparsed.by_name() == t.by_name()
    assert serialize_expanded(reparsed) == out


def test_round_trip_survives_awkward_strings():
    t = tree(
        control("s", "sequence", ["a", "c"]),
        action("a", script=("msg := 'a: b #c'", "n := 1"), result="RUNNING"),
        condition("c", "x == 'a\tb'"),  # a control character is written JSON-escaped
    )
    out = serialize_expanded(t)
    assert """    if: "x == 'a\\tb'"\n""" in out
    back = expand_document(parse_document(out))
    assert back.by_name() == t.by_name()
    assert serialize_expanded(back) == out


def test_serialize_rejects_invalid_trees():
    from btt import CanonicalizeError

    with pytest.raises(CanonicalizeError):
        serialize_expanded(tree(action("a", children=("b",)), action("b")))
    # payload the writer could not write, or would drop
    for nd in (NodeDef("a", "condition", then="SUCCESS", else_="FAILURE"),
               action("a", if_="x"), condition("a", "true", script=()),
               NodeDef("a", "action", then="SUCCESS")):
        with pytest.raises(CanonicalizeError) as exc:
            serialize_expanded(tree(nd))
        assert exc.value.message == "tree fails validation: BAD_NODE on 'a'"
    # a leaf built without its optional keys carries their defaults, which the writer omits
    assert serialize_expanded(tree(NodeDef("a", "condition", if_="x == 1"))) == (
        "root: a\nnodes:\n  a:\n    type: condition\n    if: x == 1\n")
    assert serialize_expanded(tree(NodeDef("a", "action"))) == (
        "root: a\nnodes:\n  a:\n    type: action\n")


def test_serialize_writes_a_list_script_as_its_tuple():
    """A hand-built script may be any sequence: a list is written as the
    tuple with the same lines is, and an empty one is left out."""
    for lines in ([], ["x := 1"], ["x := 1", "msg := 'a: b'"]):
        as_list = tree(action("a", script=lines, result="RUNNING"))
        as_tuple = tree(action("a", script=tuple(lines), result="RUNNING"))
        assert serialize_expanded(as_list) == serialize_expanded(as_tuple)


def test_serialize_trusts_only_trees_that_expand_document_validated():
    t = expand_path(EXAMPLES / "sequence_star.yaml")
    assert t.validated
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.root = "nowhere"
    # a copy, or a tree built by hand, is validated again when it is written
    for other in (replace(t, root="nowhere"), ExpandedTree(t.nodes, "nowhere")):
        assert not other.validated
        with pytest.raises(CanonicalizeError) as exc:
            serialize_expanded(other)
        assert exc.value.code == "CANONICALIZE_ERROR"
        assert exc.value.message == "tree fails validation: BAD_ROOT on 'nowhere'"
    with pytest.raises(CanonicalizeError):
        serialize_expanded(replace(t, nodes=t.nodes + t.nodes[-1:]))
    assert serialize_expanded(replace(t)) == serialize_expanded(t)


def test_a_refused_tree_carries_its_first_diagnostics_span():
    """The writer and the engine share one gate: an unmarked tree that fails
    validation is refused, located where its first diagnostic is."""
    t = expand_path(EXAMPLES / "sequence_star.yaml")
    copied = replace(t, nodes=t.nodes + t.nodes[-1:])  # DUPLICATE_NAME at the copy
    for make, error, code in ((serialize_expanded, CanonicalizeError, "CANONICALIZE_ERROR"),
                              (Engine, EngineError, "NOT_A_TREE")):
        with pytest.raises(error) as exc:
            make(copied)
        assert (exc.value.code, exc.value.subject) == (code, None)
        assert exc.value.message == ("tree fails validation: DUPLICATE_NAME "
                                     f"on '{t.nodes[-1].name}'")
        assert exc.value.span == t.nodes[-1].span is not None


# --- parse_scenario ------------------------------------------------------

def test_scenario_actions_and_memory():
    sc = parse_scenario("actions: {goto: [RUNNING, RUNNING, SUCCESS]}\n")
    assert sc.actions["goto"] == (
        ReturnState.RUNNING, ReturnState.RUNNING, ReturnState.SUCCESS)
    sc2 = parse_scenario("memory: {battery: 42}\n")
    assert sc2.memory == {"battery": 42}
    assert sc2.actions == {}


def test_scenario_unknown_state():
    with pytest.raises(SchemaError) as exc:
        parse_scenario("actions: {goto: [OK]}\n")
    assert exc.value.code == "UNKNOWN_STATE"


def test_scenario_empty_script_rejected():
    with pytest.raises(SchemaError):
        parse_scenario("actions: {goto: []}\n")


def test_empty_scenario_is_fine():
    sc = parse_scenario("")
    assert sc.memory == {} and sc.actions == {}


def test_parsing_is_total_on_junk():
    junk = [
        "{{{{", "\x00\x01\x02", "a: [1, {b: *x}]", "!!python/object:os.system",
        "\t\tmixed\n  indent: [", "root: [", "%YAML 1.2\n%", "a" * 5000,
        "root: a\ud800\n",
    ]
    for text in junk:
        try:
            parse_document(text)
        except BttError:
            pass


# --- both YAML parsers ---------------------------------------------------

LOADER_CASES = (
    test_scalar_argument_typing,
    test_yaml_features_are_rejected,
    test_parse_error_carries_position,
    test_parsing_is_total_on_junk,
)


@pytest.mark.parametrize("case", LOADER_CASES, ids=lambda case: case.__name__[5:])
def test_loader_cases(case, yaml_loader):
    case()


# Seconds a rejection of deep input may take. PyYAML's own parser looks up
# to 1,024 characters ahead for a possible simple key and rescans every open
# one per token, so a run of brackets costs it about 0.9 s however long the
# run is (CPython 3.11; 1.5 s on 3.10). libyaml needs a few milliseconds.
DEEP_BUDGET = {"CSafeLoader": 1.0, "SafeLoader": 3.0}


def _raises_fast(loader, parse, text):
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse(text)
    elapsed = time.perf_counter() - t0
    assert elapsed < DEEP_BUDGET[loader.__name__], f"took {elapsed:.2f}s"
    return exc.value


@pytest.mark.parametrize("brackets", [10**5, 10**6])
def test_deep_flow_nesting_is_a_fast_parse_error(yaml_loader, brackets):
    err = _raises_fast(yaml_loader, parse_document, "a: " + "[" * brackets)
    assert err.code == "PARSE_ERROR"
    assert err.message == "document is nested too deeply"
    # the mapping is level 1, so the bracket that opens level MAX_NESTING + 1
    assert err.span == SourceSpan(1, 3 + textio.MAX_NESTING)


def test_deep_scenario_is_a_fast_parse_error(yaml_loader):
    err = _raises_fast(yaml_loader, parse_scenario, "memory: " + "[" * 10**5)
    assert err.code == "PARSE_ERROR"
    assert err.message == "scenario is nested too deeply"
    assert err.span == SourceSpan(1, 8 + textio.MAX_NESTING)


def test_nesting_cap_is_exact(yaml_loader):
    cap = textio.MAX_NESTING
    with pytest.raises(SchemaError) as exc:  # parses; a list is not a document
        parse_document("[" * cap + "]" * cap)
    assert exc.value.message == "document must be a mapping"
    with pytest.raises(ParseError) as exc:
        parse_document("[" * (cap + 1) + "]" * (cap + 1))
    assert exc.value.span == SourceSpan(1, cap + 1)
    block = "".join(" " * depth + "-\n" for depth in range(cap + 1))
    with pytest.raises(ParseError) as exc:
        parse_document(block)
    assert exc.value.span == SourceSpan(cap + 1, cap + 1)


def _spans(value):
    """The source spans of a parse result, which == does not compare."""
    if isinstance(value, dict):
        return [(key, _spans(item)) for key, item in value.items()]
    if isinstance(value, Document):
        return [_spans(value.templates), _spans(value.nodes)]
    if isinstance(value, Scenario):
        return []
    if isinstance(value, TemplateDef):
        return [value.span, _spans(value.body)]
    if isinstance(value, ForeachBlock):
        return [value.span, _spans(value.nodes)]
    return value.span


def _flat_spans(spans):
    if isinstance(spans, list):
        return [span for item in spans for span in _flat_spans(item)]
    if isinstance(spans, tuple):  # (key, spans)
        return _flat_spans(spans[1])
    return [spans]


def test_builtin_spans_name_their_file():
    """Spans parsed from a builtin carry ``btt:templates/<file>``; a
    document's spans carry no source and compare as before."""
    for name, tmpl in builtin_templates().items():
        path = TEMPLATES / f"{name}.yaml"
        spans = _flat_spans(_spans(tmpl))
        plain = _flat_spans(_spans(parse_templates(path.read_text(encoding="utf-8"))[name]))
        assert len(spans) > 1 and {span.source for span in spans} == {f"btt:templates/{path.name}"}
        assert [(s.line, s.column) for s in spans] == [(s.line, s.column) for s in plain]
        assert {span.source for span in plain} == {None}
    doc = parse_document("root: a\nnodes:\n  a: {type: action}\n")
    assert doc.nodes["a"].span == SourceSpan(3, 6) == SourceSpan(3, 6, None)
    assert SourceSpan(3, 6) != SourceSpan(3, 6, "btt:templates/latch.yaml")


def _parse_with(monkeypatch, loader, parse, text):
    monkeypatch.setattr(textio, "_LOADER", loader)
    try:
        return parse(text)
    except BttError as exc:
        return exc


def _assert_same_result(a, b):
    assert a == b
    assert repr(a) == repr(b)  # also tells True from 1 and "1" from 1
    assert _spans(a) == _spans(b)


SHIPPED_YAML = (sorted(CORPUS.glob("*.yaml")) + sorted(EXAMPLES.glob("*.yaml"))
                + sorted(TEMPLATES.glob("*.yaml")))


def _shipped_id(path):
    # the builtin templates are labelled by the set they form (--no-stdlib)
    group = "stdlib" if path.parent == TEMPLATES else path.parent.name
    return f"{group}/{path.name}"


def _parser_for(path):
    if path.parent == TEMPLATES:
        return parse_templates
    if path.stem.endswith("_scenario"):
        return parse_scenario
    return parse_document


# The kind of node each event that _compose keeps as a node stands for
_NODE_KIND = {yaml.ScalarEvent: yaml.ScalarNode, yaml.SequenceStartEvent: yaml.SequenceNode,
              yaml.MappingStartEvent: yaml.MappingNode}


def _node_tree(node, tag=lambda node: node.tag):
    """Everything yaml.compose records about a node, recursively, read from
    one of its nodes or from the event tree _compose makes. A plain scalar's
    style is None, as PyYAML gives it (libyaml gives '')."""
    kind = _NODE_KIND.get(type(node), type(node))
    marks = (node.start_mark.line, node.start_mark.column,
             node.end_mark.line, node.end_mark.column)
    if kind is yaml.ScalarNode:
        return (tag(node), marks, node.style or None, node.value)
    if kind is yaml.SequenceNode:
        return (tag(node), marks, node.flow_style, [_node_tree(n, tag) for n in node.value])
    return (tag(node), marks, node.flow_style,
            [(_node_tree(k, tag), _node_tree(v, tag)) for k, v in node.value])


_RESOLVER = yaml.resolver.Resolver()


def _typed_tag(node):
    """The tag of a node of _compose's event tree, resolved as typing
    resolves it: a tag the text gave stands; an absent one or "!" is the
    resolver's, from the scalar's value when it is plain."""
    if node.tag is not None and node.tag != "!":
        return node.tag
    plain = not getattr(node, "style", None) or node.tag == "!"
    return _RESOLVER.resolve(_NODE_KIND[type(node)], node.value, (plain, not plain))


@pytest.mark.parametrize("path", SHIPPED_YAML, ids=_shipped_id)
def test_compose_matches_pyyaml_composer(yaml_loader, path):
    """_compose leaves tags to typing; with them resolved, its event tree
    records what PyYAML's composer's node tree does."""
    text = path.read_text(encoding="utf-8")
    expected = _node_tree(yaml.compose(text, Loader=yaml.SafeLoader))
    assert _node_tree(textio._compose(text, "document"), _typed_tag) == expected


def test_syntax_error_beats_unsupported_features(yaml_loader):
    for text in ("root: &x a\nnodes: [\n", "a: *x\nb: [\n", "a: 1\n---\nb: [\n"):
        with pytest.raises(ParseError):
            parse_document(text)


@needs_libyaml
@pytest.mark.parametrize("path", SHIPPED_YAML, ids=_shipped_id)
def test_loaders_agree_on_shipped_files(monkeypatch, path):
    parse, text = _parser_for(path), path.read_text(encoding="utf-8")
    c = _parse_with(monkeypatch, yaml.CSafeLoader, parse, text)
    pure = _parse_with(monkeypatch, yaml.SafeLoader, parse, text)
    assert not isinstance(c, BttError), c
    _assert_same_result(c, pure)


@needs_libyaml
def test_loaders_agree_on_mutants(monkeypatch):
    """Criterion-8 style mutants: each loader ends in a Document or a
    BttError (anything else fails the test), and where both accept, the
    Documents are the same."""
    rng = random.Random(8)
    bases = [p.read_text() for p in CORPUS_DOCS]
    both = 0
    for _ in range(2_000):
        text = mutate(rng, rng.choice(bases))
        c = _parse_with(monkeypatch, yaml.CSafeLoader, parse_document, text)
        pure = _parse_with(monkeypatch, yaml.SafeLoader, parse_document, text)
        if isinstance(c, Document) and isinstance(pure, Document):
            _assert_same_result(c, pure)
            both += 1
    assert both > 100


# libyaml and PyYAML's own parser accept slightly different YAML. These are
# the known differences, with today's verdict from each: "ok" or the error
# code. An upgrade of either parser that changes one shows up here.
DIALECT_DIFFERENCES = [
    ("tab before a flow mapping key",
     "root: a\nnodes: {a: {\ttype: action}}\n", "ok", "PARSE_ERROR"),
    ("tab after a block key",
     "root:\t a\nnodes: {a: {type: action}}\n", "ok", "PARSE_ERROR"),
    ("tab after a flow key",
     "root: a\nnodes:\n  a: {type:\taction}\n", "ok", "PARSE_ERROR"),
    ("? inside a flow plain scalar",
     "root: a\nnodes: {a: {type: a?tion}}\n", "ok", "PARSE_ERROR"),
    ("empty value before , in a flow mapping",
     "root: a\nnodes:\n  a: {type:, children: [b]}\n  b: {type: action}\n",
     "PARSE_ERROR", "ok"),
]


def _verdict(result):
    return result.code if isinstance(result, BttError) else "ok"


@pytest.mark.parametrize("text,libyaml,pure",
                         [case[1:] for case in DIALECT_DIFFERENCES],
                         ids=[case[0] for case in DIALECT_DIFFERENCES])
def test_dialect_differences_are_pinned(monkeypatch, text, libyaml, pure):
    assert _verdict(_parse_with(monkeypatch, yaml.SafeLoader, parse_document, text)) == pure
    if yaml.__with_libyaml__:
        assert _verdict(_parse_with(monkeypatch, yaml.CSafeLoader, parse_document, text)) == libyaml


# --- YAML typing -----------------------------------------------------------

# The three positions that take a typed scalar: the text of a document or
# scenario with the scalar at {}, how to parse it, where the value lands,
# the path to the scalar among the YAML mappings and lists, and the name an
# error gives it.
TYPED_POSITIONS = {
    "memory seed": ("memory:\n  k: {}\n", parse_scenario, lambda r: r.memory["k"],
                    ("memory", "k"), "memory value for 'k'"),
    "template arg": ("root: a\nnodes:\n  a:\n    type: t\n    args:\n      x: {}\n",
                     parse_document, lambda d: d.nodes["a"].args["x"],
                     ("nodes", "a", "args", "x"), "argument 'x'"),
    "arg default": ("templates:\n  t:\n    args:\n      - name: x\n        kind: scalar\n"
                    "        default: {}\n    root: \"~\"\n    nodes:\n"
                    "      \"~\": {{type: action}}\nroot: a\nnodes:\n  a: {{type: t}}\n",
                    parse_document, lambda d: d.templates["t"].params[0].default,
                    ("templates", "t", "args", 0, "default"), "default"),
}


def _typed(position, scalar):
    """The value a typed position reads from ``scalar``, or the error."""
    text, parse, value, _, _ = TYPED_POSITIONS[position]
    try:
        return value(parse(text.format(scalar)))
    except BttError as exc:
        return exc


_TEXT = object()  # the scalar's own text
TYPING_TABLE = [
    ("0", 0), ("-0", 0), ("+5", 5), ("007", 7), ("0o7", _TEXT), ("0x1F", 31), ("0b101", 5),
    ("1_000", 1000), ("1:30", 90), ("-1:30", -90), ("1e3", _TEXT), ("1.5e3", _TEXT),
    ("0.", 0.0), ("+.5", _TEXT), (".inf", math.inf), (".nan", math.nan), ("true", True),
    ("yes", True), ("On", True), ("y", _TEXT), ("~", _TEXT), ("null", _TEXT), ("'5'", "5"),
    ("!!int 5", 5), ("!!str 5", "5"), ("! 5", 5), ("!!bool maybe", "a boolean"),
    ("!!int 0x_", "an integer of at most 4300 digits"), ("1" * 4300, int("1" * 4300)),
    ("1" * 4301, "an integer of at most 4300 digits"),
]


@pytest.mark.parametrize("position", TYPED_POSITIONS)
@pytest.mark.parametrize("scalar,expected", TYPING_TABLE,
                         ids=[s if len(s) < 20 else f"{len(s)} ones" for s, _ in TYPING_TABLE])
def test_yaml_typing_table(yaml_loader, position, scalar, expected):
    got = _typed(position, scalar)
    what = TYPED_POSITIONS[position][4]
    if isinstance(expected, str) and expected.startswith(("a ", "an ")):
        assert isinstance(got, SchemaError)
        assert (got.code, got.message) == ("SCHEMA_ERROR", f"{what} is not {expected}")
        return
    if expected is _TEXT:
        expected = scalar
    assert type(got) is type(expected) and repr(got) == repr(expected)


@pytest.mark.parametrize("name", ["123", "true", "1_000", "0x1F", ".inf", "yes", "~"])
def test_names_are_taken_verbatim(name):
    """Names are text: a node name or a memory key that YAML would type
    is kept as written, and one outside the name alphabet is refused."""
    doc = f"root: '{name}'\nnodes:\n  {name}: {{type: action}}\n"
    scenario = f"memory:\n  {name}: 1\n"
    if name == "~":
        assert schema_err(doc).message == "invalid node name '~'"
        with pytest.raises(SchemaError, match="invalid memory key '~'"):
            parse_scenario(scenario)
        return
    assert list(parse_document(doc).nodes) == [name]
    assert parse_scenario(scenario).memory == {name: 1}


@pytest.mark.parametrize("name", ["123", "1_000", "0x1F", ".inf"])
def test_arg_names_that_yaml_would_type_are_refused(name):
    declared = (f"templates:\n  t:\n    args:\n      - {{name: {name}, kind: scalar}}\n"
                f"    root: \"~\"\n    nodes:\n      \"~\": {{type: action}}\n"
                f"root: a\nnodes:\n  a: {{type: action}}\n")
    assert schema_err(declared).message == f"invalid arg name '{name}'"
    given = f"root: a\nnodes:\n  a: {{type: t, args: {{{name}: 1}}}}\n"
    assert schema_err(given).message == f"invalid argument name '{name}'"


def _composed_scalar(text, loader, path):
    node = yaml.compose(text, Loader=loader)
    for step in path:
        if isinstance(step, int):
            node = node.value[step]
        else:
            node = next(v for k, v in node.value if k.value == step)
    return node


_PLAIN_SCALARS = st.one_of(
    st.text(alphabet="0123456789+-_:.exob", min_size=1, max_size=10),
    st.sampled_from(["true", "false", "True", "FALSE", "yes", "No", "on", "OFF", "y", "n",
                     "null", "Null", "~", ".inf", "-.Inf", ".NaN"]))


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scalar=_PLAIN_SCALARS)
@pytest.mark.parametrize("position", TYPED_POSITIONS)
def test_yaml_typing_matches_the_reference(yaml_loader, position, scalar):
    """Each typed position gives what the front end gave when composition
    resolved every tag (tests/oracles.py): the same value and type, or the
    same error and span."""
    text, _, _, path, what = TYPED_POSITIONS[position]
    text = text.format(scalar)
    try:
        node = _composed_scalar(text, yaml_loader, path)
    except yaml.YAMLError:
        return  # not one scalar there: the scalar's own typing is not involved
    if not isinstance(node, yaml.ScalarNode):
        return
    try:
        expected = reference_typed_scalar(node, what)
    except SchemaError as exc:
        expected = exc
    got = _typed(position, scalar)
    if isinstance(expected, SchemaError):
        assert isinstance(got, SchemaError), (scalar, got)
        assert (got.code, got.message, got.span) == (expected.code, expected.message,
                                                     expected.span)
    else:
        assert type(got) is type(expected) and repr(got) == repr(expected), scalar
