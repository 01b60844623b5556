"""Differential test: ``btt.expand_document`` against the reference expander
in ``oracles.py``, which re-scans every pattern string per instance. Both
must give the same tree (nodes, spans and root) or the same error (class,
code, message, subject, span, chain and diagnostics) on every shipped
document, the benchmark workloads' quick documents, criterion-8 mutants and
seeded generated template documents with injected faults."""

import itertools
import json
import random
import sys
from dataclasses import replace

import pytest

from btt import (
    BttError,
    Document,
    ForeachBlock,
    NodeDef,
    ParamDecl,
    TemplateDef,
    builtin_templates,
    expand_document,
    parse_document,
)
from oracles import reference_expand_document
from util import CORPUS_DOCS, REPO, mutate

sys.path.insert(0, str(REPO / "bench"))
import workloads  # noqa: E402  (bench/workloads.py)

BUILTINS = builtin_templates()

# Every code the expander raises itself; ValidationFailure codes come from
# validate_expanded, which both expanders share.
EXPANDER_CODES = {
    "ARITY_MISMATCH", "BAD_NODE", "BAD_TEMPLATE_ROOT", "DEPTH_EXCEEDED", "DUPLICATE_NAME",
    "INVALID_NAME", "KIND_MISMATCH", "LIST_IN_SCALAR_POSITION", "MISSING_ARG", "NAME_CLASH",
    "NOT_A_LIST", "RECURSIVE_TEMPLATE", "UNBOUND_PLACEHOLDER", "UNKNOWN_ARG", "UNKNOWN_BLOCK",
    "UNKNOWN_TYPE",
}


def outcome(expand, doc, max_depth=64):
    try:
        tree = expand(doc, builtins=BUILTINS, max_depth=max_depth)
    except BttError as exc:
        return ("error", type(exc).__name__, exc.code, exc.message, exc.subject, exc.span,
                getattr(exc, "chain", None), getattr(exc, "diagnostics", None))
    return ("tree", tree.root, tree.nodes, [nd.span for nd in tree.nodes])


def assert_same(doc, max_depth=64):
    """Expand ``doc`` with both expanders; return the new one's outcome."""
    new = outcome(expand_document, doc, max_depth)
    assert new == outcome(reference_expand_document, doc, max_depth)
    return new


def parsed(text):
    try:
        return parse_document(text)
    except BttError:
        return None


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.name)
def test_shipped_documents(path):
    assert assert_same(parse_document(path.read_text(encoding="utf-8")))[0] == "tree"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_quick_documents(name):
    doc = parse_document(workloads.make(name, 1, quick=True).document)
    assert assert_same(doc)[0] == "tree"


def test_criterion_8_mutants():
    rng = random.Random(8)  # the same draws as criterion 8's first 3,000
    bases = [p.read_text() for p in CORPUS_DOCS]
    kinds = {"tree": 0, "error": 0}
    for _ in range(3_000):
        doc = parsed(mutate(rng, rng.choice(bases)))
        if doc is not None:
            kinds[assert_same(doc)[0]] += 1
    assert kinds["tree"] > 100 and kinds["error"] > 50, kinds


@pytest.mark.parametrize("kind,first,second", [
    (kind, first, second)
    for kind, fields in (("condition", ["if", "then", "else"]), ("action", ["script", "result"]))
    for first, second in itertools.permutations(fields + ["type", "children"], 2)])
def test_which_bad_text_of_a_node_wins(kind, first, second):
    node = {"type": kind, **({"if": "true"} if kind == "condition" else {})}
    for field, bad in ((first, "$one"), (second, "$two")):
        node[field] = [bad] if field in ("script", "children") else bad
    doc = {"templates": {"t": {"root": "~", "nodes": {
        "~": {"type": "sequence", "children": ["~/n"]}, "~/n": node}}},
        "root": "m", "nodes": {"m": {"type": "t"}}}
    assert assert_same(parse_document(json.dumps(doc, indent=1)))[2] == "UNBOUND_PLACEHOLDER"


# --- generated template documents ----------------------------------------

CONTROL = ["sequence", "selector", "skipper", "parallel"]


def gen_template(rng, later):
    """A template whose body may instantiate the ``later`` templates
    (name -> node-param count, variadic) and the builtins; returns it and
    its shape."""
    node_params = rng.choice([["c"], ["c", "d"], []])
    variadic = rng.random() < 0.3
    args = [{"name": p, "kind": "node"} for p in node_params]
    if variadic:
        args.append({"name": "cs", "kind": "nodes"})
    xs = {"name": "xs", "kind": "scalar-list"}
    if rng.random() < 0.7:
        xs["default"] = rng.sample([1, 2, 3, -1, 0], rng.randint(0, 3))
    v = {"name": "v", "kind": "scalar"}
    if rng.random() < 0.7:
        v["default"] = rng.choice([0, 5, "w", True])
    args += [xs, v]
    typed = rng.random() < 0.4
    if typed:
        args.append({"name": "k", "kind": "scalar", "default": rng.choice(CONTROL)})

    nodes = {}
    children = [f"${p}" for p in node_params] + (["$cs"] if variadic else [])
    leaf = rng.choice([
        {"type": "condition", "if": "$v == $v"},
        {"type": "condition", "if": "~/x == 1", "then": "RUNNING", "else": "$name/y"},
        {"type": "action", "script": ["$name/x := $v", "~/n := 1"]},
        {"type": "action", "result": "FAILURE"},
    ])
    nodes["~/leaf"] = leaf
    children.append("~/leaf")
    if rng.random() < 0.6:
        emit = "~/it_$j"
        body = {emit: rng.choice([{"type": "condition", "if": "$e > 0"},
                                  {"type": "action", "script": ["~/e_$j := $e"]}])}
        if rng.random() < 0.3:  # a nested block spliced by the iteration's node
            inner = "~/it_$j/x_$m"
            body[emit] = {"type": rng.choice(CONTROL), "children": ["$@inner"]}
            body["inner"] = {"foreach": {"list": "$xs", "var": "f", "index": "m"},
                             "emit": inner,
                             "nodes": {inner: {"type": "condition", "if": "$f == $e"}}}
        elif later and rng.random() < 0.5:  # a templated node per iteration
            name, (count, var) = rng.choice(sorted(later.items()))
            kids = [f"~/it_$j/a{n}" for n in range(count + var)]
            body[emit] = {"type": name, "children": kids, "args": {"xs": "$xs", "v": "$e"}}
            for kid in kids:
                body[kid] = {"type": "action"}
        order = list(body)
        rng.shuffle(order)
        nodes["blk"] = {"foreach": {"list": "$xs", "var": "e", "index": "j"},
                        "emit": emit, "nodes": {key: body[key] for key in order}}
        children.append("$@blk")
    if later and rng.random() < 0.7:
        name, (count, var) = rng.choice(sorted(later.items()))
        kids = [f"~/s{n}" for n in range(count + var)]
        nodes["~/sub"] = {"type": name, "children": kids,
                          "args": rng.choice([{"xs": "$xs", "v": "$v"}, {"xs": [], "v": "~"},
                                              {"xs": ["$v", 3, "$xs"], "v": 1}])}
        for kid in kids:
            nodes[kid] = {"type": "action", "script": ["$name/ran := true"]}
        children.append("~/sub")
    if rng.random() < 0.3 and node_params:
        nodes["~/keep"] = {"type": rng.choice(["latch", "sequence_star", "selector_star"]),
                           "children": [children.pop(0)]}
        children.append("~/keep")
    rng.shuffle(children)
    nodes["~"] = {"type": "$k" if typed else rng.choice(CONTROL), "children": children}
    order = list(nodes)
    rng.shuffle(order)
    return ({"args": args, "root": "~", "nodes": {key: nodes[key] for key in order}},
            (len(node_params), variadic))


def gen_document(rng):
    templates = {}
    shapes = {}
    for index in reversed(range(rng.randint(1, 4))):
        name = f"t{index}"
        templates[name], shapes[name] = gen_template(rng, dict(shapes))
    count, variadic = shapes["t0"]
    kids = [f"leaf{n}" for n in range(count + variadic + rng.randint(0, 1) * variadic)]
    nodes = {"main": {"type": "t0", "children": kids, "args": {"xs": [4, 5], "v": 2}}}
    for kid in kids:
        nodes[kid] = {"type": "action"}
    return {"templates": dict(sorted(templates.items())), "root": "main", "nodes": nodes}


def _template_nodes(doc, rng):
    """A random (template, body mapping) pair of ``doc``, blocks' bodies included."""
    tmpl = doc["templates"][rng.choice(sorted(doc["templates"]))]
    bodies = [tmpl["nodes"]]
    for entry in tmpl["nodes"].values():
        if "foreach" in entry:
            bodies.append(entry["nodes"])
    return tmpl, rng.choice(bodies)


def _patterns(body):
    return [key for key, entry in body.items() if "foreach" not in entry]


def fault(doc, rng, site=None):
    """Inject one fault, aimed at one error code, at the body node ``site``
    (a random one if None or gone); return the code and the site."""
    if site is None or site[2] not in site[1]:
        tmpl, body = _template_nodes(doc, rng)
        site = tmpl, body, rng.choice(_patterns(body))
    tmpl, body, key = site
    node = body[key]
    main = doc["nodes"]["main"]
    code = rng.choice(sorted(EXPANDER_CODES | {"UNRESOLVED_CHILD"}))
    if code == "ARITY_MISMATCH":
        main["children"] = main["children"][1:] if main["children"] else ["leaf9"]
        doc["nodes"]["leaf9"] = {"type": "action"}
    elif code == "BAD_NODE":
        if node["type"] in CONTROL + ["condition", "action"]:  # a kind its payload misfits
            kind = {"condition": "action"}.get(node["type"], "condition")
            if rng.random() < 0.4:  # or its own kind with an empty key written, which
                kind = node["type"]  # is a fault but for an action's script
                key = rng.choice(["args", "script"])
                node.setdefault(key, {} if key == "args" else [])
            tmpl["args"].append({"name": "kk", "kind": "scalar", "default": kind})
            node["type"] = "$kk"
        else:  # a templated node with a leaf payload key
            node["if"] = "x == 1"
    elif code == "BAD_TEMPLATE_ROOT":
        tmpl["root"] = rng.choice(["~/missing", "$v", "$name"])
    elif code == "DEPTH_EXCEEDED":
        return code, site  # run with max_depth 1
    elif code == "DUPLICATE_NAME":  # "$name/leaf" qualifies as "~/leaf" does
        tmpl["nodes"][rng.choice(["$name/leaf", "$name"])] = {"type": "action"}
    elif code == "INVALID_NAME":
        body[key + "_$v"] = body.pop(key)
        main["args"]["v"] = "a b"
    elif code == "KIND_MISMATCH":
        main["args"].update(rng.choice([{"v": [1]}, {"xs": 1}, {"c": "x"}]))
    elif code == "LIST_IN_SCALAR_POSITION":
        node["if"] = "$xs > 0"
    elif code == "MISSING_ARG":
        for arg in tmpl["args"]:
            arg.pop("default", None)
        main["args"] = {}
    elif code == "NAME_CLASH":
        for entry in tmpl["nodes"].values():
            if "foreach" in entry:
                entry["nodes"] = {"~/same": {"type": "action"}}
                entry["emit"] = "~/same"
        main["args"]["xs"] = [1, 2]
    elif code == "NOT_A_LIST":
        for entry in tmpl["nodes"].values():
            if "foreach" in entry:
                entry["foreach"]["list"] = "$v"
    elif code == "RECURSIVE_TEMPLATE":
        body["~/again"] = {"type": "t0", "children": []}
    elif code == "UNBOUND_PLACEHOLDER":  # in two of the node's texts
        payload = {"condition": ["if", "then", "else"], "action": ["script", "result"]}
        texts = payload.get(node["type"], [])
        if len(texts) < 2 or rng.random() < 0.5:
            texts += ["type", "children"]
        for field in rng.sample(texts, 2):
            if field == "children":
                node.setdefault("children", []).append(rng.choice(["$nope", "~/$zz", "$@zz"]))
                continue
            bad = rng.choice(["$nope", "a $", "$@blk x", "~/$zz"])
            node[field] = [bad] if field == "script" else bad
    elif code == "UNKNOWN_ARG":
        main["args"]["bogus"] = 1
    elif code == "UNKNOWN_BLOCK":
        node.setdefault("children", []).append("$@nosuch")
    elif code == "UNKNOWN_TYPE":
        node["type"] = rng.choice(["nosuch", "$v"])
        main["args"]["v"] = "nosuch"
    elif code == "UNRESOLVED_CHILD":
        node.setdefault("children", []).append("ghost")
    return code, site


def test_generated_template_documents():
    rng = random.Random(7)
    counts = {"tree": 0, "error": 0, "unparsed": 0, "faulty": 0, "two faults": 0}
    codes = set()
    for _ in range(1_000):
        doc = gen_document(rng)
        aimed = []
        if rng.random() < 0.5:
            code, site = fault(doc, rng)
            aimed.append(code)
            if rng.random() < 0.4:  # a second fault, at the same node half the time
                aimed.append(fault(doc, rng, site if rng.random() < 0.5 else None)[0])
        counts["faulty"] += len(aimed) > 0
        counts["two faults"] += len(aimed) > 1
        parsed_doc = parsed(json.dumps(doc, indent=1))
        if parsed_doc is None:
            counts["unparsed"] += 1
            continue
        result = assert_same(parsed_doc, max_depth=1 if "DEPTH_EXCEEDED" in aimed else 64)
        counts[result[0]] += 1
        if result[0] == "error":
            codes.add(result[2])
    assert counts["tree"] > 550 and counts["error"] > 350 and counts["unparsed"] < 50, counts
    assert counts["faulty"] > 450 and counts["two faults"] > 150, counts
    assert codes >= EXPANDER_CODES | {"UNRESOLVED_CHILD"}, (codes, counts)


def test_hand_built_templates():
    """Template shapes the parser never makes: a foreach list that is not a
    ``$param`` reference, and leaf patterns without their defaults, in a
    template body and as a document node."""
    leaf = NodeDef("~/c_$i", "condition", if_="$e")
    block = ForeachBlock(list_ref="xs", var="e", emit="~/c_$i", nodes={"~/c_$i": leaf})
    loose = TemplateDef("loose", (ParamDecl("xs", "scalar-list", ("1",)),),
                        {"~": NodeDef("~", "sequence", ("$@b",)), "b": block}, "~")
    kinds = TemplateDef("kinds", (ParamDecl("k", "scalar", "condition"),),
                        {"~": NodeDef("~", "$k", if_="x == $k")}, "~")
    fixed = replace(loose, body={**loose.body, "b": replace(block, list_ref="$xs")})
    outcomes = [assert_same(Document({t.name: t}, {"main": NodeDef("main", t.name)}, "main"))
                for t in (loose, kinds, fixed)]
    assert [o[0] if o[0] == "tree" else o[2] for o in outcomes] == ["NOT_A_LIST", "tree", "tree"]
    assert outcomes[1][2][0].then == "SUCCESS"  # the default a substituted kind takes
    bare = assert_same(Document({}, {"a": NodeDef("a", "action")}, "a"))
    assert bare[0] == "tree" and bare[2][0].result == "SUCCESS"


@pytest.mark.parametrize("var", ["e", "~", "name", "$", "$@"])
@pytest.mark.parametrize("text", ["~ $name", "~ $name $e", "~ $", "~ $@x"])
def test_hand_built_names_that_shadow_placeholders(var, text):
    """A param named ``name`` and foreach variables named ``~``, ``name``,
    ``$`` or ``$@`` (the parser rejects each) leave ``~``, ``$name``, a bare
    ``$`` and a misplaced ``$@`` meaning what they mean everywhere else,
    in a text and in an arg forwarded to a nested template."""
    inner = TemplateDef("inner", (ParamDecl("x", "scalar"),),
                        {"~": NodeDef("~", "condition", if_="$x")}, "~")
    leaf = NodeDef("c_$i", "condition", if_=text.replace("$e", f"${var}"))
    block = ForeachBlock(list_ref="$xs", var=var, emit="c_$i", nodes={"c_$i": leaf})
    named = TemplateDef("named", (ParamDecl("name", "scalar", "p"),
                                  ParamDecl("xs", "scalar-list", ("a", "b"))),
                        {"~": NodeDef("~", "sequence", ("$@b", "fwd")),
                         "fwd": NodeDef("fwd", "inner", args={"x": "$name"}), "b": block}, "~")
    doc = Document({"inner": inner, "named": named},
                   {"main": NodeDef("main", "named", args={"name": "q"})}, "main")
    result = assert_same(doc)
    if text == "~ $name":
        assert result[0] == "tree"
    elif text == "~ $name $e":
        assert result[0] == ("tree" if var in ("e", "name") else "error")
    else:
        assert result[2] == "UNBOUND_PLACEHOLDER"
