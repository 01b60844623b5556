"""The name grammar: each name check of the front end, one faulty document
per check, and each kind of name's rule against the rule it replaced."""

import re
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btt import SchemaError, SourceSpan, exprs, parse_document, parse_scenario, textio
from btt.model import (
    BLOCK_NAME_RE,
    CHILD_PATTERN_RE,
    DECLARED_PARAM_RE,
    NAME_RE,
    PARAM_NAME_RE,
    PARAM_REF_RE,
    PATTERN_NAME_RE,
)
from oracles import REFERENCE_NAME_KINDS, reference_name_ok

# A document with every kind of name the schema checks but the scenario's;
# each case below edits it once, by replacing the first occurrence of a text.
_DOC = """\
templates:
  t:
    args:
      - {name: xs, kind: scalar-list}
    root: "~"
    nodes:
      "~": {type: sequence, children: ["$@b"]}
      b:
        foreach: {list: "$xs", var: s}
        emit: "~/c$i"
        nodes: {"~/c$i": {type: action}}
root: a
nodes:
  a: {type: t, args: {xs: [1]}}
"""
_SCENARIO = "memory: {k: 1}\nactions: {go: [SUCCESS]}\n"


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("parse, text, subject, message, at", [
    (parse_document, _edit(_DOC, "  t:", "  a b:"), "a b", "invalid template name 'a b'", (2, 3)),
    (parse_document, _edit(_DOC, "      - {name: xs", "      - {name: name"), "t",
     "invalid arg name 'name'", (4, 9)),
    (parse_document, _edit(_DOC, '"~": {type', '"~@": {type'), "~@",
     "invalid node name pattern '~@'", (7, 7)),
    (parse_document, _edit(_DOC, '["$@b"]', '["$@b", "a b"]'), "~",
     "invalid child reference 'a b'", (7, 39)),
    (parse_document, _edit(_DOC, "      b:", "      b/c:"), "b/c",
     "invalid foreach block name 'b/c'", (8, 7)),
    (parse_document, _edit(_DOC, '"$xs"', '"xs"'), "b",
     "foreach 'list' must be a $param reference, got 'xs'", (9, 18)),
    (parse_document, _edit(_DOC, "var: s", "var: name"), "b", "invalid foreach var 'name'",
     (9, 18)),
    (parse_document, _edit(_DOC, "var: s", "var: s, index: 1i"), "b",
     "invalid foreach index '1i'", (9, 18)),
    (parse_document, _edit(_DOC, "  a: {type: t", "  a b: {type: t"), "a b",
     "invalid node name 'a b'", (14, 3)),
    (parse_document, _edit(_DOC, "{xs: [1]}", "{xs: [1], 1x: 2}"), "a",
     "invalid argument name '1x'", (14, 32)),
    (parse_document, 'root: a\nnodes:\n  a: {type: sequence, children: ["$c"]}\n', "a",
     "invalid child reference '$c'", (3, 33)),
    (parse_scenario, _edit(_SCENARIO, "{k:", "{a b:"), "a b", "invalid memory key 'a b'",
     (1, 10)),
    (parse_scenario, _edit(_SCENARIO, "{go:", "{~:"), "~", "invalid action name '~'", (2, 11)),
], ids=["template", "arg", "body-node", "body-child", "block", "foreach-list", "foreach-var",
        "foreach-index", "node", "argument", "document-child", "memory-key", "action"])
def test_each_name_check(yaml_loader, parse, text, subject, message, at):
    """Each name check raises its own message, at its own place, with the
    owner or the name itself as its subject."""
    with pytest.raises(SchemaError) as exc:
        parse(text)
    assert (exc.value.code, exc.value.subject, exc.value.message, exc.value.span) == (
        "SCHEMA_ERROR", subject, message, SourceSpan(*at))


def test_template_args_must_be_a_list():
    """The arg declarations, which hold the args' names, are a list."""
    with pytest.raises(SchemaError) as exc:
        parse_document(_edit(_DOC, "args:\n      - {name: xs, kind: scalar-list}", "args: {a: 1}"))
    assert (exc.value.code, exc.value.subject, exc.value.message, exc.value.span) == (
        "SCHEMA_ERROR", "t", "template args must be a list", SourceSpan(3, 11))


# Each kind of name and whether a string is one now: the front end's
# checks, the expander's foreach list, the tokenizer's identifier and the
# writer's plain scalars.
_RULES = {kind: rule.fullmatch for kind, rule in {
    "node name": NAME_RE,
    "node name pattern": PATTERN_NAME_RE,
    "child pattern": CHILD_PATTERN_RE,
    "param name": PARAM_NAME_RE,
    "declared param": DECLARED_PARAM_RE,
    "param reference": PARAM_REF_RE,
    "block name": BLOCK_NAME_RE,
    "identifier": re.compile(dict(exprs._VALUE_TOKENS)["ident"], re.ASCII),
    "plain block": textio._PLAIN_BLOCK_RE,
}.items()} | {"plain name": lambda s: textio._flow_scalar(s) == s}
# Printable ASCII, "$~@" among it, and letters, digits and spaces outside
# it: the Kelvin sign folds to "k", and the Arabic-Indic three and the
# no-break space are a digit and a space to Unicode.
_CHARS = "".join(map(chr, range(0x20, 0x7f))) + "\u00e9\u00df\u03a9\u0131\u212a\u0663\u00a0"
_NAMEISH = "ab_Z09/.-$~@"


def test_every_kind_of_name_has_a_rule():
    assert sorted(_RULES) == sorted(REFERENCE_NAME_KINDS)


@pytest.mark.parametrize("kind", REFERENCE_NAME_KINDS)
@settings(max_examples=400, deadline=None)
@given(s=st.text(st.sampled_from(_NAMEISH), max_size=8)
       | st.text(st.sampled_from(_CHARS), max_size=8))
@example(s="name")
@example(s="$name")
@example(s="names")
@example(s="")
def test_each_rule_matches_what_it_replaced(kind, s):
    assert bool(_RULES[kind](s)) == reference_name_ok(kind, s)
