"""Shared helpers for the test suite."""

from pathlib import Path

import pytest
import yaml
from hypothesis import strategies as st

from btt import (
    ExpandedTree,
    NodeDef,
    ReturnState,
    builtin_templates,
    expand_document,
    parse_document,
)

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
EXAMPLES = REPO / "examples"
TEMPLATES = REPO / "src" / "btt" / "templates"
CORPUS = TESTS / "corpus"
GOLDEN = TESTS / "golden"

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML was built without libyaml")

CORPUS_DOCS = sorted(CORPUS.glob("*.yaml")) + [
    EXAMPLES / "latch.yaml",
    EXAMPLES / "sequence_star.yaml",
    EXAMPLES / "patrol.yaml",
]


def expand_path(path):
    doc = parse_document(Path(path).read_text(encoding="utf-8"))
    return expand_document(doc, builtins=builtin_templates())


def expand_text(text, builtins=True):
    doc = parse_document(text)
    return expand_document(doc, builtins=builtin_templates() if builtins else None)


def action(name, **kw):
    return NodeDef(name=name, type="action", **kw)


def condition(name, if_, **kw):
    return NodeDef(name=name, type="condition", if_=if_, **kw)


def control(name, type_, children):
    return NodeDef(name=name, type=type_, children=tuple(children))


def tree(*nodes, root=None):
    return ExpandedTree(tuple(nodes), root if root is not None else nodes[0].name)


class Text(str):
    """A str subclass: text to ``isinstance``, not to the class rules."""


class HashRaises(str):
    """A str subclass whose hash raises, as a hostile name's might."""

    def __hash__(self):
        raise ValueError("no hash")


class EqRaises:
    """An object whose ``__eq__`` raises, and whose ``__hash__`` does too
    unless it is built ``hashable``."""

    def __init__(self, hashable=False):
        self.hashable = hashable

    def __eq__(self, other):
        raise ValueError("no equality")

    def __hash__(self):
        if not self.hashable:
            raise ValueError("no hash")
        return id(self)


SCALARS = st.one_of(st.booleans(), st.integers(-5, 5),
                    st.floats(allow_nan=False, allow_infinity=False, width=32),
                    st.text(max_size=4), st.sampled_from(list(ReturnState)))
# Values of a class no field, container or memory entry may hold, or of a
# subclass of one that it may; each hashable one may be a dict key.
HASHABLE_ODD = st.one_of(
    st.none(), st.just(float("nan")), st.binary(max_size=2),
    st.sampled_from(["a", "x", "SUCCESS"]).map(Text), st.builds(EqRaises, st.just(True)),
    st.tuples(st.sampled_from(["a", 1])), st.frozensets(st.integers(0, 2), max_size=2))
ODD = st.one_of(
    HASHABLE_ODD, st.sampled_from(["a", "x"]).map(HashRaises), st.builds(EqRaises),
    st.lists(st.sampled_from(["a", 1]), max_size=2),
    st.dictionaries(st.sampled_from(["a", "x"]), SCALARS, max_size=2),
    st.sets(st.integers(0, 2), max_size=2), st.builds(NodeDef, st.just("a"), st.just("action")))


def run_ticks(engine, k):
    """Tick ``engine`` k times; return the root states and every event of
    those ticks, in order."""
    roots, events = [], []
    for _ in range(k):
        root, tick_events = engine.tick()
        roots.append(root)
        events.extend(tick_events)
    return roots, events


# A template whose body holds a templated node (``~/inner``) that carries
# one leaf payload key; ``type_`` is ``latch`` or ``"$k"``, bound to latch.
_BODY_PAYLOAD = """\
templates:
  t:
    args:
      - {{name: c, kind: node}}
      - {{name: k, kind: scalar, default: latch}}
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/inner"]
      "~/inner": {{type: {type_}, children: ["$c"], {key}: {value}}}
root: a
nodes:
  a: {{type: t, children: [leaf]}}
  leaf: {{type: action}}
"""
BODY_PAYLOAD_LINE = 11  # the line of "~/inner"
LEAF_PAYLOAD_VALUES = {"if": '"x == 1"', "then": "SUCCESS", "else": "FAILURE",
                       "script": '["y := 2"]', "result": "RUNNING"}


def body_payload_doc(type_, key):
    return _BODY_PAYLOAD.format(type_=type_, key=key, value=LEAF_PAYLOAD_VALUES[key])


NESTED_FORMS = ["parens", "not", "sum"]


def nested(form, depth):
    """A condition text of exactly ``depth`` expression nesting levels."""
    if form == "parens":
        return "(" * (depth - 1) + "true" + ")" * (depth - 1)
    if form == "not":
        return "!" * (depth - 1) + "true"
    return " + ".join(["1"] * (depth - 1)) + " > 0"  # a left-deep sum, compared


FUZZ_TOKENS = list(":{}[]-~$\"'\n\t#&*!|>%@`,?\\ ") + [
    "SUCCESS", "foreach", "$@", "<<", "---", "children", "*a", "&a", "type:"]


def mutate(rng, text):
    """One to five random edits: insert, delete, replace or duplicate a span."""
    for _ in range(rng.randrange(1, 6)):
        op = rng.randrange(4)
        if not text:
            text = rng.choice(FUZZ_TOKENS)
            continue
        pos = rng.randrange(len(text))
        if op == 0:
            text = text[:pos] + rng.choice(FUZZ_TOKENS) + text[pos:]
        elif op == 1:
            end = min(len(text), pos + rng.randrange(1, 20))
            text = text[:pos] + text[end:]
        elif op == 2:
            text = text[:pos] + rng.choice(FUZZ_TOKENS) + text[pos + 1:]
        else:
            end = min(len(text), pos + rng.randrange(1, 30))
            text = text[:pos] + text[pos:end] + text[pos:]
    return text
