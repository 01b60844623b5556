import itertools
import random
import re
import sys
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btt import (
    MAX_EXPR_DEPTH,
    Assignment,
    Binary,
    ExprError,
    Lit,
    ReturnState,
    Unary,
    Var,
    eval_expr,
    parse_assignment,
    parse_expr,
    print_expr,
)
from btt import engine, exprs
from btt.exprs import compile_expr
from btt.model import MAX_INT_DIGITS
from oracles import (
    reference_eval_expr,
    reference_parse_assignment,
    reference_parse_expr,
)
from util import CORPUS_DOCS, NESTED_FORMS, REPO, expand_path, expand_text, nested

sys.path.insert(0, str(REPO / "bench"))
import workloads  # noqa: E402  (bench/workloads.py)

S, F, R, E = (ReturnState.SUCCESS, ReturnState.FAILURE,
              ReturnState.RUNNING, ReturnState.EMPTY)


def err(fn, *args):
    with pytest.raises(ExprError) as exc:
        fn(*args)
    return exc.value


# --- parsing -------------------------------------------------------------

def test_guard_expression_shape():
    e = parse_expr("__STATE__/goto == SUCCESS || __STATE__/goto == FAILURE")
    assert e == Binary(
        "||",
        Binary("==", Var("__STATE__/goto"), Lit(S)),
        Binary("==", Var("__STATE__/goto"), Lit(F)),
    )


def test_precedence_mul_binds_tighter():
    assert parse_expr("1 + 2 * 3") == Binary("+", Lit(1), Binary("*", Lit(2), Lit(3)))


def test_left_associativity():
    assert parse_expr("1 - 2 - 3") == Binary("-", Binary("-", Lit(1), Lit(2)), Lit(3))


def test_comparisons_do_not_chain():
    assert err(parse_expr, "1 < 2 < 3").code == "EXPR_SYNTAX"


def test_syntax_error_offset():
    e = err(parse_expr, "a == ")
    assert e.code == "EXPR_SYNTAX"
    assert e.offset == 5


def test_literals():
    assert parse_expr("'quoted text'") == Lit("quoted text")
    assert parse_expr("''") == Lit("")
    assert parse_expr("true") == Lit(True)
    assert parse_expr("RUNNING") == Lit(R)
    assert parse_expr("10") == Lit(10)
    assert parse_expr("2.5") == Lit(2.5)
    assert parse_expr("1e+20") == Lit(1e20)
    assert parse_expr("-3") == Unary("-", Lit(3))


def test_digits_and_spaces_are_ascii_only():
    # Arabic-Indic digits, a no-break space and an ideographic space
    for text, offset in (("\u0661\u0662 == 12", 0), ("x ==\u00a012", 4), ("\u3000x", 0)):
        e = err(parse_expr, text)
        assert (e.code, e.offset) == ("EXPR_SYNTAX", offset)
    assert parse_expr(" \t12\n== 12\r") == Binary("==", Lit(12), Lit(12))


def test_float_literal_too_large_for_a_float_is_a_syntax_error():
    for text, offset in (("x < 1e999", 4), ("-1e999", 1), ("1" * 400 + ".0", 0)):
        e = err(parse_expr, text)
        assert (e.code, e.offset) == ("EXPR_SYNTAX", offset)
        assert "float literal too large" in e.message
    # the largest finite literals, and one that underflows, still print back
    for text in ("x < 1e308", "1.7976931348623157e308", "1e-999"):
        assert parse_expr(print_expr(parse_expr(text))) == parse_expr(text)


def test_identifiers_may_contain_path_chars():
    assert parse_expr("__STATE__/a.b-c") == Var("__STATE__/a.b-c")
    # consequence: subtraction between variables needs spaces
    assert parse_expr("a-b") == Var("a-b")
    assert parse_expr("a - b") == Binary("-", Var("a"), Var("b"))


def test_single_equals_is_reserved():
    assert err(parse_expr, "x = 1").code == "EXPR_SYNTAX"


def test_trailing_garbage():
    assert err(parse_expr, "1 2").code == "EXPR_SYNTAX"


# --- evaluation ----------------------------------------------------------

def test_eval_guard_true():
    memory = {"__STATE__/goto": S}
    assert eval_expr(parse_expr("__STATE__/goto == SUCCESS"), memory) is True


def test_state_equality_matches_diagonal_brute_force():
    for a, b in itertools.product(list(ReturnState), repeat=2):
        got = eval_expr(parse_expr(f"{a.value} == {b.value}"), {})
        assert got == (a is b)


def test_ordering_is_numeric_only():
    assert err(eval_expr, parse_expr("2 < 'x'"), {}).code == "TYPE_ERROR"
    assert err(eval_expr, parse_expr("true < false"), {}).code == "TYPE_ERROR"
    assert eval_expr(parse_expr("1 < 2.5"), {}) is True


def test_cross_tag_equality_evaluates_false():
    assert eval_expr(parse_expr("1 == 1.0"), {}) is False
    assert eval_expr(parse_expr("'SUCCESS' == SUCCESS"), {}) is False
    assert eval_expr(parse_expr("1 != 'x'"), {}) is True


def test_arithmetic_stays_integer_until_a_float_appears():
    assert eval_expr(parse_expr("2 + 3"), {}) == 5
    assert isinstance(eval_expr(parse_expr("2 + 3"), {}), int)
    assert eval_expr(parse_expr("2 + 3.0"), {}) == 5.0
    assert isinstance(eval_expr(parse_expr("2 + 3.0"), {}), float)


def test_integer_division_truncates_toward_zero():
    assert eval_expr(parse_expr("7 / 2"), {}) == 3
    assert eval_expr(parse_expr("-7 / 2"), {}) == -3
    assert eval_expr(parse_expr("7 / -2"), {}) == -3
    assert eval_expr(parse_expr("-7 / -2"), {}) == 3


def test_division_by_zero():
    assert err(eval_expr, parse_expr("1 / 0"), {}).code == "DIVISION_BY_ZERO"
    assert err(eval_expr, parse_expr("1.5 / 0.0"), {}).code == "DIVISION_BY_ZERO"


def test_boolean_ops_require_booleans():
    assert err(eval_expr, parse_expr("1 && true"), {}).code == "TYPE_ERROR"
    assert err(eval_expr, parse_expr("!3"), {}).code == "TYPE_ERROR"
    assert eval_expr(parse_expr("!true"), {}) is False


def test_undefined_variable():
    e = err(eval_expr, parse_expr("missing"), {})
    assert e.code == "UNDEFINED_VARIABLE"
    assert e.subject == "missing"


def test_short_circuit_skips_right_operand():
    assert eval_expr(parse_expr("true || missing"), {}) is True
    assert eval_expr(parse_expr("false && missing"), {}) is False
    assert err(eval_expr, parse_expr("false || missing"), {}).code == "UNDEFINED_VARIABLE"
    assert err(eval_expr, parse_expr("true && missing"), {}).code == "UNDEFINED_VARIABLE"


def test_eval_does_not_mutate_memory():
    memory = {"a": 1}
    eval_expr(parse_expr("a + 1"), memory)
    assert memory == {"a": 1}


# --- assignments ---------------------------------------------------------

def test_parse_assignment():
    a = parse_assignment("__STATE__/goto := EMPTY")
    assert a.key == "__STATE__/goto"
    assert a.value == Lit(E)
    b = parse_assignment("count := count + 1")
    assert b.key == "count"
    assert b.value == Binary("+", Var("count"), Lit(1))


def test_assignment_rejects_single_equals():
    assert err(parse_assignment, "x = 1").code == "EXPR_SYNTAX"
    assert err(parse_assignment, "SUCCESS := 1").code == "EXPR_SYNTAX"


# --- the parser against the reference parser ------------------------------

def _memories_of(text):
    """Two memories of the names in ``text``, drawn from a generator seeded
    with the text; each misses a name now and then."""
    rng = random.Random(text)
    names = sorted(set(_NAME_RE.findall(text)))
    return [{n: rng.choice(_MEMORY_VALUES) for n in names if rng.random() < 0.9}
            for _ in range(2)]


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_/.\-]*", re.ASCII)
_MEMORY_VALUES = (True, False, 0, 3, -7, 0.5, -0.0, "", "x", S, F, R, E)


def _parsed(parse, text, memories=()):
    """What ``parse`` makes of ``text``: its tree and what the tree gives on
    each memory through the reference evaluator, or its error."""
    try:
        tree = parse(text)
    except ExprError as exc:
        return "error", exc.code, exc.message, exc.offset
    e = tree.value if isinstance(tree, Assignment) else tree
    return ("ast", repr(tree), *(_outcome(reference_eval_expr, e, m) for m in memories))


def _compiled(compile, text, memories):
    """What the engine's per-text cache ``compile`` makes of ``text``: its
    key, if it is an assignment, and its outcome on each memory, or its
    error."""
    try:
        compiled = compile(text)
    except ExprError as exc:
        return "error", exc.code, exc.message, exc.offset
    key, fn = compiled if compile is engine._parsed_assignment else (None, compiled)
    return ("compiled", key, *(_outcome(lambda fn, memory: fn(memory), fn, m) for m in memories))


def _referenced(text, reference, memories):
    """What the reference parser and evaluator make of ``text``, as
    _compiled gives it."""
    try:
        tree = reference(text)
    except ExprError as exc:
        return "error", exc.code, exc.message, exc.offset
    key, e = (tree.key, tree.value) if isinstance(tree, Assignment) else (None, tree)
    return ("compiled", key, *(_outcome(reference_eval_expr, e, m) for m in memories))


def _assert_compiles_alike(text):
    """The engine's caches, which compile each shape once and bind each
    text's keys and literals into it, and the reference give ``text`` the
    same key and values on random memories, or the same error, as an
    expression, after an assignment's ``k := `` and as an assignment."""
    memories = _memories_of(text)
    for compile, reference, prefix in (
            (engine._parsed_expr, reference_parse_expr, ""),
            (engine._parsed_assignment, reference_parse_assignment, "k := "),
            (engine._parsed_assignment, reference_parse_assignment, "")):
        assert (_compiled(compile, prefix + text, memories)
                == _referenced(prefix + text, reference, memories)), prefix + text


def _assert_parses_alike(text):
    """The same AST and values on random memories, or the same error code,
    message and offset, as an expression, after an assignment's ``k := ``
    and as an assignment; and the same through the engine's path."""
    memories = _memories_of(text)
    for parse, reference, prefix in ((parse_expr, reference_parse_expr, ""),
                                     (parse_assignment, reference_parse_assignment, "k := "),
                                     (parse_assignment, reference_parse_assignment, "")):
        assert (_parsed(parse, prefix + text, memories)
                == _parsed(reference, prefix + text, memories)), prefix + text
    _assert_compiles_alike(text)


# Every operator and the lone characters of the two-character ones, literals
# of every kind, keys, reserved words, an unbalanced quote and parentheses.
_SOUP = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "!", "(", ")",
         ":=", "|", "&", "=", ":", "'", "''", "'a b'", "0", "12", "2.5", "1e3", "a",
         "b/c.d", "x-y", "true", "false", "SUCCESS", "EMPTY", "k", "?", " ", "\t",
         "1e999", "\u0661", "\u00a0"]


@settings(max_examples=1000)
@given(tokens=st.lists(st.sampled_from(_SOUP), max_size=14), sep=st.sampled_from(["", " "]))
def test_parser_matches_the_reference_on_token_soup(tokens, sep):
    _assert_parses_alike(sep.join(tokens))


# Texts as templates write them: keys of many spellings, reserved words and
# literals of every kind, among them an integer one digit too long and a
# float too large, joined by operators with and without spaces.
_KEYS = ["a", "a-b", "x/y.z", "true/x", "SUCCESSx", "_", "__STATE__/t0_a1", "n", "e5"]
_VALUE_LITERALS = ["0", "7", "1.0", "1e5", "2.5E-3", "''", "'a b'", "'n'",
                   "9" * (MAX_INT_DIGITS + 1), "1e999", "true", "EMPTY"]


@st.composite
def _template_like(draw):
    sep = draw(st.sampled_from(["", " "]))
    parts = []
    for i in range(draw(st.integers(1, 5))):
        if i:
            parts.append(draw(st.sampled_from(_ops + [":=", "="])))
        operand = draw(st.sampled_from(_KEYS + _VALUE_LITERALS))
        prefix = draw(st.sampled_from(["", "", "!", "-", "("]))
        parts.append(prefix + sep + operand + (sep + ")" if prefix == "(" else ""))
    return sep.join(parts)


@settings(max_examples=1000)
@given(text=_template_like())
def test_parser_matches_the_reference_on_template_like_texts(text):
    _assert_parses_alike(text)


def _written_texts(tree):
    for nd in tree.nodes:
        yield from (t for t in (nd.if_, nd.then, nd.else_, nd.result) if t is not None)
        yield from nd.script or ()


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.name)
def test_parser_matches_the_reference_on_every_corpus_text(path):
    for text in set(_written_texts(expand_path(path))):
        _assert_parses_alike(text)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_parser_matches_the_reference_on_every_workload_text(name):
    tree = expand_text(workloads.make(name, 7).document)
    for text in set(_written_texts(tree)):
        _assert_parses_alike(text)


def test_texts_that_differ_only_in_keys_and_literals_share_one_parse(monkeypatch):
    parsers = []
    init = exprs._Parser.__init__

    def counted(self, text):
        parsers.append(text)
        init(self, text)

    monkeypatch.setattr(exprs._Parser, "__init__", counted)
    exprs._parsed_shape.cache_clear()
    texts = [f"k{i}/x-{i}.y + {i} * (n_{i} - {7 * i}) >= lim{i} || !done/{i}" for i in range(200)]
    for text in texts:
        assert repr(parse_expr(text)) == repr(reference_parse_expr(text))
    assert len(parsers) == 1
    # a shape that does not parse is tried once; the text itself, every time
    for _ in range(3):
        assert _parsed(parse_expr, "k > (1") == _parsed(reference_parse_expr, "k > (1")
    assert parsers[1:] == ["n > (0", "k > (1", "k > (1", "k > (1"]


# --- the engine's path: each shape compiled once, each text bound into it ---

def test_texts_of_one_shape_build_one_binder_and_no_tree(monkeypatch):
    planned = []  # one entry per node of each tree a binder is built for
    plan = exprs._plan

    def counted(e):
        planned.append(e)
        return plan(e)

    monkeypatch.setattr(exprs, "_plan", counted)
    exprs._binder.cache_clear()
    texts = [f"q{i}/x-{i}.y + {i} * (m_{i} - {7 * i}) >= top{i} || !ok/{i}" for i in range(200)]
    memory = {}
    for i in range(200):
        memory |= {f"q{i}/x-{i}.y": i, f"m_{i}": 3, f"top{i}": -50, f"ok/{i}": True}
    for i, text in enumerate(texts):
        if i == 1:  # the binder is built; from here on, no text builds a tree
            assert len(planned) == 12  # 6 operators and 6 leaves
            for cls in (Lit, Var, Unary, Binary, Assignment):
                monkeypatch.setattr(cls, "__init__", lambda *_: pytest.fail("a tree was built"))
        assert engine._parsed_expr(text)(memory) is (i + i * (3 - 7 * i) >= -50)
    assert len(planned) == 12


def test_a_literal_only_operand_folds_or_raises_per_text_in_one_shape():
    """``1 / 2`` folds to 0 where ``1 / 0`` raises at every call, though both
    texts share one shape and so one binder."""
    folded, raising = "k + 1 / 2 > 0", "k + 1 / 0 > 0"
    assert exprs._split(folded)[0] == exprs._split(raising)[0]

    def plan(fn):  # the closures' code and defaults, all the way down
        if not callable(fn) or not hasattr(fn, "__code__"):
            return fn
        return fn.__code__, tuple(map(plan, fn.__defaults__ or ()))

    fn = engine._parsed_expr(folded)
    assert plan(fn) == plan(engine._parsed_expr("k + 0 > 0"))
    assert fn({"k": 1}) is True
    fn = engine._parsed_expr(raising)
    for _ in range(2):
        assert err(fn, {"k": 1}).code == "DIVISION_BY_ZERO"
    # 0.0 == -0.0, but the two values that texts of one shape fold to stay apart
    texts = ("(1.0 - 1.0) * -1.0", "(1.0 - 2.0) * -0.0")
    assert exprs._split(texts[0])[0] == exprs._split(texts[1])[0]
    assert [repr(engine._parsed_expr(text)({})) for text in texts] == ["-0.0", "0.0"]
    assert [repr(engine._parsed_assignment("k := " + text)[1]({})) for text in texts] == [
        "-0.0", "0.0"]


# Besides the nesting forms: chains of ||, && over comparisons, -( chains and
# right-nested sums.
_CHAINS = {
    "or": lambda depth: " || ".join(["true"] * depth),
    "and_cmp": lambda depth: " && ".join(["1 < 2"] * depth),
    "neg_paren": lambda depth: "-(" * depth + "1" + ")" * depth,
    "right_sum": lambda depth: "1 + (" * depth + "1" + ")" * depth,
}


@pytest.mark.parametrize("depth", [MAX_EXPR_DEPTH - 1, MAX_EXPR_DEPTH, MAX_EXPR_DEPTH + 1, 3000])
@pytest.mark.parametrize("form", NESTED_FORMS + list(_CHAINS))
def test_parser_matches_the_reference_on_deep_nesting(form, depth):
    _assert_parses_alike(nested(form, depth) if form in NESTED_FORMS else _CHAINS[form](depth))


# --- printing ------------------------------------------------------------

# --- nesting cap ---------------------------------------------------------

@pytest.mark.parametrize("form", NESTED_FORMS)
def test_nesting_cap_is_exact(form):
    assert MAX_EXPR_DEPTH == 64
    deepest = nested(form, MAX_EXPR_DEPTH)
    assert eval_expr(parse_expr(deepest), {}) is (form != "not")  # 63 negations
    assert parse_assignment("k := " + deepest).key == "k"
    for parse, prefix in ((parse_expr, ""), (parse_assignment, "k := ")):
        e = err(parse, prefix + nested(form, MAX_EXPR_DEPTH + 1))
        assert e.code == "EXPR_SYNTAX"
        assert "expression is nested too deeply" in e.message


@pytest.mark.parametrize("form", NESTED_FORMS)
def test_deep_nesting_is_a_syntax_error_not_a_recursion_error(form):
    e = err(parse_expr, nested(form, 3000))
    assert e.code == "EXPR_SYNTAX"
    assert "nested too deeply" in e.message


def test_nesting_counts_every_level_kind():
    # 62 terms, one pair of parentheses and a negation: 62 + 1 + 1 = 64
    parse_expr("-(" + " + ".join(["1"] * 62) + ")")
    assert err(parse_expr, "-(" + " + ".join(["1"] * 63) + ")").code == "EXPR_SYNTAX"


def test_print_minimal_parentheses():
    assert print_expr(Binary("+", Lit(1), Binary("*", Lit(2), Lit(3)))) == "1 + 2 * 3"
    assert print_expr(Binary("*", Binary("+", Lit(1), Lit(2)), Lit(3))) == "(1 + 2) * 3"
    assert print_expr(Binary("==", Binary("==", Var("a"), Var("b")), Var("c"))) == "(a == b) == c"
    assert print_expr(Unary("!", Binary("&&", Var("a"), Var("b")))) == "!(a && b)"
    assert print_expr(Binary("-", Lit(1), Unary("-", Lit(2)))) == "1 - -2"


_names = st.from_regex(r"[a-z_][a-z0-9_/.]{0,8}", fullmatch=True).filter(
    lambda s: s not in ("true", "false")
)
_texts = st.text(alphabet="abcxyz 0123_/.<>=+*-", max_size=8)
_leaves = st.one_of(
    st.booleans().map(Lit),
    st.integers(0, 10**6).map(Lit),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(abs).map(Lit),
    st.sampled_from(list(ReturnState)).map(Lit),
    _texts.map(Lit),
    _names.map(Var),
)
_ops = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"]


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda ch: st.one_of(
            st.tuples(st.sampled_from(["!", "-"]), ch).map(lambda t: Unary(*t)),
            st.tuples(st.sampled_from(_ops), ch, ch).map(lambda t: Binary(*t)),
        ),
        max_leaves=25,
    )


_exprs = _trees(_leaves)


@given(e=_exprs)
def test_print_parse_round_trip(e):
    assert parse_expr(print_expr(e)) == e


# --- the compiled evaluator against the reference interpreter -------------

# A few keys that memories may or may not hold, and values of every tag,
# with zeros, negatives and a value that is not a scalar.
_POOL = ("a", "b", "c")
_values = st.sampled_from([True, False, 0, 1, -3, 7, 0.0, -0.0, 0.5, -2.5, "", "x",
                           S, F, R, E, [1]])
_memories = st.dictionaries(st.sampled_from(_POOL), _values)
_eval_exprs = _trees(st.one_of(
    st.sampled_from(_POOL).map(Var),
    _values.filter(lambda v: not isinstance(v, list)).map(Lit),
    _leaves,
))


def _outcome(evaluate, e, memory):
    try:
        v = evaluate(e, memory)
    except ExprError as exc:
        return "error", type(exc), exc.code, exc.message, exc.subject
    except Exception as exc:  # e.g. the TypeError of a value that is not a scalar
        return "error", type(exc), str(exc)
    return "value", type(v), repr(v)  # repr tells -0.0 from 0.0 and matches nan


def _assert_same(e, memory):
    before = dict(memory)
    assert _outcome(eval_expr, e, memory) == _outcome(reference_eval_expr, e, memory)
    assert memory == before


_MEMORY = {"a": 4, "b": -2.5}
_TAGGED = {"t": True, "i": 4, "f": -2.5, "s": "x", "st": S}
# Literal-only texts: ones that fold to their value when compiled, and ones
# that must still raise at every evaluation.
_FOLDING = ("-4 > 0", "0.0 * -1", "1 + 2 * 3 == 7", "2 / 4.0", "'a' != 'b'", "-0.0",
            "!(1 < 2) || 'x' == 'x'")
_RAISING = ("1 / 0", "true + 1", "-'x'", "1 && true", "'x' < 1", "(1 / 0) + 2",
            "1.5 * 1" + "0" * 400 + " > 0")
_NON_SCALAR = {"a": [1], "b": 2}
_NAMED_CASES = [(text, _MEMORY) for text in (
    # short-circuit && and || over undefined keys
    "false && missing", "true || missing", "true && missing", "false || missing",
    "missing && false", "1 && missing", "1 || missing", "'x' || true",
    # bool in arithmetic and ordering
    "true + 1", "-true", "a * false", "true < 1",
    # integer division truncates toward zero; a float makes it true division
    "-7 / 2", "7 / -2", "a / 3", "b / 2", "-7.0 / 2", "a / 0.5",
    "1 / 0", "a / 0", "b / 0.0", "0 / 0", "'x' / 0",
    # cross-tag equality is false, never an error
    "1 == 1.0", "true == 1", "'SUCCESS' == SUCCESS", "a != 'x'", "b == -2.5",
)] + [(text, _NON_SCALAR) for text in (
    "a == 1", "a != 1", "a + 1", "b - a", "a && true", "!a", "a", "a < b", "b == a",
    "a < 0.5", "a == 'x'", "-a * 2",
)] + [(text, {}) for text in (*_FOLDING, *_RAISING, "false && 1 / 0 == 0")] + [
    # a literal right operand held by its operator, after a missing key and
    # a key of each tag, read directly or through another operator
    (f"{left} {op} {right}", _TAGGED)
    for left in ("missing", "t", "i", "f", "s", "st", "-f", "(i + 0)")
    for op, right in (("==", "4"), ("!=", "SUCCESS"), ("+", "1"), ("<", "0.5"), ("/", "0"),
                      ("*", "-2.5"), ("==", "'x'"))
] + [(text, {"a": 10 ** 400}) for text in (
    # an integer too large for a float meets a float
    "a + 0.5", "a - 0.5", "a * 0.5", "a / 0.5", "0.5 / a", "0.5 * a", "a < 0.5", "a == 0.5",
)]


@pytest.mark.parametrize("text, memory", _NAMED_CASES)
def test_compiled_evaluator_matches_the_reference_on_named_cases(text, memory):
    _assert_same(parse_expr(text), memory)


@settings(max_examples=500)
@given(e=_eval_exprs, memory=_memories)
def test_compiled_evaluator_matches_the_reference(e, memory):
    _assert_same(e, memory)


class _Unreadable(Mapping):
    """A memory that fails the test when it is read."""

    def __getitem__(self, key):
        pytest.fail(f"memory read: {key!r}")

    def __iter__(self):
        pytest.fail("memory iterated")

    def __len__(self):
        pytest.fail("memory sized")


@pytest.mark.parametrize("text", _FOLDING + _RAISING)
def test_literal_only_text_compiles_to_its_value_or_its_error(text):
    e = parse_expr(text)
    compiled = compile_expr(e)
    want = _outcome(reference_eval_expr, e, {})
    for _ in range(2):  # an error comes at every call, not only the first
        assert _outcome(lambda e, memory: compiled(memory), e, _Unreadable()) == want
    if text in _FOLDING:  # it became a literal leaf, shared unless it is a float
        v = reference_eval_expr(e, {})
        assert (compiled is compile_expr(Lit(v))) is (type(v) is not float)


def test_equal_literals_of_other_types_or_signs_stay_apart():
    # literal leaves are shared process-wide, but 1 == 1.0 == true and 0.0 == -0.0
    for v in (1, 1.0, True, 0, 0.0, -0.0, False):
        got = eval_expr(Lit(v), {})
        assert (type(got), repr(got)) == (type(v), repr(v))
