import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btt import (
    MAX_EXPR_DEPTH,
    Binary,
    ExprError,
    Lit,
    ReturnState,
    Unary,
    Var,
    eval_expr,
    eval_state_expr,
    parse_assignment,
    parse_expr,
    print_expr,
)
from oracles import (
    reference_eval_expr,
    reference_eval_state_expr,
    reference_parse_assignment,
    reference_parse_expr,
)
from util import NESTED_FORMS, nested

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


def test_eval_state_expr():
    assert eval_state_expr(parse_expr("EMPTY"), {}) is E
    assert eval_state_expr(parse_expr("__STATE__/goto"), {"__STATE__/goto": F}) is F
    assert err(eval_state_expr, parse_expr("1 + 1"), {}).code == "NOT_A_STATE"


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

def _parsed(parse, text):
    try:
        return "ast", repr(parse(text))
    except ExprError as exc:
        return "error", exc.code, exc.message, exc.offset


def _assert_parses_alike(text):
    """The same AST, or the same error code, message and offset, as an
    expression, after an assignment's ``k := `` and as an assignment."""
    for parse, reference, prefix in ((parse_expr, reference_parse_expr, ""),
                                     (parse_assignment, reference_parse_assignment, "k := "),
                                     (parse_assignment, reference_parse_assignment, "")):
        assert _parsed(parse, prefix + text) == _parsed(reference, prefix + text)


# Every operator and the lone characters of the two-character ones, literals
# of every kind, keys, reserved words, an unbalanced quote and parentheses.
_SOUP = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "!", "(", ")",
         ":=", "|", "&", "=", ":", "'", "''", "'a b'", "0", "12", "2.5", "1e3", "a",
         "b/c.d", "x-y", "true", "false", "SUCCESS", "EMPTY", "k", "?", " ", "\t"]


@settings(max_examples=1000)
@given(tokens=st.lists(st.sampled_from(_SOUP), max_size=14), sep=st.sampled_from(["", " "]))
def test_parser_matches_the_reference_on_token_soup(tokens, sep):
    _assert_parses_alike(sep.join(tokens))


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
    assert (_outcome(eval_state_expr, e, memory)
            == _outcome(reference_eval_state_expr, e, memory))
    assert memory == before


_MEMORY = {"a": 4, "b": -2.5}
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
)]


@pytest.mark.parametrize("text, memory", _NAMED_CASES)
def test_compiled_evaluator_matches_the_reference_on_named_cases(text, memory):
    _assert_same(parse_expr(text), memory)


@settings(max_examples=500)
@given(e=_eval_exprs, memory=_memories)
def test_compiled_evaluator_matches_the_reference(e, memory):
    _assert_same(e, memory)


def test_equal_literals_of_other_types_or_signs_stay_apart():
    # literal leaves are shared process-wide, but 1 == 1.0 == true and 0.0 == -0.0
    for v in (1, 1.0, True, 0, 0.0, -0.0, False):
        got = eval_expr(Lit(v), {})
        assert (type(got), repr(got)) == (type(v), repr(v))
