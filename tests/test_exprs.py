import itertools

import pytest
from hypothesis import given
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
_exprs = st.recursive(
    _leaves,
    lambda ch: st.one_of(
        st.tuples(st.sampled_from(["!", "-"]), ch).map(lambda t: Unary(*t)),
        st.tuples(st.sampled_from(_ops), ch, ch).map(lambda t: Binary(*t)),
    ),
    max_leaves=25,
)


@given(e=_exprs)
def test_print_parse_round_trip(e):
    assert parse_expr(print_expr(e)) == e
