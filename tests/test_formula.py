import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import formula_strategy, random_formula
from netbool.formula import (
    And,
    BooleanSystem,
    Const,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    evaluate,
    format_formula,
    max_var_index,
    parse_formula,
    truth_table,
)

import numpy as np


class TestParse:
    def test_disjunction_chain(self):
        assert parse_formula("x1 | x2 | !x3", 3) == Or(Or(Var(1), Var(2)), Not(Var(3)))

    def test_single_variable(self):
        assert parse_formula("x1", 1) == Var(1)

    def test_implication_semantics(self):
        # x1 -> x2 must agree with !x1 | x2 on all four assignments
        implication = parse_formula("x1 -> x2", 2)
        assert implication == Implies(Var(1), Var(2))
        reference = parse_formula("!x1 | x2", 2)
        for x in itertools.product((0, 1), repeat=2):
            assert evaluate(implication, x) == evaluate(reference, x)

    def test_precedence(self):
        # NOT > AND > OR > IMPLIES > IFF
        f = parse_formula("!x1 & x2 | x3 -> x1 <-> x2", 3)
        assert f == Iff(
            Implies(Or(And(Not(Var(1)), Var(2)), Var(3)), Var(1)), Var(2)
        )

    def test_implies_right_associative(self):
        assert parse_formula("x1 -> x2 -> x3", 3) == Implies(
            Var(1), Implies(Var(2), Var(3))
        )

    def test_iff_chain_rejected(self):
        with pytest.raises(FormulaSyntaxError, match="<->"):
            parse_formula("x1 <-> x2 <-> x3", 3)

    def test_constants_and_tilde(self):
        assert parse_formula("~x1 & 1 | 0", 1) == Or(And(Not(Var(1)), Const(1)), Const(0))

    def test_whitespace_insignificant(self):
        assert parse_formula(" x1|x2 ", 2) == parse_formula("x1 | x2", 2)

    def test_syntax_error_reports_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("x1 | ?", 2)
        assert err.value.position == 5

    def test_unbalanced_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(x1 | x2", 2)

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("x1 x2", 2)

    def test_variable_out_of_range(self):
        with pytest.raises(FormulaSyntaxError, match="x4 out of range"):
            parse_formula("x1 & x4", 3)

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("", 1)

    @pytest.mark.parametrize(
        "text, m, position, message",
        [
            ("", 1, 0, "expected a variable, constant or '(', found end of input"),
            ("x1 |", 1, 4, "expected a variable, constant or '(', found end of input"),
            ("x1 <->", 1, 6, "expected a variable, constant or '(', found end of input"),
            ("!", 1, 1, "expected a variable, constant or '(', found end of input"),
            ("()", 1, 1, "expected a variable, constant or '(', found ')'"),
            ("(x1 | x2", 2, 8, "expected ')', found end of input"),
            ("x1 x2", 2, 3, "unexpected trailing token 'x2'"),
            (")", 1, 0, "expected a variable, constant or '(', found ')'"),
            ("x1 <-> x2 <-> x3", 3, 10, "chained '<->' is ambiguous, parenthesize"),
            ("x1 -> x2 <-> x3 <-> x1", 3, 16, "chained '<->' is ambiguous, parenthesize"),
            ("(x1 <-> x2) <-> x3 <-> x1", 3, 19, "chained '<->' is ambiguous, parenthesize"),
            ("x1 | ?", 2, 5, "unexpected character '?'"),
            ("x1 <- x2", 2, 3, "unexpected character '<'"),
            ("x0", 1, 0, "variable x0 out of range 1..1"),
            ("x1 & x4", 3, 5, "variable x4 out of range 1..3"),
        ],
    )
    def test_error_message_and_position(self, text, m, position, message):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text, m)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at position {position})"


class TestEvaluate:
    def test_conjunction_with_equivalence(self):
        # second worked-example equation at the assignment [1, 0, 0]
        f = parse_formula("x1 & (x1 <-> x2)", 3)
        assert evaluate(f, [1, 0, 0]) == 0
        assert evaluate(f, [1, 0, 1]) == 0

    def test_constant(self):
        assert evaluate(Const(1), [0, 1]) == 1
        assert evaluate(Const(0), []) == 0

    def test_guarded_disjunction(self):
        f = parse_formula("(x1 | x2) & !x3", 3)
        assert evaluate(f, [1, 0, 0]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="x3"):
            evaluate(Var(3), [0, 1])


class TestTruthTable:
    def test_negated_single_variable(self):
        assert truth_table(parse_formula("!x1", 1), 1).tolist() == [1, 0]

    def test_conjunction_enumerated(self):
        # oracle: direct evaluation over the eight assignments in index order
        expected = [
            x2 & x3 for x1, x2, x3 in itertools.product((0, 1), repeat=3)
        ]
        assert expected == [0, 0, 0, 1, 0, 0, 0, 1]
        assert truth_table(parse_formula("x2 & x3", 3), 3).tolist() == expected

    def test_disjunction_with_negation(self):
        f = parse_formula("x1 | x2 | !x3", 3)
        assert truth_table(f, 3).tolist() == [1, 0, 1, 1, 1, 1, 1, 1]


class TestFormatRoundTrip:
    @given(formula_strategy(m=4))
    def test_round_trip(self, f):
        assert parse_formula(format_formula(f), 4) == f

    def test_minimal_parens(self):
        f = parse_formula("x1 & (x2 | x3)", 3)
        assert format_formula(f) == "x1 & (x2 | x3)"
        g = parse_formula("(x1 & x2) | x3", 3)
        assert format_formula(g) == "x1 & x2 | x3"

    @pytest.mark.parametrize(
        "outer, inner, inner_left, inner_right",
        [
            (And, And, "x1 & x2 & x3", "x1 & (x2 & x3)"),
            (And, Or, "(x1 | x2) & x3", "x1 & (x2 | x3)"),
            (And, Implies, "(x1 -> x2) & x3", "x1 & (x2 -> x3)"),
            (And, Iff, "(x1 <-> x2) & x3", "x1 & (x2 <-> x3)"),
            (Or, And, "x1 & x2 | x3", "x1 | x2 & x3"),
            (Or, Or, "x1 | x2 | x3", "x1 | (x2 | x3)"),
            (Or, Implies, "(x1 -> x2) | x3", "x1 | (x2 -> x3)"),
            (Or, Iff, "(x1 <-> x2) | x3", "x1 | (x2 <-> x3)"),
            (Implies, And, "x1 & x2 -> x3", "x1 -> x2 & x3"),
            (Implies, Or, "x1 | x2 -> x3", "x1 -> x2 | x3"),
            (Implies, Implies, "(x1 -> x2) -> x3", "x1 -> x2 -> x3"),
            (Implies, Iff, "(x1 <-> x2) -> x3", "x1 -> (x2 <-> x3)"),
            (Iff, And, "x1 & x2 <-> x3", "x1 <-> x2 & x3"),
            (Iff, Or, "x1 | x2 <-> x3", "x1 <-> x2 | x3"),
            (Iff, Implies, "x1 -> x2 <-> x3", "x1 <-> x2 -> x3"),
            (Iff, Iff, "(x1 <-> x2) <-> x3", "x1 <-> (x2 <-> x3)"),
        ],
    )
    def test_pair_parens(self, outer, inner, inner_left, inner_right):
        x1, x2, x3 = Var(1), Var(2), Var(3)
        for f, text in [
            (outer(inner(x1, x2), x3), inner_left),
            (outer(x1, inner(x2, x3)), inner_right),
        ]:
            assert format_formula(f) == text
            assert parse_formula(text, 3) == f

    @pytest.mark.parametrize(
        "op, text", [(And, "&"), (Or, "|"), (Implies, "->"), (Iff, "<->")]
    )
    def test_negation_parens(self, op, text):
        x1, x2 = Var(1), Var(2)
        assert format_formula(Not(op(x1, x2))) == f"!(x1 {text} x2)"
        assert format_formula(op(Not(x1), Not(x2))) == f"!x1 {text} !x2"


def _python_text(f) -> str:
    """Independent semantics oracle: render to a Python boolean expression."""
    match f:
        case Var(index):
            return f"bool(x[{index - 1}])"
        case Const(value):
            return str(bool(value))
        case Not(child):
            return f"(not {_python_text(child)})"
        case And(l, r):
            return f"({_python_text(l)} and {_python_text(r)})"
        case Or(l, r):
            return f"({_python_text(l)} or {_python_text(r)})"
        case Implies(l, r):
            return f"((not {_python_text(l)}) or {_python_text(r)})"
        case Iff(l, r):
            return f"({_python_text(l)} == {_python_text(r)})"


def _assert_table_is_python_eval(f, m: int):
    """``truth_table`` against ``_python_text`` evaluated at every
    assignment, in index order (x1 most significant)."""
    table = truth_table(f, m)
    assert table.shape == (2**m,) and table.dtype.kind == "i"
    code = compile(_python_text(f), "<formula>", "eval")
    expected = [int(eval(code, {"x": x})) for x in itertools.product((0, 1), repeat=m)]
    assert table.tolist() == expected


class TestSemantics:
    @given(formula_strategy(m=4))
    def test_truth_table_against_python_eval(self, f):
        _assert_table_is_python_eval(f, 4)

    @pytest.mark.parametrize("m", [8, 9, 10])
    def test_wide_truth_tables_against_python_eval(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            _assert_table_is_python_eval(random_formula(rng, m, depth=5), m)

    @pytest.mark.parametrize(
        "f, m",
        [(Const(0), 1), (Const(1), 1), (Const(1), 5), (Not(Const(1)), 3),
         (Var(1), 1), (Not(Var(1)), 1), (Iff(Var(1), Const(0)), 1)],
    )
    def test_constant_and_one_variable_tables(self, f, m):
        _assert_table_is_python_eval(f, m)

    @given(formula_strategy(m=3), st.integers(0, 7))
    def test_against_python_eval(self, f, idx):
        x = [(idx >> 2) & 1, (idx >> 1) & 1, idx & 1]
        assert evaluate(f, x) == int(eval(_python_text(f), {"x": x}))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_derived_connectives_pointwise(self, m):
        rng = np.random.default_rng(1234 + m)
        for _ in range(20):
            a = random_formula(rng, m)
            b = random_formula(rng, m)
            imp = Implies(a, b)
            imp_ref = Or(Not(a), b)
            iff = Iff(a, b)
            iff_ref = And(Or(Not(a), b), Or(Not(b), a))
            for x in itertools.product((0, 1), repeat=m):
                assert evaluate(imp, x) == evaluate(imp_ref, x)
                assert evaluate(iff, x) == evaluate(iff_ref, x)

    @given(formula_strategy(m=4))
    def test_evaluation_total(self, f):
        for x in itertools.product((0, 1), repeat=4):
            assert evaluate(f, x) in (0, 1)


class TestBooleanSystem:
    def test_construction(self, ex1):
        assert ex1.n == 3
        assert ex1.m == 3
        assert ex1.satisfies([0, 0, 0])
        assert not ex1.satisfies([0, 0, 1])

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(ValueError, match="x3"):
            BooleanSystem(2, ((Var(3), 1),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BooleanSystem(2, ())

    def test_rejects_bad_rhs(self):
        with pytest.raises(ValueError, match="0 or 1"):
            BooleanSystem(1, ((Var(1), 2),))

    @pytest.mark.parametrize(
        "m, rhs, message",
        [
            (2.0, 1, "variable count must be an integer, got 2.0"),
            (True, 1, "variable count must be an integer, got True"),
            (1, True, "right-hand side of equation 1 must be 0 or 1, got True"),
            (1, 1.0, "right-hand side of equation 1 must be 0 or 1, got 1.0"),
        ],
    )
    def test_refuses_what_a_problem_file_refuses(self, m, rhs, message):
        # True == 1 and 1.0 == 1, so a value check alone took them
        with pytest.raises(ValueError, match=f"^{message}$"):
            BooleanSystem(m, ((Var(1), rhs),))

    def test_max_var_index(self):
        assert max_var_index(parse_formula("x1 & (x2 | !x5)", 5)) == 5
        assert max_var_index(Const(1)) == 0
