import itertools

import numpy as np
import pytest
from hypothesis import given

from conftest import EX1_MATRICES, EX2_MATRICES, chi0, formula_strategy
from netbool.formula import BooleanSystem, Const, Not, Or, Var, evaluate, parse_formula
from netbool.matricization import boolean_matricization, btoi, itob, unit_vector


class TestIndexMaps:
    def test_btoi(self):
        assert btoi([0, 0, 0]) == 1
        assert btoi([1, 0, 0]) == 5
        assert btoi([1, 0, 1]) == 6

    def test_btoi_rejects_empty(self):
        with pytest.raises(ValueError):
            btoi([])

    def test_itob(self):
        assert itob(1, 3) == [0, 0, 0]
        assert itob(3, 3) == [0, 1, 0]
        # 1*4 + 1*2 + 1*1 + 1 = 8
        assert itob(8, 3) == [1, 1, 1]

    def test_itob_range(self):
        with pytest.raises(ValueError):
            itob(0, 3)
        with pytest.raises(ValueError):
            itob(9, 3)

    def test_theta(self):
        # btoi is the paper's theta
        assert btoi([0]) == 1
        assert btoi([1]) == 2
        assert btoi([1, 0, 0]) == 5

    def test_theta_matches_kronecker(self):
        # btoi is the paper's theta; oracle: build the actual Kronecker
        # product of the unit factors
        for x in itertools.product((0, 1), repeat=3):
            factors = [unit_vector(b + 1, 2) for b in x]
            dense = np.kron(np.kron(factors[0], factors[1]), factors[2])
            assert dense[btoi(x) - 1] == 1.0
            assert dense.sum() == 1.0

    def test_upsilon(self):
        # itob is the paper's upsilon
        assert itob(1, 3) == [0, 0, 0]
        assert itob(5, 3) == [1, 0, 0]
        assert itob(6, 3) == [1, 0, 1]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_bijection_exhaustive(self, m):
        for i in range(1, 2**m + 1):
            assert btoi(itob(i, m)) == i
        for x in itertools.product((0, 1), repeat=m):
            assert itob(btoi(x), m) == list(x)


class TestUnitVector:
    def test_basic(self):
        assert np.array_equal(unit_vector(2, 4), [0, 1, 0, 0])

    def test_range(self):
        with pytest.raises(ValueError):
            unit_vector(0, 4)
        with pytest.raises(ValueError):
            unit_vector(5, 4)


class TestBooleanMatricization:
    def test_first_worked_example(self):
        texts = ["x1 | x2 | !x3", "x1 & (x1 <-> x2)", "x2 & x3"]
        for text, expected in zip(texts, EX1_MATRICES):
            mat = boolean_matricization(parse_formula(text, 3), 3)
            assert np.array_equal(mat, np.array(expected, dtype=float))

    def test_second_worked_example(self):
        texts = ["(x1 | x2) & !x3", "(x1 -> x2) | x3", "x1 & x3"]
        for text, expected in zip(texts, EX2_MATRICES):
            mat = boolean_matricization(parse_formula(text, 3), 3)
            assert np.array_equal(mat, np.array(expected, dtype=float))

    def test_constant_mapping(self):
        mat = boolean_matricization(Const(0), 2)
        assert np.array_equal(mat, [[1, 1, 1, 1], [0, 0, 0, 0]])

    @given(formula_strategy(m=4))
    def test_representation_identity(self, f):
        # the defining identity: M applied to the unit vector of x gives
        # the unit vector of f(x), for every assignment
        mat = boolean_matricization(f, 4)
        for x in itertools.product((0, 1), repeat=4):
            lhs = mat @ unit_vector(btoi(x), 16)
            rhs = unit_vector(evaluate(f, x) + 1, 2)
            assert np.array_equal(lhs, rhs)

    def test_uniqueness_across_formulas(self):
        # same mapping, different syntax trees
        a = parse_formula("x1 | x2", 2)
        b = Not(Or(Not(Var(1)), Not(Var(2))))  # De Morgan's dual of AND
        c = parse_formula("!( !x1 & !x2 )", 2)
        assert not np.array_equal(boolean_matricization(a, 2), boolean_matricization(b, 2))
        assert np.array_equal(boolean_matricization(a, 2), boolean_matricization(c, 2))

    @given(formula_strategy(m=3))
    def test_double_negation_same_matrix(self, f):
        assert np.array_equal(
            boolean_matricization(f, 3), boolean_matricization(Not(Not(f)), 3)
        )

    @given(formula_strategy(m=3))
    def test_columns_are_unit(self, f):
        dense = boolean_matricization(f, 3)
        assert dense.shape == (2, 8)
        # C order: a Fortran-ordered H moves BLAS results in the last bit
        assert dense.flags.c_contiguous
        assert np.array_equal(dense.sum(axis=0), np.ones(8))
        assert set(np.unique(dense)) <= {0.0, 1.0}



class TestChi0:
    def test_second_worked_example(self, ex2):
        assert chi0(ex2) == 4

    def test_single_constant_equation(self):
        system = BooleanSystem(2, ((Const(0), 0),))
        assert chi0(system) == 1

    def test_first_worked_example_enumerated(self, ex1):
        # oracle: enumerate the image tuples with plain Python operators
        fns = [
            lambda x: x[0] | x[1] | (1 - x[2]),
            lambda x: x[0] & int(x[0] == x[1]),
            lambda x: x[1] & x[2],
        ]
        image = {
            tuple(fn(x) for fn in fns) for x in itertools.product((0, 1), repeat=3)
        }
        assert len(image) == 5
        assert chi0(ex1) == 5

    def test_bounds(self, ex1, ex2, ex3):
        for system in (ex1, ex2, ex3):
            value = chi0(system)
            assert 1 <= value <= min(2**system.m, 2**system.n)
