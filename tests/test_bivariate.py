from fractions import Fraction

import pytest

from fueterkit.bivariate import (
    BiaxialParams,
    BivariateRadial,
    apply_dx_xinv,
    apply_xinv_dx,
    delta2_power,
    expansion_coefficient,
    laplacian_expansion,
    multinomial,
    operator_term,
)

R = BivariateRadial.monomial


class TestOperators:
    def test_xinv_dx_basic(self):
        assert apply_xinv_dx(R(2, 0), 1) == BivariateRadial.constant(2)
        assert apply_xinv_dx(R(5, 0), 2) == R(1, 0, 15)
        f = R(4, -2, Fraction(7, 3))
        assert apply_xinv_dx(f, 0) == f

    def test_dx_xinv_basic(self):
        assert apply_dx_xinv(R(2, 0), 1) == BivariateRadial.constant(1)
        assert apply_dx_xinv(R(1, 0), 1).is_zero()
        assert apply_dx_xinv(R(5, 0), 2) == R(1, 0, 8)

    def test_rho_variable(self):
        assert apply_xinv_dx(R(0, 3), 1, "rho") == R(0, 1, 3)
        assert apply_dx_xinv(R(2, 4), 1, "rho") == R(2, 2, 3)

    def test_delta2(self):
        assert delta2_power(R(2, 0) + R(0, 2), 1) == BivariateRadial.constant(4)
        assert delta2_power(R(-1, 0), 1) == R(-3, 0, 2)
        f = R(3, -1, 5)
        assert delta2_power(f, 0) == f


class TestOperatorPowers:
    """The n-fold operators, taken in one pass, equal n single steps."""

    # negative exponents, and terms whose falling product reaches 0: r^4
    # under x^{-1} d/dx at n = 3, r under d/dx x^{-1} at n = 1 (likewise rho)
    F = (R(4, 0) + R(1, 1, Fraction(5, 7)) + R(-3, 4, -2) + R(2, -5, 3) + R(0, 0, Fraction(1, 2))
         + R(7, 2, -4) + R(-1, -2, 6))

    @pytest.mark.parametrize("var", ["r", "rho"])
    @pytest.mark.parametrize("power", [apply_xinv_dx, apply_dx_xinv], ids=["xinv_dx", "dx_xinv"])
    @pytest.mark.parametrize("n", range(9))
    def test_power_equals_repeated_steps(self, power, var, n):
        stepped = self.F
        for _ in range(n):
            stepped = power(stepped, 1, var)
        got = power(self.F, n, var)
        assert got == stepped
        assert 0 not in got._terms.values()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="operator power must be >= 0"):
            apply_xinv_dx(self.F, -1)


class TestOperatorIdentities:
    """The four one-dimensional commutation identities, exact on Laurent monomials."""

    @pytest.mark.parametrize("a", range(-3, 6))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_second_derivative_past_xinv_dx(self, a, n):
        f = R(a, 0)
        lhs = delta2_power(apply_xinv_dx(f, n), 1)
        rhs = apply_xinv_dx(delta2_power(f, 1), n) - 2 * n * apply_xinv_dx(f, n + 1)
        assert lhs == rhs

    @pytest.mark.parametrize("a", range(-3, 6))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_second_derivative_past_dx_xinv(self, a, n):
        f = R(a, 0)
        lhs = delta2_power(apply_dx_xinv(f, n), 1)
        rhs = apply_dx_xinv(delta2_power(f, 1), n) - 2 * n * apply_dx_xinv(f, n + 1)
        assert lhs == rhs

    @pytest.mark.parametrize("a", range(-3, 6))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_interchange_identity(self, a, n):
        f = R(a, 0)
        assert apply_dx_xinv(f.derivative("r"), n) == apply_xinv_dx(f, n).derivative("r")

    @pytest.mark.parametrize("a", range(-3, 6))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_commutator_identity(self, a, n):
        f = R(a, 0)
        lhs = apply_xinv_dx(f.derivative("r"), n) - apply_dx_xinv(f, n).derivative("r")
        rhs = (2 * n * apply_dx_xinv(f, n)).shift(-1, 0)
        assert lhs == rhs


class TestExpansionCoefficient:
    def test_base(self):
        assert expansion_coefficient(0, 0, BiaxialParams(0, 0, 3, 3)) == 1

    def test_one_sided_values_and_vanishing(self):
        params = BiaxialParams(0, 0, 3, 3)
        assert expansion_coefficient(1, 0, params) == 2
        assert expansion_coefficient(2, 0, params) == 0

    def test_product_structure(self):
        params = BiaxialParams(1, 1, 3, 3)
        assert expansion_coefficient(2, 2, params) == 64
        assert (expansion_coefficient(2, 2, params)
                == expansion_coefficient(2, 0, params) * expansion_coefficient(0, 2, params))

    @pytest.mark.parametrize("k,p", [(0, 3), (1, 3), (0, 5), (2, 5)])
    def test_vanishing_threshold(self, k, p):
        params = BiaxialParams(k, 0, p, 3)
        threshold = k + (p + 1) // 2
        for j in range(threshold + 3):
            value = expansion_coefficient(j, 0, params)
            if j >= threshold:
                assert value == 0
            else:
                assert value != 0


class TestMultinomial:
    def test_values(self):
        assert multinomial(4, 1, 1) == 12
        assert multinomial(7, 0, 0) == 1
        assert multinomial(3, 3, 0) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            multinomial(3, 2, 2)

    def test_pascal_recurrence(self):
        def m(n, j1, j2):
            if j1 < 0 or j2 < 0 or j1 + j2 > n:
                return 0
            return multinomial(n, j1, j2)

        for n in range(6):
            for j1 in range(n + 2):
                for j2 in range(n + 2 - j1):
                    assert m(n + 1, j1, j2) == m(n, j1, j2) + m(n, j1 - 1, j2) + m(n, j1, j2 - 1)


class TestOperatorTerm:
    def test_identity_case(self):
        h = R(3, 1, Fraction(2, 5))
        assert operator_term(h, 0, 0, 0, 0, 0) == h

    def test_single_r_operator(self):
        assert operator_term(R(2, 0), 1, 1, 0, 0, 0) == BivariateRadial.constant(2)

    def test_pure_delta(self):
        for s1 in (0, 1):
            for s2 in (0, 1):
                assert operator_term(R(2, 0), 1, 0, 0, s1, s2) == BivariateRadial.constant(2)

    def test_index_violation(self):
        with pytest.raises(ValueError):
            operator_term(R(2, 0), 1, 1, 1, 0, 0)


class TestLaplacianExpansion:
    def test_square_of_first_radius(self):
        params = BiaxialParams(0, 0, 3, 3)
        out = laplacian_expansion(R(2, 0), 1, 0, 0, params)
        assert out == BivariateRadial.constant(6)

    def test_symmetry_in_radii(self):
        params = BiaxialParams(0, 0, 3, 3)
        out = laplacian_expansion(R(0, 2), 1, 0, 0, params)
        assert out == BivariateRadial.constant(6)

    def test_constant_annihilated(self):
        params = BiaxialParams(2, 1, 5, 3)
        assert laplacian_expansion(BivariateRadial.constant(9), 1, 0, 0, params).is_zero()

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            laplacian_expansion(R(2, 0), 0, 0, 0, BiaxialParams(0, 0, 3, 3))


class TestBivariateBasics:
    def test_arithmetic(self):
        f = R(1, 0) + R(0, 1) * 2
        g = f * f
        assert g == R(2, 0) + 4 * R(1, 1) + 4 * R(0, 2)
        assert (f - f).is_zero()

    def test_derivative_and_shift(self):
        f = R(3, 2, Fraction(1, 2))
        assert f.derivative("r") == R(2, 2, Fraction(3, 2))
        assert f.derivative("rho") == R(3, 1, 1)
        assert f.shift(-1, 0) == R(2, 2, Fraction(1, 2))

    def test_unknown_variable_is_rejected_even_for_zero(self):
        for f in (BivariateRadial(), R(3, 2)):
            with pytest.raises(ValueError, match="'r' or 'rho'"):
                f.derivative("z")

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BiaxialParams(-1, 0, 3, 3)
        with pytest.raises(ValueError):
            BiaxialParams(0, 0, 0, 3)
