import random
from fractions import Fraction

import pytest

from fueterkit.bivariate import BivariateRadial
from fueterkit.errors import PreconditionError
from fueterkit.seeds import (
    ComplexBivarPoly,
    SeedFunction,
    conj_power,
    holo_power,
    laplace2,
    lift_to_radial,
    parity_monomial,
    seed_order,
    seed_times_monomial,
    split_uv,
    times_i,
    wirtinger,
)

I = ComplexBivarPoly.i()
Z = ComplexBivarPoly.z()
ZBAR = ComplexBivarPoly.zbar()


class TestWirtinger:
    def test_antiholomorphic_kernel(self):
        for n in range(6):
            assert wirtinger(ZBAR ** n, "dz").is_zero()

    def test_product_rule_case(self):
        assert wirtinger(Z * ZBAR, "dz") == ZBAR

    def test_power_rule(self):
        assert wirtinger(ZBAR ** 2, "dzbar") == 2 * ZBAR

    def test_holomorphic_kernel(self):
        for n in range(6):
            assert wirtinger(Z ** n, "dzbar").is_zero()

    def test_unknown_coordinate_is_rejected(self):
        with pytest.raises(ValueError, match="'x' or 'y'"):
            ComplexBivarPoly.coordinate("z")


class TestComplexUnit:
    """i is the blade e_1 of Cl(0,1): stored by mask, public as () / (1,)."""

    def test_i_squares_to_minus_one(self):
        assert I ** 2 == -1
        assert (I ** 2).terms == {(0, 0, ()): -1}

    def test_terms_keep_tuple_blades(self):
        # i zbar^3 = i (x - iy)^3 = i x^3 + 3 x^2 y - 3i x y^2 - y^3
        w = I * ZBAR ** 3
        assert w.terms == {(3, 0, (1,)): 1, (2, 1, ()): 3, (1, 2, (1,)): -3, (0, 3, ()): -1}
        assert ComplexBivarPoly(w.terms) == w

    def test_wirtinger_of_i_zbar_cubed(self):
        # d/dzbar (i zbar^3) = 3i zbar^2 = 3i x^2 + 6 x y - 3i y^2
        w = I * ZBAR ** 3
        assert wirtinger(w, "dzbar").terms == {(2, 0, (1,)): 3, (1, 1, ()): 6, (0, 2, (1,)): -3}
        assert wirtinger(w, "dz").is_zero()

    def test_constructor_takes_only_the_blades_of_cl01(self):
        with pytest.raises(ValueError, match=r"\(\) or \(1,\)"):
            ComplexBivarPoly({(0, 0, (2,)): 1})


class TestSeedOrder:
    def test_antiholomorphic(self):
        assert seed_order(ZBAR ** 5) == 0

    def test_z_zbar(self):
        assert seed_order(Z * ZBAR) == 1

    def test_zbar5_z(self):
        assert seed_order(ZBAR ** 5 * Z) == 1

    def test_zbar5_z2(self):
        assert seed_order(ZBAR ** 5 * Z ** 2) == 2

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            seed_order(ComplexBivarPoly.zero())

    def test_recomputed_in_factory(self):
        seed = SeedFunction.create(ZBAR ** 3 * Z)
        assert seed.mu == 1
        assert not seed.is_antiholomorphic()


class TestBuildSeed:
    def test_conj_power(self):
        seed = conj_power(8)
        assert seed.mu == 0
        assert seed.w == ZBAR ** 8

    def test_i_times(self):
        seed = times_i(conj_power(3))
        assert seed.w == ZBAR ** 3 * I
        assert seed.mu == 0

    def test_parity_monomial_both_odd(self):
        # for exponents (1, 1) the sign is (-1)^0 = +1 on i*x*y
        assert parity_monomial(1, 1) == ComplexBivarPoly({(1, 1, (1,)): 1})

    def test_parity_monomial_first_odd(self):
        assert parity_monomial(1, 0) == ComplexBivarPoly({(1, 0, ()): 1})

    def test_parity_monomial_even_pairs(self):
        assert parity_monomial(2, 0) == ComplexBivarPoly({(2, 0, ()): -1})
        assert parity_monomial(0, 3) == ComplexBivarPoly({(0, 3, (1,)): -1})

    def test_monomial_times_order_bound(self):
        for n in range(4):
            for n1 in range(3):
                for n2 in range(3):
                    lifted = seed_times_monomial(conj_power(n), n1, n2)
                    assert lifted.mu <= n1 + n2

    def test_literal(self):
        poly = Z ** 2 * ZBAR
        seed = SeedFunction.create(poly)
        assert seed.w == poly and seed.mu == 2


class TestSplitAndLift:
    def test_zbar_squared(self):
        u, v, den = split_uv(ZBAR ** 2)
        assert u == {(2, 0): 1, (0, 2): -1}
        assert v == {(1, 1): -2}
        assert den == 1

    def test_i_zbar(self):
        u, v, den = split_uv(ZBAR * I)
        assert u == {(0, 1): 1}
        assert v == {(1, 0): 1}
        assert den == 1

    def test_constant(self):
        u, v, den = split_uv(ComplexBivarPoly.constant(3))
        assert u == {(0, 0): 3} and v == {} and den == 1

    def test_numerators_keep_the_seed_denominator(self):
        u, v, den = split_uv(ComplexBivarPoly({(1, 0, ()): Fraction(1, 2), (0, 1, (1,)): Fraction(-2, 3)}))
        assert (u, v, den) == ({(1, 0): 3}, {(0, 1): -4}, 6)
        assert all(type(c) is int for c in [*u.values(), *v.values()])

    def test_lift(self):
        u, _v, den = split_uv(ZBAR ** 2)
        assert lift_to_radial(u, den) == BivariateRadial({(2, 0): 1, (0, 2): -1})
        assert lift_to_radial({(1, 1): 3}, 3) == BivariateRadial.monomial(1, 1)
        assert lift_to_radial({}, 1).is_zero()

    def test_recombination(self):
        rng = random.Random(3)
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                i, j = rng.randint(0, 4), rng.randint(0, 4)
                terms[(i, j, ())] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                terms[(i, j, (1,))] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            w = ComplexBivarPoly(terms)
            u, v, den = split_uv(w)
            rebuilt = (ComplexBivarPoly({(i, j, ()): Fraction(c, den) for (i, j), c in u.items()})
                       + ComplexBivarPoly({(i, j, (1,)): Fraction(c, den) for (i, j), c in v.items()}))
            assert rebuilt == w


class TestOperatorAlgebra:
    def test_laplacian_is_four_wirtinger(self):
        rng = random.Random(4)
        for _ in range(30):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                i, j = rng.randint(0, 4), rng.randint(0, 4)
                terms[(i, j, ())] = rng.randint(-3, 3)
                terms[(i, j, (1,))] = rng.randint(-3, 3)
            w = ComplexBivarPoly(terms)
            assert laplace2(w) == 4 * wirtinger(wirtinger(w, "dzbar"), "dz")
            assert laplace2(w) == 4 * wirtinger(wirtinger(w, "dz"), "dzbar")

    def test_product_annihilation(self):
        # d/dz (w * h) = w * d/dz h for antiholomorphic w
        w = ZBAR ** 4
        h = parity_monomial(2, 1)
        assert wirtinger(w * h, "dz") == w * wirtinger(h, "dz")

    def test_holomorphy_flags(self):
        assert holo_power(3).is_holomorphic()
        assert not holo_power(3).is_antiholomorphic()
        assert conj_power(3).is_antiholomorphic()
        assert times_i(conj_power(2)).is_antiholomorphic()
