import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fueterkit.clifford import (
    Multivector,
    blade_mask,
    blade_text,
    mask_blade,
    mask_sign,
    vector_embed,
)


def e(j, dim=3):
    return Multivector.basis_vector(j, dim)


def test_generator_relations():
    assert (e(1) * e(2)).terms == {(1, 2): Fraction(1)}
    assert (e(2) * e(1)).terms == {(1, 2): Fraction(-1)}
    assert e(1) * e(1) == Multivector.scalar(-1, 3)


def test_bivector_square():
    e12 = e(1) * e(2)
    assert e12 * e12 == Multivector.scalar(-1, 3)


def test_blade_product_sign_rule():
    assert (Multivector.blade((1, 2), 3) * Multivector.blade((1, 2), 3)).terms == {(): -1}
    assert (Multivector.blade((2,), 3) * Multivector.blade((1,), 3)).terms == {(1, 2): -1}


@pytest.mark.parametrize("a, b, message", [((2, 1), (), "strictly increasing"), ((1, 1), (), "strictly increasing"),
                                            ((), (3, 2), "strictly increasing"),
                                            ((0, 1), (1,), "blade index 0 is invalid"),
                                            ((2, -1), (), "blade index -1 is invalid")],
                         ids=["unsorted", "repeated", "unsorted-right", "zero-index", "negative-index"])
def test_blade_product_rejects_non_canonical_blades(a, b, message):
    # the mask rule reads a blade as a set of generators, so order and
    # repeats must be rejected rather than silently dropped
    with pytest.raises(ValueError, match=message):
        Multivector.blade(a, 6) * Multivector.blade(b, 6)


@pytest.mark.parametrize("blade, message", [((2, 1), "strictly increasing"), ((1, 1), "strictly increasing"),
                                            ((4,), "exceeds algebra dimension 3"),
                                            ((-1,), "blade index -1 is invalid")],
                         ids=["unsorted", "repeated", "outside", "negative"])
def test_coefficient_rejects_a_blade_it_cannot_hold(blade, message):
    # e2 e1 = -e12, so reading the unsorted key as absent would report 0
    mv = Multivector(3, {(1, 2): 5})
    assert mv.coefficient((1, 2)) == 5 and mv.coefficient((3,)) == 0
    with pytest.raises(ValueError, match=message):
        mv.coefficient(blade)


def swap_count_product(a, b):
    """Oracle for the blade product, sharing no code with the mask rule:
    sort the concatenated indices by adjacent swaps, one sign flip per
    swap, then cancel each adjacent equal pair with one more (e_j^2 = -1)."""
    idx = list(a) + list(b)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    out = []
    i = 0
    while i < len(idx):
        if i + 1 < len(idx) and idx[i] == idx[i + 1]:
            sign = -sign
            i += 2
        else:
            out.append(idx[i])
            i += 1
    return sign, tuple(out)


def _blade_of(mask):
    return tuple(g + 1 for g in range(mask.bit_length()) if mask >> g & 1)


def test_mask_rule_matches_swap_count_on_every_pair_of_cl6():
    for ma in range(64):
        for mb in range(64):
            a, b = _blade_of(ma), _blade_of(mb)
            want = swap_count_product(a, b)
            assert (mask_sign(ma, mb), mask_blade(ma ^ mb)) == want
            sign, blade = want
            assert (Multivector.blade(a, 6) * Multivector.blade(b, 6)).terms == {blade: sign}


@pytest.mark.parametrize("dim, pairs", [(10, 400), (80, 60)])
def test_mask_rule_matches_swap_count_on_random_pairs(dim, pairs):
    rng = random.Random(dim)
    for _ in range(pairs):
        a, b = (tuple(sorted(rng.sample(range(1, dim + 1), rng.randint(0, dim)))) for _ in range(2))
        ma, mb = blade_mask(a), blade_mask(b)
        assert mask_blade(ma) == a and mask_blade(mb) == b
        assert (mask_sign(ma, mb), mask_blade(ma ^ mb)) == swap_count_product(a, b)


def test_vector_embed_examples():
    assert vector_embed([1, 0, 0]) == e(1)
    v = vector_embed([1, 2, 0])
    assert v * v == Multivector.scalar(-5, 3)
    assert vector_embed([0, 0, 0]).is_zero()


def test_vector_embed_offset_and_length_check():
    s = vector_embed([1, 0], dim=5, offset=3)
    assert s.terms == {(4,): Fraction(1)}
    with pytest.raises(ValueError):
        vector_embed([1, 2, 3], dim=2)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Multivector.scalar(1, 2) * Multivector.scalar(1, 3)


def test_parity_split_examples():
    a = Multivector(3, {(): 1, (1,): 1, (1, 2): 1})
    even, odd = a.parity_split()
    assert even == Multivector(3, {(): 1, (1, 2): 1})
    assert odd == Multivector(3, {(1,): 1})
    z_even, z_odd = Multivector.zero(3).parity_split()
    assert z_even.is_zero() and z_odd.is_zero()
    tri = Multivector.blade((1, 2, 3), 3)
    even, odd = tri.parity_split()
    assert even.is_zero() and odd == tri


def test_blade_text_forms():
    assert blade_text((), 3) == "1"
    assert blade_text((1, 2), 3) == "e12"
    assert blade_text((1, 12), 12) == "e{1,12}"


def test_blade_validation():
    with pytest.raises(ValueError):
        Multivector(3, {(2, 1): 1})
    with pytest.raises(ValueError):
        Multivector(3, {(4,): 1})


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def multivectors(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(min_value=1, max_value=6))
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        blade = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=d), max_size=d))))
        terms[blade] = draw(rationals)
    return Multivector(d, terms)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.tuples(multivectors(dim=d), multivectors(dim=d), multivectors(dim=d))))
def test_associativity(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.lists(rationals, min_size=d, max_size=d)))
def test_vector_square_identity(coords):
    v = vector_embed(coords)
    assert v * v == Multivector.scalar(-sum(Fraction(c) ** 2 for c in coords), len(coords))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda d: st.tuples(multivectors(dim=d), multivectors(dim=d))))
def test_parity_grading_of_products(pair):
    a, b = pair
    ae, ao = a.parity_split()
    be, bo = b.parity_split()
    for x, y, parity in ((ae, be, 0), (ao, bo, 0), (ae, bo, 1), (ao, be, 1)):
        prod = x * y
        for blade in prod.terms:
            assert len(blade) % 2 == parity


@settings(max_examples=100, deadline=None)
@given(multivectors())
def test_parity_split_direct_sum(a):
    even, odd = a.parity_split()
    assert even + odd == a
    again_e, again_o = even.parity_split()
    assert again_e == even and again_o.is_zero()


def test_distributivity_and_scalar_action():
    a = Multivector(3, {(1,): Fraction(1, 2), (2, 3): 3})
    b = Multivector(3, {(): 2, (1, 2): -1})
    c = Multivector(3, {(3,): 5})
    assert a * (b + c) == a * b + a * c
    assert 2 * a == a + a
    assert (a - a).is_zero()
