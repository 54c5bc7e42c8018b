"""Exact Laurent polynomial arithmetic in lattice exponents."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from param_atlas.gf import get_field
from param_atlas.laurent import LaurentPolynomial


def lp(rank, terms):
    out = LaurentPolynomial.zero(rank)
    for e, c in terms.items():
        out = out + LaurentPolynomial.monomial(e, c)
    return out


small_laurents = st.builds(
    lambda d: lp(2, d),
    st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.integers(-5, 5),
        max_size=4,
    ),
)


def test_basic_arithmetic():
    x = LaurentPolynomial.variable(1, 0)
    p = x ** 3 - x * 4
    assert p.canonical_str(["c"]) == "c^3 - 4*c"
    assert (p - p) == LaurentPolynomial.zero(1)
    assert not (p - p)


def test_monomial_inverse():
    x = LaurentPolynomial.monomial((1, -2), 1)
    assert x * x.monomial_inverse() == LaurentPolynomial.constant(2, 1)
    neg = LaurentPolynomial.monomial((2, 0), -1)
    assert neg.monomial_inverse() == LaurentPolynomial.monomial((-2, 0), -1)
    with pytest.raises(ValueError):
        LaurentPolynomial.monomial((1, 0), 3).monomial_inverse()


def test_pow_negative_exponent_single_monomial():
    x = LaurentPolynomial.variable(2, 1)
    assert x ** -3 == LaurentPolynomial.monomial((0, -3), 1)
    p = x + LaurentPolynomial.constant(2, 1)
    with pytest.raises(ValueError):
        p ** -1


def test_canonical_str_ordering_and_signs():
    # degree-lex descending, leading sign folded into the term
    p = lp(1, {(0,): 2, (3,): 1, (1,): -4})
    assert p.canonical_str(["c"]) == "c^3 - 4*c + 2"
    q = lp(2, {(1, -1): 1, (0, 0): -1})
    assert q.canonical_str(["a", "b"]) == "a*b^-1 - 1"


def test_scale_exponents_is_adams_shape():
    p = lp(2, {(1, 0): 1, (0, 1): 1})
    assert p.scale_exponents(3) == lp(2, {(3, 0): 1, (0, 3): 1})


def test_apply_matrix_permutation():
    p = lp(2, {(1, 0): 2, (0, 1): 5})
    swap = ((0, 1), (1, 0))
    assert p.apply_matrix(swap) == lp(2, {(0, 1): 2, (1, 0): 5})


def test_derivative():
    x = LaurentPolynomial.variable(1, 0)
    p = x ** 3 - x * 4
    assert p.derivative(0) == lp(1, {(2,): 3, (0,): -4})
    # Laurent part: d/dx x^-2 = -2 x^-3
    q = x ** -2
    assert q.derivative(0) == lp(1, {(-3,): -2})


def test_evaluate_fraction_and_field_agree_mod_p():
    p = lp(2, {(2, -1): 3, (0, 1): -1})
    point = (Fraction(2), Fraction(3))
    val = sum(c * point[0] ** e[0] * point[1] ** e[1] for e, c in p.terms.items())
    f = get_field(7)
    fval = p.evaluate_in_field(f, (2, 3))
    assert fval == (val.numerator * pow(val.denominator, -1, 7)) % 7


def test_substitute_composition():
    # p(u, v) with u = x + y, v = x*y recovers symmetric polynomial
    p = lp(2, {(1, 0): 1, (0, 1): 1})  # u + v
    x_plus_y = lp(2, {(1, 0): 1, (0, 1): 1})
    xy = lp(2, {(1, 1): 1})
    assert p.substitute([x_plus_y, xy]) == lp(2, {(1, 0): 1, (0, 1): 1, (1, 1): 1})


@given(small_laurents, small_laurents, small_laurents)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(small_laurents, small_laurents)
def test_evaluate_in_field_is_ring_hom(a, b):
    f = get_field(11)
    pt = (3, 7)  # units mod 11
    assert (a + b).evaluate_in_field(f, pt) == f.add(
        a.evaluate_in_field(f, pt), b.evaluate_in_field(f, pt))
    assert (a * b).evaluate_in_field(f, pt) == f.mul(
        a.evaluate_in_field(f, pt), b.evaluate_in_field(f, pt))


@given(small_laurents, st.integers(1, 4))
def test_scale_exponents_multiplicative_on_monomial_products(a, k):
    m = LaurentPolynomial.monomial((1, -1), 1)
    assert (a * m).scale_exponents(k) == a.scale_exponents(k) * m.scale_exponents(k)
