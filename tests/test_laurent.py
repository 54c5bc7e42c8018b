"""Exact Laurent polynomial arithmetic in lattice exponents."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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


def assert_normal(p):
    """The invariants the ring operations hand on: tuple keys, no zero coefficient."""
    assert all(type(e) is tuple and len(e) == p.rank for e in p.terms), p.terms
    assert all(p.terms.values()), p.terms


X_PLUS_1 = lp(2, {(1, 0): 1, (0, 0): 1})
X_MINUS_1 = lp(2, {(1, 0): 1, (0, 0): -1})


@given(small_laurents, small_laurents, small_laurents)
@example(X_PLUS_1, -X_PLUS_1, X_MINUS_1)  # a + b cancels to zero
@example(X_PLUS_1, X_MINUS_1, X_PLUS_1)   # a * b = x^2 - 1: the x terms cancel
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    for p in (a + b, a - b, -a, a * b, (a + b) * c, a * 0, a * 3):
        assert_normal(p)


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


def test_mul_rejects_a_rank_mismatch_like_add():
    x2 = LaurentPolynomial.variable(2, 0)
    x1 = LaurentPolynomial.variable(1, 0)
    with pytest.raises(ValueError, match="rank mismatch"):
        x2 + x1
    with pytest.raises(ValueError, match="rank mismatch"):
        x2 * x1
    with pytest.raises(ValueError, match="rank mismatch"):
        x1 * x2


# -- the ring operations against a plain-dict reference ------------------------


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_pow(a, k, rank):
    out = {(0,) * rank: 1}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _random_terms(rng, rank):
    # small exponents and coefficients, so products often cancel
    return {tuple(rng.randint(-2, 2) for _ in range(rank)): rng.randint(-3, 3)
            for _ in range(rng.randint(0, 5))}


def test_ring_operations_match_a_dict_reference_with_cancellation():
    rng = random.Random(23)
    cancelled = {"add": 0, "mul": 0}
    for _ in range(600):
        rank = rng.randint(1, 3)
        ta = _random_terms(rng, rank)
        tb = _random_terms(rng, rank)
        if rng.random() < 0.5:
            # force cancellation in a + b: b takes the negatives of some of a's terms
            for e, c in ta.items():
                if rng.random() < 0.5:
                    tb[e] = -c
        else:
            # force cancellation in a * b, as in (x + y)(x - y): with t = r + s - p,
            # the pairs (p, t) and (r, s) land on one exponent with opposite signs
            p, r, s = (tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(3))
            t = tuple(x + y - z for x, y, z in zip(r, s, p))
            c, d = rng.choice((-2, -1, 1, 2)), rng.choice((-1, 1, 3))
            ta[p] = ta[r] = c
            tb[s], tb[t] = d, -d
        a, b = LaurentPolynomial(rank, ta), LaurentPolynomial(rank, tb)
        ta = {e: c for e, c in ta.items() if c}
        tb = {e: c for e, c in tb.items() if c}
        neg_b = {e: -c for e, c in tb.items()}
        k = rng.randint(0, 4)
        cases = [
            (a + b, _ref_add(ta, tb)),
            (a - b, _ref_add(ta, neg_b)),
            (-a, {e: -c for e, c in ta.items()}),
            (a * b, _ref_mul(ta, tb)),
            (a ** k, _ref_pow(ta, k, rank)),
        ]
        for got, want in cases:
            assert got.rank == rank
            assert got.terms == want, (ta, tb, k)
            assert_normal(got)
        cancelled["add"] += len(_ref_add(ta, tb)) < len(set(ta) | set(tb))
        cancelled["mul"] += len(_ref_mul(ta, tb)) < len({
            tuple(x + y for x, y in zip(e1, e2)) for e1 in ta for e2 in tb})
    # the cancelling paths were really taken, many times over
    assert cancelled["add"] > 100 and cancelled["mul"] > 100, cancelled


def test_results_do_not_share_their_terms_with_an_operand():
    a = lp(2, {(1, 0): 2, (0, -1): -1})
    b = lp(2, {(0, 1): 1, (0, 0): 3})
    before = dict(a.terms)
    for result in (a + 0, 0 + a, a - 0, -a, a * b, b * a, a * 1, 1 * a, a ** 1, a + b - b):
        assert result.terms is not a.terms
        result.terms[(9, 9)] = 1
        result.terms.clear()
        assert a.terms == before


def test_product_with_zero_has_no_terms():
    p = lp(3, {(1, 0, -1): 4, (0, 2, 0): -1})
    assert (p * 0).terms == {}
    assert (0 * p).terms == {}
    assert (p * LaurentPolynomial.zero(3)).terms == {}
