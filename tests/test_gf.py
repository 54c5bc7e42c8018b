"""Finite fields and exact linear algebra over them."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from param_atlas.gf import (
    FiniteField,
    charpoly,
    get_field,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_pow,
    mat_rank,
    nullspace,
    poly_derivative,
    poly_divmod,
    poly_gcd,
    poly_gcd_degree,
    rref,
)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (7, 1), (2, 4), (3, 2), (5, 2), (11, 2)])
def test_field_axioms_exhaustive_small(p, k):
    f = get_field(p, k)
    els = list(f.elements())
    if f.order > 32:
        els = els[:20] + els[-5:]
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els[:12]:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els[:6]:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


class SchoolbookField:
    """Reference arithmetic on digit polynomials: add digit-wise mod p, multiply
    the polynomials and reduce by the field's monic modulus."""

    def __init__(self, field):
        self.p, self.k, self.modulus = field.p, field.k, field.modulus

    def digits(self, a):
        return [a // self.p ** i % self.p for i in range(self.k)]

    def encode(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def add(self, a, b):
        return self.encode([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.encode([-x % self.p for x in self.digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        k = self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c, prod[i] = prod[i], 0
            for j in range(k):
                prod[i - k + j] -= c * self.modulus[j]
        return self.encode([c % self.p for c in prod[:k]])

    def pow(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


def _agree_with_schoolbook(f, pairs):
    ref = SchoolbookField(f)
    for a, b in pairs:
        assert f.add(a, b) == ref.add(a, b), (a, b)
        assert f.sub(a, b) == ref.sub(a, b), (a, b)
        assert f.mul(a, b) == ref.mul(a, b), (a, b)
        assert f.neg(a) == ref.neg(a), a
        e = b - f.order // 2
        if a:
            assert ref.mul(a, f.inv(a)) == 1, a
            if e >= 0:
                assert f.pow(a, e) == ref.pow(a, e), (a, e)
            else:
                assert ref.mul(f.pow(a, e), ref.pow(a, -e)) == 1, (a, e)
        else:
            with pytest.raises(ZeroDivisionError):
                f.inv(a)
            if e < 0:
                with pytest.raises(ZeroDivisionError):
                    f.pow(a, e)
            else:
                assert f.pow(a, e) == (1 if e == 0 else 0)


def _tables_are_consistent(f):
    n = f.order - 1
    assert sorted(f.exp[:n]) == list(f.units())
    assert f.exp[n:] == f.exp[:n]
    for a in f.elements():
        assert f.pow(a, f.order) == a


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (7, 1), (2, 4), (3, 2), (5, 2), (11, 2), (3, 3)])
def test_arithmetic_matches_schoolbook_on_all_pairs(p, k):
    f = get_field(p, k)
    _agree_with_schoolbook(f, [(a, b) for a in f.elements() for b in f.elements()])
    _tables_are_consistent(f)


@pytest.mark.parametrize("p,k", [(2, 8), (17, 2), (3, 5), (251, 1), (2, 12)])
def test_arithmetic_matches_schoolbook_on_samples(p, k):
    f = get_field(p, k)
    rng = random.Random(p ** k)
    pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(400)]
    _agree_with_schoolbook(f, pairs + [(0, b) for b, _ in pairs[:20]] + [(a, 0) for a, _ in pairs[:20]])
    _tables_are_consistent(f)


def test_largest_supported_field_builds():
    f = FiniteField(2, 16)
    g = f.exp[1]
    assert f.mul(g, f.inv(g)) == 1
    assert f.pow(g, f.order - 1) == 1 and f.pow(g, (f.order - 1) // 3) != 1
    with pytest.raises(ValueError):
        FiniteField(2, 17)


def test_frobenius_fixes_prime_subfield():
    f = get_field(3, 3)
    for a in f.elements():
        # x^(p^k) = x for all field elements
        assert f.pow(a, f.order) == a
    for c in range(3):
        e = f.from_int(c)
        assert f.pow(e, 3) == e


def test_pow_negative():
    f = get_field(7)
    assert f.pow(3, -1) == f.inv(3)
    assert f.pow(2, -3) == f.inv(f.pow(2, 3))


def test_units_are_nonzero_encodings():
    f = get_field(5, 2)
    assert list(f.units()) == list(range(1, 25))


def test_poly_divmod_and_gcd():
    f = get_field(5)
    # (x^2 - 1) = (x - 1)(x + 1)
    a = [4, 0, 1]  # x^2 - 1
    b = [4, 1]     # x - 1
    quo, rem = poly_divmod(f, a, b)
    assert rem == [0]
    assert quo == [1, 1]
    g = poly_gcd(f, a, b)
    assert g == [4, 1]  # monic normalization: x - 1 = x + 4
    assert poly_gcd_degree(f, a, b) == 1


def test_poly_derivative_char_p():
    f = get_field(3)
    # d/dx (x^3 + x) = 3x^2 + 1 = 1 in char 3
    assert poly_derivative(f, [0, 1, 0, 1]) == [1]


def test_rref_and_nullspace():
    f = get_field(7)
    rows = [[1, 2, 3], [2, 4, 6]]
    red, pivots = rref(f, rows)
    assert pivots == [0]
    assert mat_rank(f, rows) == 1
    ns = nullspace(f, rows)
    assert len(ns) == 2
    for v in ns:
        for row in rows:
            s = 0
            for x, y in zip(row, v):
                s = f.add(s, f.mul(x, y))
            assert s == 0


def test_det_inverse_roundtrip():
    f = get_field(11)
    m = [[1, 2, 0], [3, 1, 4], [0, 5, 1]]
    d = mat_det(f, m)
    assert d != 0
    inv = mat_inverse(f, m)
    assert mat_mul(f, m, inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ZeroDivisionError):
        mat_inverse(f, [[1, 2], [2, 4]])


def test_mat_pow():
    f = get_field(5)
    m = [[1, 1], [0, 1]]
    assert mat_pow(f, m, 7) == [[1, 2], [0, 1]]
    assert mat_pow(f, m, 0) == [[1, 0], [0, 1]]


mat2_f7 = st.lists(st.lists(st.integers(0, 6), min_size=2, max_size=2), min_size=2, max_size=2)
mat3_f7 = st.lists(st.lists(st.integers(0, 6), min_size=3, max_size=3), min_size=3, max_size=3)


@given(mat3_f7)
@settings(max_examples=60)
def test_cayley_hamilton(m):
    f = get_field(7)
    coeffs = charpoly(f, m)
    assert len(coeffs) == 4 and coeffs[-1] == 1  # monic degree 3
    # evaluate charpoly at the matrix itself; must vanish
    acc = [[0] * 3 for _ in range(3)]
    for c in reversed(coeffs):
        acc = mat_mul(f, acc, m)
        for i in range(3):
            acc[i][i] = f.add(acc[i][i], c)
    assert acc == [[0] * 3 for _ in range(3)]


@given(mat2_f7)
@settings(max_examples=60)
def test_charpoly_trace_det(m):
    f = get_field(7)
    coeffs = charpoly(f, m)
    # x^2 - tr x + det
    assert coeffs[2] == 1
    assert coeffs[1] == f.neg(f.add(m[0][0], m[1][1]))
    assert coeffs[0] == mat_det(f, m)


@given(mat3_f7)
@settings(max_examples=40)
def test_charpoly_constant_term_is_signed_det(m):
    f = get_field(7)
    coeffs = charpoly(f, m)
    # det(xI - A) at x=0 is (-1)^3 det A
    assert coeffs[0] == f.neg(mat_det(f, m))


def test_charpoly_over_extension_field():
    f = get_field(2, 4)
    m = [[2, 1], [1, 0]]  # 2 encodes the generator of F_16
    coeffs = charpoly(f, m)
    assert coeffs[2] == 1
    assert coeffs[1] == f.neg(f.add(m[0][0], m[1][1]))
    assert coeffs[0] == mat_det(f, m)
