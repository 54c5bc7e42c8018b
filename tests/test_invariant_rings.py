"""Orbit-sum generators, Adams operations, rewriting, and fixed-ring output.

The rewrite direction (torus polynomial -> generator symbols) is checked by
round-tripping through substitution, which is an independent expansion.
"""

from fractions import Fraction
import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from param_atlas import gf
from param_atlas._linalg import QQ, mat_rank
from param_atlas.budget import BudgetExceededError
from param_atlas.invariant_rings import (
    GeneratorSet,
    NotInvariantError,
    _staircase_products,
    adams,
    bg_presentation,
    count_points,
    dickson_polynomial,
    frobenius_pullback,
    fundamental_invariants,
    non_invariance_witness,
    orbit_sum,
    rewrite_in_generators,
)
from param_atlas.laurent import LaurentPolynomial
from param_atlas.root_datum import _datum, build_group, dominant_representative


def expand_in_generators(gens: GeneratorSet, p: LaurentPolynomial) -> LaurentPolynomial:
    """Substitute the generator polynomials into a symbol polynomial."""
    return p.substitute(list(gens.polys))


def generator_jacobian_rank(datum, point: list[Fraction]) -> int:
    """Rank of the generator Jacobian at a rational torus point.

    Full rank at one point certifies algebraic independence of the generators.
    """
    gens = fundamental_invariants(datum)
    rows = [[Fraction(g.derivative(j).evaluate(point)) for j in range(datum.torus_rank)]
            for g in gens.polys]
    return mat_rank(QQ, rows)


def test_orbit_sum_gl2():
    datum = build_group("GL", 2)
    e1 = orbit_sum(datum, (1, 0))
    assert e1 == LaurentPolynomial.variable(2, 0) + LaurentPolynomial.variable(2, 1)
    e2 = orbit_sum(datum, (1, 1))
    assert e2 == LaurentPolynomial.monomial((1, 1), 1)


def test_orbit_sum_gsp4_short_weight_has_four_terms():
    datum = build_group("GSp", 4)
    o1 = orbit_sum(datum, (1, 0, 0))
    assert len(o1.terms) == 4


def test_fundamental_invariant_names():
    assert fundamental_invariants(build_group("GL", 1)).names == ("x",)
    assert fundamental_invariants(build_group("GL", 3)).names == ("e1", "e2", "e3")
    assert fundamental_invariants(build_group("SL", 2)).names == ("c",)
    assert fundamental_invariants(build_group("SL", 3)).names == ("c1", "c2")
    assert fundamental_invariants(build_group("GSp", 4)).names == ("o1", "o2", "nu")
    assert fundamental_invariants(build_group("U", 2)).names == ("e1", "e2")


def test_invertible_flags():
    gens = fundamental_invariants(build_group("GL", 3))
    assert gens.invertible == (False, False, True)
    gens = fundamental_invariants(build_group("GSp", 4))
    assert gens.invertible == (False, False, True)
    gens = fundamental_invariants(build_group("SL", 3))
    assert gens.invertible == (False, False)


def test_generators_are_invariant():
    for family, n in [("GL", 3), ("SL", 3), ("U", 3), ("GSp", 4), ("GSp", 6)]:
        datum = build_group(family, n)
        for g in fundamental_invariants(datum).polys:
            assert non_invariance_witness(datum, g) is None


def test_generator_jacobian_full_rank():
    # full rank at one rational point certifies algebraic independence;
    # the rank can drop on special divisors, so pick a generic-looking point
    primes = [Fraction(p) for p in (2, 3, 5, 7)]
    for family, n in [("GL", 2), ("GL", 3), ("SL", 3), ("GSp", 4), ("GSp", 6), ("U", 2)]:
        datum = build_group(family, n)
        point = primes[:datum.torus_rank]
        assert generator_jacobian_rank(datum, point) == datum.torus_rank


def test_newton_identity_p2_gl2():
    datum = build_group("GL", 2)
    gens = fundamental_invariants(datum)
    p2 = orbit_sum(datum, (2, 0))  # t1^2 + t2^2
    rewritten = rewrite_in_generators(datum, gens, p2)
    # e1^2 - 2 e2
    assert rewritten == (LaurentPolynomial.variable(2, 0) ** 2
                         - LaurentPolynomial.variable(2, 1) * 2)


def test_newton_identity_p3_gl3():
    datum = build_group("GL", 3)
    gens = fundamental_invariants(datum)
    p3 = orbit_sum(datum, (3, 0, 0))
    rewritten = rewrite_in_generators(datum, gens, p3)
    e1 = LaurentPolynomial.variable(3, 0)
    e2 = LaurentPolynomial.variable(3, 1)
    e3 = LaurentPolynomial.variable(3, 2)
    assert rewritten == e1 ** 3 - e1 * e2 * 3 + e3 * 3


def test_rewrite_rejects_non_invariant():
    datum = build_group("GL", 2)
    gens = fundamental_invariants(datum)
    with pytest.raises(NotInvariantError):
        rewrite_in_generators(datum, gens, LaurentPolynomial.variable(2, 0))


def test_rewrite_rejects_weights_outside_the_generator_lattice():
    datum = build_group("GL", 2)
    e1 = orbit_sum(datum, (1, 0))
    # det^2 in place of det: x1*x2 would need the exponent 1/2
    squared = GeneratorSet(datum, ("e1", "d"), (e1, LaurentPolynomial.monomial((2, 2))),
                           ((1, 0), (2, 2)), None)
    with pytest.raises(NotInvariantError, match="fractional"):
        rewrite_in_generators(datum, squared, orbit_sum(datum, (1, 1)))
    assert rewrite_in_generators(datum, squared, orbit_sum(datum, (2, 2))) == (
        LaurentPolynomial.variable(2, 1))
    # no invertible generator at all: x1*x2 is outside the cone of e1
    bare = GeneratorSet(datum, ("e1",), (e1,), ((1, 0),), None)
    with pytest.raises(NotInvariantError, match="outside the generator cone"):
        rewrite_in_generators(datum, bare, orbit_sum(datum, (1, 1)))


@pytest.mark.parametrize("family,n", [("GL", 3), ("SL", 3), ("U", 4), ("GSp", 4), ("GSp", 6)])
def test_staircase_products_in_orbit_basis_expand_to_laurent_products(family, n):
    datum = build_group(family, n)
    gens = fundamental_invariants(datum)
    weights = tuple(gens.leading[i] for i in gens.staircase)
    products = _staircase_products(datum, weights)
    for stair in itertools.product(range(3), repeat=len(weights)):
        expected = LaurentPolynomial.constant(datum.torus_rank, 1)
        for gi, k in zip(gens.staircase, stair):
            expected = expected * gens.polys[gi] ** k
        got = LaurentPolynomial.zero(datum.torus_rank)
        for lam, c in products.product(stair).items():
            got = got + orbit_sum(datum, lam) * c
        assert got == expected, stair


@pytest.mark.parametrize("family,n", [("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3),
                                      ("U", 2), ("U", 3), ("GSp", 4),
                                      ("GL", 4), ("SL", 4), ("U", 4)])
def test_rewrite_roundtrip_on_twisted_generators(family, n):
    datum = build_group(family, n)
    gens = fundamental_invariants(datum)
    for q in (2, 3, 4, 5, 7, 8, 9):
        for g in gens.polys:
            moved = adams(frobenius_pullback(datum, g), q)
            sym = rewrite_in_generators(datum, gens, moved)
            assert expand_in_generators(gens, sym) == moved


@given(st.integers(2, 7), st.integers(2, 7))
@settings(max_examples=25, deadline=None)
def test_adams_is_multiplicative_in_q(q1, q2):
    datum = build_group("GL", 2)
    e1 = orbit_sum(datum, (1, 0))
    assert adams(adams(e1, q1), q2) == adams(e1, q1 * q2)


@given(st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_adams_ring_homomorphism(q):
    datum = build_group("GL", 2)
    a = orbit_sum(datum, (1, 0))
    b = orbit_sum(datum, (2, 1))
    assert adams(a * b, q) == adams(a, q) * adams(b, q)
    assert adams(a + b, q) == adams(a, q) + adams(b, q)


def test_adams_commutes_with_frobenius_pullback():
    for family, n in [("GL", 2), ("U", 2), ("U", 3), ("GSp", 4)]:
        datum = build_group(family, n)
        for g in fundamental_invariants(datum).polys:
            assert adams(frobenius_pullback(datum, g), 3) == frobenius_pullback(
                datum, adams(g, 3))


# -- fixed-ring presentations ------------------------------------------------


def test_sl2_q3_relation_is_golden():
    pres = bg_presentation(build_group("SL", 2), 3)
    assert pres.relation_strings() == ["c^3 - 4*c"]
    assert pres.names == ("c",)
    assert pres.invertible == (False,)


def test_gl1_relation():
    pres = bg_presentation(build_group("GL", 1), 5)
    assert pres.relation_strings() == ["x^5 - x"]
    assert pres.invertible == (True,)


def test_u2_relations():
    pres = bg_presentation(build_group("U", 2), 3)
    assert pres.relation_strings() == [
        "-e2 + e2^-3",
        "-e1 + e1^3*e2^-3 - 3*e1*e2^-2",
    ]


def test_gsp4_has_similitude_relation():
    pres = bg_presentation(build_group("GSp", 4), 3)
    assert "nu^2 - 1" in pres.relation_strings()
    assert len(pres.relations) == 3


def test_dickson_identity_small():
    # D_q(x + 1/x) = x^q + x^(-q), checked symbolically through the torus
    datum = build_group("SL", 2)
    gens = fundamental_invariants(datum)
    for q in (2, 3, 4, 5, 11):
        c = gens.polys[0]
        lhs = dickson_polynomial(q).substitute([c])
        t = LaurentPolynomial.variable(1, 0)
        assert lhs == t ** q + t ** -q


def test_bg_presentation_accepts_non_prime_power_q():
    pres = bg_presentation(build_group("SL", 2), 6)
    assert pres.relations[0] == dickson_polynomial(6) - LaurentPolynomial.variable(1, 0)
    with pytest.raises(ValueError):
        bg_presentation(build_group("SL", 2), 1)


def test_canonical_text_shape():
    text = bg_presentation(build_group("GL", 2), 2).canonical_text()
    lines = text.splitlines()
    assert lines[0] == "generators: e1, e2"
    assert lines[1] == "invertible: e2"
    assert lines[2] == "relations:"
    assert all(line.startswith("  ") for line in lines[3:])


# -- finite point counts ------------------------------------------------------


def test_count_points_sl2():
    sl2 = build_group("SL", 2)
    assert count_points(bg_presentation(sl2, 3), 5).points == 3
    assert count_points(bg_presentation(sl2, 2), 7).points == 2


def test_count_points_gl1_units_only():
    gl1 = build_group("GL", 1)
    rep = count_points(bg_presentation(gl1, 5), 3)
    # x^5 = x on units of F_3: x^4 = 1, both units qualify
    assert rep.points == 2
    assert rep.assignments == 2


def test_count_points_budget():
    gl2 = build_group("GL", 2)
    with pytest.raises(BudgetExceededError):
        count_points(bg_presentation(gl2, 3), 11, k=2, budget=10)


def test_count_points_multiplicity_detects_ramified_q():
    sl2 = build_group("SL", 2)
    # q = 8 over F_7: derivative of D_8(c) - c vanishes at some points
    rep = count_points(bg_presentation(sl2, 8), 7)
    assert rep.multiplicity_gcd_degree and rep.multiplicity_gcd_degree > 0
    rep = count_points(bg_presentation(sl2, 3), 5)
    assert rep.multiplicity_gcd_degree == 0


# -- independent point counts ---------------------------------------------------
#
# An F-point of the GL_n presentation is a monic degree-n polynomial f with
# f(0) != 0 (its coefficients are the e_k up to sign), and it satisfies the
# relations exactly when the roots of f are permuted by a -> a^q, that is
# charpoly(C_f^q) == f for the companion matrix C_f.  SL_n adds
# f(0) = (-1)^n; for U_n the Frobenius also inverts, so the test is
# charpoly((C_f^q)^-1) == f.


def _companion_count(family, n, q, field):
    one_sign = field.from_int((-1) ** n)
    count = 0
    for low in itertools.product(range(field.order), repeat=n):
        if low[0] == 0 or (family == "SL" and low[0] != one_sign):
            continue
        f = list(low) + [1]  # little-endian, like gf.charpoly
        companion = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            companion[i][n - 1] = field.neg(low[i])
        power = gf.mat_pow(field, companion, q)
        if family == "U":
            power = gf.mat_inverse(field, power)
        if gf.charpoly(field, power) == f:
            count += 1
    return count


POINT_COUNT_PINS = {("GL", 3, 9, 5, 1): 28, ("U", 4, 3, 5, 1): 60, ("SL", 3, 7, 3, 2): 5}


def _point_count_cases(seed, size):
    rng = random.Random(seed)
    cases = list(POINT_COUNT_PINS)
    while len(cases) < size:
        family = rng.choice(("GL", "SL", "U"))
        n = rng.choice((1, 2, 3, 4) if family == "GL" else (2, 3, 4))
        q = rng.choice((2, 3, 4, 5, 7, 8, 9))
        ell, k = rng.choice(((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)))
        if q % ell and (ell ** k) ** n <= 1000 and (family, n, q, ell, k) not in cases:
            cases.append((family, n, q, ell, k))
    return cases


def test_fixed_ring_point_counts_match_companion_matrices():
    start = time.perf_counter()
    for family, n, q, ell, k in _point_count_cases(seed=2302, size=30):
        field = gf.FiniteField(ell, k)
        points = count_points(bg_presentation(build_group(family, n), q), ell, k).points
        expected = _companion_count(family, n, q, field)
        assert points == expected, (family, n, q, ell, k)
        pin = POINT_COUNT_PINS.get((family, n, q, ell, k))
        assert pin is None or points == pin
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"exceeded 3.0s budget: {elapsed:.2f}s"


# -- the generators read off the datum against the per-family table -----------


def reference_generators(datum):
    """(names, invertible, leading, similitude_index) from the per-family table."""
    fam, n = datum.family, datum.n
    partial = [tuple(sum(w[i] for w in datum.weights[:k]) for i in range(datum.torus_rank))
               for k in range(1, n + 1)]
    if fam in ("GL", "U"):
        names = ("x",) if (fam, n) == ("GL", 1) else tuple(f"e{k}" for k in range(1, n + 1))
        weights, invertible, sim = partial, tuple(k == n for k in range(1, n + 1)), None
    elif fam == "SL":
        names = ("c",) if n == 2 else tuple(f"c{k}" for k in range(1, n))
        weights, invertible, sim = partial[:n - 1], (False,) * (n - 1), None
    else:
        m = n // 2
        names = tuple(f"o{k}" for k in range(1, m + 1)) + ("nu",)
        nu = tuple(a + b for a, b in zip(datum.weights[0], datum.weights[-1]))
        weights, invertible, sim = partial[:m] + [nu], (False,) * m + (True,), m
    leading = tuple(dominant_representative(datum, w) for w in weights)
    return names, invertible, leading, sim


GENERATOR_PRESETS = ([("GL", n) for n in range(1, 13)] + [("SL", n) for n in range(2, 13)]
                     + [("U", n) for n in range(2, 13)]
                     + [("GSp", n) for n in (4, 6, 8, 10, 12)])


@pytest.mark.parametrize("family,n", GENERATOR_PRESETS)
def test_generators_match_the_per_family_table(family, n):
    datum = _datum(family, n)
    gens = fundamental_invariants(datum)
    got = (gens.names, gens.invertible, gens.leading, gens.similitude_index)
    assert got == reference_generators(datum)
    assert gens.staircase == tuple(range(len(datum.simple)))


# sha256 of bg_presentation(_datum("GSp", n), q).canonical_text(), past the
# preset guard
GSP_RING_DIGESTS = {
    (8, 2): "e545dde533de78bec2b462f2c4e8d44d3346bf83b3ed8e73da7289f81a812b89",
    (8, 3): "0e2fff1d8d5d57e837a79653dd6916d5a54bf36f763941c2256370125cc9ea96",
    (8, 5): "395f7daa5fac8b8f100fc16bf426803bf73318b2af5b90266f2fdbcde2aa2d1f",
    (10, 2): "43f35597c81b6d777092696cc9abf297e932ff457b6d878c865ec7deacf23723",
}


@pytest.mark.parametrize("n,q", sorted(GSP_RING_DIGESTS))
def test_large_gsp_presentations_pinned(n, q):
    text = bg_presentation(_datum("GSp", n), q).canonical_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GSP_RING_DIGESTS[n, q]
