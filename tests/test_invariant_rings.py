"""Orbit-sum generators, Adams operations, rewriting, and fixed-ring output.

The rewrite direction (torus polynomial -> generator symbols) is checked by
round-tripping through substitution, which is an independent expansion.
"""

import ast
from fractions import Fraction
import hashlib
import itertools
from operator import add
import pathlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import param_atlas
from param_atlas import gf
import param_atlas.invariant_rings as ir
from param_atlas._linalg import QQ, mat_rank, mat_vec, solve
from param_atlas.budget import BudgetExceededError
from param_atlas.invariant_rings import (
    GeneratorSet,
    NotInvariantError,
    _generator_monomials,
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


def generator_jacobian_rank(datum, point: tuple[int, ...]) -> int:
    """Rank of the generator Jacobian at a torus point, over F_65521.

    The rank mod p is at most the rank over Q, so full rank at one point
    certifies algebraic independence of the generators.
    """
    field = gf.get_field(65521)
    gens = fundamental_invariants(datum)
    rows = [[g.derivative(j).evaluate_in_field(field, point) for j in range(datum.torus_rank)]
            for g in gens.polys]
    return mat_rank(field, rows)


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
    primes = (2, 3, 5, 7)
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
    # x1 in place of det: the W-fixed x1*x2 is no multiple of (1, 0)
    skew = GeneratorSet(datum, ("e1", "d"), (e1, LaurentPolynomial.variable(2, 0)),
                        ((1, 0), (1, 0)), None)
    with pytest.raises(NotInvariantError, match="outside the generator lattice"):
        rewrite_in_generators(datum, skew, orbit_sum(datum, (1, 1)))
    # the invertible exponent may be negative
    assert rewrite_in_generators(datum, squared, orbit_sum(datum, (-2, -2))) == (
        LaurentPolynomial.monomial((0, -1)))


@pytest.mark.parametrize("family,n", [("GL", 3), ("SL", 3), ("U", 4), ("GSp", 4), ("GSp", 6)])
def test_staircase_products_in_orbit_basis_expand_to_laurent_products(family, n):
    datum = build_group(family, n)
    gens = fundamental_invariants(datum)
    weights = gens.leading[:len(datum.simple)]
    products = _staircase_products(datum, weights)
    for stair in itertools.product(range(3), repeat=len(weights)):
        expected = LaurentPolynomial.constant(datum.torus_rank, 1)
        for gi, k in enumerate(stair):
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


def test_rewrite_rejects_more_than_one_invertible_generator():
    datum = build_group("GL", 2)
    det = LaurentPolynomial.monomial((1, 1))
    two = GeneratorSet(datum, ("e1", "d", "d2"), (orbit_sum(datum, (1, 0)), det, det * det),
                       ((1, 0), (1, 1), (2, 2)), None)
    with pytest.raises(ValueError, match="at most one invertible generator, got 2"):
        rewrite_in_generators(datum, two, det)


def test_rewrite_rejects_a_polynomial_of_the_wrong_rank():
    datum = build_group("GL", 3)
    gens = fundamental_invariants(datum)
    for rank in (2, 4):
        with pytest.raises(ValueError, match=f"rank {rank}, but GL3 has torus rank 3"):
            rewrite_in_generators(datum, gens, LaurentPolynomial.constant(rank, 1))


def test_fundamental_invariants_reject_a_non_invariant_generator(monkeypatch):
    monkeypatch.setattr(ir, "orbit_sum", lambda datum, w: LaurentPolynomial.monomial(w))
    with pytest.raises(RuntimeError, match="is not W-invariant"):
        fundamental_invariants.__wrapped__(build_group("GL", 2))


def test_package_holds_no_assert_statement():
    # python -O drops assert statements, so checks are explicit raises
    root = pathlib.Path(param_atlas.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# -- the one path per operation against the matrix and QQ forms --------------


def reference_reflection_matrix(datum, root_index):
    """s_alpha(x) = x - <x, alpha^vee> alpha as an r x r matrix."""
    alpha = datum.roots[root_index]
    covee = datum.coroots[root_index]
    r = datum.torus_rank
    return tuple(
        tuple((1 if i == j else 0) - covee[j] * alpha[i] for j in range(r))
        for i in range(r)
    )


def reference_witness(datum, f):
    for i, ridx in enumerate(datum.simple):
        if f.apply_matrix(reference_reflection_matrix(datum, ridx)) != f:
            return i
    return None


def reference_solve_integer(cols, target):
    """The integer c with sum c_j * cols[j] = target, by a solve over QQ."""
    coeffs = solve(QQ, cols, target)
    if coeffs is None:
        raise NotInvariantError("weight is outside the generator lattice")
    if any(Fraction(c).denominator != 1 for c in coeffs):
        raise NotInvariantError("weight needs fractional generator exponents")
    return [int(c) for c in coeffs]


def _parabolic_orbit_sum(datum, weight, subset):
    """Sum of x^mu over the orbit of the weight under the simple reflections in subset."""
    mats = [reference_reflection_matrix(datum, datum.simple[i]) for i in subset]
    seen, stack = {weight}, [weight]
    while stack:
        v = stack.pop()
        for m in mats:
            u = mat_vec(m, v)
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return LaurentPolynomial(datum.torus_rank, {mu: 1 for mu in seen})


@pytest.mark.parametrize("family,n", GENERATOR_PRESETS)
def test_non_invariance_witness_matches_the_reflection_matrices(family, n):
    datum = _datum(family, n)
    for g in fundamental_invariants(datum).polys:
        assert non_invariance_witness(datum, g) is None is reference_witness(datum, g)
    rng = random.Random(f"{family}{n}")
    rank, simple = datum.torus_rank, range(len(datum.simple))
    for _ in range(12):
        f = LaurentPolynomial(rank, {tuple(rng.randint(-2, 2) for _ in range(rank)):
                                     rng.randint(-3, 3) for _ in range(rng.randint(0, 4))})
        assert non_invariance_witness(datum, f) == reference_witness(datum, f)
        # invariant under a random set of simple reflections, so the witness
        # is the first one outside it that moves the weight; a sum of two
        # coordinate weights keeps the orbit under n^2 terms
        subset = [i for i in simple if rng.random() < 0.7]
        weight = tuple(map(add, *rng.sample(datum.weights, 2))) if n > 1 else datum.weights[0]
        f = _parabolic_orbit_sum(datum, weight, subset) * rng.randint(1, 3)
        assert non_invariance_witness(datum, f) == reference_witness(datum, f)


@pytest.mark.parametrize("family,n", GENERATOR_PRESETS)
def test_invertible_exponent_matches_the_rational_solve(family, n):
    datum = _datum(family, n)
    gens = fundamental_invariants(datum)
    rng = random.Random(f"{family}{n}")
    stair = (0,) * len(datum.simple)
    if not any(gens.invertible):
        # SL_n: only the zero shift has a name
        assert _generator_monomials(gens, {(stair, (0,) * datum.torus_rank): 1}) == {stair: 1}
        for _ in range(10):
            shift = tuple(rng.randint(-2, 2) for _ in range(datum.torus_rank))
            if any(shift):
                with pytest.raises(NotInvariantError, match="outside the generator cone"):
                    _generator_monomials(gens, {(stair, shift): 1})
        return
    d = gens.leading[-1]
    shifts = [tuple(c * x for x in d) for c in range(-3, 4)]
    shifts += [tuple(rng.randint(-2, 2) for _ in d) for _ in range(20)]
    shifts += [tuple(c * x + (k == j) for j, x in enumerate(d))
               for c in (-1, 2) for k in range(len(d))]
    for shift in shifts:
        try:
            expected = reference_solve_integer([d], shift)
        except NotInvariantError as exc:
            with pytest.raises(NotInvariantError, match=str(exc).removeprefix("weight ")):
                _generator_monomials(gens, {(stair, shift): 1})
        else:
            assert _generator_monomials(gens, {(stair, shift): 1}) == {stair + (expected[0],): 1}


BG_RING_GRID = ([("GL", n) for n in range(1, 5)] + [("SL", n) for n in range(2, 5)]
                + [("U", n) for n in range(2, 5)] + [("GSp", 4), ("GSp", 6)])


def test_bg_ring_grid_pinned_and_its_shifts_match_the_rational_solve(monkeypatch):
    seen = []
    monomials = ir._generator_monomials

    def recording(gens, found):
        seen.append((gens, list(found)))
        return monomials(gens, found)

    monkeypatch.setattr(ir, "_generator_monomials", recording)
    texts = [f"{fam}{n} q={q}\n" + bg_presentation(build_group(fam, n), q).canonical_text()
             for fam, n in BG_RING_GRID for q in (2, 3, 4, 5, 7, 8, 9)]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "9db0cad6616f882422ff55eec9ab1fda196ceeabbfea5b5d66a0478c21c33cfc"
    shifts = 0
    for gens, keys in seen:
        staircase = len(gens.datum.simple)
        for stair, shift in keys:
            got = monomials(gens, {(stair, shift): 1})
            if any(gens.invertible):
                expected = reference_solve_integer([gens.leading[staircase]], shift)
                assert got == {stair + tuple(expected): 1}
                shifts += 1
            else:
                assert not any(shift) and got == {stair: 1}
    assert shifts > 0
