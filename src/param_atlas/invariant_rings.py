"""Weyl-invariant rings of the preset tori and their q-power fixed rings.

The invariant ring of the character lattice has a Z-basis of orbit sums
indexed by dominant weights.  The preset generator sets are orbit sums of the
staircase weights e_1+...+e_k (one per simple root, in order) together with an
invertible monomial generator where the preset has one (det for GL_n/U_n, the
similitude nu for GSp).  Rewriting an invariant polynomial in the generators
is elimination along the dominance order: repeatedly subtract the generator
monomial whose expansion matches the dominance-maximal term.

The fixed ring of Fr^{-1}[q] acting on the invariant ring is presented by one
relation per generator: rewrite(adams(Fr-pullback(g), q)) - g for each
non-similitude generator, and nu^{q-1} - 1 for the similitude coordinate
(an invertible coordinate with x^q = x cuts out the (q-1)-th roots of unity).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import itertools

from ._linalg import QQ, Vec, dot, mat_rank, solve
from .budget import check_budget
from .laurent import LaurentPolynomial
from .root_datum import (
    GroupDatum,
    dominant_representative,
    height,
    is_dominant,
    orbit_of_weight,
    prime_power_base,
    reflection_matrix,
)

_REWRITE_CAP = 200_000


class NotInvariantError(ValueError):
    """Raised when rewriting is attempted on a non-invariant polynomial."""


@dataclass(frozen=True)
class GeneratorSet:
    datum: GroupDatum
    names: tuple[str, ...]
    polys: tuple[LaurentPolynomial, ...]
    invertible: tuple[bool, ...]
    leading: tuple[Vec, ...]          # dominant leading weight per generator
    staircase: tuple[int, ...]        # generator indices aligned with simple roots
    similitude_index: int | None

    def __len__(self) -> int:
        return len(self.names)


def orbit_sum(datum: GroupDatum, weight: Vec) -> LaurentPolynomial:
    """Sum of x^mu over the W-orbit of the weight, each with coefficient 1."""
    return LaurentPolynomial(
        datum.torus_rank, {mu: 1 for mu in orbit_of_weight(datum, weight)})


def non_invariance_witness(datum: GroupDatum, f: LaurentPolynomial) -> int | None:
    """Index of a simple reflection moving f, or None when f is W-invariant."""
    for i, ridx in enumerate(datum.simple):
        if f.apply_matrix(reflection_matrix(datum, ridx)) != f:
            return i
    return None


def _staircase_weight(datum: GroupDatum, k: int) -> Vec:
    # e_1 + ... + e_k in the ambient coordinates of each preset
    r = datum.torus_rank
    return tuple(1 if i < k else 0 for i in range(r))


@lru_cache(maxsize=None)
def fundamental_invariants(datum: GroupDatum) -> GeneratorSet:
    fam = datum.family
    if fam in ("GL", "U"):
        n = datum.n
        names = ("x",) if (fam == "GL" and n == 1) else tuple(f"e{k}" for k in range(1, n + 1))
        weights = [_staircase_weight(datum, k) for k in range(1, n + 1)]
        polys = tuple(orbit_sum(datum, w) for w in weights)
        invertible = tuple(k == n for k in range(1, n + 1))
        staircase = tuple(range(n - 1))
        sim = None
    elif fam == "SL":
        n = datum.n
        names = ("c",) if n == 2 else tuple(f"c{k}" for k in range(1, n))
        weights = [_staircase_weight(datum, k) for k in range(1, n)]
        polys = tuple(orbit_sum(datum, w) for w in weights)
        invertible = tuple(False for _ in weights)
        staircase = tuple(range(n - 1))
        sim = None
    elif fam == "GSp":
        m = datum.n // 2
        names = tuple(f"o{k}" for k in range(1, m + 1)) + ("nu",)
        weights = [_staircase_weight(datum, k) for k in range(1, m + 1)]
        weights.append(tuple(1 if i == m else 0 for i in range(m + 1)))
        polys = tuple(orbit_sum(datum, w) for w in weights)
        invertible = tuple([False] * m + [True])
        staircase = tuple(range(m))
        sim = m
    else:  # pragma: no cover - presets are closed
        raise ValueError(f"no generator table for family {fam}")
    for g in polys:
        assert non_invariance_witness(datum, g) is None
    leading = tuple(dominant_representative(datum, w) for w in weights)
    return GeneratorSet(datum, names, polys, tuple(invertible), leading, staircase, sim)


def adams(f: LaurentPolynomial, q: int) -> LaurentPolynomial:
    """The q-th Adams operation x^lambda -> x^(q lambda)."""
    if q < 1:
        raise ValueError(f"adams exponent must be >= 1, got {q}")
    return f.scale_exponents(q)


def frobenius_pullback(datum: GroupDatum, f: LaurentPolynomial) -> LaurentPolynomial:
    return f.apply_matrix(datum.frobenius_dual)


def _decompose_dominant(gens: GeneratorSet, lam: Vec) -> dict[int, int]:
    """Write a dominant weight as sum of staircase weights and invertible weights."""
    datum = gens.datum
    exps: dict[int, int] = {}
    residual = list(lam)
    for pos, gi in enumerate(gens.staircase):
        cv = datum.simple_coroots[pos]
        k = dot(lam, cv)
        if k < 0:
            raise NotInvariantError(f"weight {lam} is not dominant")
        if k:
            exps[gi] = k
            for idx, entry in enumerate(gens.leading[gi]):
                residual[idx] -= k * entry
    inv_indices = [i for i, inv in enumerate(gens.invertible) if inv]
    if inv_indices:
        cols = [gens.leading[i] for i in inv_indices]
        coeffs = _solve_integer(cols, tuple(residual))
        for i, c in zip(inv_indices, coeffs):
            if c:
                exps[i] = c
    elif any(residual):
        raise NotInvariantError(f"weight {lam} is outside the generator cone")
    return exps


def _solve_integer(cols: list[Vec], target: Vec) -> list[int]:
    """Solve sum c_j * cols[j] = target with integer c_j (cols independent)."""
    coeffs = solve(QQ, cols, target)
    if coeffs is None:
        raise NotInvariantError("weight is outside the generator lattice")
    if any(c.denominator != 1 for c in coeffs):
        raise NotInvariantError("weight needs fractional generator exponents")
    return [int(c) for c in coeffs]


def rewrite_in_generators(datum: GroupDatum, gens: GeneratorSet,
                          f: LaurentPolynomial) -> LaurentPolynomial:
    """Express a W-invariant Laurent polynomial in the generator symbols.

    Returns P with integer coefficients, Laurent only in invertible-flagged
    symbols, such that substituting the generator polynomials recovers f.
    """
    bad = non_invariance_witness(datum, f)
    if bad is not None:
        raise NotInvariantError(
            f"polynomial is not W-invariant: moved by simple reflection s{bad + 1}")
    nsym = len(gens)
    result = LaurentPolynomial.zero(nsym)
    work = f
    for _ in range(_REWRITE_CAP):
        if not work:
            return result
        lam = max(work.terms, key=lambda e: (height(datum, e), e))
        if not is_dominant(datum, lam):  # pragma: no cover - defensive
            raise NotInvariantError(f"leading weight {lam} is not dominant")
        coeff = work.terms[lam]
        exps = _decompose_dominant(gens, lam)
        mono = tuple(exps.get(i, 0) for i in range(nsym))
        result = result + LaurentPolynomial.monomial(mono, coeff)
        expansion = LaurentPolynomial.constant(datum.torus_rank, coeff)
        for i, k in exps.items():
            expansion = expansion * (gens.polys[i] ** k)
        work = work - expansion
    raise RuntimeError("rewrite did not terminate; generator table is broken")


def expand_in_generators(gens: GeneratorSet, p: LaurentPolynomial) -> LaurentPolynomial:
    """Substitute the generator polynomials into a symbol polynomial."""
    return p.substitute(list(gens.polys))


def generator_jacobian_rank(datum: GroupDatum, point: list[Fraction]) -> int:
    """Rank of the generator Jacobian at a rational torus point.

    Full rank at one point certifies algebraic independence of the generators.
    """
    gens = fundamental_invariants(datum)
    rows = [[Fraction(g.derivative(j).evaluate(point)) for j in range(datum.torus_rank)]
            for g in gens.polys]
    return mat_rank(QQ, rows)


# -- fixed-ring presentations ----------------------------------------------


@dataclass(frozen=True)
class RingPresentation:
    datum: GroupDatum
    q: int
    names: tuple[str, ...]
    invertible: tuple[bool, ...]
    relations: tuple[LaurentPolynomial, ...]

    def relation_strings(self) -> list[str]:
        return [r.canonical_str(list(self.names)) for r in self.relations]

    def canonical_text(self) -> str:
        inv = [n for n, i in zip(self.names, self.invertible) if i]
        lines = [
            "generators: " + ", ".join(self.names),
            "invertible: " + (", ".join(inv) if inv else "(none)"),
            "relations:",
        ]
        lines += ["  " + s for s in self.relation_strings()]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "group": self.datum.name.lower(),
            "q": self.q,
            "generators": [{"name": n, "invertible": i}
                           for n, i in zip(self.names, self.invertible)],
            "relations": self.relation_strings(),
        }


def bg_presentation(datum: GroupDatum, q: int) -> RingPresentation:
    """Present the fixed ring of Fr^{-1}[q] on the invariant ring of T.

    The construction is symbolic and works for any integer q >= 2; the
    prime-power restriction is an arithmetic-context concern, not a ring one.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q}")
    gens = fundamental_invariants(datum)
    nsym = len(gens)
    relations = []
    for i, g in enumerate(gens.polys):
        if i == gens.similitude_index:
            # nu^q = nu with nu invertible
            mono = tuple(q - 1 if j == i else 0 for j in range(nsym))
            rel = LaurentPolynomial.monomial(mono, 1) - LaurentPolynomial.constant(nsym, 1)
        else:
            moved = adams(frobenius_pullback(datum, g), q)
            sym = LaurentPolynomial.variable(nsym, i)
            rel = rewrite_in_generators(datum, gens, moved) - sym
        relations.append(rel)
    relations.sort(key=lambda r: (r.total_degree(), r._sorted_terms()))
    return RingPresentation(datum, q, gens.names, gens.invertible, tuple(relations))


def dickson_polynomial(n: int) -> LaurentPolynomial:
    """Parameter-1 Dickson polynomial: D_n(x + 1/x) = x^n + x^(-n), as a poly in one symbol."""
    c = LaurentPolynomial.variable(1, 0)
    if n == 0:
        return LaurentPolynomial.constant(1, 2)
    prev, cur = LaurentPolynomial.constant(1, 2), c
    for _ in range(n - 1):
        prev, cur = cur, c * cur - prev
    return cur


# -- finite point counts -----------------------------------------------------


@dataclass(frozen=True)
class CountReport:
    points: int
    field_order: int
    assignments: int
    multiplicity_gcd_degree: int | None


def count_points(pres: RingPresentation, ell: int, k: int = 1,
                 budget: int | None = None) -> CountReport:
    """Count solutions of the presentation over F_{ell^k} by exhaustion."""
    from .gf import FiniteField, poly_derivative, poly_gcd_degree

    field = FiniteField(ell, k)
    order = field.order
    ranges = [range(1, order) if inv else range(order) for inv in pres.invertible]
    total = 1
    for r in ranges:
        total *= len(r)
    check_budget(total, f"point count over F_{order}", budget)
    count = 0
    for values in itertools.product(*ranges):
        ok = True
        for rel in pres.relations:
            if rel.evaluate_in_field(field, values) != 0:
                ok = False
                break
        if ok:
            count += 1
    mult = None
    if len(pres.names) == 1 and len(pres.relations) == 1:
        rel = pres.relations[0]
        shift = -min((e[0] for e in rel.terms), default=0)
        shift = max(shift, 0)
        deg = max((e[0] for e in rel.terms), default=0) + shift
        coeffs = [0] * (deg + 1)
        for (e,), c in rel.terms.items():
            coeffs[e + shift] = field.from_int(c)
        mult = poly_gcd_degree(field, coeffs, poly_derivative(field, coeffs))
    return CountReport(count, order, total, mult)
