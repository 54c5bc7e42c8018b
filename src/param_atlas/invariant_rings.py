"""Weyl-invariant rings of the preset tori and their q-power fixed rings.

The invariant ring of the character lattice has a Z-basis of orbit sums m_lam
indexed by dominant weights lam (Bourbaki, Lie VI 3.4).  The generators are
read off the datum's coordinate weights: the orbit sums of the staircase
weights w_0+...+w_(k-1), one per simple root (e_1+...+e_k in every preset),
then the determinant character over its gcd as an invertible monomial when it
is not zero.  That spans X^W: det for GL_n/U_n, the similitude nu for GSp
(det = nu^m), nothing for SL_n.  Only the names are a per-family table.

Rewriting an invariant polynomial in the generators is elimination along the
dominance order, done entirely in the orbit-sum basis {dominant lam: coeff}:
the coefficient of m_lam in f is the coefficient of x^lam, so only the
dominant terms of f are kept.  Each step takes the highest remaining lam and
subtracts its coefficient times the generator monomial with leading weight
lam.  In the orbit basis an invertible generator (a W-fixed weight) shifts
every weight, and the staircase part prod m_(omega_i)^(k_i) is memoized per
exponent tuple and built one factor at a time (`_StaircaseProducts`).
The elimination loop expands no Laurent polynomial and does integer
arithmetic only (the height that orders the weights is an integer).  Once
the loop is done, each W-fixed shift is named by the exponent of the one
invertible generator: its integer quotient by that generator's weight.

The fixed ring of Fr^{-1}[q] acting on the invariant ring is presented by one
relation per generator: rewrite(adams(Fr-pullback(g), q)) - g for each
non-similitude generator, and nu^{q-1} - 1 for the similitude coordinate
(an invertible coordinate with x^q = x cuts out the (q-1)-th roots of unity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import heapq
import itertools
import math
from operator import add

from ._linalg import Vec, dot
from .budget import check_budget
from .laurent import LaurentPolynomial
from .root_datum import (
    GroupDatum,
    _reflect,
    dominant_representative,
    height,
    is_dominant,
    orbit_of_weight,
)

_REWRITE_CAP = 200_000


class NotInvariantError(ValueError):
    """Raised when rewriting is attempted on a non-invariant polynomial."""


@dataclass(frozen=True)
class GeneratorSet:
    """Generators of the invariant ring, with their dominant leading weights.

    polys[i] is the orbit sum m_(leading[i]) for a staircase index and the
    W-fixed monomial x^(leading[i]) for an invertible one; rewriting reads
    only the leading weights.
    """

    datum: GroupDatum
    names: tuple[str, ...]
    polys: tuple[LaurentPolynomial, ...]
    leading: tuple[Vec, ...]          # dominant leading weight per generator
    similitude_index: int | None

    def __len__(self) -> int:
        return len(self.names)

    @cached_property
    def invertible(self) -> tuple[bool, ...]:
        """The first generators align with the simple roots; every later one is invertible."""
        return tuple(i >= len(self.datum.simple) for i in range(len(self.names)))


def orbit_sum(datum: GroupDatum, weight: Vec) -> LaurentPolynomial:
    """Sum of x^mu over the W-orbit of the weight, each with coefficient 1."""
    return LaurentPolynomial(
        datum.torus_rank, {mu: 1 for mu in orbit_of_weight(datum, weight)})


def non_invariance_witness(datum: GroupDatum, f: LaurentPolynomial) -> int | None:
    """Index of a simple reflection moving f, or None when f is W-invariant.

    A reflection is a bijection of the lattice, so no two terms collide.
    """
    for i, (alpha, cv) in enumerate(datum._simple_pairs):
        if {_reflect(e, dot(e, cv), alpha): c for e, c in f.terms.items()} != f.terms:
            return i
    return None


def _generator_names(datum: GroupDatum, count: int) -> tuple[str, ...]:
    """The preset names of the generators, the last one invertible where there is one."""
    fam = datum.family
    if fam == "GSp":
        return tuple(f"o{k}" for k in range(1, count)) + ("nu",)
    if count == 1 and fam in ("GL", "SL"):
        return ("x",) if fam == "GL" else ("c",)
    letter = "c" if fam == "SL" else "e"
    return tuple(f"{letter}{k}" for k in range(1, count + 1))


@lru_cache(maxsize=None)
def fundamental_invariants(datum: GroupDatum) -> GeneratorSet:
    """Orbit sums of the staircase weights, then the primitive determinant character."""
    partial = list(itertools.accumulate(datum.weights, lambda u, v: tuple(map(add, u, v))))
    weights = partial[:len(datum.simple)]
    det = partial[-1]
    if any(det):
        g = math.gcd(*det)
        weights.append(tuple(c // g for c in det))
    names = _generator_names(datum, len(weights))
    sim = len(datum.simple) if datum.family == "GSp" else None
    polys = tuple(orbit_sum(datum, w) for w in weights)
    for g in polys:
        if non_invariance_witness(datum, g) is not None:
            raise RuntimeError(f"generator {g} of {datum.name} is not W-invariant")
    leading = tuple(dominant_representative(datum, w) for w in weights)
    return GeneratorSet(datum, names, polys, leading, sim)


def adams(f: LaurentPolynomial, q: int) -> LaurentPolynomial:
    """The q-th Adams operation x^lambda -> x^(q lambda)."""
    if q < 1:
        raise ValueError(f"adams exponent must be >= 1, got {q}")
    return f.scale_exponents(q)


def frobenius_pullback(datum: GroupDatum, f: LaurentPolynomial) -> LaurentPolynomial:
    return f.apply_matrix(datum.frobenius_dual)


def _staircase_split(gens: GeneratorSet, lam: Vec) -> tuple[Vec, Vec]:
    """(k, shift) with lam = sum of k_i times the staircase weights + shift.

    k_i = <lam, alpha_i^vee>, so the shift pairs to zero with every simple
    coroot: it is W-fixed.
    """
    stair = []
    shift = list(lam)
    for cv, weight in zip(gens.datum.simple_coroots, gens.leading):
        k = dot(lam, cv)
        stair.append(k)
        for idx, entry in enumerate(weight):
            shift[idx] -= k * entry
    return tuple(stair), tuple(shift)


def _generator_monomials(gens: GeneratorSet, found: dict[tuple[Vec, Vec], int]
                         ) -> dict[Vec, int]:
    """Turn {(staircase exponents, W-fixed shift): coeff} into generator monomials.

    At most one generator follows the staircase, the invertible weight d, so
    the shift must be c * d for an integer c, read at the first k with d[k] != 0.
    """
    staircase = len(gens.datum.simple)
    if len(gens) > staircase + 1:
        raise ValueError(f"expected at most one invertible generator, got {len(gens) - staircase}")
    d = gens.leading[staircase] if len(gens) > staircase else None
    k = None if d is None else next(k for k, x in enumerate(d) if x)
    out = {}
    for (stair, shift), coeff in found.items():
        if d is None:
            if any(shift):
                raise NotInvariantError(f"weight {shift} is outside the generator cone")
            out[stair] = coeff
        elif any(s * d[k] != shift[k] * x for s, x in zip(shift, d)):
            raise NotInvariantError(f"weight {shift} is outside the generator lattice")
        elif shift[k] % d[k]:
            raise NotInvariantError(f"weight {shift} needs fractional generator exponents")
        else:
            out[stair + (shift[k] // d[k],)] = coeff
    return out


class _StaircaseProducts:
    """Products of staircase orbit sums in the orbit-sum basis {dominant weight: coeff}.

    m_lam * m_mu = sum over beta in W.mu of (|W.lam| / |W.(lam+beta)|) m_dom(lam+beta);
    one term alone need not be integral, so hits are summed per dominant
    weight before the division.  Orbit sizes and dominant representatives are
    cached per weight; orbits are kept only for the staircase weights.
    """

    def __init__(self, datum: GroupDatum, weights: tuple[Vec, ...]):
        self.datum = datum
        self.orbits = [orbit_of_weight(datum, w) for w in weights]
        self.coroots = datum.simple_coroots
        self.sizes: dict[Vec, int] = {}
        self.stabilizer_sizes: dict[tuple[bool, ...], int] = {}
        self.dominant: dict[Vec, Vec] = {}
        self.products: dict[Vec, dict[Vec, int]] = {
            (0,) * len(weights): {(0,) * datum.torus_rank: 1}}

    def orbit_size(self, lam: Vec) -> int:
        """|W.lam| for a dominant weight."""
        size = self.sizes.get(lam)
        if size is None:
            # the stabilizer of a dominant weight is generated by the simple
            # reflections fixing it, so the size depends only on which those are
            fixed = tuple(dot(lam, cv) == 0 for cv in self.coroots)
            size = self.stabilizer_sizes.get(fixed)
            if size is None:
                size = self.stabilizer_sizes[fixed] = len(orbit_of_weight(self.datum, lam))
            self.sizes[lam] = size
        return size

    def times(self, f: dict[Vec, int], i: int) -> dict[Vec, int]:
        """f * m_(staircase weight i)."""
        dominant = self.dominant
        hits: dict[Vec, int] = {}
        for lam, c in f.items():
            c *= self.orbit_size(lam)
            for beta in self.orbits[i]:
                mu = tuple(map(add, lam, beta))
                nu = dominant.get(mu)
                if nu is None:
                    nu = dominant[mu] = dominant_representative(self.datum, mu)
                hits[nu] = hits.get(nu, 0) + c
        return {nu: h // self.orbit_size(nu) for nu, h in hits.items()}

    def product(self, stair: Vec) -> dict[Vec, int]:
        """prod_i m_(staircase weight i)^stair[i], memoized per exponent tuple.

        Built one factor at a time, lowering the last non-zero exponent down
        to a memoized product.
        """
        chain = []
        while stair not in self.products:
            i = max(j for j, k in enumerate(stair) if k)
            chain.append((stair, i))
            stair = stair[:i] + (stair[i] - 1,) + stair[i + 1:]
        for key, i in reversed(chain):
            self.products[key] = self.times(self.products[stair], i)
            stair = key
        return self.products[stair]


@lru_cache(maxsize=None)
def _staircase_products(datum: GroupDatum, weights: tuple[Vec, ...]) -> _StaircaseProducts:
    return _StaircaseProducts(datum, weights)


def rewrite_in_generators(datum: GroupDatum, gens: GeneratorSet,
                          f: LaurentPolynomial) -> LaurentPolynomial:
    """Express a W-invariant Laurent polynomial in the generator symbols.

    Returns P with integer coefficients, Laurent only in invertible-flagged
    symbols, such that substituting the generator polynomials recovers f.
    The work runs in the orbit-sum basis: f is the sum of f_lam m_lam over its
    dominant weights lam, and each step subtracts the generator monomial whose
    leading weight is the highest remaining lam, in the order (height, lam).
    A step is recorded by its staircase exponents and W-fixed shift; they are
    named as generator monomials at the end.
    """
    if f.rank != datum.torus_rank:
        raise ValueError(f"polynomial has rank {f.rank}, but {datum.name} has torus rank "
                         f"{datum.torus_rank}")
    bad = non_invariance_witness(datum, f)
    if bad is not None:
        raise NotInvariantError(
            f"polynomial is not W-invariant: moved by simple reflection s{bad + 1}")
    products = _staircase_products(datum, gens.leading[:len(datum.simple)])
    work = {lam: c for lam, c in f.terms.items() if is_dominant(datum, lam)}
    # max-heap on (height, lam); entries whose weight has cancelled are skipped
    heap = [(-height(datum, lam), tuple(-x for x in lam), lam) for lam in work]
    heapq.heapify(heap)
    found: dict[tuple[Vec, Vec], int] = {}
    for _ in range(_REWRITE_CAP):
        while heap and heap[0][2] not in work:
            heapq.heappop(heap)
        if not heap:
            return LaurentPolynomial(len(gens), _generator_monomials(gens, found))
        lam = heapq.heappop(heap)[2]
        coeff = work[lam]
        stair, shift = _staircase_split(gens, lam)
        found[stair, shift] = coeff
        # the W-fixed shift is the invertible factor: m_nu * x^shift = m_(nu + shift)
        for nu, d in products.product(stair).items():
            mu = tuple(map(add, nu, shift))
            left = work.get(mu, 0) - coeff * d
            if left:
                if mu not in work:
                    heapq.heappush(heap, (-height(datum, mu), tuple(-x for x in mu), mu))
                work[mu] = left
            else:
                del work[mu]
    raise RuntimeError("rewrite did not terminate; generator table is broken")


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
    from .gf import get_field, poly_derivative, poly_gcd_degree

    field = get_field(ell, k)
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
