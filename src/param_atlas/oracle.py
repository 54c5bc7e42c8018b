"""Brute-force and pointwise validators over small finite fields.

Everything here is an independent shadow of the symbolic modules: exhaustive
commutation solving, twisted-orbit enumeration, eigenvalue avoidance, and
Jacobian rank probes.  Commutation solving walks the kernel of the linear
equation one line at a time, and one membership test per line decides all
|F| - 1 unit multiples of its representative.  Nothing imports results from
the census or the ring presentations except as the object under test;
twisted-orbit enumeration refuses twists that are not automorphisms through
`ExplicitGroup.automorphism_images`, the check `twisted_class_count` makes, and
the tests check its homomorphism test against the all-pairs definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Optional, Sequence

from . import gf
from ._linalg import solve
from .budget import check_budget
from .census import ExplicitGroup
from .coverage import StandardLevi
from .gf import FiniteField
from .invariant_rings import (
    adams,
    bg_presentation,
    frobenius_pullback,
    fundamental_invariants,
    rewrite_in_generators,
)
from .root_datum import GroupDatum, build_group

Matrix = tuple[tuple[int, ...], ...]


def int_matrix(field: FiniteField, rows) -> Matrix:
    """Reduce an integer matrix into the field's prime subfield."""
    return tuple(tuple(field.from_int(x) for x in row) for row in rows)


@lru_cache(maxsize=None)
def _antidiagonal_form(size: int) -> Matrix:
    """Integer antidiagonal form: +1 in the top half, -1 in the bottom half."""
    if size % 2:
        raise ValueError("symplectic form needs even size")
    return tuple(
        tuple((1 if i < size // 2 else -1) if j == size - 1 - i else 0 for j in range(size))
        for i in range(size)
    )


def symplectic_form(field: FiniteField, size: int) -> Matrix:
    """The antidiagonal form over the field."""
    return int_matrix(field, _antidiagonal_form(size))


def similitude(field: FiniteField, mat: Matrix) -> Optional[int]:
    """nu with mat^T J mat = nu J, or None if mat is not a similitude."""
    n = len(mat)
    j = symplectic_form(field, n)
    mt = tuple(zip(*mat))
    s = gf.mat_mul(field, gf.mat_mul(field, mt, j), mat)
    nu = s[0][n - 1]
    if nu == 0:
        return None
    for a in range(n):
        for b in range(n):
            if s[a][b] != field.mul(nu, j[a][b]):
                return None
    return nu


def is_member(field: FiniteField, kind: str, mat: Matrix) -> bool:
    if kind == "GL" or kind == "U":
        return gf.mat_det(field, mat) != 0
    if kind == "SL":
        return gf.mat_det(field, mat) == 1
    if kind == "GSp":
        return similitude(field, mat) is not None
    raise ValueError(f"unknown matrix group kind {kind!r}")


def is_commutant_solution(field: FiniteField, kind: str, sigma: Matrix, q: int,
                          phi: Matrix) -> bool:
    """Exact check of phi sigma phi^-1 = sigma^q plus group membership."""
    if not is_member(field, kind, phi):
        return False
    lhs = gf.mat_mul(field, phi, sigma)
    rhs = gf.mat_mul(field, gf.mat_pow(field, sigma, q), phi)
    return lhs == rhs


def _map_rows(field: FiniteField, plus, minus) -> list[list[int]]:
    """Matrix of X -> sum L X R over plus, less the same sum over minus.

    plus and minus list (L, R) pairs of n x n matrices.  Row i*n + j is entry
    (i, j) of the image and column a*n + b is X[a][b], with coefficient
    L[i][a] * R[b][j].
    """
    n = len(plus[0][0])
    terms = [(left, right, field.add) for left, right in plus]
    terms += [(left, right, field.sub) for left, right in minus]
    rows = []
    for i in range(n):
        for j in range(n):
            row = []
            for a in range(n):
                for b in range(n):
                    c = 0
                    for left, right, op in terms:
                        c = op(c, field.mul(left[i][a], right[b][j]))
                    row.append(c)
            rows.append(row)
    return rows


def solve_commutant(field: FiniteField, kind: str, sigma: Matrix, q: int,
                    budget: Optional[int] = None) -> list[Matrix]:
    """All phi in the group with phi sigma phi^-1 = sigma^q, by kernel enumeration, sorted.

    The commutation equation is linear in phi, so the solutions are the group
    members in the kernel of X -> X sigma - sigma^q X.  `_commutant_members`
    walks that kernel one line at a time under the budget; the multiples
    c * X of a line's representative X are built here, and only for the
    units c that make them members.
    """
    return sorted(
        tuple(tuple(field.mul(c, x) for x in row) for row in rep)
        for rep, scalars in _commutant_members(field, kind, sigma, q, budget)
        for c in scalars
    )


def _commutant_members(field: FiniteField, kind: str, sigma: Matrix, q: int,
                       budget: Optional[int]) -> Iterator[tuple[Matrix, Sequence[int]]]:
    """Each line of the kernel of X -> X sigma - sigma^q X that meets the group.

    Yields (X, scalars), where X is the line's representative, the kernel
    vector whose first nonzero coordinate on the kernel basis is 1, and
    scalars are the units c with c * X a member.  Every nonzero kernel
    element is c * X for exactly one unit c and one representative X, and the
    zero matrix is never a member, so the pairs give every member once.
    Membership of c * X is read off X.  For GL, U and GSp (nu(cX) = c^2 nu(X))
    every unit works when X is a member and none otherwise.  For SL, c * X is
    a member exactly when c^n = det(X)^-1, looked up in a table of n-th roots.

    There are |F|^(kernel dim) candidates, and that count is checked against
    the budget before any enumeration work, the multiples and roots tables
    included.  The walk then makes (|F|^dim - 1) / (|F| - 1) membership
    tests, one `is_member` call (for SL one determinant) per line.  The lines
    led by basis vector j are v_j plus each vector of the span of the later
    basis vectors, walked depth-first by `_span`.  The multiples table holds
    c * v for every c in F and every basis vector but the first, which is
    only ever a lead (|F| * (dim - 1) * n^2 entries); memory stays at that.
    """
    n = len(sigma)
    if not is_member(field, kind, sigma):
        raise ValueError("sigma is not a member of the group")
    one = gf.mat_identity(n)
    rows = _map_rows(field, [(one, sigma)], [(gf.mat_pow(field, sigma, q), one)])
    kernel = gf.nullspace(field, rows)
    required = field.order ** len(kernel)
    check_budget(required, "commutant kernel enumeration", budget)
    basis = [tuple(tuple(vec[i * n:(i + 1) * n]) for i in range(n)) for vec in kernel]
    # multiples[j][i][c] is row i of c * basis[j + 1]
    multiples = [
        [[tuple(field.mul(c, x) for x in row) for c in field.elements()] for row in mat]
        for mat in basis[1:]
    ]
    lines = (rep for j, lead in enumerate(basis)
             for rep in _span(multiples[j:], lead, field.add))
    units = field.units()
    if kind != "SL":
        yield from ((rep, units) for rep in lines if is_member(field, kind, rep))
        return
    roots: dict[int, list[int]] = {}
    for c in units:
        roots.setdefault(field.pow(c, n), []).append(c)
    for rep in lines:
        det = gf.mat_det(field, rep)
        scalars = roots.get(field.inv(det)) if det else None
        if scalars:
            yield rep, scalars


def _span(multiples: list, partial: Matrix, add) -> Iterator[Matrix]:
    """partial plus every sum of one multiple from each level, depth-first.

    A level lists, for each row, that row of c * v for every c in F.  Each
    level's |F| sums are built row by row and zipped into matrices.
    """
    if not multiples:
        yield partial
        return
    head, rest = multiples[0], multiples[1:]
    sums = zip(*[[tuple(map(add, row, step)) for step in steps]
                 for row, steps in zip(partial, head)])
    if not rest:
        yield from sums
        return
    for mat in sums:
        yield from _span(rest, mat, add)


def centralizer_order(field: FiniteField, kind: str, sigma: Matrix,
                      budget: Optional[int] = None) -> int:
    """|C(sigma)|: the solutions of phi sigma phi^-1 = sigma, counted, not listed.

    The same line walk and budget as `solve_commutant` at q = 1.  Each line
    adds its number of admissible units, so no solution matrix is built.
    """
    return sum(len(scalars) for _, scalars in _commutant_members(field, kind, sigma, 1, budget))


# -- pi_0 detectors -----------------------------------------------------------


@dataclass(frozen=True)
class TwistReport:
    labels: tuple[str, ...]
    assignments: tuple[str, ...]

    def counts(self) -> dict[str, int]:
        return {lab: self.assignments.count(lab) for lab in self.labels}


def _sub_identity(field: FiniteField, mat: Matrix) -> Matrix:
    return tuple(
        tuple(field.sub(x, 1 if a == b else 0) for b, x in enumerate(row))
        for a, row in enumerate(mat)
    )


def _is_zero(mat: Matrix) -> bool:
    return all(x == 0 for row in mat for x in row)


def classify_twist(field: FiniteField, kind: str, sigma: Matrix, q: int,
                   solutions: list[Matrix]) -> TwistReport:
    """Assign a component-group label to each solution.

    Detectors exist for the two classes where the presets have nontrivial
    pi_0: the regular unipotent of SL_2 and the rank-2 unipotent of GSp_4.
    Both read d = det(phi on K), K = ker(sigma - 1).  For SL_2 the label is
    d itself, the scalar phi acts by on the line K.  For GSp_4, phi N = q N phi
    with N = sigma - 1, and N maps V/K onto K, so the determinant on V/K
    normalized by q/nu is d/(q nu): the label is its sign.
    """
    n = len(sigma)
    nmat = _sub_identity(field, sigma)
    kernel = gf.nullspace(field, [list(r) for r in nmat])
    unipotent = _is_zero(gf.mat_mul(field, nmat, nmat))
    if kind == "SL" and n == 2:
        if len(kernel) != 1 or not unipotent:
            raise ValueError("detector needs a regular unipotent sigma")
    elif kind == "GSp" and n == 4:
        if len(kernel) != 2 or not unipotent:
            raise ValueError("detector needs a unipotent sigma of type (2,2)")
    else:
        raise ValueError(f"no pi_0 detector for kind {kind!r} at size {n}")
    assignments = []
    for phi in solutions:
        if not is_commutant_solution(field, kind, sigma, q, phi):
            raise ValueError("solution list contains a non-solution")
        coords = [solve(field, kernel, gf.mat_vec(field, phi, v)) for v in kernel]
        if None in coords:
            raise ValueError("solution does not preserve ker(sigma - 1)")
        d = gf.mat_det(field, coords)
        if kind == "SL":
            assignments.append(str(d))
            continue
        q_nu = field.mul(field.from_int(q), similitude(field, phi))
        if d == q_nu:
            assignments.append("+1")
        elif d == field.neg(q_nu):
            assignments.append("-1")
        else:
            raise ValueError("detector sign is not +-1; inconsistent solution")
    labels = tuple(sorted(set(assignments)))
    return TwistReport(labels, tuple(assignments))


# -- twisted orbits by raw enumeration ---------------------------------------


def twisted_orbits_bruteforce(group: ExplicitGroup, twist: Optional[Mapping[str, str]] = None,
                              budget: Optional[int] = None) -> int:
    """Number of orbits of a -> g a twist(g)^-1, by enumeration over all of G.

    The twist must be an automorphism: `ExplicitGroup.automorphism_images`
    checks it, as for `twisted_class_count`, and a twist that call has just
    accepted is not checked again.  Then this is a group action, so the orbit
    of a is its image under every g, found in one pass: |G| steps per orbit.
    """
    check_budget(group.order * group.order, "twisted orbit enumeration", budget)
    images = group.automorphism_images(twist)
    table = group.table
    twist_inv = [group.inverse[t] for t in images]
    count = 0
    seen = bytearray(group.order)
    for a in range(group.order):
        if not seen[a]:
            count += 1
            for row, t in zip(table, twist_inv):
                seen[table[row[a]][t]] = 1
    return count


def all_automorphisms(group: ExplicitGroup) -> list[dict[str, str]]:
    """Every automorphism, by extending generator images one generated subgroup at a time.

    H_i is the subgroup generated by g_0 .. g_(i-1).  A one-to-one
    homomorphism phi on H_i extends to H_(i+1) by an image of g_i of the same
    order, read through the relation pairs (ab, a, b) of H_(i+1) that
    `ExplicitGroup` records: the first pair to reach an element defines
    phi(ab) = phi(a) * phi(b), and every other pair checks that rule.  By
    Schreier's lemma the pairs suffice (see `ExplicitGroup`), so the
    extension is kept exactly when it hits no image twice and every check
    holds.  An image of g_i already in phi(H_i) is dropped at once, and a bad
    choice for g_i is never paired with any choice for later generators.
    Generator images are tried in `itertools.product` order over the
    candidates, and each map lists its elements in breadth-first order from
    the generators.
    """
    table = group.table
    gens = group.generators
    order = group.order
    # levels[i] is (new, checks): the relation pairs of H_(i+1) that define
    # an element of H_(i+1) \ H_i other than g_i, in order, and the others
    levels = []
    inside = bytearray(order)
    inside[0] = 1
    for g, pairs in zip(gens, group._relations):
        inside[g] = 1
        new, checks = [], []
        for pair in pairs:
            if inside[pair[0]]:
                checks.append(pair)
            else:
                inside[pair[0]] = 1
                new.append(pair)
        levels.append((new, checks))
    # the key order of every map: breadth first from the identity
    keys = [0]
    seen = bytearray(order)
    seen[0] = 1
    for x in keys:
        for y in map(table[x].__getitem__, gens):
            if not seen[y]:
                seen[y] = 1
                keys.append(y)
    orders = [group.element_order(a) for a in group.labels]
    candidates = [[h for h in range(order) if orders[h] == orders[g]] for g in gens]
    labels = group.labels
    phi = [0] * order
    hit = bytearray(order)
    hit[0] = 1
    out = []

    def extend(i: int) -> None:
        if i == len(gens):
            out.append({labels[y]: labels[phi[y]] for y in keys})
            return
        g = gens[i]
        new, checks = levels[i]
        for image in candidates[i]:
            if hit[image]:
                continue
            hit[image] = 1
            phi[g] = image
            mapped = 0
            for ab, a, b in new:
                z = table[phi[a]][phi[b]]
                if hit[z]:
                    break
                hit[z] = 1
                phi[ab] = z
                mapped += 1
            else:
                for ab, a, b in checks:
                    if phi[ab] != table[phi[a]][phi[b]]:
                        break
                else:
                    extend(i + 1)
            for ab, _, _ in new[:mapped]:
                hit[phi[ab]] = 0
            hit[image] = 0

    extend(0)
    return out


# -- concrete Lie algebras and the avoidance predicate ------------------------


@lru_cache(maxsize=None)
def lie_root_matrices(datum: GroupDatum) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Integer root-space matrices, aligned with datum.roots.

    The root vector of alpha is the sum over its spots (a, b), the entries
    with w_a - w_b = alpha, of s_b * s_y * E_ab, where y is the column of the
    last spot.  GL/SL/U have one spot per root and every s_b = 1, so this is
    a gl_n entry matrix.  For GSp, s_b = J[b][n-1-b] is the sign of the
    antidiagonal form at b, which makes X^T J + J X = 0; the factor s_y puts
    coefficient 1 on the last spot.
    """
    n = datum.n
    j = _antidiagonal_form(n) if datum.family == "GSp" else None
    sign = [j[b][n - 1 - b] if j else 1 for b in range(n)]
    out = []
    for spots in datum.spots.values():
        s_y = sign[spots[-1][1]]
        mat = [[0] * n for _ in range(n)]
        for a, b in spots:
            mat[a][b] = sign[b] * s_y
        out.append(tuple(map(tuple, mat)))
    return tuple(out)


@lru_cache(maxsize=None)
def lie_torus_matrices(datum: GroupDatum) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The Cartan of Lie(G): diag(w_0[k], ..., w_(n-1)[k]) for each lattice coordinate k."""
    n = datum.n
    return tuple(
        tuple(tuple(datum.weights[x][k] if x == y else 0 for y in range(n)) for x in range(n))
        for k in range(datum.torus_rank)
    )


def _root_split(datum: GroupDatum, subset: tuple[int, ...]):
    """Indices of roots in the Levi, in U (positive outside), in U^- (negative).

    A root with a spot (a, b) is the signed sum of the simple roots joining
    the coordinates between a and b; it is positive exactly when a < b.
    """
    inside, upper, lower = [], [], []
    s = set(subset)
    for idx, ((a, b), *_) in enumerate(datum.spots.values()):
        if s.issuperset(datum.joins[min(a, b):max(a, b)]):
            inside.append(idx)
        elif a < b:
            upper.append(idx)
        else:
            lower.append(idx)
    return inside, upper, lower


def _flat(mat) -> list[int]:
    return [x for row in mat for x in row]


def _ad_matrix(field: FiniteField, m: Matrix, m_inv: Matrix, basis: list[Matrix]):
    """Matrix of X -> m X m^-1 on the span of basis; None if the span leaks.

    One reduction of [basis | images]: a pivot past the basis columns means
    some image lies outside the span.
    """
    k = len(basis)
    mats = [int_matrix(field, b) for b in basis]
    images = [gf.mat_mul(field, gf.mat_mul(field, m, b), m_inv) for b in mats]
    rows = [list(r) for r in zip(*map(_flat, mats + images))]
    red, pivots = gf.rref(field, rows)
    if pivots and pivots[-1] >= k:
        return None
    out = [[0] * k for _ in range(k)]
    for r, pc in enumerate(pivots):
        out[pc] = red[r][k:]
    return out


def _share_eigenvalue(field: FiniteField, a, b) -> bool:
    """Whether a and b have a common eigenvalue over the algebraic closure."""
    return gf.poly_gcd_degree(field, gf.charpoly(field, a), gf.charpoly(field, b)) > 0


_EXPONENT_STEPS = (1, 2, 3, 4, 6, 12)


@dataclass(frozen=True)
class AvoidantReport:
    avoidant: bool
    exponent: Optional[int]
    failures: tuple[str, ...]
    window: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "avoidant": self.avoidant,
            "exponent": self.exponent,
            "failures": list(self.failures),
            "window": list(self.window),
        }


def avoidant_check(field: FiniteField, datum: GroupDatum, levi: StandardLevi, m: Matrix,
                   q: int) -> AvoidantReport:
    """Eigenvalue-separation test for a Levi point m.

    Conditions: ad_m has neither 1 nor q as an eigenvalue on Lie(U) or on
    Lie(U^-), and for some exponent r in the window, ad_{m^r} shares no
    eigenvalue between Lie(M) + Lie(U) and Lie(U^-) (and symmetrically).
    When U = 0 nothing can be shared, so m is avoidant at the first exponent.
    """
    if levi.family != datum.family or levi.n != datum.n:
        raise ValueError("Levi does not belong to this group datum")
    if not levi.gamma_stable:
        raise ValueError("avoidance is defined for gamma-stable Levis")
    if not is_member(field, datum.family, m):
        raise ValueError("m is not a member of the group")
    roots = lie_root_matrices(datum)
    torus = lie_torus_matrices(datum)
    inside, upper, lower = _root_split(datum, levi.subset)
    m_inv = gf.mat_inverse(field, m)
    levi_basis = list(torus) + [roots[i] for i in inside]
    if _ad_matrix(field, m, m_inv, levi_basis) is None:
        raise ValueError("m does not normalize the Levi")
    ad_u = _ad_matrix(field, m, m_inv, [roots[i] for i in upper])
    ad_l = _ad_matrix(field, m, m_inv, [roots[i] for i in lower])
    if ad_u is None or ad_l is None:
        raise ValueError("m does not normalize the Levi decomposition")
    failures = []
    qf = field.from_int(q)
    for name, ad in (("U", ad_u), ("U-", ad_l)):
        for s, sname in ((1, "1"), (qf, "q")):
            if _share_eigenvalue(field, ad, [[s]]):
                failures.append(f"ad_m - {sname} singular on Lie({name})")
    window = tuple(datum.gamma_order * s for s in _EXPONENT_STEPS)
    if failures:
        return AvoidantReport(False, None, tuple(failures), window)
    for r in window:
        mr = gf.mat_pow(field, m, r)
        mr_inv = gf.mat_inverse(field, mr)
        for up, down in ((upper, lower), (lower, upper)):
            half = _ad_matrix(field, mr, mr_inv, levi_basis + [roots[i] for i in up])
            opp = _ad_matrix(field, mr, mr_inv, [roots[i] for i in down])
            if _share_eigenvalue(field, half, opp):
                break
        else:
            return AvoidantReport(True, r, (), window)
    return AvoidantReport(False, None, ("no admissible exponent in the window",), window)


# -- Jacobian probe for 2x2 presets -------------------------------------------


@dataclass(frozen=True)
class JacobianReport:
    rank: int
    expected_rank: int
    kernel_dim: int
    tangent_dim: int
    image_dim: int
    submersive: bool

    @property
    def ok(self) -> bool:
        return self.submersive and self.rank == self.expected_rank

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "expected_rank": self.expected_rank,
            "kernel_dim": self.kernel_dim,
            "tangent_dim": self.tangent_dim,
            "image_dim": self.image_dim,
            "submersive": self.submersive,
            "ok": self.ok,
        }


def _adjugate2(field: FiniteField, m: Matrix) -> Matrix:
    return (
        (m[1][1], field.neg(m[0][1])),
        (field.neg(m[1][0]), m[0][0]),
    )


def jacobian_probe(field: FiniteField, kind: str, q: int, sigma: Matrix,
                   phi: Matrix) -> JacobianReport:
    """Exact Jacobian of the defining equations at a 2x2 sample (sigma, phi).

    The equations are phi sigma - sigma^q phi = 0, with det sigma = det phi = 1
    for SL.  Both blocks of the commutation rows come from `_map_rows`: the
    sigma block is X -> phi X - sum_a sigma^a X sigma^(q-1-a) phi, the phi
    block is the commutant map of `solve_commutant`.  Reports the rank
    against the smooth-point expectation and whether the characteristic
    coordinates (trace, and det for GL) map the kernel onto the tangent space
    of the fixed ring at the image point.  No numerics are involved.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q}")
    if kind not in ("SL", "GL"):
        raise ValueError("jacobian probe supports SL and GL at size 2")
    if len(sigma) != 2:
        raise ValueError("jacobian probe is 2x2 only")
    if sigma[0][1] == 0 and sigma[1][0] == 0 and sigma[0][0] == sigma[1][1]:
        raise ValueError("sigma must be regular (non-scalar)")
    if not is_member(field, kind, sigma) or not is_commutant_solution(field, kind, sigma, q, phi):
        raise ValueError("sample does not satisfy the defining equations")
    powers = [gf.mat_identity(2)]
    for _ in range(q):
        powers.append(gf.mat_mul(field, powers[-1], sigma))
    one = powers[0]
    sigma_block = _map_rows(field, [(phi, one)],
                            [(powers[a], gf.mat_mul(field, powers[q - 1 - a], phi))
                             for a in range(q)])
    phi_block = _map_rows(field, [(one, sigma)], [(powers[q], one)])
    rows = [s + p for s, p in zip(sigma_block, phi_block)]
    # d det at m in direction E_ab is adj(m)[b][a]
    adj_sigma = _adjugate2(field, sigma)
    ddet_sigma = [adj_sigma[b][a] for a in range(2) for b in range(2)]
    zeros = [0] * 4
    if kind == "SL":
        adj_phi = _adjugate2(field, phi)
        rows.append(ddet_sigma + zeros)
        rows.append(zeros + [adj_phi[b][a] for a in range(2) for b in range(2)])
    rank = gf.mat_rank(field, rows)
    kernel = gf.nullspace(field, rows)

    datum = build_group(kind, 2)
    pres = bg_presentation(datum, q)
    trace = field.add(sigma[0][0], sigma[1][1])
    det = gf.mat_det(field, sigma)
    point = (trace,) if kind == "SL" else (trace, det)
    pres_rows = [
        [rel.derivative(j).evaluate_in_field(field, point) for j in range(len(point))]
        for rel in pres.relations
    ]
    tangent = gf.nullspace(field, pres_rows)

    # the characteristic coordinates (trace, det) move with sigma only
    dch = [[1 if a == b else 0 for a in range(2) for b in range(2)] + zeros]
    if kind == "GL":
        dch.append(ddet_sigma + zeros)
    images = [gf.mat_vec(field, dch, v) for v in kernel]
    image_rank = gf.mat_rank(field, images) if images else 0
    combined = gf.mat_rank(field, images + tangent) if (images or tangent) else 0
    submersive = combined == image_rank
    rel_dim = 3 if kind == "SL" else 4
    expected = 8 - rel_dim - len(tangent)
    return JacobianReport(rank, expected, len(kernel), len(tangent), image_rank, submersive)


# -- pointwise identity trials ------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    passed: bool
    trials: int
    failure: Optional[dict]


def eval_identity_trials(datum: GroupDatum, q: int, field: FiniteField, trials: int,
                         seed: int = 0) -> IdentityReport:
    """Check rewrite(adams(Fr* g, q)) against direct evaluation at random tori."""
    gens = fundamental_invariants(datum)
    pulled = [adams(frobenius_pullback(datum, g), q) for g in gens.polys]
    rewritten = [rewrite_in_generators(datum, gens, p) for p in pulled]
    rng = random.Random(seed)
    for trial in range(trials):
        t = tuple(rng.randrange(1, field.order) for _ in range(datum.torus_rank))
        gen_values = tuple(g.evaluate_in_field(field, t) for g in gens.polys)
        for name, direct_poly, rew in zip(gens.names, pulled, rewritten):
            direct = direct_poly.evaluate_in_field(field, t)
            via = rew.evaluate_in_field(field, gen_values)
            if direct != via:
                return IdentityReport(
                    False,
                    trial + 1,
                    {"generator": name, "point": list(t), "direct": direct, "rewritten": via},
                )
    return IdentityReport(True, trials, None)


# -- seeded sample constructors ------------------------------------------------


_SAMPLE_ATTEMPTS = 500


def random_group_element(field: FiniteField, kind: str, rng: random.Random) -> Matrix:
    for _ in range(_SAMPLE_ATTEMPTS):
        if kind == "SL":
            a = rng.randrange(field.order)
            b = rng.randrange(field.order)
            c = rng.randrange(field.order)
            if a == 0:
                continue
            d = field.mul(field.add(1, field.mul(b, c)), field.inv(a))
            return ((a, b), (c, d))
        mat = tuple(
            tuple(rng.randrange(field.order) for _ in range(2)) for _ in range(2)
        )
        if is_member(field, kind, mat):
            return mat
    raise RuntimeError("could not sample a group element")  # pragma: no cover


def random_regular_element(field: FiniteField, kind: str, rng: random.Random) -> Matrix:
    while True:
        mat = random_group_element(field, kind, rng)
        if not (mat[0][1] == 0 and mat[1][0] == 0 and mat[0][0] == mat[1][1]):
            return mat


def random_torus_element(field: FiniteField, datum: GroupDatum, rng: random.Random) -> Matrix:
    """Random diagonal group element (nonzero encodings are exactly the units).

    One unit per torus coordinate; entry a is the weight of coordinate a
    (`datum.weights[a]`) evaluated at those units.
    """
    n = datum.n
    units = [rng.randrange(1, field.order) for _ in range(datum.torus_rank)]
    d = []
    for a in range(n):
        value = 1
        for u, w in zip(units, datum.weights[a]):
            value = field.mul(value, field.pow(u, w))
        d.append(value)
    return tuple(tuple(d[i] if i == j else 0 for j in range(n)) for i in range(n))
