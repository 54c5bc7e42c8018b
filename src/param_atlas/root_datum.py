"""Root data for the preset reductive groups, with Weyl groups as lattice automorphisms.

Character lattices are dense integer tuples in a fixed basis of diagonal-torus
characters:

* GL_n / U_n : Z^n with basis e_1..e_n (diagonal entries).
* SL_n      : Z^(n-1), basis the images of e_1..e_(n-1); the image of e_n is
              -(e_1+...+e_(n-1)).  The cocharacter basis f_i = e_i* - e_n* is
              dual to it, so the pairing is the standard dot product.
* GSp_2m    : Z^(m+1) with basis e_1..e_m, nu for the torus
              diag(t_1..t_m, nu/t_m .. nu/t_1); nu is the similitude character
              and is always the last coordinate.

The twisted presets carry a finite group Gamma acting through `frobenius_dual`;
only Gamma of order 1 or 2 occurs (U_n uses the reversal-negation involution
e_i -> -e_(n+1-i) induced by g -> J g^{-T} J^{-1} on the diagonal torus).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
import math

from ._linalg import QQ, Mat, Vec, dot, mat_id, mat_mul, mat_vec, solve

SUPPORTED_PRESETS = "GL_n (n>=1), SL_n (n>=2), GSp_4, GSp_6, U_n (n>=2)"


@dataclass(frozen=True)
class GroupDatum:
    """Root datum of a preset group, plus the dual Frobenius action."""

    family: str                 # "GL" | "SL" | "GSp" | "U"
    n: int                      # preset size parameter (matrix size)
    torus_rank: int
    roots: tuple[Vec, ...]
    coroots: tuple[Vec, ...]    # aligned with roots
    simple: tuple[int, ...]     # indices into roots
    gamma_order: int
    frobenius_dual: Mat

    @property
    def name(self) -> str:
        return f"{self.family}{self.n}"

    @property
    def simple_roots(self) -> tuple[Vec, ...]:
        return tuple(self.roots[i] for i in self.simple)

    @property
    def simple_coroots(self) -> tuple[Vec, ...]:
        return tuple(self.coroots[i] for i in self.simple)


class UnsupportedPresetError(ValueError):
    pass


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def prime_power_base(q: int) -> int | None:
    """Return p when q = p^e with p prime and e >= 1, else None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return q if _is_prime(q) else None
        if q % p == 0:
            m = q
            while m % p == 0:
                m //= p
            return p if m == 1 else None
    return None


@dataclass(frozen=True)
class ArithmeticContext:
    """Residue cardinality q and an optional coefficient characteristic ell."""

    q: int
    ell: int | None = None

    def __post_init__(self) -> None:
        p = prime_power_base(self.q)
        if p is None:
            raise ValueError(f"q must be a prime power >= 2, got {self.q}")
        if self.ell is not None:
            if not _is_prime(self.ell):
                raise ValueError(f"ell must be prime, got {self.ell}")
            if self.ell == p:
                raise ValueError(f"ell must not divide q (q = {self.q}, ell = {self.ell})")


def _gl_datum(family: str, n: int, gamma_order: int, frobenius: Mat) -> GroupDatum:
    roots, coroots, simple = [], [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            root = tuple(1 if k == i else -1 if k == j else 0 for k in range(n))
            roots.append(root)
            coroots.append(root)
            if j == i + 1:
                simple.append(len(roots) - 1)
    return GroupDatum(family, n, n, tuple(roots), tuple(coroots), tuple(simple),
                      gamma_order, frobenius)


def _sl_datum(n: int) -> GroupDatum:
    r = n - 1

    def ebar(k: int) -> Vec:
        if k < r:
            return tuple(1 if j == k else 0 for j in range(r))
        return tuple(-1 for _ in range(r))

    def fstar(i: int, j: int) -> Vec:
        # e_i* - e_j* in the basis f_k = e_k* - e_n*
        out = [0] * r
        if i < r:
            out[i] += 1
        if j < r:
            out[j] -= 1
        return tuple(out)

    roots, coroots, simple = [], [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            roots.append(tuple(a - b for a, b in zip(ebar(i), ebar(j))))
            coroots.append(fstar(i, j))
            if j == i + 1:
                simple.append(len(roots) - 1)
    return GroupDatum("SL", n, r, tuple(roots), tuple(coroots), tuple(simple),
                      1, mat_id(r))


def _gsp_datum(n: int) -> GroupDatum:
    m = n // 2
    rank = m + 1

    def vec(coeffs: dict[int, int]) -> Vec:
        return tuple(coeffs.get(k, 0) for k in range(rank))

    roots, coroots, simple = [], [], []

    def add(root: Vec, coroot: Vec) -> None:
        roots.append(root)
        coroots.append(coroot)

    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            add(vec({i: 1, j: -1}), vec({i: 1, j: -1}))
            if j == i + 1:
                simple.append(len(roots) - 1)
    for i in range(m):
        for j in range(i + 1, m):
            add(vec({i: 1, j: 1, m: -1}), vec({i: 1, j: 1}))
            add(vec({i: -1, j: -1, m: 1}), vec({i: -1, j: -1}))
    for i in range(m):
        add(vec({i: 2, m: -1}), vec({i: 1}))
        if i == m - 1:
            simple.append(len(roots) - 1)
        add(vec({i: -2, m: 1}), vec({i: -1}))
    return GroupDatum("GSp", n, rank, tuple(roots), tuple(coroots), tuple(simple),
                      1, mat_id(rank))


def build_group(family: str, n: int) -> GroupDatum:
    """Construct a preset root datum; rejects anything outside the preset list."""
    fam = family.upper().replace("GSP", "GSp")
    if fam == "GL" and n >= 1:
        return _gl_datum("GL", n, 1, mat_id(n))
    if fam == "SL" and n >= 2:
        return _sl_datum(n)
    if fam == "GSp" and n in (4, 6):
        return _gsp_datum(n)
    if fam == "U" and n >= 2:
        frob = tuple(tuple(-1 if i == n - 1 - j else 0 for j in range(n))
                     for i in range(n))
        return _gl_datum("U", n, 2, frob)
    raise UnsupportedPresetError(
        f"unsupported preset {family}_{n}; supported: {SUPPORTED_PRESETS}")


def reflection_matrix(datum: GroupDatum, root_index: int) -> Mat:
    """Matrix of s_alpha(x) = x - <x, alpha^vee> alpha on the character lattice."""
    alpha = datum.roots[root_index]
    covee = datum.coroots[root_index]
    r = datum.torus_rank
    return tuple(
        tuple((1 if i == j else 0) - covee[j] * alpha[i] for j in range(r))
        for i in range(r)
    )


def weyl_order(datum: GroupDatum) -> int:
    if datum.family in ("GL", "SL", "U"):
        return math.factorial(datum.n)
    m = datum.n // 2
    return (2 ** m) * math.factorial(m)


def orbit_of_weight(datum: GroupDatum, weight: Vec) -> tuple[Vec, ...]:
    """W-orbit of a weight, by closure under the simple reflections only."""
    gens = [reflection_matrix(datum, i) for i in datum.simple]
    seen = {tuple(weight)}
    queue = deque([tuple(weight)])
    while queue:
        v = queue.popleft()
        for g in gens:
            u = mat_vec(g, v)
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return tuple(sorted(seen))


def is_dominant(datum: GroupDatum, weight: Vec) -> bool:
    return all(dot(weight, cv) >= 0 for cv in datum.simple_coroots)


def dominant_representative(datum: GroupDatum, weight: Vec) -> Vec:
    """The unique dominant weight in the W-orbit."""
    v = tuple(weight)
    pairs = tuple(zip(datum.simple_roots, datum.simple_coroots))
    while True:
        for alpha, cv in pairs:
            c = dot(v, cv)
            if c < 0:
                # s_alpha(v) = v - <v, alpha^vee> alpha
                v = tuple(x - c * a for x, a in zip(v, alpha))
                break
        else:
            return v


@lru_cache(maxsize=None)
def _rho_covector(datum: GroupDatum) -> tuple[int, ...]:
    """An integer coweight pairing to the same positive integer with every simple root.

    The rational solution of <alpha_i, rho> = 1 inside the span of the simple
    coroots (via the Cartan matrix), scaled by the LCM of its denominators;
    used as a strictly positive height functional for dominance-descent
    rewriting.
    """
    simples = datum.simple_roots
    cosimples = datum.simple_coroots
    k = len(simples)
    if k == 0:
        return tuple(0 for _ in range(datum.torus_rank))
    # column j of the Cartan matrix <alpha_i, alpha_j^vee>
    cartan_cols = [[dot(simples[i], cosimples[j]) for i in range(k)] for j in range(k)]
    coeffs = solve(QQ, cartan_cols, [1] * k)
    scale = math.lcm(*(c.denominator for c in coeffs))
    return tuple(
        sum(int(c * scale) * cv[idx] for c, cv in zip(coeffs, cosimples))
        for idx in range(datum.torus_rank))


def height(datum: GroupDatum, weight: Vec) -> int:
    """<weight, rho> for the integer rho covector.

    Every simple root has the same positive height, so the dominant weight is
    the unique highest weight of its W-orbit.
    """
    return dot(weight, _rho_covector(datum))


def frobenius_normalizes_weyl(datum: GroupDatum) -> bool:
    """Whether F W F^-1 = W for the Frobenius dual F.

    W is generated by the simple reflections and its reflections are the
    s_beta, so this holds exactly when every F s_i = s_beta F for some root beta.
    """
    frob = datum.frobenius_dual
    s_beta_f = {mat_mul(reflection_matrix(datum, b), frob) for b in range(len(datum.roots))}
    return all(mat_mul(frob, reflection_matrix(datum, i)) in s_beta_f for i in datum.simple)
