"""Root data for the preset reductive groups, with Weyl groups as lattice automorphisms.

A preset is the torus weight w_a of each coordinate a of its standard
representation, written in a fixed basis of diagonal-torus characters
(`_coordinate_weights`, the one table of per-family coordinates):

* GL_n / U_n : Z^n; w_a = e_a.
* SL_n      : Z^(n-1); w_a = e_a for a < n-1 and w_(n-1) = -(e_1+...+e_(n-1)).
* GSp_2m    : Z^(m+1) for the torus diag(t_1..t_m, nu/t_m .. nu/t_1); w_a = e_a
              for a < m and w_a = nu - e_(2m-1-a) for a >= m, with the
              similitude character nu always the last coordinate.

Everything else is derived from the weights, on first use.  The roots are the
distinct w_a - w_b (a != b) in first-seen (a, b) order, and the spots of alpha
are its pairs (a, b).  The simple roots are the distinct w_i - w_(i+1), and
joins[a] is the position among them of w_a - w_(a+1), read off the weights
alone.  A root with a spot (a, b) is the sum of the simple roots joins[a:b]
when a < b and minus that of joins[b:a] when b < a.  The coroot of alpha is
the sum of E_aa - E_bb over its spots, as a cocharacter: its pairing with w_a
is its a-th diagonal entry.  A root is positive when its first spot (a, b)
has a < b, and the height of a weight lambda is <lambda, 2 rho^vee>, its
pairing with the sum of the positive coroots.

The twisted presets carry a finite group Gamma acting through `frobenius_dual`;
only Gamma of order 1 or 2 occurs (U_n uses the reversal-negation involution
e_i -> -e_(n+1-i) induced by g -> J g^{-T} J^{-1} on the diagonal torus).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, sub

from ._linalg import QQ, Mat, Vec, dot, mat_id, mat_rank, mat_vec

SUPPORTED_PRESETS = "GL_n (n>=1), SL_n (n>=2), GSp_4, GSp_6, U_n (n>=2)"


@dataclass(frozen=True)
class GroupDatum:
    """Root datum of a preset group, read off its coordinate weights, plus the dual Frobenius action.

    The roots, coroots and simple roots are derived from the weights on first
    use and then kept on the datum; equality and hashing see the fields only.
    """

    family: str                 # "GL" | "SL" | "GSp" | "U"
    n: int                      # preset size parameter (matrix size)
    weights: tuple[Vec, ...]    # torus weight of each standard coordinate
    gamma_order: int
    frobenius_dual: Mat

    @property
    def name(self) -> str:
        return f"{self.family}{self.n}"

    @property
    def torus_rank(self) -> int:
        return len(self.weights[0])

    @cached_property
    def spots(self) -> dict[Vec, tuple[tuple[int, int], ...]]:
        """Each root w_a - w_b, in first-seen (a, b) order, with all its pairs (a, b)."""
        pairs: dict[Vec, list[tuple[int, int]]] = {}
        for a, wa in enumerate(self.weights):
            for b, wb in enumerate(self.weights):
                if a != b:
                    pairs.setdefault(tuple(map(sub, wa, wb)), []).append((a, b))
        return {alpha: tuple(p) for alpha, p in pairs.items()}

    @cached_property
    def roots(self) -> tuple[Vec, ...]:
        return tuple(self.spots)

    @cached_property
    def coroots(self) -> tuple[Vec, ...]:
        """Aligned with roots: the sum of E_aa - E_bb over the root's spots, as a cocharacter."""
        rank = self.torus_rank
        # The first `rank` weight rows are unit lower triangular, so the
        # cocharacter x with <w_a, x> = h_a on those rows comes by forward
        # substitution.
        below = [(a, [(k, c) for k, c in enumerate(w[:a]) if c])
                 for a, w in enumerate(self.weights[:rank]) if any(w[:a])]
        out = []
        for pairs in self.spots.values():
            h = [0] * rank
            for a, b in pairs:
                if a < rank:
                    h[a] += 1
                if b < rank:
                    h[b] -= 1
            for a, row in below:
                h[a] -= sum(c * h[k] for k, c in row)
            out.append(tuple(h))
        return tuple(out)

    @cached_property
    def joins(self) -> tuple[int, ...]:
        """For each coordinate a < n - 1, the position in simple of w_a - w_(a+1).

        The differences are numbered in first-seen order, the order of simple,
        so no root is built.
        """
        seen: dict[Vec, int] = {}
        w = self.weights
        return tuple(seen.setdefault(tuple(map(sub, u, v)), len(seen)) for u, v in zip(w, w[1:]))

    @cached_property
    def simple(self) -> tuple[int, ...]:
        """Indices into roots of the distinct w_i - w_(i+1), in order."""
        index = {alpha: i for i, alpha in enumerate(self.spots)}
        w = self.weights
        return tuple(dict.fromkeys(index[tuple(map(sub, u, v))] for u, v in zip(w, w[1:])))

    @property
    def simple_roots(self) -> tuple[Vec, ...]:
        return tuple(self.roots[i] for i in self.simple)

    @property
    def simple_coroots(self) -> tuple[Vec, ...]:
        return tuple(self.coroots[i] for i in self.simple)

    @cached_property
    def _simple_pairs(self) -> tuple[tuple[Vec, Vec], ...]:
        """(alpha, alpha^vee) for each simple root, once the Weyl closures are known to stop.

        The datum must meet four axioms: the simple roots are linearly
        independent, each pairs to 2 with its coroot, each simple reflection
        maps the roots into the roots, and each simple coreflection maps the
        coroots into the coroots.  Then the rational lattice is the span of
        the roots, on which W acts through the finite group of root
        permutations, plus the common kernel of the simple coroots, which W
        fixes.  So every W-orbit is finite, and a height positive on every
        simple root rises at each step toward the dominant chamber.  A datum
        that fails raises ValueError here, not in a closure that never ends.
        """
        pairs = tuple(zip(self.simple_roots, self.simple_coroots))
        roots, coroots = set(self.roots), set(self.coroots)
        if mat_rank(QQ, [list(alpha) for alpha, _ in pairs]) < len(pairs):
            raise ValueError(f"{self.name} is not a root datum: the simple roots are dependent")
        for alpha, covee in pairs:
            if dot(alpha, covee) != 2:
                raise ValueError(f"{self.name} is not a root datum: simple root {alpha} "
                                 f"pairs to {dot(alpha, covee)} with its coroot")
            if any(_reflect(beta, dot(beta, covee), alpha) not in roots for beta in roots):
                raise ValueError(f"{self.name} is not a root datum: the reflection in "
                                 f"{alpha} does not map the roots into the roots")
            if any(_reflect(gamma, dot(alpha, gamma), covee) not in coroots for gamma in coroots):
                raise ValueError(f"{self.name} is not a root datum: the coreflection in "
                                 f"{covee} does not map the coroots into the coroots")
        return pairs


def _reflect(v: Vec, c: int, alpha: Vec) -> Vec:
    """v - c * alpha."""
    return tuple([x - c * a for x, a in zip(v, alpha)])


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


def _coordinate_weights(family: str, n: int) -> tuple[Vec, ...]:
    """Torus weight of each standard coordinate, in lattice coordinates."""
    if family in ("GL", "U"):
        return mat_id(n)
    if family == "SL":
        return mat_id(n - 1) + ((-1,) * (n - 1),)
    m = n // 2
    e = mat_id(m + 1)
    return e[:m] + tuple(tuple(map(sub, e[m], e[n - 1 - a])) for a in range(m, n))


def _datum(family: str, n: int) -> GroupDatum:
    """The root datum of a preset at any size."""
    weights = _coordinate_weights(family, n)
    if family == "U":
        reversal = tuple(tuple(-1 if i == n - 1 - j else 0 for j in range(n)) for i in range(n))
        return GroupDatum(family, n, weights, 2, reversal)
    return GroupDatum(family, n, weights, 1, mat_id(len(weights[0])))


def build_group(family: str, n: int) -> GroupDatum:
    """Construct a preset root datum; rejects anything outside the preset list."""
    fam = family.upper().replace("GSP", "GSp")
    if ((fam == "GL" and n >= 1) or (fam in ("SL", "U") and n >= 2)
            or (fam == "GSp" and n in (4, 6))):
        return _datum(fam, n)
    raise UnsupportedPresetError(
        f"unsupported preset {family}_{n}; supported: {SUPPORTED_PRESETS}")


def orbit_of_weight(datum: GroupDatum, weight: Vec) -> tuple[Vec, ...]:
    """W-orbit of a weight, by closure under the simple reflections only.

    Raises ValueError when the datum fails the axioms that make the orbit finite.
    """
    pairs = datum._simple_pairs
    seen = {tuple(weight)}
    queue = deque([tuple(weight)])
    while queue:
        v = queue.popleft()
        for alpha, cv in pairs:
            u = _reflect(v, dot(v, cv), alpha)
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return tuple(sorted(seen))


def is_dominant(datum: GroupDatum, weight: Vec) -> bool:
    return all(dot(weight, cv) >= 0 for cv in datum.simple_coroots)


def dominant_representative(datum: GroupDatum, weight: Vec) -> Vec:
    """The unique dominant weight in the W-orbit.

    Raises ValueError when the datum fails the axioms that make the descent stop.
    """
    v = tuple(weight)
    pairs = datum._simple_pairs
    while True:
        for alpha, cv in pairs:
            c = dot(v, cv)
            if c < 0:
                # s_alpha(v) = v - <v, alpha^vee> alpha
                v = _reflect(v, c, alpha)
                break
        else:
            return v


@lru_cache(maxsize=None)
def _rho_covector(datum: GroupDatum) -> tuple[int, ...]:
    """2 rho^vee, the sum of the positive coroots: it pairs to 2 with every simple root.

    A root is positive when its first spot (a, b) has a < b.  Used as a
    strictly positive height functional for dominance-descent rewriting.
    """
    rho = [0] * datum.torus_rank
    for ((a, b), *_), covee in zip(datum.spots.values(), datum.coroots):
        if a < b:
            rho = list(map(add, rho, covee))
    return tuple(rho)


def height(datum: GroupDatum, weight: Vec) -> int:
    """<weight, 2 rho^vee>.

    Every simple root has height 2, so the dominant weight is the unique
    highest weight of its W-orbit.
    """
    return dot(weight, _rho_covector(datum))


def frobenius_normalizes_weyl(datum: GroupDatum) -> bool:
    """Whether F W F^-1 = W for the Frobenius dual F.

    W is generated by the simple reflections and its reflections are the
    s_beta, so this holds exactly when every F s_i = s_beta F for some root
    beta.  Both sides are linear, so they are compared on the standard basis.
    """
    frob = datum.frobenius_dual
    basis = mat_id(datum.torus_rank)
    f_basis = [mat_vec(frob, e) for e in basis]
    s_beta_f = {tuple(_reflect(v, dot(v, cv), beta) for v in f_basis)
                for beta, cv in zip(datum.roots, datum.coroots)}
    return all(tuple(mat_vec(frob, _reflect(e, dot(e, cv), alpha)) for e in basis) in s_beta_f
               for alpha, cv in zip(datum.simple_roots, datum.simple_coroots))
