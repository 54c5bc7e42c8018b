"""Exact multivariate Laurent polynomials with integer coefficients.

A polynomial is a dict mapping integer exponent tuples to nonzero Python ints,
so coefficients never overflow and equality is exact.  Exponents may be
negative; "invertible" symbols are handled at a higher level by only ever
inverting single-term monomials.

The public constructor normalizes outside input: it re-tuples every exponent
and drops zero coefficients.  The ring operations `+`, `-`, unary `-` and the
product of two polynomials build a fresh dict that already has tuple keys and
no zero coefficient, so they wrap it as it is with `_wrap`, which trusts its
input and copies nothing.  A product with an int still normalizes, because
`p * 0` makes zeros.
"""

from __future__ import annotations

from operator import add

from ._linalg import Mat, Vec, mat_vec


class LaurentPolynomial:
    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[Vec, int] | None = None):
        self.rank = rank
        self.terms: dict[Vec, int] = {tuple(e): c for e, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "LaurentPolynomial":
        return cls(rank)

    @classmethod
    def constant(cls, rank: int, value: int) -> "LaurentPolynomial":
        return cls(rank, {tuple([0] * rank): value})

    @classmethod
    def monomial(cls, exps: Vec, coeff: int = 1) -> "LaurentPolynomial":
        return cls(len(exps), {tuple(exps): coeff})

    @classmethod
    def variable(cls, rank: int, index: int) -> "LaurentPolynomial":
        exps = tuple(1 if i == index else 0 for i in range(rank))
        return cls(rank, {exps: 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return _wrap(self.rank, out)

    def __radd__(self, other: int) -> "LaurentPolynomial":
        return self + other

    def __neg__(self) -> "LaurentPolynomial":
        return _wrap(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: int) -> "LaurentPolynomial":
        return self._coerce(other) - self

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial(
                self.rank, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[Vec, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return _wrap(self.rank, out)

    def __rmul__(self, other: int) -> "LaurentPolynomial":
        return self * other

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if k < 0:
            return self.monomial_inverse() ** (-k)
        result = LaurentPolynomial.constant(self.rank, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def monomial_inverse(self) -> "LaurentPolynomial":
        """Inverse of a single-term monomial with unit coefficient."""
        if len(self.terms) != 1:
            raise ValueError("only single-term monomials are invertible")
        (e, c), = self.terms.items()
        if c not in (1, -1):
            raise ValueError("monomial coefficient must be a unit over Z")
        return LaurentPolynomial(self.rank, {tuple(-x for x in e): c})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == self._coerce(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial.constant(self.rank, other)
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return other

    # -- structure maps ----------------------------------------------------

    def apply_matrix(self, m: Mat) -> "LaurentPolynomial":
        """Pull back along a lattice map: x^lambda -> x^(m lambda)."""
        out: dict[Vec, int] = {}
        for e, c in self.terms.items():
            fe = mat_vec(m, e)
            out[fe] = out.get(fe, 0) + c
        return LaurentPolynomial(self.rank, out)

    def scale_exponents(self, k: int) -> "LaurentPolynomial":
        if k == 0:
            # every exponent lands on 0: the constant term is the sum of the coefficients
            return LaurentPolynomial.constant(self.rank, sum(self.terms.values()))
        # e -> k*e is injective, so no two terms collide
        return LaurentPolynomial(
            self.rank, {tuple(k * x for x in e): c for e, c in self.terms.items()})

    def derivative(self, index: int) -> "LaurentPolynomial":
        out: dict[Vec, int] = {}
        for e, c in self.terms.items():
            if e[index] == 0:
                continue
            ne = tuple(x - 1 if i == index else x for i, x in enumerate(e))
            out[ne] = out.get(ne, 0) + c * e[index]
        return LaurentPolynomial(self.rank, out)

    # -- evaluation --------------------------------------------------------

    def evaluate_in_field(self, field, values: tuple[int, ...]) -> int:
        """Evaluate at encoded elements of a FiniteField, one value per variable.

        `FiniteField.evaluate` reads each term off the field's log table; a
        negative power of a zero value raises ZeroDivisionError.
        """
        self._check_arity(values)
        return field.evaluate(self.terms.items(), values)

    def substitute(self, values: list["LaurentPolynomial"]) -> "LaurentPolynomial":
        """Substitute a polynomial for each variable (negative powers need monomials).

        The powers of each value are built once, one multiplication per step
        up to the largest exponent that occurs.
        """
        self._check_arity(values)
        rank = values[0].rank
        one = LaurentPolynomial.constant(rank, 1)
        powers = []
        for j, v in enumerate(values):
            used = [e[j] for e in self.terms]
            table = {0: one}
            for k in range(1, max(used, default=0) + 1):
                table[k] = table[k - 1] * v
            if min(used, default=0) < 0:
                inv = v.monomial_inverse()
                for k in range(1, 1 - min(used)):
                    table[-k] = table[1 - k] * inv
            powers.append(table)
        out: dict[Vec, int] = {}
        for e, c in self.terms.items():
            term = one
            for table, k in zip(powers, e):
                if k:
                    term = table[k] if term is one else term * table[k]
            for m, d in term.terms.items():
                out[m] = out.get(m, 0) + c * d
        return LaurentPolynomial(rank, out)

    def _check_arity(self, values) -> None:
        if len(values) != self.rank:
            raise ValueError(
                f"{len(values)} values for a polynomial in {self.rank} variables")

    # -- inspection and printing -------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def _sorted_terms(self) -> list[tuple[Vec, int]]:
        # degree-lex, leading term first
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def canonical_str(self, names: list[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = names or [f"x{i+1}" for i in range(self.rank)]
        pieces = []
        for e, c in self._sorted_terms():
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.canonical_str()})"


def _wrap(rank: int, terms: dict[Vec, int]) -> LaurentPolynomial:
    """The polynomial on `terms` as given.

    The caller vouches for tuple keys, no zero coefficient and a dict that no
    other polynomial holds.
    """
    p = object.__new__(LaurentPolynomial)
    p.rank = rank
    p.terms = terms
    return p
