"""Small finite fields F_{p^k} in a polynomial basis, with exact linear algebra.

Elements are encoded as ints in [0, p^k): the base-p digits of the encoding are
the coefficients of the residue polynomial (little-endian).  Fields up to 2^16
elements are supported.  Every field, prime or not, does its arithmetic by
lookups in exp/log/Zech-logarithm tables of size O(p^k), built once from a
primitive element (Lidl & Niederreiter, *Finite Fields*, ch. 9).  Everything
downstream (commutant solving, Jacobian probes, point counts) works over these
encodings, so results are exact by construction.
Elimination (`rref`, `nullspace`, `mat_rank`, `mat_det`, `mat_inverse`) is the
field-generic kernel of `_linalg`, re-exported here.
"""

from __future__ import annotations

from functools import lru_cache

from ._linalg import mat_det, mat_inverse, mat_rank, nullspace, rref
from .root_datum import _is_prime

_ORDER_LIMIT = 1 << 16


def _poly_mul_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic
    a = a[:]
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _monic_polys(p: int, deg: int):
    for enc in range(p ** deg):
        coeffs = []
        e = enc
        for _ in range(deg):
            coeffs.append(e % p)
            e //= p
        yield coeffs + [1]


def _find_irreducible(p: int, k: int) -> list[int]:
    """Smallest monic irreducible of degree k over F_p, by trial division."""
    if k == 1:
        return [0, 1]
    for cand in _monic_polys(p, k):
        ok = True
        for d in range(1, k // 2 + 1):
            for div in _monic_polys(p, d):
                rem = _poly_rem(cand, div, p)
                if len(rem) == 1 and rem[0] == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return cand
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


class FiniteField:
    """F_{p^k} with int-encoded elements; use get_field() for the cached copy.

    Arithmetic runs on three tables built once from a primitive element g:
    `exp[i] = g^i` (stored twice over, so a sum of two logs needs no
    reduction), `log[a]` with `log[0] = -1`, and the Zech logarithms
    `zech[i] = log(1 + g^i)`, which are -1 where 1 + g^i = 0.
    """

    def __init__(self, p: int, k: int = 1):
        if not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        if k < 1:
            raise ValueError(f"field degree must be >= 1, got {k}")
        order = p ** k
        if order > _ORDER_LIMIT:
            raise ValueError(f"field order {order} exceeds the supported limit {_ORDER_LIMIT}")
        self.p = p
        self.k = k
        self.order = order
        self.modulus = _find_irreducible(p, k)
        n = order - 1
        g = self._primitive_digits()
        self.exp = exp = [0] * (2 * n)
        self.log = log = [-1] * order
        power = [1]
        for i in range(n):
            a = self._encode(power)
            exp[i] = exp[i + n] = a
            log[a] = i
            power = self._mul_digits(power, g)
        # adding 1 changes only the constant digit of the encoding
        self.zech = [log[a + 1 if a % p != p - 1 else a + 1 - p] for a in exp[:n]]
        self._log_minus_one = log[p - 1]

    def _decode(self, e: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(e % self.p)
            e //= self.p
        return out

    def _encode(self, digits: list[int]) -> int:
        e = 0
        for d in reversed(digits[: self.k]):
            e = e * self.p + d
        return e

    def _mul_digits(self, a: list[int], b: list[int]) -> list[int]:
        return _poly_rem(_poly_mul_mod_p(a, b, self.p), self.modulus, self.p)

    def _primitive_digits(self) -> list[int]:
        """Digits of the least encoding g with g^((order-1)/r) != 1 for every prime r."""
        n = self.order - 1
        cofactors = [n // r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
        for c in range(1, self.order):
            g = self._decode(c)
            if all(self._pow_digits(g, e) != [1] for e in cofactors):
                return g
        raise RuntimeError("no primitive element found")  # pragma: no cover

    def _pow_digits(self, a: list[int], e: int) -> list[int]:
        result = [1]
        while e:
            if e & 1:
                result = self._mul_digits(result, a)
            a = self._mul_digits(a, a)
            e >>= 1
        return result

    def from_int(self, c: int) -> int:
        return c % self.p

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        # a + b = a (1 + b/a); a negative index wraps, as logs live mod order - 1
        z = self.zech[self.log[b] - la]
        return self.exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        return self.exp[self.log[a] + self._log_minus_one] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero in finite field")
        return self.exp[self.order - 1 - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        if a:
            return self.exp[self.log[a] * e % (self.order - 1)]
        if e < 0:
            raise ZeroDivisionError("inverse of zero in finite field")
        return 0 if e else 1

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    def __repr__(self) -> str:
        return f"FiniteField({self.p}^{self.k})"


@lru_cache(maxsize=None)
def get_field(p: int, k: int = 1) -> FiniteField:
    return FiniteField(p, k)


# -- dense univariate polynomials over a field (little-endian coeff lists) ----


def poly_trim(coeffs: list[int]) -> list[int]:
    out = coeffs[:]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_derivative(field: FiniteField, coeffs: list[int]) -> list[int]:
    out = [field.mul(field.from_int(i), c) for i, c in enumerate(coeffs)][1:]
    return poly_trim(out or [0])


def poly_divmod(field: FiniteField, a: list[int], b: list[int]):
    a = poly_trim(a)
    b = poly_trim(b)
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(len(a) - len(b) + 1, 1)
    r = a[:]
    binv = field.inv(b[-1])
    while len(r) >= len(b) and poly_trim(r) != [0]:
        shift = len(r) - len(b)
        c = field.mul(r[-1], binv)
        q[shift] = c
        for i, bc in enumerate(b):
            r[shift + i] = field.sub(r[shift + i], field.mul(c, bc))
        r = r[:-1]
        if not r:
            r = [0]
    return poly_trim(q), poly_trim(r)


def poly_gcd(field: FiniteField, a: list[int], b: list[int]) -> list[int]:
    a, b = poly_trim(a), poly_trim(b)
    while b != [0]:
        _, r = poly_divmod(field, a, b)
        a, b = b, r
    if a != [0]:
        lead = field.inv(a[-1])
        a = [field.mul(c, lead) for c in a]
    return a


def poly_gcd_degree(field: FiniteField, a: list[int], b: list[int]) -> int:
    return len(poly_gcd(field, a, b)) - 1


# -- matrices over a field (lists of lists of encoded ints) ------------------


def mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(field: FiniteField, a, b):
    n, m, r = len(a), len(b[0]), len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(r):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(m):
                    if bk[j]:
                        oi[j] = field.add(oi[j], field.mul(x, bk[j]))
    return out


def mat_vec(field: FiniteField, a, v):
    return [
        _dot(field, row, v)
        for row in a
    ]


def _dot(field: FiniteField, row, v):
    s = 0
    for x, y in zip(row, v):
        if x and y:
            s = field.add(s, field.mul(x, y))
    return s


def mat_pow(field: FiniteField, a, e: int):
    if e < 0:
        raise ValueError(f"mat_pow needs an exponent >= 0, got {e}")
    n = len(a)
    result = mat_identity(n)
    base = [row[:] for row in a]
    while e:
        if e & 1:
            result = mat_mul(field, result, base)
        base = mat_mul(field, base, base)
        e >>= 1
    return result


def charpoly(field: FiniteField, a) -> list[int]:
    """Characteristic polynomial det(xI - A), little-endian coefficients.

    Hessenberg reduction then the standard leading-minor recurrence; works in
    any characteristic (no division by integers).
    """
    n = len(a)
    h = [row[:] for row in a]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1] != 0), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = field.inv(h[m][m - 1])
        for i in range(m + 1, n):
            if h[i][m - 1] != 0:
                f = field.mul(h[i][m - 1], inv)
                for j in range(n):
                    h[i][j] = field.sub(h[i][j], field.mul(f, h[m][j]))
                for r in range(n):
                    h[r][m] = field.add(h[r][m], field.mul(f, h[r][i]))
    # p_0 = 1; p_m = (x - h[m-1][m-1]) p_{m-1} - sum_i h[i-1][m-1] (prod subdiag) p_{i-1}
    polys = [[1]]
    for m in range(1, n + 1):
        hm = h[m - 1][m - 1]
        prev = polys[m - 1]
        cur = [0] * (m + 1)
        for i, c in enumerate(prev):
            cur[i + 1] = c
            cur[i] = field.sub(cur[i], field.mul(hm, c))
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = field.mul(prod, h[i][i - 1])
            coeff = field.mul(h[i - 1][m - 1], prod)
            if coeff:
                for j, c in enumerate(polys[i - 1]):
                    cur[j] = field.sub(cur[j], field.mul(coeff, c))
        polys.append(cur)
    return poly_trim(polys[n])
