"""Exact linear algebra: integer lattice helpers and the one elimination kernel.

Lattice matrices are row-major tuples of tuples of ints, and the lattice
helpers sit in the inner loops of Weyl-orbit walks and rewriting, so they run
their integer loops in C builtins: `sum(map(mul, u, v))` rather than a
generator per entry.  `map` stops at the shorter input, so `dot` and
`mat_vec` check the lengths themselves and raise ValueError on a mismatch.

The elimination routines (`rref`, `mat_rank`, `nullspace`, `solve`, `mat_det`,
`mat_inverse`) work over any field object with the methods `add`, `sub`,
`mul`, `neg` and `inv`, whose elements compare equal to the ints 0 and 1 at
zero and one.  `QQ` below is the rationals, and it imports `fractions` on its
first division; `gf.FiniteField` is F_{p^k} on int-encoded elements.
Matrices there are lists (or tuples) of rows.
"""

from __future__ import annotations

from operator import mul

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def mat_id(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Mat, v: Vec) -> Vec:
    lengths = set(map(len, m))
    if lengths - {len(v)}:
        raise ValueError(
            f"mat_vec of rows of lengths {sorted(lengths)} and a vector of length {len(v)}")
    return tuple([sum(map(mul, row, v)) for row in m])


def dot(u: Vec, v: Vec) -> int:
    if len(u) != len(v):
        raise ValueError(f"dot of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


class _Rationals:
    """The field Q under the field protocol; elements are ints or Fractions."""

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        # `fractions` loads `decimal`; most jobs never divide over Q
        from fractions import Fraction

        return Fraction(1, a)

    def __repr__(self) -> str:
        return "QQ"


QQ = _Rationals()


def rref(field, rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    a = [row[:] for row in rows]
    if not a:
        return a, []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(x, inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [field.sub(a[i][j], field.mul(f, a[r][j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def mat_rank(field, rows) -> int:
    return len(rref(field, rows)[1])


def nullspace(field, rows):
    """Basis of the right kernel of the matrix (list of column vectors)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def solve(field, columns, target):
    """Coefficients c with sum_j c[j] * columns[j] = target, or None if inconsistent."""
    k = len(columns)
    rows = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    red, pivots = rref(field, rows)
    if k in pivots:
        return None
    out = [0] * k
    for r, pc in enumerate(pivots):
        out[pc] = red[r][k]
    return out


def mat_det(field, rows):
    """Determinant: ad - bc at size 2, Gaussian elimination otherwise."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return field.sub(field.mul(a, d), field.mul(b, c))
    a = [row[:] for row in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = field.neg(det)
        det = field.mul(det, a[c][c])
        inv = field.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = field.mul(a[i][c], inv)
                a[i] = [field.sub(a[i][j], field.mul(f, a[c][j])) for j in range(n)]
    return det


def mat_inverse(field, rows):
    n = len(rows)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red[:n]]
