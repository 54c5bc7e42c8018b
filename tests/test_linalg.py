"""The shared elimination kernel over Q and over finite fields."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from param_atlas._linalg import (
    QQ,
    dot,
    mat_det,
    mat_inverse,
    mat_rank,
    mat_vec,
    nullspace,
    solve,
)
from param_atlas.gf import get_field

FIELDS = [QQ, get_field(7), get_field(3, 2)]


def _element(field, rng):
    # half zeros, so random matrices are often rank-deficient
    if rng.random() < 0.5:
        return 0
    if field is QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return rng.randrange(field.order)


def _matrix(field, rng, nrows, ncols):
    return [[_element(field, rng) for _ in range(ncols)] for _ in range(nrows)]


def _dot(field, u, v):
    s = 0
    for x, y in zip(u, v):
        s = field.add(s, field.mul(x, y))
    return s


def _apply(field, rows, v):
    return [_dot(field, row, v) for row in rows]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("seed", range(12))
def test_kernel_over_field(field, seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    a = _matrix(field, rng, nrows, ncols)
    kernel = nullspace(field, a)
    for v in kernel:
        assert any(x != 0 for x in v)
        assert all(x == 0 for x in _apply(field, a, v))
    assert mat_rank(field, a) + len(kernel) == ncols

    columns = [[row[j] for row in a] for j in range(ncols)]
    transpose_kernel = nullspace(field, columns)  # left kernel of a
    for target in (_apply(field, a, [_element(field, rng) for _ in range(ncols)]),
                   [_element(field, rng) for _ in range(nrows)]):
        coeffs = solve(field, columns, target)
        if coeffs is None:
            # certificate of inconsistency: y a = 0 and y . target != 0
            assert any(_dot(field, y, target) != 0 for y in transpose_kernel)
        else:
            assert _apply(field, a, coeffs) == target

    square = _matrix(field, rng, ncols, ncols)
    if mat_det(field, square) == 0:
        with pytest.raises(ZeroDivisionError):
            mat_inverse(field, square)
    else:
        inv = mat_inverse(field, square)
        identity = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
        cols_of_inv = [[row[j] for row in inv] for j in range(ncols)]
        product = [[_dot(field, row, col) for col in cols_of_inv] for row in square]
        assert product == identity


def _leibniz_det(field, rows):
    """sum over permutations s of sign(s) * prod_i rows[i][s(i)]."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = field.mul(term, rows[i][j])
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = field.sub(total, term) if inversions % 2 else field.add(total, term)
    return total


# zero pivots: the first column's leading entry vanishes, forcing a row swap
ZERO_PIVOT = [
    ([[0, 1], [1, 0]], -1),
    ([[0, 0], [1, 1]], 0),
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], -1),
    ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], 1),
]


@pytest.mark.parametrize("field", FIELDS + [get_field(2, 2)], ids=repr)
def test_det_matches_leibniz_expansion(field):
    """Elimination (sizes 1, 3, 4) and the closed form at size 2 against Leibniz."""
    rng = random.Random(7)
    for rows, sign in ZERO_PIVOT:
        if field is not QQ:
            rows = [[field.from_int(x) for x in row] for row in rows]
            sign = field.from_int(sign)
        assert mat_det(field, rows) == sign == _leibniz_det(field, rows), rows
    for size in (1, 2, 3, 4):
        for _ in range(40):
            rows = _matrix(field, rng, size, size)
            assert mat_det(field, rows) == _leibniz_det(field, rows), rows


# -- integer lattice helpers --------------------------------------------------


@pytest.mark.parametrize("u,v", [((1, 2), (3,)), ((1,), (2, 3)), ((), (1,)), ((1, 2, 3), (1, 2))])
def test_dot_rejects_vectors_of_different_lengths(u, v):
    with pytest.raises(ValueError):
        dot(u, v)


def test_dot_and_mat_vec_match_the_comprehension_forms():
    rng = random.Random(5)
    assert dot((), ()) == 0
    for _ in range(300):
        n = rng.randint(0, 6)
        u = tuple(rng.randint(-9, 9) for _ in range(n))
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 6)))
        assert dot(u, v) == sum(a * b for a, b in zip(u, v, strict=True))
        want = tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)
        got = mat_vec(m, v)
        assert type(got) is tuple and got == want
