import dataclasses

import pytest
from hypothesis import given, strategies as st

from param_atlas._linalg import dot, mat_vec
from param_atlas.root_datum import (
    ArithmeticContext,
    UnsupportedPresetError,
    build_group,
    dominant_representative,
    frobenius_normalizes_weyl,
    is_dominant,
    orbit_of_weight,
    prime_power_base,
    weyl_order,
)


def test_prime_power_base():
    assert prime_power_base(2) == 2
    assert prime_power_base(8) == 2
    assert prime_power_base(9) == 3
    assert prime_power_base(49) == 7
    assert prime_power_base(6) is None
    assert prime_power_base(12) is None
    assert prime_power_base(1) is None
    assert prime_power_base(0) is None


def test_arithmetic_context_validation():
    ArithmeticContext(q=4, ell=3)
    ArithmeticContext(q=3)  # ell optional
    with pytest.raises(ValueError):
        ArithmeticContext(q=6, ell=5)
    with pytest.raises(ValueError):
        ArithmeticContext(q=4, ell=2)  # ell | q
    with pytest.raises(ValueError):
        ArithmeticContext(q=3, ell=4)  # ell not prime


@pytest.mark.parametrize("family,n,rank,nroots,worder", [
    ("GL", 1, 1, 0, 1),
    ("GL", 2, 2, 2, 2),
    ("GL", 3, 3, 6, 6),
    ("SL", 2, 1, 2, 2),
    ("SL", 3, 2, 6, 6),
    ("U", 2, 2, 2, 2),
    ("U", 3, 3, 6, 6),
    ("GSp", 4, 3, 8, 8),
    ("GSp", 6, 4, 18, 48),
])
def test_preset_shapes(family, n, rank, nroots, worder):
    datum = build_group(family, n)
    assert datum.torus_rank == rank
    assert len(datum.roots) == nroots
    assert weyl_order(datum) == worder
    # W acts freely on regular weights, so a regular orbit has |W| elements
    regular = tuple(range(rank, 0, -1))
    assert all(dot(regular, coroot) != 0 for coroot in datum.coroots)
    assert len(orbit_of_weight(datum, regular)) == worder


def test_unsupported_presets():
    for family, n in [("GL", 0), ("SL", 1), ("GSp", 2), ("GSp", 8), ("U", 1), ("E", 8)]:
        with pytest.raises(UnsupportedPresetError):
            build_group(family, n)


def test_gamma_orders():
    assert build_group("GL", 3).gamma_order == 1
    assert build_group("SL", 4).gamma_order == 1
    assert build_group("GSp", 4).gamma_order == 1
    assert build_group("U", 2).gamma_order == 2
    assert build_group("U", 5).gamma_order == 2


def test_u2_frobenius_matrix():
    # e1 -> -e2, e2 -> -e1 (inversion composed with coordinate reversal)
    datum = build_group("U", 2)
    m = datum.frobenius_dual
    assert mat_vec(m, (1, 0)) == (0, -1)
    assert mat_vec(m, (0, 1)) == (-1, 0)


def test_frobenius_squares_to_identity_for_u():
    for n in (2, 3, 4, 5):
        datum = build_group("U", n)
        m = datum.frobenius_dual
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            assert mat_vec(m, mat_vec(m, e)) == e


def test_frobenius_normalizes_weyl_all_presets():
    for family, n in [("GL", 3), ("SL", 3), ("U", 2), ("U", 3), ("U", 4),
                      ("GSp", 4), ("GSp", 6)]:
        assert frobenius_normalizes_weyl(build_group(family, n))


def test_frobenius_normalizes_weyl_inner_swap_and_shear():
    gl3 = build_group("GL", 3)
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert frobenius_normalizes_weyl(dataclasses.replace(gl3, frobenius_dual=swap))
    gl2 = build_group("GL", 2)
    shear = ((1, 1), (0, 1))
    assert not frobenius_normalizes_weyl(dataclasses.replace(gl2, frobenius_dual=shear))


def test_dominant_representative_gl3():
    datum = build_group("GL", 3)
    assert dominant_representative(datum, (0, 2, 1)) == (2, 1, 0)
    assert is_dominant(datum, (2, 1, 0))
    assert not is_dominant(datum, (0, 2, 1))


def test_orbit_sizes_gsp4():
    datum = build_group("GSp", 4)
    # short weight e1: orbit {±e1, ±e2} has 4 elements
    orbit = orbit_of_weight(datum, (1, 0, 0))
    assert len(orbit) == 4


@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
def test_dominant_representative_is_in_orbit(weight):
    datum = build_group("GL", 3)
    rep = dominant_representative(datum, weight)
    assert is_dominant(datum, rep)
    assert sorted(rep) == sorted(weight)  # GL_3 Weyl group is S_3 on coordinates


@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)))
def test_orbit_contains_weight_and_its_dominant_form(weight):
    datum = build_group("GL", 3)
    orbit = orbit_of_weight(datum, weight)
    assert weight in orbit
    assert dominant_representative(datum, weight) in orbit
