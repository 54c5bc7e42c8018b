import dataclasses
import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from param_atlas import root_datum
from param_atlas._linalg import QQ, dot, mat_vec, solve
from param_atlas.root_datum import (
    ArithmeticContext,
    UnsupportedPresetError,
    _datum,
    _rho_covector,
    build_group,
    dominant_representative,
    frobenius_normalizes_weyl,
    height,
    is_dominant,
    orbit_of_weight,
    prime_power_base,
)


def weyl_order(datum) -> int:
    """|W|: n! for type A_(n-1), 2^m m! for GSp_2m."""
    if datum.family in ("GL", "SL", "U"):
        return math.factorial(datum.n)
    m = datum.n // 2
    return (2 ** m) * math.factorial(m)


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


def reference_normalizes_weyl(datum) -> bool:
    """F W F^-1 = W, with every reflection as an r x r matrix."""
    def reflection(i):
        alpha, covee, r = datum.roots[i], datum.coroots[i], datum.torus_rank
        return tuple(tuple((1 if a == b else 0) - covee[b] * alpha[a] for b in range(r))
                     for a in range(r))

    def mul(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)

    frob = datum.frobenius_dual
    s_beta_f = {mul(reflection(b), frob) for b in range(len(datum.roots))}
    return all(mul(frob, reflection(i)) in s_beta_f for i in datum.simple)


REFERENCE_PRESETS = ([("GL", n) for n in range(1, 13)] + [("SL", n) for n in range(2, 13)]
                     + [("U", n) for n in range(2, 13)]
                     + [("GSp", n) for n in (4, 6, 8, 10, 12)])


def test_frobenius_normalizes_weyl_matches_the_reflection_matrices():
    for family, n in REFERENCE_PRESETS:
        datum = _datum(family, n)
        assert frobenius_normalizes_weyl(datum) is reference_normalizes_weyl(datum) is True
    gl3, gl2 = build_group("GL", 3), build_group("GL", 2)
    twists = [(gl3, ((0, 1, 0), (1, 0, 0), (0, 0, 1))), (gl2, ((1, 1), (0, 1))),
              (gl2, ((0, 1), (1, 0))), (gl2, ((-1, 0), (0, -1))), (gl2, ((2, 0), (0, 1)))]
    rng = random.Random(19)
    for family, n in (("GL", 3), ("SL", 3), ("U", 3), ("GSp", 4)):
        datum = build_group(family, n)
        r = datum.torus_rank
        twists += [(datum, tuple(tuple(rng.randint(-1, 1) for _ in range(r)) for _ in range(r)))
                   for _ in range(20)]
    verdicts = set()
    for datum, frob in twists:
        twisted = dataclasses.replace(datum, frobenius_dual=frob)
        verdict = frobenius_normalizes_weyl(twisted)
        assert verdict is reference_normalizes_weyl(twisted), (datum.name, frob)
        verdicts.add(verdict)
    assert verdicts == {True, False}


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


# sha256 of (sorted (root, coroot) pairs, simple roots in order, rank, gamma
# order, Frobenius) for each preset; GSp past rank 6 goes through `_datum`,
# past the preset guard
ROOT_DATUM_DIGESTS = {
    ("GL", 1): "70fb8a7ea46ed458e399ff57dddf4b9e2d42dc16566756f33a4b39d83b6fc6dd",
    ("GL", 2): "123c4a9dafff18ff38ea021a4521d30c058caa0f7d738a53343cae81db4da796",
    ("GL", 3): "2aa6e5d0c33ab7681e05f6b3d6896224cf05b5fadfd1e02af7d931a1842dccac",
    ("GL", 4): "f35f9b20f9cf0035db5ad755ef653e39df53383a1573c6638499e738e2aed50f",
    ("GL", 5): "ea23b1a2ac0ff2b584ad2f393daaef6a45c3df79f7d53e512a80491810c3be40",
    ("GL", 6): "d75509426186d1c34184993bf5957435c3300eb852fd1c2a0d9083db9e7258e1",
    ("GL", 7): "7bd2bbda503c08f2b3af03993a8c6753551b51b1b425fa43543fc90d00f08b51",
    ("GL", 8): "fd508ca8894f0b2ca128958a7f62d28bcfd127f48240475bafacf82fafbe726f",
    ("GL", 9): "242079c79fe4ac7dc172a61cfa68b393b552d386f1b64cb2be9079edb2163cee",
    ("GL", 10): "b739a215e1085cd554111f3982ac9903553c065fe7f7f7b4922de9041879f424",
    ("GL", 11): "ce485939597361c36af311e9c61feb96b06334aa9f68f7a5256f62643eebbc5e",
    ("GL", 12): "fd4854b108fc2c9ee65e511b4667dcb8b1bde3895624c029ea17d3c3ebb5a11f",
    ("SL", 2): "45196ce1b6943e414dd73e6e4638e9170cd74b69363cbe47731801aeb0ebe108",
    ("SL", 3): "4fa56d758da90dc58096859079a5bdb40919bfd8494e28e146fd65e8a855b815",
    ("SL", 4): "803efb2d1b7081a6d7a1df7d21bd232b7edfb42a06eea9614f2362426f19e40d",
    ("SL", 5): "61ed6a59700b3b4a35f7f539498696ccc3f75a2c5d0b7eab15eaa05570c03d66",
    ("SL", 6): "efe89edefb31eb81dac378b0ab146ca0b5005cf90b2450e9570beaa2cb90a9ac",
    ("SL", 7): "ae19868e42e502ec4b83147544a08215e36ab5de76a6de64e29a8ea6c08f338e",
    ("SL", 8): "97e8309220311d878e76ada3bd86102d47530d4bdbb0c259701607ddb212ca4d",
    ("SL", 9): "a73401f14c760cbafad44f2d6cf46fa4053668afa6bfebb22dd4a6a1739b9275",
    ("SL", 10): "eb516554919cb7f6cf409443f1cbda0dd639fddfdb72457e99d6b59f4c5ce1d3",
    ("SL", 11): "2ef6fc46c6b6d518123e0afdf83e48e8923c38cce2bc9a1c786684def887ed1e",
    ("SL", 12): "4fdc87e25feaff4f34e9f4d77ae62966738e8f55e29c1e995cc19955d3566b77",
    ("U", 2): "9f0928f97bd5301578b797ae76cd6e587338113a9722b8ead1ea503b7be2aaf5",
    ("U", 3): "a18f4633d4ae1897743457103bd22ff33cbffe40a277c3b748bfe9867a449825",
    ("U", 4): "1937ba2294598fb4021ec0c3ba9a85f581270cf672d2794ca89e739e0705124e",
    ("U", 5): "967337e81e470391d59e4179a145bc673c466b1c89980b4a60391d112f83d99b",
    ("U", 6): "f23e40c8ffe10cade3c73117ba0ef4cb67430332bb92692473b195eda99ec24a",
    ("U", 7): "5e043d9e183f59d0718e2ad7194cd0a417965cb792dcc52acd6f1de24b806dfe",
    ("U", 8): "39e7c70d46bd3f7084e95cdf1741a60121ce57579e9815487fd697df30a9813e",
    ("U", 9): "fb066f53a77e05b65c530cf68784a013cdfb0fd975a455032f766cf523909cea",
    ("U", 10): "bbfce150203034dd02e5fda7d2c3f8f5808f47ffafc848b06d71c5779694510c",
    ("U", 11): "3e958cbe9ab50c4688e8ceda9f7a9bd12d3933c02a4a7b31aaeb324edbeb790e",
    ("U", 12): "9d42ad1acc1644ea4f27ec47d22f1939d942da68d8a74f4785d83ec63882c08c",
    ("GSp", 4): "29ebe21d48b6fe097f3cea025987e000dd7afd8daf6d17258a984894d43870d1",
    ("GSp", 6): "283cb244a79f8fe2b53395d4aafb7f58eb636611e2d3321ae8348dee1b4f9581",
    ("GSp", 8): "c5a4d027a604a31e91d72d89603b343b88e37f18e35a1a73d97e1ff32974efee",
    ("GSp", 10): "a1b1aa0df64742fc6e596f4eb54b7280583672a7b3bfa332b76efcb80c4557ac",
    ("GSp", 12): "bd1ffa5795862e277ce566b76e3081eec750d0195a3c06e9f4da2604ccf05a29",
}


def _datum_digest(datum) -> str:
    data = (sorted(zip(datum.roots, datum.coroots)), datum.simple_roots, datum.torus_rank,
            datum.gamma_order, datum.frobenius_dual)
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("family,n", sorted(ROOT_DATUM_DIGESTS))
def test_root_datum_pinned(family, n):
    datum = _datum(family, n) if n > 6 and family == "GSp" else build_group(family, n)
    assert _datum_digest(datum) == ROOT_DATUM_DIGESTS[family, n]


def _reflect(x, v, cv):
    # x - <x, cv> v
    c = dot(x, cv)
    return tuple(a - c * b for a, b in zip(x, v))


def test_reflect_matches_the_comprehension_form():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 6)
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        alpha = tuple(rng.randint(-2, 2) for _ in range(n))
        c = rng.randint(-5, 5)
        got = root_datum._reflect(v, c, alpha)
        assert type(got) is tuple and got == tuple(x - c * a for x, a in zip(v, alpha))


@pytest.mark.parametrize("family,n", sorted(ROOT_DATUM_DIGESTS))
def test_root_datum_axioms(family, n):
    datum = _datum(family, n)
    roots, coroots = datum.roots, datum.coroots
    assert len(roots) == (2 * (n // 2) ** 2 if family == "GSp" else n * (n - 1))
    assert len(set(roots)) == len(roots) == len(coroots)
    assert all(dot(a, cv) == 2 for a, cv in zip(roots, coroots))
    pairs = set(zip(roots, coroots))
    for alpha, cv in zip(datum.simple_roots, datum.simple_coroots):
        # s_alpha permutes the roots, and its dual the coroots, root with coroot
        assert {(_reflect(b, alpha, cv), _reflect(bv, cv, alpha)) for b, bv in pairs} == pairs
    k = len(datum.simple)
    cartan = [[dot(datum.simple_roots[i], datum.simple_coroots[j]) for j in range(k)]
              for i in range(k)]
    expected = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(k)]
                for i in range(k)]
    if family == "GSp":
        expected[k - 1][k - 2] = -2  # C_m: the last simple root is long
    assert cartan == expected
    # the Weyl closures' own axiom check passes on every preset
    assert datum._simple_pairs == tuple(zip(datum.simple_roots, datum.simple_coroots))
    for alpha in roots:
        coeffs = solve(QQ, list(datum.simple_roots), alpha)
        assert all(c.denominator == 1 for c in coeffs)
        assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


@pytest.mark.parametrize("family,n", [("GL", 5), ("SL", 5), ("U", 5), ("GSp", 6), ("GSp", 10)])
def test_roots_are_weight_differences_in_coordinate_order(family, n):
    datum = _datum(family, n)
    w = datum.weights
    assert len(w) == n and all(len(x) == datum.torus_rank for x in w)
    diffs = [tuple(x - y for x, y in zip(w[a], w[b])) for a in range(n) for b in range(n) if a != b]
    assert datum.roots == tuple(dict.fromkeys(diffs))
    # every pair (a, b) is a spot of exactly the root w_a - w_b
    assert sum(map(len, datum.spots.values())) == n * (n - 1)
    assert all(tuple(x - y for x, y in zip(w[a], w[b])) == alpha
               for alpha, pairs in datum.spots.items() for a, b in pairs)
    if family == "GSp":
        # diag(t_1..t_m, nu/t_m..nu/t_1): w_a + w_(n-1-a) is nu, the last coordinate
        nu = tuple(int(i == n // 2) for i in range(datum.torus_rank))
        assert all(tuple(x + y for x, y in zip(w[a], w[n - 1 - a])) == nu for a in range(n))
    else:
        # type A keeps every w_a - w_b distinct, so the roots are all n(n-1) of them
        assert datum.roots == tuple(diffs)


def reference_rho_covector(datum):
    """The Cartan-system solve the closed form replaced: the rational rho with
    <alpha_i, rho> = 1 in the span of the simple coroots, scaled by the LCM of
    its denominators."""
    simples, cosimples = datum.simple_roots, datum.simple_coroots
    k = len(simples)
    if k == 0:
        return (0,) * datum.torus_rank
    cartan_cols = [[dot(simples[i], cosimples[j]) for i in range(k)] for j in range(k)]
    coeffs = solve(QQ, cartan_cols, [1] * k)
    scale = math.lcm(*(c.denominator for c in coeffs))
    return tuple(sum(int(c * scale) * cv[idx] for c, cv in zip(coeffs, cosimples))
                 for idx in range(datum.torus_rank))


@pytest.mark.parametrize("family,n", sorted(ROOT_DATUM_DIGESTS))
def test_rho_covector_is_twice_rho_vee(family, n):
    datum = _datum(family, n)
    rho = _rho_covector(datum)
    assert all(dot(alpha, rho) == 2 for alpha in datum.simple_roots)
    # the reference is rho^vee times the LCM of its denominators: 2 rho^vee where
    # rho^vee has a half-integer coefficient (even n, every GSp), rho^vee for odd n
    ref = reference_rho_covector(datum)
    assert rho == (ref if family == "GSp" or n % 2 == 0 else tuple(2 * x for x in ref))
    # a root is positive, of positive height, exactly when its first spot (a, b) has a < b
    assert all((height(datum, alpha) > 0) == (a < b)
               for alpha, ((a, b), *_) in datum.spots.items())


# A public datum whose third weight is the sum of the first two: its simple
# reflections generate an infinite group, so an unchecked orbit would grow
# until memory runs out and an unchecked descent would never stop.  The child process has
# its own address-space and time limits.
BAD_WEYL_CLOSURE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from param_atlas import root_datum
bad = root_datum.GroupDatum("GL", 3, ((1, 0), (0, 1), (1, 1)), 1, ((1, 0), (0, 1)))
try:
    getattr(root_datum, sys.argv[1])(bad, (-2, 5))
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("fn", ["orbit_of_weight", "dominant_representative"])
def test_weyl_closure_rejects_a_datum_whose_reflections_leave_the_roots(fn):
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", BAD_WEYL_CLOSURE, fn], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("GL3 is not a root datum:"), proc.stdout
