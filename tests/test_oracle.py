"""Finite-field oracles: brute-force solvers the symbolic layer is checked against."""

import hashlib
import json
import math
import random
from itertools import permutations, product

import pytest

from param_atlas import gf, oracle
from param_atlas._linalg import QQ, mat_rank, nullspace, solve
from param_atlas.budget import BudgetExceededError
from param_atlas.census import (
    census,
    component_group,
    cyclic_group,
    direct_product,
    quaternion_group,
    symmetric_group_3,
    twisted_class_count,
)
from param_atlas.coverage import standard_levis
from param_atlas.oracle import (
    _antidiagonal_form,
    _map_rows,
    _root_split,
    all_automorphisms,
    avoidant_check,
    centralizer_order,
    classify_twist,
    eval_identity_trials,
    int_matrix,
    is_commutant_solution,
    is_member,
    jacobian_probe,
    lie_root_matrices,
    lie_torus_matrices,
    random_group_element,
    random_regular_element,
    random_torus_element,
    similitude,
    solve_commutant,
    symplectic_form,
    twisted_orbits_bruteforce,
)
from param_atlas.root_datum import ArithmeticContext, _datum, build_group


F5 = gf.FiniteField(5)
F7 = gf.FiniteField(7)

UNIPOTENT_22 = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]]


def diag(field, *entries):
    n = len(entries)
    return tuple(
        tuple(field.from_int(entries[i]) if i == j else 0 for j in range(n))
        for i in range(n)
    )


# -- membership ---------------------------------------------------------------


def test_symplectic_form_antidiagonal_signs():
    J = symplectic_form(F7, 4)
    assert J == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 6, 0, 0), (6, 0, 0, 0))


def test_similitude_of_torus_element():
    m = diag(F7, 6, 2, 3, 1)
    assert similitude(F7, m) == F7.from_int(6)
    # breaking the pairing d1*d4 = d2*d3 loses the similitude
    assert similitude(F7, diag(F7, 6, 2, 3, 2)) is None


def test_is_member_by_kind():
    assert is_member(F5, "GL", ((2, 0), (0, 3)))
    assert not is_member(F5, "GL", ((0, 0), (0, 0)))
    assert is_member(F5, "SL", ((2, 0), (0, 3)))  # det = 6 = 1 mod 5
    assert not is_member(F5, "SL", ((2, 0), (0, 2)))
    assert is_member(F7, "GSp", int_matrix(F7, UNIPOTENT_22))
    assert not is_member(F7, "GSp", diag(F7, 1, 1, 1, 2))


# -- commutation solver --------------------------------------------------------


def test_is_commutant_solution_on_gsp4_samples():
    u = int_matrix(F7, UNIPOTENT_22)
    lam, q = 2, 3
    split = int_matrix(F7, [[lam * q, 0, 0, 0], [0, lam, 0, 0], [0, 0, q, 0], [0, 0, 0, 1]])
    swapping = int_matrix(
        F7, [[0, 0, -lam * q, 0], [0, 0, 0, lam], [-q, 0, 0, 0], [0, 1, 0, 0]]
    )
    assert is_commutant_solution(F7, "GSp", u, q, split)
    assert is_commutant_solution(F7, "GSp", u, q, swapping)
    assert not is_commutant_solution(F7, "GSp", u, 2, split)


def test_solve_commutant_semisimple_golden():
    sigma = diag(F5, 2, 3)
    sols = solve_commutant(F5, "SL", sigma, 7)
    # sigma^7 = sigma^3 is conjugate to sigma by the antidiagonal swap; the
    # solution set is a torsor under the diagonal centralizer
    assert len(sols) == 4
    assert len(sols) == centralizer_order(F5, "SL", sigma)
    for phi in sols:
        assert is_commutant_solution(F5, "SL", sigma, 7, phi)


def test_solve_commutant_empty_when_target_scalar():
    # sigma^2 = 4*I is scalar but sigma is not, so no conjugation can work
    assert solve_commutant(F5, "SL", diag(F5, 2, 3), 2) == []


def test_solve_commutant_rejects_negative_q():
    # mat_pow halves its exponent with >>, which never reaches 0 from -1
    with pytest.raises(ValueError, match="exponent"):
        solve_commutant(F5, "SL", diag(F5, 2, 3), -1)


def test_solve_commutant_rejects_non_member_sigma():
    with pytest.raises(ValueError):
        solve_commutant(F5, "SL", ((2, 0), (0, 2)), 3)


def test_solve_commutant_budget():
    with pytest.raises(BudgetExceededError):
        solve_commutant(F5, "GL", ((1, 0), (0, 1)), 1, budget=10)


def test_torsor_property_random_sample():
    rng = random.Random(5)
    for _ in range(25):
        sigma = random_regular_element(F5, "SL", rng)
        cent = centralizer_order(F5, "SL", sigma)
        for q in (2, 3, 4):
            assert len(solve_commutant(F5, "SL", sigma, q)) in (0, cent)


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2)])
def test_map_rows_is_the_map_on_vec_x(p, k):
    # odd characteristic, so a plus/minus slip changes the result
    field = gf.FiniteField(p, k)
    rng = random.Random(p * 10 + k)

    def mat(n):
        return [[rng.randrange(field.order) for _ in range(n)] for _ in range(n)]

    for n in (1, 2, 3, 4):
        for n_plus, n_minus in ((1, 0), (1, 1), (2, 3)):
            plus = [(mat(n), mat(n)) for _ in range(n_plus)]
            minus = [(mat(n), mat(n)) for _ in range(n_minus)]
            x = mat(n)
            image = [[0] * n for _ in range(n)]
            for pairs, op in ((plus, field.add), (minus, field.sub)):
                for left, right in pairs:
                    term = gf.mat_mul(field, gf.mat_mul(field, left, x), right)
                    image = [list(map(op, r, t)) for r, t in zip(image, term)]
            rows = _map_rows(field, plus, minus)
            assert gf.mat_vec(field, rows, [e for r in x for e in r]) == \
                [e for r in image for e in r]


@pytest.mark.parametrize("walk", [
    lambda field, sigma, budget: solve_commutant(field, "GL", sigma, 1, budget),
    lambda field, sigma, budget: centralizer_order(field, "GL", sigma, budget),
    lambda field, sigma, budget: solve_commutant(field, "SL", sigma, 1, budget),
    lambda field, sigma, budget: centralizer_order(field, "SL", sigma, budget),
], ids=["solve_commutant", "centralizer_order", "solve_commutant_sl", "centralizer_order_sl"])
def test_solve_commutant_budget_precedes_the_multiples_table(walk, monkeypatch):
    field = gf.FiniteField(2, 8)

    def built(*args):
        raise AssertionError("a multiples or roots table was built before the budget check")

    monkeypatch.setattr(field, "elements", built)
    monkeypatch.setattr(field, "units", built)
    monkeypatch.setattr(field, "pow", built)  # the SL table of n-th roots
    with pytest.raises(BudgetExceededError):
        walk(field, ((1, 0), (0, 1)), 256 ** 4 - 1)


def _roots(field, t, d):
    """Roots in the field of x^2 - t x + d."""
    return [x for x in field.elements()
            if field.add(field.sub(field.mul(x, x), field.mul(t, x)), d) == 0]


def _regular_sigmas(field, kind):
    """Regular sigma by type: split (distinct roots), elliptic, unipotent.

    The split type is missing when the group has no such element: GL_2(F_2),
    SL_2(F_2) and SL_2(F_3) have none.
    """
    units = list(field.units())
    dets = (1,) if kind == "SL" else units
    split = next((((a, 0), (0, field.mul(d, field.inv(a))))
                  for d in dets for a in units if field.mul(a, a) != d), None)
    t, d = next((t, d) for d in dets for t in field.elements() if not _roots(field, t, d))
    # the elliptic sigma is the companion matrix of x^2 - t x + d
    sigmas = {"elliptic": ((0, field.neg(d)), (1, t)), "unipotent": ((1, 1), (0, 1))}
    if split is not None:
        sigmas["split"] = split
    return sigmas


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_solve_commutant_matches_the_definition_on_every_matrix(p, k):
    field = gf.FiniteField(p, k)
    everything = [((a, b), (c, d)) for a, b, c, d in product(field.elements(), repeat=4)]
    nonempty = set()
    for kind in ("SL", "GL"):
        for sigma in _regular_sigmas(field, kind).values():
            for q in (1, 2, 3, 4):
                expected = [phi for phi in everything
                            if is_commutant_solution(field, kind, sigma, q, phi)]
                assert solve_commutant(field, kind, sigma, q) == expected, (kind, sigma, q)
                if q == 1:
                    assert centralizer_order(field, kind, sigma) == len(expected), (kind, sigma)
                nonempty.add(bool(expected))
    assert nonempty == {False, True}  # some solution sets are empty, some are not


@pytest.mark.parametrize("p,k", [(3, 2), (11, 1), (2, 8)])
def test_centralizer_order_closed_forms(p, k):
    field = gf.FiniteField(p, k)
    big_q = field.order
    expected = {
        "GL": {"split": (big_q - 1) ** 2, "elliptic": big_q ** 2 - 1,
               "unipotent": big_q * (big_q - 1)},
        "SL": {"split": big_q - 1, "elliptic": big_q + 1,
               "unipotent": big_q * math.gcd(2, big_q - 1)},
    }
    for kind, orders in expected.items():
        sigmas = _regular_sigmas(field, kind)
        assert sigmas.keys() == orders.keys()
        for name, sigma in sigmas.items():
            assert centralizer_order(field, kind, sigma) == orders[name], (kind, name)


def _kernel_basis(field, sigma, q):
    """A basis of the kernel of X -> X sigma - sigma^q X, as flat vectors."""
    one = gf.mat_identity(len(sigma))
    return nullspace(field, _map_rows(field, [(one, sigma)], [(gf.mat_pow(field, sigma, q), one)]))


def reference_kernel(field, sigma, q):
    """Every element of the kernel of X -> X sigma - sigma^q X.

    This is the full walk the line walk replaced: filtered by membership, it
    is the solution set, one candidate per kernel element.
    """
    n = len(sigma)
    kernel = _kernel_basis(field, sigma, q)
    elements = []
    for coeffs in product(field.elements(), repeat=len(kernel)):
        flat = [0] * (n * n)
        for c, vec in zip(coeffs, kernel):
            flat = [field.add(x, field.mul(c, v)) for x, v in zip(flat, vec)]
        elements.append(tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
    return elements


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4)])
def test_line_walk_matches_the_full_walk(p, k):
    field = gf.FiniteField(p, k)
    kernels = {}
    sizes, answers = set(), set()
    for kind in ("SL", "GL", "U"):
        cases = [(sigma, q) for sigma in _regular_sigmas(field, kind).values()
                 for q in (1, 2, 3, 4, 5)]
        cases.append((((1, 0), (0, 1)), 1))  # the whole matrix space
        for sigma, q in cases:
            if (sigma, q) not in kernels:
                kernels[sigma, q] = reference_kernel(field, sigma, q)
            expected = [mat for mat in kernels[sigma, q] if is_member(field, kind, mat)]
            assert solve_commutant(field, kind, sigma, q) == sorted(expected), (kind, sigma, q)
            if q == 1:
                assert centralizer_order(field, kind, sigma) == len(expected), (kind, sigma)
            sizes.add(len(kernels[sigma, q]))
            answers.add(bool(expected))
    # kernels of dimension 0, 2 and 4; some answers empty, some not
    assert sizes == {1, field.order ** 2, field.order ** 4} and answers == {False, True}


@pytest.mark.parametrize("p,qs", [(2, (1, 2, 3)), (3, (1, 3))])
def test_line_walk_matches_the_full_walk_on_gsp4(p, qs):
    field = gf.FiniteField(p)
    u = int_matrix(field, UNIPOTENT_22)
    answers = set()
    for q in qs:
        expected = [mat for mat in reference_kernel(field, u, q) if is_member(field, "GSp", mat)]
        assert solve_commutant(field, "GSp", u, q) == sorted(expected), q
        if q == 1:
            assert centralizer_order(field, "GSp", u) == len(expected)
        answers.add(bool(expected))
    assert answers == {False, True}


@pytest.mark.parametrize("kind,p,k,sigma,q", [
    ("GL", 2, 2, ((1, 0), (0, 1)), 1),
    ("U", 2, 3, ((1, 1), (0, 1)), 1),
    ("SL", 5, 1, ((1, 1), (0, 1)), 1),
    ("SL", 7, 1, ((1, 1), (0, 1)), 3),
    ("SL", 2, 1, ((0, 1), (1, 1)), 3),
    ("GSp", 3, 1, UNIPOTENT_22, 1),
])
def test_line_walk_tests_membership_once_per_line(kind, p, k, sigma, q, monkeypatch):
    field = gf.FiniteField(p, k)
    sigma = int_matrix(field, sigma)
    lines = (field.order ** len(_kernel_basis(field, sigma, q)) - 1) // (field.order - 1)
    calls = []
    for module, name in ((gf, "mat_det"), (oracle, "similitude")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, original=original: calls.append(1) or original(*args))
    solve_commutant(field, kind, sigma, q)
    assert len(calls) == 1 + lines  # sigma itself, then one test per line
    if q == 1:
        calls.clear()
        centralizer_order(field, kind, sigma)
        assert len(calls) == 1 + lines


# -- component-group detectors -------------------------------------------------


def test_classify_sl2_unipotent_two_balanced_labels():
    # a label is the scalar phi acts by on ker(sigma - 1), a square root of q;
    # over F_7 the inverses 5 and 2 would be other labels
    sigma = ((1, 1), (0, 1))
    for field, q, counts in ((F5, 4, {"2": 5, "3": 5}), (F7, 2, {"3": 7, "4": 7})):
        sols = solve_commutant(field, "SL", sigma, q)
        assert len(sols) == 2 * field.order
        report = classify_twist(field, "SL", sigma, q, sols)
        assert report.labels == tuple(counts)
        assert report.counts() == counts


def test_classify_sl2_empty_solution_sets():
    sigma = ((1, 1), (0, 1))
    for q in (2, 3, 7):
        assert solve_commutant(F5, "SL", sigma, q) == []


def test_classify_gsp4_signs():
    u = int_matrix(F7, UNIPOTENT_22)
    lam, q = 2, 3
    split = int_matrix(F7, [[lam * q, 0, 0, 0], [0, lam, 0, 0], [0, 0, q, 0], [0, 0, 0, 1]])
    swapping = int_matrix(
        F7, [[0, 0, -lam * q, 0], [0, 0, 0, lam], [-q, 0, 0, 0], [0, 1, 0, 0]]
    )
    report = classify_twist(F7, "GSp", u, q, [split, swapping])
    assert report.assignments == ("+1", "-1")
    assert report.labels == ("+1", "-1")


@pytest.mark.parametrize("q", [2, 4, 5, 7, 8])
def test_classify_gsp4_labels_every_solution(q):
    field = gf.FiniteField(3)
    u = int_matrix(field, UNIPOTENT_22)
    sols = solve_commutant(field, "GSp", u, q)
    assert len(sols) == 216
    assert classify_twist(field, "GSp", u, q, sols).counts() == {"+1": 108, "-1": 108}


def test_classify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        classify_twist(F5, "SL", diag(F5, 2, 3), 4, [])  # not unipotent
    with pytest.raises(ValueError):
        classify_twist(F5, "SL", ((1, 1), (0, 1)), 4, [((1, 0), (0, 1))])
    with pytest.raises(ValueError):
        classify_twist(F5, "GL", ((1, 1), (0, 1)), 4, [])  # no detector


# -- twisted orbits and automorphisms ------------------------------------------


def test_bruteforce_orbits_match_cokernel_counts():
    for d in (2, 3, 4, 5, 6, 8):
        g = cyclic_group(d)
        inv = {a: g.inv(a) for a in g.labels}
        assert twisted_orbits_bruteforce(g) == twisted_class_count(g).count
        assert twisted_orbits_bruteforce(g, inv) == twisted_class_count(g, inv).count


def test_bruteforce_orbits_budget():
    with pytest.raises(BudgetExceededError):
        twisted_orbits_bruteforce(cyclic_group(12), budget=100)


def inner_twist(group, g):
    """The automorphism a -> g a g^-1, as a label map."""
    ginv = group.inv(g)
    return {a: group.mul(group.mul(g, a), ginv) for a in group.labels}


def test_inner_twist_orbits_are_conjugacy_classes():
    # a -> a h carries h-twisted classes onto conjugacy classes, so every inner
    # twist gives the class number: 3 for S_3, 5 for Q_8
    for g, classes in ((symmetric_group_3(), 3), (quaternion_group(), 5)):
        assert twisted_class_count(g).count == classes
        for h in g.labels:
            assert twisted_orbits_bruteforce(g, inner_twist(g, h)) == classes, (g, h)


def _orbits_union_find(group, images):
    """Twisted orbits by definition: join a and g a twist(g)^-1 for every pair (g, a)."""
    t = group.table
    parent = list(range(group.order))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g, a in product(range(group.order), repeat=2):
        parent[find(a)] = find(t[t[g][a]][group.inverse[images[g]]])
    return sum(1 for x in range(group.order) if find(x) == x)


def test_bruteforce_orbits_match_definition_on_every_bijection():
    # automorphisms agree with the definition; every other bijection is refused
    z2 = cyclic_group(2)
    for g in (cyclic_group(4), direct_product(z2, z2), symmetric_group_3()):
        automorphisms = 0
        for images in permutations(range(g.order)):
            twist = {g.labels[a]: g.labels[b] for a, b in enumerate(images)}
            try:
                g.automorphism_images(twist)
            except ValueError:
                with pytest.raises(ValueError, match="not an automorphism"):
                    twisted_orbits_bruteforce(g, twist)
            else:
                automorphisms += 1
                assert twisted_orbits_bruteforce(g, twist) == _orbits_union_find(g, images)
        assert automorphisms == len(all_automorphisms(g))


@pytest.mark.parametrize("group", [
    quaternion_group(),
    direct_product(symmetric_group_3(), cyclic_group(2)),
    direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)),
    direct_product(cyclic_group(4), cyclic_group(4)),
], ids=["Q8", "S3xZ2", "Z2^3", "Z4xZ4"])
def test_one_pass_orbits_match_definition_on_every_automorphism(group):
    for twist in all_automorphisms(group):
        images = group.twist_indices(twist)
        assert twisted_orbits_bruteforce(group, twist) == _orbits_union_find(group, images)


def test_bruteforce_orbits_reject_non_homomorphisms():
    # This bijection fixes the generator 1 of Z/4 but is not a homomorphism,
    # so a -> g a twist(g)^-1 is no group action; the census refuses it too.
    g = cyclic_group(4)
    for twist in ({"0": "0", "1": "1", "2": "3", "3": "2"}, {"0": "1", "1": "0"}):
        with pytest.raises(ValueError, match="twist is not an automorphism of the group"):
            g.automorphism_images(twist)
        for count in (twisted_orbits_bruteforce, twisted_class_count):
            with pytest.raises(ValueError, match="twist is not an automorphism of the group"):
                count(g, twist)


def test_all_automorphisms_known_orders():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    z2_3 = direct_product(direct_product(z2, z2), z2)
    assert len(all_automorphisms(z4)) == 2
    assert len(all_automorphisms(cyclic_group(8))) == 4
    assert len(all_automorphisms(cyclic_group(16))) == 8
    assert len(all_automorphisms(direct_product(z2, z2))) == 6
    assert len(all_automorphisms(z2_3)) == 168  # |GL_3(F_2)|
    assert len(all_automorphisms(direct_product(z2_3, z2))) == 20160  # |GL_4(F_2)|
    assert len(all_automorphisms(direct_product(direct_product(z2, z2), z4))) == 192
    assert len(all_automorphisms(direct_product(z4, z4))) == 96
    assert len(all_automorphisms(direct_product(z2, cyclic_group(8)))) == 16
    assert len(all_automorphisms(symmetric_group_3())) == 6
    assert len(all_automorphisms(quaternion_group())) == 24


@pytest.mark.parametrize("group, digest", [
    (direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)),
     "cc07cb31c93cf2f9a7e04e2264d94f2dd7b42bba31d092cad75f116df86ce8ab"),
    (quaternion_group(), "d729520882e1691631b6637f0234f0be70858758d45b38796bb93a5e63dc30b7"),
    (direct_product(symmetric_group_3(), cyclic_group(2)),
     "b50ea96795e4c474ee6dd9d1d781439150c45c408c4e3b4bfd566cd09ba77161"),
    (direct_product(cyclic_group(2), cyclic_group(8)),
     "24171f3a3219b5ff17b264ac93cc4371a6dd7f95da3be669a25c2a1f73771c1c"),
], ids=["Z2^3", "Q8", "S3xZ2", "Z2xZ8"])
def test_all_automorphisms_order_pinned(group, digest):
    # json.dumps keeps the list order and each dict's key order
    assert hashlib.sha256(json.dumps(all_automorphisms(group)).encode()).hexdigest() == digest


def test_nonabelian_product_twisted_classes_and_automorphisms():
    g = direct_product(symmetric_group_3(), cyclic_group(2))
    fast = twisted_class_count(g)
    assert fast.representatives == ("e,0", "(12),0", "(12),1", "(123),0", "(123),1", "e,1")
    assert fast.count == 6 == twisted_orbits_bruteforce(g)
    assert len(all_automorphisms(g)) == 12


def test_all_automorphisms_are_automorphisms():
    g = quaternion_group()
    for twist in all_automorphisms(g):
        assert g.automorphism_images(twist) == g.twist_indices(twist)


def test_census_twisted_counts_agree_with_bruteforce():
    # one census entry per twisted class, so multiplicity = brute-force orbit count
    ctx = ArithmeticContext(q=3, ell=5)
    for family, n in [("SL", 2), ("SL", 4), ("GSp", 4)]:
        datum = build_group(family, n)
        per_class: dict[tuple, int] = {}
        for entry in census(datum, ctx):
            key = entry.unipotent.partition
            per_class[key] = per_class.get(key, 0) + 1
        for cls in {e.unipotent for e in census(datum, ctx)}:
            group = component_group(datum, cls, ctx).group
            assert per_class[cls.partition] == twisted_orbits_bruteforce(group)


# -- avoidance -----------------------------------------------------------------


def reference_root_split(coefficients, subset):
    """The split by each root's rational coefficients on the simple roots."""
    inside, upper, lower = [], [], []
    for idx, coeffs in enumerate(coefficients):
        support = {i for i, c in enumerate(coeffs) if c != 0}
        if support <= set(subset):
            inside.append(idx)
        elif all(c >= 0 for c in coeffs):
            upper.append(idx)
        else:
            lower.append(idx)
    return inside, upper, lower


ROOT_SPLIT_PRESETS = ([("GL", n) for n in range(1, 10)] + [("SL", n) for n in range(2, 10)]
                      + [("U", n) for n in range(2, 11)]
                      + [("GSp", n) for n in (4, 6, 8, 10, 12)])


@pytest.mark.parametrize("family,n", ROOT_SPLIT_PRESETS)
def test_root_split_matches_the_simple_root_coefficients(family, n):
    datum = _datum(family, n)
    simple = [datum.roots[i] for i in datum.simple]
    coefficients = [solve(QQ, simple, alpha) for alpha in datum.roots]
    for levi in standard_levis(datum):
        assert _root_split(datum, levi.subset) == reference_root_split(
            coefficients, levi.subset), (family, n, levi.subset)


def test_avoidant_gl2_closed_form_agreement():
    datum = build_group("GL", 2)
    torus = next(x for x in standard_levis(datum) if x.subset == ())
    q = 3
    qe = F7.from_int(q)
    window = tuple(datum.gamma_order * s for s in (1, 2, 3, 4, 6, 12))
    hits = 0
    for a in range(1, 7):
        for b in range(1, 7):
            m = diag(F7, a, b)
            report = avoidant_check(F7, datum, torus, m, q)
            ratio = F7.mul(F7.from_int(a), F7.inv(F7.from_int(b)))
            one = F7.from_int(1)
            base = ratio not in (one, qe, F7.inv(qe))
            order = next(k for k in range(1, 7) if F7.pow(ratio, k) == one)
            expected = base and any((2 * r) % order != 0 for r in window)
            assert report.avoidant == expected, (a, b)
            hits += report.avoidant
    assert hits == 12


def test_avoidant_gl2_report_fields():
    datum = build_group("GL", 2)
    torus = next(x for x in standard_levis(datum) if x.subset == ())
    report = avoidant_check(F7, datum, torus, diag(F7, 2, 1), 3)
    assert report.avoidant
    assert report.exponent == 1
    assert report.failures == ()


def test_avoidant_full_group_levi_has_nothing_to_separate():
    # the Levi of every simple root is the whole group, so U = U^- = 0
    for family, n, m in [("GL", 2, diag(F7, 2, 1)), ("GL", 2, diag(F7, 3, 3)),
                         ("SL", 3, diag(F7, 2, 4, 1)), ("GSp", 4, diag(F7, 6, 2, 3, 1))]:
        datum = build_group(family, n)
        whole = next(x for x in standard_levis(datum) if len(x.subset) == len(datum.simple))
        report = avoidant_check(F7, datum, whole, m, 3)
        assert (report.avoidant, report.exponent, report.failures) == (True, 1, ()), family


def test_avoidant_gsp4_split_shape_never_passes():
    # (e1 - e2)(m) = q for this shape, so ad_m - q is singular on Lie(U)
    datum = build_group("GSp", 4)
    torus = next(x for x in standard_levis(datum) if x.subset == ())
    m = diag(F7, 6, 2, 3, 1)  # lam*q, lam, q, 1 with lam=2, q=3
    report = avoidant_check(F7, datum, torus, m, 3)
    assert not report.avoidant
    assert "ad_m - q singular on Lie(U)" in report.failures


def test_avoidant_error_paths():
    u3 = build_group("U", 3)
    unstable = next(x for x in standard_levis(u3) if not x.gamma_stable)
    identity = diag(F7, 1, 1, 1)
    with pytest.raises(ValueError):
        avoidant_check(F7, u3, unstable, identity, 3)
    gl2 = build_group("GL", 2)
    torus = next(x for x in standard_levis(gl2) if x.subset == ())
    with pytest.raises(ValueError):
        avoidant_check(F7, gl2, torus, ((0, 0), (0, 0)), 3)
    with pytest.raises(ValueError):
        avoidant_check(F7, build_group("GSp", 4), torus, diag(F7, 6, 2, 3, 1), 3)


def test_avoidant_rejects_m_outside_the_levi_normalizer():
    # conjugating E11 by a shear leaves the diagonal torus
    gl2 = build_group("GL", 2)
    torus = next(x for x in standard_levis(gl2) if x.subset == ())
    with pytest.raises(ValueError, match="^m does not normalize the Levi$"):
        avoidant_check(F7, gl2, torus, int_matrix(F7, [[1, 1], [0, 1]]), 3)


@pytest.mark.parametrize("family,n", [("GL", 3), ("SL", 4), ("U", 3), ("GSp", 4), ("GSp", 6)])
def test_lie_root_matrices_are_distinct_primitive_and_symplectic(family, n):
    datum = build_group(family, n)
    J = symplectic_form(F7, n) if family == "GSp" else None
    mats = lie_root_matrices(datum)
    assert len(set(mats)) == len(mats) == len(datum.roots)
    for x in mats:
        support = [(a, b) for a in range(n) for b in range(n) if x[a][b]]
        assert support
        assert all(a != b for a, b in support)
        assert math.gcd(*(x[a][b] for a, b in support)) == 1
        if J is not None:
            # X^T J + J X = 0 over F_7, so X lies in the symplectic Lie algebra
            xf = int_matrix(F7, x)
            left = gf.mat_mul(F7, tuple(zip(*xf)), J)
            right = gf.mat_mul(F7, J, xf)
            assert all(F7.add(u, v) == 0 for lr, rr in zip(left, right) for u, v in zip(lr, rr))


def reference_lie_root_matrices(datum):
    """The rational solve the closed form replaced: entry matrices for GL/SL/U,
    and for GSp the one-dimensional QQ-nullspace of X^T J + J X = 0 on the
    root's spots, scaled by the LCM of its denominators."""
    n = datum.n
    j = _antidiagonal_form(n) if datum.family == "GSp" else None
    out = []
    for spots in datum.spots.values():
        if j is None:
            assert len(spots) == 1
            coeffs = [1]
        else:
            rows = [
                [(j[a][y] if x == b else 0) + (j[x][a] if y == b else 0) for (a, b) in spots]
                for x in range(n)
                for y in range(n)
            ]
            kernel = nullspace(QQ, rows)
            assert len(kernel) == 1
            denom = math.lcm(*(c.denominator for c in kernel[0]))
            coeffs = [int(c * denom) for c in kernel[0]]
        mat = [[0] * n for _ in range(n)]
        for c, (a, b) in zip(coeffs, spots):
            mat[a][b] = c
        out.append(tuple(tuple(row) for row in mat))
    return tuple(out)


ROOT_MATRIX_PRESETS = ([("GL", n) for n in range(1, 13)] + [("SL", n) for n in range(2, 13)]
                       + [("U", n) for n in range(2, 13)] + [("GSp", n) for n in range(4, 13, 2)])


@pytest.mark.parametrize("family,n", ROOT_MATRIX_PRESETS)
def test_lie_root_matrices_match_the_nullspace_solve(family, n):
    datum = _datum(family, n)
    mats = lie_root_matrices(datum)
    assert mats == reference_lie_root_matrices(datum)
    if family == "GSp":
        J = _antidiagonal_form(n)
        for x in mats:
            # X^T J + J X = 0 over Z
            assert all(sum(x[k][a] * J[k][b] + J[a][k] * x[k][b] for k in range(n)) == 0
                       for a in range(n) for b in range(n))


# Every preset of torus rank <= 6, as (family, n, is_member kind).
SMALL_PRESETS = ([("GL", n, "GL") for n in range(1, 7)] + [("SL", n, "SL") for n in range(2, 8)]
                 + [("U", n, "GL") for n in range(2, 7)] + [("GSp", 4, "GSp"), ("GSp", 6, "GSp")])


@pytest.mark.parametrize("family,n,kind", SMALL_PRESETS)
def test_torus_point_scales_each_root_matrix_by_its_character(family, n, kind):
    # m X m^-1 = alpha(m) X for the root matrix X of alpha, where alpha(m) is the
    # product of the drawn units u_k^alpha_k; so alpha(m) = m_aa / m_bb at every
    # non-zero entry (a, b) of X
    datum = build_group(family, n)
    for field in (F7, gf.get_field(2, 3)):
        for seed in range(3):
            m = random_torus_element(field, datum, random.Random(seed))
            rng = random.Random(seed)
            units = [rng.randrange(1, field.order) for _ in range(datum.torus_rank)]
            assert is_member(field, kind, m)
            m_inv = gf.mat_inverse(field, m)
            for alpha, x in zip(datum.roots, lie_root_matrices(datum)):
                value = 1
                for u, k in zip(units, alpha):
                    value = field.mul(value, field.pow(u, k))
                xf = int_matrix(field, x)
                moved = gf.mat_mul(field, gf.mat_mul(field, m, xf), m_inv)
                assert moved == [[field.mul(value, y) for y in row] for row in xf]
                for a in range(n):
                    for b in range(n):
                        if x[a][b]:
                            assert field.mul(m[a][a], field.inv(m[b][b])) == value


@pytest.mark.parametrize("family,n,kind", SMALL_PRESETS)
def test_lie_torus_matrices_span_the_cartan_of_the_group(family, n, kind):
    datum = build_group(family, n)
    mats = lie_torus_matrices(datum)
    assert len(mats) == datum.torus_rank
    assert all(x[a][b] == 0 for x in mats for a in range(n) for b in range(n) if a != b)
    assert mat_rank(QQ, [[y for row in x for y in row] for x in mats]) == datum.torus_rank
    for x in mats:
        d = [x[a][a] for a in range(n)]
        if family == "SL":
            assert sum(d) == 0
        if family == "GSp":
            # X^T J + J X = c J for diagonal X: d_a + d_(n-1-a) is one c for every a
            assert len({d[a] + d[n - 1 - a] for a in range(n)}) == 1


# -- jacobian probe -------------------------------------------------------------


def test_jacobian_ramified_sl2_golden():
    # q = 8 is ramified for F_7 rational points; smooth-point rank still holds
    sigma = ((3, 6), (4, 6))
    sols = solve_commutant(F7, "SL", sigma, 8)
    assert len(sols) == 14
    report = jacobian_probe(F7, "SL", 8, sigma, sols[0])
    assert report.rank == 4
    assert report.expected_rank == 4
    assert report.kernel_dim == 4
    assert report.tangent_dim == 1
    assert report.submersive
    assert report.ok


def test_jacobian_all_solutions_at_one_point():
    sigma = ((1, 1), (0, 1))
    for phi in solve_commutant(F5, "SL", sigma, 4):
        assert jacobian_probe(F5, "SL", 4, sigma, phi).ok


@pytest.mark.parametrize("q", [0, 1])
def test_jacobian_rejects_q_below_two_before_any_matrix_work(q, monkeypatch):
    def fail(*args):
        raise AssertionError("nullspace reached")

    monkeypatch.setattr(gf, "nullspace", fail)
    with pytest.raises(ValueError, match=f"^q must be an integer >= 2, got {q}$"):
        jacobian_probe(F5, "SL", q, ((1, 1), (0, 1)), ((1, 0), (0, 1)))


def test_jacobian_rejects_bad_samples():
    with pytest.raises(ValueError):
        jacobian_probe(F5, "SL", 4, ((2, 0), (0, 2)), ((1, 0), (0, 1)))  # scalar
    with pytest.raises(ValueError):
        jacobian_probe(F5, "SL", 4, ((1, 1), (0, 1)), ((1, 0), (0, 1)))  # non-solution
    with pytest.raises(ValueError):
        jacobian_probe(F7, "GSp", 3, diag(F7, 2, 1), diag(F7, 1, 1))


# -- pointwise identity trials ---------------------------------------------------


@pytest.mark.parametrize("family,n,q", [("SL", 2, 3), ("GL", 3, 2), ("U", 2, 3),
                                        ("GSp", 4, 3)])
def test_eval_identity_trials_pass(family, n, q):
    datum = build_group(family, n)
    report = eval_identity_trials(datum, q, F7, trials=8, seed=1)
    assert report.passed
    assert report.trials == 8
    assert report.failure is None


# -- seeded constructors ----------------------------------------------------------


def test_random_constructors_deterministic_and_valid():
    a = random_group_element(F7, "SL", random.Random(3))
    b = random_group_element(F7, "SL", random.Random(3))
    assert a == b
    assert is_member(F7, "SL", a)
    reg = random_regular_element(F7, "GL", random.Random(3))
    assert not (reg[0][1] == 0 and reg[1][0] == 0 and reg[0][0] == reg[1][1])


def test_random_torus_element_shapes():
    rng = random.Random(9)
    for family, n, kind in [("GL", 3, "GL"), ("SL", 3, "SL"), ("GSp", 4, "GSp"),
                            ("U", 3, "GL")]:
        datum = build_group(family, n)
        m = random_torus_element(F7, datum, rng)
        assert all(m[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        assert is_member(F7, kind, m)
