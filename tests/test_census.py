"""Unipotent classes, explicit small groups, twisted classes, and the census."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from param_atlas.census import (
    UnipotentClass,
    census,
    component_group,
    cyclic_group,
    direct_product,
    partitions,
    prime_to_part,
    quaternion_group,
    symmetric_group_3,
    symplectic_partitions,
    twisted_class_count,
    unipotent_classes,
)
from param_atlas.oracle import all_automorphisms
from param_atlas.root_datum import ArithmeticContext, _datum, build_group


def conjugacy_class_count(group) -> int:
    return twisted_class_count(group).count


def test_partition_counts():
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
    for n, count in expected.items():
        assert len(partitions(n)) == count


def _partitions_by_recursion(n, cap):
    """Partitions of n with parts at most cap: largest first part first."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, cap), 0, -1)
            for rest in _partitions_by_recursion(n - first, first)]


@pytest.mark.parametrize("n", range(31))
def test_partition_order_is_reverse_lexicographic(n):
    # census labels are assigned in this order
    assert partitions(n) == tuple(_partitions_by_recursion(n, n))


def test_partitions_of_a_negative_integer_raise():
    with pytest.raises(ValueError):
        partitions(-1)


def test_symplectic_partitions():
    # odd parts must have even multiplicity
    assert set(symplectic_partitions(4)) == {
        (1, 1, 1, 1), (2, 1, 1), (2, 2), (4,)}
    assert len(symplectic_partitions(6)) == 8
    assert (3, 2, 1) not in symplectic_partitions(6)
    assert (3, 3) in symplectic_partitions(6)


def test_unipotent_class_flags():
    gl4 = build_group("GL", 4)
    cls = UnipotentClass("GL", 4, (4,))
    assert cls.regular and cls.distinguished
    assert cls.rank_drop == 3
    cls = UnipotentClass("GL", 4, (2, 2))
    assert not cls.regular and not cls.distinguished
    # GSp distinguished: all parts even and distinct
    assert UnipotentClass("GSp", 6, (4, 2)).distinguished
    assert not UnipotentClass("GSp", 6, (4, 2)).regular
    assert UnipotentClass("GSp", 6, (6,)).regular
    assert not UnipotentClass("GSp", 6, (2, 2, 2)).distinguished
    assert len(unipotent_classes(gl4)) == 5


def test_unipotent_class_validation():
    with pytest.raises(ValueError):
        UnipotentClass("GL", 4, (3, 2))  # wrong total
    with pytest.raises(ValueError):
        UnipotentClass("GSp", 4, (3, 1))  # odd part with odd multiplicity
    with pytest.raises(ValueError):
        UnipotentClass("GL", 4, (1, 3))  # not sorted descending


def test_classes_sorted_by_rank_drop():
    datum = build_group("GSp", 6)
    classes = unipotent_classes(datum)
    drops = [c.rank_drop for c in classes]
    assert drops == sorted(drops)
    assert [c.partition for c in classes if c.rank_drop == 2] == [(2, 2, 1, 1)]


# -- explicit groups -----------------------------------------------------------


def test_cyclic_group_axioms():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.abelian
    assert g.element_order("1") == 6
    assert g.element_order("3") == 2
    assert g.inv("2") == "4"


def test_direct_product_and_orders():
    g = direct_product(cyclic_group(2), cyclic_group(4))
    assert g.order == 8
    assert g.abelian
    orders = sorted(g.element_order(a) for a in g.labels)
    assert orders == [1, 2, 2, 2, 4, 4, 4, 4]
    for left, right in ((cyclic_group(2), cyclic_group(4)), (symmetric_group_3(), cyclic_group(2))):
        prod = direct_product(left, right)
        for a1 in left.labels:
            for b1 in right.labels:
                for a2 in left.labels:
                    for b2 in right.labels:
                        assert prod.mul(f"{a1},{b1}", f"{a2},{b2}") == (
                            f"{left.mul(a1, a2)},{right.mul(b1, b2)}")


def test_nonabelian_groups():
    s3 = symmetric_group_3()
    assert s3.order == 6 and not s3.abelian
    q8 = quaternion_group()
    assert q8.order == 8 and not q8.abelian
    assert sorted(q8.element_order(a) for a in q8.labels) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_is_automorphism():
    g = cyclic_group(4)
    inv = {a: g.inv(a) for a in g.labels}
    assert g.is_automorphism(inv)
    swap_bad = {"0": "0", "1": "2", "2": "1", "3": "3"}
    assert not g.is_automorphism(swap_bad)
    not_bijective = {a: "0" for a in g.labels}
    missing_key = {"0": "0", "1": "3", "2": "2"}
    extra_key = {**inv, "4": "4"}
    not_a_label = {**inv, "3": "x"}
    for bad in (not_bijective, missing_key, extra_key, not_a_label):
        assert not g.is_automorphism(bad)
        with pytest.raises(ValueError):
            twisted_class_count(g, bad)


def _product(*groups):
    g = groups[0]
    for h in groups[1:]:
        g = direct_product(g, h)
    return g


def _subgroup(group, gens):
    """The subgroup generated by gens, closed under products on both sides."""
    sub = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (group.table[x][g], group.table[g][x]):
                if y not in sub:
                    sub.add(y)
                    frontier.append(y)
    return sub


def _respects_all_pairs(group, images):
    t = group.table
    return all(images[t[a][b]] == t[images[a]][images[b]]
               for a in range(group.order) for b in range(group.order))


def test_generators_greedy_in_label_order():
    z2 = cyclic_group(2)
    groups = [cyclic_group(d) for d in range(1, 13)] + [
        _product(z2, z2), _product(z2, cyclic_group(4)), _product(z2, z2, z2),
        _product(z2, z2, z2, z2), _product(cyclic_group(4), cyclic_group(4)),
        _product(cyclic_group(3), cyclic_group(6)), symmetric_group_3(), quaternion_group(),
        _product(symmetric_group_3(), z2), _product(quaternion_group(), z2),
    ]
    for g in groups:
        assert _subgroup(g, g.generators) == set(range(g.order)), g
        for i, gen in enumerate(g.generators):
            outside = set(range(g.order)) - _subgroup(g, g.generators[:i])
            assert g.labels[gen] == min(g.labels[a] for a in outside), (g, i)
    assert len(_product(z2, z2, z2, z2).generators) == 4
    big = cyclic_group(500)
    assert [big.labels[a] for a in big.generators] == ["1"]
    assert cyclic_group(1).generators == ()


def test_generator_test_matches_all_pairs_on_every_bijection():
    z2 = cyclic_group(2)
    groups = [cyclic_group(d) for d in range(2, 7)] + [_product(z2, z2), symmetric_group_3()]
    for g in groups:
        verdicts = set()
        for images in itertools.permutations(range(g.order)):
            verdict = g._respects(images)
            assert verdict == _respects_all_pairs(g, images), (g, images)
            verdicts.add(verdict)
        assert verdicts == {True, False}


def test_generator_test_matches_all_pairs_on_sampled_bijections():
    rng = random.Random(10)
    z2 = cyclic_group(2)
    for g in (quaternion_group(), _product(z2, cyclic_group(4)), _product(z2, z2, z2),
              _product(symmetric_group_3(), z2)):
        autos = [g.twist_indices(t) for t in all_automorphisms(g)]
        # near misses: an automorphism followed by a transposition
        near = [tuple(a[i] if a[i] not in (x, y) else x + y - a[i] for i in range(g.order))
                for a in autos[:20] for x, y in [rng.sample(range(g.order), 2)]]
        sample = [tuple(rng.sample(range(g.order), g.order)) for _ in range(300)]
        assert any(images[0] != 0 for images in sample)
        for images in autos + near + sample:
            assert g._respects(images) == _respects_all_pairs(g, images), (g, images)


# -- twisted classes -----------------------------------------------------------


def test_twisted_classes_identity_abelian():
    # With the identity twist every element is its own orbit in an abelian group
    g = cyclic_group(5)
    assert twisted_class_count(g).count == 5


def test_twisted_classes_inversion_z4():
    g = cyclic_group(4)
    inv = {a: g.inv(a) for a in g.labels}
    # a ~ g + a + g = a + 2g: orbits {0, 2} and {1, 3}
    assert twisted_class_count(g, inv).count == 2


def test_twisted_classes_inversion_z5():
    g = cyclic_group(5)
    inv = {a: g.inv(a) for a in g.labels}
    # a ~ a + 2g and 2 is invertible mod 5: single orbit... per coset of image
    assert twisted_class_count(g, inv).count == 1


def test_twisted_classes_reject_non_automorphism():
    g = cyclic_group(4)
    with pytest.raises(ValueError):
        twisted_class_count(g, {"0": "0", "1": "2", "2": "1", "3": "3"})


def test_conjugacy_class_counts():
    assert conjugacy_class_count(symmetric_group_3()) == 3
    assert conjugacy_class_count(quaternion_group()) == 5
    assert conjugacy_class_count(cyclic_group(7)) == 7


def test_representatives_identity_first():
    g = cyclic_group(4)
    inv = {a: g.inv(a) for a in g.labels}
    reps = twisted_class_count(g, inv).representatives
    assert reps[0] == "0"


# -- component groups ----------------------------------------------------------


def test_prime_to_part():
    assert prime_to_part(12, 2) == 3
    assert prime_to_part(12, 3) == 4
    assert prime_to_part(5, 5) == 1
    assert prime_to_part(7, None) == 7


def test_component_group_gl_trivial():
    datum = build_group("GL", 4)
    ctx = ArithmeticContext(q=3, ell=5)
    for cls in unipotent_classes(datum):
        pi0 = component_group(datum, cls, ctx)
        assert (pi0.name, pi0.group.order, pi0.curated_note) == ("1", 1, None)


def test_component_group_sl_mu_gcd():
    datum = build_group("SL", 4)
    ctx = ArithmeticContext(q=3, ell=5)
    regular = UnipotentClass("SL", 4, (4,))
    pi0 = component_group(datum, regular, ctx)
    assert pi0.name == "mu_4"
    assert pi0.group.order == 4
    # the group is realized at the caller's ell: its ell-part is stripped
    pi0 = component_group(datum, regular, ArithmeticContext(q=3, ell=2))
    assert (pi0.name, pi0.group.order) == ("mu_4", 1)
    pi0 = component_group(datum, regular, ArithmeticContext(q=3))
    assert (pi0.name, pi0.group.order) == ("mu_4", 4)
    pi0 = component_group(datum, UnipotentClass("SL", 4, (2, 2)), ctx)
    assert pi0.name == "mu_2"
    pi0 = component_group(datum, UnipotentClass("SL", 4, (2, 1, 1)), ctx)
    assert pi0.name == "mu_1"


def test_component_group_gsp4():
    datum = build_group("GSp", 4)
    ctx = ArithmeticContext(q=3, ell=5)
    table = {
        (1, 1, 1, 1): "1",
        (2, 1, 1): "1",
        (2, 2): "Z/2",
        (4,): "1",
    }
    for cls in unipotent_classes(datum):
        pi0 = component_group(datum, cls, ctx)
        assert pi0.name == table[cls.partition]
        assert pi0.group.name == pi0.name


def test_component_group_gsp6_curated():
    datum = build_group("GSp", 6)
    ctx = ArithmeticContext(q=3, ell=5)
    pi0 = component_group(datum, UnipotentClass("GSp", 6, (2, 2, 1, 1)), ctx)
    assert (pi0.name, pi0.group.order) == ("Z/2", 2)
    pi0 = component_group(datum, UnipotentClass("GSp", 6, (4, 2)), ctx)
    assert (pi0.name, pi0.group.order) == ("1", 1)
    assert pi0.curated_note and "curated-uncertain" in pi0.curated_note


def test_component_group_gsp_rank_counts_even_parts():
    # (Z/2)^r with r = #distinct even parts, less 1 when one has odd multiplicity;
    # past GSp_6 the preset guard is bypassed, since pi_0 reads only the partition
    datum = _datum("GSp", 12)
    ctx = ArithmeticContext(q=3, ell=5)
    table = {(6, 4, 2): "Z/2xZ/2", (4, 4, 2, 2): "Z/2xZ/2", (6, 6): "Z/2",
             (4, 4, 2, 1, 1): "Z/2", (12,): "1", (3, 3, 3, 3): "1"}
    for partition, name in table.items():
        pi0 = component_group(datum, UnipotentClass("GSp", 12, partition), ctx)
        assert (pi0.name, pi0.group.name, pi0.group.order) == (name, name, 2 ** name.count("Z/2"))


def test_gsp_rejects_ell_2():
    datum = build_group("GSp", 4)
    ctx = ArithmeticContext(q=3, ell=2)
    with pytest.raises(ValueError):
        component_group(datum, UnipotentClass("GSp", 4, (2, 2)), ctx)


# -- the census ----------------------------------------------------------------


def test_census_gsp4_golden():
    entries = census(build_group("GSp", 4), ArithmeticContext(q=3, ell=5))
    assert [e.label for e in entries] == ["C0", "C1", "C2A", "C2B", "C3"]
    assert [e.unipotent.partition for e in entries] == [
        (1, 1, 1, 1), (2, 1, 1), (2, 2), (2, 2), (4,)]
    # identity twisted class listed first within the split class
    assert entries[2].twisted_rep == "0"
    assert entries[3].twisted_rep == "1"


def test_census_sl2_ell_sensitivity():
    sl2 = build_group("SL", 2)
    assert len(census(sl2, ArithmeticContext(q=3, ell=5))) == 3
    assert len(census(sl2, ArithmeticContext(q=3, ell=2))) == 2
    assert len(census(sl2, ArithmeticContext(q=3))) == 3


def test_census_gsp6_golden():
    entries = census(build_group("GSp", 6), ArithmeticContext(q=3, ell=5))
    assert [e.label for e in entries] == [
        "C0", "C1", "C2A", "C2B", "C3A", "C3B", "C4A", "C4B", "C5"]
    by_label = {e.label: e for e in entries}
    assert by_label["C4B"].unipotent.partition == (4, 2)
    assert by_label["C4B"].pi0.curated_note is not None


def test_census_gl_partition_count():
    for n in (1, 2, 3, 5):
        entries = census(build_group("GL", n), ArithmeticContext(q=4, ell=3))
        assert len(entries) == len(partitions(n))
        assert all(e.pi0.name == "1" for e in entries)


def test_census_label_letters_only_on_collision():
    entries = census(build_group("SL", 3), ArithmeticContext(q=3, ell=5))
    # classes (1,1,1), (2,1), (3); only (3,) has mu_3 with 3 ell-regular points
    labels = [e.label for e in entries]
    assert labels == ["C0", "C1", "C2A", "C2B", "C2C"]


def test_census_to_dict_keys():
    e = census(build_group("SL", 2), ArithmeticContext(q=3, ell=5))[0]
    d = e.to_dict()
    assert set(d) == {"partition", "label", "rank_drop", "regular", "distinguished",
                      "pi0", "pi0_points", "twisted_class", "curated_note"}


@pytest.mark.parametrize("ell", [None, 3, 5, 7])
def test_census_entries_do_not_depend_on_q(ell):
    presets = [("SL", n) for n in range(2, 7)] + [("GSp", 4), ("GSp", 6)] + [
        ("U", n) for n in range(3, 6)]
    qs = [q for q in (2, 3, 4, 5, 7, 8, 9) if ell is None or q % ell]
    for family, n in presets:
        datum = build_group(family, n)
        first, *rest = (
            [e.to_dict() for e in census(datum, ArithmeticContext(q=q, ell=ell))] for q in qs)
        assert all(entries == first for entries in rest), (family, n, ell)


@given(st.integers(1, 12), st.integers(0, 11))
@settings(max_examples=40, deadline=None)
def test_twisted_count_matches_cokernel_size_for_cyclic_power_maps(d, k):
    # x -> kx is an automorphism of Z/d iff gcd(k, d) = 1; orbit count under
    # a |-> g + a - k g ... reduces to cosets of the image of (1 - k)
    import math
    if math.gcd(k, d) != 1:
        return
    g = cyclic_group(d)
    twist = {a: str((k * int(a)) % d) for a in g.labels}
    got = twisted_class_count(g, twist).count
    assert got == math.gcd((1 - k) % d if (1 - k) % d else d, d)
