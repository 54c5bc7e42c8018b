"""Standard Levis, gamma-stability, Jordan contributions, witnesses, coverage verdicts."""

import pytest

from param_atlas.census import UnipotentClass, census, partitions
from param_atlas.coverage import (
    _reaches_twisted_class,
    coverage_report,
    is_regular_in,
    regular_levi,
    simple_root_permutation,
    standard_levis,
)
from param_atlas.root_datum import ArithmeticContext, _datum, build_group

CTX = ArithmeticContext(q=3, ell=5)


def levi_by_subset(datum, subset):
    return next(x for x in standard_levis(datum) if x.subset == tuple(subset))


def test_simple_root_permutation_split_groups():
    for family, n in [("GL", 4), ("SL", 3), ("GSp", 4), ("GSp", 6)]:
        datum = build_group(family, n)
        perm = simple_root_permutation(datum)
        assert perm == tuple(range(len(datum.simple)))


def test_simple_root_permutation_u_reversal():
    datum = build_group("U", 4)
    assert simple_root_permutation(datum) == (2, 1, 0)
    datum = build_group("U", 5)
    assert simple_root_permutation(datum) == (3, 2, 1, 0)


def test_standard_levi_count():
    # one Levi per subset of simple roots
    for family, n, count in [("GL", 3, 4), ("SL", 3, 4), ("GSp", 4, 4), ("U", 3, 4),
                             ("GSp", 6, 8)]:
        assert len(standard_levis(build_group(family, n))) == count


def test_gamma_stability_u3():
    datum = build_group("U", 3)
    stable = {x.subset for x in standard_levis(datum) if x.gamma_stable}
    # reversal swaps the two simple roots: only symmetric subsets survive
    assert stable == {(), (0, 1)}


def test_gamma_stability_u4():
    datum = build_group("U", 4)
    stable = {x.subset for x in standard_levis(datum) if x.gamma_stable}
    assert stable == {(), (1,), (0, 2), (0, 1, 2)}


def test_gl_jordan_contribution_from_runs():
    datum = build_group("GL", 5)
    levi = levi_by_subset(datum, (0, 1, 3))
    # runs {0,1} and {3} give blocks 3 and 2
    assert levi.describe() == "GL3xGL2"
    assert levi.jordan_contribution() == (3, 2)


def test_gsp4_jordan_contributions_worked_examples():
    datum = build_group("GSp", 4)
    # short simple root only: GL_2 block, each GL_b contributes the pair (b, b)
    assert levi_by_subset(datum, (0,)).jordan_contribution() == (2, 2)
    # long simple root only: symplectic core of size 2, two single blocks
    assert levi_by_subset(datum, (1,)).jordan_contribution() == (2, 1, 1)
    assert levi_by_subset(datum, ()).jordan_contribution() == (1, 1, 1, 1)
    assert levi_by_subset(datum, (0, 1)).jordan_contribution() == (4,)


def test_gsp6_no_levi_reaches_4_2():
    datum = build_group("GSp", 6)
    target = (4, 2)
    for levi in standard_levis(datum):
        assert levi.jordan_contribution() != target


def test_is_regular_in():
    datum = build_group("GSp", 4)
    cls = UnipotentClass("GSp", 4, (2, 2))
    assert is_regular_in(cls, levi_by_subset(datum, (0,)))
    assert not is_regular_in(cls, levi_by_subset(datum, (1,)))


def test_is_regular_in_rejects_unstable_levi():
    datum = build_group("U", 3)
    unstable = next(x for x in standard_levis(datum) if not x.gamma_stable)
    cls = UnipotentClass("U", 3, (2, 1))
    with pytest.raises(ValueError):
        is_regular_in(cls, unstable)


def test_coverage_gsp4_golden():
    report = coverage_report(build_group("GSp", 4), CTX)
    verdicts = {v.entry.label: v for v in report}
    assert verdicts["C0"].covered and verdicts["C0"].witness.subset == ()
    assert verdicts["C1"].covered
    assert verdicts["C2A"].covered
    assert verdicts["C2A"].witness.describe() == "GL2"
    assert not verdicts["C2B"].covered
    assert verdicts["C2B"].reason == "twisted-class-not-reached"
    assert verdicts["C3"].covered and verdicts["C3"].witness.is_full_group


def test_coverage_u3_golden():
    report = coverage_report(build_group("U", 3), CTX)
    covered = {v.entry.unipotent.partition for v in report if v.covered}
    assert covered == {(1, 1, 1), (3,)}
    missing = next(v for v in report if not v.covered)
    assert missing.entry.unipotent.partition == (2, 1)
    assert missing.reason == "no-stable-levi-witness"


def test_coverage_gsp6_42_distinguished_non_regular():
    report = coverage_report(build_group("GSp", 6), CTX)
    v = next(v for v in report if v.entry.unipotent.partition == (4, 2))
    assert v.entry.unipotent.distinguished
    assert not v.entry.unipotent.regular
    assert not v.covered
    assert v.reason == "distinguished-non-regular"


def test_coverage_gl_all_covered_with_partition_witness():
    for n in (2, 3, 4, 6):
        report = coverage_report(build_group("GL", n), CTX)
        for v in report:
            assert v.covered
            blocks = tuple(sorted(v.witness.jordan_contribution(), reverse=True))
            assert blocks == v.entry.unipotent.partition


def test_coverage_un_parity_rule():
    # covered iff at most one part has odd multiplicity
    for n in (2, 3, 4, 5, 6):
        report = coverage_report(build_group("U", n), CTX)
        for v in report:
            part = v.entry.unipotent.partition
            odd_mult = sum(1 for d in set(part) if part.count(d) % 2 == 1)
            assert v.covered == (odd_mult <= 1), (n, part)


def test_coverage_entries_align_with_census():
    for family, n in [("GL", 3), ("SL", 3), ("U", 4), ("GSp", 4), ("GSp", 6)]:
        datum = build_group(family, n)
        report = coverage_report(datum, CTX)
        assert [v.entry.label for v in report] == [e.label for e in census(datum, CTX)]


def test_verdict_to_dict_merges_census_fields():
    v = coverage_report(build_group("GSp", 4), CTX)[0]
    d = v.to_dict()
    for key in ("partition", "label", "pi0", "covered", "witness", "reason"):
        assert key in d


# -- the witness built from the partition against a full scan -----------------


def stable_levis_in_order(datum):
    levis = [x for x in standard_levis(datum) if x.gamma_stable]
    levis.sort(key=lambda x: (len(x.subset), x.subset))
    return levis


def reference_verdicts(datum, ctx):
    """Scan every stable Levi with is_regular_in for each entry: the reference."""
    levis = stable_levis_in_order(datum)
    out = []
    for entry in census(datum, ctx):
        cls = entry.unipotent
        identity_rep = entry.twisted_rep == entry.pi0.group.identity
        regular = [x for x in levis if is_regular_in(cls, x)]
        witness = next(
            (x for x in regular if _reaches_twisted_class(datum, x, identity_rep)), None)
        if witness is not None:
            reason = "regular-in-Levi"
        elif regular:
            reason = "twisted-class-not-reached"
        elif cls.distinguished and not cls.regular:
            reason = "distinguished-non-regular"
        else:
            reason = "no-stable-levi-witness"
        out.append((entry.label, witness is not None, witness, reason))
    return out


ELLS = (None, 2, 3, 5, 7)
INDEX_CASES = (
    [("GL", n, ell) for n in range(1, 12) for ell in ELLS]
    + [("SL", n, ell) for n in range(2, 12) for ell in ELLS]
    + [("U", n, ell) for n in range(2, 15) for ell in ELLS]
    + [("GSp", n, ell) for n in (4, 6) for ell in (None, 3, 5, 7)]
)


def test_coverage_report_matches_reference_scan():
    for family, n, ell in INDEX_CASES:
        datum = build_group(family, n)
        ctx = ArithmeticContext(q=11, ell=ell)
        got = [(v.entry.label, v.covered, v.witness, v.reason)
               for v in coverage_report(datum, ctx)]
        assert got == reference_verdicts(datum, ctx), (family, n, ell)


def test_regular_levi_is_the_first_regular_stable_levi():
    # gsp8-12 lie past build_group's preset guard, so every datum comes from _datum
    presets = ([("GL", n) for n in range(1, 11)] + [("SL", n) for n in range(2, 11)]
               + [("U", n) for n in range(2, 13)] + [("GSp", n) for n in (4, 6, 8, 10, 12)])
    for family, n in presets:
        datum = _datum(family, n)
        levis = stable_levis_in_order(datum)
        for part in partitions(n):
            expected = next((x for x in levis if x.jordan_contribution() == part), None)
            assert regular_levi(datum, part) == expected, (family, n, part)


def test_regular_levi_pinned_witnesses():
    levi = regular_levi(build_group("U", 7), (3, 1, 1, 1, 1))
    assert levi.gl_blocks == (1, 1, 3, 1, 1)
    assert levi.subset == (2, 3)
    levi = regular_levi(build_group("GSp", 6), (2, 2, 2))
    assert levi.describe() == "GL2xGSp2"
    assert levi.subset == (0, 2)
    # only 2 has odd multiplicity, so it sits in the middle of the palindrome
    assert regular_levi(build_group("U", 4), (2, 1, 1)).gl_blocks == (1, 2, 1)
    # 3 and 1 both have odd multiplicity: no palindromic block layout
    assert regular_levi(build_group("U", 4), (3, 1)) is None
    # the same rule makes gsp6 (4,2) distinguished but not regular in any Levi
    assert regular_levi(build_group("GSp", 6), (4, 2)) is None


def test_regular_levi_rejects_a_partition_of_the_wrong_size():
    with pytest.raises(ValueError, match=r"^partition \(2, 2\) does not sum to 3 for GL3$"):
        regular_levi(build_group("GL", 3), (2, 2))
    with pytest.raises(ValueError, match=r"^partition \(3,\) does not sum to 4 for GSp4$"):
        regular_levi(build_group("GSp", 4), (3,))


def test_coverage_gl16_u16_keep_the_gl_and_parity_rules():
    ctx = ArithmeticContext(q=3, ell=5)
    gl = coverage_report(build_group("GL", 16), ctx)
    assert len(gl) == 231  # p(16)
    for v in gl:
        assert v.covered
        assert v.witness.jordan_contribution() == v.entry.unipotent.partition
    for v in coverage_report(build_group("U", 16), ctx):
        part = v.entry.unipotent.partition
        odd_mult = sum(1 for d in set(part) if part.count(d) % 2 == 1)
        assert v.covered == (odd_mult <= 1), part


# -- the Levi layout against the per-family arithmetic it replaced -------------


def reference_layout(family, n, subset):
    """(gl_blocks, core) by GL positions, or for GSp by the core arithmetic."""
    s = set(subset)
    npos, core = n, 0
    if family == "GSp":
        m = n // 2
        npos = m
        while npos - 1 in s:
            npos -= 1
        core = 2 * (m - npos)
    blocks, pos = [], 0
    while pos < npos:
        end = pos
        while end in s and end < npos - 1:
            end += 1
        blocks.append(end - pos + 1)
        pos = end + 1
    return tuple(blocks), core


def reference_levi_fields(family, n, subset, stable):
    blocks, core = reference_layout(family, n, subset)
    if family == "GSp":
        parts = [b for b in blocks for _ in (0, 1)] + ([core] if core else [])
        n_simple = n // 2
    else:
        parts = list(blocks)
        n_simple = n - 1
    pieces = [f"GL{b}" for b in blocks] + ([f"GSp{core}"] if family == "GSp" and core else [])
    shape = "x".join(pieces) if pieces else "T"
    return {
        "subset": tuple(subset),
        "gl_blocks": blocks,
        "core": core,
        "jordan": tuple(sorted(parts, reverse=True)),
        "full": len(subset) == n_simple,
        "shape": shape,
        "dict": {"subset": list(subset), "gamma_stable": stable, "blocks": list(blocks),
                 "core": core if family == "GSp" else None, "shape": shape},
    }


LAYOUT_PRESETS = ([("GL", n) for n in range(1, 10)] + [("SL", n) for n in range(2, 10)]
                  + [("U", n) for n in range(2, 11)] + [("GSp", n) for n in (4, 6, 8, 10, 12)])


@pytest.mark.parametrize("family,n", LAYOUT_PRESETS)
def test_levi_runs_match_the_per_family_layout(family, n):
    datum = _datum(family, n)
    levis = standard_levis(datum)
    assert len(levis) == 2 ** len(datum.simple)
    for levi in levis:
        got = {
            "subset": levi.subset,
            "gl_blocks": levi.gl_blocks,
            "core": levi.core,
            "jordan": levi.jordan_contribution(),
            "full": levi.is_full_group,
            "shape": levi.describe(),
            "dict": levi.to_dict(),
        }
        assert got == reference_levi_fields(family, n, levi.subset, levi.gamma_stable), (
            family, n, levi.subset)


def test_reports_build_no_roots():
    # census and coverage read the Levi layout off the weights alone
    for family, n, ell in [("GL", 16, None), ("U", 16, None), ("GSp", 6, None), ("SL", 9, 5)]:
        datum = build_group(family, n)
        ctx = ArithmeticContext(q=3, ell=ell)
        coverage_report(datum, ctx)
        census(datum, ctx)
        built = {"spots", "roots", "coroots"} & set(vars(datum))
        assert not built, (family, n, built)
