"""Standard Levi subgroups and the coverage report.

A census entry is covered when its class is regular in some stable standard
Levi and the entry's twisted class is reached from that Levi.  Reachability is
a preset rule validated by the finite oracles: the identity twisted class is
always reached; non-identity classes are reached from the full group, and (via
block-scalar witnesses) from proper Levis in the SL family only.

Each witness is built straight from the partition (`regular_levi`);
`standard_levis` enumerates every subset and is the reference scan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .census import CensusEntry, UnipotentClass, census
from .root_datum import ArithmeticContext, GroupDatum


def simple_root_permutation(datum: GroupDatum) -> tuple[int, ...]:
    """The permutation induced by the Frobenius dual on simple-root indices."""
    out = []
    for k in datum.simple:
        image = tuple(
            sum(datum.frobenius_dual[i][j] * datum.roots[k][j] for j in range(datum.torus_rank))
            for i in range(datum.torus_rank)
        )
        matches = [j for j in datum.simple if datum.roots[j] == image]
        if len(matches) != 1:
            raise ValueError("frobenius does not permute the simple roots")
        out.append(datum.simple.index(matches[0]))
    return tuple(out)


@dataclass(frozen=True)
class StandardLevi:
    """Levi determined by a subset of simple roots.

    gl_blocks lists diagonal GL block sizes by position (singleton positions
    included); core is the symplectic core size 2c for GSp subsets containing
    the long root, else 0.
    """

    family: str
    n: int
    subset: tuple[int, ...]
    gamma_stable: bool
    gl_blocks: tuple[int, ...]
    core: int

    @property
    def is_full_group(self) -> bool:
        n_simple = (self.n // 2) if self.family == "GSp" else self.n - 1
        return len(self.subset) == n_simple

    def jordan_contribution(self) -> tuple[int, ...]:
        """Jordan type of a regular unipotent of this Levi in the ambient group."""
        if self.family in ("GL", "SL", "U"):
            return tuple(sorted(self.gl_blocks, reverse=True))
        parts = []
        for b in self.gl_blocks:
            parts += [b, b]
        if self.core:
            parts.append(self.core)
        return tuple(sorted(parts, reverse=True))

    def describe(self) -> str:
        pieces = [f"GL{b}" for b in self.gl_blocks]
        if self.family == "GSp" and self.core:
            pieces.append(f"GSp{self.core}")
        return "x".join(pieces) if pieces else "T"

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "gamma_stable": self.gamma_stable,
            "blocks": list(self.gl_blocks),
            "core": self.core if self.family == "GSp" else None,
            "shape": self.describe(),
        }


def _gl_blocks(subset: set[int], npos: int) -> tuple[int, ...]:
    """GL block sizes on npos positions; simple root i < npos - 1 in subset joins i and i + 1."""
    blocks = []
    pos = 0
    while pos < npos:
        end = pos
        while end in subset and end < npos - 1:
            end += 1
        blocks.append(end - pos + 1)
        pos = end + 1
    return tuple(blocks)


def _levi_from_subset(datum: GroupDatum, subset: tuple[int, ...], stable: bool) -> StandardLevi:
    s = set(subset)
    if datum.family in ("GL", "SL", "U"):
        return StandardLevi(datum.family, datum.n, subset, stable, _gl_blocks(s, datum.n), 0)
    # GSp: the run of simple roots ending at the long root m - 1 spans the core
    m = datum.n // 2
    npos = m
    while npos - 1 in s:
        npos -= 1
    return StandardLevi(datum.family, datum.n, subset, stable, _gl_blocks(s, npos), 2 * (m - npos))


def standard_levis(datum: GroupDatum) -> list[StandardLevi]:
    """All subsets of simple roots, flagged stable under the Frobenius dual."""
    perm = simple_root_permutation(datum)
    n_simple = len(datum.simple)
    out = []
    for size in range(n_simple + 1):
        for subset in combinations(range(n_simple), size):
            stable = {perm[i] for i in subset} == set(subset)
            out.append(_levi_from_subset(datum, subset, stable))
    return out


def _block_subset(blocks) -> tuple[int, ...]:
    """The simple roots joining the positions of each block, blocks laid out from 0."""
    subset, start = [], 0
    for b in blocks:
        subset += range(start, start + b - 1)
        start += b
    return tuple(subset)


def regular_levi(datum: GroupDatum, partition: tuple[int, ...]) -> Optional[StandardLevi]:
    """The first stable standard Levi in (len(subset), subset) order whose regular
    unipotent has Jordan type partition, or None.

    A class is regular in a Levi exactly when the Levi's blocks rearrange its
    partition (Bala-Carter), so all such subsets have one size, and the least
    of them lays the blocks out in decreasing order.  GL, SL: the blocks are
    the partition.  With half each part repeated mult // 2 times: U_n needs a
    palindrome, half + [odd-multiplicity part] + reversed(half); GSp has GL
    blocks half (each gives (b, b)) and the odd-multiplicity part as core 2c.
    For U_n and GSp, two odd-multiplicity parts leave no witness.
    """
    counts = Counter(partition)
    half = [d for d in sorted(counts, reverse=True) for _ in range(counts[d] // 2)]
    odd = [d for d in counts if counts[d] % 2]
    if datum.family in ("GL", "SL"):
        subset = _block_subset(sorted(partition, reverse=True))
    elif len(odd) > 1:
        return None
    elif datum.family == "U":
        subset = _block_subset(half + odd + half[::-1])
    else:
        m = datum.n // 2
        c = odd[0] // 2 if odd else 0
        subset = _block_subset(half) + tuple(range(m - c, m))
    return _levi_from_subset(datum, subset, True)


def is_regular_in(cls: UnipotentClass, levi: StandardLevi) -> bool:
    """Whether the class is the regular unipotent class of the Levi."""
    if cls.family != levi.family or cls.ambient != levi.n:
        raise ValueError("class and Levi belong to different group data")
    if not levi.gamma_stable:
        raise ValueError("coverage only considers gamma-stable Levis")
    return levi.jordan_contribution() == cls.partition


def _reaches_twisted_class(datum: GroupDatum, levi: StandardLevi, identity_rep: bool) -> bool:
    if identity_rep:
        return True
    if levi.is_full_group:
        return True
    # proper SL Levis surject onto pi_0 (block-scalar witnesses); other
    # families' proper Levis have connected regular centralizers
    return datum.family == "SL"


@dataclass(frozen=True)
class CoverageVerdict:
    entry: CensusEntry
    covered: bool
    witness: Optional[StandardLevi]
    reason: str

    def to_dict(self) -> dict:
        d = self.entry.to_dict()
        d["covered"] = self.covered
        d["witness"] = self.witness.to_dict() if self.witness else None
        d["reason"] = self.reason
        return d


def coverage_report(datum: GroupDatum, ctx: ArithmeticContext) -> list[CoverageVerdict]:
    """One verdict per census entry, in census order.

    Reaching a twisted class depends on a Levi only through its subset size,
    so the first regular Levi stands for all of them.
    """
    verdicts = []
    for entry in census(datum, ctx):
        cls = entry.unipotent
        identity_rep = entry.twisted_rep == entry.pi0.group.identity
        levi = regular_levi(datum, cls.partition)
        if levi is not None and _reaches_twisted_class(datum, levi, identity_rep):
            verdicts.append(CoverageVerdict(entry, True, levi, "regular-in-Levi"))
        elif levi is not None:
            verdicts.append(CoverageVerdict(entry, False, None, "twisted-class-not-reached"))
        elif cls.distinguished and not cls.regular:
            verdicts.append(CoverageVerdict(entry, False, None, "distinguished-non-regular"))
        else:
            verdicts.append(CoverageVerdict(entry, False, None, "no-stable-levi-witness"))
    return verdicts
