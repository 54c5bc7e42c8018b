"""Standard Levi subgroups and the coverage report.

A census entry is covered when its class is regular in some stable standard
Levi and the entry's twisted class is reached from that Levi.  Reachability is
a preset rule validated by the finite oracles: the identity twisted class is
always reached; non-identity classes are reached from the full group, and (via
block-scalar witnesses) from proper Levis in the SL family only.

A standard Levi is laid out by its runs: the maximal runs of coordinates of
the standard representation that its simple roots join (`GroupDatum.joins`).
Its regular unipotent has one Jordan block per run, in every family.

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

    runs lists the lengths of the maximal runs of coordinates that the subset
    joins, in order.  GSp runs are a palindrome: the GL blocks, then the
    symplectic core 2c when the count of runs is odd, then the mirror.
    """

    family: str
    n: int
    subset: tuple[int, ...]
    gamma_stable: bool
    runs: tuple[int, ...]

    @property
    def gl_blocks(self) -> tuple[int, ...]:
        """Diagonal GL block sizes by position, singleton positions included."""
        return self.runs[:len(self.runs) // 2] if self.family == "GSp" else self.runs

    @property
    def core(self) -> int:
        """The symplectic core size 2c, or 0 when there is none."""
        odd = self.family == "GSp" and len(self.runs) % 2
        return self.runs[len(self.runs) // 2] if odd else 0

    @property
    def is_full_group(self) -> bool:
        return len(self.runs) == 1

    def jordan_contribution(self) -> tuple[int, ...]:
        """Jordan type of a regular unipotent of this Levi in the ambient group."""
        return tuple(sorted(self.runs, reverse=True))

    def describe(self) -> str:
        pieces = [f"GL{b}" for b in self.gl_blocks]
        if self.core:
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


def _levi_from_subset(datum: GroupDatum, subset: tuple[int, ...], stable: bool) -> StandardLevi:
    s = set(subset)
    runs, length = [], 1
    for j in datum.joins:
        if j in s:
            length += 1
        else:
            runs.append(length)
            length = 1
    runs.append(length)
    return StandardLevi(datum.family, datum.n, subset, stable, tuple(runs))


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


def regular_levi(datum: GroupDatum, partition: tuple[int, ...]) -> Optional[StandardLevi]:
    """The first stable standard Levi in (len(subset), subset) order whose regular
    unipotent has Jordan type partition, or None.

    A class is regular in a Levi exactly when the Levi's runs rearrange its
    partition (Bala-Carter), so all such subsets have one size, and the least
    of them lays the runs out in decreasing order.  GL, SL: the runs are the
    partition.  U_n and GSp need a palindrome, half + [odd-multiplicity part]
    + reversed(half), with half each part repeated mult // 2 times; two
    odd-multiplicity parts leave no witness.  A partition of a number other
    than datum.n raises ValueError.
    """
    if sum(partition) != datum.n:
        raise ValueError(f"partition {tuple(partition)} does not sum to {datum.n} for {datum.name}")
    if datum.family in ("GL", "SL"):
        runs = sorted(partition, reverse=True)
    else:
        counts = Counter(partition)
        half = [d for d in sorted(counts, reverse=True) for _ in range(counts[d] // 2)]
        odd = [d for d in counts if counts[d] % 2]
        if len(odd) > 1:
            return None
        runs = half + odd + half[::-1]
    subset, start = set(), 0
    for r in runs:
        subset.update(datum.joins[start:start + r - 1])
        start += r
    return StandardLevi(datum.family, datum.n, tuple(sorted(subset)), True, tuple(runs))


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
