"""Census of unipotent components: classes, centralizer pi_0, twisted classes.

Unipotent classes are Jordan partitions (with the even-multiplicity constraint
on odd parts in the similitude-symplectic case).  Component groups of
centralizers are curated per family from classical centralizer theory and
cross-checked by the brute-force oracles; each census entry is one
Frobenius-twisted conjugacy class in that component group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from .root_datum import ArithmeticContext, GroupDatum

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n as weakly decreasing tuples, in reverse lexicographic order.

    Zoghbi and Stojmenovic's ZS1 (Int. J. Comput. Math. 70, 1998): x[:m] is
    the current partition, every entry past h is 1, and each step lowers x[h]
    by one and refills the tail with as many copies of x[h] as fit.
    """
    if n < 0:
        raise ValueError("partitions of a negative integer")
    if n == 0:
        return ((),)
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    out = [(n,)]
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # the unit taken from x[h] plus the ones after it
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        out.append(tuple(x[:m]))
    return tuple(out)


def symplectic_partitions(n: int) -> tuple[Partition, ...]:
    """Partitions of n in which every odd part has even multiplicity."""
    out = []
    for p in partitions(n):
        if all(p.count(d) % 2 == 0 for d in set(p) if d % 2 == 1):
            out.append(p)
    return tuple(out)


def _is_distinguished(family: str, partition: Partition) -> bool:
    if family in ("GL", "SL", "U"):
        return len(partition) == 1
    # similitude-symplectic: all parts even and pairwise distinct
    return all(d % 2 == 0 for d in partition) and len(set(partition)) == len(partition)


@dataclass(frozen=True)
class UnipotentClass:
    """One unipotent conjugacy class, labeled by its Jordan partition."""

    family: str
    ambient: int  # n for GL/SL/U, 2m for GSp
    partition: Partition

    @property
    def rank_drop(self) -> int:
        """rank(u - 1) = ambient size minus the number of Jordan blocks."""
        return self.ambient - len(self.partition)

    @property
    def regular(self) -> bool:
        return self.partition == (self.ambient,)

    @property
    def distinguished(self) -> bool:
        return _is_distinguished(self.family, self.partition)

    def __post_init__(self):
        if sum(self.partition) != self.ambient:
            raise ValueError(f"partition {self.partition} does not sum to {self.ambient}")
        if list(self.partition) != sorted(self.partition, reverse=True):
            raise ValueError(f"partition must be weakly decreasing: {self.partition}")
        if self.family == "GSp" and any(
                self.partition.count(d) % 2 for d in set(self.partition) if d % 2):
            raise ValueError(
                f"odd parts need even multiplicity in type C: {self.partition}")


def unipotent_classes(datum: GroupDatum) -> list[UnipotentClass]:
    """All unipotent classes of the preset, sorted by (rank(u-1), partition).

    rank(u-1) is n minus the number of parts, so more parts come first.  The
    partitions arrive in reverse lexicographic order: read backwards into one
    bucket per length, each bucket is in lexicographic order.
    """
    parts = symplectic_partitions(datum.n) if datum.family == "GSp" else partitions(datum.n)
    by_length = [[] for _ in range(datum.n + 1)]
    for p in reversed(parts):
        by_length[len(p)].append(p)
    return [UnipotentClass(datum.family, datum.n, p)
            for bucket in reversed(by_length) for p in bucket]


# -- explicit finite groups ---------------------------------------------------


class ExplicitGroup:
    """Finite group on the elements 0..order-1, with element 0 the identity.

    table[a][b] is the index of a*b, and labels[a] is the string that names a.
    Labels appear only at the edges: at construction, in the label -> label
    twists that callers pass, and in the representatives that reach the
    output; `mul`, `inv` and `element_order` take and return labels.  Inverses,
    a generating set, the abelian flag and a presentation are precomputed:
    twisted-class counting is run over every automorphism of every small group
    in the test suite, so the per-call cost matters.

    `generators` takes each element in label order that lies outside the
    subgroup H_i the earlier ones generate, and the group is abelian exactly
    when they commute pairwise.  H_(i+1) is closed by walking the right cosets
    of H_i in it breadth first from 1, multiplying by g_0 .. g_i: each
    representative t != 1 of the transversal T is t' * g_j for an earlier t'.
    The relation pairs (a, b) of that level, stored as (a*b, a, b), are
    (t, g_j) for t != 1 in T and j <= i, then (h, t) for h != 1 in H_i and
    t != 1 in T.  Write x = h*t and t*g_j = h'*t''.  A map phi with phi(1) = 1
    that is a homomorphism on H_i and keeps phi(ab) = phi(a)*phi(b) on these
    pairs keeps phi(x*g_j) = phi(x)*phi(g_j) for every x in H_(i+1), so it is
    a homomorphism on H_(i+1) (Schreier's lemma).  That is 21 pairs for
    (Z/2)^4, against |G| * #generators = 64 products.
    `automorphism_images` is the one check that a twist is an automorphism.
    """

    __slots__ = ("name", "labels", "table", "inverse", "abelian", "generators", "_index",
                 "_by_label", "_relations", "_accepted")

    def __init__(self, name: str, labels: tuple[str, ...], table: Sequence[Sequence[int]]):
        self.name = name
        self.labels = labels
        self.table = table = tuple(tuple(row) for row in table)
        self._index = {a: i for i, a in enumerate(labels)}
        inverse = []
        for a, row in zip(labels, table):
            if 0 not in row:
                raise ValueError(f"no inverse for {a}")
            inverse.append(row.index(0))
        self.inverse = tuple(inverse)
        self._by_label = tuple(sorted(range(len(labels)), key=labels.__getitem__))
        gens: list[int] = []
        relations = []
        members = [0]  # H_i, the subgroup that gens generate
        inside = bytearray(len(labels))
        inside[0] = 1
        for a in self._by_label:
            if inside[a]:
                continue
            gens.append(a)
            # the right cosets of old = H_i in H_(i+1), one representative each
            old = members[:]
            transversal = [0]
            level = []
            for t in transversal:
                row = table[t]
                for g in gens if t else (a,):
                    y = row[g]
                    if t:
                        level.append((y, t, g))
                    if not inside[y]:
                        transversal.append(y)
                        coset = [table[h][y] for h in old]
                        for z in coset:
                            inside[z] = 1
                        members += coset
            level += [(table[h][t], h, t) for t in transversal[1:] for h in old[1:]]
            relations.append(tuple(level))
        self.generators = tuple(gens)
        self._relations = tuple(relations)
        self.abelian = all(table[a][b] == table[b][a] for a, b in itertools.combinations(gens, 2))
        self._accepted = None

    def __repr__(self) -> str:
        return f"ExplicitGroup({self.name}, order {self.order})"

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def identity(self) -> str:
        return self.labels[0]

    def mul(self, a: str, b: str) -> str:
        return self.labels[self.table[self._index[a]][self._index[b]]]

    def inv(self, a: str) -> str:
        return self.labels[self.inverse[self._index[a]]]

    def twist_indices(self, twist: Mapping[str, str]) -> Optional[tuple[int, ...]]:
        """The twist as a tuple of image indices; None unless it is a bijection of the labels."""
        if len(twist) != self.order:
            return None
        try:
            images = tuple(self._index[twist[a]] for a in self.labels)
        except KeyError:
            return None
        return images if len(set(images)) == self.order else None

    def _respects(self, images: Sequence[int]) -> bool:
        """Whether images[0] == 0 and images[a*b] == images[a]*images[b] on every relation pair.

        For a bijection that makes it an automorphism: see the class docstring.
        """
        if images[0]:
            return False
        table = self.table
        for level in self._relations:
            for ab, a, b in level:
                if images[ab] != table[images[a]][images[b]]:
                    return False
        return True

    def automorphism_images(self, twist: Optional[Mapping[str, str]]) -> tuple[int, ...]:
        """The twist as a tuple of image indices, None as the identity.

        Raises ValueError unless the twist is an automorphism.  The last twist
        accepted is kept as a private copy with its images and matched by
        value: callers hand the same twist to the census count and then to
        the brute force, and the second check costs one dict comparison.
        """
        if twist is None:
            return tuple(range(self.order))
        accepted = self._accepted
        if accepted is not None and accepted[0] == twist:
            return accepted[1]
        images = self.twist_indices(twist)
        if images is None or not self._respects(images):
            raise ValueError("twist is not an automorphism of the group")
        self._accepted = (dict(twist), images)
        return images

    def element_order(self, a: str) -> int:
        i = x = self._index[a]
        n = 1
        while x:
            x = self.table[x][i]
            n += 1
        return n


@lru_cache(maxsize=None)
def cyclic_group(d: int) -> ExplicitGroup:
    """Z/d in additive notation, labels "0".."d-1"."""
    if d < 1:
        raise ValueError("cyclic group order must be >= 1")
    elems = tuple(range(d))
    name = "1" if d == 1 else f"Z/{d}"
    return ExplicitGroup(name, tuple(str(i) for i in elems),
                         [elems[a:] + elems[:a] for a in elems])


def direct_product(g: ExplicitGroup, h: ExplicitGroup) -> ExplicitGroup:
    """g x h with labels "a,b"; (a, b) has index a * |h| + b."""
    labels = tuple(f"{a},{b}" for a in g.labels for b in h.labels)
    table = [
        [ga * h.order + hb for ga in g_row for hb in h_row]
        for g_row in g.table
        for h_row in h.table
    ]
    return ExplicitGroup(f"{g.name}x{h.name}", labels, table)


def _perm_label(p: tuple[int, ...]) -> str:
    # cycle notation on {1,2,3}
    seen = set()
    cycles = []
    for start in range(len(p)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = p[nxt]
        if len(cyc) > 1:
            cycles.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(cycles) if cycles else "e"


@lru_cache(maxsize=None)
def symmetric_group_3() -> ExplicitGroup:
    perms = [
        (0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1),
    ]
    table = [[perms.index(tuple(p[r[i]] for i in range(3))) for r in perms] for p in perms]
    return ExplicitGroup("S_3", tuple(_perm_label(p) for p in perms), table)


@lru_cache(maxsize=None)
def quaternion_group() -> ExplicitGroup:
    # (sign, axis) with axis in {1, i, j, k}
    basis = {("1", "1"): ("+", "1"), ("i", "i"): ("-", "1"), ("j", "j"): ("-", "1"),
             ("k", "k"): ("-", "1"), ("i", "j"): ("+", "k"), ("j", "i"): ("-", "k"),
             ("j", "k"): ("+", "i"), ("k", "j"): ("-", "i"), ("k", "i"): ("+", "j"),
             ("i", "k"): ("-", "j")}

    def mul(x, y):
        sx, ax = x
        sy, ay = y
        if ax == "1":
            s, a = "+", ay
        elif ay == "1":
            s, a = "+", ax
        else:
            s, a = basis[(ax, ay)]
        neg = (sx == "-") ^ (sy == "-") ^ (s == "-")
        return ("-" if neg else "+", a)

    elems = [(s, a) for a in ("1", "i", "j", "k") for s in ("+", "-")]
    labels = tuple(e[1] if e[0] == "+" else "-" + e[1] for e in elems)
    table = [[elems.index(mul(x, y)) for y in elems] for x in elems]
    return ExplicitGroup("Q_8", labels, table)


# -- twisted conjugacy --------------------------------------------------------


@dataclass(frozen=True)
class TwistedClasses:
    count: int
    representatives: tuple[str, ...]
    method: str  # "cokernel" or "orbit"


def twisted_class_count(group: ExplicitGroup, twist: Optional[Mapping[str, str]] = None) -> TwistedClasses:
    """Orbits of a -> g a twist(g)^-1; cokernel shortcut in the abelian case.

    The twist maps labels to labels and defaults to the identity.  An orbit is
    represented by the identity if it holds it, else by its smallest label as
    a string; the identity's representative comes first, the rest follow in
    string order.  One pass visits the identity, then every element in label
    order, and marks the orbit of each element not yet marked: the first
    element met in an orbit is its representative, met in output order.  In
    an abelian group the orbits are the cosets of the image of g -> g
    twist(g)^-1, a subgroup; otherwise each orbit is closed by search.
    """
    images = group.automorphism_images(twist)
    table = group.table
    twist_inv = [group.inverse[t] for t in images]  # g -> twist(g)^-1
    abelian = group.abelian
    if abelian:
        image = {table[g][t] for g, t in enumerate(twist_inv)}
    labels = group.labels
    reps = []
    seen = bytearray(group.order)
    for start in (0, *group._by_label):
        if seen[start]:
            continue
        reps.append(labels[start])
        if abelian:
            row = table[start]
            for h in image:
                seen[row[h]] = 1
        else:
            seen[start] = 1
            frontier = [start]
            while frontier:
                a = frontier.pop()
                for g, t in enumerate(twist_inv):
                    b = table[table[g][a]][t]
                    if not seen[b]:
                        seen[b] = 1
                        frontier.append(b)
    return TwistedClasses(len(reps), tuple(reps), "cokernel" if abelian else "orbit")


# -- component groups of unipotent centralizers ------------------------------


def prime_to_part(d: int, ell: Optional[int]) -> int:
    """Largest divisor of d coprime to ell (d itself when ell is None)."""
    if ell is None:
        return d
    while d % ell == 0:
        d //= ell
    return d


@dataclass(frozen=True)
class ComponentGroup:
    """pi_0 of a unipotent centralizer, realized at one ell.

    `name` is the group scheme: "1", mu_d, or a constant etale (Z/2)^r.
    `group` is its ell'-points as an explicit group: for mu_d that is the
    prime-to-ell part of d, and the etale groups of the supported presets do
    not depend on ell.
    """

    name: str
    group: ExplicitGroup
    curated_note: Optional[str] = None


@lru_cache(maxsize=None)
def _shared(name: str, group: ExplicitGroup) -> ComponentGroup:
    """One frozen ComponentGroup per (name, group), shared by every class that has it."""
    return ComponentGroup(name, group)


def component_group(datum: GroupDatum, cls: UnipotentClass, ctx: ArithmeticContext) -> ComponentGroup:
    """Curated pi_0 of the centralizer of a unipotent of the given class, at ctx.ell."""
    if cls.family != datum.family or cls.ambient != datum.n:
        raise ValueError(f"class {cls.partition} does not belong to {datum.name}")
    if datum.family in ("GL", "U"):
        return _shared("1", cyclic_group(1))
    if datum.family == "SL":
        d = math.gcd(*cls.partition)
        return _shared(f"mu_{d}", cyclic_group(prime_to_part(d, ctx.ell)))
    # GSp: etale (Z/2)^{distinct even parts}, modulo the class of the central -1,
    # which pairs each even part d with m_d mod 2.
    if ctx.ell == 2:
        raise ValueError("ell = 2 is not supported for GSp presets (pi_0 data assumes ell odd)")
    if datum.n == 6 and cls.partition == (4, 2):
        # classical tables give order 2 here; the census is pinned to a single
        # component for this class, so pi_0 is overridden and flagged
        return ComponentGroup("1", cyclic_group(1), curated_note=(
            "curated-uncertain: centralizer tables suggest Z/2 but the class "
            "is pinned to a single component; see README"))
    even_parts = {d for d in cls.partition if d % 2 == 0}
    rank = len(even_parts) - any(cls.partition.count(d) % 2 for d in even_parts)
    group = cyclic_group(2 if rank else 1)
    for _ in range(rank - 1):
        group = direct_product(group, cyclic_group(2))
    return ComponentGroup(group.name, group)


# -- the census ---------------------------------------------------------------


@dataclass(frozen=True)
class CensusEntry:
    """One irreducible component: a class plus a twisted class in its pi_0."""

    unipotent: UnipotentClass
    label: str
    twisted_rep: str
    pi0: ComponentGroup

    def to_dict(self) -> dict:
        cls, pi0 = self.unipotent, self.pi0
        return {
            "partition": list(cls.partition),
            "label": self.label,
            "rank_drop": cls.rank_drop,
            "regular": cls.regular,
            "distinguished": cls.distinguished,
            "pi0": pi0.name,
            "pi0_points": pi0.group.order,
            "twisted_class": self.twisted_rep,
            "curated_note": pi0.curated_note,
        }


def _letters(idx: int) -> str:
    """Bijective base 26: 0 -> A, 25 -> Z, 26 -> AA, 51 -> AZ, 52 -> BA, 702 -> AAA."""
    out = ""
    idx += 1
    while idx:
        idx, digit = divmod(idx - 1, 26)
        out = chr(ord("A") + digit) + out
    return out


def census(datum: GroupDatum, ctx: ArithmeticContext) -> list[CensusEntry]:
    """One entry per (unipotent class, twisted class in pi_0), labeled C<r><letters>.

    r = rank(u - 1); the letter suffix appears only when several entries share
    an r, in enumeration order (classes by partition, identity twisted class
    first within each class).  It runs A..Z, then AA..AZ, BA..ZZ, AAA...

    Only ctx.ell is read (by component_group, which realizes pi_0 at it);
    ctx.q reaches the payload only.  The twisted classes are those of the
    identity twist on pi_0, so the entries are the same for every q.
    """
    entries = []
    reps: dict[ExplicitGroup, tuple[str, ...]] = {}  # one twisted-class count per pi_0 group
    for r, classes in itertools.groupby(unipotent_classes(datum), key=lambda c: c.rank_drop):
        found = []
        for cls in classes:
            pi0 = component_group(datum, cls, ctx)
            if pi0.group not in reps:
                reps[pi0.group] = twisted_class_count(pi0.group).representatives
            found += [(cls, pi0, rep) for rep in reps[pi0.group]]
        for idx, (cls, pi0, rep) in enumerate(found):
            label = f"C{r}" if len(found) == 1 else f"C{r}{_letters(idx)}"
            entries.append(CensusEntry(cls, label, rep, pi0))
    return entries
