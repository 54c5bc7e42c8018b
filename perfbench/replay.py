"""Replays of the acceptance sweeps that carry wall-clock deadlines.

Each replay repeats the exact assertions of its criterion in
tests/test_acceptance.py through the public API, times the block the test
wraps in `deadline(...)`, and reports elapsed / deadline.  Criterion 07 takes
its RNG seed from the benchmark seed; the others draw nothing at random.

Run one replay in a fresh interpreter (the benchmark does this per job):

    PYTHONPATH=src python3 perfbench/replay.py 09 --seed 1

The last stdout line is JSON: {"criteria": {"09": {"elapsed_s": ..,
"deadline_s": .., "ratio": ..}}, "ok": true}.  A failed assertion exits 1.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from param_atlas import gf
from param_atlas.census import (
    census,
    cyclic_group,
    direct_product,
    quaternion_group,
    symmetric_group_3,
    twisted_class_count,
)
from param_atlas.coverage import coverage_report
from param_atlas.invariant_rings import (
    bg_presentation,
    dickson_polynomial,
    fundamental_invariants,
)
from param_atlas.laurent import LaurentPolynomial
from param_atlas.oracle import (
    all_automorphisms,
    centralizer_order,
    random_regular_element,
    solve_commutant,
    twisted_orbits_bruteforce,
)
from param_atlas.root_datum import ArithmeticContext, build_group

# Deadlines as the acceptance tests state them; never loosen one here.
DEADLINES_S = {
    "03": 10.0,  # tests/test_acceptance.py:81
    "04": 5.0,   # tests/test_acceptance.py:98
    "05": 5.0,   # tests/test_acceptance.py:112
    "07": 60.0,  # tests/test_acceptance.py:138
    "09": 10.0,  # tests/test_acceptance.py:202
}


class ReplayFailure(AssertionError):
    pass


def check(condition: bool, what) -> None:
    # explicit raise: the checks must survive `python -O`
    if not condition:
        raise ReplayFailure(what)


def criterion_03(seed: int) -> None:
    datum = build_group("SL", 2)
    c_var = LaurentPolynomial.variable(1, 0)
    x = LaurentPolynomial.variable(1, 0)
    orbit_sum = fundamental_invariants(datum).polys[0]
    for q in range(2, 51):
        dq = dickson_polynomial(q)
        check(dq.substitute([orbit_sum]) == x ** q + x ** -q, ("dickson identity", q))
        pres = bg_presentation(datum, q)
        check(len(pres.relations) == 1, ("relation count", q))
        check(pres.relations[0] == dq - c_var, ("relation", q))


def criterion_04(seed: int) -> None:
    partition_numbers = [1, 2, 3, 5, 7, 11, 15, 22]
    ctx = ArithmeticContext(q=3, ell=5)
    for n in range(1, 9):
        datum = build_group("GL", n)
        check(len(census(datum, ctx)) == partition_numbers[n - 1], ("census size", n))
        for verdict in coverage_report(datum, ctx):
            check(verdict.covered, ("uncovered", n, verdict.entry.label))
            blocks = tuple(sorted(verdict.witness.jordan_contribution(), reverse=True))
            check(blocks == verdict.entry.unipotent.partition, ("witness", n, blocks))


def criterion_05(seed: int) -> None:
    ctx = ArithmeticContext(q=3, ell=5)
    report = coverage_report(build_group("U", 3), ctx)
    check({v.entry.unipotent.partition for v in report if v.covered} == {(1, 1, 1), (3,)},
          "u3 covered set")
    check([v.entry.unipotent.partition for v in report if not v.covered] == [(2, 1)],
          "u3 uncovered set")
    for n in range(2, 9):
        for v in coverage_report(build_group("U", n), ctx):
            part = v.entry.unipotent.partition
            odd = sum(1 for d in set(part) if part.count(d) % 2 == 1)
            check(v.covered == (odd <= 1), ("parity rule", n, part))


def criterion_07(seed: int) -> None:
    fields = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (7, 2), (11, 2)]
    rng = random.Random(seed)
    configs = 0
    nonempty = 0
    for p, k in fields:
        field = gf.FiniteField(p, k)
        for kind in ("SL", "GL"):
            for _ in range(7):
                sigma = random_regular_element(field, kind, rng)
                q = rng.choice((2, 3, 4, 5, 7, 8, 9))
                sols = solve_commutant(field, kind, sigma, q, budget=10 ** 6)
                cent = centralizer_order(field, kind, sigma, budget=10 ** 6)
                check(len(sols) in (0, cent), ("torsor", p, k, kind, sigma, q))
                configs += 1
                nonempty += bool(sols)
    check(configs >= 100, "config count")
    # the test asserts this for its fixed RNG seed; any seed should exercise it
    check(nonempty > 0, "every commutant solution set was empty")


def _abelian_groups_up_to(order_cap: int):
    """One group per isomorphism type, as invariant-factor chains d1 | d2 | ..."""
    chains = []

    def extend(chain, product):
        if chain:
            chains.append(tuple(chain))
        lo = chain[-1] if chain else 2
        d = lo
        while product * d <= order_cap:
            if d % lo == 0:
                extend(chain + [d], product * d)
            d += 1

    extend([], 1)
    groups = []
    for chain in chains:
        g = cyclic_group(chain[0])
        for d in chain[1:]:
            g = direct_product(g, cyclic_group(d))
        groups.append(g)
    return groups


def criterion_09(seed: int) -> None:
    pairs = 0
    for g in _abelian_groups_up_to(16):
        for twist in all_automorphisms(g):
            fast = twisted_class_count(g, twist)
            check(fast.method == "cokernel", ("method", g.name))
            check(fast.count == twisted_orbits_bruteforce(g, twist), ("count", g.name))
            pairs += 1
    for g in (symmetric_group_3(), quaternion_group()):
        fast = twisted_class_count(g)
        check(fast.method == "orbit", ("method", g.name))
        check(fast.count == twisted_orbits_bruteforce(g), ("count", g.name))
        pairs += 1
    check(pairs > 20000, ("pair count", pairs))


CRITERIA = {
    "03": criterion_03,
    "04": criterion_04,
    "05": criterion_05,
    "07": criterion_07,
    "09": criterion_09,
}


def run(names: list[str], seed: int) -> dict:
    """Run the named criteria in order; time each like its `deadline` block."""
    out = {}
    for name in names:
        start = time.perf_counter()
        CRITERIA[name](seed)
        elapsed = time.perf_counter() - start
        deadline = DEADLINES_S[name]
        out[name] = {"elapsed_s": elapsed, "deadline_s": deadline, "ratio": elapsed / deadline}
    return {"criteria": out, "ok": True}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("criteria", nargs="+", choices=sorted(CRITERIA))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        result = run(args.criteria, args.seed)
    except ReplayFailure as exc:
        print(json.dumps({"ok": False, "failure": repr(exc.args)}))
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
