"""Brute-force shadows of the symbolic results, over small finite fields.

Four probes:
  1. the solution set of phi sigma phi^-1 = sigma^q is empty or a centralizer
     torsor;
  2. component-group labels separate the two explicit rank-2 solutions in
     GSp_4;
  3. eigenvalue avoidance at torus points (the separation condition that
     makes Levi induction well behaved);
  4. exact Jacobian ranks at 2x2 samples.

Run:  python3 demos/oracle_tour.py
"""

import random

from param_atlas import build_group, get_field
from param_atlas.coverage import regular_levi
from param_atlas.oracle import (
    avoidant_check,
    centralizer_order,
    classify_twist,
    int_matrix,
    jacobian_probe,
    random_regular_element,
    solve_commutant,
)


def main() -> None:
    # 1. torsor structure
    f25 = get_field(5, 2)
    u = int_matrix(f25, [[1, 1], [0, 1]])
    sols = solve_commutant(f25, "SL", u, 7)
    cent = centralizer_order(f25, "SL", u)
    print(f"SL2(F_25), unipotent sigma, q=7: {len(sols)} solutions, "
          f"centralizer {cent}")

    # 2. the GSp_4 detector: diagonal solution vs antidiagonal solution
    f11 = get_field(11)
    lam, q = 2, 3
    sigma = int_matrix(f11, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
    phi_a = int_matrix(f11, [[lam * q, 0, 0, 0], [0, lam, 0, 0], [0, 0, q, 0], [0, 0, 0, 1]])
    phi_b = int_matrix(f11, [[0, 0, -lam * q, 0], [0, 0, 0, lam], [-q, 0, 0, 0], [0, 1, 0, 0]])
    report = classify_twist(f11, "GSp", sigma, q, [phi_a, phi_b])
    print(f"GSp_4 rank-2 class, labels: {report.assignments}")

    # 3. avoidance: a diagonal solution for the (2,2) class always has the
    # eigenvalue ratio q somewhere, so it can never be avoidant
    gsp4 = build_group("GSp", 4)
    torus = regular_levi(gsp4, (1,) * gsp4.n)
    m = int_matrix(f11, [[lam * q, 0, 0, 0], [0, lam, 0, 0], [0, 0, q, 0], [0, 0, 0, 1]])
    rep = avoidant_check(f11, gsp4, torus, m, q)
    print(f"avoidant at the diagonal solution: {rep.avoidant} ({rep.failures})")

    gl2 = build_group("GL", 2)
    t2 = regular_levi(gl2, (1,) * gl2.n)
    f7 = get_field(7)
    rep = avoidant_check(f7, gl2, t2, ((2, 0), (0, 1)), 3)
    print(f"GL2 diag(2,1), q=3 over F_7: avoidant={rep.avoidant}, "
          f"exponent={rep.exponent}")

    # 4. Jacobian ranks at random samples
    rng = random.Random(0)
    probed = 0
    for _ in range(30):
        sigma = random_regular_element(f7, "SL", rng)
        for phi in solve_commutant(f7, "SL", sigma, 2)[:2]:
            r = jacobian_probe(f7, "SL", 2, sigma, phi)
            probed += 1
            assert r.submersive and r.rank == r.expected_rank
    print(f"jacobian probe: {probed} samples, all submersive at expected rank")


if __name__ == "__main__":
    main()
