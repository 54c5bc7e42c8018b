"""Command-line front end: census, fixed-ring presentations, coverage, oracles.

Output is deterministic for a fixed (config, seed): tables are canonically
sorted and JSON is dumped with sorted keys, so golden-file comparisons are
byte-exact.  Exit codes: 0 success, 2 usage or config error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
import sys
from typing import Optional

from .budget import BudgetExceededError, current_budget
from .census import census, cyclic_group
from .coverage import _levi_from_subset, coverage_report
from .gf import FiniteField, get_field
from .invariant_rings import bg_presentation
from .oracle import (
    avoidant_check,
    classify_twist,
    eval_identity_trials,
    int_matrix,
    jacobian_probe,
    random_regular_element,
    random_torus_element,
    solve_commutant,
    twisted_orbits_bruteforce,
)
from .root_datum import (
    ArithmeticContext,
    GroupDatum,
    UnsupportedPresetError,
    build_group,
    prime_power_base,
)

SCHEMA_VERSION = 1

_PRESET_RE = re.compile(r"^(gsp|gl|sl|u)(\d+)$")
_FAMILIES = {"gl": "GL", "sl": "SL", "gsp": "GSp", "u": "U"}


class ConfigError(ValueError):
    pass


def parse_preset(text: str) -> GroupDatum:
    m = _PRESET_RE.match(text.strip().lower())
    if not m:
        raise ConfigError(
            f"unrecognized group preset {text!r} (expected e.g. gl3, sl2, gsp4, u3)")
    try:
        return build_group(_FAMILIES[m.group(1)], int(m.group(2)))
    except UnsupportedPresetError as exc:
        raise ConfigError(str(exc)) from None


def _context(args) -> ArithmeticContext:
    try:
        return ArithmeticContext(q=args.q, ell=args.ell)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _field(args) -> FiniteField:
    ell = args.ell
    if ell is None:
        raise ConfigError("this oracle needs --ell (field characteristic)")
    if prime_power_base(ell) != ell:
        raise ConfigError(f"--ell must be prime, got {ell}")
    k = getattr(args, "field_degree", None) or 1
    if k < 1:
        raise ConfigError("--field-degree must be >= 1")
    if getattr(args, "q", None) is not None and math.gcd(args.q, ell) != 1:
        raise ConfigError(f"q = {args.q} must be coprime to ell = {ell}")
    return get_field(ell, k)


def _check_trials(args) -> None:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")


def _digest(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _oracle_payload(operation: str, inputs: dict, verdict: str, result: dict,
                    counterexample: Optional[dict] = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "oracle",
        "operation": operation,
        "inputs": inputs,
        "inputs_digest": _digest(inputs),
        "verdict": verdict,
        "result": result,
        "counterexample": counterexample,
    }


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), max((len(r[i]) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _fmt_partition(partition) -> str:
    return ",".join(str(x) for x in partition)


# -- census / coverage / bg-ring ----------------------------------------------


def cmd_census(args):
    datum = parse_preset(args.group)
    ctx = _context(args)
    entries = [e.to_dict() for e in census(datum, ctx)]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "census",
        "group": datum.name.lower(),
        "q": ctx.q,
        "ell": ctx.ell,
        "entries": entries,
    }
    rows = []
    for e in entries:
        flags = [f for f in ("regular", "distinguished") if e[f]]
        rows.append([
            e["label"],
            _fmt_partition(e["partition"]),
            str(e["rank_drop"]),
            e["pi0"],
            e["twisted_class"],
            ",".join(flags) if flags else "-",
        ])
    head = (f"unipotent component census for {datum.name.lower()}"
            f" (q = {ctx.q}, ell = {ctx.ell})")
    text = head + "\n" + _table(
        ["label", "partition", "rank", "pi0", "class", "flags"], rows)
    return payload, text


def cmd_coverage(args):
    datum = parse_preset(args.group)
    ctx = _context(args)
    verdicts = coverage_report(datum, ctx)
    entries = [v.to_dict() for v in verdicts]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "coverage",
        "group": datum.name.lower(),
        "q": ctx.q,
        "ell": ctx.ell,
        "entries": entries,
    }
    rows = []
    for e in entries:
        mark = "✓" if e["covered"] else "✗"
        where = e["witness"]["shape"] if e["witness"] else (e["reason"] or "")
        rows.append([e["label"], _fmt_partition(e["partition"]), mark, where])
    head = f"Levi coverage for {datum.name.lower()} (q = {ctx.q}, ell = {ctx.ell})"
    text = head + "\n" + _table(["label", "partition", "covered", "via/why"], rows)
    return payload, text


def cmd_bg_ring(args):
    datum = parse_preset(args.group)
    if prime_power_base(args.q) is None:
        raise ConfigError(f"q must be a prime power >= 2, got {args.q}")
    pres = bg_presentation(datum, args.q)
    payload = pres.to_dict()
    payload["schema_version"] = SCHEMA_VERSION
    payload["kind"] = "bg_ring"
    return payload, pres.canonical_text()


# -- oracle subcommands --------------------------------------------------------


def cmd_oracle_twisted(args):
    if args.order < 1:
        raise ConfigError("--order must be >= 1")
    group = cyclic_group(args.order)
    if args.twist == "inv":
        twist = {a: group.inv(a) for a in group.labels}
    else:
        twist = group.identity_twist()
    count = twisted_orbits_bruteforce(group, twist, args.budget)
    inputs = {"order": args.order, "twist": args.twist}
    payload = _oracle_payload("twisted", inputs, "pass", {"orbit_count": count})
    return payload, f"twisted orbit count: {count}"


def cmd_oracle_commutant(args):
    datum = parse_preset(args.group)
    if datum.family not in ("SL", "GL") or datum.n != 2:
        raise ConfigError("oracle commutant supports sl2 and gl2")
    field = _field(args)
    rng = random.Random(args.seed)
    sigma = random_regular_element(field, datum.family, rng)
    sols = solve_commutant(field, datum.family, sigma, args.q, args.budget)
    cent = solve_commutant(field, datum.family, sigma, 1, args.budget)
    torsor_ok = len(sols) in (0, len(cent))
    inputs = {
        "group": datum.name.lower(),
        "q": args.q,
        "field": [field.p, field.k],
        "seed": args.seed,
        "sigma": [list(r) for r in sigma],
    }
    result = {"solutions": len(sols), "centralizer": len(cent)}
    payload = _oracle_payload(
        "commutant", inputs, "pass" if torsor_ok else "fail", result,
        None if torsor_ok else {"sigma": inputs["sigma"]})
    text = (f"solutions: {len(sols)}  centralizer: {len(cent)}  "
            f"torsor: {'ok' if torsor_ok else 'VIOLATED'}")
    return payload, text


def cmd_oracle_classify(args):
    datum = parse_preset(args.group)
    field = _field(args)
    rng = random.Random(args.seed)
    if datum.family == "SL" and datum.n == 2:
        sigma = int_matrix(field, [[1, 1], [0, 1]])
        sols = solve_commutant(field, "SL", sigma, args.q, args.budget)
        report = classify_twist(field, "SL", sigma, args.q, sols)
    elif datum.family == "GSp" and datum.n == 4:
        lam = rng.randrange(1, field.order)
        qf = field.from_int(args.q)
        sigma = int_matrix(field, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
        lam_q = field.mul(lam, qf)
        phi_a = (
            (lam_q, 0, 0, 0),
            (0, lam, 0, 0),
            (0, 0, qf, 0),
            (0, 0, 0, 1),
        )
        phi_b = (
            (0, 0, field.neg(lam_q), 0),
            (0, 0, 0, lam),
            (field.neg(qf), 0, 0, 0),
            (0, 1, 0, 0),
        )
        report = classify_twist(field, "GSp", sigma, args.q, [phi_a, phi_b])
    else:
        raise ConfigError("oracle classify supports sl2 and gsp4")
    inputs = {
        "group": datum.name.lower(),
        "q": args.q,
        "field": [field.p, field.k],
        "seed": args.seed,
    }
    result = {"labels": list(report.labels), "counts": report.counts()}
    # no commutant solution leaves the detector nothing to label
    payload = _oracle_payload(
        "classify", inputs, "pass" if report.labels else "inconclusive", result)
    text = "labels: " + (", ".join(report.labels) if report.labels else "(none)")
    return payload, text


def cmd_oracle_avoidant(args):
    datum = parse_preset(args.group)
    field = _field(args)
    rng = random.Random(args.seed)
    torus = _levi_from_subset(datum, (), True)  # the empty subset is always stable
    m = random_torus_element(field, datum, rng)
    report = avoidant_check(field, datum, torus, m, args.q)
    inputs = {
        "group": datum.name.lower(),
        "q": args.q,
        "field": [field.p, field.k],
        "seed": args.seed,
        "m": [list(r) for r in m],
    }
    payload = _oracle_payload(
        "avoidant", inputs, "pass" if report.avoidant else "fail",
        report.to_dict(), None if report.avoidant else {"failures": list(report.failures)})
    if report.avoidant:
        text = f"avoidant: yes (exponent {report.exponent})"
    else:
        text = "avoidant: no (" + "; ".join(report.failures) + ")"
    return payload, text


def cmd_oracle_jacobian(args):
    datum = parse_preset(args.group)
    if datum.family not in ("SL", "GL") or datum.n != 2:
        raise ConfigError("oracle jacobian supports sl2 and gl2")
    field = _field(args)
    _check_trials(args)
    rng = random.Random(args.seed)
    probed = 0
    bad = None
    reports = []
    for _ in range(args.trials):
        sigma = random_regular_element(field, datum.family, rng)
        sols = solve_commutant(field, datum.family, sigma, args.q, args.budget)
        if not sols:
            continue
        picks = sols if len(sols) <= 3 else rng.sample(sols, 3)
        for phi in picks:
            rep = jacobian_probe(field, datum.family, args.q, sigma, phi)
            probed += 1
            reports.append(rep)
            if not rep.ok and bad is None:
                bad = {
                    "sigma": [list(r) for r in sigma],
                    "phi": [list(r) for r in phi],
                    "report": rep.to_dict(),
                }
    ok = bad is None
    inputs = {
        "group": datum.name.lower(),
        "q": args.q,
        "field": [field.p, field.k],
        "seed": args.seed,
        "trials": args.trials,
    }
    result = {
        "samples": probed,
        "submersive": sum(1 for r in reports if r.submersive),
        "full_expected_rank": sum(1 for r in reports if r.rank == r.expected_rank),
    }
    # no trial gave a commutant solution: nothing was probed
    verdict = "inconclusive" if probed == 0 else "pass" if ok else "fail"
    payload = _oracle_payload("jacobian", inputs, verdict, result, bad)
    text = (f"samples: {probed}  submersive: {result['submersive']}"
            f"  rank-as-expected: {result['full_expected_rank']}")
    return payload, text


def cmd_oracle_identities(args):
    datum = parse_preset(args.group)
    field = _field(args)
    _check_trials(args)
    report = eval_identity_trials(datum, args.q, field, args.trials, args.seed)
    inputs = {
        "group": datum.name.lower(),
        "q": args.q,
        "field": [field.p, field.k],
        "seed": args.seed,
        "trials": args.trials,
    }
    payload = _oracle_payload(
        "identities", inputs, "pass" if report.passed else "fail",
        {"trials": report.trials}, report.failure)
    text = (f"identity trials: {report.trials}  "
            f"{'all passed' if report.passed else 'FAILED'}")
    return payload, text


# -- parser --------------------------------------------------------------------


def _add_common(p, *, with_q=True, q_default=None, with_ell=True):
    p.add_argument("--group", required=True, help="preset, e.g. gl3, sl2, gsp4, u3")
    if with_q:
        p.add_argument("--q", type=int, default=q_default,
                       required=q_default is None, help="residue cardinality (prime power)")
    if with_ell:
        p.add_argument("--ell", type=int, default=None, help="coefficient characteristic")
    p.add_argument("--output", choices=("text", "json"), default="text")


def _add_oracle_common(p):
    p.add_argument("--field-degree", dest="field_degree", type=int, default=1,
                   help="extension degree k of the oracle field F_{ell^k}")
    p.add_argument("--budget", type=int, default=None,
                   help="enumeration cap (default: PARAM_ATLAS_BUDGET or 10^7)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="param-atlas",
        description="census, fixed rings, and coverage for tame parameter moduli")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="unipotent component census")
    _add_common(p, q_default=3)
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("bg-ring", help="presentation of the fixed ring")
    _add_common(p, with_ell=False)
    p.set_defaults(handler=cmd_bg_ring)

    p = sub.add_parser("coverage", help="Levi coverage report")
    _add_common(p, q_default=3)
    p.set_defaults(handler=cmd_coverage)

    po = sub.add_parser("oracle", help="brute-force finite validators")
    osub = po.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("twisted", help="twisted orbit count for a cyclic group")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--twist", choices=("id", "inv"), default="id")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_oracle_twisted)

    p = osub.add_parser("commutant", help="torsor check for the commutation equation")
    p.add_argument("--group", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    _add_oracle_common(p)
    p.set_defaults(handler=cmd_oracle_commutant)

    p = osub.add_parser("classify", help="component-group labels for known detectors")
    p.add_argument("--group", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    _add_oracle_common(p)
    p.set_defaults(handler=cmd_oracle_classify)

    p = osub.add_parser("avoidant", help="eigenvalue-separation check at a torus point")
    p.add_argument("--group", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    _add_oracle_common(p)
    p.set_defaults(handler=cmd_oracle_avoidant)

    p = osub.add_parser("jacobian", help="rank probe for the defining equations")
    p.add_argument("--group", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    _add_oracle_common(p)
    p.set_defaults(handler=cmd_oracle_jacobian)

    p = osub.add_parser("identities", help="pointwise rewrite identity trials")
    p.add_argument("--group", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--trials", type=int, default=25)
    _add_oracle_common(p)
    p.set_defaults(handler=cmd_oracle_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "budget"):
            # validate --budget (or PARAM_ATLAS_BUDGET) even where the
            # handler never reaches an enumeration that reads it
            current_budget(args.budget)
        payload, text = args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedPresetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
