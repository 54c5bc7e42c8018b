"""Command-line front end: census, fixed-ring presentations, coverage, oracles.

Every subcommand is one row of the table in `build_parser`: its handler, its
help and the flags it takes, each defined once in `_FLAGS`.  Every q and ell
is checked by `ArithmeticContext` (q a prime power, ell a prime other than
p), and every oracle on a group builds its `inputs` with `_oracle_inputs`.
Each handler imports the modules it runs, so a job loads only those.

Each handler returns its JSON payload and a function that renders the text,
which runs only under `--output text`.  JSON output is the bytes of
`json.dumps(payload, indent=2, sort_keys=True)`, written by `_indented`.
Output is deterministic for a fixed (config, seed): tables are canonically
sorted and JSON keys are sorted, so golden-file comparisons are byte-exact.
Exit codes: 0 success, 2 usage or config error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING, Optional

from .budget import BudgetExceededError, check_budget, current_budget
from .root_datum import ArithmeticContext, GroupDatum, build_group

if TYPE_CHECKING:
    from .gf import FiniteField

SCHEMA_VERSION = 1

_PRESET_RE = re.compile(r"^(gsp|gl|sl|u)(\d+)$")
_FAMILIES = {"gl": "GL", "sl": "SL", "gsp": "GSp", "u": "U"}

# the census class that `oracle classify` labels, by (family, n)
_DETECTED_CLASS = {("SL", 2): (2,), ("GSp", 4): (2, 2)}


class ConfigError(ValueError):
    pass


def parse_preset(text: str) -> GroupDatum:
    m = _PRESET_RE.match(text.strip().lower())
    if not m:
        raise ConfigError(
            f"unrecognized group preset {text!r} (expected e.g. gl3, sl2, gsp4, u3)")
    return build_group(_FAMILIES[m.group(1)], int(m.group(2)))


def _field(args) -> FiniteField:
    """The oracle field F_{ell^k}, once q and ell have passed `ArithmeticContext`."""
    from .gf import get_field

    ctx = ArithmeticContext(args.q, args.ell)
    if args.field_degree < 1:
        raise ConfigError("--field-degree must be >= 1")
    return get_field(ctx.ell, args.field_degree)


def _check_trials(args) -> None:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")


def _digest(inputs: dict) -> str:
    import hashlib

    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _oracle_inputs(args, datum: GroupDatum, field: FiniteField, *extra_keys: str) -> dict:
    """The inputs every oracle on a group records, plus the named flags."""
    inputs = {
        "group": datum.name.lower(),
        "q": args.q,
        "field": [field.p, field.k],
        "seed": args.seed,
    }
    inputs.update((key, getattr(args, key)) for key in extra_keys)
    return inputs


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


def _indented(value) -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True), built by joins.

    With any indent the json module runs its pure-Python encoder, which
    yields one small string per token.  Here strings, ints, the three literals,
    lists, tuples and dicts with string keys are written directly, each scalar
    by the C callable for its exact type; any other value, IntEnum and str
    subclasses included, goes through json.dumps and is shifted to its depth.
    A dict's keys are sorted and encoded once per (depth, key sequence, key
    types), not once per dict: a census repeats one key sequence thousands of
    times.  `pad` is a newline plus the indentation of the line that holds
    the value.
    """
    encode_str = json.encoder.encode_basestring_ascii
    literal = {True: "true", False: "false", None: "null"}.__getitem__
    scalar = {str: encode_str, int: int.__repr__, bool: literal, type(None): literal}.get
    heads = {}  # (pad, keys, key types) -> (the text before each value, sorted keys)

    def encode(value, pad):
        kind = type(value)
        inner = pad + "  "
        if (kind is list or kind is tuple) and value:
            return "[" + inner + ("," + inner).join([
                write(v) if (write := scalar(type(v))) else encode(v, inner)
                for v in value]) + pad + "]"
        if kind is dict and value:
            keys = tuple(value)
            memo = (pad, keys, tuple(map(type, keys)))
            head = heads.get(memo)
            if head is None and set(memo[2]) == {str}:
                order = sorted(keys)
                texts = ["," + inner + encode_str(k) + ": " for k in order]
                texts[0] = "{" + texts[0][1:]
                head = heads[memo] = (texts, order)
            if head is not None:
                return "".join([
                    text + (write(v) if (write := scalar(type(v := value[k]))) else encode(v, inner))
                    for text, k in zip(*head)]) + pad + "}"
        write = scalar(kind)
        if write:
            return write(value)
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)

    return encode(value, "\n")


# -- census / coverage / bg-ring ----------------------------------------------


def _atlas_payload(kind: str, datum: GroupDatum, ctx: ArithmeticContext, entries: list) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "group": datum.name.lower(),
            "q": ctx.q, "ell": ctx.ell, "entries": entries}


def cmd_census(args):
    from .census import census

    datum = parse_preset(args.group)
    ctx = ArithmeticContext(args.q, args.ell)
    entries = [e.to_dict() for e in census(datum, ctx)]
    payload = _atlas_payload("census", datum, ctx, entries)

    def render():
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
        return head + "\n" + _table(
            ["label", "partition", "rank", "pi0", "class", "flags"], rows)

    return payload, render


def cmd_coverage(args):
    from .coverage import coverage_report

    datum = parse_preset(args.group)
    ctx = ArithmeticContext(args.q, args.ell)
    verdicts = coverage_report(datum, ctx)
    entries = [v.to_dict() for v in verdicts]
    payload = _atlas_payload("coverage", datum, ctx, entries)

    def render():
        rows = []
        for e in entries:
            mark = "✓" if e["covered"] else "✗"
            where = e["witness"]["shape"] if e["witness"] else (e["reason"] or "")
            rows.append([e["label"], _fmt_partition(e["partition"]), mark, where])
        head = f"Levi coverage for {datum.name.lower()} (q = {ctx.q}, ell = {ctx.ell})"
        return head + "\n" + _table(["label", "partition", "covered", "via/why"], rows)

    return payload, render


def cmd_bg_ring(args):
    from .invariant_rings import bg_presentation

    datum = parse_preset(args.group)
    pres = bg_presentation(datum, ArithmeticContext(args.q).q)
    payload = pres.to_dict()
    payload["schema_version"] = SCHEMA_VERSION
    payload["kind"] = "bg_ring"
    return payload, pres.canonical_text


# -- oracle subcommands --------------------------------------------------------


def cmd_oracle_twisted(args):
    from .census import cyclic_group, twisted_class_count
    from .oracle import twisted_orbits_bruteforce

    if args.order < 1:
        raise ConfigError("--order must be >= 1")
    # the group table alone has order^2 entries
    check_budget(args.order ** 2, "twisted orbit enumeration", args.budget)
    group = cyclic_group(args.order)
    twist = {a: group.inv(a) if args.twist == "inv" else a for a in group.labels}
    count = twisted_orbits_bruteforce(group, twist, args.budget)
    expected = twisted_class_count(group, twist).count
    agree = count == expected
    inputs = {"order": args.order, "twist": args.twist}
    payload = _oracle_payload(
        "twisted", inputs, "pass" if agree else "fail", {"orbit_count": count},
        None if agree else {"orbit_count": count, "census_count": expected})
    return payload, lambda: f"twisted orbit count: {count}" + (
        "" if agree else f"  census: {expected}  MISMATCH")


def cmd_oracle_commutant(args):
    import random

    from .oracle import centralizer_order, random_regular_element, solve_commutant

    datum = parse_preset(args.group)
    if datum.family not in ("SL", "GL") or datum.n != 2:
        raise ConfigError("oracle commutant supports sl2 and gl2")
    field = _field(args)
    rng = random.Random(args.seed)
    sigma = random_regular_element(field, datum.family, rng)
    sols = solve_commutant(field, datum.family, sigma, args.q, args.budget)
    cent = centralizer_order(field, datum.family, sigma, args.budget)
    torsor_ok = len(sols) in (0, cent)
    inputs = _oracle_inputs(args, datum, field)
    inputs["sigma"] = [list(r) for r in sigma]
    result = {"solutions": len(sols), "centralizer": cent}
    payload = _oracle_payload(
        "commutant", inputs, "pass" if torsor_ok else "fail", result,
        None if torsor_ok else {"sigma": inputs["sigma"]})
    return payload, lambda: (f"solutions: {len(sols)}  centralizer: {cent}  "
                             f"torsor: {'ok' if torsor_ok else 'VIOLATED'}")


def cmd_oracle_classify(args):
    import random

    from .census import census
    from .oracle import classify_twist, int_matrix, solve_commutant

    datum = parse_preset(args.group)
    partition = _DETECTED_CLASS.get((datum.family, datum.n))
    if partition is None:
        raise ConfigError("oracle classify supports sl2 and gsp4")
    field = _field(args)
    # raises for gsp4 at ell = 2, as `census` does
    expected = sum(1 for e in census(datum, ArithmeticContext(args.q, args.ell))
                   if e.unipotent.partition == partition)
    rng = random.Random(args.seed)
    if datum.family == "SL":
        sigma = int_matrix(field, [[1, 1], [0, 1]])
        sols = solve_commutant(field, "SL", sigma, args.q, args.budget)
        report = classify_twist(field, "SL", sigma, args.q, sols)
    else:
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
    found = len(report.labels)
    result = {"labels": list(report.labels), "counts": report.counts()}
    # no commutant solution leaves the detector nothing to label
    verdict = "inconclusive" if not found else "pass" if found == expected else "fail"
    payload = _oracle_payload(
        "classify", _oracle_inputs(args, datum, field), verdict, result,
        {"labels": found, "census_entries": expected} if verdict == "fail" else None)
    return payload, lambda: "labels: " + (
        ", ".join(report.labels) if report.labels else "(none)") + (
        f"  census entries: {expected}  MISMATCH" if verdict == "fail" else "")


def cmd_oracle_avoidant(args):
    import random

    from .coverage import _levi_from_subset
    from .oracle import avoidant_check, random_torus_element

    datum = parse_preset(args.group)
    field = _field(args)
    rng = random.Random(args.seed)
    torus = _levi_from_subset(datum, (), True)  # the empty subset is always stable
    m = random_torus_element(field, datum, rng)
    report = avoidant_check(field, datum, torus, m, args.q)
    inputs = _oracle_inputs(args, datum, field)
    inputs["m"] = [list(r) for r in m]
    payload = _oracle_payload(
        "avoidant", inputs, "pass" if report.avoidant else "fail",
        report.to_dict(), None if report.avoidant else {"failures": list(report.failures)})
    return payload, lambda: (
        f"avoidant: yes (exponent {report.exponent})" if report.avoidant
        else "avoidant: no (" + "; ".join(report.failures) + ")")


def cmd_oracle_jacobian(args):
    import random

    from .oracle import jacobian_probe, random_regular_element, solve_commutant

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
    result = {
        "samples": probed,
        "submersive": sum(1 for r in reports if r.submersive),
        "full_expected_rank": sum(1 for r in reports if r.rank == r.expected_rank),
    }
    # no trial gave a commutant solution: nothing was probed
    verdict = "inconclusive" if probed == 0 else "pass" if ok else "fail"
    payload = _oracle_payload(
        "jacobian", _oracle_inputs(args, datum, field, "trials"), verdict, result, bad)
    return payload, lambda: (f"samples: {probed}  submersive: {result['submersive']}"
                             f"  rank-as-expected: {result['full_expected_rank']}")


def cmd_oracle_identities(args):
    from .oracle import eval_identity_trials

    datum = parse_preset(args.group)
    field = _field(args)
    _check_trials(args)
    report = eval_identity_trials(datum, args.q, field, args.trials, args.seed)
    payload = _oracle_payload(
        "identities", _oracle_inputs(args, datum, field, "trials"),
        "pass" if report.passed else "fail", {"trials": report.trials}, report.failure)
    return payload, lambda: (f"identity trials: {report.trials}  "
                             f"{'all passed' if report.passed else 'FAILED'}")


# -- parser --------------------------------------------------------------------

# Every flag a subcommand can take.  A subcommand's row in `build_parser` names
# the flags it takes; "q!" makes a flag required there and "q=3" gives it a
# default there, which argparse parses with the flag's type.
_FLAGS = {
    "group": {"help": "preset, e.g. gl3, sl2, gsp4, u3"},
    "q": {"type": int, "help": "residue cardinality (prime power)"},
    "ell": {"type": int, "help": "coefficient characteristic (a prime not dividing q)"},
    "order": {"type": int, "help": "order of the cyclic group"},
    "twist": {"choices": ("id", "inv"), "default": "id"},
    "trials": {"type": int},
    "field-degree": {"type": int, "default": 1,
                     "help": "extension degree k of the oracle field F_{ell^k}"},
    "budget": {"type": int, "help": "enumeration cap (default: PARAM_ATLAS_BUDGET or 10^7)"},
    "seed": {"type": int, "default": 0},
    "output": {"choices": ("text", "json"), "default": "text"},
}


def _add_flags(parser: argparse.ArgumentParser, spec: str) -> None:
    for word in spec.split():
        name, _, default = word.partition("=")
        kwargs = dict(_FLAGS[name.rstrip("!")])
        if name.endswith("!"):
            kwargs["required"] = True
        elif default:
            kwargs["default"] = default
        parser.add_argument("--" + name.rstrip("!"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    oracle = "group! q! ell! {} field-degree budget seed output"
    # (command, handler or None for a group of subcommands, help, flags); the
    # handlers are read here, not at import, so a rebound cmd_* is the one run
    commands = (
        ("census", cmd_census, "unipotent component census", "group! q=3 ell output"),
        ("bg-ring", cmd_bg_ring, "presentation of the fixed ring", "group! q! output"),
        ("coverage", cmd_coverage, "Levi coverage report", "group! q=3 ell output"),
        ("oracle", None, "brute-force finite validators", ""),
        ("oracle twisted", cmd_oracle_twisted, "twisted orbit count for a cyclic group",
         "order! twist budget output"),
        ("oracle commutant", cmd_oracle_commutant,
         "torsor check for the commutation equation", oracle.format("")),
        ("oracle classify", cmd_oracle_classify,
         "component-group labels for known detectors", oracle.format("")),
        ("oracle avoidant", cmd_oracle_avoidant,
         "eigenvalue-separation check at a torus point", oracle.format("")),
        ("oracle jacobian", cmd_oracle_jacobian,
         "rank probe for the defining equations", oracle.format("trials=5")),
        ("oracle identities", cmd_oracle_identities,
         "pointwise rewrite identity trials", oracle.format("trials=25")),
    )
    parser = argparse.ArgumentParser(
        prog="param-atlas",
        description="census, fixed rings, and coverage for tame parameter moduli")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for command, handler, help_text, spec in commands:
        group, _, name = command.rpartition(" ")
        p = groups[group].add_parser(name, help=help_text)
        if handler is None:
            groups[command] = p.add_subparsers(dest=f"{name}_command", required=True)
        else:
            _add_flags(p, spec)
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "budget"):
            # validate --budget (or PARAM_ATLAS_BUDGET) even where the
            # handler never reaches an enumeration that reads it
            current_budget(args.budget)
        payload, render = args.handler(args)
        out = _indented(payload) if args.output == "json" else render()
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError, UnsupportedPresetError, q or ell out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
