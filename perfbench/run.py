"""param-atlas benchmark: batch workloads timed per cold CLI job.

    python3 perfbench/run.py --workload rings --seed 1 --seconds 40 --trace 0

Run from the repository root.  One closed-loop client runs one job at a time;
each job is a fresh interpreter (`python -m param_atlas.cli ...`, or
perfbench/replay.py replaying an acceptance sweep), so every job starts with
cold lru_caches exactly as a CLI user's does.  Every output is checked: exit
code, docs/schema.json, the sha256 pinned in golden.json for seed-independent
jobs, each replay's own exact assertions, and oracle verdicts.

--trace 0 prints the end-to-end metrics.  The run makes one full pass over the
workload's jobs, then keeps adding samples, replays and long jobs first, while
they fit in --seconds; each job's time is the median of its samples.  Every
sample sits between runs of perfbench/yardstick.py, a fixed reference job,
and is scaled by YARDSTICK_S / (their mean time), which takes out much of
the shared host's drifting pace (see README.md, "Noise").
--trace 1 makes one untraced and one traced pass (perfbench/tracer.py) and
prints the per-layer metrics and the overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import yardstick

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
GOLDEN_PATH = HERE / "golden.json"
SCHEMA_CACHE = OUT_DIR / "schema-verdicts.json"
SETUP_CODE = "import param_atlas.cli as cli; cli.build_parser()"
YARDSTICK = HERE / "yardstick.py"
# Reference pace: a sample whose yardstick takes this long is left unscaled.
# About the yardstick's time on the 2-vCPU host the bounds were set on.
YARDSTICK_S = 0.1
# Yardstick runs between two steps, averaged: one alone is ±20 % noisy.
YARDSTICK_RUNS = 2
# A deadline ratio rests on one job, so each replay gets about REPLAY_BUDGET_S
# of samples, 2 to REPLAY_MAX_SAMPLES of them, before other jobs get extras.
REPLAY_BUDGET_S = 12.0
REPLAY_MAX_SAMPLES = 15


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One CLI invocation (args) or one replay (criteria); '{seed}' is substituted."""

    args: tuple[str, ...] = ()
    criteria: tuple[str, ...] = ()
    check: Optional[Callable[[dict], list[str]]] = None
    # a failure reason this job is known to produce at the seed commit; it
    # counts in `failed` but does not make the run incorrect
    known_defect: Optional[str] = None

    @property
    def id(self) -> str:
        if self.criteria:
            return "replay " + " ".join(self.criteria)
        return " ".join(self.args)

    @property
    def seeded(self) -> bool:
        return bool(self.criteria) or "{seed}" in self.args


def cli(text: str, **kw) -> Job:
    return Job(args=tuple(text.split()), **kw)


def _partitions(n: int, cap: Optional[int] = None) -> list[tuple[int, ...]]:
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, cap), 0, -1) for rest in _partitions(n - k, k)]


def check_census_partitions(n: int, one_per_partition: bool):
    """Every partition of n appears (exactly once for GL/U, whose pi0 is trivial)."""
    def check(payload: dict) -> list[str]:
        seen = [tuple(e["partition"]) for e in payload["entries"]]
        expected = set(_partitions(n))
        if set(seen) != expected or (one_per_partition and len(seen) != len(expected)):
            return [f"census entries do not match the partitions of {n}"]
        if len({e["label"] for e in payload["entries"]}) != len(seen):
            return ["census labels are not unique"]
        return []
    return check


def check_gl_coverage(payload: dict) -> list[str]:
    """Criterion 04's rule: every GL entry is covered by a Levi of its own shape."""
    for e in payload["entries"]:
        if not e["covered"] or sorted(e["witness"]["blocks"], reverse=True) != e["partition"]:
            return [f"gl coverage rule broken at {e['partition']}"]
    return []


def check_u_coverage(payload: dict) -> list[str]:
    """Criterion 05's rule: covered iff at most one part has odd multiplicity."""
    for e in payload["entries"]:
        part = e["partition"]
        odd = sum(1 for d in set(part) if part.count(d) % 2 == 1)
        if e["covered"] != (odd <= 1):
            return [f"unitary parity rule broken at {part}"]
    return []


def check_gsp_avoidant(payload: dict) -> list[str]:
    """Recompute the avoidance verdict at a diagonal GSp point over a prime field.

    The point is non-avoidant for most seeds, so a `fail` verdict is an answer
    here, not a failure.  On the torus Levi, ad_m acts on the root space of
    E_ab (a < b, a + b < n) by m_aa / m_bb, and on its opposite by the inverse.
    """
    inputs, result = payload["inputs"], payload["result"]
    p, k = inputs["field"]
    if k != 1 or not inputs["group"].startswith("gsp"):
        return ["avoidant check covers GSp over prime fields only"]
    diag = [row[i] for i, row in enumerate(inputs["m"])]
    n = len(diag)
    up = [diag[a] * pow(diag[b], -1, p) % p for a in range(n) for b in range(a + 1, n - a)]
    down = [pow(v, -1, p) for v in up]
    q = inputs["q"] % p
    failures = [f"ad_m - {name} singular on Lie({part})"
                for part, vals in (("U", up), ("U-", down))
                for s, name in ((1, "1"), (q, "q")) if s in vals]
    exponent = None
    if not failures:
        window = result["window"]
        if window != [1, 2, 3, 4, 6, 12]:
            return [f"unexpected exponent window {window}"]
        exponent = next((r for r in window
                         if all(pow(v, r, p) != 1 for v in up)
                         and all(pow(a * b, r, p) != 1 for a in up for b in up)), None)
        if exponent is None:
            failures = ["no admissible exponent in the window"]
    expected = {"avoidant": not failures, "exponent": exponent, "failures": failures}
    got = {key: result[key] for key in expected}
    verdict = "fail" if failures else "pass"
    if got != expected or payload["verdict"] != verdict:
        return [f"avoidant verdict {payload['verdict']} {got} != recomputed {verdict} {expected}"]
    return []


SCHEMA_DEFECT = "schema"  # labels past Z, e.g. C9[ (ROADMAP D4)

WORKLOADS: dict[str, list[Job]] = {
    # Fixed-ring presentations: Laurent multiply and rewriting dominate.
    "rings": [
        cli("bg-ring --group gsp6 --q 3"),
        cli("bg-ring --group gsp6 --q 5"),
        cli("bg-ring --group gsp6 --q 7"),
        cli("bg-ring --group sl3 --q 16"),
        cli("bg-ring --group sl3 --q 25"),
        cli("bg-ring --group gl4 --q 9"),
        cli("bg-ring --group sl5 --q 4"),
        cli("bg-ring --group u5 --q 4"),
        cli("bg-ring --group u4 --q 7"),
        cli("bg-ring --group gsp4 --q 9"),
        Job(criteria=("03",)),
    ],
    # Census and coverage at growing rank: the Levi scan and JSON output dominate.
    "atlas": [
        cli("census --group gl30", check=check_census_partitions(30, True),
            known_defect=SCHEMA_DEFECT),
        cli("census --group u30", check=check_census_partitions(30, True),
            known_defect=SCHEMA_DEFECT),
        cli("census --group sl30 --ell 5", check=check_census_partitions(30, False),
            known_defect=SCHEMA_DEFECT),
        cli("census --group sl24 --ell 2", check=check_census_partitions(24, False),
            known_defect=SCHEMA_DEFECT),
        cli("census --group gsp4 --ell 5"),
        cli("census --group gsp4 --ell 7"),
        cli("census --group gsp6 --ell 5"),
        cli("coverage --group gl12"),
        cli("coverage --group gl14"),
        cli("coverage --group gl16", check=check_gl_coverage, known_defect=SCHEMA_DEFECT),
        cli("coverage --group u16", check=check_u_coverage, known_defect=SCHEMA_DEFECT),
        cli("coverage --group sl14 --ell 7"),
        cli("coverage --group gsp6 --ell 5"),
        cli("coverage --group u3"),
        Job(criteria=("04", "05")),
    ],
    # Finite-field cross-checks: field arithmetic, kernel enumeration and
    # ExplicitGroup lookups dominate; GF(256) has tables, GF(289) has none.
    "oracles": [
        Job(criteria=("07",)),
        Job(criteria=("09",)),
        cli("oracle commutant --group sl2 --q 3 --ell 2 --field-degree 8 --seed {seed}"),
        cli("oracle identities --group gl3 --q 4 --ell 17 --field-degree 2 --trials 400 "
            "--seed {seed}"),
        cli("oracle identities --group gsp6 --q 5 --ell 11 --trials 200 --seed {seed}"),
        cli("oracle twisted --order 500"),
        cli("oracle avoidant --group gsp6 --q 3 --ell 7 --seed {seed}",
            check=check_gsp_avoidant),
    ],
}


# -- running and checking one job ----------------------------------------------


@dataclass
class Sample:
    job: Job
    wall_s: float
    returncode: int
    maxrss_kb: int
    out_bytes: int
    digest: str = ""
    failures: list[str] = field(default_factory=list)
    ratios: dict[str, float] = field(default_factory=dict)  # replays: criterion -> ratio
    trace_out: Optional[str] = None
    pace: float = 1.0  # the host's pace around this sample, from the yardsticks

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.pace

    @property
    def scaled_ratios(self) -> dict[str, float]:
        return {name: ratio * self.pace for name, ratio in self.ratios.items()}

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def unexpected(self) -> bool:
        return self.failures not in ([], [self.job.known_defect])


class Runner:
    """Runs and checks jobs in one checkout through spawner.py; use as a context manager."""

    def __init__(self, root: Path, seed: int, golden: dict[str, str]):
        self.root = root
        self.seed = seed
        self.golden = golden
        OUT_DIR.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=root,
                                        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)
        import jsonschema
        schema_bytes = (root / "docs" / "schema.json").read_bytes()
        self.validator = jsonschema.Draft7Validator(json.loads(schema_bytes))
        # Validating one 2 MB census payload takes ~2 s, so verdicts are kept
        # per (schema, payload) digest pair across runs in this checkout.
        self.schema_key = hashlib.sha256(schema_bytes).hexdigest()[:16]
        self.schema_ok: dict[str, bool] = (
            json.loads(SCHEMA_CACHE.read_text()) if SCHEMA_CACHE.exists() else {})
        self.trace_dir = OUT_DIR / "spans"
        self.traced = 0

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def spawn(self, argv: list[str]) -> tuple[float, int, int, bytes, bytes]:
        """Run argv to completion: wall time (spawn to exit), exit code, peak RSS, output."""
        out, err = OUT_DIR / "job.out", OUT_DIR / "job.err"
        request = {"argv": argv, "out": str(out), "err": str(err)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited")
        reply = json.loads(line)
        return (reply["wall_s"], reply["code"], reply["maxrss_kb"], out.read_bytes(),
                err.read_bytes())

    def argv(self, job: Job, trace_out: Optional[str] = None) -> list[str]:
        seed = str(self.seed)
        if job.criteria:
            tail = ["replay", *job.criteria, "--seed", seed]
        else:
            tail = ["cli", *(a.replace("{seed}", seed) for a in job.args), "--output", "json"]
        if trace_out is not None:
            return [sys.executable, str(HERE / "tracer.py"), trace_out, job.id, *tail]
        if job.criteria:
            return [sys.executable, str(HERE / "replay.py"), *tail[1:]]
        return [sys.executable, "-m", "param_atlas.cli", *tail[1:]]

    def run(self, job: Job, trace: bool = False) -> Sample:
        trace_out = None
        if trace:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            trace_out = str(self.trace_dir / f"job{self.traced}")
            self.traced += 1
        wall, code, rss, out, err = self.spawn(self.argv(job, trace_out))
        sample = Sample(job, wall, code, rss, len(out), hashlib.sha256(out).hexdigest(),
                        trace_out=trace_out)
        if code != 0:
            tail = (err or out).decode(errors="replace").strip().splitlines()[-1:] or [""]
            sample.failures.append(f"exit code {code}: {tail[0]}")
        elif job.criteria:
            result = json.loads(out.decode().strip().splitlines()[-1])
            sample.ratios = {c: r["ratio"] for c, r in result["criteria"].items()}
        else:
            sample.failures += self.check_payload(job, out, sample.digest)
        return sample

    def check_payload(self, job: Job, out: bytes, digest: str) -> list[str]:
        try:
            payload = json.loads(out)
        except ValueError:
            return ["stdout is not JSON"]
        failures = []
        key = f"{self.schema_key}:{digest}"
        if key not in self.schema_ok:
            self.schema_ok[key] = self.validator.is_valid(payload)
            OUT_DIR.mkdir(exist_ok=True)
            SCHEMA_CACHE.write_text(json.dumps(self.schema_ok, indent=0, sort_keys=True))
        if not self.schema_ok[key]:
            failures.append(SCHEMA_DEFECT)
        pinned = self.golden.get(job.id)
        if pinned is not None and pinned != digest:
            failures.append(f"sha256 {digest[:12]} != pinned {pinned[:12]}")
        if job.check is not None:
            try:
                failures += job.check(payload)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                failures.append(f"payload has an unexpected shape: {exc!r}")
        elif payload.get("kind") == "oracle" and payload.get("verdict") != "pass":
            failures.append(f"oracle verdict {payload.get('verdict')}")
        return failures


# -- measuring -------------------------------------------------------------------


def setup_probe(runner: Runner) -> float:
    """Time one fresh interpreter importing param_atlas.cli and building its parser."""
    wall, code, _, _, err = runner.spawn([sys.executable, "-c", SETUP_CODE])
    if code != 0:
        raise RuntimeError(f"importing param_atlas.cli failed: {err.decode()[-500:]}")
    return wall


def yardstick_s(runner: Runner) -> float:
    """Mean time of YARDSTICK_RUNS runs of yardstick.py: how fast the host runs now."""
    walls = []
    for _ in range(YARDSTICK_RUNS):
        wall, code, _, out, err = runner.spawn([sys.executable, "-I", str(YARDSTICK)])
        if code != 0 or out.decode().strip() != yardstick.CHECKSUM:
            raise RuntimeError(f"yardstick.py failed: {(err or out).decode()[-500:]}")
        walls.append(wall)
    return statistics.fmean(walls)


def timed_passes(runner: Runner, jobs: list[Job], seconds: float,
                 start: float) -> tuple[list[Sample], list[float]]:
    """One full pass, then more samples while any still fits in the run.

    Each step is a set-up probe and a job, with yardstick runs before and
    after; both are scaled by the pace YARDSTICK_S / (mean yardstick time).
    After the first pass, replays come first, up to their sample target
    each.  Every other extra sample goes to the job whose median is least
    certain in seconds, time / (n (n + 1)) for a job with n samples, so long
    jobs, whose noise moves wall_s and job_max_s most, go first.  The slowest
    job gets a second sample last, even if that overruns --seconds: job_max_s
    and, on oracles, deadline_ratio_max rest on it, and its two samples are
    then as far apart as the run allows.  Returns the samples and the scaled
    set-up times.
    """
    setup_probe(runner)  # compiles bytecode once; not counted
    yardstick_s(runner)
    samples: list[Sample] = []
    setup_raw: list[float] = []
    sticks = [yardstick_s(runner)]
    last: dict[str, float] = {}
    count: dict[str, int] = {}
    step = 0.0  # set-up probe + yardstick, measured

    def run(job):
        nonlocal step
        t0 = time.perf_counter()
        setup_raw.append(setup_probe(runner))
        samples.append(runner.run(job))
        sticks.append(yardstick_s(runner))
        step = time.perf_counter() - t0 - samples[-1].wall_s
        last[job.id] = samples[-1].wall_s
        count[job.id] = count.get(job.id, 0) + 1

    def replay_target(job):
        return min(REPLAY_MAX_SAMPLES, max(2, round(REPLAY_BUDGET_S / last[job.id])))

    for job in jobs:
        run(job)
    slowest = max(jobs, key=lambda j: last[j.id])
    deadline = start + seconds
    while True:
        reserve = step + last[slowest.id] if count[slowest.id] < 2 else 0.0
        left = deadline - time.perf_counter() - step - reserve
        fits = [j for j in jobs if last[j.id] <= left]
        replays = [j for j in fits if j.criteria and count[j.id] < replay_target(j)]
        if replays:
            run(min(replays, key=lambda j: (count[j.id], -last[j.id])))
        elif fits:
            run(max(fits, key=lambda j: last[j.id] / (count[j.id] * (count[j.id] + 1))))
        elif count[slowest.id] < 2:
            run(slowest)
        else:
            break
    setup = []
    for i, sample in enumerate(samples):
        sample.pace = 2 * YARDSTICK_S / (sticks[i] + sticks[i + 1])
        setup.append(setup_raw[i] * sample.pace)
    return samples, setup


def by_job(samples: list[Sample]) -> dict[str, list[Sample]]:
    out: dict[str, list[Sample]] = {}
    for s in samples:
        out.setdefault(s.job.id, []).append(s)
    return out


def gate_ratios(samples: list[Sample]) -> dict[str, list[float]]:
    gates: dict[str, list[float]] = {}
    for s in samples:
        for name, ratio in s.scaled_ratios.items():
            gates.setdefault(name, []).append(ratio)
    return gates


def job_failures(samples: list[Sample]) -> tuple[int, int]:
    """(jobs attempted, jobs failed): a job fails if any of its samples does.

    Counting jobs, not samples, keeps both numbers the same in every run of
    the same code, however many extra samples the run had time for.
    """
    groups = by_job(samples)
    return len(groups), sum(any(s.failed for s in ss) for ss in groups.values())


def fail_frac(samples: list[Sample]) -> float:
    attempted, failed = job_failures(samples)
    return failed / attempted


def end_to_end(samples: list[Sample], setup: list[float]) -> tuple[dict, list[str]]:
    """Metrics in BENCHMARK.json order, plus human-readable lines with sample counts."""
    groups = by_job(samples)
    medians = {jid: statistics.median(s.scaled_s for s in ss) for jid, ss in groups.items()}
    raw = sum(statistics.median(s.wall_s for s in ss) for ss in groups.values())
    paces = [s.pace for s in samples]
    slowest = max(medians, key=medians.get)
    counts = sorted(len(ss) for ss in groups.values())
    ratios = gate_ratios(samples)
    gates = {name: statistics.median(r) for name, r in ratios.items()}
    worst_gate = max(gates, key=gates.get)
    rss = max(samples, key=lambda s: s.maxrss_kb)
    metrics = {
        "wall_s": (sum(medians.values()), "s",
                   f"sum over {len(groups)} jobs of each job's median; "
                   f"{counts[0]}-{counts[-1]} samples per job; unscaled {raw:.4g} s"),
        "job_max_s": (medians[slowest], "s", f"{slowest}; {len(groups[slowest])} samples"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh interpreters, one before each job"),
        "peak_rss_mb": (rss.maxrss_kb / 1024, "MB", f"{rss.job.id}; max of {len(samples)} jobs"),
        "deadline_ratio_max": (gates[worst_gate], "ratio",
                               f"criterion {worst_gate}; median of "
                               f"{len(ratios[worst_gate])} replays"),
    }
    lines = [f"  {name:<20} {value:>12.6g} {unit:<6} ({note})"
             for name, (value, unit, note) in metrics.items()]
    attempted, failed = job_failures(samples)
    lines.append(f"  {'fail_frac':<20} {failed / attempted:>12.6g} {'ratio':<6} "
                 f"({failed} of {attempted} jobs failed)")
    lines.append(f"  {'pace':<20} {statistics.median(paces):>12.6g} {'ratio':<6} "
                 f"(median of {len(paces)} samples, {min(paces):.3g}-{max(paces):.3g}; "
                 f"times above are scaled by it)")
    for name in sorted(gates):
        lines.append(f"  gate {name:<15} {gates[name]:>12.6g} {'ratio':<6} "
                     f"(elapsed / deadline, median of {len(ratios[name])})")
    record = {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}
    record["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    record["pace"] = {"value": statistics.median(paces), "unit": "ratio"}
    record.update({f"gate_{n}": {"value": v, "unit": "ratio"} for n, v in gates.items()})
    return record, lines


# -- traced pass -------------------------------------------------------------------


def load_spans(trace_out: str):
    header = json.loads(Path(trace_out + ".json").read_text())
    spans = array("q")
    spans.frombytes(Path(trace_out + ".bin").read_bytes())
    return header, spans


def per_layer(samples: list[Sample], untraced_wall: float) -> dict:
    """Per-layer metrics summed over the traced pass; *_s is self time unless inclusive."""
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}  # outermost spans of each name: recursion counted once
    group_ns = 0  # outermost spans of any group-building function
    counts: dict[str, int] = {}
    root_ns = 0
    group_build = {"census.cyclic_group", "census.direct_product", "census.symmetric_group_3",
                   "census.quaternion_group", "census.ExplicitGroup.__init__"}
    for sample in samples:
        header, spans = load_spans(sample.trace_out)
        names = header["names"]
        for key, value in header["counts"].items():
            counts[key] = counts.get(key, 0) + value
        n = len(spans) // 4
        child_ns = [0] * n
        for i in range(n):
            parent = spans[4 * i + 3]
            duration = spans[4 * i + 2] - spans[4 * i + 1]
            if parent >= 0:
                child_ns[parent] += duration
            else:
                root_ns += duration
        for i in range(n):
            name = names[spans[4 * i]]
            duration = spans[4 * i + 2] - spans[4 * i + 1]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + duration - child_ns[i]
            ancestors = set()
            parent = spans[4 * i + 3]
            while parent >= 0:
                ancestors.add(names[spans[4 * parent]])
                parent = spans[4 * parent + 3]
            if name not in ancestors:
                incl_ns[name] = incl_ns.get(name, 0) + duration
            if name in group_build and not ancestors & group_build:
                group_ns += duration

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_ns.get(name, 0) / 1e9

    def inc(name):
        return incl_ns.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    traced_wall = sum(x.wall_s for x in samples)
    m = {
        "laurent.mul_calls": (c("laurent.LaurentPolynomial.__mul__"), "count"),
        "laurent.mul_self_s": (s("laurent.LaurentPolynomial.__mul__"), "s"),
        "laurent.mul_term_pairs": (counts.get("laurent.mul_term_pairs", 0), "count"),
        "laurent.pow_calls": (c("laurent.LaurentPolynomial.__pow__"), "count"),
        "laurent.eval_calls": (c("laurent.LaurentPolynomial.evaluate_in_field"), "count"),
        "laurent.eval_self_s": (s("laurent.LaurentPolynomial.evaluate_in_field"), "s"),
        "invariant_rings.bg_presentation_s": (inc("invariant_rings.bg_presentation"), "s"),
        "invariant_rings.rewrite_calls": (c("invariant_rings.rewrite_in_generators"), "count"),
        "invariant_rings.rewrite_self_s": (s("invariant_rings.rewrite_in_generators"), "s"),
        "invariant_rings.rewrite_out_terms": (
            counts.get("invariant_rings.rewrite_out_terms", 0), "count"),
        "root_datum.height_calls": (c("root_datum.height"), "count"),
        "root_datum.height_self_s": (s("root_datum.height"), "s"),
        "root_datum.orbit_s": (inc("root_datum.orbit_of_weight"), "s"),
        "coverage.report_self_s": (s("coverage.coverage_report"), "s"),
        "coverage.standard_levis_s": (inc("coverage.standard_levis"), "s"),
        "coverage.levis_built": (counts.get("coverage.levis_built", 0), "count"),
        "coverage.is_regular_in_calls": (counts.get("coverage.is_regular_in", 0), "count"),
        "coverage.regular_hit_ratio": (ratio(counts.get("coverage.regular_hits", 0),
                                             counts.get("coverage.is_regular_in", 0)), "ratio"),
        "census.census_self_s": (s("census.census"), "s"),
        "census.partitions_s": (inc("census.partitions"), "s"),
        "census.twisted_class_count_calls": (c("census.twisted_class_count"), "count"),
        "census.twisted_class_count_self_s": (s("census.twisted_class_count"), "s"),
        "census.group_mul_calls": (counts.get("census.ExplicitGroup.mul", 0), "count"),
        "census.group_build_s": (group_ns / 1e9, "s"),
        "cli.format_self_s": (s("cli.main"), "s"),
        "cli.output_bytes": (sum(x.out_bytes for x in samples if not x.job.criteria), "bytes"),
        "gf.fields_built": (c("gf.FiniteField.__init__"), "count"),
        "gf.field_build_s": (inc("gf.FiniteField.__init__"), "s"),
        "gf.mul_calls": (counts.get("gf.FiniteField.mul", 0), "count"),
        "gf.add_calls": (counts.get("gf.FiniteField.add", 0), "count"),
        "gf.rref_calls": (c("gf.rref"), "count"),
        "gf.rref_self_s": (s("gf.rref"), "s"),
        "gf.matmul_calls": (c("gf.mat_mul"), "count"),
        "gf.matmul_self_s": (s("gf.mat_mul"), "s"),
        "gf.det_calls": (c("gf.mat_det"), "count"),
        "oracle.solve_commutant_calls": (c("oracle.solve_commutant"), "count"),
        "oracle.solve_commutant_self_s": (s("oracle.solve_commutant"), "s"),
        "oracle.is_member_calls": (counts.get("oracle.is_member", 0), "count"),
        "oracle.commutant_hit_ratio": (ratio(counts.get("oracle.commutant_solutions", 0),
                                             counts.get("oracle.is_member", 0)), "ratio"),
        "oracle.automorphisms_s": (inc("oracle.all_automorphisms"), "s"),
        "oracle.automorphisms_found": (counts.get("oracle.automorphisms_found", 0), "count"),
        "oracle.bruteforce_self_s": (s("oracle.twisted_orbits_bruteforce"), "s"),
        "oracle.identity_trials_self_s": (s("oracle.eval_identity_trials"), "s"),
        "oracle.avoidant_s": (inc("oracle.avoidant_check"), "s"),
    }
    # Self time per module: where the traced pass spent its time, layer by layer.
    for module in ("cli", "census", "coverage", "invariant_rings", "laurent", "root_datum",
                   "gf", "oracle", "replay"):
        total = sum(v for k, v in self_ns.items() if k.split(".")[0] == module)
        m[f"{module}.self_s"] = (total / 1e9, "s")
    m["trace.outside_s"] = (traced_wall - root_ns / 1e9, "s")
    m["trace.spans"] = (sum(calls.values()), "count")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


# -- run record --------------------------------------------------------------------


def git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def write_record(args, workload: str, root: Path, load1: float, samples: list[Sample],
                 metrics: dict, summary: dict) -> Path:
    path = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "git_sha": git_sha(root),
        "nproc": os.cpu_count(), "loadavg_1m_at_start": load1, "summary": summary,
        "metrics": metrics,
        "jobs": [{"job": s.job.id, "wall_s": s.wall_s, "pace": s.pace, "exit": s.returncode,
                  "maxrss_kb": s.maxrss_kb, "out_bytes": s.out_bytes, "sha256": s.digest,
                  "failures": s.failures, "gates": s.scaled_ratios} for s in samples],
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def pin_golden(root: Path) -> int:
    """Rewrite golden.json from the current program: seed-independent jobs that pass."""
    golden = {}
    with Runner(root, seed=0, golden={}) as runner:
        for job in (j for jobs in WORKLOADS.values() for j in jobs if not j.seeded):
            sample = runner.run(job)
            if sample.failed:
                print(f"not pinned: {job.id}: {sample.failures}")
            else:
                golden[job.id] = sample.digest
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(golden)} digests in {GOLDEN_PATH}")
    return 0


def run_workload(args, workload: str, root: Path) -> None:
    """Measure one workload; print its metrics and, last, the one-line JSON result."""
    load1 = os.getloadavg()[0]
    start = time.perf_counter()
    jobs = WORKLOADS[workload]
    print(f"workload {workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(jobs)} jobs, one fresh interpreter each, run one at a time", flush=True)
    with Runner(root, args.seed, load_golden()) as runner:
        if args.trace:
            samples = [runner.run(job) for job in jobs]
            traced = [runner.run(job, trace=True) for job in jobs]
        else:
            samples, setup = timed_passes(runner, jobs, args.seconds, start)
    if args.trace:
        metrics = per_layer(traced, sum(s.wall_s for s in samples))
        samples += traced
        lines = [f"  {name:<36} {v['value']:>14.6g} {v['unit']}" for name, v in metrics.items()]
        record = metrics
    else:
        record, lines = end_to_end(samples, setup)
        metrics = {name: record[name] for name in
                   ("wall_s", "job_max_s", "setup_s", "peak_rss_mb", "deadline_ratio_max")}
    failed = [s for s in samples if s.failed]
    correct = not any(s.unexpected for s in failed)
    attempted, failed_jobs = job_failures(samples)
    failures: dict[tuple, int] = {}
    for s in failed:
        key = ("known defect" if not s.unexpected else "FAILED", s.job.id, "; ".join(s.failures))
        failures[key] = failures.get(key, 0) + 1
    for (kind, job_id, reasons), times in failures.items():
        lines.append(f"  {kind}: {job_id}: {reasons} ({times} of "
                     f"{sum(s.job.id == job_id for s in samples)} runs)")
    print("\n".join(lines))
    summary = {"correct": correct, "attempted": attempted, "failed": failed_jobs}
    path = write_record(args, workload, root, load1, samples, record, summary)
    print(f"  record: {path.relative_to(root) if path.is_relative_to(root) else path}")
    print(json.dumps({**summary, "metrics": metrics}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="param-atlas benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-golden", action="store_true",
                        help="rewrite golden.json from the current program and exit")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "param_atlas" / "cli.py").is_file() or \
            not (root / "docs" / "schema.json").is_file():
        print("error: run from the param-atlas repository root (src/param_atlas and "
              "docs/schema.json are missing here)", file=sys.stderr)
        return 2
    if args.pin_golden:
        return pin_golden(root)
    if args.workload is None:
        parser.error("--workload is required")
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(args, workload, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
