"""Self-check of the benchmark's output checks on a tiny pass.

    python3 -m pytest perfbench/tests

One job per workload, run at two seeds that no other run uses.  A wrong
golden digest must show up as failed jobs; with the real digests, the pinned
jobs must read the same at both seeds and the oracle job must not.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SEEDS = (90210, 90211)
TINY_IDS = (
    "bg-ring --group gsp6 --q 3",
    "census --group gsp4 --ell 5",
    "oracle avoidant --group gsp6 --q 3 --ell 7 --seed {seed}",
)


def tiny_pass(seed, golden):
    jobs = {job.id: job for jobs in run.WORKLOADS.values() for job in jobs}
    with run.Runner(ROOT, seed, golden) as runner:
        return {job_id: runner.run(jobs[job_id]) for job_id in TINY_IDS}


def test_wrong_golden_digest_counts_as_failure():
    wrong = {job_id: "0" * 64 for job_id in TINY_IDS}
    samples = list(tiny_pass(SEEDS[0], wrong).values())
    assert run.fail_frac(samples) > 0
    pinned = [s for s in samples if not s.job.seeded]
    assert pinned and all(s.failed and s.unexpected for s in pinned)


def test_seed_moves_oracle_payloads_but_not_pinned_ones():
    golden = run.load_golden()
    first, second = (tiny_pass(seed, golden) for seed in SEEDS)
    for job_id in TINY_IDS:
        assert not first[job_id].failed and not second[job_id].failed, job_id
        if first[job_id].job.seeded:
            assert first[job_id].digest != second[job_id].digest, job_id
        else:
            assert first[job_id].digest == second[job_id].digest == golden[job_id], job_id
