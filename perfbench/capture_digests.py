"""Record the sha256 of the output of every benchmark job a run can reach.

    python3 perfbench/capture_digests.py

Covers rounds 0..ROUNDS-1 of the default seed and rounds 0..EXTRA_ROUNDS-1 of
seeds 1..EXTRA_SEEDS, for every workload, and writes perfbench/digests.json.
Run it only on a commit whose outputs are trusted: run.py fails every job
whose output differs from the digest recorded here, and every default-seed
job in the captured rounds that has no digest. A job that fails its own
certificate is never recorded.
"""

from __future__ import annotations

import json
import sys

import run
from run import DIGESTS, SRC, Program, job_failure, jobs, sha256, write_job

DEFAULT_SEED = 0
ROUNDS = 24
EXTRA_SEEDS = 10
EXTRA_ROUNDS = 3


def main() -> int:
    sys.path.insert(0, str(SRC))
    run.RUNS.mkdir(exist_ok=True)
    program = Program()
    table = {"default_seed": DEFAULT_SEED, "rounds": ROUNDS, "workloads": {}}
    for workload in sorted(jobs.WORKLOADS):
        plan = [(DEFAULT_SEED, r) for r in range(ROUNDS)] + [
            (s, r) for s in range(1, EXTRA_SEEDS + 1) for r in range(EXTRA_ROUNDS)
        ]
        digests = {}
        for seed, rnd in plan:
            for doc in jobs.round_jobs(workload, seed, rnd):
                key = sha256(jobs.doc_key(doc))
                if key in digests:
                    continue
                _, code, stdout = program.run(write_job(doc))
                why = job_failure(code, stdout)
                if why:
                    print(f"{workload} seed {seed} round {rnd}: {why}",
                          file=sys.stderr)
                    return 1
                digests[key] = sha256(stdout)
        table["workloads"][workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} digests", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
