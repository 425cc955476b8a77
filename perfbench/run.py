"""Benchmark of transverse job documents, end to end and per layer.

    python3 perfbench/run.py --workload golod --seed 0 --seconds 22 --trace 0

One process, one client, a closed loop: each generated job document is
written to a file and handed to ``transverse.cli.main`` in-process; the next
job starts when the previous one has returned. Jobs come in rounds (see
jobs.py), and the run works through whole rounds until ``--seconds`` have
passed. Before each job the program is imported afresh, as a new CLI process
would import it, so no job finds state left behind by another; that import
and the job file (with the round's generation, for a round's first job) are
the set-up time. Job and set-up times are scaled to a reference speed of the
host (see reference_seconds and timed_run).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` the first TRACE_ROUNDS rounds run once, each job
untraced and then under the outside-in tracer (tracer.py), and the last line
holds the per-layer metrics summed over those jobs; that job set is fixed
rather than ``--seconds`` long, so that the counts repeat exactly.

Either way the run checks its outputs and exits with 1 if any job fails,
leaves a thread running or prints something else when it comes again, if an
output differs from its digest in digests.json, or if a paper anchor does
not hold. A run record with the job documents, their seed, per-job times
and output digests (and, when traced, the spans) is written under
perfbench/runs/.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from tracer import Tracer  # noqa: E402

# a round figure near reference_seconds() on the host the benchmark was
# written on (2 vCPUs of an Intel Xeon, Python 3.11.7)
REFERENCE_S = 0.025
TRACE_ROUNDS = 6
DIGESTS = HERE / "digests.json"

END_TO_END = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> the span whose self time or call count it reports
PER_LAYER_TIMES = {
    "poly.enum_s": "poly.enum",
    "complexes.strand_basis_s": "complexes.strand_basis",
    "complexes.strand_matrix_s": "complexes.strand_matrix",
    "complexes.strand_homology_s": "complexes.strand_homology",
    "complexes.verify_resolution_s": "complexes.verify_resolution",
    "complexes.star_product_s": "complexes.star_product",
    "linalg.eliminate_s": "linalg.eliminate",
    "resolutions.taylor_s": "resolutions.taylor",
    "resolutions.minimize_s": "resolutions.minimize",
    "golod.koszul_homology_s": "golod.koszul_homology",
    "golod.basis_s": "golod.basis",
    "golod.resolution_s": "golod.resolution",
    "golod.kunneth_s": "golod.kunneth",
    "golod.verify_s": "golod.verify",
    "exterior.wedge_s": "exterior.wedge",
    "exterior.diff_s": "exterior.diff",
    "dg.product_s": "dg.product",
    "dg.certify_s": "dg.certify",
    "ideals.transverse_s": "ideals.transverse",
    "ideals.degree_basis_s": "ideals.degree_basis",
    "cli.parse_s": "cli.parse",
    "cli.render_s": "cli.render",
}
PER_LAYER_CALLS = {
    "poly.enum_calls": "poly.enum",
    "complexes.strand_matrix_calls": "complexes.strand_matrix",
    "resolutions.minimize_calls": "resolutions.minimize",
    "exterior.wedge_calls": "exterior.wedge",
}
PER_LAYER_COUNTS = (
    "poly.monomials_examined",
    "poly.monomials_kept",
    "complexes.strand_rows",
    "complexes.strand_nnz",
    "linalg.calls",
    "linalg.rows_in",
    "linalg.nnz_in",
    "linalg.rank_out",
    "resolutions.taylor_terms",
    "golod.classes",
    "golod.resolution_rank",
    "dg.checked_pairs",
    "cli.output_bytes",
)

# paper anchors, checked untimed in every run
FLAGSHIP = {"vars": ["x1", "x2", "x3", "x4"], "field": "rational"}
ANCHORS = (
    ("golod_n5", {
        "ring": FLAGSHIP, "ideals": {"I": ["x1", "x2"], "J": ["x3", "x4"]},
        "command": "golod",
        "args": {"left": "I", "right": "J", "mode": "verify", "n_max": 5},
        "format": "json"},
     lambda r: r["pass"] and r["ranks"] == [1, 4, 10, 24, 58, 140]
     and r["series"][:6] == r["ranks"]),
    ("star_flagship", {
        "ring": FLAGSHIP, "ideals": {"I": ["x1", "x2"], "J": ["x3", "x4"]},
        "command": "star-resolve",
        "args": {"left": "I", "right": "J", "verify": True},
        "format": "json"},
     lambda r: r["verification"]["pass"] and _betti_totals(r["betti"])
     == [1, 4, 4, 1]),
    ("obstruction_classical", {
        "ring": FLAGSHIP,
        "ideals": {"M": ["x1^2", "x1*x2", "x2*x3", "x3*x4", "x4^2"]},
        "command": "obstruction",
        "args": {"module": "M", "ci": ["x1^2", "x4^2"]},
        "format": "json"},
     lambda r: [row["i"] for row in r["report"]["rows"]
                if row["obstruction"]] == [4]),
)


def _betti_totals(betti: dict) -> list:
    totals: dict = {}
    for key, v in betti.items():
        i = int(key.split(",")[0])
        totals[i] = totals.get(i, 0) + v
    return [totals.get(i, 0) for i in range(max(totals) + 1)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Program:
    """The transverse package loaded from this checkout's src/."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "transverse" or n.startswith("transverse.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("transverse.cli")
        origin = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"imported transverse from {origin}, not {SRC}")

    def run(self, path: Path):
        """Run one job; returns (seconds, exit code or error, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([str(path)])
            if threading.active_count() > 1:
                code = f"{threading.active_count() - 1} threads left running"
        except Exception:
            code = "exception: " + traceback.format_exc(limit=3)
        except SystemExit as e:
            code = f"exit {e.code}"
        return time.perf_counter() - t0, code, out.getvalue()


def job_failure(code, stdout: str):
    """Why a job's result is wrong, or None if it passed."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    if report.get("pass") is False:
        return "pass is false"
    verification = report.get("verification")
    if verification is not None and verification.get("pass") is not True:
        return "verification failed"
    return None


def tail_percentile(times: list):
    """The highest whole percentile (nearest rank) with at least ten jobs
    above it, and its value; None when there are too few jobs."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 0, -1):
        value = ordered[max(0, math.ceil(p * n / 100) - 1)]
        if sum(1 for t in ordered if t > value) >= 10:
            return p, value
    return None


def setup(doc: dict):
    """Import the program afresh, as a new CLI process would, and write the
    job file."""
    program = Program()
    return program, write_job(doc)


def job_path() -> Path:
    return RUNS / f"job-{os.getpid()}.json"


def write_job(doc: dict) -> Path:
    path = job_path()
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class Gate:
    """Collects every reason the run's outputs are not correct."""

    def __init__(self, workload: str, seed: int):
        table = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.default_seed = table["default_seed"]
        self.captured_rounds = table["rounds"]
        self.digests = table["workloads"].get(workload, {})
        self.seed = seed
        self.failures: list[str] = []
        self.digest_checked = 0

    def job(self, label: str, doc: dict, code, stdout: str) -> bool:
        why = job_failure(code, stdout)
        want = self.digests.get(sha256(jobs.doc_key(doc)))
        if why is None and want is not None:
            self.digest_checked += 1
            if sha256(stdout) != want:
                why = "output digest differs from the recorded one"
        if why is None and want is None and self.seed == self.default_seed \
                and int(label.split(".")[0]) < self.captured_rounds:
            why = "no recorded digest for a default-seed job"
        if why:
            self.failures.append(f"job {label}: {why}")
        return why is None

    def same(self, label: str, first: str, again: str):
        if first != again:
            self.failures.append(f"job {label}: output differs on repetition")

    def anchors(self, program: Program):
        for name, doc, holds in ANCHORS:
            _, code, stdout = program.run(write_job(doc))
            try:
                ok = code == 0 and holds(json.loads(stdout))
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                self.failures.append(f"anchor {name} does not hold")


def reference_seconds() -> float:
    """Time a fixed piece of stdlib work shaped like the program's own: a
    dict of a few MB keyed by small-integer tuples, with Fraction values,
    then sorted. Garbage left by the last job is collected first and the
    collector stays off while it runs, so that what a job leaves behind
    does not add collection work to it."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(12000):
            table[(i * 7919) % 10007, i % 31] = Fraction(i, 3)
        sorted(table.items())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def timed_run(workload, seed, seconds, gate, record):
    """Whole rounds until ``seconds`` have passed, with reference_seconds
    timed between jobs. On the shared host the benchmark was written on,
    work of this kind runs up to 1.8 times slower in spells that last from
    seconds to minutes. A job's time and the set-up before it are scaled by
    REFERENCE_S over the mean of the reference times just before and just
    after it, which move with those spells while the program does not."""
    walls, setups, refs, seen, entries = [], [], [], {}, []
    passed, rnd = 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        docs = jobs.round_jobs(workload, seed, rnd)
        generate_s = time.perf_counter() - t0
        for k, doc in enumerate(docs):
            label = f"{rnd}.{k}"
            refs.append(reference_seconds())
            t0 = time.perf_counter()
            program, path = setup(doc)
            ready = time.perf_counter()
            dt, code, stdout = program.run(path)
            if rnd == k == 0:
                setups.append(ready - PROCESS_START - refs[0])
            else:
                setups.append(ready - t0 + (generate_s if k == 0 else 0.0))
            ok = gate.job(label, doc, code, stdout)
            key = jobs.doc_key(doc)
            if key in seen:
                gate.same(label, seen[key], stdout)
                ok = ok and stdout == seen[key]
            seen.setdefault(key, stdout)
            passed += ok
            walls.append(dt)
            entries.append({"label": label, "doc": doc, "ok": ok,
                            "sha256": sha256(stdout), "wall_s": dt,
                            "setup_wall_s": setups[-1]})
        rnd += 1
        if time.perf_counter() - start >= seconds:
            break
    refs.append(reference_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scales = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
    jobs_s = [t * c for t, c in zip(walls, scales)]
    for entry, c in zip(entries, scales):
        entry["scale"] = c
    tail = tail_percentile(jobs_s) or (100, max(jobs_s))
    record.update(rounds=rnd, jobs=entries, reference_s=refs,
                  tail_percentile=tail[0], wall_p50_s=statistics.median(walls))
    metrics = {
        "job_s.p50": statistics.median(jobs_s),
        "job_s.tail": tail[1],
        "jobs_per_s": passed / sum(jobs_s),
        "setup_s": statistics.median(t * c for t, c in zip(setups, scales)),
        "peak_rss_mb": peak_rss_mb,
    }
    return program, metrics, len(jobs_s), len(jobs_s) - passed


def traced_run(workload, seed, gate, record):
    tracer = Tracer()
    plain, traced, failed, attempted = [], [], 0, 0
    for rnd in range(TRACE_ROUNDS):
        for k, doc in enumerate(jobs.round_jobs(workload, seed, rnd)):
            label = f"{rnd}.{k}"
            program, path = setup(doc)
            attempted += 1
            dt, code, stdout = program.run(path)
            tracer.job = len(traced)
            with tracer:
                dt_traced, code_traced, stdout_traced = program.run(path)
            plain.append(dt)
            traced.append(dt_traced)
            ok = gate.job(label, doc, code, stdout)
            gate.same(label, stdout, stdout_traced)
            ok = ok and stdout == stdout_traced and code_traced == code
            failed += not ok
            record["jobs"].append({
                "label": label, "doc": doc, "seconds": dt,
                "seconds_traced": dt_traced, "code": str(code),
                "sha256": sha256(stdout)})
    metrics = {}
    for metric, span in PER_LAYER_TIMES.items():
        metrics[metric] = tracer.self_time.get(span, 0.0)
    for metric, span in PER_LAYER_CALLS.items():
        metrics[metric] = tracer.calls.get(span, 0)
    for metric in PER_LAYER_COUNTS:
        metrics[metric] = tracer.counts.get(metric, 0)
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    metrics["poly.keep_ratio"] = ratio(c.get("poly.monomials_kept", 0),
                                       c.get("poly.monomials_examined", 0))
    metrics["linalg.rank_ratio"] = ratio(c.get("linalg.rank_out", 0),
                                         c.get("linalg.rows_in", 0))
    rank_in = c.get("resolutions.rank_in", 0)
    rank_out = c.get("resolutions.rank_out", 0)
    metrics["resolutions.cancelled"] = rank_in - rank_out
    metrics["resolutions.kept_ratio"] = ratio(rank_out, rank_in)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    metrics["trace.coverage"] = tracer.layer_self_time() / sum(traced)
    record["spans"] = tracer.spans_json()
    return program, metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "transverse" / "__init__.py").is_file():
        print(f"error: no transverse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    gate = Gate(opts.workload, opts.seed)
    record = {"workload": opts.workload, "seed": opts.seed,
              "seconds": opts.seconds, "trace": opts.trace, "jobs": []}
    if opts.trace:
        program, values, attempted, failed = traced_run(
            opts.workload, opts.seed, gate, record)
    else:
        program, values, attempted, failed = timed_run(
            opts.workload, opts.seed, opts.seconds, gate, record)
    gate.anchors(program)
    record["digest_checked"] = gate.digest_checked
    record["failures"] = gate.failures
    if opts.trace:
        units = {m: "s" for m in PER_LAYER_TIMES}
        units.update({m: "ratio" for m in values if m.endswith("_ratio")
                      or m.startswith("trace.")})
        metrics = {m: {"value": v, "unit": units.get(m, "count")}
                   for m, v in values.items()}
    else:
        metrics = {m: {"value": values[m], "unit": u}
                   for m, u in END_TO_END.items()}
    record["metrics"] = metrics
    job_path().unlink(missing_ok=True)
    name = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    (RUNS / name).write_text(json.dumps(record), encoding="utf-8")
    for why in gate.failures:
        print(f"gate: {why}", file=sys.stderr)
    correct = not gate.failures
    if not opts.trace:
        print(f"workload {opts.workload}: {attempted} jobs in "
              f"{record['rounds']} rounds, unscaled p50 "
              f"{record['wall_p50_s']:.4f} s, "
              f"tail is p{record['tail_percentile']}, "
              f"fail_ratio {failed / attempted:.4f}, "
              f"{gate.digest_checked} digests checked")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
