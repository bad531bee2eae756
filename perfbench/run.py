"""Benchmark of ``rackcover``: CLI jobs run end to end, one after another.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload graded-deep --seed 3 --seconds 24 --trace 0

One process, one thread, closed loop: each job is a call of
``rackcover.cli.main(argv + ["--no-meta"])`` that starts when the previous
one has returned.  The job list of the workload is run in passes until
another pass would end after ``--seconds``; there is always one.  Every
job's output is checked against its oracle after the pass, outside the
timed region.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: median
pass wall and CPU time, peak RSS, and the median set-up time (import of
``rackcover`` plus writing the seed's input files) over several fresh
processes.  ``--trace 1`` runs one pass untraced, one traced, and a small
probe of every layer, and prints the per-layer metrics; the spans go to
``perfbench/work/spans/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

SETUP_SAMPLES = 7  # set-ups per run: this process and SETUP_SAMPLES - 1 children
SCALAR_OPERANDS = 300
SCALAR_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import rackcover from this checkout, write the seed's inputs and
    build the job list.  Returns (seconds taken, jobs, inputs)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rackcover.cli  # noqa: F401  (the import is part of set-up)

    if not Path(rackcover.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rackcover imported from {rackcover.__file__}, not {SRC}")
    from inputs import Inputs
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choices: {sorted(WORKLOADS)}")
    inputs = Inputs(seed, (WORK / "inputs" / f"seed-{seed}").relative_to(ROOT))
    jobs = WORKLOADS[workload](inputs)
    return time.perf_counter() - start, jobs, inputs


def setup_in_child(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).relative_to(ROOT)), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode:
        raise SystemExit(f"set-up failed in a child process:\n{done.stderr}")
    return float(done.stdout.split()[-1])


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


def run_job(job, tracer=None) -> dict:
    from rackcover import cli

    if tracer is not None:
        tracer.job = job.id
    out, err = io.StringIO(), io.StringIO()
    outcome = {"job": job, "code": None, "error": None}
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            outcome["code"] = cli.main(list(job.argv) + ["--no-meta"])
    except SystemExit as exc:  # argparse rejected the arguments
        outcome["code"] = exc.code
    except Exception:
        outcome["error"] = traceback.format_exc(limit=4)
    outcome["wall"] = time.perf_counter() - start
    outcome["stdout"], outcome["stderr"] = out.getvalue(), err.getvalue()
    return outcome


def run_pass(jobs, tracer=None):
    """Run every job once; returns (wall seconds, CPU seconds, outcomes)."""
    wall, cpu = time.perf_counter(), time.process_time()
    outcomes = [run_job(job, tracer) for job in jobs]
    return time.perf_counter() - wall, time.process_time() - cpu, outcomes


def problems_of(outcome) -> list:
    """Why a job failed: traceback, nonzero exit, bad JSON or oracle."""
    if outcome["error"]:
        return [outcome["error"]]
    if outcome["code"] != 0:
        return [f"exit {outcome['code']}: {outcome['stderr'].strip()}"]
    try:
        payload = json.loads(outcome["stdout"])
        return outcome["job"].check(payload)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


class Digests:
    """sha256 of each job's stdout, kept per workload and seed across runs.
    A job whose digest changes between runs is reported on stderr and
    listed under "mismatches" in the file; runs are not given a fixed
    PYTHONHASHSEED, so this also catches output that depends on it."""

    def __init__(self, path: Path):
        self.path = path
        self.data = {"digests": {}, "mismatches": []}
        if path.exists():
            self.data = json.loads(path.read_text())

    def record(self, job_id: str, stdout: str):
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        known = self.data["digests"].setdefault(job_id, digest)
        if known != digest:
            print(f"digest mismatch: {job_id}: {known} then {digest}", file=sys.stderr)
            self.data["mismatches"].append({"job": job_id, "digest": digest,
                                            "first": known})

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


class Tally:
    """Jobs attempted and failed, over every pass of the run."""

    def __init__(self, digests: Digests):
        self.digests = digests
        self.attempted = 0
        self.failed = 0

    def add(self, outcomes):
        for outcome in outcomes:
            self.attempted += 1
            problems = problems_of(outcome)
            if problems:
                self.failed += 1
                print(f"FAILED {outcome['job'].id}: {problems[0]}", file=sys.stderr)
            self.digests.record(outcome["job"].id, outcome["stdout"])


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def end_to_end(jobs, seconds: float, tally: Tally, setup_times) -> dict:
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu, outcomes = run_pass(jobs)
        tally.add(outcomes)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start + wall > seconds:
            break
    print(f"passes: {len(walls)}, wall: {walls}", file=sys.stderr)
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def scalar_microbench(seed: int) -> dict:
    """Microseconds per CycScalar mul, add and inverse, per field order."""
    from rackcover.cyclotomic import CycScalar, euler_phi

    rng = random.Random(f"{seed}/scalars")
    out = {}
    for order in (2, 3, 4):
        def operand():
            while True:
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(euler_phi(order))]
                if any(coeffs):
                    return CycScalar(order, coeffs)

        pairs = [(operand(), operand()) for _ in range(SCALAR_OPERANDS)]
        for name, op in (("mul", lambda a, b: a * b), ("add", lambda a, b: a + b),
                         ("inverse", lambda a, b: a.inverse())):
            samples = []
            for _ in range(SCALAR_REPEATS):
                start = time.perf_counter()
                for a, b in pairs:
                    op(a, b)
                samples.append((time.perf_counter() - start) / len(pairs) * 1e6)
            out[f"cyclotomic.{name}_us.N{order}"] = statistics.median(samples)
    return out


def per_layer(jobs, inputs, seed: int, tally: Tally, spans_path: Path) -> tuple[dict, bool]:
    """Traced run: untraced pass, traced pass, traced probe.  Returns the
    per-layer metrics and whether every job's self times add up to its
    wall time."""
    from tracing import Tracer, sloc
    from workloads import probe

    values = scalar_microbench(seed)
    values.update(sloc(SRC / "rackcover"))
    plain_wall, _, outcomes = run_pass(jobs)
    tally.add(outcomes)

    probe_jobs = probe(inputs)  # built untraced: its inputs are set-up work
    tracer = Tracer()
    tracer.install()
    traced_wall, _, outcomes = run_pass(jobs, tracer)
    tally.add(outcomes)
    _, _, probed = run_pass(probe_jobs, tracer)
    tally.add(probed)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)

    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    for name, seconds in tracer.self_by_name().items():
        values[f"{name}.self_s"] = seconds
    values.update(tracer.counts)
    defined = tracer.counts["coset.cosets_defined"]
    values["coset.index_over_defined"] = tracer.counts["coset.todd_coxeter.index"] / defined
    # each job's wall time, taken around its cli.main call, must be covered
    # by the self times of its spans, up to the runner's own work and an
    # allowance for the machine pausing the process outside the root span
    self_by_job = tracer.self_by_job()
    gaps = [(o["wall"] - self_by_job[o["job"].id], o["wall"]) for o in outcomes + probed]
    print(f"traced {len(tracer.spans)} spans; largest job wall minus self times "
          f"{max(abs(gap) for gap, _ in gaps):.3g} s; overhead "
          f"{values['trace.overhead_frac']:.3f}", file=sys.stderr)
    return values, all(abs(gap) <= 0.005 + 0.01 * wall for gap, wall in gaps)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "rackcover" / "__init__.py").is_file():
        print(f"no rackcover sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.setup_only:
        print(setup(args.workload, args.seed)[0])
        return 0

    setup_times = [setup_in_child(args.workload, args.seed)
                   for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    seconds, jobs, inputs = setup(args.workload, args.seed)
    setup_times.append(seconds)

    digests = Digests(WORK / "digests" / f"{args.workload}-seed{args.seed}.json")
    tally = Tally(digests)
    balanced = True
    if args.trace:
        values, balanced = per_layer(
            jobs, inputs, args.seed, tally,
            WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        declared = spec["per_layer"]
    else:
        values = end_to_end(jobs, args.seconds, tally, setup_times)
        declared = spec["end_to_end"]
    digests.save()

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {
        "correct": tally.failed == 0 and balanced,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
