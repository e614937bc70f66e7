"""End-to-end and per-layer benchmark of the ocasync command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crosscheck-corpus --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --workload path-schemes --record   # re-pin expected outputs

A workload is a fixed list of CLI jobs (``bench_jobs``); one job is one
``ocasync.cli.main(argv)`` call in this process with stdout captured.  Jobs
run as a closed loop: one client, each job started when the previous one
returned, no extra threads.  A run repeats whole passes over the list while
the next pass is expected to end within ``--seconds``, and always makes at
least one.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics of ``bench_trace`` from the traced one, the difference in
wall time as ``trace.overhead_s``, and the failure counts.  It writes the
spans to ``perfbench/out/<workload>.{json,spans}``.

A job fails if it exits 3, lets an exception escape ``cli.main``, prints a
report that does not validate against the report schema, reports a
``DISAGREE`` row, differs from the exit code and SHA-256 pinned in
``perfbench/expected/<workload>.json``, or prints different bytes when it
is run again in the same invocation.  Pinned exits 1 and 2 are undecided
answers, not failures.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_DIR = BENCH_DIR / "expected"
SCHEMA = SRC / "ocasync" / "schema" / "report.schema.json"

SETUP_PROBES = 7
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs above it


def _import_ocasync():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ocasync" / "cli.py").is_file():
        sys.exit(f"perfbench: no ocasync sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ocasync
    import ocasync.cli
    if Path(ocasync.__file__).resolve().parent != SRC / "ocasync":
        sys.exit(f"perfbench: imported ocasync from {ocasync.__file__}, not {SRC}")
    return ocasync.cli


@dataclass
class Outcome:
    rc: int | None  # None: an exception escaped cli.main
    seconds: float
    digest: str
    output_bytes: int
    packed: bytes = b""  # compressed stdout, kept for the checks after timing
    error: str = ""


def run_job(cli, argv, tracer=None, index=-1, keep=False) -> Outcome:
    buf = io.StringIO()
    error = ""
    span = None
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.job_index = index
            span = tracer.open("cli")
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # noqa: BLE001 -- any escape is a failure
        rc, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if span is not None:
            tracer.close(span)
    seconds = time.perf_counter() - start
    data = buf.getvalue().encode()
    return Outcome(rc, seconds, hashlib.sha256(data).hexdigest(), len(data),
                   zlib.compress(data, 1) if keep else b"", error)


def run_pass(cli, jobs, tracer=None, keep=False) -> list[Outcome]:
    return [run_job(cli, job.argv, tracer, i, keep) for i, job in enumerate(jobs)]


@dataclass
class Checks:
    """Correctness bookkeeping over every job execution of a run."""

    attempted: int = 0
    failed: int = 0
    disagree_rows: int = 0
    answers: int = 0
    decided: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, job_id: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{job_id}: {why}")


def check_first_pass(jobs, outcomes, expected, validator, checks: Checks) -> None:
    """Validate every report of the first pass and compare with the pins."""
    for job, out in zip(jobs, outcomes):
        checks.attempted += 1
        problems = []
        if out.rc is None:
            problems.append(f"exception escaped cli.main ({out.error})")
        elif out.rc == 3:
            problems.append("exit 3")
        pin = expected.get(job.id)
        if pin is not None and (pin["exit"], pin["sha256"]) != (out.rc, out.digest):
            problems.append(f"exit {out.rc} / digest differ from the pinned exit {pin['exit']}")
        doc = None
        try:
            doc = json.loads(zlib.decompress(out.packed))
        except ValueError:
            problems.append("stdout is not one JSON document")
        if doc is not None:
            errors = sorted(e.message for e in validator.iter_errors(doc))
            if errors:
                problems.append(f"schema: {errors[0]}")
        rows = (doc or {}).get("data", {}).get("rows") if job.argv[0] == "cross-check" else None
        if rows is not None and doc.get("ok"):
            statuses = [r["status"] for r in rows]
            disagree = statuses.count("DISAGREE")
            checks.disagree_rows += disagree
            checks.answers += len(statuses)
            checks.decided += disagree + statuses.count("AGREE")
            if disagree:
                problems.append(f"{disagree} DISAGREE rows")
        else:
            checks.answers += 1
            checks.decided += out.rc == 0
        if problems:
            checks.fail(job.id, "; ".join(problems))


def check_repeat(jobs, first, again, checks: Checks) -> None:
    """A later execution must print exactly what the first one printed."""
    for job, a, b in zip(jobs, first, again):
        checks.attempted += 1
        if b.rc is None or b.rc == 3 or (a.rc, a.digest) != (b.rc, b.digest):
            checks.fail(job.id, "output differs between two runs of the same job")


def repeat_index(jobs, outcomes) -> int:
    """The job to run a second time: the median-time one among the jobs on
    seeded automata, so that seeds without pinned outputs are checked too,
    or among all jobs when the workload has none."""
    pool = [i for i, job in enumerate(jobs) if job.seeded] or list(range(len(jobs)))
    pool.sort(key=lambda i: outcomes[i].seconds)
    return pool[len(pool) // 2]


def load_checking(workload: str):
    import jsonschema

    schema = json.loads(SCHEMA.read_text())
    validator = jsonschema.validators.validator_for(schema)(schema)
    path = EXPECTED_DIR / f"{workload}.json"
    expected = json.loads(path.read_text())["jobs"] if path.exists() else {}
    return validator, expected


def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest-rank value leaves at least
    ``TAIL_BEYOND`` jobs above it (0 when there are too few jobs)."""
    for q in range(99, 0, -1):
        if n - math.ceil(q * n / 100) >= TAIL_BEYOND:
            return q
    return 0


def per_job_stats(passes: list[list[Outcome]]) -> tuple[float, float, int]:
    """Median job time and tail-percentile job time, where a job's time is
    its median over the passes."""
    times = sorted(statistics.median(p[i].seconds for p in passes)
                   for i in range(len(passes[0])))
    q = tail_percentile(len(times))
    rank = max(1, math.ceil(q * len(times) / 100)) if q else len(times)
    return statistics.median(times), times[rank - 1], q


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports ocasync and
    builds the job list."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def emit(result: dict, table: list[tuple[str, object, str]]) -> None:
    for name, value, unit in table:
        print(f"{name:32s} {value!s:>24} {unit}")
    print(json.dumps(result, sort_keys=True))


def _result(checks: Checks, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": checks.failed == 0 and checks.disagree_rows == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_untraced(cli, workload: str, seed: int, seconds: float) -> int:
    from bench_jobs import build_jobs

    setup_s = measure_setup(workload, seed)

    jobs = build_jobs(workload, seed, WORK_DIR)
    validator, expected = load_checking(workload)
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, jobs, keep=not passes))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = Checks()
    check_first_pass(jobs, passes[0], expected, validator, checks)
    for later in passes[1:]:
        check_repeat(jobs, passes[0], later, checks)
    # one job again, so even a single-pass run shows that output repeats
    repeat = repeat_index(jobs, passes[0])
    check_repeat([jobs[repeat]], [passes[0][repeat]], [run_job(cli, jobs[repeat].argv)], checks)

    p50, tail, q = per_job_stats(passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(o.seconds for o in p) for p in passes), "s"),
        "job_p50_s": (p50, "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "decided_ratio": (checks.decided / checks.answers, "1"),
    }
    failed_ratio = checks.failed / checks.attempted
    table = [(k, v, u) for k, (v, u) in metrics.items()] + [
        ("failed_ratio", failed_ratio, "1"),
        ("disagree_rows", checks.disagree_rows, "count"),
        ("jobs", len(jobs), "count"),
        ("passes", len(passes), "count"),
        ("job_tail_percentile", q, "%"),
    ]
    for problem in checks.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    emit(_result(checks, metrics), [(f"{workload}/{k}", v, u) for k, v, u in table])
    return 0


def run_traced(cli, workload: str, seed: int) -> int:
    from bench_jobs import build_jobs
    from bench_trace import LAYER_METRICS, Tracer

    jobs = build_jobs(workload, seed, WORK_DIR)
    validator, expected = load_checking(workload)
    plain = run_pass(cli, jobs, keep=True)
    tracer = Tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in tracer.patch_points()]
    with tracer.installed():
        traced = run_pass(cli, jobs, tracer)

    checks = Checks()
    check_first_pass(jobs, plain, expected, validator, checks)
    check_repeat(jobs, plain, traced, checks)
    leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a, f in originals if o.__dict__[a] is not f]
    for name in leftover:
        checks.fail("tracer", f"{name} still wrapped after the traced pass")

    layers = tracer.layer_metrics(sum(o.output_bytes for o in traced))
    overhead = sum(o.seconds for o in traced) - sum(o.seconds for o in plain)
    units = dict(LAYER_METRICS)
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["failed_ratio"] = (checks.failed / checks.attempted, "1")
    metrics["disagree_rows"] = (checks.disagree_rows, "count")
    tracer.write(OUT_DIR / workload, {
        "workload": workload, "seed": seed,
        "jobs": [job.id for job in jobs],
        "job_seconds": [o.seconds for o in traced],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    })
    for problem in checks.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    emit(_result(checks, metrics), [(f"{workload}/{k}", v, u) for k, (v, u) in metrics.items()])
    return 0


def record(cli, workload: str) -> int:
    """Pin exit codes and stdout digests of the default seed's jobs."""
    from bench_jobs import DEFAULT_SEED, build_jobs

    jobs = build_jobs(workload, DEFAULT_SEED, WORK_DIR)
    outcomes = run_pass(cli, jobs)
    bad = [job.id for job, o in zip(jobs, outcomes) if o.rc is None or o.rc == 3]
    if bad:
        sys.exit(f"perfbench: not recording, these jobs fail: {bad}")
    EXPECTED_DIR.mkdir(exist_ok=True)
    doc = {
        "seed": DEFAULT_SEED,
        "jobs": {job.id: {"exit": o.rc, "sha256": o.digest} for job, o in zip(jobs, outcomes)},
    }
    (EXPECTED_DIR / f"{workload}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(jobs)} jobs of {workload}")
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak memory."""
    from bench_jobs import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            sys.exit(f"perfbench: {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="pin exit codes and output digests of the default seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cli = _import_ocasync()  # before anything is measured: the sources must be here
    from bench_jobs import WORKLOADS, build_jobs

    if args.setup_probe:
        build_jobs(args.workload, args.seed, WORK_DIR)
        return 0

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)} or all")
    if args.record:
        return record(cli, args.workload)
    if args.trace:
        return run_traced(cli, args.workload, args.seed)
    return run_untraced(cli, args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
