#!/usr/bin/env python3
"""Closed-loop benchmark of the gatecert certification pipeline.

One client runs certification jobs back to back in this process, in rounds:
each round runs the workload's fixed case list once.  Run from the root of
a checkout:

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads: kernel, roundtrip, verify, bounds (see benchmarks/NOTES.md).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` wraps every
layer and reports the per-layer metrics instead.  A readable report goes to
standard output, and its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes ``benchmarks/results/<workload>-seed<seed>-trace<t>.json`` with the
environment, the samples and the failures; a traced run adds the spans in
an ``.npz`` file beside it.

Exit codes: 0 when the run completed (``correct`` tells whether every job's
output was right), 2 for a checkout without the gatecert sources, 3 when two
traced runs of the same code and seed disagree on a count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

_T0 = time.perf_counter()
_LOAD_AT_START = os.getloadavg()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# One BLAS thread: the dense kernel runs within 10% of its two-thread time
# on two cores, pays no thread start-up on its first calls, and competes
# less with other processes on a shared machine.  Set before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-ups per run: this process and fresh child processes.  The children
# run between rounds, so that the samples meet different spells of the host
# speed, which on a shared machine drifts by tens of percent within seconds.
SETUP_SAMPLES = 5
# The tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

# The metrics of the JSON result line.  The latency percentiles are printed
# in the report only: on a host whose speed switches between spells, the
# median of a run's latencies jumps with the share of slow spells, while in
# a closed loop with one client jobs_per_s is the reciprocal of the mean
# latency and carries the same signal more steadily.
END_TO_END = (("jobs_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def process_age() -> float:
    """Seconds since this process started, from /proc where it exists."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("kernel", "roundtrip", "verify", "bounds"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_at_start": list(_LOAD_AT_START),
        "commit": git_commit(),
        "code_digest": code_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_digest() -> str:
    """Digest of the package and benchmark sources: the identity of the code
    whose counts a traced run compares."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("gatecert/*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def child_setup(args) -> float:
    """Set-up time of a fresh process doing this run's set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(jobs, seconds: float, tracer=None, between_rounds=None) -> dict:
    """Run rounds of ``jobs`` until the next round would take the summed
    job time past ``seconds``; always at least one round.  Checks and
    ``between_rounds``, called after each round, are not job time."""
    latencies: list[float] = []
    round_rates: list[float] = []
    round_times: list[float] = []
    failures: list[str] = []
    attempted = 0
    begin = time.perf_counter()
    while True:
        job_time, completed = 0.0, 0
        for i, job in enumerate(jobs):
            attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.job(i) if tracer else nullcontext():
                    out = job.run()
                error = None
            except Exception as exc:  # a job that raises is a failed job
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            job_time += elapsed
            if error is None:
                error = job.check(out)
            if error is None:
                latencies.append(elapsed)
                completed += 1
            else:
                failures.append(f"round {len(round_times) + 1} {job.name}: {error}")
        round_rates.append(completed / job_time)
        round_times.append(job_time)
        if between_rounds is not None:
            between_rounds()
        if sum(round_times) + statistics.median(round_times) > seconds:
            break
    return {
        "attempted": attempted,
        "failures": failures,
        "latencies": latencies,
        "round_rates": round_rates,
        "rounds": len(round_times),
        "wall_s": time.perf_counter() - begin,
    }


def end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and notes on how each was taken; the notes
    also carry the latency percentiles."""
    lat = run["latencies"]
    metrics = {
        "jobs_per_s": statistics.median(run["round_rates"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "jobs_per_s": f"median over {run['rounds']} rounds of completed jobs / the round's job time",
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb": "getrusage(RUSAGE_SELF).ru_maxrss of this process",
        "job_s_p50": f"{statistics.median(lat):.6f} s (n={len(lat)})" if lat else "absent: no job completed",
    }
    if len(lat) >= TAIL_SAMPLES * 10:
        p90 = statistics.quantiles(lat, n=10)[-1]
        above = sum(1 for v in lat if v > p90)
        notes["job_s_p90"] = f"{p90:.6f} s (n={len(lat)}, {above} samples above)"
    else:
        notes["job_s_p90"] = f"absent: {len(lat)} samples leave fewer than {TAIL_SAMPLES} above the 90th percentile"
    return metrics, notes


def check_counts(workload: str, seed: int, digest: str, counts: dict) -> list[str]:
    """Compare exact counts with an earlier traced run of the same code and
    seed, or record them when there is none; returns the mismatches."""
    path = RESULTS / f"counts-{workload}-seed{seed}-{digest}.json"
    if not path.is_file():
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, path)
        return []
    earlier = json.loads(path.read_text())
    return [f"{k}: earlier {earlier.get(k)!r}, now {v!r}" for k, v in counts.items() if earlier.get(k) != v]


def latest_untraced(workload: str, seed: int, digest: str) -> float | None:
    path = RESULTS / f"{workload}-seed{seed}-trace0.json"
    try:
        rec = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if rec.get("environment", {}).get("code_digest") != digest:
        return None
    return rec["metrics"]["jobs_per_s"]["value"]


def report_untraced(run: dict, setups: list[float], record: dict) -> dict:
    values, notes = end_to_end(run, setups)
    units = dict(END_TO_END)
    for name, value in values.items():
        print(f"  {name:<14} {value:>12.6g} {units[name]:<4} ({notes[name]})")
    for name in ("job_s_p50", "job_s_p90"):
        print(f"  {name:<14} {notes[name]}")
    record.update(notes=notes, setup_samples_s=setups)
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def report_traced(args, env: dict, run: dict, tracer, record: dict, stem: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the counts that differ from an
    earlier traced run of the same code and seed."""
    import spans as tracing

    values, shares, absent = tracer.metrics(run["attempted"])
    rate_name = tracing.TRACED_RATE[0]
    values[rate_name] = statistics.median(run["round_rates"])
    units = dict(tracing.per_layer_names())
    for name, value in values.items():
        note = f"  (absent: {absent[name]})" if name in absent else ""
        print(f"  {name:<28} {value:>14.6g} {units[name]}{note}")
    print("share of job time, measured / predicted when the benchmark was defined:")
    for key, share in shares.items():
        pred = tracing.PREDICTED_SHARE.get(key, {}).get(args.workload)
        if pred is None:
            print(f"  {key:<44} {share:7.1%}")
            continue
        off = max(share, pred) >= 0.01 and not pred / 2 <= share <= pred * 2
        print(f"  {key:<44} {share:7.1%} / {pred:5.1%}{'  more than 2x off' if off else ''}")
    untraced = latest_untraced(args.workload, args.seed, env["code_digest"])
    if untraced:
        overhead = untraced / values[rate_name] - 1
        print(f"tracing overhead: untraced {untraced:.4g} jobs/s, traced {values[rate_name]:.4g} jobs/s, "
              f"{overhead:+.1%}")
        record["tracing_overhead"] = overhead
    tracer.save(str(stem) + "-spans.npz")
    record.update(shares=shares, absent=absent, spans=len(tracer.start))
    counts = {k: values[k] for k in tracing.exact_metrics()}
    mismatches = check_counts(args.workload, args.seed, env["code_digest"], counts)
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}, mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gatecert" / "__init__.py").is_file():
        print(f"error: no gatecert sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import gatecert

    if Path(gatecert.__file__).resolve().parent != SRC / "gatecert":
        print(f"error: imported gatecert from {gatecert.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans as tracing
    import workloads

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        jobs, warmup = workloads.build(args.workload, args.seed, workdir)
        warmup()
        setups = [process_age()]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        env = environment()
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                run = measure(jobs, args.seconds, tracer)
        else:

            def sample_setup() -> None:
                if len(setups) < SETUP_SAMPLES:
                    setups.append(child_setup(args))

            run = measure(jobs, args.seconds, between_rounds=sample_setup)
            while len(setups) < SETUP_SAMPLES:
                sample_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"gatecert benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"jobs: attempted {run['attempted']}, failed {len(run['failures'])}, "
          f"rounds {run['rounds']} of {len(jobs)} jobs, {run['wall_s']:.2f} s")
    for line in run["failures"][:20]:
        print("FAILED " + line)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "attempted": run["attempted"], "failures": run["failures"],
              "rounds": run["rounds"], "job_latencies_s": run["latencies"]}
    if args.trace:
        metrics, mismatches = report_traced(args, env, run, tracer, record, stem)
        if mismatches:
            print("ERROR: counts differ from an earlier traced run of the same code and seed:", file=sys.stderr)
            for line in mismatches:
                print("  " + line, file=sys.stderr)
            return 3
    else:
        metrics = report_untraced(run, setups, record)
    record["metrics"] = metrics
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"result file: {stem.relative_to(ROOT)}.json")
    print(json.dumps({"correct": not run["failures"], "attempted": run["attempted"],
                      "failed": len(run["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
