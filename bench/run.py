#!/usr/bin/env python3
"""entmono benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client process issues the workload's
commands through ``entmono.cli.main`` one after another for ``--seconds``
seconds and checks every output.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work"

# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 20


@dataclass
class Result:
    op: workloads.Op
    start: float  # perf_counter at the start of the command
    seconds: float
    problem: str | None


def run_op(cli, op: workloads.Op, span=contextlib.nullcontext) -> Result:
    """Run one command in-process, timing it and then checking its output.

    ``span`` wraps the command alone, not the check.
    """
    out, err = io.StringIO(), io.StringIO()
    rc, problem = None, None
    t0 = time.perf_counter()
    try:
        with span(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception as exc:  # a crash is a failed command, not a failed run
        problem = f"raised {exc!r}"
    seconds = time.perf_counter() - t0
    if problem is None:
        try:
            problem = op.check(rc, out.getvalue())
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            problem = f"unexpected output ({exc!r})"
    if problem:
        problem = f"{' '.join(op.argv)}: {problem} {err.getvalue().strip()}".strip()
    return Result(op, t0, seconds, problem)


def closed_loop(cli, ops, seconds: float, block: int) -> list[Result]:
    """Issue ops one after another until ``seconds`` have passed.

    Stops on a whole block of the workload's command mix, so every run sees
    the mix in the same proportions.
    """
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline or len(results) % block:
        results.append(run_op(cli, next(ops)))
    return results


def replay(cli, ops, count: int, span=contextlib.nullcontext) -> list[Result]:
    """The first ``count`` ops, as a closed loop of fixed length."""
    return [run_op(cli, op, span) for op in itertools.islice(ops, count)]


def setup_probe(args) -> int:
    """Child mode: import entmono, make the inputs, run one warm-up command."""
    from entmono import cli

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.prepare(workdir, args.seed)
        result = run_op(cli, workload.warmup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result.problem:
        print(result.problem, file=sys.stderr)
        return 1
    return 0


def time_setup(args) -> tuple[list[tuple[float, float]], list[str]]:
    """(start, end) of each fresh set-up, and the problems they reported."""
    spans, problems = [], []
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"set-up probe did not finish in {PROBE_TIMEOUT_S} s")
            continue
        spans.append((t0, time.perf_counter()))
        if proc.returncode != 0:
            problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return spans, problems


def end_to_end(args, cli, workload):
    """End-to-end metrics, every time scaled by the machine's slowdown.

    A pooled workload spreads over every CPU this process may use, so all of
    them are sampled.  Otherwise the client is pinned to one CPU and only
    that one is sampled, so the samples see what the commands see.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if not workload.pooled:
        cpus = cpus[-1:]
        os.sched_setaffinity(0, cpus)
    with calibrate.SpeedMonitor(cpus) as monitor:
        probes, problems = time_setup(args)
        results = closed_loop(cli, workload.ops(), args.seconds, workload.block)

    lat = [monitor.scaled(r.start, r.start + r.seconds) for r in results]
    busy = sum(lat)
    lat_ms = [t * 1e3 for t in lat]
    metrics = {
        "samples_per_s": (sum(r.op.samples for r in results) / busy, "1/s"),
        "ops_per_s": (len(results) / busy, "1/s"),
        "op_ms.p50": (statistics.median(lat_ms), "ms"),
        "op_ms.p99": (tracing.percentile(lat_ms, 99), "ms"),
        "setup_s": (statistics.median([monitor.scaled(a, b) for a, b in probes] or [0.0]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = sum(r.seconds for r in results)
    print("unscaled: " + json.dumps({
        "samples_per_s": sum(r.op.samples for r in results) / wall,
        "ops_per_s": len(results) / wall,
        "setup_s": statistics.median([b - a for a, b in probes] or [0.0]),
        "mean_slowdown": wall / busy,
    }))
    return metrics, results, problems


def traced(args, cli, workload):
    """Per-layer metrics: untraced serial pass, traced replay, pooled replay.

    The serial passes run pinned to one CPU with MONO_THREADS=1, so every
    call stays in this process.  The pooled replay (sweeps only) runs the
    same sweeps with the pool and must write byte-identical reports.  Pass
    totals are scaled like the end-to-end times; span times are not.
    """
    from entmono import measures, monogamy, states

    is_sweep = isinstance(workload, workloads.SweepWorkload)
    pass_s = args.seconds / (3 if is_sweep else 2)
    cpus = sorted(os.sched_getaffinity(0))
    serial_cpu = cpus[-1:]
    pool_cpus = cpus if workload.pooled else serial_cpu  # as in the end-to-end run
    with calibrate.SpeedMonitor(cpus) as monitor:
        os.environ["MONO_THREADS"] = "1"
        os.sched_setaffinity(0, serial_cpu)
        serial = closed_loop(cli, workload.ops("serial"), pass_s, workload.block)
        pooled = []
        if is_sweep:  # before tracing, so pool workers fork from an untraced process
            os.environ["MONO_THREADS"] = str(len(cpus))
            os.sched_setaffinity(0, pool_cpus)
            with tracing.PoolProbe() as probe:
                pooled = replay(cli, workload.ops("pooled"), len(serial))
            os.environ["MONO_THREADS"] = "1"
            os.sched_setaffinity(0, serial_cpu)
        tracer = tracing.Tracer()
        tracer.install(cli, states, measures, monogamy)
        try:
            traced_runs = replay(cli, workload.ops("traced"), len(serial),
                                 lambda: tracer.span("cli.main"))
        finally:
            tracer.uninstall()
        os.sched_setaffinity(0, cpus)
    # spans and their busy shares are raw times, so the wall is raw too
    metrics = tracing.layer_metrics(tracer, sum(r.seconds for r in traced_runs),
                                    len(traced_runs))

    def total(results, on=None):
        return sum(monitor.scaled(r.start, r.start + r.seconds, on) for r in results)

    serial_s, traced_s = total(serial, serial_cpu), total(traced_runs, serial_cpu)
    metrics["trace.overhead"] = (traced_s / serial_s, "ratio")
    results = serial + traced_runs + pooled
    problems = []

    pool = {"pool.workers": 0, "pool.chunks": 0, "pool.efficiency": 0.0,
            "pool.overhead_s": 0.0, "pool.child_rss_mb": 0.0}
    if is_sweep:
        pooled_s = total(pooled, pool_cpus)
        n_workers = max((w for w, _ in probe.pools), default=1)
        pool = {
            "pool.workers": n_workers,
            "pool.chunks": statistics.median(c for _, c in probe.pools) if probe.pools else 0,
            "pool.efficiency": serial_s / (n_workers * pooled_s),
            "pool.overhead_s": (pooled_s - serial_s / n_workers) / len(pooled),
            "pool.child_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
                                  if probe.pools else 0.0),
        }
        for a, b in zip(serial, pooled):
            if (a.op.out_dir / "sweep_report.json").read_bytes() != \
                    (b.op.out_dir / "sweep_report.json").read_bytes():
                problems.append(f"{' '.join(b.op.argv)}: pooled report differs from serial")
    units = {"pool.workers": "count", "pool.chunks": "count/op", "pool.efficiency": "ratio",
             "pool.overhead_s": "s", "pool.child_rss_mb": "MB"}
    metrics.update({k: (v, units[k]) for k, v in pool.items()})
    metrics["monogamy.sweep.max_finite_x"] = (
        max((r.op.info.get("max_finite_x") or 0.0 for r in results), default=0.0), "x")
    return metrics, results, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "entmono" / "__init__.py").is_file():
        print(f"error: entmono sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.setup_probe:  # MONO_THREADS comes from the parent
        return setup_probe(args)
    # the pool may use every CPU this process may run on, not the host's count
    os.environ["MONO_THREADS"] = str(len(os.sched_getaffinity(0)))

    from entmono import cli

    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "MONO_THREADS": int(os.environ["MONO_THREADS"])}
    print("bench: " + json.dumps(header), flush=True)
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        workload.prepare(workdir, args.seed)
        warm = run_op(cli, workload.warmup())
        measure = traced if args.trace else end_to_end
        metrics, results, problems = measure(args, cli, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    infos = [r.op.info for r in results if r.op.info]
    if infos:
        alphas = [i["certified_alpha"] for i in infos if i["certified_alpha"] is not None]
        print("info: " + json.dumps({
            "sweeps": len(infos),
            "max_finite_x": max(i["max_finite_x"] for i in infos),
            "certified_alpha_max": max(alphas, default=None),
            "sweeps_without_certificate": len(infos) - len(alphas),
        }))
    results.append(warm)
    problems += [r.problem for r in results if r.problem]
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for p in problems[:10]:
        print(f"failed: {p}", file=sys.stderr)
    attempted = len(results) + (0 if args.trace else SETUP_PROBES)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
