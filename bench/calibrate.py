"""Machine-speed sampling, so that timings survive a drifting host.

The benchmark shares its cores with other tenants.  The speed of each core
swings by up to 2x, on time scales from a fraction of a second to minutes,
and the two cores swing independently.  Every timing the benchmark reports
is therefore scaled by the slowdown measured on the same CPU at the same
time: a value reads as if the machine ran at the reference kernel's nominal
speed.

``SpeedMonitor`` runs one side process per sampled CPU (this file run as a
script), pinned to it.  Every ``SAMPLE_PERIOD_S`` it measures the CPU time
of a few units of a fixed reference kernel; CPU time, so that waiting for a
busy CPU does not count.  The kernel does the kind of work entmono's
commands do (argparse, JSON, small numpy linear algebra, extended
precision, a short Nelder-Mead search, Python loops) but none of entmono's
code, so a change to entmono cannot move it.  The samplers take
about 8% of each sampled CPU; that time is subtracted from the commands it
interrupted.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.optimize import minimize

# Seconds one unit of the kernel takes on an idle core of the reference
# machine (2.1 GHz Xeon).  It only sets the scale of the reported values.
NOMINAL_UNIT_S = 1.5e-3
SAMPLE_UNITS = 2
SAMPLE_PERIOD_S = 0.05
# Samples within this distance of a timed interval set its slowdown.
WINDOW_S = 0.25
# The commands slow down more than the kernel: across 60 seeded runs of the
# three workloads, log(unscaled rate) fell with log(kernel slowdown) at a
# slope of 1.15 to 1.34.  Speeds are raised to this power before scaling.
SPEED_EXPONENT = 1.25

_MAT = np.array([[1.0, 0.5j, 0.2, 0.0], [-0.5j, 2.0, 0.1j, 0.3],
                 [0.2, -0.1j, 1.5, 0.4j], [0.0, 0.3, -0.4j, 0.7]])
_TENSOR = (np.arange(8) / 7.0 + 0.25j).reshape(2, 2, 2).astype(np.clongdouble)
_PSI = (np.arange(8) / 5.0 - 0.5j * np.arange(8)[::-1] / 7.0).reshape(2, 2, 2)


def _neg_det(x):
    ket = np.array([np.cos(x[0] / 2.0), np.sin(x[0] / 2.0) * np.exp(1j * x[1])])
    w = np.einsum("apx,x->ap", _PSI, ket.conj())
    m = w @ w.conj().T
    return -float(np.real(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))


def _unit(k: int) -> float:
    """One unit of the reference kernel; the result keeps the work from being skipped."""
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("a", "b", "c", "d"):
        p = sub.add_parser(name)
        p.add_argument("--x", type=float, default=1.0)
        p.add_argument("--y", type=float, default=2.0)
        p.add_argument("--name")
    args = parser.parse_args(["b", "--x", str(k), "--name", "n"])
    acc = args.x
    for _ in range(4):
        w = np.linalg.eigvalsh(_MAT)
        s = np.linalg.svd(_MAT[:2, :2] * w[0], compute_uv=False)
        m = _TENSOR.reshape(4, 2)
        g = m.T @ m
        acc += float(s[0]) + float(np.real(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]))
    acc += sum(i * i for i in range(50)) * 1e-9
    if k % 2:  # every other unit, a short Nelder-Mead search like the assisted one
        acc += minimize(_neg_det, [0.3, 0.2], method="Nelder-Mead",
                        options={"maxiter": 15, "xatol": 1e-12, "fatol": 1e-14}).fun
    return len(json.dumps({"k": k, "acc": acc, "w": w.tolist()})) + acc


def _sample(cpu: int) -> None:
    """Sampler process: time the kernel on ``cpu`` until stdin has a line or ends.

    Prints "ready", then at the end one JSON list of (start, end, CPU
    seconds) samples in time order.
    """
    os.sched_setaffinity(0, {cpu})
    _unit(1)
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], SAMPLE_PERIOD_S)[0]:
        t0, c0 = time.perf_counter(), time.process_time()
        for k in range(SAMPLE_UNITS):
            _unit(k)
        samples.append((t0, time.perf_counter(), time.process_time() - c0))
    json.dump(samples, sys.stdout)


class SpeedMonitor:
    """Samples the speed of ``cpus`` in side processes while the block runs.

    ``time.perf_counter`` reads the system-wide monotonic clock, so sample
    times compare with the caller's.
    """

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.samples: dict[int, list] = {}
        self._starts: dict[int, list] = {}
        self._procs: dict[int, subprocess.Popen] = {}

    def __enter__(self):
        try:
            for cpu in self.cpus:
                self._procs[cpu] = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for proc in self._procs.values():
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("speed sampler failed to start")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for cpu, proc in self._procs.items():
            try:
                out, _ = proc.communicate("stop\n", timeout=30)
                self.samples[cpu] = json.loads(out) if out else []
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                self.samples[cpu] = []
            self._starts[cpu] = [t0 for t0, _, _ in self.samples[cpu]]
        self._procs = {}

    def scaled(self, start: float, end: float, cpus=None) -> float:
        """Seconds the wall interval [start, end] would take at nominal speed.

        ``cpus`` (default: all sampled) are the CPUs the timed work ran on.
        Their samplers' share of the interval is left out, and the rest is
        multiplied by the mean speed the samples within ``WINDOW_S`` of the
        interval saw, combined as a pool spread over the CPUs sees it (their
        speeds add) and raised to ``SPEED_EXPONENT``.
        """
        stolen, speed = 0.0, 0.0
        for cpu in cpus or self.cpus:
            samples = self.samples[cpu]
            starts = self._starts[cpu]
            lo = bisect.bisect_left(starts, start - WINDOW_S - SAMPLE_PERIOD_S)
            hi = bisect.bisect_right(starts, end + WINDOW_S)
            near = samples[lo:hi]
            # a sample that overlaps the interval took its CPU share of the overlap
            stolen += sum(cpu_s * max(0.0, min(end, t1) - max(start, t0)) / (t1 - t0)
                          for t0, t1, cpu_s in near)
            # mean speed, not median: a long command sees every phase of the CPU
            window = [cpu_s for t0, t1, cpu_s in near
                      if start - WINDOW_S <= (t0 + t1) / 2 <= end + WINDOW_S]
            speed += statistics.fmean(SAMPLE_UNITS * NOMINAL_UNIT_S / c
                                      for c in window or [c for _, _, c in samples])
        n = len(cpus or self.cpus)
        return ((end - start) - stolen / n) * (speed / n) ** SPEED_EXPONENT


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
