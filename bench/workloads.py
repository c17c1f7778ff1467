"""Benchmark workloads: seeded inputs, the command stream, and output checks.

Each workload turns ``--seed`` into its inputs (sweep seeds, or state files
written in the documented file format) and yields an endless, deterministic
stream of ``Op``s.  An op is one CLI command plus the check that its output
must pass.  Checks use only properties that hold for every state (theorems,
closed-form goldens, count identities), never values tied to the RNG stream,
so they stay valid when the sampler changes.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

LOG2_3 = math.log2(3.0)
ALPHA_AFS = math.log(2.0) / math.log(LOG2_3)
E223_TRIPLE = (1.0, 1.0, 2.0 * math.sqrt(2.0) / 3.0)

# The sweep pool engages at 4 chunks of 512 samples.
POOL_THRESHOLD = 4 * 512


@dataclass
class Op:
    """One CLI command: its argv, the states it decides, and its check.

    ``check(exit_code, stdout)`` returns None when the output is correct and
    a one-line reason otherwise.  ``out_dir`` is where a sweep writes, and
    ``info`` what its check read from the report.
    """

    argv: list[str]
    samples: int
    check: Callable[[int, str], str | None]
    out_dir: Path | None = None
    info: dict = field(default_factory=dict)


def _read_report(out_dir: Path) -> dict:
    return json.loads((out_dir / "sweep_report.json").read_text())


class SweepWorkload:
    """Repeated ``sweep`` commands at a fixed size, one fresh seed each."""

    block = 1  # commands in one whole unit of the mix

    def __init__(self, name, dims, measure, samples, warmup_samples, check_report):
        self.name = name
        self.dims = dims
        self.measure = measure
        self.samples = samples
        self.warmup_samples = warmup_samples
        self._check_report = check_report
        # the sweep fans out over a process pool at this size
        self.pooled = samples >= POOL_THRESHOLD

    def prepare(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed

    def _op(self, samples, seed, out_dir) -> Op:
        argv = ["sweep", "--dims", self.dims, "--measure", self.measure,
                "--family", "haar", "--samples", str(samples), "--seed", str(seed),
                "--out", str(out_dir)]
        info = {}

        def check(rc, stdout):
            try:
                report = _read_report(out_dir)
            except (OSError, ValueError) as exc:
                return f"sweep report unreadable: {exc}"
            info["max_finite_x"] = report["max_finite_x"]
            info["certified_alpha"] = report["certified_alpha"]
            return self._check_report(rc, report, samples)

        return Op(argv, samples, check, out_dir, info)

    def warmup(self) -> Op:
        seed = random.Random(f"{self.seed}-warmup").randrange(2**31)
        return self._op(self.warmup_samples, seed, self.workdir / "warmup")

    def ops(self, tag: str = "run") -> Iterator[Op]:
        """Endless sweeps, the same for every call; ``tag`` names their output dirs."""
        seeds = random.Random(f"{self.seed}-sweeps")
        for k in itertools.count():
            yield self._op(self.samples, seeds.randrange(2**31),
                           self.workdir / f"{tag}-{k}")


def _counts_sum(report, n) -> str | None:
    total = report["zero_count"] + report["finite_count"] + report["unbounded_count"]
    if report["samples"] != n or total != n:
        return f"counts sum to {total} over {report['samples']} samples, expected {n}"
    return None


def check_concurrence_sweep(rc, report, n) -> str | None:
    """CKW: C^2 is monogamous, so every x is at most 1 and alpha = y = 2."""
    problem = _counts_sum(report, n)
    if problem:
        return problem
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if report["unbounded_count"] != 0:
        return f"{report['unbounded_count']} unbounded solutions"
    if report["monotonicity_violations"] != 0:
        return f"{report['monotonicity_violations']} monotonicity violations"
    if not report["max_finite_x"] <= 1.0 + 1e-9:
        return f"max_finite_x {report['max_finite_x']} exceeds 1"
    alpha = report["certified_alpha"]
    if alpha is None or abs(alpha - 2.0) > 1e-9:
        return f"certified alpha {alpha}, expected 2"
    return None


def check_assistance_sweep(rc, report, n) -> str | None:
    """Exit code 2 exactly when an unbounded solution was found.

    max_finite_x is not checked: the projective search can land close to the
    cut value and give very large x; it is reported as information instead.
    """
    problem = _counts_sum(report, n)
    if problem:
        return problem
    expected = 2 if report["unbounded_count"] > 0 else 0
    if rc != expected:
        return f"exit code {rc} with {report['unbounded_count']} unbounded, expected {expected}"
    return None


# --- analyze-mix -------------------------------------------------------------

N_STATE_FILES = 16  # per family

# One block of 50 commands, shuffled per block.  The three named examples
# are 6% of the stream; e223 (assisted search, about 10 ms) holds 2%, so p99
# falls inside one command kind instead of between two.
_BLOCK = (
    [("analyze", "c")] * 12 + [("analyze", "ca")] * 12 + [("analyze", "eof")] * 12
    + [("certify", "c")] * 4 + [("certify", "ca")] * 4 + [("certify", "eof")] * 3
    + [("e223", "ca"), ("afs", "ec-lookup"), ("figures", None)]
)


def _write_state(path: Path, amps: np.ndarray) -> None:
    amps = amps / np.linalg.norm(amps)
    doc = {"dims": [2, 2, 2], "amps": [[float(z.real), float(z.imag)] for z in amps]}
    path.write_text(json.dumps(doc) + "\n")


def _family_amps(family: str, rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of one 3-qubit state, index a*4 + b*2 + c."""
    amps = np.zeros(8, dtype=complex)
    if family == "haar":
        amps[:] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    elif family == "w_class":  # b0|000> + b1|100> + b2|010> + b3|001>
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps[[0, 4, 2, 1]] = b
    else:  # generalized Schmidt form l0|000> + l1 e^{i phi}|100> + l2|101> + ...
        lam = np.abs(rng.standard_normal(5))
        amps[[0, 4, 5, 6, 7]] = lam
        amps[4] *= np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return amps


def _json_doc(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _check_analyze(measure, w_class=False):
    def check(rc, stdout):
        doc, problem = _json_doc(stdout)
        if problem:
            return problem
        if doc["measure"] != measure:
            return f"measure {doc['measure']}, expected {measure}"
        if len(doc["triple"]) != 3 or not all(_finite(v) and v >= 0 for v in doc["triple"]):
            return f"bad triple {doc['triple']}"
        if rc != (2 if doc["non_monogamy_witness"] else 0):
            return f"exit code {rc} disagrees with witness={doc['non_monogamy_witness']}"
        res = doc["residual_at_alpha"]
        if not _finite(res):
            return f"residual at alpha 2 is {res}"
        if measure == "c" and res < -1e-12:  # CKW inequality
            return f"concurrence residual at alpha 2 is {res} < 0"
        if measure == "c" and w_class and abs(res) > 1e-9:  # CKW is tight on W-class states
            return f"concurrence residual at alpha 2 is {res} on a W-class state, expected 0"
        return None
    return check


def _check_certify(rc, stdout):
    """At alpha = log_b 2 the residual is max^a - min^a, never negative."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    doc, problem = _json_doc(stdout)
    if problem:
        return problem
    if doc["kind"] != "per-state-exponent":
        return f"certificate kind {doc['kind']}"
    if not (_finite(doc["alpha"]) and doc["alpha"] > 0):
        return f"certified alpha {doc['alpha']}"
    if not (_finite(doc["residual_at_alpha"]) and doc["residual_at_alpha"] >= -1e-12):
        return f"residual at certified alpha is {doc['residual_at_alpha']}"
    return None


def _check_e223(rc, stdout):
    if rc != 2:
        return f"e223 exit code {rc}, expected 2"
    doc, problem = _json_doc(stdout)
    if problem:
        return problem
    if any(abs(a - b) > 1e-9 for a, b in zip(doc["triple"], E223_TRIPLE)):
        return f"e223 triple {doc['triple']}, expected {E223_TRIPLE}"
    if not doc["non_monogamy_witness"]:
        return "e223 not reported as a witness"
    return None


def _check_afs(rc, stdout):
    if rc != 0:
        return f"afs exit code {rc}, expected 0"
    doc, problem = _json_doc(stdout)
    if problem:
        return problem
    if not _finite(doc["alpha"]) or abs(doc["alpha"] - ALPHA_AFS) > 1e-12:
        return f"afs alpha {doc['alpha']}, expected {ALPHA_AFS}"
    return None


def _check_csv(path: Path, header: str, rows: int) -> str | None:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header or len(lines) != rows + 1:
        return f"{path.name}: expected header {header!r} and {rows} rows"
    width = header.count(",") + 1
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != width or not all(math.isfinite(float(c)) for c in cells):
            return f"{path.name}: bad row {ln!r}"
    return None


def _check_figures(out_dir: Path):
    def check(rc, stdout):
        if rc != 0:
            return f"figures exit code {rc}, expected 0"
        try:
            return (_check_csv(out_dir / "fig1.csv", "alpha,f_alpha", 299)
                    or _check_csv(out_dir / "fig2.csv", "y,z1,z2", 391))
        except (OSError, ValueError) as exc:
            return f"figures output unreadable: {exc}"
    return check


class AnalyzeMix:
    """Single-state commands on seeded 3-qubit state files, plus named examples."""

    name = "analyze-mix"
    block = len(_BLOCK)
    pooled = False

    def prepare(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.files = []  # (family, path)
        for family in ("haar", "w_class", "schmidt"):
            for k in range(N_STATE_FILES):
                path = workdir / f"{family}-{k}.json"
                _write_state(path, _family_amps(family, rng))
                self.files.append((family, str(path)))
        self.seed = seed

    def _op(self, kind, measure, file) -> Op:
        family, state = file
        if kind == "analyze":
            argv = ["analyze", "--state", state, "--measure", measure,
                    "--y", "2", "--alpha", "2"]
            return Op(argv, 1, _check_analyze(measure, family == "w_class"))
        if kind == "certify":
            argv = ["certify", "--state", state, "--measure", measure, "--mode", "thm3"]
            return Op(argv, 1, _check_certify)
        if kind == "e223":
            argv = ["analyze", "--example", "e223", "--measure", "ca",
                    "--y", "2", "--alpha", "2"]
            return Op(argv, 1, _check_e223)
        if kind == "afs":
            argv = ["certify", "--example", "afs", "--measure", "ec-lookup", "--mode", "thm3"]
            return Op(argv, 1, _check_afs)
        out_dir = self.workdir / "figures"
        return Op(["figures", "--out", str(out_dir)], 0, _check_figures(out_dir))

    def warmup(self) -> Op:
        return self._op("analyze", "eof", self.files[0])

    def ops(self, tag: str = "run") -> Iterator[Op]:
        """Endless commands, the same for every call."""
        rng = random.Random(f"{self.seed}-commands")
        while True:
            block = list(_BLOCK)
            rng.shuffle(block)
            for kind, measure in block:
                yield self._op(kind, measure, rng.choice(self.files))


WORKLOADS = {
    "sweep-c-haar": lambda: SweepWorkload(
        "sweep-c-haar", "2,2,2", "c", 100_000, POOL_THRESHOLD, check_concurrence_sweep),
    "sweep-ca-qudit": lambda: SweepWorkload(
        "sweep-ca-qudit", "2,2,3", "ca", 1_000, 8, check_assistance_sweep),
    "analyze-mix": AnalyzeMix,
}
