"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
are produced.  The shared Haar corpus (10^4 three-qubit states) is built
once per session and reused by all property suites.
"""

import math
import time

import numpy as np
import pytest

from entmono import (
    MeasureId,
    XKind,
    certify_per_state,
    certify_relaxed,
    entanglement_cost_lookup,
    example_223,
    haar_random,
    is_theorem2_witness,
    measure_triple,
    min_alpha,
    reduced_density,
    residual,
    solve_x,
    sweep,
    theorem3_alpha,
)
from entmono.cli import main as cli_main
from entmono.measures import LOG2_3
from entmono.monogamy import MeasureTriple, _sample_state
from reference import concurrence_of_assistance, wootters_concurrence

ALPHA_EC = math.log(2) / math.log(LOG2_3)
N_HAAR = 10_000
HAAR_SEED = 20260823


def _report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


@pytest.fixture(scope="module")
def haar_states():
    return [haar_random((2, 2, 2), (HAAR_SEED, i)) for i in range(N_HAAR)]


@pytest.fixture(scope="module")
def conc_triples(haar_states):
    return [measure_triple(s, MeasureId.CONCURRENCE) for s in haar_states]


class TestGoldens:
    def test_example_223_witness(self):
        t = measure_triple(example_223(), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        ok = (
            abs(t.e_abc - 1.0) <= 1e-9
            and abs(t.e_ab - 1.0) <= 1e-9
            and abs(t.e_ac - 2 * math.sqrt(2) / 3) <= 1e-9
            and is_theorem2_witness(t)
        )
        _report("golden: 2x2x3 example assistance triple (1, 1, 2*sqrt(2)/3) "
                "and witness fires", ok)

    def test_entanglement_cost_certificate(self):
        t = entanglement_cost_lookup("antisymmetric_qutrit")
        cert = certify_per_state(t)
        ok = (
            abs(cert.inputs["b"] - LOG2_3) <= 1e-9
            and abs(cert.alpha - ALPHA_EC) <= 1e-5
            and abs(cert.residual_at_alpha) <= 1e-9
        )
        _report("golden: entanglement-cost certificate b = log2(3), "
                "alpha = log 2 / log(log2 3), residual 0", ok)

    def test_relaxed_certificate(self):
        t = entanglement_cost_lookup("antisymmetric_qutrit")
        cert = certify_relaxed(t, 1.5)
        _report("golden: relaxed certificate at c = 3/2 gives alpha = 1.709511",
                abs(cert.alpha - 1.709511) <= 1e-5)

    def test_w_class_sweep(self):
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE_OF_ASSISTANCE, 2.0, N_HAAR,
                  HAAR_SEED, family="w_class")
        all_near_01 = True
        for i in range(N_HAAR):
            s = _sample_state((2, 2, 2), "w_class", HAAR_SEED, i)
            sol = solve_x(measure_triple(s, MeasureId.CONCURRENCE_OF_ASSISTANCE), 2.0)
            if sol.kind is XKind.FINITE:
                if min(abs(sol.x), abs(sol.x - 1.0)) > 1e-9:
                    all_near_01 = False
                    break
        ok = (
            r.unbounded_count == 0
            and all_near_01
            and r.certified_alpha is not None
            and abs(r.certified_alpha - 2.0) <= 1e-9
            and r.empirical
        )
        _report("golden: W-class assistance sweep (1e4) has x in {0, 1} and "
                "certifies alpha = 2", ok)

    def test_concurrence_sweep_runtime(self):
        t0 = time.perf_counter()
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 100_000, HAAR_SEED)
        elapsed = time.perf_counter() - t0
        ok = (
            r.unbounded_count == 0
            and r.max_finite_x <= 1 + 1e-9
            and abs(r.certified_alpha - 2.0) <= 1e-9
            and r.empirical
            and elapsed < 60.0
        )
        _report(f"golden: concurrence Haar sweep (1e5) max x <= 1, alpha = 2, "
                f"{elapsed:.1f}s < 60s", ok)


class TestPropertySuites:
    def test_ckw_alpha_two(self, conc_triples):
        worst = min(residual(t, 2.0) for t in conc_triples)
        _report(f"property: concurrence residual at alpha=2 >= -1e-9 on 1e4 "
                f"Haar states (worst {worst:.2e})", worst >= -1e-9)

    def test_eof_alpha_sqrt2(self, haar_states):
        worst = min(
            residual(measure_triple(s, MeasureId.EOF), math.sqrt(2))
            for s in haar_states
        )
        _report(f"property: formation-entropy residual at alpha=sqrt(2) >= -1e-9 "
                f"on 1e4 Haar states (worst {worst:.2e})", worst >= -1e-9)

    def test_cut_monotone(self, conc_triples):
        ok = all(t.e_abc >= max(t.e_ab, t.e_ac) - 1e-9 for t in conc_triples)
        _report("property: cut value dominates both pair values on 1e4 Haar "
                "states", ok)

    def test_assistance_dominates(self, haar_states):
        ok = True
        for s in haar_states:
            for pair in ("AB", "AC"):
                rho = reduced_density(s, pair)
                if concurrence_of_assistance(rho) < wootters_concurrence(rho) - 1e-9:
                    ok = False
                    break
            if not ok:
                break
        _report("property: assisted concurrence >= concurrence on every "
                "two-qubit reduction of 1e4 Haar states", ok)

    def test_per_state_exponent_sound(self, conc_triples):
        checked = 0
        ok = True
        for t in conc_triples:
            hi = max(t.e_ab, t.e_ac)
            lo = min(t.e_ab, t.e_ac)
            if t.e_abc <= hi or lo <= 0:
                continue
            checked += 1
            if residual(t, theorem3_alpha(t)) < -1e-9:
                ok = False
                break
        _report(f"property: per-state exponent is sound on the strict-gap "
                f"subset ({checked} of 1e4 samples)", ok and checked > 0)

    def test_reconstruction_identity(self, conc_triples):
        checked = 0
        ok = True
        for t in conc_triples:
            sol = solve_x(t, 2.0)
            if sol.kind is not XKind.FINITE:
                continue
            checked += 1
            gap = t.e_abc ** 2 - max(t.e_ab, t.e_ac) ** 2
            m = min(t.e_ab, t.e_ac) ** 2
            if abs(sol.x * gap - m) > 1e-9 * max(1.0, m):
                ok = False
                break
        _report(f"property: x reconstructs the defining equation for every "
                f"finite solution ({checked} of 1e4 samples)", ok and checked > 0)

    def test_bisection_vs_analytic(self):
        rng = np.random.default_rng(HAAR_SEED)
        worst = 0.0
        for _ in range(1000):
            s = rng.uniform(0.05, 0.9)
            r = s * rng.uniform(1.2, 8.0)
            t = MeasureTriple(r, s, s, MeasureId.CONCURRENCE)
            expect = math.log(2) / math.log(r / s)
            worst = max(worst, abs(min_alpha(t) - expect))
        _report(f"property: bisection matches the symmetric-triple closed form "
                f"within 1e-5 over 1e3 draws (worst {worst:.2e})", worst <= 1e-5)


@pytest.fixture(scope="module")
def figdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_figs")
    assert cli_main(["figures", "--out", str(out)]) == 0
    return out


class TestFigureData:
    def test_fig1_nonnegative(self, figdir):
        rows = [
            tuple(map(float, ln.split(",")))
            for ln in (figdir / "fig1.csv").read_text().splitlines()[1:]
        ]
        ok = (
            all(f >= -1e-9 for _, f in rows)
            and abs(rows[-1][0] - 3.0) < 1e-9
            and rows[0][0] >= 1.505
        )
        _report("figures: residual curve non-negative up to alpha = 3", ok)

    def test_fig2_crossing(self, figdir):
        rows = [
            tuple(map(float, ln.split(",")))
            for ln in (figdir / "fig2.csv").read_text().splitlines()[1:]
        ]
        diffs = [(y, z1 - z2) for y, z1, z2 in rows]
        crossings = [
            (a[0] + b[0]) / 2
            for a, b in zip(diffs, diffs[1:])
            if a[1] > 0 >= b[1]
        ]
        ok = len(crossings) == 1 and abs(crossings[0] - ALPHA_EC) <= 0.01
        _report("figures: crossing curve meets the identity line at "
                "log 2 / log(log2 3) within 0.01", ok)


class TestEmpiricalLabel:
    def test_sweep_reports_labeled(self):
        reports = [
            sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 64, 3),
            sweep((2, 2, 2), MeasureId.CONCURRENCE_OF_ASSISTANCE, 2.0, 64, 3,
                  family="w_class"),
            sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 64, 3, family="schmidt"),
        ]
        ok = all(
            r.empirical and r.to_json_dict()["certificate_kind"] == "empirical-x-bound"
            for r in reports
        )
        _report("reporting: every sweep labels its exponent as empirical", ok)
