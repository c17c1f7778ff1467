import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entmono import (
    DomainError,
    MeasureId,
    MeasureTriple,
    MonotonicityError,
    SchmidtParams,
    XKind,
    alpha_from_bound,
    beta_curves,
    certify_per_state,
    certify_relaxed,
    entanglement_cost_lookup,
    example_223,
    from_schmidt,
    ghz,
    haar_random,
    is_theorem2_witness,
    measure_triple,
    min_alpha,
    residual,
    solve_x,
    sweep,
    theorem3_alpha,
    theorem3_alpha_relaxed,
    w_class,
)
from entmono import monogamy
from entmono.measures import LOG2_3, MeasureError
from entmono.monogamy import _KINDS, _classify, _sample_state, _worker_count
from entmono.states import _StateWords, family_rows, index_streams

EC = entanglement_cost_lookup("antisymmetric_qutrit")
ALPHA_EC = math.log(2) / math.log(LOG2_3)


def triple(a, b, c, mid=MeasureId.CONCURRENCE):
    return MeasureTriple(a, b, c, mid)


class TestSolveX:
    def test_schmidt_finite_half(self):
        t = measure_triple(
            from_schmidt(SchmidtParams((0.5, 0, 0.5, 0.5, 0.5))), MeasureId.CONCURRENCE
        )
        sol = solve_x(t, 2.0)
        assert sol.kind is XKind.FINITE
        assert sol.x == pytest.approx(0.5, abs=1e-9)

    def test_ghz_zero(self):
        t = measure_triple(ghz(), MeasureId.CONCURRENCE)
        for y in (0.5, 1.0, 2.0, 5.0):
            assert solve_x(t, y).kind is XKind.ZERO

    def test_e223_unbounded(self):
        t = measure_triple(example_223(), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        for y in (0.5, 1.0, 2.0, 7.0):
            assert solve_x(t, y).kind is XKind.UNBOUNDED

    def test_zero_takes_precedence(self):
        # both gap and min below eps: classified Zero
        sol = solve_x(triple(1.0, 1.0, 0.0), 2.0)
        assert sol.kind is XKind.ZERO

    def test_monotonicity_violation_rejected(self):
        with pytest.raises(MonotonicityError):
            solve_x(triple(0.5, 0.9, 0.1), 2.0)

    def test_powered_gap_rounding_to_zero_rejected(self):
        # finite by a gap of one ulp at eps 0, but cut^y and max^y round to
        # the same float at y = 1e-3: an error, not a guessed kind or x
        with pytest.raises(DomainError, match="rounds to 0"):
            solve_x(triple(1.0, 1 - 2**-52, 0.5), 1e-3, 0.0)

    def test_bad_y(self):
        with pytest.raises(DomainError):
            solve_x(triple(1, 0.5, 0.5), 0.0)

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_y(self, y):
        with pytest.raises(DomainError, match="finite and positive"):
            solve_x(triple(1, 0.5, 0.5), y)

    @pytest.mark.parametrize("eps", [-1e-9, math.inf, math.nan])
    def test_bad_eps(self, eps):
        with pytest.raises(DomainError, match="eps"):
            solve_x(triple(1, 0.5, 0.5), 2.0, eps)
        with pytest.raises(DomainError, match="eps"):
            is_theorem2_witness(triple(1, 0.5, 0.5), eps)

    @given(
        st.floats(0.01, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.1, 8.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_reconstruction_identity(self, cut, f1, f2, y):
        hi = cut * f1
        lo = hi * f2
        t = triple(cut, hi, lo)
        sol = solve_x(t, y)
        if sol.kind is XKind.FINITE:
            gap = cut ** y - hi ** y
            m = lo ** y
            assert abs(sol.x * gap - m) <= 1e-9 * max(1.0, m)
            assert sol.x > 0


class TestResidual:
    def test_ec_zero_at_crossing(self):
        assert residual(EC, ALPHA_EC) == pytest.approx(0.0, abs=1e-9)

    def test_unit_triple(self):
        assert residual(triple(1, 0, 0), 1.0) == 1.0

    def test_w_state_at_two(self):
        t = triple(2 * math.sqrt(2) / 3, 2 / 3, 2 / 3)
        assert residual(t, 2.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, math.inf, math.nan])
    def test_bad_alpha(self, alpha):
        with pytest.raises(DomainError, match="alpha"):
            residual(triple(1, 0.5, 0.5), alpha)


class TestAlphaFromBound:
    def test_values(self):
        assert alpha_from_bound(1.0, 2.0) == 2.0
        assert alpha_from_bound(0.0, 3.0) == 3.0
        assert alpha_from_bound(1 / (LOG2_3 - 1), 1.0) == pytest.approx(1.7095, abs=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_from_bound(-0.1, 1.0)
        with pytest.raises(DomainError):
            alpha_from_bound(1.0, 0.0)

    @pytest.mark.parametrize("m, y0", [(math.nan, 2.0), (1.0, math.nan), (0.0, math.inf)])
    def test_non_finite(self, m, y0):
        with pytest.raises(DomainError):
            alpha_from_bound(m, y0)


class TestTheorem3:
    def test_ec_exponent(self):
        a = theorem3_alpha(EC)
        assert a == pytest.approx(ALPHA_EC, abs=1e-12)
        assert residual(EC, a) >= -1e-9

    def test_base_two(self):
        assert theorem3_alpha(triple(2, 1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric(self):
        t = triple(1, 0.5, 0.25)
        assert theorem3_alpha(t) == pytest.approx(1.0, abs=1e-12)
        assert residual(t, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theorem3_alpha(triple(1, 1, 0.5))  # no strict gap
        with pytest.raises(DomainError):
            theorem3_alpha(triple(1, 0.5, 0.0))  # zero min

    def test_equality_case_residual_zero(self):
        t = triple(1.3, 0.7, 0.7)
        a = theorem3_alpha(t)
        assert residual(t, a) == pytest.approx(0.0, abs=1e-9)


class TestTheorem3Relaxed:
    def test_three_halves(self):
        assert theorem3_alpha_relaxed(1.5) == pytest.approx(1.709511, abs=1e-5)

    def test_base_two(self):
        assert theorem3_alpha_relaxed(2.0) == pytest.approx(1.0, abs=1e-12)

    def test_equality_base(self):
        assert theorem3_alpha_relaxed(LOG2_3) == pytest.approx(ALPHA_EC, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            theorem3_alpha_relaxed(1.0)
        with pytest.raises(DomainError):
            theorem3_alpha_relaxed(0.3)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite(self, c):
        with pytest.raises(DomainError, match="finite"):
            theorem3_alpha_relaxed(c)


class TestMinAlpha:
    def test_ec_triple(self):
        assert min_alpha(EC, 1e-6) == pytest.approx(ALPHA_EC, abs=1e-5)

    def test_witness_not_finite(self):
        t = measure_triple(example_223(), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert min_alpha(t) == math.inf

    def test_zero_min(self):
        assert min_alpha(triple(1, 0.6, 0)) == 0.0

    def test_matches_analytic_on_symmetric_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = rng.uniform(0.05, 0.9)
            r = s * rng.uniform(1.2, 8.0)
            expect = math.log(2) / math.log(r / s)
            assert min_alpha(triple(r, s, s)) == pytest.approx(expect, abs=1e-5)

    @given(
        st.floats(0.01, 1.6),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]) | st.floats(1e-13, 0.5),
    )
    @example(cut=1.0, f1=0.99999, f2=0.99 / 0.99999, tol=1e-6)  # no witness, no root below 64
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy_bisect(self, cut, f1, f2, tol):
        from scipy.optimize import bisect

        t = triple(cut, cut * f1, cut * f1 * f2)
        got = min_alpha(t, tol)
        # min_alpha bisects the residual of the triple over its cut value
        n = triple(1.0, t.e_ab / cut, t.e_ac / cut)
        f = lambda a: residual(n, a)
        if min(t.e_ab, t.e_ac) < 1e-9 or abs(cut - max(t.e_ab, t.e_ac)) < 1e-9:
            assert got in (0.0, math.inf)
        elif f(tol) >= 0.0:
            assert got == tol
        elif f(monogamy.ALPHA_MAX) < 0.0:
            assert got == math.inf
        else:
            ref = bisect(f, tol, monogamy.ALPHA_MAX, xtol=tol, maxiter=monogamy.BISECT_MAXITER)
            assert got.hex() == float(ref).hex()

    def test_tiny_triple_does_not_underflow(self):
        # residual(t, 64) of this triple underflows to 0.0, which once read as
        # a root at the bracket end; the scale-free residual keeps its sign
        t = measure_triple(_sample_state((2, 2, 2), "schmidt", 11, 65), MeasureId.EOF)
        assert t.e_abc == pytest.approx(7.4456e-6, rel=1e-4)
        assert residual(t, monogamy.ALPHA_MAX) == 0.0
        a = min_alpha(t)
        assert a == 0.8254642820850462
        assert residual(t, a - 1e-5) < 0.0 <= residual(t, a + 1e-5)

    def test_exact_zero_at_bracket_end(self, monkeypatch):
        monkeypatch.setattr(monogamy, "residual", lambda t, a: 0.0 if a == monogamy.ALPHA_MAX else -1.0)
        assert min_alpha(triple(1.2, 1, 0.5)) == monogamy.ALPHA_MAX

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(monogamy, "BISECT_MAXITER", 3)
        with pytest.raises(RuntimeError, match="did not converge"):
            min_alpha(triple(1.2, 1, 0.5))

    def test_residual_nonnegative_beyond_threshold(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            cut = rng.uniform(0.2, 1.5)
            hi = cut * rng.uniform(0.3, 0.95)
            lo = hi * rng.uniform(0.05, 1.0)
            t = triple(cut, hi, lo)
            a0 = min_alpha(t, tol=1e-10)
            if not math.isfinite(a0) or a0 == 0.0:
                continue
            for beta in np.linspace(a0 + 1e-8, 64.0, 100):
                assert residual(t, beta) >= -1e-9
            # the scale-free residual 1 - t1^b - t2^b increases strictly in b
            t1, t2 = hi / cut, lo / cut
            grid = np.linspace(a0, 8.0, 100)
            vals = 1.0 - t1 ** grid - t2 ** grid
            assert np.all(np.diff(vals) > 0)


class TestWitness:
    def test_e223(self):
        assert is_theorem2_witness(triple(1, 1, 2 * math.sqrt(2) / 3))

    def test_zero_min_is_not_witness(self):
        assert not is_theorem2_witness(triple(1, 1, 0))

    def test_strict_gap_is_not_witness(self):
        assert not is_theorem2_witness(triple(1.2, 1, 0.5))

    @pytest.mark.parametrize("t,kind,alpha", [
        ((1, 1, 0), XKind.ZERO, 0.0),
        ((1, 0.5, 0), XKind.ZERO, 0.0),
        ((1, 1, 0.5), XKind.UNBOUNDED, math.inf),
    ])
    def test_eps_zero_decisions_agree(self, t, kind, alpha):
        # x, the witness flag and min_alpha decide by one rule, also at eps = 0
        t = triple(*t)
        assert solve_x(t, 2.0, 0.0).kind is kind
        assert is_theorem2_witness(t, 0.0) is (kind is XKind.UNBOUNDED)
        assert min_alpha(t, eps=0.0) == alpha


@pytest.mark.parametrize("decide", [
    lambda t: solve_x(t, 2.0),
    is_theorem2_witness,
    min_alpha,
    lambda t: beta_curves(t, [1.0, 2.0]),
], ids=["solve_x", "is_theorem2_witness", "min_alpha", "beta_curves"])
def test_monotonicity_violation_raises(decide):
    with pytest.raises(MonotonicityError, match="below larger pair value"):
        decide(triple(0.5, 0.9, 0.1))


class TestBetaCurves:
    def test_ec_rows(self):
        rows = beta_curves(EC, [1.0, ALPHA_EC, 2.0])
        y, z1, z2 = rows[0]
        assert z1 == pytest.approx(1 / (LOG2_3 - 1), abs=1e-9)
        assert z2 == 1.0
        y, z1, z2 = rows[1]
        assert z1 == pytest.approx(z2, abs=1e-9)
        y, z1, z2 = rows[2]
        assert z1 == pytest.approx(2 / (LOG2_3 ** 2 - 1), abs=1e-9)
        assert z1 == pytest.approx(1.3227, abs=1e-3)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            beta_curves(triple(1, 0, 0), [1.0])


class TestSweep:
    def test_single_sample(self):
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 1, 7)
        assert r.samples == 1
        assert r.zero_count + r.finite_count + r.unbounded_count == 1

    def test_counts_add_up(self):
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 777, 3)
        assert r.zero_count + r.finite_count + r.unbounded_count == r.samples == 777

    def test_deterministic(self):
        a = sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 300, 9)
        b = sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 300, 9)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_report_key_order(self):
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 20, 9)
        assert list(r.to_json_dict()) == [
            "dims", "measure", "family", "y", "seed", "samples", "zero_count", "finite_count",
            "unbounded_count", "monotonicity_violations", "max_finite_x", "witnesses",
            "histogram", "certified_alpha", "certificate_kind", "empirical",
        ]

    def test_w_class_x_in_zero_one(self):
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE_OF_ASSISTANCE, 2.0, 500, 1,
                  family="w_class")
        assert r.unbounded_count == 0
        assert r.max_finite_x == pytest.approx(1.0, abs=1e-9)
        assert r.certified_alpha == pytest.approx(2.0, abs=1e-9)
        assert r.monotonicity_violations == 0

    def test_schmidt_family(self):
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 200, 4, family="schmidt")
        assert r.unbounded_count == 0
        assert r.max_finite_x <= 1 + 1e-9

    def test_certified_alpha_rule(self):
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 200, 11)
        if r.unbounded_count == 0:
            assert r.certified_alpha == alpha_from_bound(r.max_finite_x, 2.0)
        else:
            assert r.certified_alpha is None
        assert r.empirical

    def test_certified_alpha_sound_on_samples(self):
        from entmono.monogamy import _sample_state

        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 300, 21)
        assert r.certified_alpha is not None
        for i in range(300):
            s = _sample_state((2, 2, 2), "haar", 21, i)
            t = measure_triple(s, MeasureId.CONCURRENCE)
            assert residual(t, r.certified_alpha) >= -1e-9

    def test_histogram_shape(self):
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 300, 2)
        assert len(r.histogram) == 50
        assert sum(n for _, _, n in r.histogram) == r.finite_count
        assert r.histogram[0][0] == 0.0
        assert r.histogram[-1][1] == pytest.approx(r.max_finite_x)

    def test_errors(self):
        with pytest.raises(DomainError):
            sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 0, 1)
        with pytest.raises(DomainError):
            sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 10, 1, family="ghz")
        with pytest.raises(Exception):
            sweep((2, 2, 3), MeasureId.CONCURRENCE, 2.0, 10, 1)
        with pytest.raises(DomainError):
            sweep((2, 2, 3), MeasureId.CONCURRENCE_OF_ASSISTANCE, 2.0, 10, 1,
                  family="w_class")

    def test_fail_fast_without_evaluating(self, monkeypatch):
        # family, dims, measure and seed are checked before any sample is drawn,
        # and each sample is evaluated once, by its chunk
        def unexpected(*args):
            raise AssertionError("measure_triple called by sweep")

        monkeypatch.setattr(monogamy._measures, "measure_triple", unexpected)
        assert sweep((2, 2, 3), MeasureId.CONCURRENCE_OF_ASSISTANCE, 2.0, 20, 3).samples == 20
        with pytest.raises(MeasureError, match="needs dims"):
            sweep((2, 2, 3), MeasureId.CONCURRENCE, 2.0, 10, 1)
        with pytest.raises(MeasureError, match="not computable"):
            sweep((2, 2, 2), MeasureId.ENTANGLEMENT_COST_LOOKUP, 2.0, 10, 1)
        with pytest.raises(DomainError, match="defined on dims"):
            sweep((2, 2, 3), MeasureId.CONCURRENCE_OF_ASSISTANCE, 2.0, 10, 1, family="schmidt")
        with pytest.raises(DomainError, match="non-negative"):
            sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, 10, -1)


class TestCertificates:
    def test_per_state(self):
        cert = certify_per_state(EC)
        assert cert.alpha == pytest.approx(ALPHA_EC, abs=1e-9)
        assert cert.residual_at_alpha == pytest.approx(0.0, abs=1e-9)
        assert cert.inputs["b"] == pytest.approx(LOG2_3, abs=1e-12)

    def test_relaxed(self):
        cert = certify_relaxed(EC, 1.5)
        assert cert.alpha == pytest.approx(1.709511, abs=1e-5)
        assert cert.residual_at_alpha >= 0

    def test_relaxed_base_above_b(self):
        with pytest.raises(DomainError):
            certify_relaxed(EC, 1.6)

    def test_per_state_outside_domain(self):
        with pytest.raises(DomainError):
            certify_per_state(triple(1, 1, 0.5))


def _per_sample_rule(cut, hi, lo, y, eps):
    """The x-rule sample by sample: the kind from the unpowered values, as
    at y = 1, and x from the powered ones."""
    cut, hi, lo = float(cut), float(hi), float(lo)
    pw = lambda v: float((np.array([v]) ** y)[0])  # numpy's array power, as _classify takes it
    if lo < eps or lo == 0.0:
        return XKind.ZERO, 0.0
    if cut - hi < eps or cut - hi <= 0.0:  # a violation's negative gap counts as vanished
        return XKind.UNBOUNDED, math.inf
    return XKind.FINITE, pw(lo) / (pw(cut) - pw(hi))


class TestClassify:
    def test_matches_per_sample_rule(self):
        rng = np.random.default_rng(12)
        cut = rng.uniform(0.0, 1.0, 4000)
        hi = cut * rng.uniform(0.5, 1.05, cut.size)  # some violate monotonicity
        lo = hi * rng.uniform(0.0, 1.0, cut.size)
        hi[:200] = cut[:200]  # vanishing gaps
        lo[200:400] = 1e-6  # vanishing smaller pair values
        seen = set()
        for y, eps in ((2.0, 1e-9), (0.5, 1e-3), (3.0, 0.0)):
            kind, x, violation = _classify(cut, hi, lo, y, eps)
            for k in range(cut.size):
                ref = _per_sample_rule(cut[k], hi[k], lo[k], y, eps)
                assert (_KINDS[kind[k]], x[k]) == ref
                assert violation[k] == (cut[k] < hi[k] - eps)
                seen.add((ref[0], bool(violation[k])))
        assert seen == {(kind, v) for kind in XKind for v in (False, True)} - {(XKind.FINITE, True)}


class TestKindIndependentOfY:
    """The kind of x is decided on the unpowered values: cut^y = max^y iff
    cut = max, so it is the same at every y > 0."""

    @given(
        st.floats(1e-6, 1.6),
        st.floats(0.0, 1.0) | st.floats(1.0 - 1e-8, 1.0),
        st.floats(0.0, 1.0) | st.floats(0.0, 1e-7),
        st.floats(1e-3, 30.0),
        st.sampled_from([1e-9, 1e-6, 1e-3]),
    )
    @example(cut=1.0, f1=1.0 - 5e-10, f2=0.5, y=0.5, eps=1e-9)  # gap below eps, gap^0.5 above
    @example(cut=0.5, f1=0.5, f2=0.01, y=20.0, eps=1e-9)  # min^20 below eps, min above
    @settings(max_examples=400, deadline=None)
    def test_kind_is_the_kind_at_y_one(self, cut, f1, f2, y, eps):
        t = triple(cut, cut * f1, cut * f1 * f2)
        kind = solve_x(t, y, eps).kind
        assert kind is solve_x(t, 1.0, eps).kind
        assert is_theorem2_witness(t, eps) is (kind is XKind.UNBOUNDED)

    def test_tiny_y_sweep_has_no_witness(self):
        # concurrence is CKW-monogamous; at y = 1e-9 every powered gap is
        # below eps, which once made most samples witnesses
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, 1e-9, 2000, 3)
        assert (r.zero_count, r.finite_count, r.unbounded_count) == (0, 2000, 0)
        assert r.certified_alpha is not None

    def test_large_y_sweep_has_no_zero(self, monkeypatch):
        # at y = 20 most min^y fall below eps, which once counted them as zero
        monkeypatch.setenv("MONO_THREADS", "1")
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, 20.0, 20000, 3)
        assert (r.zero_count, r.finite_count, r.unbounded_count) == (0, 20000, 0)

    def test_beta_curves_finite_where_min_y_is_small(self):
        # min^20 = 1e-40 lies below eps, yet x is finite at every y
        rows = beta_curves(triple(1.0, 0.5, 0.01), [0.5, 20.0])
        assert all(0.0 < z1 < math.inf for _, z1, _ in rows)


GOLDENS = json.loads((Path(__file__).parent / "data" / "sweep_goldens.json").read_text())


def _golden_id(case):
    dims = "".join(map(str, case["dims"]))
    return f"{case['measure']}-{case['family']}-{dims}-y{case['y']}-eps{case['eps']}"


class TestSweepGoldens:
    """Sweeps recorded with the per-sample implementation that preceded the
    batched kernel and chunk classifier.

    Counts and witnesses must match exactly.  The largest finite x of c
    and ca sweeps must agree within 4 ulps: the recording was made on
    x86-64 Linux with numpy's bundled OpenBLAS, and a BLAS or CPU that sums
    the normalization dot products in another order moves the last bits
    (on the recording host the values are bit-identical).  The (2,2,2) c
    and ca digits, and the witness triples of the two ca-schmidt eps 1e-05
    cases, were re-recorded when the three-qubit triples moved from the
    clongdouble kernel (purity-form cut, trace and determinant of a^H a)
    to the Cauchy-Binet cut and the float64 closed form, whose values lie
    within a few ulps of their exact ones; every count, violation and
    witness index stayed.  (The w_class x, exactly 1, reads 1 + 5.3e-13 at
    sample 183: in exact arithmetic its float64 triple, whose relative gap
    is 3.2e-4, already gives 1 + 3.78e-13, and the powered gap cut^2 - max^2
    adds the remaining 1.5e-13.)  eof values come from the spectral formula
    instead of eigenvalue and SVD routines, so their largest x may move by
    up to 1e-14 relative; the float64 path moved them by 3e-15, and they
    were not re-recorded.  The (2,2,3) ca values come from the Cauchy-Binet
    cut, the closed-form qubit pair and the batched projective search
    instead of the purity formula, eigh and Nelder-Mead: its largest x
    moved by 5.1e-13 relative (the new cut and AB values of that sample lie
    closer to their exact values), and it may move by up to 1e-11.

    When the kind of x came to be decided on the unpowered values, the
    same at every y, five schmidt cases were re-recorded: the counts and
    witnesses of ca eps 1e-09, eof eps 1e-09, eof eps 1e-05 and ca eps
    1e-05 at y 2 and 0.5, and the largest x of ca eps 1e-05 at y 0.5.  The
    two ca eps 1e-05 cases now share their 13 witnesses.
    """

    @pytest.mark.parametrize("case", GOLDENS["cases"], ids=_golden_id)
    def test_matches_recorded(self, case):
        r = sweep(tuple(case["dims"]), MeasureId(case["measure"]), case["y"], case["samples"],
                  GOLDENS["seed"], family=case["family"], eps=case["eps"]).to_json_dict()
        for key in ("zero_count", "finite_count", "unbounded_count",
                    "monotonicity_violations", "witnesses"):
            assert r[key] == case[key], key
        if case["measure"] == "eof":
            assert r["max_finite_x"] == pytest.approx(case["max_finite_x"], rel=1e-14, abs=0)
        elif case["dims"] != [2, 2, 2]:
            assert r["max_finite_x"] == pytest.approx(case["max_finite_x"], rel=1e-11, abs=0)
        else:
            assert abs(r["max_finite_x"] - case["max_finite_x"]) <= 4 * np.spacing(
                case["max_finite_x"])


def _constructor_state(dims, family, seq):
    """A sweep sample built by the public one-state constructors."""
    if family == "haar":
        return haar_random(dims, seq)
    rng = np.random.Generator(np.random.PCG64(seq))
    if family == "w_class":
        raw = rng.standard_normal(8)
        b = raw[:4] + 1j * raw[4:]
        return w_class(*(b / np.linalg.norm(b)))
    lam = np.abs(rng.standard_normal(5))
    lam /= np.linalg.norm(lam)
    return from_schmidt(SchmidtParams(tuple(lam), rng.uniform(0.0, 2.0 * math.pi)))


class TestChunkSampling:
    @pytest.mark.parametrize("dims,family", [
        ((2, 2, 2), "haar"), ((2, 2, 3), "haar"), ((2, 2, 2), "w_class"), ((2, 2, 2), "schmidt"),
    ])
    def test_replay_matches_chunk(self, dims, family):
        amps = family_rows(dims, family, index_streams(31, 500, 540))
        for row, i in zip(amps, range(500, 540)):
            seq = np.random.SeedSequence((31, i))
            assert row.tobytes() == _sample_state(dims, family, 31, i).amps.tobytes()
            assert row.tobytes() == _constructor_state(dims, family, seq).amps.tobytes()

    @given(seed=st.integers(0, 2**130), start=st.integers(0, 2**70), n=st.integers(1, 24))
    @example(seed=0, start=0, n=8)
    @example(seed=2**32 - 1, start=0, n=3)
    @example(seed=2**32, start=7, n=3)
    @example(seed=2**64, start=0, n=3)
    @example(seed=2**100, start=2**32 - 12, n=24)  # entropy longer than the pool
    @example(seed=9, start=2**32 - 3, n=6)
    @example(seed=9, start=2**64 - 3, n=6)
    @settings(max_examples=60, deadline=None)
    def test_streams_are_numpy_streams(self, seed, start, n):
        # numpy's own SeedSequence is the reference for every (seed, index) stream
        stop = start + n
        for dims, family in (((2, 2, 2), "haar"), ((2, 2, 3), "haar"),
                             ((2, 2, 2), "w_class"), ((2, 2, 2), "schmidt")):
            ref = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
                   for i in range(start, stop)]
            rows = family_rows(dims, family, index_streams(seed, start, stop))
            assert rows.tobytes() == family_rows(dims, family, ref).tobytes()
        for rng, i in zip(index_streams(seed, start, stop), range(start, stop)):
            ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.random(3).tobytes() == ref.random(3).tobytes()

    def test_streams_are_independent(self):
        # hold every Generator first, then draw from them in reverse order
        rngs = list(index_streams(5, 2**32 - 4, 2**32 + 4))
        for rng, i in reversed(list(zip(rngs, range(2**32 - 4, 2**32 + 4)))):
            ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, i))))
            assert rng.standard_normal(7).tobytes() == ref.standard_normal(7).tobytes()

    def test_chunk_draw_holds_one_generator(self):
        # a chunk's 512 Generators held at once set off collections that cost
        # sweeps milliseconds; the sized block makes each one as it is drawn
        streams = index_streams(3, 0, 512)
        assert len(streams) == 512
        collections = []

        def record(phase, info):
            collections.append((phase, info["generation"]))

        gc.collect()
        gc.callbacks.append(record)
        try:
            family_rows((2, 2, 3), "haar", streams)
        finally:
            gc.callbacks.remove(record)
        assert collections == []

    @pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)])
    def test_state_words_hold_pcg64_seed_only(self, n_words, dtype):
        # a numpy that seeds PCG64 with another request fails loudly
        row = np.random.SeedSequence((3, 1)).generate_state(4, np.uint64)
        words = _StateWords(row)
        assert words.generate_state(4, np.uint64) is row
        with pytest.raises(ValueError, match="4 uint64 words"):
            words.generate_state(n_words, dtype)


class TestWorkerCount:
    def test_cap(self, monkeypatch):
        monkeypatch.setenv("MONO_THREADS", "1")
        assert _worker_count(10) == 1
        monkeypatch.delenv("MONO_THREADS")
        assert 1 <= _worker_count(10) <= 10
        assert _worker_count(1) == 1

    @pytest.mark.parametrize("cap", ["x", "0", "-2", "1.5"])
    def test_bad_cap(self, monkeypatch, cap):
        monkeypatch.setenv("MONO_THREADS", cap)
        with pytest.raises(DomainError, match="MONO_THREADS"):
            _worker_count(10)
