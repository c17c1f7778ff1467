import concurrent.futures
import json
import math
import os
import subprocess
import sys
import threading
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
    beta_curves,
    certify,
    entanglement_cost_lookup,
    example_223,
    from_schmidt,
    ghz,
    haar_random,
    measure_triple,
    min_alpha,
    residual,
    solve_x,
    sweep,
    w_class,
)
from entmono import monogamy
from entmono.measures import LOG2_3, MeasureError
from entmono.measures import _measure_triples
from entmono.monogamy import _KINDS, _classify, _sample_state, _worker_count
from reference import numpy_chunk_rows, scale_free_residual, sweep_rows, x_exact

EC = entanglement_cost_lookup("antisymmetric_qutrit")
ALPHA_EC = math.log(2) / math.log(LOG2_3)
X_ULPS = 16 * 2.0**-52  # x's relative error bound against its 60-digit value


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

    def test_one_ulp_gap_at_small_y_is_finite(self):
        # finite by a gap of one ulp at eps 0: cut^y and max^y round to the
        # same float at y = 1e-3, but log(cut/max) from the gap does not
        sol = solve_x(triple(1.0, 1 - 2**-52, 0.5), 1e-3, 0.0)
        assert sol.kind is XKind.FINITE
        assert sol.x == pytest.approx(4.50e18, rel=1e-3)
        assert abs(sol.x / x_exact(1.0, 1 - 2**-52, 0.5, 1e-3) - 1) <= X_ULPS

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
            solve_x(triple(1, 0.5, 0.5), 1.0, eps)

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
    """Theorem 1, alpha = max(M * y0, y0) from a bound M on x at y0, as sweep
    applies it: a patched chunk reports one finite x, so that M is that x."""

    @staticmethod
    def alpha(monkeypatch, m, y0):
        monkeypatch.setattr(monogamy, "_sweep_chunk", lambda *args: (
            np.array([0, 1, 0, 0]), np.array([m]), []))
        r = sweep((2, 2, 2), MeasureId.CONCURRENCE, y0, 10, 0)
        assert r.max_finite_x == m
        return r.certified_alpha

    def test_values(self, monkeypatch):
        assert self.alpha(monkeypatch, 1.0, 2.0) == 2.0
        assert self.alpha(monkeypatch, 0.0, 3.0) == 3.0
        assert self.alpha(monkeypatch, 1 / (LOG2_3 - 1), 1.0) == pytest.approx(1.7095, abs=1e-3)

    def test_domain(self, monkeypatch):
        with pytest.raises(DomainError):
            self.alpha(monkeypatch, -0.1, 1.0)
        with pytest.raises(DomainError):
            self.alpha(monkeypatch, 1.0, 0.0)

    @pytest.mark.parametrize("m, y0", [(math.nan, 2.0), (1.0, math.nan), (0.0, math.inf)])
    def test_non_finite(self, monkeypatch, m, y0):
        with pytest.raises(DomainError):
            self.alpha(monkeypatch, m, y0)


class TestTheorem3:
    def test_ec_exponent(self):
        a = certify(EC).alpha
        assert a == pytest.approx(ALPHA_EC, abs=1e-12)
        assert residual(EC, a) >= -1e-9

    def test_base_two(self):
        assert certify(triple(2, 1, 1)).alpha == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric(self):
        t = triple(1, 0.5, 0.25)
        assert certify(t).alpha == pytest.approx(1.0, abs=1e-12)
        assert residual(t, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            certify(triple(1, 1, 0.5))  # no strict gap
        with pytest.raises(DomainError):
            certify(triple(1, 0.5, 0.0))  # zero min

    def test_equality_case_residual_zero(self):
        t = triple(1.3, 0.7, 0.7)
        a = certify(t).alpha
        assert residual(t, a) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.xfail(strict=True, raises=DomainError,
                       reason="item 10: certify steps its exponent up by the raw residual, "
                       "whose powers underflow on tiny triples")
    def test_tiny_equal_pair_triple(self):
        # cut^2 is subnormal: the raw residual stays negative for every step up from log_b 2
        t = triple(8.239081424116161e-158, 5.825910345740655e-158, 5.825910345740655e-158)
        assert scale_free_residual(*t.as_tuple(), certify(t).alpha) >= 0


class TestTheorem3Relaxed:
    """log_c 2 on triples whose base ratio b is at least c (EC has b = log2 3)."""

    def test_three_halves(self):
        assert certify(EC, 1.5).alpha == pytest.approx(1.709511, abs=1e-5)

    def test_base_two(self):
        assert certify(triple(1, 0.4, 0.3), 2.0).alpha == pytest.approx(1.0, abs=1e-12)

    def test_equality_base(self):
        assert certify(EC, LOG2_3).alpha == pytest.approx(ALPHA_EC, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            certify(EC, 1.0)
        with pytest.raises(DomainError):
            certify(EC, 0.3)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite(self, c):
        with pytest.raises(DomainError, match="finite"):
            certify(EC, c)


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
    @example(cut=1.0, f1=0.99999, f2=0.99 / 0.99999, tol=1e-6)  # its root, 459, is above 64
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy_bisect(self, cut, f1, f2, tol):
        from scipy.optimize import bisect

        t = triple(cut, cut * f1, cut * f1 * f2)
        got = min_alpha(t, tol)
        hi, lo = max(t.e_ab, t.e_ac), min(t.e_ab, t.e_ac)
        # min_alpha bisects the residual of the triple over its cut value
        f = lambda a: float(scale_free_residual(cut, hi, lo, a))
        if lo < 1e-9 or abs(cut - hi) < 1e-9:
            assert got in (0.0, math.inf)
        elif f(tol) >= 0.0:
            assert got == tol
        else:
            # finite and at most Theorem 3's exponent; the returned end of the
            # bracket is at most 4 ulps below the root and within tol of it,
            # as is scipy's midpoint, whose default rtol of 4 eps adds up to
            # 8 ulps where a root above 64 has a float spacing near tol
            a3 = math.log(2.0) / float(np.log1p((cut - hi) / hi))
            assert got <= a3 + 4 * math.ulp(a3)
            assert f(got + 4 * math.ulp(got)) >= 0.0
            assert abs(got - bisect(f, tol, 2 * a3, xtol=tol)) <= 2 * tol + 12 * math.ulp(got)

    def test_tiny_triple_does_not_underflow(self):
        # residual(t, 64) of this triple underflows to 0.0, which once read as
        # a root at the bracket end 64; the scale-free residual keeps its sign
        state = from_schmidt(SchmidtParams((0.0010235085056958203, 0.8312628549401636,
                                            0.021645579873068695, 0.5536340026353167,
                                            0.0449653024567168), 2.6589954696676164))
        t = measure_triple(state, MeasureId.EOF)
        assert t.e_abc == pytest.approx(7.4456e-6, rel=1e-4)
        assert residual(t, 64.0) == 0.0
        a = min_alpha(t)
        assert a == pytest.approx(0.8254650739676203, abs=1e-6)  # the 60-digit root
        assert residual(triple(1.0, t.e_ab / t.e_abc, t.e_ac / t.e_abc), a) >= 0.0
        assert residual(t, a - 1e-5) < 0.0 <= residual(t, a + 1e-5)

    def test_exact_zero_at_bracket_end(self):
        # b = 2 with equal pair values: the residual is exactly 0 at the upper
        # end log_b 2 = 1, which every midpoint falls short of
        assert min_alpha(triple(2.0, 1.0, 1.0)) == 1.0

    @pytest.mark.parametrize("tol", [1e-300, 5e-324])
    def test_tiny_tol_ends_at_adjacent_floats(self, tol):
        # a tol below the float spacing at the root still ends the bisection,
        # with the sign change between the result and the float below it
        a = min_alpha(triple(1.2, 1, 0.5), tol)
        n = triple(1.0, 1 / 1.2, 0.5 / 1.2)
        assert residual(n, math.nextafter(a, 0.0)) < 0.0 <= residual(n, a)

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
        assert solve_x(triple(1, 1, 2 * math.sqrt(2) / 3), 1.0).kind is XKind.UNBOUNDED

    def test_zero_min_is_not_witness(self):
        assert solve_x(triple(1, 1, 0), 1.0).kind is not XKind.UNBOUNDED

    def test_strict_gap_is_not_witness(self):
        assert solve_x(triple(1.2, 1, 0.5), 1.0).kind is not XKind.UNBOUNDED

    @pytest.mark.parametrize("t,kind,alpha", [
        ((1, 1, 0), XKind.ZERO, 0.0),
        ((1, 0.5, 0), XKind.ZERO, 0.0),
        ((1, 1, 0.5), XKind.UNBOUNDED, math.inf),
    ])
    def test_eps_zero_decisions_agree(self, t, kind, alpha):
        # x at y = 2, the witness flag at y = 1 and min_alpha decide by one rule, also at eps = 0
        t = triple(*t)
        assert solve_x(t, 2.0, 0.0).kind is kind
        assert (solve_x(t, 1.0, 0.0).kind is XKind.UNBOUNDED) is (kind is XKind.UNBOUNDED)
        assert min_alpha(t, eps=0.0) == alpha


@pytest.mark.parametrize("decide", [
    lambda t: solve_x(t, 2.0),
    lambda t: solve_x(t, 1.0).kind is XKind.UNBOUNDED,
    min_alpha,
    lambda t: beta_curves(t, [1.0, 2.0]),
], ids=["solve_x", "witness_at_y_one", "min_alpha", "beta_curves"])
def test_monotonicity_violation_raises(decide):
    with pytest.raises(MonotonicityError, match="below larger pair value"):
        decide(triple(0.5, 0.9, 0.1))


@pytest.mark.parametrize("decide", [
    lambda y: solve_x(triple(1.0, 0.5, 0.5), y),
    lambda y: beta_curves(triple(1.0, 0.5, 0.5), [y]),
    lambda y: sweep((2, 2, 2), MeasureId.CONCURRENCE, y, 10, 0),
    lambda y: beta_curves(triple(1.0, 0.5, 0.5), [1.0, y, 2.0]),
], ids=["solve_x", "beta_curves", "sweep", "beta_curves_grid"])
def test_x_not_finite_at_tiny_y(decide):
    # a Finite x = (min/cut)^y / -expm1(-y log(cut/max)) overflows once y log(cut/max) is
    # subnormal; the message names that y, also among larger ones in a grid
    with pytest.raises(DomainError, match=r"^x is not finite at y=1e-320$"):
        decide(1e-320)


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
            assert r.certified_alpha == max(r.max_finite_x * 2.0, 2.0)
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
        # sizes are integers, not bools or floats, as dims are
        for n, seed in [(2.0, 1), (2.5, 1), (True, 1), (2, True), (2, 1.0), (2.0, True)]:
            with pytest.raises(DomainError, match="positive|non-negative"):
                sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, n, seed)

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
        cert = certify(EC)
        assert cert.alpha == pytest.approx(ALPHA_EC, abs=1e-9)
        assert cert.residual_at_alpha == pytest.approx(0.0, abs=1e-9)
        assert cert.inputs["b"] == pytest.approx(LOG2_3, abs=1e-12)

    def test_relaxed(self):
        cert = certify(EC, 1.5)
        assert cert.alpha == pytest.approx(1.709511, abs=1e-5)
        assert cert.residual_at_alpha >= 0

    def test_relaxed_base_above_b(self):
        with pytest.raises(DomainError):
            certify(EC, 1.6)

    def test_per_state_outside_domain(self):
        with pytest.raises(DomainError):
            certify(triple(1, 1, 0.5))

    @given(st.floats(0.0, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0),
           st.sampled_from([MeasureId.CONCURRENCE, MeasureId.CONCURRENCE_OF_ASSISTANCE,
                            MeasureId.EOF]))
    @example(b0=0.0, b1=1.0, b2=1.0, mid=MeasureId.CONCURRENCE)  # the W state
    @settings(max_examples=300, deadline=None)
    def test_equal_pairs_residual_verified(self, b0, b1, b2, mid):
        # AB = AC, so the residual at log_b 2 is 0 in exact arithmetic and the
        # computed log_b 2 can fall an ulp short of it
        b = np.array([b0, b1, b2, b2])
        t = measure_triple(w_class(*(b / np.linalg.norm(b))), mid)
        cert = certify(t)
        hi = max(t.e_ab, t.e_ac)
        a0 = math.log(2.0) / float(np.log1p((t.e_abc - hi) / hi))
        assert cert.residual_at_alpha >= 0.0
        assert cert.residual_at_alpha == residual(t, cert.alpha)
        assert a0 <= cert.alpha <= a0 + 4 * math.ulp(a0)


def _per_sample_rule(cut, hi, lo, y, eps):
    """The x-rule sample by sample: the kind from the unpowered values, as
    at y = 1, and x from the powered ones at 60 digits."""
    cut, hi, lo = float(cut), float(hi), float(lo)
    if lo < eps or lo == 0.0:
        return XKind.ZERO, 0.0
    if cut - hi < eps or cut - hi <= 0.0:  # a violation's negative gap counts as vanished
        return XKind.UNBOUNDED, math.inf
    return XKind.FINITE, x_exact(cut, hi, lo, y)


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
            kind, x, violation = _classify(np.stack([cut, hi, lo], axis=1), y, eps)
            for k in range(cut.size):
                ref = _per_sample_rule(cut[k], hi[k], lo[k], y, eps)
                assert _KINDS[kind[k]] is ref[0]
                if ref[0] is XKind.FINITE:
                    assert abs(x[k] - ref[1]) <= X_ULPS * ref[1]
                else:
                    assert x[k] == ref[1]
                assert violation[k] == (cut[k] < hi[k] - eps)
                seen.add((ref[0], bool(violation[k])))
        assert seen == {(kind, v) for kind in XKind for v in (False, True)} - {(XKind.FINITE, True)}


_SAMPLED_SETS = [(family, mid) for family in ("haar", "w_class", "schmidt")
                 for mid in (MeasureId.CONCURRENCE, MeasureId.CONCURRENCE_OF_ASSISTANCE,
                             MeasureId.EOF)]


def _sampled_triples(family, mid, n=200):
    """Rows (cut, e_ab, e_ac) of the first n sweep samples at seed 3."""
    return _measure_triples((2, 2, 2), sweep_rows((2, 2, 2), family, 3, n), mid)


class TestExponentAccuracy:
    """x and min_alpha of sampled triples against their 60-digit values."""

    @pytest.mark.parametrize("family, mid", _SAMPLED_SETS)
    def test_x_within_16_ulps(self, family, mid):
        triples = _sampled_triples(family, mid)
        cut, hi, lo = triples[:, 0], triples[:, 1:].max(axis=1), triples[:, 1:].min(axis=1)
        for y in (0.5, 2.0, 5.0):
            kind, x, _ = _classify(triples, y, monogamy.DEFAULT_EPS)
            for k in np.flatnonzero(kind == 1):
                ref = x_exact(cut[k], hi[k], lo[k], y)
                assert abs(x[k] - ref) <= X_ULPS * ref, (k, y)

    @pytest.mark.parametrize("family, mid", _SAMPLED_SETS + [("w_equal", MeasureId.CONCURRENCE),
                                                            ("w_equal", MeasureId.EOF)])
    def test_min_alpha_brackets_root(self, family, mid):
        # finite on every finite triple, at most 4 ulps below the root and
        # less than tol above it; w_equal rows have equal pair values, whose
        # root is log_b 2 itself
        if family == "w_equal":
            b = np.random.default_rng(5).uniform(0.05, 1.0, (200, 3))[:, [0, 1, 2, 2]]
            triples = np.array([measure_triple(w_class(*(r / np.linalg.norm(r))), mid).as_tuple()
                                for r in b])
        else:
            triples = _sampled_triples(family, mid)
        tol = 1e-6
        finite = _classify(triples, 1.0, monogamy.DEFAULT_EPS)[0] == 1
        assert finite.sum() > 100
        for cut, ab, ac in triples[finite].tolist():
            a = min_alpha(triple(cut, ab, ac, mid), tol)
            hi, lo = max(ab, ac), min(ab, ac)
            assert math.isfinite(a)
            assert scale_free_residual(cut, hi, lo, a + 4 * math.ulp(a)) >= 0
            assert a == tol or scale_free_residual(cut, hi, lo, a - tol) < 0


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
        assert (solve_x(t, 1.0, eps).kind is XKind.UNBOUNDED) is (kind is XKind.UNBOUNDED)

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
    """Sweeps at seed 11, first recorded with the per-sample implementation
    that preceded the batched kernel and chunk classifier, and re-recorded
    as below.

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
    witness index stayed.  (The w_class x, exactly 1, then read 1 + 5.3e-13 at
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
    two ca eps 1e-05 cases now share their 13 witnesses.  When every dims
    came to divide its values by ||psi||^2, as (2,2,2) already did, the
    (2,2,3) ca largest x moved by 8e-16 relative, within its bound.  When
    every (2,2,2) value came to be a map of (p, q, tau) from the pairs'
    closed form, six cases were re-recorded with every count, violation and
    witness index kept (c and ca w_class, c and ca schmidt at eps 1e-09, ca
    schmidt at eps 1e-05 and y 2 and 0.5): the w_class x now reads
    1 + 1.0e-13, and the c schmidt x, 0.9999998913833333, lies 4.1e-15 from
    its 50-digit value, against 1.2e-15 before.  When x came to be read as
    (min/cut)^y / -expm1(-y log(cut/max)) instead of from the powered gap,
    the same six cases were re-recorded, again with every count, violation
    and witness index kept: each largest x now lies within 1.2 ulps of the
    60-digit x of its float triple (the powered gap was up to 2.1e6 ulps
    off), and the w_class x reads 1 + 2.8e-14.

    When each chunk of 2048 samples came to draw from one Generator keyed
    by (seed, chunk index), in place of one stream per sample, every sample
    changed and all 13 cases were re-recorded from the new code: ca schmidt
    at eps 1e-05 went from 13 witnesses to 9, ca schmidt at eps 1e-09 from
    one witness (index 148) to none, eof schmidt at eps 1e-05 from 12 zeros
    to 7, and the (2,2,3) ca largest x from 411.9 to 80926.3.  Every c value
    stays at most 1, and the w_class c and ca x reads 1 + 6.5e-14.  numpy
    does not promise a fixed Generator stream across versions, so these
    cases are also what catches a changed stream, on the oldest numpy that
    CI runs too.
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


_CHUNK = monogamy._SWEEP_CHUNK


def _row_normals(dims, family, seed, index):
    """The normals of sweep sample index at seed, from numpy's own Generator."""
    k = {"haar": 2 * math.prod(dims), "w_class": 8, "schmidt": 7}[family]
    chunk, row = divmod(index, _CHUNK)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk))))
    return rng.standard_normal((row + 1, k))[row]


def _constructor_state(dims, family, seed, index):
    """Sweep sample index at seed built by the public one-state constructors;
    for haar only the first row of a chunk, which is haar_random's state."""
    if family == "haar":
        assert index % _CHUNK == 0
        return haar_random(dims, np.random.SeedSequence((seed, index // _CHUNK)))
    raw = _row_normals(dims, family, seed, index)
    if family == "w_class":
        b = raw[:4] + 1j * raw[4:]
        return w_class(*(b / np.linalg.norm(b)))
    lam = np.abs(raw[:5])
    lam /= np.linalg.norm(lam)
    return from_schmidt(SchmidtParams(tuple(lam), math.atan2(raw[6], raw[5])))


def _recorded_blocks(monkeypatch):
    """A list that fills with the amplitude blocks that sweep chunks then
    evaluate; every triple reads zero, so nothing is measured."""
    blocks = []

    def record(dims, amps, mid):
        blocks.append(amps.copy())
        return np.zeros((len(amps), 3))

    monkeypatch.setattr(monogamy._measures, "_measure_triples", record)
    return blocks


class TestChunkSampling:
    """Sample i at seed s is row i mod 2048 of Generator(PCG64(SeedSequence((s, i // 2048))))."""

    @pytest.mark.parametrize("dims,family", [
        ((2, 2, 2), "haar"), ((2, 2, 3), "haar"), ((2, 2, 2), "w_class"), ((2, 2, 2), "schmidt"),
        ((3, 3, 3), "haar"), ((2, 2, 64), "haar"),
    ])
    def test_replay_matches_chunk(self, dims, family):
        # a witness replays as its chunk's row, at either end of a chunk and far out
        for i in (0, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2**40 + 5):
            chunk, row = divmod(i, _CHUNK)
            want = numpy_chunk_rows(dims, family, 31, chunk, row + 1)[row]
            got = _sample_state(dims, family, 31, i)
            assert got.dims == dims and got.amps.tobytes() == want.tobytes(), i
            if family != "haar" or row == 0:
                assert want.tobytes() == _constructor_state(dims, family, 31, i).amps.tobytes(), i

    @pytest.mark.parametrize("dims,family", [
        ((2, 2, 2), "haar"), ((2, 2, 3), "haar"), ((3, 3, 3), "haar"), ((2, 2, 64), "haar"),
        ((2, 2, 2), "w_class"), ((2, 2, 2), "schmidt"),
    ])
    def test_sweep_chunk_is_numpy_chunk(self, monkeypatch, dims, family):
        # the second of two full chunks: one Generator's rows, drawn row by row by numpy
        blocks = _recorded_blocks(monkeypatch)
        monogamy._sweep_chunk(dims, MeasureId.CONCURRENCE, family, 2.0, 1e-9, 5, 2 * _CHUNK, _CHUNK)
        [block] = blocks
        assert block.tobytes() == numpy_chunk_rows(dims, family, 5, 1, _CHUNK).tobytes()

    @given(seed=st.integers(0, 2**130), start=st.integers(0, 2**32) | st.integers(0, 2**70),
           n=st.integers(1, 24))
    @example(seed=0, start=0, n=8)
    @example(seed=2**64, start=_CHUNK - 3, n=3)
    @example(seed=2**100, start=2**32 - 24, n=24)
    @settings(max_examples=60, deadline=None)
    def test_streams_are_numpy_streams(self, seed, start, n):
        # numpy's own SeedSequence and Generator are the reference for every
        # (seed, chunk) stream; the rows are cut at the chunk's end
        chunk, row = divmod(start, _CHUNK)
        stop = min(start + n, (chunk + 1) * _CHUNK)
        for dims, family in (((2, 2, 2), "haar"), ((2, 2, 3), "haar"),
                             ((2, 2, 2), "w_class"), ((2, 2, 2), "schmidt")):
            want = numpy_chunk_rows(dims, family, seed, chunk, row + stop - start)[row:]
            got = monogamy._chunk_rows(dims, family, seed, start, stop)
            assert got.tobytes() == want.tobytes(), (dims, family)

    @pytest.mark.parametrize("dims,family", [
        ((2, 2, 2), "haar"), ((2, 2, 3), "haar"), ((2, 2, 2), "w_class"), ((2, 2, 2), "schmidt"),
    ])
    def test_draw_block_boundary(self, monkeypatch, dims, family):
        # a sweep's draw blocks are its chunks: samples past a chunk come from
        # the next chunk's Generator, and the last, partial, chunk is the head of its full draw
        monkeypatch.setenv("MONO_THREADS", "1")
        blocks = _recorded_blocks(monkeypatch)
        sweep(dims, MeasureId.CONCURRENCE_OF_ASSISTANCE, 2.0, 2 * _CHUNK + 77, 41, family=family)
        assert [len(b) for b in blocks] == [_CHUNK, _CHUNK, 77]
        for chunk, block in enumerate(blocks):
            assert block.tobytes() == numpy_chunk_rows(dims, family, 41, chunk, len(block)).tobytes()

    @pytest.mark.parametrize("family", ["haar", "w_class", "schmidt"])
    def test_rows_do_not_depend_on_samples(self, monkeypatch, family):
        # rows start..stop of a chunk are those rows of the full chunk, so
        # sample i reads the same state whatever --samples is
        monkeypatch.setenv("MONO_THREADS", "1")
        blocks = _recorded_blocks(monkeypatch)
        runs = []
        for n in (1, 100, _CHUNK + 100, 2 * _CHUNK):
            blocks.clear()
            sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, n, 41, family=family)
            runs.append(blocks[:])
        full = runs[-1]
        for run in runs:
            for block, whole in zip(run, full):
                assert block.tobytes() == whole[:len(block)].tobytes(), len(block)
        for start, stop in ((0, 1), (5, 9), (_CHUNK - 1, _CHUNK), (1000, _CHUNK)):
            rows = monogamy._chunk_rows((2, 2, 2), family, 41, _CHUNK + start, _CHUNK + stop)
            assert rows.tobytes() == full[1][start:stop].tobytes(), (start, stop)

    def test_chunk_draw_holds_one_generator(self, monkeypatch):
        # each chunk draws from one Generator, seeded (seed, chunk): a sweep
        # of three chunks makes three, and no Generator a sample
        monkeypatch.setenv("MONO_THREADS", "1")
        seeds, generators = [], []
        seed_sequence, generator = np.random.SeedSequence, np.random.Generator
        monkeypatch.setattr(np.random, "SeedSequence",
                            lambda entropy: seeds.append(entropy) or seed_sequence(entropy))
        monkeypatch.setattr(np.random, "Generator",
                            lambda bit_generator: generators.append(1) or generator(bit_generator))
        sweep((2, 2, 3), MeasureId.CONCURRENCE_OF_ASSISTANCE, 2.0, 2 * _CHUNK + 77, 3)
        assert seeds == [(3, 0), (3, 1), (3, 2)]
        assert len(generators) == 3


class TestWorkerCount:
    def test_cap(self, monkeypatch):
        monkeypatch.setenv("MONO_THREADS", "1")
        assert _worker_count(10) == 1
        monkeypatch.delenv("MONO_THREADS")
        assert 1 <= _worker_count(10) <= 10
        assert _worker_count(1) == 1

    def test_without_affinity(self, monkeypatch):
        # platforms without CPU affinity fall back to the CPU count
        monkeypatch.delenv("MONO_THREADS", raising=False)
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert _worker_count(10) == 3
        assert _worker_count(2) == 2

    @pytest.mark.parametrize("cap", ["x", "0", "-2", "1.5"])
    def test_bad_cap(self, monkeypatch, cap):
        monkeypatch.setenv("MONO_THREADS", cap)
        with pytest.raises(DomainError, match="MONO_THREADS"):
            _worker_count(10)


class TestKeptPool:
    """A pooled sweep keeps a thread pool of its own for as long as it runs,
    and shuts it down before it returns or raises."""

    N = 4 * _CHUNK + 77  # four chunks and a partial one reach the pool threshold

    @pytest.fixture
    def pools(self, monkeypatch):
        """max_workers of every thread pool a sweep makes, on 3 patched CPUs."""
        made = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                made.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setenv("MONO_THREADS", "2")
        return made

    @staticmethod
    def report(*args, **kwargs):
        return json.dumps(sweep(*args, **kwargs).to_json_dict())

    def serial(self, monkeypatch, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setenv("MONO_THREADS", "1")
            return self.report(*args, **kwargs)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_concurrent_sweeps_match_serial(self, monkeypatch, pools, threads):
        # a c and a ca sweep started at once on two threads: each makes its own
        # pool, and each report is its serial run's, byte for byte
        monkeypatch.setenv("MONO_THREADS", str(threads))
        runs = [((2, 2, 2), MeasureId.CONCURRENCE, 2.0, self.N, 7),
                ((2, 2, 3), MeasureId.CONCURRENCE_OF_ASSISTANCE, 2.0, self.N, 7)]
        start, reports = threading.Barrier(len(runs)), [None] * len(runs)

        def call(i):
            start.wait()
            reports[i] = self.report(*runs[i])

        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(runs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join()
        assert pools == [threads] * len(runs)
        assert reports == [self.serial(monkeypatch, *run) for run in runs]

    def test_failed_sweep_closes_the_pool(self, monkeypatch, pools):
        # every chunk fails at y=1e-320: the sweep raises, drops the chunks still
        # queued, and leaves no pool thread behind
        calls, chunk = [], monogamy._sweep_chunk

        def counting_chunk(*args):
            calls.append(args[-1])
            return chunk(*args)

        monkeypatch.setattr(monogamy, "_sweep_chunk", counting_chunk)
        before = set(threading.enumerate())
        with pytest.raises(DomainError, match=r"^x is not finite at y=1e-320$"):
            sweep((2, 2, 2), MeasureId.CONCURRENCE, 1e-320, 50 * _CHUNK, 7)
        assert pools == [2]
        assert set(threading.enumerate()) == before
        assert len(calls) < 50
        pooled = self.report((2, 2, 2), MeasureId.CONCURRENCE, 2.0, self.N, 7)
        assert pools == [2, 2]
        assert pooled == self.serial(monkeypatch, (2, 2, 2), MeasureId.CONCURRENCE, 2.0, self.N, 7)

    def test_forked_child_makes_its_own_pool(self):
        # two pooled sweeps in a fresh interpreter give one report and leave only
        # the main thread; a child forked after them makes its own pool, gives the
        # same report, and ends within the alarm; nothing reaches stderr
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import concurrent.futures, json, os, signal, threading\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "pools = []\n"
            "class CountingPool(concurrent.futures.ThreadPoolExecutor):\n"
            "    def __init__(self, max_workers=None, *args, **kwargs):\n"
            "        super().__init__(max_workers, *args, **kwargs)\n"
            "        pools.append(max_workers)\n"
            "concurrent.futures.ThreadPoolExecutor = CountingPool\n"
            "from entmono import MeasureId, sweep\n"
            f"run = lambda: json.dumps(sweep((2, 2, 2), MeasureId.CONCURRENCE, 2.0, {self.N}, 7).to_json_dict())\n"
            "report = run()\n"
            "assert run() == report and pools == [2, 2] and threading.active_count() == 1\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(60)\n"
            "    os._exit(0 if run() == report and pools == [2, 2, 2] else 1)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        env = dict(os.environ, MONO_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
