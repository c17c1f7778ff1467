import gc
import json
import math
from itertools import count
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
from entmono import monogamy, states
from entmono.measures import LOG2_3, MeasureError
from entmono.measures import _measure_triples
from entmono.monogamy import _KINDS, _classify, _sample_state, _worker_count
from entmono.states import _StateWords, family_rows, stream_words
from reference import numpy_family_rows, scale_free_residual, x_exact

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
        t = measure_triple(_sample_state((2, 2, 2), "schmidt", 11, 65), MeasureId.EOF)
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
], ids=["solve_x", "beta_curves", "sweep"])
def test_x_not_finite_at_tiny_y(decide):
    # a Finite x = (min/cut)^y / -expm1(-y log(cut/max)) overflows once y log(cut/max) is subnormal
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
    return _measure_triples((2, 2, 2), family_rows((2, 2, 2), family, stream_words(3, 0, n)), mid)


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


def _outputs_read(row, n, phase):
    """How many PCG64 outputs the Generator seeded with the words row reads
    for n normals, then a phase if phase."""
    gen = np.random.Generator(np.random.PCG64(_StateWords(row)))
    states._draw_row(np.empty(n + phase), gen, n, phase)
    ref = np.random.PCG64(_StateWords(row))
    for k in count(1):
        ref.random_raw()
        if ref.state == gen.bit_generator.state:
            return k


def _record_redraws(monkeypatch, words):
    """A list that fills with the indices of the rows of words that
    ``states._draws`` then redraws by a Generator."""
    states._ziggurat_tables()  # its self-check draws other streams
    seeded = {np.random.PCG64(_StateWords(row)).state["state"]["state"]: k
              for k, row in enumerate(words)}
    redrawn = []
    draw_row = states._draw_row

    def recorded(row, rng, n, phase):
        redrawn.append(seeded[rng.bit_generator.state["state"]["state"]])
        draw_row(row, rng, n, phase)

    monkeypatch.setattr(states, "_draw_row", recorded)
    return redrawn


class TestChunkSampling:
    @pytest.mark.parametrize("dims,family", [
        ((2, 2, 2), "haar"), ((2, 2, 3), "haar"), ((2, 2, 2), "w_class"), ((2, 2, 2), "schmidt"),
        ((3, 3, 3), "haar"),  # more draws a row than the batched draw takes
    ])
    def test_replay_matches_chunk(self, dims, family):
        amps = family_rows(dims, family, stream_words(31, 500, 540))
        for row, i in zip(amps, range(500, 540)):
            seq = np.random.SeedSequence((31, i))
            assert row.tobytes() == _sample_state(dims, family, 31, i).amps.tobytes()
            assert row.tobytes() == _constructor_state(dims, family, seq).amps.tobytes()

    @given(seed=st.integers(0, 2**130), start=st.integers(0, 2**32 - 24) | st.integers(0, 2**70),
           n=st.integers(1, 24))
    @example(seed=0, start=0, n=8)
    @example(seed=2**32 - 1, start=0, n=3)
    @example(seed=2**32, start=7, n=3)
    @example(seed=2**64, start=0, n=3)
    @example(seed=2**100, start=2**32 - 24, n=24)  # entropy longer than the pool, hashed
    @example(seed=9, start=2**32 - 3, n=6)
    @example(seed=9, start=2**64 - 3, n=6)
    @settings(max_examples=60, deadline=None)
    def test_streams_are_numpy_streams(self, seed, start, n):
        # numpy's own SeedSequence is the reference for every (seed, index) stream
        stop = start + n
        words = stream_words(seed, start, stop)
        assert words.shape == (n, 4) and words.dtype == np.uint64
        for row, i in zip(words, range(start, stop)):
            want = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
            assert row.tobytes() == want.tobytes()
        seeds = [(seed, i) for i in range(start, stop)]
        for dims, family in (((2, 2, 2), "haar"), ((2, 2, 3), "haar"),
                             ((2, 2, 2), "w_class"), ((2, 2, 2), "schmidt")):
            assert (family_rows(dims, family, words).tobytes()
                    == numpy_family_rows(dims, family, seeds).tobytes())

    def test_chunk_draw_holds_one_generator(self):
        # a chunk's Generators held at once set off collections that cost
        # sweeps milliseconds; the draw makes each one as it redraws its row.
        # (2,2,5) rows take 40 draws, so the redraw loop makes every row's.
        words = stream_words(3, 0, monogamy._SWEEP_CHUNK)
        collections = []

        def record(phase, info):
            collections.append((phase, info["generation"]))

        for dims in ((2, 2, 3), (2, 2, 5)):
            gc.collect()
            gc.callbacks.append(record)
            try:
                family_rows(dims, "haar", words)
            finally:
                gc.callbacks.remove(record)
            assert collections == [], dims

    @pytest.mark.parametrize("dims,family", [
        ((2, 2, 2), "haar"), ((2, 2, 3), "haar"), ((2, 2, 2), "w_class"), ((2, 2, 2), "schmidt"),
    ])
    def test_draw_block_boundary(self, monkeypatch, dims, family):
        # rows past a draw block are drawn by the next block: the same rows, and
        # the same rows redrawn, as separate calls on the blocks.  At seed 41
        # every family redraws rows in the first and the last, partial, block.
        block, n = states._DRAW_BLOCK, 2 * states._DRAW_BLOCK + 77
        words = stream_words(41, 0, n)
        redrawn = _record_redraws(monkeypatch, words)
        rows = family_rows(dims, family, words)
        assert rows.tobytes() == numpy_family_rows(dims, family, [(41, i) for i in range(n)]).tobytes()
        whole = redrawn[:]
        assert min(whole) < block and max(whole) >= 2 * block
        redrawn.clear()
        blocks = [family_rows(dims, family, words[i:i + block]) for i in range(0, n, block)]
        assert np.concatenate(blocks).tobytes() == rows.tobytes()
        assert redrawn == whole

    def test_ziggurat_tables_match_numpy_at_boundaries(self):
        # numpy's draw on a chosen output r, set through the PCG64 state setter:
        # with increment 1 the state (r - 1) / M steps to r, whose output is r
        wi, ki, _ = states._ziggurat_tables()
        gen = np.random.Generator(np.random.PCG64(1))
        inverse = pow(0x2360ED051FC65DA44385DF649FCCF645, -1, 2**128)
        for idx in range(256):
            for rabs in {max(int(ki[idx]) - 1, 0), int(ki[idx])}:
                for sign in (0, 1):
                    r = rabs << 9 | sign << 8 | idx
                    gen.bit_generator.state = {
                        "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                        "state": {"state": (r - 1) * inverse % 2**128, "inc": 1}}
                    want = gen.standard_normal()
                    read_alone = gen.bit_generator.state["state"]["state"] == r
                    x, fast = states._ziggurat(np.array([r], np.uint64), wi, ki)
                    assert fast[0] == (rabs < ki[idx]) == read_alone, (idx, rabs)
                    if read_alone:
                        assert x.tobytes() == np.float64(want).tobytes(), (idx, rabs)

    @pytest.mark.parametrize("dims,family", [
        ((2, 2, 2), "haar"), ((2, 2, 3), "haar"), ((2, 2, 2), "w_class"), ((2, 2, 2), "schmidt"),
    ])
    def test_all_rows_redrawn(self, monkeypatch, dims, family):
        # with every draw off the fast path, every row is its own Generator's
        want = numpy_family_rows(dims, family, [(19, i) for i in range(512)])
        words = stream_words(19, 0, 512)
        redrawn = _record_redraws(monkeypatch, words)
        wi, ki, fi = states._ziggurat_tables()
        monkeypatch.setattr(states, "_ziggurat_tables", lambda: (wi, np.zeros_like(ki), fi))
        assert family_rows(dims, family, words).tobytes() == want.tobytes()
        assert redrawn == list(range(512))

    def test_tail_and_idx1_rows(self, monkeypatch):
        # block whose row 5 first leaves the fast path in the tail (idx 0),
        # row 6 at idx 1, which has no fast path, and row 66 twice: the tail
        # and the second slow draw take a Generator, idx 1 the rejection step
        rows = stream_words(36, 0, 67)
        r = states._pcg64_outputs(rows, 16)
        for i in (0, 5, 6, 66):
            ref = np.random.PCG64(np.random.SeedSequence((36, i)))
            assert r[:, i].tobytes() == ref.random_raw(16).tobytes()
        _, fast = states._ziggurat(r, *states._ziggurat_tables()[:2])
        slow = {i: (r[~fast[:, i], i] & np.uint64(0xFF)).tolist() for i in (5, 6, 66)}
        assert slow[5][0] == 0 and slow[6][0] == 1 and len(slow[66]) == 2
        redrawn = _record_redraws(monkeypatch, rows)
        assert (family_rows((2, 2, 2), "haar", rows).tobytes()
                == numpy_family_rows((2, 2, 2), "haar", [(36, i) for i in range(67)]).tobytes())
        assert 5 in redrawn and 66 in redrawn and 6 not in redrawn

    @pytest.mark.parametrize("family,seed,kept,rejected", [
        ("schmidt", 5, [13], [6]), ("haar", 1, [9, 11], [2, 7]),
    ])
    def test_rejection_step_rows(self, monkeypatch, family, seed, kept, rejected):
        # numpy's rejection step reads one output more for a slow draw it keeps
        # and two more for one it rejects: the batch settles both kinds with no
        # Generator, and a schmidt row's phase moves on by as many outputs
        n, phase = (5, True) if family == "schmidt" else (16, False)
        words = stream_words(seed, 0, 16)
        extra = [_outputs_read(row, n, phase) - n - phase for row in words]
        assert [k for k, e in enumerate(extra) if e == 1] == kept
        assert [k for k, e in enumerate(extra) if e == 2] == rejected
        assert all(e <= 2 for e in extra)
        redrawn = _record_redraws(monkeypatch, words)
        assert (family_rows((2, 2, 2), family, words).tobytes()
                == numpy_family_rows((2, 2, 2), family, [(seed, i) for i in range(16)]).tobytes())
        assert redrawn == []

    def test_few_rows_redrawn(self, monkeypatch):
        # 20 of seed 1001's first 512 (2,2,2) haar rows reach a Generator;
        # 112 did while every slow draw sent its row there
        words = stream_words(1001, 0, 512)
        redrawn = _record_redraws(monkeypatch, words)
        assert (family_rows((2, 2, 2), "haar", words).tobytes()
                == numpy_family_rows((2, 2, 2), "haar", [(1001, i) for i in range(512)]).tobytes())
        assert len(redrawn) <= 24

    def test_tables_checked_against_numpy(self, monkeypatch):
        # a numpy whose fast path ends elsewhere than ki fails the probes on
        # both sides of the boundaries: every draw reading one output, or the
        # output at ki or at ki - 1 of layer 77 read the wrong way
        wi, ki, _ = states._ziggurat_tables()
        at, below = int(ki[77]) << 9 | 77, int(ki[77] - 1) << 9 | 77
        numpy_normal = states._numpy_normal
        for moved, layers in ((None, list(range(256))), (at, [77]), (below, [77])):
            def probe(gen, r, *v):
                x, alone = numpy_normal(gen, r, *v)
                return x, moved is None or alone != (r == moved)

            monkeypatch.setattr(states, "_numpy_normal", probe)
            with pytest.raises(RuntimeError, match="does not reproduce numpy") as exc:
                states._ziggurat_tables.__wrapped__()
            assert str(exc.value).endswith(f"layers {layers})"), moved

    def test_accept_thresholds_checked_against_numpy(self):
        # the rejection-step probe passes the derived fi in every layer, and
        # fails fi shifted by one layer, or with fi[0] left to the rule, in
        # every layer that the change moves
        wi, ki, fi = states._ziggurat_tables()
        gen = np.random.Generator(np.random.PCG64(1))
        unset = fi.copy()
        unset[0] = np.exp(-0.5 * (wi[0] * 2.0**52) ** 2)
        layers = range(1, 256)
        assert all(states._numpy_keeps(gen, idx, wi, ki, fi) for idx in layers)
        for shift in (1, -1):
            assert not any(states._numpy_keeps(gen, idx, wi, ki, np.roll(fi, shift)) for idx in layers)
        assert not states._numpy_keeps(gen, 1, wi, ki, unset)

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
