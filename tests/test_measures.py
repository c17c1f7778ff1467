import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entmono import (
    MeasureError,
    MeasureId,
    MeasureTriple,
    SchmidtParams,
    entanglement_cost_lookup,
    example_223,
    from_schmidt,
    ghz,
    haar_random,
    measure_triple,
    pure_state_new,
    reduced_density,
    w_class,
    w_state,
)
from entmono import measures
from entmono.measures import (
    LOG2_3,
    _ascent_step,
    _assistant_search,
    _cut_concurrence,
    _det_form,
    _measure_triples,
    _norm2,
    _qubit_pair,
    _spinflip_values,
    assisted_concurrence,
    binary_entropy,
    formation_of_concurrence,
)
from entmono.monogamy import sweep
from reference import (_YY, concurrence_of_assistance, dense_assistant_search, eof_two_qubit,
                       full_gram_ascent_step, spinflip_kernel, spinflip_sqrt_spectrum, sweep_rows,
                       validate, von_neumann_entropy, wootters_concurrence)

S2 = 1 / math.sqrt(2)
S3 = 1 / math.sqrt(3)


def bell_projector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = S2
    return validate(np.outer(v, v.conj()))


class TestPureCut:
    """The A|BC cut is the e_abc of a c or ca triple."""

    def test_ghz(self):
        assert measure_triple(ghz(), MeasureId.CONCURRENCE).e_abc == pytest.approx(1.0, abs=1e-12)

    def test_schmidt_closed_form(self):
        s = from_schmidt(SchmidtParams((0.5, 0, 0.5, 0.5, 0.5)))
        assert measure_triple(s, MeasureId.CONCURRENCE).e_abc == pytest.approx(
            math.sqrt(3) / 2, abs=1e-12)

    def test_product(self):
        v = np.zeros(8)
        v[0] = 1.0
        assert measure_triple(pure_state_new((2, 2, 2), v), MeasureId.CONCURRENCE).e_abc == 0.0

    def test_e223(self):
        t = measure_triple(example_223(), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert t.e_abc == pytest.approx(1.0, abs=1e-12)

    def test_w_class_closed_form(self):
        s = w_class(0, S3, S3, S3)
        assert measure_triple(s, MeasureId.CONCURRENCE).e_abc == pytest.approx(
            2 * math.sqrt(2) / 3, abs=1e-12)


def _local_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPureCutPrecision:
    """The cut of qubit A is 2 s1 s2 from the Schmidt coefficients of A|BC."""

    @staticmethod
    def _qubit_a(dims, seed, log_s2):
        """A state of qubit A with A|BC Schmidt coefficients (s1, s2), and 2 s1 s2."""
        rng = np.random.default_rng(seed)
        s2 = 10.0 ** log_s2  # down to near-product cuts, C about 2e-9
        s1 = math.sqrt(1.0 - s2 * s2)
        u, v = _local_unitary(rng, 2), _local_unitary(rng, dims[1] * dims[2])[:, :2]
        m = s1 * np.outer(u[:, 0], v[:, 0]) + s2 * np.outer(u[:, 1], v[:, 1])
        return pure_state_new(dims, m.ravel()), 2.0 * s1 * s2

    @given(st.integers(0, 2**32 - 1), st.floats(-9.0, math.log10(S2)))
    @settings(max_examples=300, deadline=None)
    def test_schmidt_222(self, seed, log_s2):
        state, cut = self._qubit_a((2, 2, 2), seed, log_s2)
        t = measure_triple(state, MeasureId.CONCURRENCE)
        assert abs(t.e_abc - cut) <= 1e-15

    # qubit-A blocks of n = 6, 6, 8 and 12 columns
    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 2), (2, 2, 4), (2, 2, 6)],
                             ids=lambda d: "x".join(map(str, d)))
    @given(st.integers(0, 2**32 - 1), st.floats(-9.0, math.log10(S2)))
    @settings(max_examples=300, deadline=None)
    def test_schmidt_223(self, dims, seed, log_s2):
        state, cut = self._qubit_a(dims, seed, log_s2)
        t = measure_triple(state, MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert abs(t.e_abc - cut) <= 1e-15


class TestWootters:
    def test_bell(self):
        assert wootters_concurrence(bell_projector()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = validate(np.eye(4, dtype=complex) / 4)
        assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_schmidt_reduced(self):
        # |000> and |110> cohere in the AB pair, so C_AB = 2 l0 l3 = 1 here
        s = from_schmidt(SchmidtParams((S2, 0, 0, S2, 0)))
        rho = reduced_density(s, "AB")
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_dim(self):
        with pytest.raises(MeasureError):
            wootters_concurrence(validate(np.eye(2, dtype=complex) / 2))


class TestAssistance:
    def test_e223_ab(self):
        rho = reduced_density(example_223(), "AB")
        assert concurrence_of_assistance(rho) == pytest.approx(1.0, abs=1e-9)

    def test_e223_ac_triple(self):
        t = measure_triple(example_223(), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert t.e_ac == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-9)

    def test_w_state_ab(self):
        rho = reduced_density(w_state(), "AB")
        assert concurrence_of_assistance(rho) == pytest.approx(2 / 3, abs=1e-9)

    def test_dominates_concurrence(self):
        for seed in range(200):
            rho = reduced_density(haar_random((2, 2, 2), seed), "AB")
            assert concurrence_of_assistance(rho) >= wootters_concurrence(rho) - 1e-9


class TestAssistancePureCut:
    """The A|BC cut of the assistance triple is the pure-state cut concurrence."""

    def test_ghz(self):
        t = measure_triple(ghz(), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert t.e_abc == pytest.approx(1.0, abs=1e-12)

class TestEoF:
    def test_bell(self):
        assert eof_two_qubit(bell_projector()) == pytest.approx(1.0, abs=1e-12)

    def test_separable(self):
        rho = validate(np.diag([0.5, 0, 0, 0.5]).astype(complex))
        assert eof_two_qubit(rho) == pytest.approx(0.0, abs=1e-12)

    def test_half_concurrence(self):
        # 2*l0*l3 = 1/2 so the reduced AB state has concurrence 1/2
        s = from_schmidt(SchmidtParams((0.5, 0, 0, 0.5, S2)))
        rho = reduced_density(s, "AB")
        assert wootters_concurrence(rho) == pytest.approx(0.5, abs=1e-12)
        expect = binary_entropy((1 + math.sqrt(0.75)) / 2)
        assert expect == pytest.approx(0.354579, abs=1e-6)
        assert eof_two_qubit(rho) == pytest.approx(expect, abs=1e-12)

    def test_zero_iff_zero_concurrence(self):
        for seed in range(100):
            rho = reduced_density(haar_random((2, 2, 2), seed), "AB")
            c = wootters_concurrence(rho)
            e = eof_two_qubit(rho)
            assert (e == 0.0) == (c == 0.0)


class TestLookup:
    def test_antisymmetric_entry(self):
        t = entanglement_cost_lookup("antisymmetric_qutrit")
        assert t.e_abc == pytest.approx(LOG2_3, abs=1e-15)
        assert t.e_abc == pytest.approx(1.584962500721156, abs=1e-12)
        assert (t.e_ab, t.e_ac) == (1.0, 1.0)
        assert t.measure_id is MeasureId.ENTANGLEMENT_COST_LOOKUP

    def test_lookup_miss(self):
        with pytest.raises(MeasureError, match="no tabulated"):
            entanglement_cost_lookup("ghz")


class TestMeasureTriple:
    def test_ghz_concurrence(self):
        t = measure_triple(ghz(), MeasureId.CONCURRENCE)
        assert t.as_tuple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)

    def test_w_class_assistance(self):
        t = measure_triple(w_class(0, S3, S3, S3), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert t.as_tuple() == pytest.approx(
            (2 * math.sqrt(2) / 3, 2 / 3, 2 / 3), abs=1e-9
        )

    def test_e223_assistance(self):
        t = measure_triple(example_223(), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert t.as_tuple() == pytest.approx(
            (1.0, 1.0, 2 * math.sqrt(2) / 3), abs=1e-9
        )

    def test_eof_cut_is_marginal_entropy(self):
        t = measure_triple(ghz(), MeasureId.EOF)
        assert t.e_abc == pytest.approx(1.0, abs=1e-12)
        assert t.e_ab == pytest.approx(0.0, abs=1e-12)

    def test_unsupported_dims_message(self):
        s = haar_random((2, 2, 3), 0)
        with pytest.raises(MeasureError, match=r"\(2,2,2\)"):
            measure_triple(s, MeasureId.CONCURRENCE)
        with pytest.raises(MeasureError, match="d_A = 2"):
            measure_triple(haar_random((3, 2, 2), 0), MeasureId.CONCURRENCE_OF_ASSISTANCE)

    def test_lookup_needs_name(self):
        with pytest.raises(MeasureError, match="named state"):
            measure_triple(ghz(), MeasureId.ENTANGLEMENT_COST_LOOKUP)

    @pytest.mark.parametrize("values", [(math.nan, 0.5, 0.5), (1.0, math.inf, 0.5), (1.0, 0.5, -math.inf)])
    def test_non_finite_rejected(self, values):
        with pytest.raises(MeasureError, match="finite"):
            MeasureTriple(*values, MeasureId.CONCURRENCE)

    def test_negative_rejected(self):
        with pytest.raises(MeasureError, match="non-negative"):
            MeasureTriple(1.0, 0.5, -1e-300, MeasureId.CONCURRENCE)

    def test_monotone_on_pure_cut(self):
        for seed in range(300):
            t = measure_triple(haar_random((2, 2, 2), seed), MeasureId.CONCURRENCE)
            assert t.e_abc >= max(t.e_ab, t.e_ac) - 1e-9


class TestMeasureId:
    def test_registry(self):
        assert {m.value for m in MeasureId} == {"c", "ca", "eof", "ec-lookup"}
        assert MeasureId("ca") is MeasureId.CONCURRENCE_OF_ASSISTANCE

    @pytest.mark.parametrize("value", ["negativity", ["c"]], ids=["unknown", "unhashable"])
    def test_unknown_names_the_known_ids(self, value):
        with pytest.raises(MeasureError, match=r"unknown measure .*; known: \['c', 'ca', 'eof', 'ec-lookup'\]"):
            MeasureId(value)


class TestSchmidtClosedFormOracle:
    """Reduced pair concurrences of Schmidt-form states have exact values.

    With the literal ket expansion, the AB pair coherence sits on the
    lambda_3 |110> term and the AC pair coherence on the lambda_2 |101>
    term, so C_AB = 2 l0 l3 and C_AC = 2 l0 l2.
    """

    def test_round_trip_closed_forms(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            lam = np.abs(rng.standard_normal(5))
            lam /= np.linalg.norm(lam)
            phi = rng.uniform(0, 2 * math.pi)
            s = from_schmidt(SchmidtParams(tuple(lam), phi))
            c_ab = wootters_concurrence(reduced_density(s, "AB"))
            c_ac = wootters_concurrence(reduced_density(s, "AC"))
            assert c_ab == pytest.approx(2 * lam[0] * lam[3], abs=1e-9)
            assert c_ac == pytest.approx(2 * lam[0] * lam[2], abs=1e-9)
            cut = measure_triple(s, MeasureId.CONCURRENCE).e_abc
            assert cut == pytest.approx(
                2 * lam[0] * math.sqrt(lam[2] ** 2 + lam[3] ** 2 + lam[4] ** 2),
                abs=1e-9,
            )


class TestConvexRoofUpperBound:
    """Random finite ensembles can only upper-bound the convex roof."""

    def test_random_ensembles_dominate_closed_form(self):
        rng = np.random.default_rng(123)
        for trial in range(500):
            state = haar_random((2, 2, 2), 100000 + trial)
            psi = state.amps.reshape(4, 2)  # columns are subnormalized members
            closed = wootters_concurrence(reduced_density(state, "AB"))
            best = math.inf
            for _ in range(5):
                g = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
                u, _r = np.linalg.qr(g)  # 10x2 isometry
                members = psi @ u.conj().T  # 4x10
                avg = sum(
                    abs(members[:, k] @ _YY @ members[:, k]) for k in range(10)
                )
                best = min(best, avg)
            assert best >= closed - 1e-8


class TestSpectrum:
    def test_matches_nonhermitian_eigenvalues(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            dm = validate((rho + rho.conj().T) / 2)
            s = spinflip_sqrt_spectrum(dm)
            rho_t = _YY @ dm.conj() @ _YY
            mu = np.linalg.eigvals(dm @ rho_t)
            ref = np.sort(np.sqrt(np.clip(mu.real, 0, None)))[::-1]
            assert np.allclose(s, ref, atol=1e-10)


# --- the batched three-qubit kernel against the mixed-state formulas --------

_COEF = st.floats(0.01, 1.0)
_PHASE = st.floats(0.0, 2 * math.pi)


@st.composite
def three_qubit_states(draw):
    """Haar, W-class and Schmidt-form states, coefficients bounded away from 0.

    The bound keeps the reduced pairs away from near-zero eigenvalues, where
    the mixed-state reference clips its spectrum at 1e-14.
    """
    family = draw(st.sampled_from(["haar", "w_class", "schmidt"]))
    if family == "haar":
        return haar_random((2, 2, 2), draw(st.integers(0, 2**32 - 1)))
    if family == "w_class":
        b = np.array([draw(_COEF) * cmath.exp(1j * draw(_PHASE)) for _ in range(4)])
        return w_class(*(b / np.linalg.norm(b)))
    lam = np.array([draw(_COEF) for _ in range(5)])
    return from_schmidt(SchmidtParams(tuple(lam / np.linalg.norm(lam)), draw(_PHASE)))


def reference_triples(state):
    """Triples from reduced density matrices and the two-qubit mixed-state kernels.

    The cut concurrence is 2 s1 s2 from the Schmidt coefficients of A|BC:
    sqrt(2 (1 - Tr rho_A^2)) in double precision cancels for near-product
    cuts by more than the tolerance.
    """
    rho_a, rho_ab, rho_ac = (reduced_density(state, k) for k in ("A", "AB", "AC"))
    s1, s2 = np.linalg.svd(state.amps.reshape(2, 4), compute_uv=False)
    cut = 2.0 * s1 * s2
    return {
        MeasureId.CONCURRENCE: (cut, wootters_concurrence(rho_ab), wootters_concurrence(rho_ac)),
        MeasureId.CONCURRENCE_OF_ASSISTANCE: (
            cut, concurrence_of_assistance(rho_ab), concurrence_of_assistance(rho_ac)),
        MeasureId.EOF: (von_neumann_entropy(rho_a), eof_two_qubit(rho_ab), eof_two_qubit(rho_ac)),
    }


class TestSpinFlipKernel:
    @given(st.lists(three_qubit_states(), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_triples_match_mixed_state_formulas(self, batch):
        amps = np.array([s.amps for s in batch])
        for mid in (MeasureId.CONCURRENCE, MeasureId.CONCURRENCE_OF_ASSISTANCE, MeasureId.EOF):
            batched = _measure_triples((2, 2, 2), amps, mid)
            for state, row in zip(batch, batched):
                single = measure_triple(state, mid).as_tuple()
                assert tuple(row.tolist()) == single  # N = 1 and the batch agree bit for bit
                assert np.allclose(single, reference_triples(state)[mid], rtol=0, atol=1e-12)

    def test_spectra_layout(self):
        t = np.array([w_state().amps, ghz().amps]).reshape(2, 2, 2, 2)
        spectra = np.stack([_spinflip_values(t.reshape(2, 4, 2)),
                            _spinflip_values(t.swapaxes(2, 3).reshape(2, 4, 2))], axis=1)
        assert spectra.shape == (2, 2, 2)
        # W: cut 2 sqrt(2)/3; each pair has s1 = 2/3 and s2 = 0
        assert _cut_concurrence(t.reshape(2, 2, 4)) == pytest.approx([2 * math.sqrt(2) / 3, 1.0],
                                                                      abs=1e-15)
        assert spectra[0] == pytest.approx(np.array([[2 / 3, 0.0], [2 / 3, 0.0]]), abs=1e-15)
        # GHZ: the cut is 1, and the pairs are separable with equal spectra (1/2, 1/2)
        assert spectra[1] == pytest.approx(np.array([[0.5, 0.5], [0.5, 0.5]]), abs=1e-15)
        # the closed form's (C, tau) of the same blocks: W (2/3, 0) and GHZ (0, 1) on both pairs
        c, tau = _qubit_pair(np.stack([t.reshape(2, 4, 2), t.swapaxes(2, 3).reshape(2, 4, 2)]))
        assert c == pytest.approx(np.array([[2 / 3, 0.0], [2 / 3, 0.0]]), abs=1e-15)
        assert tau == pytest.approx(np.array([[0.0, 1.0], [0.0, 1.0]]), abs=1e-15)


# --- the float64 closed form on near-degenerate states ---------------------

EPS = np.finfo(float).eps
_LOG_COEF = st.floats(-14.0, 0.0)  # log10 of a coefficient before normalization


class TestClosedFormKernel:
    """The three-qubit triples against exact forms that need no extended precision."""

    @given(st.lists(st.tuples(st.lists(_LOG_COEF, min_size=5, max_size=5), _PHASE),
                    min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_schmidt_acin_forms(self, params):
        # Acin et al., PRL 85, 1560 (2000): on l0|000> + l1 e^{i phi}|100> +
        # l2|101> + l3|110> + l4|111>, C_AB = 2 l0 l3, C_AC = 2 l0 l2, the cut
        # is 2 l0 sqrt(l2^2 + l3^2 + l4^2), and C_a^2 = C^2 + 4 l0^2 l4^2
        lam = 10.0 ** np.array([p[0] for p in params])
        amps = np.array([from_schmidt(SchmidtParams(tuple(row / np.linalg.norm(row)), phi)).amps
                         for row, (_, phi) in zip(lam, params)])
        l0, _, l2, l3, l4 = np.abs(amps[:, [0, 4, 5, 6, 7]]).T
        cut = 2.0 * l0 * np.sqrt(l2 * l2 + l3 * l3 + l4 * l4)
        c = np.stack([cut, 2.0 * l0 * l3, 2.0 * l0 * l2], axis=1)
        ca = np.stack([cut, 2.0 * l0 * np.hypot(l3, l4), 2.0 * l0 * np.hypot(l2, l4)], axis=1)
        for mid, exact in ((MeasureId.CONCURRENCE, c), (MeasureId.CONCURRENCE_OF_ASSISTANCE, ca)):
            got = _measure_triples((2, 2, 2), amps, mid)
            assert np.abs(got - exact).max() <= 8 * EPS
            # relative too: a pair's C small next to tau does not cancel
            nonzero = exact != 0
            assert np.all(np.abs(got[nonzero] / exact[nonzero] - 1) <= 8 * EPS)
            assert np.all(got[~nonzero] == 0)

    @pytest.mark.parametrize("s", [1e-150, 1e-155, 1e-157])
    def test_subnormal_pair_blocks(self, s):
        # below pair values of about 1e-154 a block's f^2 is subnormal: it keeps
        # the precision a subnormal has, about 2^-1074 / s^2 relative
        amps = from_schmidt(SchmidtParams((1.0, 0.0, s, s, s), 0.0)).amps[None]
        tol = 8 * EPS + 2.0 ** -1074 / (s * s)
        for mid, pair in ((MeasureId.CONCURRENCE, 2.0),
                          (MeasureId.CONCURRENCE_OF_ASSISTANCE, 2.0 * math.sqrt(2.0))):
            exact = np.array([2.0 * math.sqrt(3.0) * s, pair * s, pair * s])
            assert np.all(np.abs(_measure_triples((2, 2, 2), amps, mid)[0] / exact - 1) <= tol)

    @given(st.lists(st.tuples(_LOG_COEF, _PHASE), min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_w_class_ckw_equality(self, coefs):
        # W-class states have zero three-tangle: C_A|BC^2 = C_AB^2 + C_AC^2
        b = np.array([10.0 ** r * cmath.exp(1j * phi) for r, phi in coefs])
        cut, ab, ac = measure_triple(w_class(*(b / np.linalg.norm(b))),
                                     MeasureId.CONCURRENCE).as_tuple()
        assert abs(cut * cut - ab * ab - ac * ac) <= 4 * EPS

    def test_ghz_pairs_exactly_zero(self):
        t = measure_triple(ghz(), MeasureId.CONCURRENCE)
        assert t.e_ab == 0.0 and t.e_ac == 0.0
        assert t.e_abc == pytest.approx(1.0, abs=EPS)
        # with phases, |det a| / f^2 may round above 1; the pair values stay >= 0
        phases = np.exp(2j * math.pi * np.random.default_rng(7).random((4000, 2)))
        amps = np.zeros((4000, 8), dtype=complex)
        amps[:, [0, 7]] = phases * S2
        pairs = _measure_triples((2, 2, 2), amps, MeasureId.CONCURRENCE)[:, 1:]
        assert pairs.min() >= 0.0 and pairs.max() <= 2 * EPS

    def test_zero_block(self):
        assert _spinflip_values(np.zeros((2, 4, 2), dtype=complex)).tolist() == [[0.0, 0.0]] * 2
        c, tau = _qubit_pair(np.zeros((2, 4, 2), dtype=complex))
        assert c.tolist() == tau.tolist() == [0.0, 0.0]
        product = pure_state_new((2, 2, 2), np.eye(8)[0])  # every pair block a is zero
        for mid in (MeasureId.CONCURRENCE, MeasureId.CONCURRENCE_OF_ASSISTANCE, MeasureId.EOF):
            assert measure_triple(product, mid).as_tuple() == (0.0, 0.0, 0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                        reason="the reference kernel needs a long double wider than float64")
    def test_extended_precision_reference(self):
        amps = sweep_rows((2, 2, 2), "haar", 5, 512)
        spectra = spinflip_kernel(amps)
        c = spectra[..., 0] - spectra[..., 1]
        expected = {MeasureId.CONCURRENCE: c,
                    MeasureId.CONCURRENCE_OF_ASSISTANCE: spectra[..., 0] + spectra[..., 1],
                    MeasureId.EOF: formation_of_concurrence(c)}
        for mid, ref in expected.items():
            assert np.abs(_measure_triples((2, 2, 2), amps, mid) - ref).max() <= 1e-15


class TestThreeQubitIdentities:
    """The (2,2,2) values from (p, q, tau) against the routes they replaced,
    which stay for the qubit-qudit dims: the Cauchy-Binet cut and the SVD sum."""

    @pytest.mark.parametrize("family", ["haar", "w_class", "schmidt"])
    def test_cut_and_assistance_match_the_old_routes(self, family):
        for seed in range(5):
            amps = sweep_rows((2, 2, 2), family, seed, 4096)
            t = amps.reshape(-1, 2, 2, 2)
            nu = _norm2(t)
            ca = _measure_triples((2, 2, 2), amps, MeasureId.CONCURRENCE_OF_ASSISTANCE)
            # Coffman-Kundu-Wootters: cut^2 = p + q + tau
            cut = _cut_concurrence(t.reshape(-1, 2, 4)) / nu
            assert np.all(np.abs(ca[:, 0] / cut - 1) <= 4 * EPS)
            # Laustsen-Verstraete-van Enk: C_a = s1 + s2 = sqrt(C^2 + tau)
            for k, psi in ((1, t), (2, t.swapaxes(2, 3))):
                svd = _spinflip_values(psi.reshape(-1, 4, 2)).sum(axis=1) / nu
                assert np.all(np.abs(ca[:, k] / svd - 1) <= 32 * EPS)

    @pytest.mark.parametrize("mid", ["c", "ca", "eof"])
    def test_sweep_needs_no_cauchy_binet_cut(self, monkeypatch, mid):
        def refuse(m):
            raise AssertionError("the Cauchy-Binet cut ran on three qubits")

        monkeypatch.setattr("entmono.measures._cut_concurrence", refuse)
        assert sweep((2, 2, 2), MeasureId(mid), 2.0, 600, 11).finite_count > 0


# --- the batched projective search against Nelder-Mead ----------------------


def _fibonacci_bloch(n):
    """Roughly uniform directions on the Bloch sphere as qubit kets."""
    i = np.arange(n)
    theta = np.arccos(1.0 - 2.0 * (i + 0.5) / n)
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1)


def _projective_avg_concurrence(psi_apx, kets):
    """2 sqrt(det M(e)) + 2 sqrt(det M(e_perp)) for each assistant ket e."""
    perp = np.stack([-kets[:, 1].conj(), kets[:, 0].conj()], axis=1)
    out = np.zeros(len(kets))
    for arr in (kets, perp):
        w = np.einsum("apx,nx->nap", psi_apx, arr.conj())
        m = np.einsum("nap,nbp->nab", w, w.conj())
        det = np.real(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
        out += 2.0 * np.sqrt(np.clip(det, 0.0, None))
    return out


def nelder_mead_assistance(state, partner):
    """The projective search this package used to run: the best of a
    128-point sphere grid, refined by scipy's Nelder-Mead (test reference)."""
    from scipy.optimize import minimize

    t = state.amps.reshape(state.dims)
    psi = t if partner == "B" else np.transpose(t, (0, 2, 1))  # axes A, partner, assistant
    kets = _fibonacci_bloch(128)
    vals = _projective_avg_concurrence(psi, kets)
    z = kets[int(np.argmax(vals))]

    def neg(x):
        theta, phi = x
        k = np.array([[math.cos(theta / 2.0), math.sin(theta / 2.0) * cmath.exp(1j * phi)]])
        return -_projective_avg_concurrence(psi, k)[0]

    x0 = [2.0 * math.atan2(abs(z[1]), abs(z[0])), math.atan2(z[1].imag, z[1].real)]
    res = minimize(neg, x0, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 400})
    return max(float(vals.max()), -float(res.fun))


class TestAssistedSearch:
    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 2, 4)])
    def test_not_below_nelder_mead(self, dims):
        states = [haar_random(dims, 40_000 + k) for k in range(200)]
        batch = _measure_triples(dims, np.array([s.amps for s in states]),
                                 MeasureId.CONCURRENCE_OF_ASSISTANCE)
        for state, (cut, _, searched) in zip(states, batch):
            assert searched >= nelder_mead_assistance(state, "C") - 1e-12
            assert searched <= cut + 1e-14  # sqrt(det) is concave: C_a <= C(A|BC)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 2, 4), (2, 5, 2),
                                      (2, 2, 6)])
    def test_one_state_equals_batch(self, dims):
        # every value refers to the normalized vector, so the public one-state
        # calls are the batch's rows bit for bit, for the searched pair and for
        # the pair with a qubit partner, which takes the closed form
        mid = MeasureId.CONCURRENCE_OF_ASSISTANCE
        states = [haar_random(dims, 70_000 + k) for k in range(40)]
        batch = _measure_triples(dims, np.array([s.amps for s in states]), mid)
        for state, row in zip(states, batch):
            assert measure_triple(state, mid).as_tuple() == tuple(row.tolist())
            assert assisted_concurrence(state, "B") == row[1]
            assert assisted_concurrence(state, "C") == row[2]

    @pytest.mark.parametrize("narrow,wide", [((2, 2, 3), (2, 2, 6)), ((2, 2, 3), (2, 2, 64)),
                                             ((2, 3, 2), (2, 6, 2)), ((2, 3, 2), (2, 64, 2))],
                             ids=lambda dims: "x".join(map(str, dims)))
    def test_partner_beyond_four_dims(self, narrow, wide):
        # a qutrit embedded in a wider qudit by a random isometry: the triple
        # first reduces the qudit to the at most 4 levels the state uses
        mid, k = MeasureId.CONCURRENCE_OF_ASSISTANCE, 1 if narrow[1] == 3 else 2
        rng = np.random.default_rng(11)
        for i in range(20):
            state = haar_random(narrow, 80_000 + i)
            embed = _local_unitary(rng, wide[k])[:, :3]
            amps = np.moveaxis(np.tensordot(state.amps.reshape(narrow), embed, axes=([k], [1])), -1, k)
            got = measure_triple(pure_state_new(wide, amps.ravel()), mid).as_tuple()
            want = measure_triple(state, mid).as_tuple()
            for j in (0, 3 - k):  # the cut and the qubit partner's closed form
                assert got[j] == pytest.approx(want[j], rel=8 * np.finfo(float).eps, abs=0)
            assert got[k] == pytest.approx(want[k], rel=0, abs=1e-14)  # the searched pair

    @pytest.mark.parametrize("dims", [(2, 2, 64), (2, 64, 2)], ids=["2x2x64", "2x64x2"])
    def test_kernels_see_at_most_four_levels(self, monkeypatch, dims):
        # the triple reduces the qudit once, before the cut, the closed-form
        # pair and the search, so no kernel runs on the full qudit
        shapes = []

        def recorded(name, kernel):
            def call(x):
                shapes.append((name, x.shape))
                return kernel(x)
            return call

        for name in ("_cut_concurrence", "_spinflip_values", "_assistant_search"):
            monkeypatch.setattr(measures, name, recorded(name, getattr(measures, name)))
        rows = np.array([haar_random(dims, 85_000 + i).amps for i in range(4)])
        _measure_triples(dims, rows, MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert sorted(name for name, _ in shapes) == ["_assistant_search", "_cut_concurrence",
                                                      "_spinflip_values"]
        levels = {"_cut_concurrence": lambda s: s[2] // 2, "_spinflip_values": lambda s: s[-1],
                  "_assistant_search": lambda s: s[2]}
        for name, shape in shapes:
            assert shape[0] == 4 and levels[name](shape) <= 4, (name, shape)

    def test_e223(self):
        t = measure_triple(example_223(), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert np.allclose(t.as_tuple(), (1.0, 1.0, 2 * math.sqrt(2) / 3), rtol=0, atol=1e-15)

    def test_unentangled_assistant(self):
        # A|C carries a Bell pair, B is in a product state: any measurement of
        # B leaves the Bell pair, so the search returns 1
        amps = np.zeros(12, dtype=complex)
        amps[0 * 6 + 0 * 3 + 0] = amps[1 * 6 + 0 * 3 + 1] = S2
        assert assisted_concurrence(pure_state_new((2, 2, 3), amps), "C") == pytest.approx(1.0, abs=1e-15)

    def test_sparse_state_warns_nothing(self):
        # A|C has C_a = 0, so Q(n*) = Q(-n*) = 0 at the search's end and the dual
        # bound's line is not finite; that stays inside its errstate block
        amps = np.zeros(12, dtype=complex)
        amps[[1, 4, 7]] = [0.22462418665779763 + 0.651759901857064j,
                           -0.0016113389781837349 - 0.15843844168101542j,
                           0.38494249825801524 - 0.5928464741557127j]
        t = measure_triple(pure_state_new((2, 2, 3), amps), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert t.as_tuple() == (0.22399841710761012, 0.22399841710761012, 0.0)

    @staticmethod
    def _searched(dims, amps):
        """The searched pair of (N, dA dB dC) rows: axes A, partner, qubit assistant."""
        t = np.asarray(amps).reshape((-1,) + dims)
        return t.swapaxes(2, 3) if dims[1] == 2 else t

    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 2), (2, 2, 4), (2, 5, 2)])
    def test_live_search_equals_dense(self, dims):
        # dropping stopped searches changes no value: the old loop stepped all
        psi = self._searched(dims, sweep_rows(dims, "haar", 61, 512))
        live = _assistant_search(psi)
        assert live.tobytes() == dense_assistant_search(psi).tobytes()
        assert live.tobytes() == _assistant_search(psi[::-1])[::-1].tobytes()

    def test_live_search_structured_states(self):
        unentangled = np.zeros(12, dtype=complex)  # Bell pair on A|C, B in |0>
        unentangled[0] = unentangled[1 * 6 + 1] = S2
        rng = np.random.default_rng(5)
        a, bc = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 6))
        product = np.kron(a, bc) / np.linalg.norm(a) / np.linalg.norm(bc)  # A in a product with BC
        rows = np.stack([example_223().amps, unentangled, product]
                        + [haar_random((2, 2, 3), 90_000 + k).amps for k in range(5)])
        psi = self._searched((2, 2, 3), rows)
        live = _assistant_search(psi)
        assert live.tobytes() == dense_assistant_search(psi).tobytes()
        assert live.tobytes() == _assistant_search(psi[::-1])[::-1].tobytes()
        for k in range(3):
            assert live[k] == _assistant_search(psi[k:k + 1])[0]
        assert live[1] == pytest.approx(1.0, abs=1e-15)
        assert live[2] == pytest.approx(0.0, abs=1e-15)

    @staticmethod
    def _tied_rows(dims):
        """Tied or flat (2,2,3) rows, embedded in dims (2,2,d) or (2,d,2), then Haar rows."""
        t = np.zeros((5, 2, 2, 3), dtype=complex)
        t[0] = example_223().amps.reshape(2, 2, 3)
        t[1, 0, 0, 0] = t[1, 1, 0, 1] = S2                  # Bell pair on A|C, B in |0>
        rng = np.random.default_rng(5)
        a, bc = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 6))
        t[2] = np.kron(a, bc).reshape(2, 2, 3) / np.linalg.norm(a) / np.linalg.norm(bc)
        t[3, 0, 0, 1] = t[3, 0, 1, 0] = t[3, 1, 0, 0] = S3  # W-like
        t[4, 0, 0, 0] = t[4, 1, 1, 2] = S2                  # GHZ-like
        if dims[1] != 2:
            t = t.swapaxes(2, 3)  # the qutrit in B's place, C the assistant
        wide = np.zeros((5,) + dims, dtype=complex)
        wide[:, :, :t.shape[2], :t.shape[3]] = t
        return np.concatenate([wide.reshape(5, -1), sweep_rows(dims, "haar", 62, 8)])

    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 2), (2, 2, 4), (2, 5, 2)])
    def test_screen_equals_full_grid(self, dims):
        # the det form screens the grid and the minor form runs only where a
        # rank is open: on tied and flat rows, and at any scale, the starts
        # and values are those of the full grid
        psi = self._searched(dims, self._tied_rows(dims))
        values = _assistant_search(psi)
        for scale in (1.0, 2.0 ** 30, 2.0 ** -30):
            scaled = _assistant_search(scale * psi)
            assert scaled.tobytes() == dense_assistant_search(scale * psi).tobytes()
            assert scaled.tobytes() == (scale * scale * values).tobytes()

    def test_step_equals_full_gram(self):
        # the step computes only the Gram and Hessian entries it reads, each
        # by the operations the full matrices used
        psi = self._searched((2, 2, 3), sweep_rows((2, 2, 3), "haar", 63, 64))
        psi[:8, ..., 1] = 0.0   # Q(-z) = 0
        psi[8:16, ..., 0] = 0.0  # Q(z) = 0
        c, quad, lin = _det_form(psi)
        rng = np.random.default_rng(7)
        n = rng.standard_normal((3, 64, 5))
        n[2, :, :2] *= 10.0  # mostly polar frames
        n /= np.sqrt((n * n).sum(axis=0))
        n[:, :16, 0] = [[0.0], [0.0], [1.0]]
        radius = rng.uniform(0.01, 0.6, (64, 5))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got = _ascent_step(n, c[:, None], quad[..., None], lin[..., None], radius)
            want = full_gram_ascent_step(n, c[:, None], quad[..., None], lin[..., None], radius)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert 0 < (np.abs(n[2]) > 0.9).sum() < n[2].size
        assert not np.isfinite(want[2][:16, 0]).any()

    def test_needs_qubit_assistant(self):
        # the ca triple's rule decides which pair values exist: a qubit partner
        # takes the closed form whatever the assistant's dimension
        mid = MeasureId.CONCURRENCE_OF_ASSISTANCE
        with pytest.raises(MeasureError, match="qubit partner or a qubit assistant"):
            measure_triple(haar_random((2, 3, 3), 0), mid)
        with pytest.raises(MeasureError, match="qubit partner or a qubit assistant"):
            assisted_concurrence(haar_random((2, 3, 3), 0), "B")
        with pytest.raises(MeasureError, match="partner must be B or C"):
            assisted_concurrence(haar_random((2, 2, 2), 0), "X")
        with pytest.raises(MeasureError, match="d_A = 2"):
            assisted_concurrence(haar_random((3, 2, 2), 0), "B")
        state = haar_random((2, 2, 3), 0)
        assert assisted_concurrence(state, "B") == measure_triple(state, mid).e_ab


# --- the dual bound that certifies a search's first start -------------------


def _first_start(dims, seed):
    """(psi, forms, the first start's end n* and value V, the three-start value) of 4096 Haar
    rows, psi with axes A, partner, qubit assistant."""
    t = sweep_rows(dims, "haar", seed, 4096).reshape((-1,) + dims)
    psi = t.swapaxes(2, 3) if dims[1] == 2 else t
    forms, top, best = measures._grid_starts(psi)
    n, value = measures._refine(measures._GRID[:, top[0]], best[0], np.arange(len(psi)), forms)
    _, every = measures._refine(measures._GRID[:, top.T.ravel()], best.T.ravel(),
                                np.repeat(np.arange(len(psi)), measures._STARTS), forms)
    return psi, forms, n, value, every.reshape(len(psi), -1).max(axis=1)


def _bound(forms, n, value):
    c, quad, lin, _, nu = forms
    return measures._dual_bound(n, value, c[:, None], quad[..., None], lin[..., None], nu[:, None])


def _line_slope(n, c, quad, lin):
    """g of the line V + g.m that touches f = 4 sqrt Q at n and -n: g.n = (f(n) - f(-n)) / 2,
    and g's tangent part the mean of those of grad f = 4 (A m + b) / sqrt Q(m) at m = n, -n."""
    u, v, an, _, ll, root = measures._tangent_forms(n, c, quad, lin)
    tangent = 2.0 * ((an[1:] + ll[1:]) / root[0] + (ll[1:] - an[1:]) / root[1])
    return 2.0 * (root[0] - root[1]) * n + tangent[0] * u + tangent[1] * v


class TestDualBound:
    """The S-lemma line through the first start's end: C_a <= V + width on certified rows."""

    DIMS = [(2, 2, 3), (2, 3, 2), (2, 2, 4)]

    @pytest.mark.parametrize("dims", DIMS)
    def test_most_rows_are_certified(self, dims):
        # a check that never passes would leave every row to three starts
        _, forms, n, value, every = _first_start(dims, 71)
        width = _bound(forms, n, value)
        nu = forms[-1]
        certified = width[:, 0] <= measures._BRACKET * nu
        assert certified.mean() >= 0.99
        # no start finds more than the bound allows
        assert np.all(every[certified] <= value[certified, 0] + width[certified, 0])

    @pytest.mark.parametrize("dims", DIMS)
    def test_line_bounds_f_on_the_sphere(self, dims):
        # f(n) = 4 sqrt(det M(n)) from the minor form, against l(n) = V + g.n
        psi, forms, n, value, _ = _first_start(dims, 72)
        width = _bound(forms, n, value)
        nu = forms[-1]
        rows = np.flatnonzero(width[:, 0] <= measures._BRACKET * nu)[:128]
        c, quad, lin = forms[:3]
        g = _line_slope(n[:, rows], c[rows, None], quad[..., rows, None], lin[..., rows, None])
        i = np.arange(20_000)
        z = 1.0 - 2.0 * (i + 0.5) / 20_000
        r, phi = np.sqrt(1.0 - z * z), i * math.pi * (3.0 - math.sqrt(5.0))
        sphere = np.stack([r * np.cos(phi), r * np.sin(phi), z])
        t = [x[:, rows, 0][..., None] for x in forms[3]]
        worst = np.full(len(rows), -np.inf)
        for k in range(0, 20_000, 2_000):
            dirs = sphere[:, k:k + 2_000]
            up = np.where(dirs[2] >= 0, dirs, -dirs)  # the first kets are those of up, then -up
            for sign, kets in zip((1.0, -1.0), measures._ket_monomials(dirs)):
                w = t[0] * kets[0] + t[1] * kets[1] + t[2] * kets[2]
                f = 4.0 * np.sqrt((w.real * w.real + w.imag * w.imag).sum(axis=0))
                line = value[rows] + sign * (g[..., 0].T @ up)
                worst = np.maximum(worst, (f - line).max(axis=1))
        assert np.all(worst <= width[rows, 0] + 64 * EPS / 2 * nu[rows])

    def test_moved_end_is_not_certified(self):
        # 1e-3 along the frame's u from n*, the line no longer touches f
        _, forms, n, value, _ = _first_start((2, 2, 3), 73)
        n, value = n[:, :256], value[:256]
        c, quad, lin, t, nu = forms
        c, quad, lin, nu = c[:256], quad[..., :256], lin[..., :256], nu[:256]
        forms = (c, quad, lin, [x[:, :256] for x in t], nu)
        assert np.all(_bound(forms, n, value)[:, 0] <= measures._BRACKET * nu)
        u = measures._tangent_forms(n, c[:, None], quad[..., None], lin[..., None])[0]
        moved = n + 1e-3 * u
        moved /= np.sqrt((moved * moved).sum(axis=0))
        moved_value = measures._average_concurrence(forms[3], measures._ket_monomials(moved))
        assert not np.any(_bound(forms, moved, moved_value)[:, 0] <= measures._BRACKET * nu)


# --- the quartic trace norm of a qutrit assistant's pair --------------------


def _blocks_with_values(sigma, count, seed):
    """(count, 4, 3) blocks psi whose spin-flip a = psi^T (Y x Y) psi has singular values sigma.

    With M^T (Y x Y) M = 1 (a magic basis) and psi = M[:, :3] x, a = x^T x;
    x = diag(sqrt sigma) U^T with U unitary gives a = U diag(sigma) U^T.
    """
    w, v = np.linalg.eigh(_YY.real)
    magic = v * np.where(w > 0, 1.0, 1j)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3)))
    return magic[:, :3] @ (np.sqrt(np.asarray(sigma, dtype=float))[:, None] * u.swapaxes(1, 2))


class TestTraceNorm:
    """The qutrit-assistant pair's sigma1 + sigma2 + sigma3 from (S^2 - F)^2 = 4E + 8DS."""

    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 2)])
    def test_haar_rows_match_the_svd(self, dims):
        for seed in range(5):
            t = sweep_rows(dims, "haar", seed, 4096).reshape((-1,) + dims)
            psi = (t if dims[2] == 3 else t.swapaxes(2, 3)).reshape(-1, 4, 3)
            svd = _spinflip_values(psi).sum(axis=1)
            assert np.all(np.abs(measures._trace_norm(psi) / svd - 1) <= 8 * EPS)

    @pytest.mark.parametrize("sigma", [(1.0, 1e-8, 1e-8), (1.0, 1e-3, 1e-3), (1.0, 1.0, 1e-8),
                                       (1.0, 0.3, 1e-8), (2.0, 1.0, 0.5)])
    def test_near_singular_blocks_match_the_svd(self, sigma):
        # near rank 1 the rounding of det a moves the quartic's root, so those
        # blocks take the SVD; near rank 2 Newton converges as usual
        psi = _blocks_with_values(sigma, 512, 3)
        svd = _spinflip_values(psi).sum(axis=1)
        assert np.all(np.abs(measures._trace_norm(psi) / svd - 1) <= 8 * EPS)

    def test_exact_blocks(self):
        # rank 1 (a Bell pair on AB, C in a product), rank 2 (e223, an
        # embedded GHZ) and zero blocks take S = sqrt(F + 2 sqrt E) exactly
        bell = np.zeros((2, 2, 3), dtype=complex)
        bell[0, 0, 0] = bell[1, 1, 0] = 0.6 * S2
        bell[0, 0, 2] = bell[1, 1, 2] = 0.8j * S2
        ghz3 = np.zeros((2, 2, 3), dtype=complex)
        ghz3[0, 0, 0] = ghz3[1, 1, 1] = S2
        e223 = example_223().amps.reshape(2, 2, 3)
        blocks = np.stack([bell, e223, ghz3, np.zeros((2, 2, 3))]).reshape(4, 4, 3)
        assert np.allclose(measures._trace_norm(blocks), [1.0, 1.0, 1.0, 0.0], rtol=0, atol=2 * EPS)
        assert measures._trace_norm(blocks)[3] == 0.0
        assert measure_triple(example_223(), MeasureId.CONCURRENCE_OF_ASSISTANCE).e_ab == 1.0
