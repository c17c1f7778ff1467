import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entmono import (
    DensityMatrix,
    MeasureError,
    MeasureId,
    MeasureTriple,
    SchmidtParams,
    assistance_pure_cut,
    concurrence_of_assistance,
    concurrence_pure_cut,
    entanglement_cost_lookup,
    eof_two_qubit,
    example_223,
    from_schmidt,
    ghz,
    haar_random,
    measure_triple,
    pure_state_new,
    reduced_density,
    w_class,
    w_state,
    wootters_concurrence,
)
from entmono.measures import (
    LOG2_3,
    _YY,
    _measure_triples,
    binary_entropy,
    spinflip_kernel,
    spinflip_sqrt_spectrum,
    von_neumann_entropy,
)

S2 = 1 / math.sqrt(2)
S3 = 1 / math.sqrt(3)


def bell_projector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = S2
    return DensityMatrix(np.outer(v, v.conj()))


class TestPureCut:
    def test_ghz(self):
        assert concurrence_pure_cut(ghz()) == pytest.approx(1.0, abs=1e-12)

    def test_schmidt_closed_form(self):
        s = from_schmidt(SchmidtParams((0.5, 0, 0.5, 0.5, 0.5)))
        assert concurrence_pure_cut(s) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_product(self):
        v = np.zeros(8)
        v[0] = 1.0
        assert concurrence_pure_cut(pure_state_new((2, 2, 2), v)) == 0.0


class TestWootters:
    def test_bell(self):
        assert wootters_concurrence(bell_projector()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
        assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_schmidt_reduced(self):
        # |000> and |110> cohere in the AB pair, so C_AB = 2 l0 l3 = 1 here
        s = from_schmidt(SchmidtParams((S2, 0, 0, S2, 0)))
        rho = reduced_density(s, "AB")
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_dim(self):
        with pytest.raises(MeasureError):
            wootters_concurrence(DensityMatrix(np.eye(2, dtype=complex) / 2))


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
    def test_e223(self):
        assert assistance_pure_cut(example_223()) == pytest.approx(1.0, abs=1e-12)

    def test_w_class_closed_form(self):
        s = w_class(0, S3, S3, S3)
        assert assistance_pure_cut(s) == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)

    def test_ghz(self):
        assert assistance_pure_cut(ghz()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_qutrit_a(self):
        with pytest.raises(MeasureError):
            assistance_pure_cut(haar_random((3, 2, 2), 0))


class TestEoF:
    def test_bell(self):
        assert eof_two_qubit(bell_projector()) == pytest.approx(1.0, abs=1e-12)

    def test_separable(self):
        rho = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex))
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

    def test_monotone_on_pure_cut(self):
        for seed in range(300):
            t = measure_triple(haar_random((2, 2, 2), seed), MeasureId.CONCURRENCE)
            assert t.e_abc >= max(t.e_ab, t.e_ac) - 1e-9


class TestMeasureId:
    def test_registry(self):
        assert {m.value for m in MeasureId} == {"c", "ca", "eof", "ec-lookup"}
        assert MeasureId.from_string("ca") is MeasureId.CONCURRENCE_OF_ASSISTANCE
        with pytest.raises(MeasureError):
            MeasureId.from_string("negativity")


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
            cut = concurrence_pure_cut(s)
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
            psi = state.tensor.reshape(4, 2)  # columns are subnormalized members
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
            dm = DensityMatrix((rho + rho.conj().T) / 2)
            s = spinflip_sqrt_spectrum(dm)
            rho_t = _YY @ dm.mat.conj() @ _YY
            mu = np.linalg.eigvals(dm.mat @ rho_t)
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
    s1, s2 = np.linalg.svd(state.tensor.reshape(2, 4), compute_uv=False)
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
        spectra = spinflip_kernel(np.array([w_state().amps, ghz().amps]))
        assert spectra.shape == (2, 3, 2)
        # W: cut (2 sqrt(2)/3, 0); each pair has s1 = 2/3 and s2 = 0
        assert spectra[0] == pytest.approx(
            np.array([[2 * math.sqrt(2) / 3, 0.0], [2 / 3, 0.0], [2 / 3, 0.0]]), abs=1e-15)
        # GHZ: the pairs are separable with equal spectra (1/2, 1/2)
        assert spectra[1] == pytest.approx(
            np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]), abs=1e-15)
