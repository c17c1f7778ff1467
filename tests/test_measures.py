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
    concurrence_pure_cut,
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
from entmono.measures import (
    LOG2_3,
    _YY,
    _measure_triples,
    assisted_concurrence,
    binary_entropy,
    spinflip_kernel,
)
from reference import (concurrence_of_assistance, eof_two_qubit, spinflip_sqrt_spectrum,
                       von_neumann_entropy, wootters_concurrence)

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

    def test_e223(self):
        assert concurrence_pure_cut(example_223()) == pytest.approx(1.0, abs=1e-12)

    def test_w_class_closed_form(self):
        s = w_class(0, S3, S3, S3)
        assert concurrence_pure_cut(s) == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)


def _local_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPureCutPrecision:
    """The cut is 2 sqrt(sum_{i<j} s_i^2 s_j^2) from the Schmidt coefficients
    of A|BC, 2 s1 s2 for qubit A."""

    @given(st.integers(0, 2**32 - 1), st.floats(-9.0, math.log10(S2)))
    @settings(max_examples=300, deadline=None)
    def test_schmidt_223(self, seed, log_s2):
        rng = np.random.default_rng(seed)
        s2 = 10.0 ** log_s2  # down to near-product cuts, C about 2e-9
        s1 = math.sqrt(1.0 - s2 * s2)
        u, v = _local_unitary(rng, 2), _local_unitary(rng, 6)[:, :2]
        m = s1 * np.outer(u[:, 0], v[:, 0]) + s2 * np.outer(u[:, 1], v[:, 1])
        state = pure_state_new((2, 2, 3), m.ravel())
        cut = 2.0 * s1 * s2
        assert abs(concurrence_pure_cut(state) - cut) <= 1e-15
        t = measure_triple(state, MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert abs(t.e_abc - cut) <= 1e-15

    @given(st.sampled_from([(3, 2, 2), (3, 3, 3), (4, 2, 3)]), st.integers(0, 2**32 - 1),
           st.floats(-9.0, -0.5), st.floats(-9.0, -0.5))
    @settings(max_examples=300, deadline=None)
    def test_schmidt_rank3(self, dims, seed, log_s2, log_s3):
        rng = np.random.default_rng(seed)
        s = np.array([0.0, 10.0 ** log_s2, 10.0 ** log_s3])
        s[0] = math.sqrt(1.0 - s[1] ** 2 - s[2] ** 2)
        u, v = _local_unitary(rng, dims[0])[:, :3], _local_unitary(rng, dims[1] * dims[2])[:, :3]
        state = pure_state_new(dims, ((u * s) @ v.T).ravel())
        sq = s * s
        cut = 2.0 * math.sqrt(sq[0] * sq[1] + sq[0] * sq[2] + sq[1] * sq[2])
        assert abs(concurrence_pure_cut(state) - cut) <= 1e-15


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
    """The A|BC cut of the assistance triple is the pure-state cut concurrence."""

    def test_ghz(self):
        t = measure_triple(ghz(), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert t.e_abc == pytest.approx(1.0, abs=1e-12)

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

    t = state.tensor
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

    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 2), (2, 2, 4), (2, 5, 2)])
    def test_one_state_equals_batch(self, dims):
        mid = MeasureId.CONCURRENCE_OF_ASSISTANCE
        states = [haar_random(dims, 70_000 + k) for k in range(40)]
        batch = _measure_triples(dims, np.array([s.amps for s in states]), mid)
        searched = "C" if dims[1] == 2 else "B"
        for state, row in zip(states, batch):
            assert measure_triple(state, mid).as_tuple() == tuple(row.tolist())
            assert assisted_concurrence(state, searched) == row[2 if searched == "C" else 1]

    def test_partner_beyond_four_dims(self):
        # a qutrit partner embedded in 6 dims by a random isometry: the search
        # first rotates the partner onto the at most 4 dims the state uses
        rng = np.random.default_rng(11)
        for k in range(20):
            state = haar_random((2, 2, 3), 80_000 + k)
            embed = _local_unitary(rng, 6)[:, :3]
            wide = pure_state_new((2, 2, 6), np.einsum("abc,dc->abd", state.tensor, embed).ravel())
            assert assisted_concurrence(wide, "C") == pytest.approx(
                assisted_concurrence(state, "C"), rel=0, abs=1e-14)

    def test_e223(self):
        t = measure_triple(example_223(), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        assert np.allclose(t.as_tuple(), (1.0, 1.0, 2 * math.sqrt(2) / 3), rtol=0, atol=1e-15)

    def test_unentangled_assistant(self):
        # A|C carries a Bell pair, B is in a product state: any measurement of
        # B leaves the Bell pair, so the search returns 1
        amps = np.zeros(12, dtype=complex)
        amps[0 * 6 + 0 * 3 + 0] = amps[1 * 6 + 0 * 3 + 1] = S2
        assert assisted_concurrence(pure_state_new((2, 2, 3), amps), "C") == pytest.approx(1.0, abs=1e-15)

    def test_needs_qubit_assistant(self):
        with pytest.raises(MeasureError, match="qubit partner or a qubit assistant"):
            measure_triple(haar_random((2, 3, 3), 0), MeasureId.CONCURRENCE_OF_ASSISTANCE)
        with pytest.raises(MeasureError, match="assistant C must be a qubit"):
            assisted_concurrence(haar_random((2, 2, 3), 0), "B")
