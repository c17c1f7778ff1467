import math

import numpy as np
import pytest

from entmono import (
    PureTripartiteState,
    SchmidtParams,
    StateError,
    antisymmetric_qutrit,
    example_223,
    from_schmidt,
    ghz,
    haar_random,
    load_state,
    pure_state_new,
    reduced_density,
    save_state,
    w_class,
    w_state,
)
from reference import purity, validate

S2 = 1 / math.sqrt(2)
S3 = 1 / math.sqrt(3)


class TestPureStateNew:
    def test_basis_state(self):
        v = np.zeros(8)
        v[0] = 1.0
        s = pure_state_new((2, 2, 2), v)
        assert s.dims == (2, 2, 2)
        assert s.amps[0] == 1.0
        assert not s.renorm_warning

    def test_ghz_from_vector(self):
        v = np.zeros(8)
        v[0] = v[7] = S2
        s = pure_state_new((2, 2, 2), v)
        assert np.allclose(s.amps, ghz().amps)

    def test_e223_vector(self):
        v = np.zeros(12)
        v[0] = v[10] = S3
        v[5] = v[8] = 1 / math.sqrt(6)
        s = pure_state_new((2, 2, 3), v)
        assert np.allclose(s.amps, example_223().amps, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(StateError):
            pure_state_new((2, 2, 2), np.ones(7))

    def test_zero_vector(self):
        with pytest.raises(StateError):
            pure_state_new((2, 2, 2), np.zeros(8))

    def test_norm_rejected(self):
        v = np.zeros(8)
        v[0] = 1.01
        with pytest.raises(StateError):
            pure_state_new((2, 2, 2), v)

    def test_renorm_warning_flag(self):
        v = np.zeros(8)
        v[0] = 1.0 + 1e-7
        s = pure_state_new((2, 2, 2), v)
        assert s.renorm_warning
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
    def test_non_finite_rejected(self, bad):
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        v[3] = bad
        with pytest.raises(StateError, match="finite"):
            pure_state_new((2, 2, 2), v)

    def test_dims_guard(self):
        with pytest.raises(StateError):
            pure_state_new((17, 16, 16), np.ones(17 * 16 * 16))
        with pytest.raises(StateError):
            pure_state_new((0, 2, 2), np.zeros(0))

    @pytest.mark.parametrize("dims", [(2.5, 2, 2), (2.0, 2, 2), (True, 2, 4), (2, np.float64(2), 2)])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(StateError, match="positive integers"):
            pure_state_new(dims, np.eye(8)[0])


class TestSchmidt:
    def test_two_term_is_ghz(self):
        s = from_schmidt(SchmidtParams((S2, 0, 0, 0, S2)))
        assert np.allclose(s.amps, ghz().amps)

    def test_amplitude_placement(self):
        p = SchmidtParams((0.5, 0.5, 0.5, 0.5, 0.0), phi=math.pi / 3)
        s = from_schmidt(p)
        assert s.amps[0] == pytest.approx(0.5)
        assert s.amps[4] == pytest.approx(0.5 * np.exp(1j * math.pi / 3))
        assert s.amps[5] == pytest.approx(0.5)
        assert s.amps[6] == pytest.approx(0.5)
        assert s.amps[7] == 0.0

    def test_lambda0_zero_is_product_cut(self):
        s = from_schmidt(SchmidtParams((0.0, 0.5, 0.5, 0.5, 0.5)))
        # A-marginal is pure, so the A|BC cut carries no entanglement
        assert purity(reduced_density(s, "A")) == pytest.approx(1.0, abs=1e-12)

    def test_bad_norm(self):
        with pytest.raises(StateError):
            SchmidtParams((1.0, 1.0, 0, 0, 0))

    def test_negative_lambda(self):
        with pytest.raises(StateError):
            SchmidtParams((-0.5, 0.5, 0.5, 0.5, 0.0))

    def test_non_finite_lambda(self):
        with pytest.raises(StateError, match="finite"):
            SchmidtParams((math.nan, 0.5, 0.5, 0.5, 0.5))

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_phi(self, phi):
        with pytest.raises(StateError, match="phi"):
            SchmidtParams((0.5, 0.5, 0.5, 0.5, 0.0), phi)


class TestWClass:
    def test_symmetric_w(self):
        s = w_class(0, S3, S3, S3)
        assert np.allclose(s.amps, w_state().amps)
        assert s.amps[4] == pytest.approx(S3)  # |100>
        assert s.amps[2] == pytest.approx(S3)  # |010>
        assert s.amps[1] == pytest.approx(S3)  # |001>

    def test_b0_only_is_product(self):
        s = w_class(1, 0, 0, 0)
        assert s.amps[0] == 1.0
        assert np.count_nonzero(s.amps) == 1

    def test_all_half(self):
        s = w_class(0.5, 0.5, 0.5, 0.5)
        assert np.linalg.norm(s.amps) == pytest.approx(1.0)

    def test_bad_norm(self):
        with pytest.raises(StateError):
            w_class(0.6, 0.6, 0.6, 0.6)

    def test_non_finite(self):
        with pytest.raises(StateError, match="finite"):
            w_class(math.nan, 0.6, 0.6, 0.6)


class TestNamedStates:
    def test_e223_norm_and_support(self):
        s = example_223()
        assert s.dims == (2, 2, 3)
        assert np.linalg.norm(s.amps) == pytest.approx(1.0, abs=1e-15)
        nz = np.flatnonzero(np.abs(s.amps) > 1e-12)
        assert list(nz) == [0, 5, 8, 10]

    def test_antisymmetric_structure(self):
        s = antisymmetric_qutrit()
        assert s.dims == (3, 3, 3)
        nz = np.abs(s.amps[np.abs(s.amps) > 1e-12])
        assert len(nz) == 6
        assert np.allclose(nz, 1 / math.sqrt(6))
        # swapping any two parties flips the sign
        t = s.tensor
        assert np.allclose(np.transpose(t, (1, 0, 2)), -t)
        assert np.allclose(np.transpose(t, (0, 2, 1)), -t)

    def test_antisymmetric_marginals_maximally_mixed(self):
        s = antisymmetric_qutrit()
        for keep in ("A", "B", "C"):
            rho = reduced_density(s, keep)
            assert np.allclose(rho.mat, np.eye(3) / 3, atol=1e-14)


class TestHaar:
    def test_deterministic(self):
        a = haar_random((2, 2, 2), 42)
        b = haar_random((2, 2, 2), 42)
        assert np.array_equal(a.amps, b.amps)

    def test_distinct_seeds_differ(self):
        a = haar_random((2, 2, 2), 42)
        b = haar_random((2, 2, 2), 43)
        assert np.max(np.abs(a.amps - b.amps)) > 1e-6

    def test_reduction_trace(self):
        s = haar_random((3, 3, 3), 5)
        rho = reduced_density(s, "A")
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)


class TestReducedDensity:
    def test_ghz_single_qubit(self):
        rho = reduced_density(ghz(), "A")
        assert np.allclose(rho.mat, np.diag([0.5, 0.5]))

    def test_product_state_projector(self):
        v = np.zeros(8)
        v[0] = 1.0
        rho = reduced_density(pure_state_new((2, 2, 2), v), "AB")
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.allclose(rho.mat, expect)

    def test_keep_order_is_canonical(self):
        s = haar_random((2, 3, 2), 1)
        assert np.allclose(reduced_density(s, "CA").mat, reduced_density(s, "AC").mat)

    def test_invalid_label(self):
        with pytest.raises(StateError):
            reduced_density(ghz(), "AD")
        with pytest.raises(StateError):
            reduced_density(ghz(), "")
        with pytest.raises(StateError):
            reduced_density(ghz(), "AA")

    def test_invariants_on_random_states(self):
        for seed in range(30):
            s = haar_random((2, 2, 3), seed)
            for keep in ("A", "B", "C", "AB", "AC", "BC"):
                rho = reduced_density(s, keep)
                validate(rho)
                assert np.max(np.abs(rho.mat - rho.mat.conj().T)) <= 1e-10
                assert abs(np.trace(rho.mat) - 1.0) <= 1e-10


class TestPurity:
    def test_goldens(self):
        assert purity(reduced_density(ghz(), "A")) == pytest.approx(0.5)
        v = np.zeros(8)
        v[0] = 1.0
        assert purity(reduced_density(pure_state_new((2, 2, 2), v), "AB")) == pytest.approx(1.0)
        assert purity(reduced_density(antisymmetric_qutrit(), "A")) == pytest.approx(1 / 3)

    def test_bounds_on_samples(self):
        for seed in range(50):
            s = haar_random((2, 2, 2), seed)
            for keep in ("A", "AB"):
                rho = reduced_density(s, keep)
                p = purity(rho)
                assert 1 / rho.dim - 1e-9 <= p <= 1 + 1e-9


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        s = haar_random((2, 2, 3), 9)
        path = tmp_path / "state.json"
        save_state(s, path)
        loaded = load_state(path)
        assert loaded.dims == s.dims
        assert np.allclose(loaded.amps, s.amps, atol=1e-15)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateError):
            load_state(path)
        path.write_text('{"dims": [2,2,2]}')
        with pytest.raises(StateError):
            load_state(path)
