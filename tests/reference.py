"""Mixed-state formulas on density matrices, which tests use as references
for the pure-state batch code; no package path calls them."""

import numpy as np

from entmono import DensityMatrix, MeasureError, StateError
from entmono.measures import _spinflip_values, formation_of_concurrence

# Spectral values below this are numerical noise from exactly-zero
# eigenvalues of rank-deficient products; sqrt would inflate them to ~1e-8.
_SPECTRUM_FLOOR = 1e-14


def validate(rho: DensityMatrix) -> DensityMatrix:
    """Positivity, on top of DensityMatrix's own checks (costs an eigh)."""
    w = np.linalg.eigvalsh(rho.mat)
    if w[0] < -1e-10:
        raise StateError(f"density matrix has eigenvalue {w[0]} < -1e-10")
    return rho


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in [1/dim, 1] up to round-off."""
    return float(np.real(np.trace(rho.mat @ rho.mat)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) in base 2."""
    w = np.linalg.eigvalsh(rho.mat)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def spinflip_sqrt_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Descending sqrt-eigenvalues of rho * rho_tilde for a two-qubit rho.

    rho_tilde = (Y x Y) rho* (Y x Y).  They are the singular values of the
    complex symmetric A_kl = psi_k^T (Y x Y) psi_l over the subnormalized
    eigenvectors psi_k = sqrt(w_k) v_k of rho (Takagi route), which avoids
    squaring the spectrum and is exact on rank-deficient rho; noise-level
    eigenvalues of rho are dropped first.
    """
    if rho.dim != 4:
        raise MeasureError(f"two-qubit kernel needs dim 4, got {rho.dim}")
    w, v = np.linalg.eigh(rho.mat)
    keep = w > _SPECTRUM_FLOOR
    s = _spinflip_values((v[:, keep] * np.sqrt(w[keep]))[None])[0]
    return np.concatenate([s, np.zeros(4 - s.size)])


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence max(0, s1 - s2 - s3 - s4)."""
    s = spinflip_sqrt_spectrum(rho)
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


def concurrence_of_assistance(rho: DensityMatrix) -> float:
    """Two-qubit concurrence of assistance, s1 + s2 + s3 + s4."""
    return float(np.sum(spinflip_sqrt_spectrum(rho)))


def eof_two_qubit(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation h((1 + sqrt(1 - C^2)) / 2)."""
    return formation_of_concurrence(wootters_concurrence(rho))
