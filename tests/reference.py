"""References that tests hold the batch code to; no package path calls them.

Mixed-state formulas on density matrices, and the dense assistant search.
"""

import numpy as np

from entmono import DensityMatrix, MeasureError, StateError
from entmono import measures as m
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


def dense_assistant_search(psi) -> np.ndarray:
    """measures._assistant_search with every search kept through every step.

    The (N, _STARTS) searches step together until none is active; one that
    has stopped is carried along, masked out of each update.  The starts
    come from a stable argsort of the grid.
    """
    if psi.shape[2] > 4:
        r = np.linalg.qr(psi.transpose(0, 2, 1, 3).reshape(len(psi), -1, 4), mode="r")
        psi = r.reshape(-1, 4, 2, 2).transpose(0, 2, 1, 3)
    c, quad, lin = m._det_form(psi)
    t = m._minor_form(psi)
    grid = np.concatenate([m._average_concurrence([x[:, k:k + m._GRID_BLOCK] for x in t],
                                                  m._GRID_KETS)
                           for k in range(0, len(psi), m._GRID_BLOCK)])
    top = np.argsort(-grid, axis=1, kind="stable")[:, :m._STARTS]
    n, best = m._GRID[:, top], np.take_along_axis(grid, top, axis=1)
    c, quad, lin = c[:, None], quad[..., None], lin[..., None]
    radius = np.full(best.shape, m._RADIUS)
    active = np.ones(best.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(m._NEWTON_STEPS):
            step, length, gain = m._ascent_step(n, c, quad, lin, radius)
            trial = n + step
            trial = trial / np.sqrt(m._sum3(trial * trial))
            value = m._average_concurrence(t, m._ket_monomials(trial))
            up = active & (value > best)
            n = np.where(up, trial, n)
            best = np.where(up, value, best)
            radius = np.where(up, 2.0 * radius, 0.25 * length)
            active &= gain > m._GAIN_TOL
            if not active.any():
                break
    return best.max(axis=1)
