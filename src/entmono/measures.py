"""Entanglement measures evaluated on tripartite pure states.

Each measure produces a triple (E_{A|BC}, E_{AB}, E_{AC}); the two-qubit
kernels are the standard spin-flip spectral closed forms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, PureTripartiteState, reduced_density, purity

LOG2_3 = math.log2(3.0)

# Spectral values below this are numerical noise from exactly-zero
# eigenvalues of rank-deficient products; sqrt would inflate them to ~1e-8.
_SPECTRUM_FLOOR = 1e-14

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


class MeasureError(ValueError):
    """Measure not applicable to the given state or dimensions."""


class MeasureId(enum.Enum):
    CONCURRENCE = "c"
    CONCURRENCE_OF_ASSISTANCE = "ca"
    EOF = "eof"
    ENTANGLEMENT_COST_LOOKUP = "ec-lookup"

    @classmethod
    def from_string(cls, s: str) -> "MeasureId":
        for m in cls:
            if m.value == s:
                return m
        raise MeasureError(f"unknown measure {s!r}; known: {[m.value for m in cls]}")


@dataclass(frozen=True)
class MeasureTriple:
    """The three operand values of the monogamy inequality for one state."""

    e_abc: float
    e_ab: float
    e_ac: float
    measure_id: MeasureId

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise MeasureError(f"measure values must be finite, got {self.as_tuple()}")
        if min(self.e_abc, self.e_ab, self.e_ac) < 0:
            raise MeasureError("measure values must be non-negative")

    def as_tuple(self):
        return (self.e_abc, self.e_ab, self.e_ac)


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0; elementwise."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    p = np.where(inside, x, 0.5)
    h = np.where(inside, -p * np.log2(p) - (1.0 - p) * np.log1p(-p) / math.log(2.0), 0.0)
    return h if h.ndim else float(h)


def formation_of_concurrence(c):
    """h((1 + sqrt(1 - C^2)) / 2) elementwise.

    This is the entanglement of formation of a two-qubit state with
    concurrence C (Wootters), and the entropy of a qubit marginal whose
    pure-cut concurrence is C.  The smaller eigenvalue is evaluated as
    C^2 / (2 (1 + sqrt(1 - C^2))), which does not cancel for small C.
    """
    c = np.asarray(c, dtype=float)
    r = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    return binary_entropy(c * c / (2.0 * (1.0 + r)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) in base 2."""
    w = np.linalg.eigvalsh(rho.mat)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def concurrence_pure_cut(state: PureTripartiteState) -> float:
    """Concurrence of the pure A|BC cut, sqrt(2 (1 - Tr rho_A^2))."""
    rho_a = reduced_density(state, "A")
    return math.sqrt(max(0.0, 2.0 * (1.0 - purity(rho_a))))


def spinflip_sqrt_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Descending sqrt-eigenvalues of rho * rho_tilde for a two-qubit rho.

    rho_tilde = (Y x Y) rho* (Y x Y).  The product is similar to the PSD
    matrix sqrt(rho) rho_tilde sqrt(rho), which is what gets diagonalized;
    noise-level eigenvalues are clipped to zero before the square root.
    """
    if rho.dim != 4:
        raise MeasureError(f"two-qubit kernel needs dim 4, got {rho.dim}")
    w, v = np.linalg.eigh(rho.mat)
    keep = w > _SPECTRUM_FLOOR
    w, v = w[keep], v[:, keep]
    # subnormalized eigendecomposition psi_k = sqrt(w_k) v_k; the sqrt
    # eigenvalues of rho*rho_tilde are the singular values of the complex
    # symmetric matrix A_kl = psi_k^T (Y x Y) psi_l (Takagi route), which
    # avoids squaring the spectrum and is exact on rank-deficient rho.
    psi = v * np.sqrt(w)
    a = psi.T @ _YY @ psi
    s = np.linalg.svd(a, compute_uv=False)
    out = np.zeros(4)
    out[: s.size] = s
    return out


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence max(0, s1 - s2 - s3 - s4)."""
    s = spinflip_sqrt_spectrum(rho)
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


def concurrence_of_assistance(rho: DensityMatrix) -> float:
    """Two-qubit concurrence of assistance, s1 + s2 + s3 + s4."""
    s = spinflip_sqrt_spectrum(rho)
    return float(np.sum(s))


def assistance_pure_cut(state: PureTripartiteState) -> float:
    """C_a of the pure A|BC cut; equals the pure-cut concurrence for qubit A."""
    if state.dims[0] != 2:
        raise MeasureError("assistance across the A|BC cut is only defined for d_A = 2")
    return concurrence_pure_cut(state)


def eof_two_qubit(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation h((1 + sqrt(1 - C^2)) / 2)."""
    return formation_of_concurrence(wootters_concurrence(rho))


def entanglement_cost_lookup(name: str) -> MeasureTriple:
    """Tabulated entanglement-cost triples; E_C is not computable in general.

    The only entry is the antisymmetric two-qutrit purification,
    (log2 3, 1, 1).
    """
    if name != "antisymmetric_qutrit":
        raise MeasureError(f"no tabulated E_C for state {name!r}")
    return MeasureTriple(LOG2_3, 1.0, 1.0, MeasureId.ENTANGLEMENT_COST_LOOKUP)


# --- the three-qubit spin-flip kernel ---------------------------------------
#
# For a three-qubit pure state each reduced pair has rank <= 2, and its
# nonzero spin-flip sqrt-spectrum (s1 >= s2) is the pair of singular values
# of the 2x2 complex symmetric a = psi^T (Y x Y) psi, psi the 4x2 amplitude
# block with the pair's basis as rows.  The pure A|BC cut has spectrum
# (C, 0).  Each measure maps the spectra: C = s1 - s2, C_a = s1 + s2
# (Laustsen-Verstraete-van Enk), E_F and S(rho_A) via
# formation_of_concurrence.  One stacked product L @ MID @ R gives the cut
# slot, rho_A = M 1 M^H (M the 2x4 block of A against BC, so tr(a^H a) is
# Tr rho_A^2), and both pair slots; L and R index the amplitudes followed
# by their conjugates.  The arithmetic runs in clongdouble, which removes
# the cancellation error that otherwise dominates x-values with a tiny gap.

_AB = np.arange(8).reshape(4, 2)                                     # rows |ab>, columns c
_AC = np.arange(8).reshape(2, 2, 2).transpose(0, 2, 1).reshape(4, 2)  # rows |ac>, columns b
_A_BC = np.arange(8).reshape(2, 4)                                    # rows a, columns |bc>
_OPERANDS = np.concatenate([np.stack([_A_BC, _AB.T, _AC.T]).reshape(3, 8),
                            np.stack([8 + _A_BC.T, _AB, _AC]).reshape(3, 8)])
_MIDDLE = np.stack([np.eye(4), _YY, _YY]).astype(np.clongdouble)
# 0-d longdouble operands: numpy applies them faster than scalars
_ZERO, _TWO, _FOUR = (np.array(v, dtype=np.longdouble) for v in (0, 2, 4))
_PLUS_MINUS = np.array([1, -1], dtype=np.longdouble)


def spinflip_kernel(amps) -> np.ndarray:
    """Spin-flip spectra of the A|BC cut and the AB, AC pairs of pure states.

    ``amps`` holds N three-qubit states' amplitudes, shape (N, 8) or
    (N, 2, 2, 2).  Returns a float array (N, 3, 2): row 0 is (C, 0) with C
    the concurrence of the A|BC cut, rows 1 and 2 are (s1, s2) of the AB
    and AC pairs, s1 >= s2.
    """
    t = np.asarray(amps).reshape(-1, 8).astype(np.clongdouble)
    tt = np.concatenate((t, t.conj()), axis=1)
    # stored amplitudes carry a one-ulp normalization error; divide it out
    # so cut and pair values refer to exactly the same normalized vector
    nsq = (tt[:, None, 8:] @ t[:, :, None]).real[:, 0]
    ops = tt[:, _OPERANDS]
    a = ops[:, :3].reshape(-1, 3, 2, 4) @ _MIDDLE @ ops[:, 3:].reshape(-1, 3, 4, 2)
    m = a.conj().swapaxes(-1, -2) @ a
    m00, m01, m10, m11 = m.reshape(-1, 3, 4).transpose(2, 0, 1)
    tr = (m00 + m11).real
    det = (m00 * m11 - m01 * m10).real
    out = np.zeros((len(t), 3, 2), dtype=np.longdouble)
    nn = nsq[:, 0] * nsq[:, 0]
    np.sqrt(np.maximum(_TWO * (nn - tr[:, 0]) / nn, _ZERO), out=out[:, 0, 0])
    tr_pair = tr[:, 1:]
    disc = np.sqrt(np.maximum(_ZERO, tr_pair * tr_pair - _FOUR * det[:, 1:]))
    s = np.sqrt(np.maximum((tr_pair[..., None] + disc[..., None] * _PLUS_MINUS) / _TWO, _ZERO))
    np.divide(s, nsq[..., None], out=out[:, 1:])
    return out.astype(float)


def _three_qubit_triples(amps, mid: MeasureId) -> np.ndarray:
    """(N, 3) rows (E_A|BC, E_AB, E_AC) of three-qubit states from the kernel."""
    spectra = spinflip_kernel(amps)
    if mid is MeasureId.CONCURRENCE_OF_ASSISTANCE:
        return spectra[..., 0] + spectra[..., 1]
    c = spectra[..., 0] - spectra[..., 1]  # s1 >= s2, so C >= 0
    return formation_of_concurrence(c) if mid is MeasureId.EOF else c


# --- assisted concurrence for a qubit-qudit pair ---------------------------


def _fibonacci_bloch(n):
    """Roughly uniform directions on the Bloch sphere as qubit kets."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    theta = np.arccos(z)
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    kets = np.empty((n, 2), dtype=complex)
    kets[:, 0] = np.cos(theta / 2.0)
    kets[:, 1] = np.exp(1j * phi) * np.sin(theta / 2.0)
    return kets


def _projective_avg_concurrence(psi_apx, kets):
    """Average concurrence after measuring the assistant along each ket.

    psi_apx has axes (A=2, partner, assistant=2).  For a rank-1 outcome the
    subnormalized conditional A-marginal M satisfies p*C = 2 sqrt(det M),
    so the ensemble average for the projective pair {e, e_perp} is
    2 sqrt(det M(e)) + 2 sqrt(det M(e_perp)).
    """
    perp = np.empty_like(kets)
    perp[:, 0] = -kets[:, 1].conj()
    perp[:, 1] = kets[:, 0].conj()
    out = np.empty(len(kets))
    for arr, half in ((kets, 0), (perp, 1)):
        w = np.einsum("apx,nx->nap", psi_apx, arr.conj())
        m = np.einsum("nap,nbp->nab", w, w.conj())
        det = np.real(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
        contrib = 2.0 * np.sqrt(np.clip(det, 0.0, None))
        if half == 0:
            out[:] = contrib
        else:
            out += contrib
    return out


def assisted_concurrence(state: PureTripartiteState, partner: str) -> float:
    """C_a(rho_{A,partner}) via ensemble search over the qubit assistant.

    Maximizes the average conditional concurrence over projective
    measurements of the third party (Bloch-sphere grid plus local refine).
    Requires d_A = 2 and a two-dimensional assistant.
    """
    partner = partner.upper()
    if partner not in ("B", "C"):
        raise MeasureError("partner must be B or C")
    assistant = "C" if partner == "B" else "B"
    dA, dB, dC = state.dims
    if dA != 2:
        raise MeasureError("assisted concurrence needs d_A = 2")
    d_assist = dC if assistant == "C" else dB
    if d_assist != 2:
        raise MeasureError(f"assistant {assistant} must be a qubit, has dim {d_assist}")
    t = state.tensor
    # axes -> (A, partner, assistant)
    psi = t if assistant == "C" else np.transpose(t, (0, 2, 1))

    kets = _fibonacci_bloch(128)
    vals = _projective_avg_concurrence(psi, kets)
    best = int(np.argmax(vals))
    z = kets[best]
    theta0 = 2.0 * math.atan2(abs(z[1]), abs(z[0]))
    phi0 = math.atan2(z[1].imag, z[1].real)

    from scipy.optimize import minimize

    def neg(x):
        theta, phi = x
        k = np.array([[math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))]])
        return -_projective_avg_concurrence(psi, k)[0]

    res = minimize(neg, [theta0, phi0], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 400})
    return max(float(vals[best]), -float(res.fun))


# --- triple assembly --------------------------------------------------------

def _assisted_pair(state, partner):
    """C_a of the pair A-partner: closed form for two qubits, else the search."""
    if state.dims[1 if partner == "B" else 2] == 2:
        return concurrence_of_assistance(reduced_density(state, "A" + partner))
    return assisted_concurrence(state, partner)


def measure_triple(state: PureTripartiteState, mid: MeasureId) -> MeasureTriple:
    """Evaluate (E_{A|BC}, E_{AB}, E_{AC}) for the requested measure.

    Concurrence and EoF require a three-qubit state.  Concurrence of
    assistance requires qubit A and at least one qubit among B, C; the
    non-qubit pair (if any) is handled by the assisted-ensemble search.
    Entanglement cost is lookup-only (see entanglement_cost_lookup).
    Three-qubit triples come from the spin-flip kernel.
    """
    if mid is MeasureId.ENTANGLEMENT_COST_LOOKUP:
        raise MeasureError(
            "entanglement cost is not computable from amplitudes; "
            "use entanglement_cost_lookup with a named state"
        )
    if state.dims == (2, 2, 2):
        return MeasureTriple(*_three_qubit_triples(state.amps, mid)[0].tolist(), mid)
    if mid is not MeasureId.CONCURRENCE_OF_ASSISTANCE:
        raise MeasureError(
            f"{mid.value} triple needs dims (2,2,2), got {state.dims}: "
            "the two-qubit spin-flip kernel applies to both reduced pairs"
        )
    if state.dims[0] != 2:
        raise MeasureError("assistance triple needs d_A = 2 for the A|BC cut")
    return MeasureTriple(
        assistance_pure_cut(state), _assisted_pair(state, "B"), _assisted_pair(state, "C"), mid
    )


def _measure_triples(dims, amps, mid: MeasureId) -> np.ndarray:
    """(N, 3) triples of N states given as unit-norm amplitude rows.

    Three-qubit rows go through the spin-flip kernel in one call; other
    dims evaluate measure_triple state by state.
    """
    dims = tuple(dims)
    if dims != (2, 2, 2) or mid is MeasureId.ENTANGLEMENT_COST_LOOKUP:
        return np.array(
            [measure_triple(PureTripartiteState(dims, a), mid).as_tuple() for a in amps]
        ).reshape(-1, 3)
    return _three_qubit_triples(amps, mid)
