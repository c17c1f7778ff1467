"""Entanglement measures evaluated on tripartite pure states.

Each measure produces a triple (E_{A|BC}, E_{AB}, E_{AC}); the two-qubit
kernels are the standard spin-flip spectral closed forms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .states import PureTripartiteState
from .states import reduced_density  # a module attribute here: bench/tracing.py spans it by name

LOG2_3 = math.log2(3.0)

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


def concurrence_pure_cut(state: PureTripartiteState) -> float:
    """Concurrence of the pure A|BC cut, sqrt(2 (1 - Tr rho_A^2)).

    Evaluated by Cauchy-Binet as a sum of squared 2x2 minors (see
    _cut_concurrence), which does not cancel on near-product cuts.
    """
    return float(_cut_concurrence(state.amps.reshape(1, state.dims[0], -1))[0])


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


# --- the cut for any d_A, and qubit A beyond three qubits: the ca triple ----
#
# With M the dA x (dB dC) block of A against BC, rho_A = M M^H, and by
# Cauchy-Binet 2 (1 - Tr rho_A^2) = 4 sum |M_ij M_kl - M_il M_kj|^2 over row
# pairs i < k and column pairs j < l (4 det rho_A for qubit A): a sum of
# non-negative terms, which does not cancel on near-product cuts.  With
# d_A = 2, a pair with a qubit partner keeps the two-qubit closed form, the
# sum of _spinflip_values of its 4 x d amplitude block.  A pair with a qubit
# assistant X is searched.  Measuring X along Bloch direction n leaves A
# with the subnormalized marginal M(n) = Tr_X[rho_AX (1 x P(n))], P(n) =
# (1 + n.sigma) / 2, which is affine in n.  So det M(n) is a quadratic
# Q(n) = c + n.A n + 2 b.n, and the projective measurement {n, -n} gives
# the average concurrence 2 sqrt(Q(n)) + 2 sqrt(Q(-n)).  Its maximum over
# the sphere is the projective lower bound on C_a; concavity of sqrt(det)
# bounds C_a above by the cut.  The quadratic form gives the search its
# derivatives, but its value cancels where Q is small, so values are sums
# of squared minors of the conditional amplitudes (Cauchy-Binet again).
# Everything runs elementwise or per matrix, so one state and a batch agree
# bit for bit.


def _cut_concurrence(m) -> np.ndarray:
    """2 sqrt(sum_{i<k, j<l} |m_ij m_kl - m_il m_kj|^2) of (N, dA, n) amplitude blocks.

    The sum runs per row pair over the column pairs, then over the row
    pairs, so for qubit A the one row pair adds nothing to the arithmetic.
    """
    i, k = np.triu_indices(m.shape[1], 1)
    top, bottom = m[:, i], m[:, k]
    acc = np.zeros((len(m), len(i)))
    for j in range(m.shape[2] - 1):
        minor = top[:, :, j, None] * bottom[:, :, j + 1:] - top[:, :, j + 1:] * bottom[:, :, j, None]
        acc += (minor.real * minor.real + minor.imag * minor.imag).sum(axis=2)
    return 2.0 * np.sqrt(acc.sum(axis=1))


def _spinflip_values(psi) -> np.ndarray:
    """Singular values of psi^T (Y x Y) psi for (N, 4, d) blocks with rows |ab>.

    They are the nonzero sqrt-eigenvalues of rho * rho_tilde for the
    two-qubit rho = psi psi^H (Takagi route).
    """
    r00, r01, r10, r11 = (psi[:, k, :, None] for k in range(4))
    c00, c01, c10, c11 = (psi[:, k, None, :] for k in range(4))
    return np.linalg.svd(r01 * c10 + r10 * c01 - r00 * c11 - r11 * c00, compute_uv=False)


def _sum3(p):
    """Sum over the component axis of vectors stored as (..., 3, N, S), in order."""
    return p[..., 0, :, :] + p[..., 1, :, :] + p[..., 2, :, :]


def _hemisphere(count):
    """(3, count) Fibonacci directions on the upper half of the Bloch sphere."""
    i = np.arange(count)
    z = 1.0 - (i + 0.5) / count
    r = np.sqrt(1.0 - z * z)
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z])


def _ket_monomials(n):
    """(b0^2, b0 b1, b1^2) of the conjugated outcome kets b for n and for -n.

    n = (x, y, z) is a unit vector; the ket of n or -n, whichever points up,
    is (sqrt((1 + z) / 2), (x + i y) / sqrt(2 (1 + z))), which is accurate.
    """
    x, y, z = n
    up = z >= 0
    x, y, z = np.where(up, x, -x), np.where(up, y, -y), np.abs(z)
    b0 = np.sqrt(0.5 * (1.0 + z))
    b1 = (x - 1j * y) / (2.0 * b0)
    b1c = b1.conj()
    return (b0 * b0, b0 * b1, b1 * b1), (b1c * b1c, -(b0 * b1c), b0 * b0)


# The objective is even in n, so the grid covers the upper hemisphere only.
_GRID = _hemisphere(64)  # as dense as a 128-point grid on the whole sphere
_GRID_KETS = _ket_monomials(_GRID)
_STARTS = 3          # best grid points refined per state
_NEWTON_STEPS = 8    # at most; on Haar states a search converges in 4 to 6
_RADIUS = 0.3        # first trust radius, about the grid spacing
_GAIN_TOL = 1e-15    # a step that promises less ends a search: the value is final
_GRID_BLOCK = 64     # states per grid evaluation, which bounds its temporaries
_SIGNS = np.array([1.0, -1.0])[:, None, None]  # the outcomes n and -n


def _det_form(psi):
    """(c, A, b) with det M(n) = c + n.A n + 2 b.n for psi (N, 2, dP, 2).

    psi has axes A, partner, assistant; c, A and b have shapes (N,),
    (3, 3, N) and (3, N).  This form gives the derivatives; it cancels where
    det M is small, so values come from _minor_form.
    """
    def pauli(a, b):  # Tr(G sigma_mu) for G[x, y] = sum_p psi[a, p, x] conj(psi[b, p, y])
        g = sum(psi[:, a, p, :, None] * psi[:, b, p, None, :].conj() for p in range(psi.shape[2]))
        return np.stack([g[:, 0, 0] + g[:, 1, 1], g[:, 0, 1] + g[:, 1, 0],
                         1j * (g[:, 0, 1] - g[:, 1, 0]), g[:, 0, 0] - g[:, 1, 1]], axis=1)

    g00, g11, g01 = pauli(0, 0).real, pauli(1, 1).real, pauli(0, 1)
    # M_ab(n) = g_ab . (1, n) / 2, so det M = M_00 M_11 - |M_01|^2 = (1, n) k (1, n)
    k = 0.125 * (g00[:, :, None] * g11[:, None, :] + g11[:, :, None] * g00[:, None, :]) - 0.25 * (
        g01.real[:, :, None] * g01.real[:, None, :] + g01.imag[:, :, None] * g01.imag[:, None, :])
    return k[:, 0, 0], k[:, 1:, 1:].transpose(1, 2, 0), k[:, 0, 1:].T


def _minor_form(psi):
    """Coefficients (t0, t1, t2), each (P, N, 1), of the conditional minors.

    The outcome with conjugated ket b leaves A and the partner with the
    block W[a, p] = sum_x psi[a, p, x] b_x, whose 2x2 minors over partner
    pairs j < l are t0 b0^2 + t1 b0 b1 + t2 b1^2.  By Cauchy-Binet det M is
    the sum of their squared moduli, which does not cancel.
    """
    j, l = np.triu_indices(psi.shape[2], 1)

    def minor(x, y):
        return (psi[:, 0, j, x] * psi[:, 1, l, y] - psi[:, 0, l, x] * psi[:, 1, j, y]).T[..., None]

    return minor(0, 0), minor(0, 1) + minor(1, 0), minor(1, 1)


def _average_concurrence(t, kets):
    """2 sqrt(det M(n)) + 2 sqrt(det M(-n)) from _minor_form and _ket_monomials."""
    total = 0.0
    for m0, m1, m2 in kets:
        w = t[0] * m0 + t[1] * m1 + t[2] * m2
        sq = w.real * w.real + w.imag * w.imag
        total = total + np.sqrt(sum(sq, np.zeros(sq.shape[1:])))  # over the pairs, in order
    return 2.0 * total


def _ascent_step(n, c, quad, lin, radius):
    """Riemannian Newton step for the objective at unit n, no longer than radius.

    n has shape (3, N, S); quad, lin and c broadcast against it.  Returns
    the step, its length, and its first-order gain g.s, which for a Newton
    step is twice the gain the quadratic model predicts.
    """
    x, y, z = n
    polar = np.abs(z) > 0.9  # tangent basis u, v = n x u
    zero = np.zeros_like(z)
    u = np.where(polar, np.stack([zero, -z, y]), np.stack([-y, x, zero]))
    u = u / np.sqrt(_sum3(u * u))
    v = n[[1, 2, 0]] * u[[2, 0, 1]] - n[[2, 0, 1]] * u[[1, 2, 0]]
    frame = np.stack([n, u, v])
    af = _sum3(quad * frame[:, None])            # A n, A u, A v
    gram = _sum3(frame[:, None] * af[None])      # gram[i, j] = frame_i . A frame_j
    ll = _sum3(lin * frame)                      # b . n, b . u, b . v
    root = np.sqrt(c + gram[0, 0] + _SIGNS * 2.0 * ll[0])  # sqrt Q(n), sqrt Q(-n)
    d = 2.0 * (gram[:, 0] + _SIGNS[:, None] * ll)          # their derivatives along n, u, v
    g = d / root[:, None]
    g = g[0] + g[1]                              # gradient of 2 sqrt Q(n) + 2 sqrt Q(-n)
    dt = d[:, 1:]
    h = 2.0 * gram[1:, 1:] / root[:, None, None] - dt[:, :, None] * dt[:, None] * (
        0.5 / (root * root * root))[:, None, None]
    h = h[0] + h[1]
    g_u, g_v = g[1], g[2]
    h_uu, h_uv, h_vv = h[0, 0] - g[0], h[0, 1], h[1, 1] - g[0]  # the sphere's curvature term
    top = 0.5 * (h_uu + h_vv + np.sqrt((h_uu - h_vv) ** 2 + 4.0 * h_uv * h_uv))
    det = h_uu * h_vv - h_uv * h_uv
    s_u, s_v = (h_uv * g_v - h_vv * g_u) / det, (h_uv * g_u - h_uu * g_v) / det
    # a Newton step too long or not uphill becomes a shifted one, (H - sigma)^-1
    # with sigma beyond the top eigenvalue by |g| / radius, which is uphill
    # and no longer than radius
    fits = (top < 0) & (s_u * s_u + s_v * s_v <= radius * radius)
    sigma = np.maximum(top, 0.0) + np.sqrt(g_u * g_u + g_v * g_v) / radius
    h_uu, h_vv = h_uu - sigma, h_vv - sigma
    det = h_uu * h_vv - h_uv * h_uv
    s_u = np.where(fits, s_u, (h_uv * g_v - h_vv * g_u) / det)
    s_v = np.where(fits, s_v, (h_uv * g_u - h_uu * g_v) / det)
    return s_u * u + s_v * v, np.sqrt(s_u * s_u + s_v * s_v), g_u * s_u + g_v * s_v


def _assistant_search(psi) -> np.ndarray:
    """Largest average concurrence of A over projective measurements of the assistant.

    psi has shape (N, 2, dP, 2), axes A, partner, assistant.  The objective
    is evaluated on the hemisphere grid; the best _STARTS points take up to
    _NEWTON_STEPS safeguarded ascent steps, each kept only if it raises the
    objective, so the result is never below the grid maximum.  A search
    stops on its own criterion, so a state's value does not depend on the
    rest of the batch.
    """
    if psi.shape[2] > 4:  # the vectors psi[:, a, :, x] span at most 4 partner dims
        r = np.linalg.qr(psi.transpose(0, 2, 1, 3).reshape(len(psi), -1, 4), mode="r")
        psi = r.reshape(-1, 4, 2, 2).transpose(0, 2, 1, 3)
    c, quad, lin = _det_form(psi)
    t = _minor_form(psi)
    grid = np.concatenate([_average_concurrence([x[:, k:k + _GRID_BLOCK] for x in t], _GRID_KETS)
                           for k in range(0, len(psi), _GRID_BLOCK)])
    top = np.argsort(-grid, axis=1, kind="stable")[:, :_STARTS]
    n, best = _GRID[:, top], np.take_along_axis(grid, top, axis=1)
    c, quad, lin = c[:, None], quad[..., None], lin[..., None]
    radius = np.full(best.shape, _RADIUS)
    active = np.ones(best.shape, dtype=bool)
    # outcomes with Q = 0 give infinite derivatives; such steps are rejected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            step, length, gain = _ascent_step(n, c, quad, lin, radius)
            trial = n + step
            trial = trial / np.sqrt(_sum3(trial * trial))
            value = _average_concurrence(t, _ket_monomials(trial))
            up = active & (value > best)
            n = np.where(up, trial, n)
            best = np.where(up, value, best)
            radius = np.where(up, 2.0 * radius, 0.25 * length)
            active &= gain > _GAIN_TOL
            if not active.any():
                break
    return best.max(axis=1)


def _pair_assistance(t, partner) -> np.ndarray:
    """C_a of the pair A-partner for qubit-A states t of shape (N, 2, dB, dC)."""
    psi = t if partner == "B" else t.swapaxes(2, 3)  # axes A, partner, the third party
    if psi.shape[2] == 2:
        return _spinflip_values(psi.reshape(len(psi), 4, -1)).sum(axis=1)
    return _assistant_search(psi)


def assisted_concurrence(state: PureTripartiteState, partner: str) -> float:
    """C_a(rho_{A,partner}) by search over projective measurements of the assistant.

    Requires d_A = 2 and a two-dimensional assistant (the third party).  The
    value is a lower bound on C_a, and it is at most the A|BC cut value.
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
    t = state.tensor[None]
    return float(_assistant_search(t if partner == "B" else t.swapaxes(2, 3))[0])


# --- triple assembly --------------------------------------------------------


def _check_triple(dims, mid: MeasureId):
    """Raise MeasureError unless a (dims, mid) triple is computable."""
    if mid is MeasureId.ENTANGLEMENT_COST_LOOKUP:
        raise MeasureError(
            "entanglement cost is not computable from amplitudes; "
            "use entanglement_cost_lookup with a named state"
        )
    if dims == (2, 2, 2):
        return
    if mid is not MeasureId.CONCURRENCE_OF_ASSISTANCE:
        raise MeasureError(
            f"{mid.value} triple needs dims (2,2,2), got {dims}: "
            "the two-qubit spin-flip kernel applies to both reduced pairs"
        )
    if dims[0] != 2:
        raise MeasureError("assistance triple needs d_A = 2 for the A|BC cut")
    for partner, k in (("B", 1), ("C", 2)):
        if dims[k] != 2 and dims[3 - k] != 2:
            raise MeasureError(
                f"pair A{partner} needs a qubit partner or a qubit assistant, got dims {dims}")


def measure_triple(state: PureTripartiteState, mid: MeasureId) -> MeasureTriple:
    """Evaluate (E_{A|BC}, E_{AB}, E_{AC}) for the requested measure.

    Concurrence and EoF require a three-qubit state.  Concurrence of
    assistance requires qubit A, and each pair a qubit partner (closed
    form) or a qubit assistant (projective search).  Entanglement cost is
    lookup-only (see entanglement_cost_lookup).  This is the one-state call
    of _measure_triples, so a state and a batch agree bit for bit.
    """
    return MeasureTriple(*_measure_triples(state.dims, state.amps[None], mid)[0].tolist(), mid)


def _measure_triples(dims, amps, mid: MeasureId) -> np.ndarray:
    """(N, 3) triples of N states given as unit-norm amplitude rows.

    Three-qubit rows go through the spin-flip kernel, and each measure maps
    its spectra; qubit-A ca rows through the Cauchy-Binet cut and one pair
    call per partner.
    """
    dims = tuple(dims)
    _check_triple(dims, mid)
    if dims == (2, 2, 2):
        spectra = spinflip_kernel(amps)
        if mid is MeasureId.CONCURRENCE_OF_ASSISTANCE:
            return spectra[..., 0] + spectra[..., 1]
        c = spectra[..., 0] - spectra[..., 1]  # s1 >= s2, so C >= 0
        return formation_of_concurrence(c) if mid is MeasureId.EOF else c
    t = np.asarray(amps).reshape((-1,) + dims)
    return np.stack([_cut_concurrence(t.reshape(len(t), 2, -1)),
                     _pair_assistance(t, "B"), _pair_assistance(t, "C")], axis=1)
