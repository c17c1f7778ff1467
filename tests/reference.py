"""References that tests hold the batch code to; no package path calls them.

Mixed-state formulas on density matrices, the extended-precision three-qubit
kernel, the dense assistant search and its full-Gram ascent step, sweep
chunks drawn from numpy's own Generators, and x and the residual of a float
triple at 60 significant digits.  ``sweep_rows`` is no reference: it draws
the sweep samples that property tests read, by the package's chunk code.
"""

import functools
from decimal import Decimal, localcontext

import numpy as np

from entmono import MeasureError, StateError
from entmono import measures as m
from entmono import monogamy
from entmono.measures import _spinflip_values, formation_of_concurrence

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

# Spectral values below this are numerical noise from exactly-zero
# eigenvalues of rank-deficient products; sqrt would inflate them to ~1e-8.
_SPECTRUM_FLOOR = 1e-14


def validate(rho: np.ndarray) -> np.ndarray:
    """rho as a density matrix: square, Hermitian and of unit trace within
    1e-10, and positive semidefinite (costs an eigh)."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise StateError(f"density matrix must be square, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise StateError("density matrix is not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise StateError("density matrix trace differs from 1 by more than 1e-10")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -1e-10:
        raise StateError(f"density matrix has eigenvalue {w[0]} < -1e-10")
    return rho


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), in [1/dim, 1] up to round-off."""
    return float(np.real(np.trace(rho @ rho)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) in base 2."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def spinflip_sqrt_spectrum(rho: np.ndarray) -> np.ndarray:
    """Descending sqrt-eigenvalues of rho * rho_tilde for a two-qubit rho.

    rho_tilde = (Y x Y) rho* (Y x Y).  They are the singular values of the
    complex symmetric A_kl = psi_k^T (Y x Y) psi_l over the subnormalized
    eigenvectors psi_k = sqrt(w_k) v_k of rho (Takagi route), which avoids
    squaring the spectrum and is exact on rank-deficient rho; noise-level
    eigenvalues of rho are dropped first.
    """
    if len(rho) != 4:
        raise MeasureError(f"two-qubit kernel needs dim 4, got {len(rho)}")
    w, v = np.linalg.eigh(rho)
    keep = w > _SPECTRUM_FLOOR
    s = _spinflip_values((v[:, keep] * np.sqrt(w[keep]))[None])[0]
    return np.concatenate([s, np.zeros(4 - s.size)])


def wootters_concurrence(rho: np.ndarray) -> float:
    """Two-qubit mixed-state concurrence max(0, s1 - s2 - s3 - s4)."""
    s = spinflip_sqrt_spectrum(rho)
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


def concurrence_of_assistance(rho: np.ndarray) -> float:
    """Two-qubit concurrence of assistance, s1 + s2 + s3 + s4."""
    return float(np.sum(spinflip_sqrt_spectrum(rho)))


def eof_two_qubit(rho: np.ndarray) -> float:
    """Two-qubit entanglement of formation h((1 + sqrt(1 - C^2)) / 2)."""
    return formation_of_concurrence(wootters_concurrence(rho))


def full_gram_ascent_step(n, c, quad, lin, radius):
    """measures._ascent_step as it was, with the full 3x3 Gram matrix and 2x2 Hessian.

    The package's step computes only the entries the step reads, each by
    the same operations in the same order, so the two agree bit for bit.
    """
    x, y, z = n
    polar = np.abs(z) > 0.9  # tangent basis u, v = n x u
    zero = np.zeros_like(z)
    u = np.where(polar, np.stack([zero, -z, y]), np.stack([-y, x, zero]))
    u = u / np.sqrt(m._sum3(u * u))
    v = n[[1, 2, 0]] * u[[2, 0, 1]] - n[[2, 0, 1]] * u[[1, 2, 0]]
    frame = np.stack([n, u, v])
    af = m._sum3(quad * frame[:, None])            # A n, A u, A v
    gram = m._sum3(frame[:, None] * af[None])      # gram[i, j] = frame_i . A frame_j
    ll = m._sum3(lin * frame)                      # b . n, b . u, b . v
    root = np.sqrt(c + gram[0, 0] + m._SIGNS * 2.0 * ll[0])  # sqrt Q(n), sqrt Q(-n)
    d = 2.0 * (gram[:, 0] + m._SIGNS[:, None] * ll)          # their derivatives along n, u, v
    g = d / root[:, None]
    g = g[0] + g[1]                                # gradient of 2 sqrt Q(n) + 2 sqrt Q(-n)
    dt = d[:, 1:]
    h = 2.0 * gram[1:, 1:] / root[:, None, None] - dt[:, :, None] * dt[:, None] * (
        0.5 / (root * root * root))[:, None, None]
    h = h[0] + h[1]
    g_u, g_v = g[1], g[2]
    h_uu, h_uv, h_vv = h[0, 0] - g[0], h[0, 1], h[1, 1] - g[0]  # the sphere's curvature term
    top = 0.5 * (h_uu + h_vv + np.sqrt((h_uu - h_vv) ** 2 + 4.0 * h_uv * h_uv))
    det = h_uu * h_vv - h_uv * h_uv
    s_u, s_v = (h_uv * g_v - h_vv * g_u) / det, (h_uv * g_u - h_uu * g_v) / det
    fits = (top < 0) & (s_u * s_u + s_v * s_v <= radius * radius)
    sigma = np.maximum(top, 0.0) + np.sqrt(g_u * g_u + g_v * g_v) / radius
    h_uu, h_vv = h_uu - sigma, h_vv - sigma
    det = h_uu * h_vv - h_uv * h_uv
    s_u = np.where(fits, s_u, (h_uv * g_v - h_vv * g_u) / det)
    s_v = np.where(fits, s_v, (h_uv * g_u - h_uu * g_v) / det)
    return s_u * u + s_v * v, np.sqrt(s_u * s_u + s_v * s_v), g_u * s_u + g_v * s_v


_GRID_BLOCK = 64  # states per grid evaluation, which bounds its temporaries


def _dense_steps(n, best, c, quad, lin, t, tol):
    """The (N, S) searches from n (3, N, S) stepped together until none is active.

    A search that has stopped is carried along, masked out of each update.
    """
    radius = np.full(best.shape, m._RADIUS)
    active = np.ones(best.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(m._NEWTON_STEPS):
            step, length, gain = full_gram_ascent_step(n, c, quad, lin, radius)
            trial = n + step
            trial = trial / np.sqrt(m._sum3(trial * trial))
            value = m._average_concurrence(t, m._ket_monomials(trial))
            up = active & (value > best)
            n = np.where(up, trial, n)
            best = np.where(up, value, best)
            radius = np.where(up, 2.0 * radius, 0.25 * length)
            active &= gain > tol
            if not active.any():
                break
    return n, best


def dense_assistant_search(psi) -> np.ndarray:
    """measures._assistant_search with every search kept through every step.

    The independent reference for the package's search.  It evaluates the
    minor form at every grid point, in blocks of _GRID_BLOCK states, where
    the package evaluates it only where its det-form screen leaves a point's
    rank open, and it steps with full_gram_ascent_step, every search of a
    stage together.  The starts come from a stable argsort of the grid.
    Every state steps its best start; the states whose dual bound
    (measures._dual_bound) is wider than _BRACKET ||psi||^2 step their
    other starts too.
    """
    c, quad, lin = m._det_form(psi)
    t = m._minor_form(psi)
    nu = m._norm2(psi)
    tol = m._GAIN_TOL * nu[:, None]
    kets = m._ket_monomials(m._GRID)
    grid = np.concatenate([m._average_concurrence([x[:, k:k + _GRID_BLOCK] for x in t], kets)
                           for k in range(0, len(psi), _GRID_BLOCK)])
    top = np.argsort(-grid, axis=1, kind="stable")[:, :m._STARTS]
    c, quad, lin = c[:, None], quad[..., None], lin[..., None]
    n, best = _dense_steps(m._GRID[:, top[:, :1]], np.take_along_axis(grid, top[:, :1], axis=1),
                           c, quad, lin, t, tol)
    width = m._dual_bound(n, best, c, quad, lin, nu[:, None])
    value = best[:, 0]
    open_ = ~(width[:, 0] <= m._BRACKET * nu)
    if open_.any():
        rest = top[open_, 1:]
        _, more = _dense_steps(m._GRID[:, rest], np.take_along_axis(grid[open_], rest, axis=1),
                               c[open_], quad[..., open_, :], lin[..., open_, :],
                               [x[:, open_] for x in t], tol[open_])
        value[open_] = np.maximum(value[open_], more.max(axis=1))
    return value


def spinflip_kernel(amps) -> np.ndarray:
    """Spin-flip spectra of the A|BC cut and the AB, AC pairs, in clongdouble.

    The three-qubit kernel that measures used before its float64 closed
    form.  ``amps`` has shape (N, 8) or (N, 2, 2, 2).  Returns (N, 3, 2):
    row 0 is (C, 0) for the A|BC cut, rows 1 and 2 are (s1, s2) of the AB
    and AC pairs, all divided by the squared norm.  The cut is the purity
    form sqrt(2 (1 - Tr rho_A^2)) and the pair values come from the trace
    and determinant of a^H a, so both cancel near product, GHZ and W
    states (by about 1e-10 with an 80-bit long double, more where long
    double is float64); on well-conditioned states it is exact.
    """
    t = np.asarray(amps).astype(np.clongdouble).reshape(-1, 2, 2, 2)
    nsq = (t.reshape(-1, 1, 8).conj() @ t.reshape(-1, 8, 1)).real[:, 0]
    cut = t.reshape(-1, 2, 4)
    psi = np.stack([t.reshape(-1, 4, 2), t.swapaxes(2, 3).reshape(-1, 4, 2)], axis=1)
    a = np.concatenate([(cut @ cut.conj().swapaxes(-1, -2))[:, None],
                        psi.swapaxes(-1, -2) @ _YY @ psi], axis=1)
    m = a.conj().swapaxes(-1, -2) @ a
    m00, m01, m10, m11 = m.reshape(-1, 3, 4).transpose(2, 0, 1)
    tr = (m00 + m11).real
    det = (m00 * m11 - m01 * m10).real
    out = np.zeros((len(t), 3, 2), dtype=np.longdouble)
    nn = nsq[:, 0] * nsq[:, 0]
    out[:, 0, 0] = np.sqrt(np.maximum(2 * (nn - tr[:, 0]) / nn, 0))
    tr_pair = tr[:, 1:]
    disc = np.sqrt(np.maximum(0, tr_pair * tr_pair - 4 * det[:, 1:]))
    s = np.sqrt(np.maximum((tr_pair[..., None] + disc[..., None] * np.array([1, -1])) / 2, 0))
    out[:, 1:] = s / nsq[..., None]
    return out.astype(float)


def numpy_chunk_rows(dims, family, seed, chunk, stop) -> np.ndarray:
    """Rows 0..stop - 1 of sweep chunk ``chunk`` at seed by states.family_rows'
    recipe, drawn one row at a time from numpy's own
    Generator(PCG64(SeedSequence((seed, chunk)))) and normalized one at a time."""
    total = dims[0] * dims[1] * dims[2]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chunk))))
    rows = []
    for _ in range(stop):
        if family == "haar":
            raw = rng.standard_normal(2 * total)
            amps = raw[:total] + 1j * raw[total:]
        elif family == "w_class":
            raw = rng.standard_normal(8)
            b = raw[:4] + 1j * raw[4:]
            amps = np.zeros(8, dtype=complex)
            amps[[0, 4, 2, 1]] = b / np.linalg.norm(b)  # |000>, |100>, |010>, |001>
        else:
            raw = rng.standard_normal(7)
            lam = np.abs(raw[:5])
            lam /= np.linalg.norm(lam)
            amps = np.zeros(8, dtype=complex)
            amps[[0, 4, 5, 6, 7]] = lam
            amps[4] *= np.exp(1j * np.arctan2(raw[6], raw[5]))
        rows.append(amps / np.linalg.norm(amps))
    return np.array(rows).reshape(-1, total)


def sweep_rows(dims, family, seed, n) -> np.ndarray:
    """Amplitude rows of the first n samples of a sweep at seed, drawn by the
    chunk code: the states that property tests sample."""
    chunk = monogamy._SWEEP_CHUNK
    return np.concatenate([monogamy._chunk_rows(dims, family, seed, start, min(start + chunk, n))
                           for start in range(0, n, chunk)])


@functools.lru_cache(maxsize=1 << 16)
def _ln(v):
    """The natural log of a float at 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(v).ln()


def x_exact(cut, hi, lo, y):
    """x = lo^y / (cut^y - hi^y) of float inputs, at 60 significant digits
    (stdlib decimal ln and exp), rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = 60
        power = lambda v: (Decimal(y) * (_ln(v) - _ln(cut))).exp()  # (v / cut)^y
        return float(power(lo) / (1 - power(hi)))


def scale_free_residual(cut, hi, lo, a):
    """1 - (hi/cut)^a - (lo/cut)^a of float inputs, at 60 significant digits:
    a Decimal whose sign is that of the triple's residual at a."""
    with localcontext() as ctx:
        ctx.prec = 60
        power = lambda v: (Decimal(a) * (_ln(v) - _ln(cut))).exp()
        return 1 - power(hi) - power(lo)
