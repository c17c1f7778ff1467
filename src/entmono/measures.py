"""Entanglement measures evaluated on tripartite pure states.

Each measure produces a triple (E_{A|BC}, E_{AB}, E_{AC}); the two-qubit
kernels are the standard spin-flip spectral closed forms.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .states import PureTripartiteState
from .states import reduced_density  # a module attribute here: bench/tracing.py spans it by name

LOG2_3 = math.log2(3.0)
_EPS = np.finfo(float).eps


class MeasureError(ValueError):
    """Measure not applicable to the given state or dimensions."""


class MeasureId(enum.Enum):
    CONCURRENCE = "c"
    CONCURRENCE_OF_ASSISTANCE = "ca"
    EOF = "eof"
    ENTANGLEMENT_COST_LOOKUP = "ec-lookup"

    @classmethod
    def _missing_(cls, value):
        raise MeasureError(f"unknown measure {value!r}; known: {[m.value for m in cls]}")


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


def entanglement_cost_lookup(name: str) -> MeasureTriple:
    """Tabulated entanglement-cost triples; E_C is not computable in general.

    The only entry is the antisymmetric two-qutrit purification,
    (log2 3, 1, 1).
    """
    if name != "antisymmetric_qutrit":
        raise MeasureError(f"no tabulated E_C for state {name!r}")
    return MeasureTriple(LOG2_3, 1.0, 1.0, MeasureId.ENTANGLEMENT_COST_LOOKUP)


# --- the triple kernels: the cut, the spin-flip pairs, the searched pairs ---
#
# A triple is the A|BC cut and one value per pair, and A is a qubit in every
# triple.  Off three qubits, with M the 2 x (dB dC) block of A against BC,
# rho_A = M M^H, and by Cauchy-Binet 2 (1 - Tr rho_A^2) = 4 det rho_A =
# 4 sum |M_0j M_1l - M_0l M_1j|^2 over column pairs j < l: a sum of
# non-negative terms, which does not cancel on near-product cuts.  Every
# value is of degree 2 in psi and is divided by its row's ||psi||^2 (_norm2):
# it refers to the normalized vector on every dims, alike alone or in a batch.
#
# A pair with a qubit partner takes the two-qubit closed form.  With psi its
# 4 x d amplitude block, rows |ab>, the nonzero spin-flip sqrt-spectrum of
# rho = psi psi^H is the set of singular values of the complex symmetric
# a = psi^T (Y x Y) psi (Takagi route), and C_a is their sum S (Laustsen-
# Verstraete-van Enk); a qudit has d <= 4 (see _measure_triples).  On a
# 3 x 3 a, with F = ||a||_F^2, E the sum of its squared 2x2 minors (Cauchy-
# Binet: sum s_i^2 s_j^2 over i < j) and D = |det a|, S^2 = F + 2 e2 and
# e2^2 = E + 2 D S give (S^2 - F)^2 = 4 E + 8 D S.  That quartic is convex
# on [sqrt F, inf) and <= 0 at sqrt F, so Newton from sqrt(3 F) >= S falls
# to S; D = 0 gives S = sqrt(F + 2 sqrt E) exactly.  D's rounding, about u
# F^(3/2), moves S by about that over S e2 - D, so a block near rank 1,
# where S e2 - D < 2^-6 F^(3/2), or one that Newton leaves open at its cap,
# takes the SVD, as does d = 4.
# On three qubits a is 2 x 2, and the QR of its larger column, as in LAPACK's
# dlas2 (Demmel-Kahan 1990), gives the triangle [[f, g], [0, h]]: f = the
# larger column norm, g = |col1^H col2| / f, h = |det a| / f.  a is symmetric,
# so neither depends on which column comes first.  With u = h/f (clipped at 1,
# where rounding can push it past) and v = g/f, C = s1 - s2 = f sqrt((1 - u)^2
# + v^2) and the three-tangle is tau = 4 s1 s2 = 4 u f^2, so C does not cancel
# near product, GHZ or W states.  With p = C_AB^2, q = C_AC^2 and tau from AB,
# the cut is sqrt(p + q + tau) (Coffman-Kundu-Wootters) and each C_a is
# sqrt(C^2 + tau) (Laustsen-Verstraete-van Enk).
#
# A pair with a qubit assistant X is searched.  Measuring X along Bloch
# direction n leaves A with the subnormalized marginal M(n) = Tr_X[rho_AX
# (1 x P(n))], P(n) = (1 + n.sigma) / 2, which is affine in n.  So det M(n)
# is a quadratic Q(n) = c + n.A n + 2 b.n, and the projective measurement
# {n, -n} gives the average concurrence 2 sqrt(Q(n)) + 2 sqrt(Q(-n)).  Its
# maximum over the sphere is the projective lower bound on C_a; concavity
# of sqrt(det) bounds C_a above by the cut.  The quadratic form gives the
# search its derivatives, but its value cancels where Q is small, so values
# are sums of squared minors of the conditional amplitudes (Cauchy-Binet
# again).  Everything runs elementwise or per matrix, so one state and a
# batch agree bit for bit, and the Newton steps can run on the live
# searches only.
#
# The quadratic form also screens the grid; the minor form decides.  With
# nu = ||psi||^2 and u = 2^-53, each form gives det M(n) within a few dozen
# u nu^2: the 16 terms of (1, n) k (1, n) have moduli summing to at most
# nu^2, the squared minors to at most nu^2 / 2, and each term is a product
# of a few amplitudes rounded a few times.  Take delta = 2^-40 nu^2, over 64
# times that.  As det M >= 0 and |sqrt a - sqrt b| <= sqrt |a - b|, the
# screen sqrt Q(n)+ + sqrt Q(-n)+ lies within e = 2 sqrt(delta) = 2^-19 nu
# of half the minor-form value.  So each of a state's best _STARTS grid
# points screens at least its third-best screen value minus 2e, and the
# minor form runs at the points that do: the argmax passes over them pick
# the starts and values of the full grid.  The margin and the gain
# tolerance scale with nu, so a row's search is the same at any scale.
#
# The first start's end n*, with value V, is C_a within a width that a line
# certifies (Gour-Meyer-Sanders 2005).  The rank-one POVMs of the qubit
# assistant are the probability measures on the sphere with mean 0, and C_a
# is the largest mean of f(n) = 4 sqrt Q(n) under them, so if a + g.n >= f
# - w on the sphere, C_a <= a + w.  Take a = V and the line l that touches
# f at n* and -n*: g.n* = (f(n*) - f(-n*)) / 2, and g's tangent part the mean
# of those of grad f = 4 (A m + b) / sqrt Q(m) at m = n* and -n*.  On the
# sphere l^2 - 16 Q is the form at (1, n) of P = [[a^2 - 16 c - lam, w^T],
# [w, g g^T - 16 A + lam I]], w = a g - 16 b, for any lam, and lam = a^2 -
# 16 c + w.n* makes (1, n*) null (the S-lemma; Polik-Terlaky 2007).  In the
# basis (1, 0), (0, n*), (0, u), (0, v), with the step's frame u, v, P has
# blocks K on the first two, T on the last two and C between them, and K =
# C = 0 at an exact stationary point.  If T >= tau I, tau > 0, then P >=
# -delta I with delta = |K| + |C|^2 / tau, so l^2 >= f^2 - 2 delta on the
# sphere, where |(1, n)|^2 = 2; where a > |g|, l >= a - |g| > 0 and f - l <=
# 2 delta / (a - |g|).  Rounding: c, A and b are within 2 u nu^2 of det M's
# coefficients (sums of a few products of sums whose moduli add to at most
# nu^2 / 4), and each block entry sums a few products of terms of modulus at
# most 8 nu^2 (V <= nu, as 2 sqrt Q(n) <= Tr M(n)), so it is within 2^9 u
# nu^2 of its value on the exact form.  Four times that, eta = 2^11 u nu^2,
# bounds the norm of the 4 x 4 error, so |K| and |C| take + eta and tau takes
# - eta.  A state whose width is at most _BRACKET nu keeps its first start;
# the others refine all _STARTS and take the best.


def _norm2(t) -> np.ndarray:
    """||psi||^2 of each row of (N, ...) amplitudes."""
    return (t.real * t.real + t.imag * t.imag).reshape(len(t), -1).sum(axis=1)


@functools.lru_cache(maxsize=None)
def _index_pairs(n):
    """np.triu_indices(n, 1): the pairs i < k of n indices (shared, do not write)."""
    return np.triu_indices(n, 1)


def _cut_concurrence(m) -> np.ndarray:
    """2 sqrt(sum_{j<l} |m_0j m_1l - m_0l m_1j|^2) of (N, 2, n) qubit-A amplitude blocks."""
    top, bottom = m[:, 0], m[:, 1]
    acc = np.zeros(len(m))
    for j in range(m.shape[2] - 1):
        minor = top[:, j, None] * bottom[:, j + 1:] - top[:, j + 1:] * bottom[:, j, None]
        acc += (minor.real * minor.real + minor.imag * minor.imag).sum(axis=1)
    return 2.0 * np.sqrt(acc)


def _spinflip_matrix(psi) -> np.ndarray:
    """The complex symmetric a = psi^T (Y x Y) psi of (..., 4, d) blocks with rows |ab>."""
    r00, r01, r10, r11 = (psi[..., k, :, None] for k in range(4))
    c00, c01, c10, c11 = (psi[..., k, None, :] for k in range(4))
    return r01 * c10 + r10 * c01 - r00 * c11 - r11 * c00


def _spinflip_values(psi) -> np.ndarray:
    """Descending singular values of psi^T (Y x Y) psi for (..., 4, d) blocks with rows |ab>:
    the nonzero sqrt-eigenvalues of rho * rho_tilde for the two-qubit rho = psi psi^H."""
    return np.linalg.svd(_spinflip_matrix(psi), compute_uv=False)


_QUARTIC_STEPS = 16  # at most; on Haar blocks Newton stops within 11
_QUARTIC_COND = 2.0 ** -6  # below this (S e2 - D) / F^(3/2) a block takes the SVD (see above)


def _trace_norm(psi) -> np.ndarray:
    """The sum of the singular values of the spin-flip a of (N, 4, d) blocks (see above)."""
    if psi.shape[2] != 3:
        return _spinflip_values(psi).sum(axis=1)
    a = _spinflip_matrix(psi)
    r, c = [1, 2, 0], [2, 0, 1]
    minors = a[:, r][:, :, r] * a[:, c][:, :, c] - a[:, r][:, :, c] * a[:, c][:, :, r]  # cofactors
    f, e, d = _norm2(a), _norm2(minors), np.abs((a[:, 0] * minors[:, 0]).sum(axis=1))
    fs = np.where(f > 0.0, f, 1.0)  # F, or a stand-in on a zero block
    s, done = np.sqrt(3.0 * fs), d == 0.0
    for _ in range(_QUARTIC_STEPS):  # each row stops on its own
        g = s * s - fs
        step = (g * g - 4.0 * e - 8.0 * d * s) / (4.0 * s * g - 8.0 * d)
        s = np.where(done, s, s - step)
        done |= step <= 4.0 * _EPS * s
        if done.all():
            break
    redo = ~done | (0.5 * s * (s * s - fs) - d < _QUARTIC_COND * fs * np.sqrt(fs)) & (d > 0.0)
    s = np.where(d == 0.0, np.sqrt(f + 2.0 * np.sqrt(e)), s)
    if redo.any():
        s[redo] = _spinflip_values(psi[redo]).sum(axis=1)
    return s


def _qubit_pair(psi):
    """(C, tau), of degree 2 and 4 in psi, of (..., 4, 2) blocks with rows |ab> (see above)."""
    # (Y x Y) psi reverses the rows with signs (-, +, +, -)
    diag = 2.0 * (psi[..., 1, :] * psi[..., 2, :] - psi[..., 0, :] * psi[..., 3, :])
    a00, a11 = diag[..., 0], diag[..., 1]
    q = psi[..., 0] * psi[..., ::-1, 1]
    a01 = (q[..., 1] + q[..., 2]) - (q[..., 0] + q[..., 3])
    sq = diag.real * diag.real + diag.imag * diag.imag
    ff = np.maximum(sq[..., 0], sq[..., 1]) + (a01.real * a01.real + a01.imag * a01.imag)
    ffs = np.where(ff > 0.0, ff, 1.0)  # f^2 (subnormal too), or a stand-in where it is 0
    u = np.minimum(np.abs(a00 * a11 - a01 * a01) / ffs, 1.0)  # h / f
    v = np.abs(a00.conj() * a01 + a01.conj() * a11) / ffs      # g / f
    return np.sqrt(ff) * np.sqrt((1.0 - u) * (1.0 - u) + v * v), 4.0 * u * ff


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
# (1, n_i n_j, 2 n_i) for each grid point n, then for -n: against (c, A, b)
# these give Q(n) and Q(-n) side by side
_GRID_MONOMIALS = np.vstack([np.ones(128), np.tile((_GRID[:, None] * _GRID).reshape(9, 64), 2),
                             2.0 * np.hstack([_GRID, -_GRID])])
_SCREEN_MARGIN = 2.0 ** -18  # 2e per unit ||psi||^2: twice the screen's error bound (see above)
_STARTS = 3          # best grid points refined on a state the dual bound leaves open
_BRACKET = 2.0 ** -36  # per unit ||psi||^2: a narrower dual bracket certifies the first start
_DUAL_ROUNDING = 2.0 ** -42  # eta per unit ||psi||^4: 2^11 u, the bound's rounding (see above)
_NEWTON_STEPS = 8    # at most; on Haar states a search converges in 4 to 6
_RADIUS = 0.3        # first trust radius, about the grid spacing
_GAIN_TOL = 1e-15    # per unit ||psi||^2: a step that promises less ends a search
_SIGNS = np.array([1.0, -1.0])[:, None, None]  # the outcomes n and -n


def _det_form(psi):
    """(c, A, b) with det M(n) = c + n.A n + 2 b.n for psi (N, 2, dP, 2).

    psi has axes A, partner, assistant; c, A and b have shapes (N,),
    (3, 3, N) and (3, N).  This form gives the derivatives and screens the
    grid; it cancels where det M is small, so values come from _minor_form.
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
    j, l = _index_pairs(psi.shape[2])

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


def _tangent_forms(n, c, quad, lin):
    """At unit n (3, N, S), with c, quad and lin broadcast against it: the tangent frame u, v,
    (n.An, u.An, v.An), (u.Au, u.Av, v.Av), (b.n, b.u, b.v) and (sqrt Q(n), sqrt Q(-n))."""
    x, y, z = n
    polar = np.abs(z) > 0.9  # tangent basis u, v = n x u
    zero = np.zeros_like(z)
    u = np.where(polar, np.stack([zero, -z, y]), np.stack([-y, x, zero]))
    u = u / np.sqrt(_sum3(u * u))
    v = n[[1, 2, 0]] * u[[2, 0, 1]] - n[[2, 0, 1]] * u[[1, 2, 0]]
    frame = np.stack([n, u, v])
    af = _sum3(quad * frame[:, None])             # A n, A u, A v
    an = _sum3(frame * af[0])                     # n . A n, u . A n, v . A n
    tt = _sum3(frame[[1, 1, 2]] * af[[1, 2, 2]])  # u . A u, u . A v, v . A v
    ll = _sum3(lin * frame)                       # b . n, b . u, b . v
    return u, v, an, tt, ll, np.sqrt(c + an[0] + _SIGNS * 2.0 * ll[0])


def _ascent_step(n, c, quad, lin, radius):
    """Riemannian Newton step for the objective at unit n, no longer than radius.

    n has shape (3, N, S); quad, lin and c broadcast against it.  Returns
    the step, its length, and its first-order gain g.s, which for a Newton
    step is twice the gain the quadratic model predicts.
    """
    u, v, an, tt, ll, root = _tangent_forms(n, c, quad, lin)  # root: sqrt Q(n), sqrt Q(-n)
    d = 2.0 * (an + _SIGNS[:, None] * ll)        # their derivatives along n, u, v
    g = d / root[:, None]
    g = g[0] + g[1]                              # gradient of 2 sqrt Q(n) + 2 sqrt Q(-n)
    i, j = [1, 1, 2], [1, 2, 2]                  # the Hessian entries uu, uv and vv
    h = 2.0 * tt / root[:, None] - d[:, i] * d[:, j] * (0.5 / (root * root * root))[:, None]
    h = h[0] + h[1]
    g_u, g_v = g[1], g[2]
    h_uu, h_uv, h_vv = h[0] - g[0], h[1], h[2] - g[0]  # the sphere's curvature term
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


def _dual_bound(n, value, c, quad, lin, nu):
    """The width of the bracket on C_a that the line through a search's end n certifies.

    Shapes as in _ascent_step, value and nu like c.  C_a lies within the
    width above value; the width is +inf or NaN where the check fails.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, _, an, tt, ll, root = _tangent_forms(n, c, quad, lin)
        d = 2.0 * (an + _SIGNS[:, None] * ll)
        gam = d[0] / root[0] - d[1] / root[1]  # g along n, u, v
        gam[0] = 2.0 * (root[0] - root[1])
        w = value * gam - 16.0 * ll
        lam = value * value - 16.0 * c + w[0]
        k = value * value - 16.0 * c - lam, w[0], gam[0] * gam[0] - 16.0 * an[0] + lam
        cross = np.concatenate([w[1:], gam[0] * gam[1:] - 16.0 * an[1:]])
        t = gam[[1, 1, 2]] * gam[[1, 2, 2]] - 16.0 * tt  # T without lam I
        t_uu, t_uv, t_vv = t[0] + lam, t[1], t[2] + lam
        eta = _DUAL_ROUNDING * nu * nu
        tau = 0.5 * (t_uu + t_vv - np.sqrt((t_uu - t_vv) ** 2 + 4.0 * t_uv * t_uv)) - eta
        norm_c = np.sqrt((cross * cross).sum(axis=0)) + eta
        delta = np.sqrt(k[0] * k[0] + 2.0 * k[1] * k[1] + k[2] * k[2]) + eta + norm_c * norm_c / tau
        slack = value - np.sqrt(_sum3(gam * gam))  # l >= a - |g| on the sphere
        return np.where((tau > 0.0) & (slack > 0.0), 2.0 * delta / slack, np.inf)


def _grid_starts(psi):
    """The forms (c, A, b, minor form, ||psi||^2) of psi (N, 2, dP, 2), and the grid
    indices and values of each state's best _STARTS grid points, each (_STARTS, N)."""
    c0, quad0, lin0 = _det_form(psi)
    t0 = _minor_form(psi)
    nu = _norm2(psi)
    # the screen sqrt Q(n)+ + sqrt Q(-n)+ on the grid, half the objective, in place
    q = np.concatenate([c0[:, None], quad0.reshape(9, -1).T, lin0.T], axis=1) @ _GRID_MONOMIALS
    np.sqrt(np.maximum(q, 0.0, out=q), out=q)
    grid = q[:, :64]
    grid += q[:, 64:]
    # the minor form where the screen leaves a rank open (see above), -inf elsewhere
    floor = np.partition(grid, -_STARTS, axis=1)[:, -_STARTS] - _SCREEN_MARGIN * nu
    rows, points = np.nonzero(grid >= floor[:, None])
    grid.fill(-np.inf)
    grid[rows, points] = _average_concurrence([x[:, rows, 0] for x in t0],
                                              [[m[points] for m in ket] for ket in _GRID_KETS])
    # the best _STARTS grid points, ties to the lower index: one argmax pass each
    rows, top, best = np.arange(len(psi)), [], []
    for _ in range(_STARTS):
        top.append(k := grid.argmax(axis=1))
        best.append(grid[rows, k])
        grid[rows, k] = -np.inf
    return (c0, quad0, lin0, t0, nu), np.array(top), np.array(best)


def _refine(n, best, rows, forms):
    """Searches from unit n (3, S) with values best (S,) on states rows (S,) of forms.

    Each takes up to _NEWTON_STEPS safeguarded ascent steps, each kept only
    if it raises the objective.  The searches share one flat axis, and a
    search stops on its own criterion and then leaves it, so the steps run
    on live searches only.  Returns the ends (3, S, 1) and values (S, 1).
    """
    c0, quad0, lin0, t0, nu = forms
    n, best = n[..., None], best[:, None]
    radius = np.full(best.shape, _RADIUS)
    end, found, live, own = np.empty(n.shape), np.empty(best.shape), np.arange(len(best)), None
    # outcomes with Q = 0 give infinite derivatives; such steps are rejected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            if own is None:  # the live set changed: take its searches' forms
                own = rows[live]
                # np.take gathers in C order; an index would put the searches outermost
                c, t = c0[own, None], [x.take(own, 1) for x in t0]
                quad, lin = quad0.take(own, -1)[..., None], lin0.take(own, -1)[..., None]
                tol = _GAIN_TOL * nu[own, None]
            step, length, gain = _ascent_step(n, c, quad, lin, radius)
            trial = n + step
            trial = trial / np.sqrt(_sum3(trial * trial))
            value = _average_concurrence(t, _ket_monomials(trial))
            up = value > best
            n = np.where(up, trial, n)
            best = np.where(up, value, best)
            radius = np.where(up, 2.0 * radius, 0.25 * length)
            going = (gain > tol).ravel()
            if not going.all():  # the searches that stop here are final: drop them
                stop = ~going
                end[:, live[stop]], found[live[stop]] = n[:, stop], best[stop]
                live, own = live[going], None
                n, best, radius = n[:, going], best[going], radius[going]
                if not len(live):
                    break
    end[:, live], found[live] = n, best
    return end, found


def _assistant_search(psi) -> np.ndarray:
    """Largest average concurrence of A over projective measurements of the assistant.

    psi has shape (N, 2, dP, 2), axes A, partner, assistant.  Each state's
    best grid point is refined, and where the dual bound at its end is
    wider than _BRACKET ||psi||^2, so are its next _STARTS - 1 points.  The
    value is the best end, never below the grid maximum, and every step is
    per search, so a state's value does not depend on the rest of the batch.
    """
    forms, top, best = _grid_starts(psi)
    c0, quad0, lin0, _, nu = forms
    n, value = _refine(_GRID[:, top[0]], best[0], np.arange(len(psi)), forms)
    width = _dual_bound(n, value, c0[:, None], quad0[..., None], lin0[..., None], nu[:, None])
    value = value[:, 0]
    rows = np.flatnonzero(~(width[:, 0] <= _BRACKET * nu))  # the rows the bound leaves open
    if len(rows):
        _, more = _refine(_GRID[:, top[1:, rows].T.ravel()], best[1:, rows].T.ravel(),
                          np.repeat(rows, _STARTS - 1), forms)
        value[rows] = np.maximum(value[rows], more.reshape(len(rows), -1).max(axis=1))
    return value


def assisted_concurrence(state: PureTripartiteState, partner: str) -> float:
    """C_a(rho_{A,partner}): the pair's column of the ca triple, on every dims it supports.

    A qubit partner takes a closed form (Laustsen, Verstraete and van Enk 2003):
    sqrt(C^2 + tau) on three qubits, the sum of the spin-flip values with a qudit
    assistant.  A qudit partner with a qubit assistant is searched: C_a within
    2^-36 of it where the dual bound certifies the value, else a lower bound;
    at most the A|BC cut either way.
    """
    partner = partner.upper()
    if partner not in ("B", "C"):
        raise MeasureError("partner must be B or C")
    triple = _measure_triples(state.dims, state.amps[None], MeasureId.CONCURRENCE_OF_ASSISTANCE)
    return float(triple[0, 1 if partner == "B" else 2])


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
    if dims[1] != 2 and dims[2] != 2:
        raise MeasureError(f"each pair needs a qubit partner or a qubit assistant, got dims {dims}")


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
    """(N, 3) triples of N states given as amplitude rows, per unit ||psi||^2.

    Three qubits map (p, q, tau) from the pairs' closed form.  Off three
    qubits (ca only) the cut is the Cauchy-Binet sum, a qubit partner's pair
    sums its spin-flip values, and a qubit assistant's pair is searched.
    """
    dims = tuple(dims)
    _check_triple(dims, mid)
    t = np.asarray(amps).reshape((-1,) + dims)
    n = len(t)
    nu = _norm2(t)
    if dims == (2, 2, 2):
        c, tau = _qubit_pair(np.stack([t, t.swapaxes(2, 3)]).reshape(2, n, 4, 2))
        c /= nu
        pq, tau = c * c, tau[0] / (nu * nu)  # (p, q) and tau from AB
        if mid is MeasureId.CONCURRENCE_OF_ASSISTANCE:
            c = np.sqrt(pq + tau)
        triples = np.stack([np.sqrt(pq[0] + pq[1] + tau), c[0], c[1]], axis=1)
        return formation_of_concurrence(triples) if mid is MeasureId.EOF else triples
    k = 1 if dims[1] != 2 else 2  # the qudit, if any (_check_triple)
    if dims[k] > 4:  # its amplitude vectors, one per |a, qubit>, span at most 4 levels
        r = np.linalg.qr(np.moveaxis(t, k + 1, 1).reshape(n, -1, 4), mode="r")
        t = np.moveaxis(r.reshape(n, 4, 2, 2), 1, k + 1)
    triples = np.empty((n, 3))
    triples[:, 0] = _cut_concurrence(t.reshape(n, 2, -1))
    for k, psi in ((1, t), (2, t.swapaxes(2, 3))):  # axes A, partner, the third party
        triples[:, k] = (_trace_norm(psi.reshape(n, 4, -1)) if dims[k] == 2
                         else _assistant_search(psi))  # a qubit assistant (_check_triple)
    return triples / nu[:, None]
