"""Tripartite pure states, partial traces as Hermitian arrays, and Haar sampling.

All states live on H_A (x) H_B (x) H_C with amplitudes stored row-major over
the product basis |abc>, i.e. index i = a*dB*dC + b*dC + c.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Dense vectors only; anything bigger belongs to a different tool.
MAX_TOTAL_DIM = 4096

# Inputs with a norm further from 1 than this are rejected rather than
# silently rescaled; closer ones are renormalized (decimal truncation in
# hand-written files is common).
NORM_REJECT_TOL = 1e-6


class StateError(ValueError):
    """Invalid state data (dimensions, normalization, file format)."""


@dataclass(frozen=True)
class PureTripartiteState:
    """Normalized pure state of a tripartite system.

    Attributes
    ----------
    dims : (dA, dB, dC)
    amps : complex vector of length dA*dB*dC, unit norm
    """

    dims: tuple[int, int, int]
    amps: np.ndarray

    def __post_init__(self):
        self.amps.setflags(write=False)


@dataclass(frozen=True)
class SchmidtParams:
    """Five-parameter canonical form of a three-qubit pure state.

    lambda0..lambda4 are non-negative with squares summing to 1; phi is the
    phase carried by the |100> term.
    """

    lambdas: tuple[float, float, float, float, float]
    phi: float = 0.0

    def __post_init__(self):
        if len(self.lambdas) != 5:
            raise StateError("need exactly five Schmidt coefficients")
        if not all(math.isfinite(l) for l in self.lambdas):
            raise StateError("Schmidt coefficients must be finite")
        if not math.isfinite(self.phi):
            raise StateError("Schmidt phase phi must be finite")
        if any(l < 0 for l in self.lambdas):
            raise StateError("Schmidt coefficients must be non-negative")
        s = sum(l * l for l in self.lambdas)
        if abs(s - 1.0) > 1e-9:
            raise StateError(f"Schmidt coefficients have squared sum {s}, not 1")


def _check_dims(dims):
    """(dA, dB, dC) as ints, from integers (not bools, floats or strings)."""
    try:
        if any(isinstance(d, bool) or not isinstance(d, numbers.Integral) for d in dims):
            raise TypeError
        dims = tuple(int(d) for d in dims)
    except TypeError:
        raise StateError(f"dims must be three positive integers, got {dims!r}") from None
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise StateError(f"dims must be three positive integers, got {dims}")
    total = dims[0] * dims[1] * dims[2]
    if total > MAX_TOTAL_DIM:
        raise StateError(f"total dimension {total} exceeds limit {MAX_TOTAL_DIM}")
    return dims


def pure_state_new(dims, amplitudes) -> PureTripartiteState:
    """Build a state from raw amplitudes, renormalizing small deviations.

    Rejects non-finite amplitudes and vectors whose norm is outside
    [1 - 1e-6, 1 + 1e-6] (all-zero included).
    """
    dims = _check_dims(dims)
    amps = np.asarray(amplitudes, dtype=complex).ravel().copy()
    total = dims[0] * dims[1] * dims[2]
    if amps.size != total:
        raise StateError(f"amplitude vector has length {amps.size}, dims need {total}")
    if not np.isfinite(amps).all():
        raise StateError("amplitudes must be finite")
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise StateError("all-zero amplitude vector")
    if abs(norm - 1.0) > NORM_REJECT_TOL:
        raise StateError(f"norm {norm} deviates from 1 by more than {NORM_REJECT_TOL}")
    return PureTripartiteState(dims, amps / norm)


def unit_rows(v) -> np.ndarray:
    """The rows of a 2-D array, each divided by its 2-norm.

    The arithmetic is that of ``v[k] / np.linalg.norm(v[k])``, one BLAS dot
    per real and imaginary part, so a batch of rows normalizes bit for bit
    like the same rows one at a time.
    """
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    sq = sum(p[:, None, :] @ p[:, :, None] for p in parts)
    return v / np.sqrt(sq[:, 0])


def _exact_state(dims, amps) -> PureTripartiteState:
    """Internal constructor for vectors that are unit-norm by construction."""
    amps = np.asarray(amps, dtype=complex).ravel()
    return PureTripartiteState(tuple(dims), unit_rows(amps[None])[0])


def _schmidt_rows(lam, phi) -> np.ndarray:
    """Unit rows of ``from_schmidt`` states from (N, 5) coefficients and N phases."""
    amps = np.zeros((len(lam), 8), dtype=complex)
    amps[:, 0] = lam[:, 0]
    amps[:, 4] = lam[:, 1] * np.exp(1j * phi)
    amps[:, 5:] = lam[:, 2:]
    return unit_rows(amps)


def from_schmidt(p: SchmidtParams) -> PureTripartiteState:
    """Three-qubit state in generalized Schmidt form.

    Amplitudes: l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>.
    """
    return PureTripartiteState((2, 2, 2), _schmidt_rows(np.array([p.lambdas]), np.array([p.phi]))[0])


def _w_rows(b) -> np.ndarray:
    """Unit rows b0|000> + b1|100> + b2|010> + b3|001> from (N, 4) coefficients."""
    amps = np.zeros((len(b), 8), dtype=complex)
    amps[:, 0:5:4] = b[:, :2]   # |000>, |100>
    amps[:, 2:0:-1] = b[:, 2:]  # |010>, |001>
    return unit_rows(amps)


def w_class(b0, b1, b2, b3) -> PureTripartiteState:
    """W-class state b0|000> + b1|100> + b2|010> + b3|001>."""
    b = np.asarray([b0, b1, b2, b3], dtype=complex)
    if not np.isfinite(b).all():
        raise StateError("W-class coefficients must be finite")
    s = float(np.sum(np.abs(b) ** 2))
    if abs(s - 1.0) > 1e-9:
        raise StateError(f"W-class coefficients have squared sum {s}, not 1")
    return PureTripartiteState((2, 2, 2), _w_rows(b[None])[0])


def ghz() -> PureTripartiteState:
    """Three-qubit GHZ state (|000> + |111>)/sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0
    return _exact_state((2, 2, 2), amps)


def w_state() -> PureTripartiteState:
    """Symmetric W state (|100> + |010> + |001>)/sqrt(3)."""
    return w_class(0.0, 1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3))


def example_223() -> PureTripartiteState:
    """The 2x2x3 state (|000> + |111> + |phi+>|2>)/sqrt(3).

    Nonzero amplitudes: 1/sqrt(3) at |000>, |111>; 1/sqrt(6) at |012>, |102>.
    Its assistance triple is the canonical non-monogamy witness.
    """
    amps = np.zeros(12, dtype=complex)
    s3, s6 = 1 / math.sqrt(3), 1 / math.sqrt(6)
    amps[0 * 6 + 0 * 3 + 0] = s3  # |000>
    amps[1 * 6 + 1 * 3 + 1] = s3  # |111>
    amps[0 * 6 + 1 * 3 + 2] = s6  # |012>
    amps[1 * 6 + 0 * 3 + 2] = s6  # |102>
    return _exact_state((2, 2, 3), amps)


def antisymmetric_qutrit() -> PureTripartiteState:
    """Purification of the totally antisymmetric two-qutrit state.

    (1/sqrt(6)) sum_sigma sign(sigma) |sigma(0) sigma(1) sigma(2)> over all
    six permutations of {0,1,2}.
    """
    from itertools import permutations

    amps = np.zeros(27, dtype=complex)
    for perm in permutations(range(3)):
        # parity of a 3-permutation
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
        sign = -1.0 if inv % 2 else 1.0
        a, b, c = perm
        amps[a * 9 + b * 3 + c] = sign
    return _exact_state((3, 3, 3), amps)


FAMILIES = ("haar", "w_class", "schmidt")


def _check_family(dims, family):
    """Raise StateError unless ``family_rows`` can draw the family on dims."""
    if family not in FAMILIES:
        raise StateError(f"unknown family {family!r}; known: {FAMILIES}")
    if family != "haar" and tuple(dims) != (2, 2, 2):
        raise StateError(f"{family} family is defined on dims (2,2,2)")


def family_rows(dims, family, words) -> np.ndarray:
    """Unit amplitude rows of random states of a family, one per row of seed words.

    ``words`` is an (N, 4) uint64 array of PCG64 seed words, such as a
    ``stream_words`` block; row k draws from the stream of
    ``Generator(PCG64(s))`` for a seed sequence s whose
    ``generate_state(4, np.uint64)`` is ``words[k]``.  haar takes
    2 dA dB dC normals (real parts, then imaginary parts); w_class takes 8
    normals, the real then imaginary parts of b0..b3; schmidt takes 5
    normals, whose absolute values are l0..l4, then a uniform phase phi.
    The coefficients are normalized, then placed as in ``w_class`` and
    ``from_schmidt``.  All rows are normalized at once with the arithmetic
    of the one-state constructors, which are the one-row calls of the same
    helpers.
    """
    _check_family(dims, family)
    total = dims[0] * dims[1] * dims[2]
    if family == "schmidt":
        raw = _draws(words, 5, phase=True)
        return _schmidt_rows(unit_rows(np.abs(raw[:, :5])), raw[:, 5])
    raw = _draws(words, 2 * total if family == "haar" else 8, phase=False)
    if family == "haar":
        return unit_rows(raw[:, :total] + 1j * raw[:, total:])
    return _w_rows(unit_rows(raw[:, :4] + 1j * raw[:, 4:]))


def haar_random(dims, rng_seed) -> PureTripartiteState:
    """Haar-random pure state: normalized i.i.d. complex Gaussian vector.

    The state drawn from ``Generator(PCG64(rng_seed))``, where ``rng_seed``
    may be an int, a sequence of ints, or a numpy SeedSequence.
    """
    dims = _check_dims(dims)
    if not isinstance(rng_seed, np.random.bit_generator.ISeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    words = rng_seed.generate_state(4, np.uint64)[None]
    return PureTripartiteState(dims, family_rows(dims, "haar", words)[0])


# --- per-index streams ------------------------------------------------------
#
# Sample i of a sweep at seed s draws from Generator(PCG64(SeedSequence((s, i)))).
# A stream is named by the 4 uint64 words its SeedSequence hands PCG64, and
# ``stream_words`` computes them for a block of indices below 2**32 bit for
# bit, without one SeedSequence object per index: numpy's SeedSequence hash
# (mix_entropy and generate_state in numpy/random/bit_generator.pyx) runs on
# uint32 columns over the whole block.  Such an index is one entropy word,
# so every row of a block has the same word count.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE, _XSHIFT = 4, 16


def _entropy_words(seed, start, n):
    """Entropy words of (seed, i) for the n indices i from start on.

    Returns an (n, W) uint32 array of the words of seed, least significant
    first, then of i, zero-padded on the right to W >= the pool size.
    start + n must be at most 2**32.
    """
    n_seed = max(1, -(-seed.bit_length() // 32))
    words = np.zeros((n, max(_POOL_SIZE, n_seed + 1)), np.uint32)
    words[:, :n_seed] = [seed >> 32 * j & _MASK32 for j in range(n_seed)]
    words[:, n_seed] = np.arange(start, start + n, dtype=np.uint32)
    return words


def _hash_consts(hash_const, mult):
    """The (xor, multiply) constants of successive hashmix calls."""
    while True:
        prev, hash_const = hash_const, hash_const * mult & _MASK32
        yield prev, hash_const


def _hashmix(value, consts, k):
    """numpy's hashmix with the next k constants of consts, one per column
    of the uint32 array value broadcast to k columns."""
    xor, mul = np.array([next(consts) for _ in range(k)], np.uint32).T
    value = (value ^ xor) * mul
    return value ^ value >> _XSHIFT


def _mix(x, y):
    """numpy's SeedSequence mix of two uint32 arrays."""
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ r >> _XSHIFT


def stream_words(seed, start, stop):
    """(stop - start, 4) uint64 rows SeedSequence((seed, i)).generate_state(4, np.uint64)
    for i in range(start, stop), bit for bit.

    seed and indices are non-negative ints; a block that reaches 2**32
    takes numpy's own SeedSequence for each index.
    """
    seed, start, stop = int(seed), int(start), int(stop)
    if stop > 1 << 32:
        return np.array([np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
                         for i in range(start, stop)], np.uint64).reshape(-1, 4)
    words = _entropy_words(seed, start, stop - start)
    consts = _hash_consts(_INIT_A, _MULT_A)
    # entropy shorter than the pool hashes as if padded with zero words
    pool = _hashmix(words[:, :_POOL_SIZE], consts, _POOL_SIZE)
    for src in range(_POOL_SIZE):  # each word mixes into the others, in numpy's order
        dst = [k for k in range(_POOL_SIZE) if k != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], consts, len(dst)))
    for src in range(_POOL_SIZE, words.shape[1]):  # entropy beyond the pool
        pool = _mix(pool, _hashmix(words[:, src:src + 1], consts, _POOL_SIZE))
    # generate_state: 8 uint32 words from the pool in turn, paired low word first
    out = _hashmix(np.tile(pool, 2), _hash_consts(_INIT_B, _MULT_B), 8).astype(np.uint64)
    return out[:, 0::2] | out[:, 1::2] << np.uint64(32)


@dataclass
class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose generate_state(4, np.uint64) is a given row."""

    row: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:  # not PCG64's request
            raise ValueError(f"holds 4 uint64 words, asked for {n_words} {np.dtype(dtype)}")
        return self.row


# --- batched draw -------------------------------------------------------------
#
# Rows of at most _BATCH_DRAWS draws are drawn without Generators, in four steps.
# 1. PCG64 (numpy's pcg64.h: a 128-bit LCG with multiplier M and XSL-RR
#    output, O'Neill 2014) seeded with the words (w0, w1, w2, w3) starts at
#    ((inc + s) * M + inc) mod 2**128, with s = w0 << 64 | w1 and
#    inc = (w2 << 64 | w3) << 1 | 1, and steps before each output.  So output
#    j reads the state P_j * s + Q_j * inc with P_j = M**(j+2) and
#    Q_j = 1 + M + ... + M**(j+2), computed for the whole block at once on
#    uint64 words, with 32-bit halves for the carries.
# 2. numpy's standard normal (random_standard_normal in distributions.c, the
#    ziggurat of Marsaglia and Tsang 2000) reads idx = r & 0xff, the sign at
#    bit 8 and rabs = r >> 9 & (2**52 - 1) from output r, and returns
#    x = +-rabs * wi[idx] from r alone iff rabs < ki[idx]; about 1.6% of
#    draws leave this fast path and read more outputs.  The path holds the x
#    below the edge 2**52 * wi[idx-1] of the next narrower layer, so ki[idx] =
#    wi[idx-1] / wi[idx] * 2**52 rounded; the base strip, idx 0, takes the
#    widest layer's edge wi[255] = r * 2**-52, and the top layer, idx 1, has
#    no fast path.  A uniform on [0, 1) is (r >> 11) * 2**-53.
# 3. Off the fast path in a layer idx >= 1, numpy's rejection step keeps x iff
#    (fi[idx-1] - fi[idx]) * u + fi[idx] < exp(-x**2 / 2) for the uniform u of
#    the next output, fi[idx] = exp(-(2**52 * wi[idx])**2 / 2) and fi[0] = 1,
#    and otherwise starts over after u.  So a row whose first slow draw, at
#    output p, is settled there keeps x at p or not, and reads on from p + 2.
# 4. Rows with a tail draw (idx 0), a decision within _ACCEPT_BAND of its
#    threshold or a second slow draw, about 3% of them, take their Generators.
#
# wi is read back from numpy once per process through the public PCG64 state
# setter, and numpy is probed on both sides of every ki and of one accept
# threshold a layer (``_ziggurat_tables``).

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
_MOD128 = 1 << 128
_MASK52 = (1 << 52) - 1
_MASK64 = (1 << 64) - 1
# The batch's cost grows with a row's draws faster than a Generator's: for
# haar rows of 16, 24, 32, 40 and 64 draws it took 0.39, 0.62, 0.85, 1.04
# and 1.66 times as long (512-row blocks, numpy 2.4 on a 2-vCPU Xeon host).
_BATCH_DRAWS = 32
# A batch is drawn in blocks of _DRAW_BLOCK rows, whose (draws + 2, rows)
# uint64 arrays stay within a core's 2 MB L2 cache: _pcg64_outputs took 0.67
# us a row of 16 normals at 512 rows and 1.3-1.7 at 2048, and 2048 rows drew
# in 1.1-1.6 us a row in 512-row blocks against 1.6-2.5 in one (same host).
_DRAW_BLOCK = 512
_ACCEPT_BAND = 1e-12  # relative to exp(-x**2 / 2): fi is derived, and exp is libm's


@functools.cache
def _pcg_consts(k):
    """(2, 4, k, 1) uint64: P_j, then Q_j, of the first k outputs, each as
    the low and high 32 bits of its low word, its low word and its high word."""
    c = np.zeros((2, 4, k, 1), np.uint64)
    p, q = _PCG_MULT, _PCG_MULT + 1  # the seeded state is p s + q inc
    for j in range(k):
        p, q = p * _PCG_MULT % _MOD128, (q * _PCG_MULT + 1) % _MOD128
        for op, const in enumerate((p, q)):
            c[op, :, j, 0] = [const & _MASK32, const >> 32 & _MASK32, const & _MASK64, const >> 64]
    return c


def _mul128(lo, hi, c):
    """(low, high) uint64 words of (hi << 64 | lo) * C_j mod 2**128, over
    the N words lo and hi and the k constants c of ``_pcg_consts``."""
    u = np.uint64
    c0, c1, c_lo, c_hi = c
    x0, x1 = lo & u(_MASK32), lo >> u(32)
    low = x0 * c0
    mid = x1 * c0 + (low >> u(32))
    mid2 = x0 * c1 + (mid & u(_MASK32))
    high = x1 * c1 + (mid >> u(32)) + (mid2 >> u(32)) + hi * c_lo + lo * c_hi
    return low & u(_MASK32) | mid2 << u(32), high


def _pcg64_outputs(rows, k):
    """(k, N) uint64: the first k outputs of PCG64 seeded with each of the
    (N, 4) uint64 rows, as ``PCG64(_StateWords(row)).random_raw(k)``."""
    u = np.uint64
    p, q = _pcg_consts(k)
    s_lo, s_hi = _mul128(rows[:, 1], rows[:, 0], p)
    # inc = (w2 << 64 | w3) << 1 | 1
    inc_lo, inc_hi = _mul128(rows[:, 3] << u(1) | u(1), rows[:, 2] << u(1) | rows[:, 3] >> u(63), q)
    lo = s_lo + inc_lo
    hi = s_hi + inc_hi + (lo < s_lo)
    # XSL-RR: the xor of the halves, rotated right by the top 6 bits
    x, rot = hi ^ lo, hi >> u(58)
    return x >> rot | x << ((u(64) - rot) & u(63))


def _ziggurat(r, wi, ki):
    """(x, fast): numpy's standard normal on the raw outputs r where it reads r alone."""
    u = np.uint64
    idx = (r & u(0xFF)).astype(np.intp)
    rabs = r >> u(9) & u(_MASK52)
    x = rabs * wi[idx]
    sign = x.view(u)
    sign ^= (r & u(0x100)) << u(55)  # bit 8 negates x: it moves to the sign bit
    return x, rabs < ki[idx]


def _accepts(idx, x, r, fi):
    """(keep, settled): numpy's rejection step on the slow draws x of layers
    idx >= 1 with the uniforms of the raw outputs r, and where fi settles it."""
    lhs = (fi[idx - 1] - fi[idx]) * ((r >> np.uint64(11)) * 2.0**-53) + fi[idx]
    rhs = np.exp(-0.5 * x * x)
    return lhs < rhs, np.abs(lhs - rhs) > _ACCEPT_BAND * rhs


def _draw_row(row, rng, n, phase):
    """n standard normals from rng into row, then a uniform phase on [0, 2 pi) if phase."""
    rng.standard_normal(out=row[:n])
    if phase:
        row[n] = rng.uniform(0.0, 2.0 * math.pi)


def _fast_rows(words, n, phase, wi, ki, fi):
    """(out, final): the batched rows of ``_draws`` with the tables (wi, ki, fi),
    and which rows are final: all their normals on the fast path, or all but
    one that the rejection step settles."""
    r = _pcg64_outputs(words, n + phase + 2)
    x, fast = _ziggurat(r, wi, ki)
    final = fast[:n].all(axis=0)
    out = np.empty((len(words), n + phase))
    out[:, :n] = x[:n].T
    at = r[n].copy()  # the output each phase reads
    rows = np.flatnonzero(~final)
    if rows.size:  # one-row blocks mostly skip this
        # a row's first slow draw p reads u at p + 1, and its normals then use
        # the outputs to n + 1 but u, and but x if rejected or n + 1 if kept
        p = np.argmin(fast[:n, rows], axis=0)
        idx = (r[p, rows] & np.uint64(0xFF)).astype(np.intp)
        keep, settled = _accepts(idx, x[p, rows], r[p + 1, rows], fi)
        use, cols = np.ones((n + 2, len(rows)), bool), np.arange(len(rows))
        use[p + 1, cols] = use[np.where(keep, n + 1, p), cols] = False
        settled &= (idx > 0) & ((use & ~fast[:n + 2, rows]).sum(axis=0) == keep)
        rows, use, keep = rows[settled], use[:, settled], keep[settled]
        final[rows] = True
        out[rows, :n] = x[:n + 2, rows].T[use.T].reshape(-1, n)
        if phase:
            at[rows] = r[n + 2 - keep, rows]
    if phase:
        out[:, n] = 2.0 * math.pi * ((at >> np.uint64(11)) * 2.0**-53)
    return out, final


def _draws(words, n, phase):
    """(len(words), n + phase) array whose row k is ``_draw_row`` from
    ``Generator(PCG64(_StateWords(words[k])))``.

    Rows of at most _BATCH_DRAWS draws are drawn _DRAW_BLOCK rows at a time
    with numpy's ziggurat tables (``_ziggurat_tables``), and only the rows
    this leaves open are redrawn; longer rows are all drawn by their Generators.
    """
    out, final = np.empty((len(words), n + phase)), np.zeros(len(words), bool)
    if n + phase <= _BATCH_DRAWS:
        tables = _ziggurat_tables()
        for i in range(0, len(words), _DRAW_BLOCK):
            block = slice(i, i + _DRAW_BLOCK)
            out[block], final[block] = _fast_rows(words[block], n, phase, *tables)
    # a fresh Generator a row: setting one reused Generator through the PCG64
    # state setter took longer (3.81 against 2.71 us a row of 16 normals)
    for k in np.flatnonzero(~final):
        _draw_row(out[k], np.random.Generator(np.random.PCG64(_StateWords(words[k]))), n, phase)
    return out


_MULT_INV = pow(_PCG_MULT, -1, _MOD128)


def _numpy_normal(gen, r, v=None):
    """numpy's standard normal when PCG64's next outputs are r, then v if given,
    and whether it read no more.  PCG64 steps S to S M + inc, and a state below
    2**64 outputs itself: with increment 1 the state (r - 1) / M outputs r; for
    v, an odd increment steps r on to h << 64 | v ^ h, which outputs v."""
    last, inc = r, 1
    if v is not None:
        h = (v ^ r ^ 1) & 1  # the parity that makes inc odd
        last = h << 64 | v ^ h
        inc = (last - r * _PCG_MULT) % _MOD128
    gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": (r - inc) * _MULT_INV % _MOD128, "inc": inc}}
    x = gen.standard_normal()
    return x, gen.bit_generator.state["state"]["state"] == last


def _numpy_keeps(gen, idx, wi, ki, fi):
    """Whether numpy and ``_accepts`` keep a slow draw of layer idx >= 1,
    mid-way past ki, at a u just below its accept threshold under fi, and
    reject it just above, both outside the band."""
    r = ((int(ki[idx]) + (1 << 52)) // 2) << 9 | idx
    x = (r >> 9) * wi[idx]
    rhs = np.exp(-0.5 * x * x)
    for keep, side in ((True, -2), (False, 2)):
        u = (rhs - fi[idx] + side * _ACCEPT_BAND * rhs) / (fi[idx - 1] - fi[idx])
        if not 0 <= u < 1:
            return False
        v = int(u * 2**53) << 11
        numpy_x, alone = _numpy_normal(gen, r, v)
        if _accepts(idx, x, np.uint64(v), fi) != (keep, True) or (alone and numpy_x == x) != keep:
            return False
    return True


@functools.cache
def _ziggurat_tables():
    """numpy's ziggurat tables (wi, ki, fi): wi read back from numpy, ki and fi from wi.

    wi[idx] is the draw at rabs = 1.  Raises RuntimeError unless numpy reads
    one output at rabs = ki - 1 and more at ki in every layer (at 0 only in
    layer 1), ``_numpy_keeps`` holds in every layer idx >= 1, and the
    batched rows of 16 normals and a phase are those of numpy's Generators.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    wi = np.array([_numpy_normal(gen, 1 << 9 | idx)[0] for idx in range(256)])
    ki = np.rint(np.roll(wi, 1) / wi * 2.0**52).astype(np.uint64)
    ki[1] = 0
    fi = np.exp(-0.5 * (wi * 2.0**52) ** 2)
    fi[0] = 1.0
    off = [idx for idx, k in enumerate(ki.tolist()) if _numpy_normal(gen, k << 9 | idx)[1]
           or (k and not _numpy_normal(gen, (k - 1) << 9 | idx)[1])
           or (idx and not _numpy_keeps(gen, idx, wi, ki, fi))]
    got, final = _fast_rows(stream_words(1, 0, 16), 16, True, wi, ki, fi)
    want = np.empty_like(got)
    for k, row in enumerate(want):
        _draw_row(row, np.random.Generator(np.random.PCG64(np.random.SeedSequence((1, k)))), 16, True)
    if off or got[final].tobytes() != want[final].tobytes():
        raise RuntimeError(f"the batched draw does not reproduce numpy {np.__version__}'s "
                           "PCG64 normals; its PCG64 or ziggurat differs from the one this "
                           f"code follows (fast-path or accept boundaries off in layers {off})")
    for table in (wi, ki, fi):
        table.setflags(write=False)
    return wi, ki, fi


_AXIS = {"A": 0, "B": 1, "C": 2}


def reduced_density(state: PureTripartiteState, keep) -> np.ndarray:
    """Partial trace of |psi><psi| keeping the named subsystems, as a Hermitian array.

    ``keep`` is a string or iterable over {A, B, C}; the kept factors stay
    in A,B,C order regardless of the order given.
    """
    labels = [k.upper() for k in keep]
    if not labels or len(set(labels)) != len(labels) or any(k not in _AXIS for k in labels):
        raise StateError(f"keep must name distinct subsystems among A,B,C, got {keep!r}")
    keep_axes = sorted(_AXIS[k] for k in labels)
    m = np.moveaxis(state.amps.reshape(state.dims), keep_axes, range(len(keep_axes)))
    m = m.reshape(math.prod(state.dims[ax] for ax in keep_axes), -1)
    rho = m @ m.conj().T
    return (rho + rho.conj().T) / 2.0


# --- state file I/O ---------------------------------------------------------


def load_state(path) -> PureTripartiteState:
    """Read a state file: {"dims": [dA,dB,dC], "amps": [[re,im], ...]}."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax, UTF-8 or int-digit limit
            raise StateError(f"{path}: not valid JSON ({exc})") from exc
    try:
        dims = doc["dims"]
        pairs = doc["amps"]
        amps = np.array([complex(re, im) for re, im in pairs])
        if any(isinstance(part, bool) for pair in pairs for part in pair):
            raise TypeError("amplitude parts must be numbers, got a boolean")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StateError(f"{path}: malformed state document ({exc})") from exc
    try:
        return pure_state_new(dims, amps)
    except StateError as exc:
        raise StateError(f"{path}: {exc}") from exc


def save_state(state: PureTripartiteState, path):
    """Write a state file with full double precision (>= 15 significant digits)."""
    doc = {
        "dims": list(state.dims),
        "amps": [[float(z.real), float(z.imag)] for z in state.amps],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
