"""Tripartite pure states, partial traces as Hermitian arrays, and Haar sampling.

All states live on H_A (x) H_B (x) H_C with amplitudes stored row-major over
the product basis |abc>, i.e. index i = a*dB*dC + b*dC + c.
"""

from __future__ import annotations

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


def family_rows(dims, family, rng, n, skip=0) -> np.ndarray:
    """Unit amplitude rows of n random states of a family, drawn from the Generator rng
    after the normals of skip rows, which are discarded unnormalized.

    The draws are ``rng.standard_normal((skip, k))`` and ``((n, k))``, the
    stream of one ``((skip + n, k))`` array, so the rows of a shorter draw
    are the first rows of a longer one.  haar takes
    k = 2 dA dB dC normals a row (real parts, then imaginary parts);
    w_class takes 8, the real then imaginary parts of b0..b3; schmidt takes
    7, whose first 5 absolute values are l0..l4 and whose last two (z5, z6)
    give the phase phi = arctan2(z6, z5), uniform since i.i.d. Gaussian
    pairs are rotation invariant.  The coefficients are normalized, then
    placed as in ``w_class`` and ``from_schmidt``.  All rows are normalized
    at once with the arithmetic of the one-state constructors, which are
    the one-row calls of the same helpers.
    """
    _check_family(dims, family)
    total = dims[0] * dims[1] * dims[2]
    k = {"haar": 2 * total, "w_class": 8, "schmidt": 7}[family]
    rng.standard_normal((skip, k))
    raw = rng.standard_normal((n, k))
    if family == "schmidt":
        return _schmidt_rows(unit_rows(np.abs(raw[:, :5])), np.arctan2(raw[:, 6], raw[:, 5]))
    if family == "haar":
        return unit_rows(raw[:, :total] + 1j * raw[:, total:])
    return _w_rows(unit_rows(raw[:, :4] + 1j * raw[:, 4:]))


def haar_random(dims, rng_seed) -> PureTripartiteState:
    """Haar-random pure state: normalized i.i.d. complex Gaussian vector.

    The state drawn from ``Generator(PCG64(rng_seed))``, where ``rng_seed``
    may be an int, a sequence of ints, or a numpy SeedSequence.
    """
    dims = _check_dims(dims)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    return PureTripartiteState(dims, family_rows(dims, "haar", rng, 1)[0])


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
