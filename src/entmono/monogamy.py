"""Monogamy decision machinery.

The central object is the state-dependent parameter x solving

    x * (E^y(A|BC) - max{E^y(AB), E^y(AC)}) = min{E^y(AB), E^y(AC)}

for a fixed exponent y > 0.  Boundedness of the set of x over a family of
states is equivalent to the measure being alpha-monogamous on that family,
with alpha = max(M*y, y) for any bound M on x.  A state where the cut value
equals the larger pair value while the smaller one stays positive admits no
finite x and defeats monogamy at every exponent.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import states as _states
from . import measures as _measures
from .measures import MeasureId, MeasureTriple

DEFAULT_EPS = 1e-9

# Exponent search bracket; values in play are O(1), so exponents beyond 64
# are numerically meaningless.
ALPHA_MAX = 64.0
BISECT_MAXITER = 200
# scipy.optimize.bisect's default relative tolerance, kept so roots match it
_BISECT_RTOL = 4 * sys.float_info.epsilon


class DomainError(ValueError):
    """Triple outside the domain of the requested operation."""


class MonotonicityError(ValueError):
    """Cut value below the larger pair value beyond tolerance.

    Signals that the measure is not an entanglement monotone on this state,
    which the solver's derivation assumes."""


class XKind(enum.Enum):
    ZERO = "zero"
    FINITE = "finite"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class XSolution:
    """The x-solution at exponent y; its kind is the same at every y > 0."""
    kind: XKind
    y: float
    x: float = 0.0  # positive for FINITE (0.0 if min^y underflows), 0 for ZERO, inf for UNBOUNDED


class CertificateKind(enum.Enum):
    THEOREM1_BOUND = "empirical-x-bound"
    THEOREM3_PER_STATE = "per-state-exponent"
    THEOREM3_RELAXED = "relaxed-base"
    THEOREM2_WITNESS = "non-monogamy-witness"


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    alpha: float | None
    inputs: dict
    residual_at_alpha: float | None = None


def _split(t: MeasureTriple, eps: float | None = None):
    """(cut, max pair, min pair) of a triple.

    Given eps, this is the monotonicity guard: a cut value below the larger
    pair value by more than eps raises MonotonicityError.
    """
    cut, hi, lo = t.e_abc, max(t.e_ab, t.e_ac), min(t.e_ab, t.e_ac)
    if eps is not None and cut < hi - eps:
        raise MonotonicityError(f"cut value {cut} below larger pair value {hi} beyond eps={eps}")
    return cut, hi, lo


def _check_positive(name, v):
    if not (math.isfinite(v) and v > 0):
        raise DomainError(f"{name} must be finite and positive, got {v}")


def _check_eps(eps):
    if not (math.isfinite(eps) and eps >= 0):
        raise DomainError(f"eps must be finite and non-negative, got {eps}")


_KINDS = (XKind.ZERO, XKind.FINITE, XKind.UNBOUNDED)


def _classify(cut, hi, lo, y, eps):
    """The x-rule on 1-D arrays of (cut, max pair, min pair) values.

    Returns (kind, x, violation): kind indexes _KINDS and is decided on the
    unpowered values, so it is the same at every y > 0.  Zero when min is
    below eps or 0 (this takes precedence when the gap vanishes too);
    Unbounded when the gap cut - max is below eps or not positive, as it is
    for a monotonicity violation (cut below max by more than eps); else
    Finite with x = min^y / (cut^y - max^y).  y, a float or an array as
    long as the values, only scales x: a Finite entry whose powered gap
    leaves the float range or rounds to 0 raises DomainError.
    """
    violation = cut < hi - eps
    zero = (lo < eps) | (lo == 0.0)
    unbounded = ~zero & ((cut - hi < eps) | (cut - hi <= 0.0))
    finite = ~(zero | unbounded)
    with np.errstate(over="ignore", invalid="ignore"):
        m = lo ** y
        gap = cut ** y - hi ** y
    if not ((0.0 < gap) & (gap < math.inf))[finite].all():
        raise DomainError(f"cut^y - max^y overflows or rounds to 0 at y={np.max(y)}")
    x = np.zeros(len(m))
    x[unbounded] = math.inf
    np.divide(m, gap, out=x, where=finite)
    return finite + 2 * unbounded, x, violation


def solve_x(t: MeasureTriple, y: float, eps: float = DEFAULT_EPS) -> XSolution:
    """Classify the solution of the x-equation at exponent y.

    The kind comes from the unpowered values by the rule of _classify, so
    it is the same at every y: Zero when the smaller pair value is below
    eps, Unbounded when cut - max is, else Finite; y only scales
    x = min^y / (cut^y - max^y).
    """
    _check_positive("exponent y", y)
    _check_eps(eps)
    cut, hi, lo = _split(t, eps)
    kind, x, _ = _classify(np.array([cut]), np.array([hi]), np.array([lo]), y, eps)
    return XSolution(_KINDS[kind[0]], y, float(x[0]))


def residual(t: MeasureTriple, alpha: float) -> float:
    """E^a(A|BC) - E^a(AB) - E^a(AC); non-negative iff monogamous at alpha.

    Raises DomainError when a power or the difference leaves the float range.
    """
    _check_positive("alpha", alpha)
    try:
        r = t.e_abc ** alpha - t.e_ab ** alpha - t.e_ac ** alpha
    except OverflowError:
        r = math.inf
    if not math.isfinite(r):
        raise DomainError(f"residual at alpha={alpha} overflows for triple {t.as_tuple()}")
    return r


def alpha_from_bound(m_bound: float, y0: float) -> float:
    """Monogamy exponent max(M * y0, y0) implied by an x-bound M at y0."""
    if not (m_bound >= 0 and 0 < y0 < math.inf):
        raise DomainError(f"need M >= 0 and finite y0 > 0, got M={m_bound}, y0={y0}")
    return max(m_bound * y0, y0)


def per_state_base(t: MeasureTriple) -> float:
    """The ratio b = E(A|BC) / max(E(AB), E(AC)) used by the per-state exponent."""
    cut, hi, lo = _split(t)
    if lo <= 0 or cut <= hi:
        raise DomainError(
            "per-state exponent needs a strict gap and positive smaller pair value "
            f"(got cut={cut}, max={hi}, min={lo})"
        )
    return cut / hi


def theorem3_alpha(t: MeasureTriple) -> float:
    """Per-state monogamy exponent log_b 2 with b = cut / max-pair value."""
    return theorem3_alpha_relaxed(per_state_base(t))


def theorem3_alpha_relaxed(c: float) -> float:
    """Exponent log_c 2 valid for every triple whose base ratio is >= c > 1."""
    if not 1.0 < c < math.inf:
        raise DomainError(f"relaxed base must be finite and exceed 1, got {c}")
    return math.log(2.0) / math.log(c)


def is_theorem2_witness(t: MeasureTriple, eps: float = DEFAULT_EPS) -> bool:
    """True iff the x-equation has no finite solution: the cut equals the
    larger pair value and the smaller is positive, by the x-rule at y = 1.

    Such a state rules out monogamy at every exponent.
    """
    return solve_x(t, 1.0, eps).kind is XKind.UNBOUNDED


def min_alpha(t: MeasureTriple, tol: float = 1e-6, eps: float = DEFAULT_EPS) -> float:
    """Smallest exponent at which the residual turns non-negative.

    Returns 0.0 when x is zero (monogamous at every exponent), math.inf when
    x is unbounded (witness case) or the bracket fails, else the root found
    by scipy.optimize.bisect's iteration on [tol, 64] to within tol, in the
    residual of the triple over its cut value, 1 - u^a - v^a: it has the
    residual's sign and does not underflow to a false 0.
    """
    _check_positive("tol", tol)
    kind = solve_x(t, 1.0, eps).kind
    if kind is not XKind.FINITE:
        return 0.0 if kind is XKind.ZERO else math.inf
    t = MeasureTriple(1.0, t.e_ab / t.e_abc, t.e_ac / t.e_abc, t.measure_id)
    fa = residual(t, tol)
    if fa >= 0.0:
        return tol
    fb = residual(t, ALPHA_MAX)
    if fb < 0.0:
        return math.inf
    if fb == 0.0:
        return ALPHA_MAX
    # fa stays the residual at tol, as in scipy's loop
    xa, dm = tol, ALPHA_MAX - tol
    for _ in range(BISECT_MAXITER):
        dm *= 0.5
        xm = xa + dm
        fm = residual(t, xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < tol + _BISECT_RTOL * abs(xm):
            return xm
    raise RuntimeError(f"bisection did not converge in {BISECT_MAXITER} steps, value is {xa}")


def beta_curves(t: MeasureTriple, y_grid) -> list[tuple[float, float, float]]:
    """Rows (y, x(y)*y, y) over a grid of exponents.

    The minimum over y of max(z1, z2) approximates the best exponent
    reachable from the x-equation for this triple; requires a finite x,
    whose kind does not depend on y.
    """
    y = np.asarray(y_grid, dtype=float)
    for v in y.tolist():
        _check_positive("exponent y", v)
    cut, hi, lo = (np.full(len(y), v) for v in _split(t, DEFAULT_EPS))
    kind, x, _ = _classify(cut, hi, lo, y, DEFAULT_EPS)
    if len(y) and kind[0] != 1:
        raise DomainError(f"x is {_KINDS[kind[0]].value}; curve undefined")
    return list(zip(y.tolist(), (x * y).tolist(), y.tolist()))


# --- Monte-Carlo sweeps -----------------------------------------------------

_SWEEP_CHUNK = 512


@dataclass
class SweepReport:
    """Aggregate of x-solutions over sampled states.

    certified_alpha is present iff no unbounded solution occurred, and is an
    empirical certificate only: boundedness over the continuum of states
    cannot be proven by sampling.
    """

    dims: tuple[int, int, int]
    measure: MeasureId
    family: str
    y: float
    seed: int
    samples: int
    zero_count: int
    finite_count: int
    unbounded_count: int
    monotonicity_violations: int
    max_finite_x: float
    witnesses: list  # (sample seed index, MeasureTriple), sorted by index
    histogram: list  # (bucket_lo, bucket_hi, count)
    certified_alpha: float | None
    certificate_kind: str = field(default=CertificateKind.THEOREM1_BOUND.value, init=False)
    empirical: bool = True

    def to_json_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "dims": list(self.dims), "measure": self.measure.value,
                "witnesses": [{"seed": i, "triple": list(t.as_tuple())} for i, t in self.witnesses],
                "histogram": [{"bucket_lo": lo, "bucket_hi": hi, "count": n}
                              for lo, hi, n in self.histogram]}


def _sample_state(dims, family, seed, index):
    """The state of sweep sample ``index`` at ``seed``, drawn as its chunk draws it.

    Replays any sample, e.g. a witness, by its index alone.
    """
    rows = _states.family_rows(dims, family, [np.random.Generator(np.random.PCG64((seed, index)))])
    return _states.PureTripartiteState(tuple(dims), rows[0])


def _sweep_chunk(dims, mid, family, y, eps, seed, n, start):
    """(zero, finite, unbounded, violations) counts, finite x and witnesses of one chunk."""
    stop = min(start + _SWEEP_CHUNK, n)
    amps = _states.family_rows(dims, family, _states.index_streams(seed, start, stop))
    triples = _measures._measure_triples(dims, amps, mid)
    hi = np.maximum(triples[:, 1], triples[:, 2])
    lo = np.minimum(triples[:, 1], triples[:, 2])
    kind, x, violation = _classify(triples[:, 0], hi, lo, y, eps)
    counts = np.append(np.bincount(kind, minlength=3), violation.sum())
    witnesses = [
        (start + int(k), MeasureTriple(*triples[k].tolist(), mid))
        for k in np.flatnonzero(kind == 2)
    ]
    return counts, x[kind == 1], witnesses


def _worker_count(n_chunks):
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        workers = os.cpu_count() or 1
    cap = os.environ.get("MONO_THREADS", "").strip()
    if cap:
        if not cap.isdecimal() or int(cap) < 1:
            raise DomainError(f"MONO_THREADS must be a positive integer, got {cap!r}")
        workers = min(workers, int(cap))
    return max(1, min(workers, n_chunks))


def sweep(dims, mid: MeasureId, y: float, n: int, seed: int,
          family: str = "haar", eps: float = DEFAULT_EPS) -> SweepReport:
    """Sample n states, solve for x on each, and aggregate.

    Sampling is deterministic in (seed, sample index), so results do not
    depend on the worker count.  Workers fan out over fixed-size chunks;
    MONO_THREADS caps the pool.  Each chunk evaluates and classifies its
    samples in one batch.
    """
    if n < 1:
        raise DomainError(f"need at least one sample, got {n}")
    _check_positive("exponent y", y)
    _check_eps(eps)
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    dims = _states._check_dims(dims)
    # fail fast on unsupported family/measure/dims before burning samples
    try:
        _states._check_family(dims, family)
    except _states.StateError as exc:
        raise DomainError(str(exc)) from None
    _measures._check_triple(dims, mid)

    chunk = functools.partial(_sweep_chunk, dims, mid, family, y, eps, seed, n)
    starts = range(0, n, _SWEEP_CHUNK)
    workers = _worker_count(len(starts))
    if workers > 1 and n >= 4 * _SWEEP_CHUNK:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk, starts))
    else:
        results = [chunk(start) for start in starts]

    chunk_counts, finite_xs, chunk_witnesses = zip(*results)
    zero, finite, unbounded, violations = np.sum(chunk_counts, axis=0).tolist()
    witnesses = [w for ws in chunk_witnesses for w in ws]
    finite_arr = np.concatenate(finite_xs)
    max_x = float(finite_arr.max()) if finite else 0.0
    histogram = []
    if finite:
        counts, edges = np.histogram(finite_arr, bins=50, range=(0.0, max_x))
        histogram = list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    certified = alpha_from_bound(max_x, y) if unbounded == 0 else None
    return SweepReport(
        dims=dims, measure=mid, family=family, y=y, seed=seed, samples=n,
        zero_count=zero, finite_count=finite, unbounded_count=unbounded,
        monotonicity_violations=violations, max_finite_x=max_x,
        witnesses=witnesses, histogram=histogram, certified_alpha=certified,
    )


# --- certificates -----------------------------------------------------------


def certify_per_state(t: MeasureTriple) -> Certificate:
    """Per-state exponent certificate log_b 2 with its verified residual."""
    b = per_state_base(t)
    alpha = theorem3_alpha_relaxed(b)
    return Certificate(
        CertificateKind.THEOREM3_PER_STATE,
        alpha,
        {"b": b, "triple": t.as_tuple()},
        residual(t, alpha),
    )


def certify_relaxed(t: MeasureTriple, c: float) -> Certificate:
    """Relaxed-base certificate log_c 2, valid when 1 < c <= b for the triple."""
    b = per_state_base(t)
    if not (1.0 < c <= b):
        raise DomainError(f"relaxed base must satisfy 1 < c <= b = {b}, got {c}")
    alpha = theorem3_alpha_relaxed(c)
    return Certificate(
        CertificateKind.THEOREM3_RELAXED,
        alpha,
        {"b": b, "c": c, "triple": t.as_tuple()},
        residual(t, alpha),
    )
