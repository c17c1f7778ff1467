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
from dataclasses import dataclass, field, fields

import numpy as np

from . import states as _states
from . import measures as _measures
from .measures import MeasureId, MeasureTriple

DEFAULT_EPS = 1e-9


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


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    alpha: float | None
    inputs: dict
    residual_at_alpha: float | None = None


def _check_positive(name, v):
    if not (math.isfinite(v) and v > 0):
        raise DomainError(f"{name} must be finite and positive, got {v}")


def _check_eps(eps):
    if not (math.isfinite(eps) and eps >= 0):
        raise DomainError(f"eps must be finite and non-negative, got {eps}")


_KINDS = (XKind.ZERO, XKind.FINITE, XKind.UNBOUNDED)


def _log_ratio(cut, v):
    """log(cut / v) from the gap, exact for cut / 2 <= v < cut (Sterbenz)."""
    return np.log1p((cut - v) / v)


def _classify(triples, y, eps):
    """The x-rule on (N, 3) rows (cut, e_ab, e_ac), with max and min the pair values.

    Returns (kind, x, violation): kind indexes _KINDS and is decided on the
    unpowered values, so it is the same at every y > 0.  Zero when min is
    below eps or 0 (this takes precedence when the gap vanishes too);
    Unbounded when the gap cut - max is below eps or not positive, as it is
    for a monotonicity violation (cut below max by more than eps); else
    Finite with x = min^y / (cut^y - max^y) = (min/cut)^y / -expm1(-y log(cut/max)).
    y, a float or an array as long as the values, only scales x: a Finite x
    that is not finite (y below about 1e-290) raises DomainError.
    """
    cut, ab, ac = triples.T
    hi, lo = np.maximum(ab, ac), np.minimum(ab, ac)
    violation = cut < hi - eps
    zero = (lo < eps) | (lo == 0.0)
    unbounded = ~zero & ((cut - hi < eps) | (cut - hi <= 0.0))
    finite = ~(zero | unbounded)
    x = np.where(unbounded, math.inf, 0.0)
    with np.errstate(all="ignore"):  # only the finite rows are read
        np.divide((lo / cut) ** y, -np.expm1(-y * _log_ratio(cut, hi)), out=x, where=finite)
    bad = np.flatnonzero(finite & ~np.isfinite(x))
    if bad.size:
        raise DomainError(f"x is not finite at y={np.broadcast_to(y, x.shape)[bad[0]]}")
    return finite + 2 * unbounded, x, violation


def solve_x(t: MeasureTriple, y: float, eps: float = DEFAULT_EPS) -> XSolution:
    """Classify the solution of the x-equation at exponent y.

    The kind comes from the unpowered values by the rule of _classify, so
    it is the same at every y: Zero when the smaller pair value is below
    eps, Unbounded when cut - max is, else Finite; y only scales
    x = min^y / (cut^y - max^y).  This is the one-row call of _classify; a
    cut below max by more than eps raises MonotonicityError.
    """
    _check_positive("exponent y", y)
    _check_eps(eps)
    kind, x, violation = _classify(np.array([t.as_tuple()]), y, eps)
    if violation[0]:
        raise MonotonicityError(f"cut value {t.e_abc} below larger pair value "
                                f"{max(t.e_ab, t.e_ac)} beyond eps={eps}")
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


# With equal pair values the residual at log_b 2 is 0 in exact arithmetic, and the
# computed log_b 2 can fall an ulp short of it; no measured triple needed over 2 steps up.
_ALPHA_STEPS = 8


def _step_up(f, alpha, t):
    """(a, f(a)) for the first float a >= alpha with f(a) >= 0, within _ALPHA_STEPS."""
    for _ in range(_ALPHA_STEPS):
        r = f(alpha)
        if r >= 0.0:
            return alpha, r
        alpha = math.nextafter(alpha, math.inf)
    raise DomainError(f"residual stays negative up to alpha={alpha} for triple {t.as_tuple()}")


def min_alpha(t: MeasureTriple, tol: float = 1e-6, eps: float = DEFAULT_EPS) -> float:
    """Smallest exponent at which the residual turns non-negative.

    0.0 when x is zero (monogamous at every exponent), math.inf when x is
    unbounded (witness case), tol when the residual is >= 0 at tol.  Else
    the end hi of a bracket [tol, log_b 2] with residual(lo) < 0 <=
    residual(hi), halved until no wider than tol or to adjacent floats: at
    most tol above the root, its residual verified >= 0.  The residual is
    the scale-free 1 - e^(-a log(cut/max)) - e^(-a log(cut/min)).
    """
    _check_positive("tol", tol)
    kind = solve_x(t, 1.0, eps).kind
    if kind is not XKind.FINITE:
        return 0.0 if kind is XKind.ZERO else math.inf
    log_lo, log_hi = _log_ratio(t.e_abc, np.sort([t.e_ab, t.e_ac])).tolist()
    f = lambda a: -math.expm1(-a * log_hi) - math.exp(-a * log_lo)
    if f(tol) >= 0.0:
        return tol
    lo, hi = tol, _step_up(f, math.log(2.0) / log_hi, t)[0]
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:  # no midpoint: adjacent floats
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def beta_curves(t: MeasureTriple, y_grid) -> list[tuple[float, float, float]]:
    """Rows (y, x(y)*y, y) over a grid of exponents.

    The minimum over y of max(z1, z2) approximates the best exponent
    reachable from the x-equation for this triple; requires a finite x,
    whose kind does not depend on y.
    """
    y = np.asarray(y_grid, dtype=float)
    for v in y.tolist():
        _check_positive("exponent y", v)
    kind = solve_x(t, 1.0).kind
    if len(y) and kind is not XKind.FINITE:
        raise DomainError(f"x is {kind.value}; curve undefined")
    _, x, _ = _classify(np.tile(t.as_tuple(), (len(y), 1)), y, DEFAULT_EPS)
    return list(zip(y.tolist(), (x * y).tolist(), y.tolist()))


# --- Monte-Carlo sweeps -----------------------------------------------------

_SWEEP_CHUNK = 2048


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


def _chunk_rows(dims, family, seed, start, stop):
    """Amplitude rows of sweep samples start..stop - 1 at seed, all in start's chunk.

    Sample i is row i mod _SWEEP_CHUNK of the chunk drawn from
    ``Generator(PCG64(SeedSequence((seed, i // _SWEEP_CHUNK))))``; a chunk
    drawn only up to stop has the rows of the full one.
    """
    chunk, first = divmod(start, _SWEEP_CHUNK)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), chunk))))
    return _states.family_rows(dims, family, rng, first + stop - start)[first:]


def _sample_state(dims, family, seed, index):
    """The state of sweep sample ``index`` at ``seed``, drawn by the chunk code.

    Replays any sample, e.g. a witness, by its index alone.
    """
    row = _chunk_rows(dims, family, seed, index, index + 1)[0]
    return _states.PureTripartiteState(tuple(dims), row.copy())  # not a view of the chunk


def _sweep_chunk(dims, mid, family, y, eps, seed, n, start):
    """(zero, finite, unbounded, violations) counts, finite x and witnesses of one chunk."""
    amps = _chunk_rows(dims, family, seed, start, min(start + _SWEEP_CHUNK, n))
    triples = _measures._measure_triples(dims, amps, mid)
    kind, x, violation = _classify(triples, y, eps)
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
    if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"samples must be a positive integer, got {n!r}")
    _check_positive("exponent y", y)
    _check_eps(eps)
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
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

        # about four tasks per worker: fewer round trips, and the last ones still balance
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk, starts, chunksize=-(-len(starts) // (4 * workers))))
    else:
        results = [chunk(start) for start in starts]

    chunk_counts, finite_xs, chunk_witnesses = zip(*results)
    zero, finite, unbounded, violations = np.sum(chunk_counts, axis=0).tolist()
    witnesses = [w for ws in chunk_witnesses for w in ws]
    finite_arr = np.concatenate(finite_xs)
    max_x = float(finite_arr.max()) if finite else 0.0
    if not 0.0 <= max_x < math.inf:  # Theorem 1 below needs a finite bound M >= 0 on x
        raise DomainError(f"need a finite bound M >= 0 on x, got M={max_x}")
    histogram = []
    if finite:
        counts, edges = np.histogram(finite_arr, bins=50, range=(0.0, max_x))
        histogram = list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    certified = max(max_x * y, y) if unbounded == 0 else None
    return SweepReport(
        dims=dims, measure=mid, family=family, y=y, seed=seed, samples=n,
        zero_count=zero, finite_count=finite, unbounded_count=unbounded,
        monotonicity_violations=violations, max_finite_x=max_x,
        witnesses=witnesses, histogram=histogram, certified_alpha=certified,
    )


# --- certificates -----------------------------------------------------------

def certify(t: MeasureTriple, c: float | None = None) -> Certificate:
    """Theorem 3: the exponent log_c 2 for a base 1 < c <= b = cut / max-pair value.

    Per-state (c = b, with log b from the exact gap) when c is None, relaxed
    otherwise.  The exponent is stepped up to the first float whose residual
    is >= 0, and returned with that verified residual; DomainError if none
    is within _ALPHA_STEPS steps.
    """
    cut, hi, lo = t.e_abc, max(t.e_ab, t.e_ac), min(t.e_ab, t.e_ac)
    if lo <= 0 or cut <= hi:
        raise DomainError(
            "per-state exponent needs a strict gap and positive smaller pair value "
            f"(got cut={cut}, max={hi}, min={lo})"
        )
    b = cut / hi
    kind = CertificateKind.THEOREM3_PER_STATE if c is None else CertificateKind.THEOREM3_RELAXED
    inputs = {"b": b} if c is None else {"b": b, "c": c}
    if c is not None and not (1.0 < c <= b and c < math.inf):
        raise DomainError(f"relaxed base must be finite and satisfy 1 < c <= b = {b}, got {c}")
    log_c = _log_ratio(cut, hi).item() if c is None else math.log(c)
    alpha, r = _step_up(lambda a: residual(t, a), math.log(2.0) / log_c, t)
    return Certificate(kind, alpha, {**inputs, "triple": t.as_tuple()}, r)
