"""Deciding and certifying alpha-monogamy of entanglement measures."""

from .states import (
    DensityMatrix,
    PureTripartiteState,
    SchmidtParams,
    StateError,
    antisymmetric_qutrit,
    example_223,
    from_schmidt,
    ghz,
    haar_random,
    load_state,
    pure_state_new,
    reduced_density,
    save_state,
    w_class,
    w_state,
)
from .measures import (
    MeasureError,
    MeasureId,
    MeasureTriple,
    concurrence_pure_cut,
    entanglement_cost_lookup,
    measure_triple,
)
from .monogamy import (
    Certificate,
    CertificateKind,
    DomainError,
    MonotonicityError,
    SweepReport,
    XKind,
    XSolution,
    alpha_from_bound,
    beta_curves,
    certify_per_state,
    certify_relaxed,
    is_theorem2_witness,
    min_alpha,
    residual,
    solve_x,
    sweep,
    theorem3_alpha,
    theorem3_alpha_relaxed,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
