"""Deciding and certifying alpha-monogamy of entanglement measures."""

import types as _types

from .states import (
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
    beta_curves,
    certify,
    min_alpha,
    residual,
    solve_x,
    sweep,
)

# The submodules are attributes here too; a star import binds only the API.
__all__ = [n for n in dir() if not (n.startswith("_") or isinstance(globals()[n], _types.ModuleType))]
__version__ = "0.1.0"
