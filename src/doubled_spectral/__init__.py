"""Numerical and combinatorial toolkit for the interaction potential between
the two constant diagonal metrics of a doubled (two-sheeted) geometry.

Layers:

* geometry  -- diagonal-metric domain types and the 2x2 symbol algebra
* s3quad    -- deterministic product quadrature on the 3-sphere (the oracle)
* hopf      -- closed forms for the two-parameter Hopf-symmetric family
* matchings -- Wick-pairing combinatorics and the perturbative series
* conjecture-- randomized invariance suite for the bimetric factorization
* cli       -- reproducible command-line front end

The hot node reductions are vectorized numpy kernels (``_kernels``) with a
fixed chunk order, so every result is bit-identical between runs.
"""

from ._kernels import active_backend, get_threads
from .conjecture import (
    HypothesisReport,
    check_exchange_identity,
    check_permutation_invariance,
    check_scaling_invariance,
    run_hypothesis_suite,
    sqrt_det,
    v_prime,
)
from .geometry import (
    DiagonalMetric,
    DoubledGeometry,
    EffectiveParams,
    UnitVector4,
    b2_trace_closed,
    b2_trace_matrix,
    effective_params,
    inverse_rates,
    quadratic_form,
    relative_eigenvalues,
)
from .hopf import (
    HopfMetric,
    f_term,
    g_term,
    potential_closed,
    potential_via_conjecture,
    script_v,
    to_diagonal,
)
from .matchings import (
    Matching,
    PerturbedForm,
    SeriesComparison,
    TracePattern,
    c_coefficient,
    compare_series,
    count_n,
    count_n_formula,
    double_factorial,
    enumerate_matchings,
    moment_integral,
    pattern_census,
    series_exact,
    series_single_trace,
    trace_pattern,
)
from .s3quad import (
    SphereRule,
    action_density,
    build_rule,
    integrate,
    kinetic_term,
    potential_numeric,
    rational_integral,
)

__version__ = "0.1.0"

__all__ = [
    "DiagonalMetric",
    "DoubledGeometry",
    "EffectiveParams",
    "HopfMetric",
    "HypothesisReport",
    "Matching",
    "PerturbedForm",
    "SeriesComparison",
    "SphereRule",
    "TracePattern",
    "UnitVector4",
    "action_density",
    "active_backend",
    "b2_trace_closed",
    "b2_trace_matrix",
    "build_rule",
    "c_coefficient",
    "check_exchange_identity",
    "check_permutation_invariance",
    "check_scaling_invariance",
    "compare_series",
    "count_n",
    "count_n_formula",
    "double_factorial",
    "effective_params",
    "enumerate_matchings",
    "f_term",
    "g_term",
    "get_threads",
    "integrate",
    "inverse_rates",
    "kinetic_term",
    "moment_integral",
    "pattern_census",
    "potential_closed",
    "potential_numeric",
    "potential_via_conjecture",
    "quadratic_form",
    "rational_integral",
    "relative_eigenvalues",
    "run_hypothesis_suite",
    "script_v",
    "series_exact",
    "series_single_trace",
    "sqrt_det",
    "to_diagonal",
    "trace_pattern",
    "v_prime",
]
