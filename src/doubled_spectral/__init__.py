"""Numerical and combinatorial toolkit for the interaction potential between
the two constant diagonal metrics of a doubled (two-sheeted) geometry.

Layers:

* geometry  -- diagonal-metric types, kinetic identity, 2x2 symbol algebra
* carlson   -- Carlson's R_D and R_F, and the elliptic closed forms of the
               potential and of the rational integral
* s3quad    -- deterministic product quadrature on the 3-sphere (the oracle)
* hopf      -- closed form for the two-parameter Hopf-symmetric family
* matchings -- Wick-pairing combinatorics and the perturbative series
* conjecture-- randomized invariance suite for the bimetric factorization
* cli       -- reproducible command-line front end

A rule stores no nodes, only their t and angle factors
(``SphereRule.t_factor``, ``SphereRule.angle_factor`` and their weights).
The potential integrates one angle in closed form and sums the (phi, t)
plane in one pairwise numpy sum, the rule's only reduction, so every result
is bit-identical between runs.  The rational integral int dS / (xi^T A xi)
is a closed form, so the series needs no rule.

numpy is imported by s3quad and conjecture, and inside
``geometry.b2_trace_matrix``, the explicit 2x2-matrix reference; carlson,
hopf, matchings, cli and _emit import none.  matchings solves for the
eigenvalues of its 4x4 forms in pure Python.  No module uses
numpy.random: conjecture draws its PCG64 stream in pure Python.  Names
below resolve on first access (PEP 562), and cli imports the numpy layers
and matchings inside the subcommands using them, so ``action``,
``sweep``, ``potential --method closed|conjecture``, ``moments`` and
``series`` never load numpy.  Nor do they load dataclasses, which imports
inspect, ast and dis: the value types of geometry, hopf, matchings and
conjecture are namedtuple subclasses, which check any conditions in
``__new__``, and their ``_make`` and ``_replace`` go through it.  Only
s3quad's ``SphereRule``, which must hash by identity for the plane memo,
is a dataclass.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining module
_EXPORTS = {
    "active_backend": "s3quad",
    "get_threads": "s3quad",
    "potential_elliptic": "carlson",
    "rational_integral": "carlson",
    "HypothesisReport": "conjecture",
    "check_exchange_identity": "conjecture",
    "check_permutation_invariance": "conjecture",
    "check_scaling_invariance": "conjecture",
    "run_hypothesis_suite": "conjecture",
    "v_prime": "conjecture",
    "DiagonalMetric": "geometry",
    "DoubledGeometry": "geometry",
    "EffectiveParams": "geometry",
    "UnitVector4": "geometry",
    "b2_trace_closed": "geometry",
    "b2_trace_matrix": "geometry",
    "effective_params": "geometry",
    "kinetic_term": "geometry",
    "quadratic_form": "geometry",
    "relative_eigenvalues": "geometry",
    "sqrt_det": "geometry",
    "HopfMetric": "hopf",
    "potential_closed": "hopf",
    "potential_via_conjecture": "hopf",
    "script_v": "hopf",
    "to_diagonal": "hopf",
    "PerturbedForm": "matchings",
    "SeriesComparison": "matchings",
    "c_coefficient": "matchings",
    "compare_series": "matchings",
    "count_n": "matchings",
    "count_n_formula": "matchings",
    "double_factorial": "matchings",
    "moment_integral": "matchings",
    "pattern_census": "matchings",
    "series_exact": "matchings",
    "SphereRule": "s3quad",
    "build_rule": "s3quad",
    "potential_numeric": "s3quad",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
