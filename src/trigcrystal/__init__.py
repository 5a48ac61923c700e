"""trigcrystal: zero statistics of random trigonometric polynomials under
repeated differentiation.

Sampling and exact differentiation (`poly`), real/complex root finding by
two independent methods (`roots`), Monte Carlo ensemble statistics in the
unit-mean-spacing coordinate (`ensemble`), exact Kac-Rice and
pair-correlation formulas with quadrature (`analytic`), large-order
asymptotics of the approach to equal spacing (`asymptotics`), and a CLI
(`crystallize`) that tabulates curves and renders SVG figures.
"""

__version__ = "0.1.0"

from .poly import (  # noqa: E402
    EnsembleSpec,
    TrigPolynomial,
    VarianceProfile,
    derivative_rescaled,
    differentiate,
    evaluate,
    sample,
)
from .roots import all_roots_companion, real_roots_sampled  # noqa: E402
from .ensemble import (  # noqa: E402
    empirical_pair_correlation,
    empirical_real_fraction,
    gap_ensemble,
    nearest_neighbor_spacings,
    real_zero_ensemble,
)
from .analytic import (  # noqa: E402
    expected_real_fraction,
    pair_correlation_finite_n,
    pair_correlation_limit,
    pair_correlation_limit_curve,
    v_p,
)
from .asymptotics import (  # noqa: E402
    new_real_fraction,
    nn_cdf,
    nn_density,
    peak_location,
    repulsion_expansion,
    repulsion_slope,
    theorem_profile,
    triple_zero_demo,
    triple_zero_threshold,
)

# the API documented in the README; everything else is reached through its
# submodule (trigcrystal.analytic.limit_terms, ...)
__all__ = [
    "TrigPolynomial", "VarianceProfile", "EnsembleSpec", "sample", "evaluate",
    "differentiate", "derivative_rescaled",
    "real_roots_sampled", "all_roots_companion",
    "real_zero_ensemble", "empirical_real_fraction", "empirical_pair_correlation",
    "nearest_neighbor_spacings", "gap_ensemble",
    "expected_real_fraction", "v_p", "pair_correlation_finite_n",
    "pair_correlation_limit", "pair_correlation_limit_curve",
    "peak_location", "theorem_profile", "nn_density", "nn_cdf", "repulsion_slope",
    "repulsion_expansion", "new_real_fraction", "triple_zero_demo",
    "triple_zero_threshold",
]
