"""Closed-form and quadrature-based zero statistics.

Three layers:

* Kac-Rice counts.  For a stationary Gaussian trigonometric polynomial the
  expected real-zero density per unit x is (1/pi) * sqrt(B2/A2) with
  A2 = sum sigma_n^2 and B2 = sum n^2 sigma_n^2 (the covariance of (F, F')
  vanishes), which gives the expected fraction of real zeros at finite N and
  the limit value v_p = sqrt((2p+1)/(2p+3)) for the p-th derivative.

* Finite-N pair correlation.  The expected pair density of real zeros at
  separation tau is assembled from five moment sums g1..g5 of the variance
  profile:

      R2(tau) = (B asin(B/A) + sqrt(A^2 - B^2)) / (pi^2 C^(3/2)),
      A = g2 C - g1 g4^2,  B = g5 C - g3 g4^2,  C = g1^2 - g3^2.

* Large-N limit for the p-th derivative, in the rescaled coordinate with
  unit mean zero spacing.  The sums become moment integrals

      g3 = int_0^1 cos(pi x t) t^(2p) dt,
      g4 = int_0^1 sin(pi x t) t^(2p+1) dt,
      g5 = int_0^1 cos(pi x t) t^(2p+2) dt,

  with g1 = 1/(2p+1), g2 = 1/(2p+3), combined exactly as above but without
  the pi^2 (the limit is already normalized by the squared total density).

Small separations are delicate: A and B vanish like x^4 and C like x^2, so
naive evaluation loses all significance.  For x <= 1.5 the integrals are
evaluated by Maclaurin series in (pi x), and C uses a dedicated series for
g1 - g3, which keeps the formula usable down to x ~ 1e-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .poly import VarianceProfile

__all__ = [
    "MomentTerms",
    "kac_rice_density",
    "expected_real_fraction",
    "v_p",
    "bbl_terms",
    "pair_correlation_finite_n",
    "pair_correlation_finite_n_rescaled",
    "g_limit_integrals",
    "limit_terms",
    "pair_correlation_limit",
    "pair_correlation_limit_curve",
]

# below this separation the limit formula is handed over to the small-x
# repulsion expansion (asymptotics module)
MIN_SEPARATION = 1e-4
_SERIES_CUTOFF = 1.5
_LAYER_CUTOFF_P = 60
_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-11, limit=200)


# ---------------------------------------------------------------------------
# Kac-Rice
# ---------------------------------------------------------------------------


def kac_rice_density(profile: VarianceProfile) -> float:
    """Expected real zeros per unit x, sqrt(B2/A2)/pi; stationarity makes it
    constant."""
    s2 = (profile.sigmas**2).tolist()
    n2 = (np.arange(profile.degree + 1) ** 2).tolist()
    a2 = math.fsum(s2)
    b2 = math.fsum(v * w for v, w in zip(n2, s2))
    # equal to sqrt(b2 / a2), rounded the way earlier releases rounded it, so
    # the fraction and vp-table CSVs keep their bytes
    return math.sqrt(a2 * b2) / (math.pi * a2)


def expected_real_fraction(degree: int, order: int) -> float:
    """Expected fraction of the 2N zeros of F^(order) that are real, exact at
    finite N: sqrt(sum n^(2p+2) / sum n^(2p)) / N over n = 0..N."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if order < 0:
        raise ValueError("order must be non-negative")
    profile = VarianceProfile.derivative(degree, order)
    return kac_rice_density(profile) * math.pi / degree


def v_p(p: int) -> float:
    """Large-N limit of the real-zero fraction of the p-th derivative."""
    if p < 0:
        raise ValueError("p must be non-negative")
    return math.sqrt((2 * p + 1) / (2 * p + 3))


# ---------------------------------------------------------------------------
# finite-N pair correlation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentTerms:
    """Moment sums (finite N) or integrals (large-N limit) g1..g5 and the
    derived A, B, C of the pair-correlation formula."""

    g1: float
    g2: float
    g3: float
    g4: float
    g5: float
    A: float
    B: float
    C: float


def _moment_terms(g1, g2, g3, g4, g5, C) -> MomentTerms:
    A = g2 * C - g1 * g4 * g4
    B = g5 * C - g3 * g4 * g4
    return MomentTerms(g1=g1, g2=g2, g3=g3, g4=g4, g5=g5, A=A, B=B, C=C)


def bbl_terms(profile: VarianceProfile, tau: float) -> MomentTerms:
    """The five moment sums over modes n = 1..N and the A, B, C combination."""
    N = profile.degree
    n = np.arange(1, N + 1, dtype=float)
    s2 = profile.sigmas[1:] ** 2
    cn = np.cos(n * tau)
    sn = np.sin(n * tau)
    g1 = math.fsum(s2.tolist())
    g2 = math.fsum((n * n * s2).tolist())
    g3 = math.fsum((s2 * cn).tolist())
    g4 = math.fsum((n * s2 * sn).tolist())
    g5 = math.fsum((n * n * s2 * cn).tolist())
    return _moment_terms(g1, g2, g3, g4, g5, g1 * g1 - g3 * g3)


def _assemble_r2(A: float, B: float, C: float, scale: float) -> float:
    if not (C > 0.0) or not math.isfinite(C):
        raise ValueError("degenerate separation: C is not positive")
    if A <= 0.0:
        raise ValueError("degenerate separation: A is not positive")
    r = B / A
    if abs(r) > 1.0 + 1e-9:
        raise ValueError(f"arcsin argument out of range: B/A = {r!r}")
    r = max(-1.0, min(1.0, r))
    val = (B * math.asin(r) + math.sqrt(max(A * A - B * B, 0.0))) / C**1.5
    return val * scale


def pair_correlation_finite_n(profile: VarianceProfile, tau: float) -> float:
    """Expected pair density of real zeros at separation tau (unrescaled x).

    Not defined at tau = 0 (and at exact lattice symmetries of the profile)
    where C vanishes; callers should use the small-separation expansion
    instead of pushing tau below ~1e-2 of the mean spacing.
    """
    t = bbl_terms(profile, tau)
    return _assemble_r2(t.A, t.B, t.C, 1.0 / math.pi**2)


def pair_correlation_finite_n_rescaled(profile: VarianceProfile, x: float) -> float:
    """Finite-N pair correlation in the unit-mean-spacing coordinate."""
    N = profile.degree
    return pair_correlation_finite_n(profile, math.pi * x / N) * (math.pi / N) ** 2


# ---------------------------------------------------------------------------
# large-N limit
# ---------------------------------------------------------------------------


def _cos_moment_series(k: int, y: float) -> float:
    # int_0^1 cos(y t) t^k dt = sum_j (-1)^j y^(2j) / ((2j)! (k+2j+1))
    total = 0.0
    term = 1.0
    j = 0
    while True:
        total += term / (k + 2 * j + 1)
        j += 1
        term *= -y * y / ((2 * j - 1) * (2 * j))
        if j > 3 and abs(term) < 1e-18 * max(abs(total), 1e-300):
            return total


def _sin_moment_series(k: int, y: float) -> float:
    # int_0^1 sin(y t) t^k dt = sum_j (-1)^j y^(2j+1) / ((2j+1)! (k+2j+2))
    total = 0.0
    term = y
    j = 0
    while True:
        total += term / (k + 2 * j + 2)
        j += 1
        term *= -y * y / ((2 * j) * (2 * j + 1))
        if j > 3 and abs(term) < 1e-18 * max(abs(total), 1e-300):
            return total


def _g1_minus_g3_series(p: int, y: float) -> float:
    # g1 - g3 = sum_{j>=1} (-1)^(j+1) y^(2j) / ((2j)! (2p+2j+1)); starting the
    # sum at j = 1 evaluates the difference without cancellation at small y
    total = 0.0
    term = 1.0
    j = 0
    while True:
        j += 1
        term *= -y * y / ((2 * j - 1) * (2 * j))
        c = -term / (2 * p + 2 * j + 1)
        total += c
        if j > 3 and abs(c) < 1e-18 * max(abs(total), 1e-300):
            return total


def _moment_quad(kind: str, k: int, x: float, p: int) -> float:
    w = math.pi * x
    if p > _LAYER_CUTOFF_P:
        # t = 1 - s/(2p): integrand decays like exp(-s), truncate the layer
        s_max = min(2.0 * p, 60.0)

        def h(s):
            t = 1.0 - s / (2.0 * p)
            amp = math.exp(k * math.log1p(-s / (2.0 * p)))
            ph = w * t
            return (math.cos(ph) if kind == "cos" else math.sin(ph)) * amp

        out = quad(h, 0.0, s_max, full_output=True, **_QUAD_OPTS)
        _check_quad(out, f"boundary layer k={k}, x={x}")
        return out[0] / (2.0 * p)

    def h(t):
        return (math.cos(w * t) if kind == "cos" else math.sin(w * t)) * t**k

    out = quad(h, 0.0, 1.0, full_output=True, **_QUAD_OPTS)
    _check_quad(out, f"moment k={k}, x={x}")
    return out[0]


def _check_quad(out, what: str):
    # a roundoff warning with a tiny error estimate is success in disguise;
    # anything with a genuinely large estimate is a real failure
    if len(out) > 3 and out[1] > max(1e-12, 1e-8 * abs(out[0])):
        raise RuntimeError(f"quadrature non-convergence for {what}: {out[3]}")


def g_limit_integrals(p: int, x: float) -> tuple[float, float, float]:
    """(g3, g4, g5) moment integrals of the limit formula.

    Maclaurin series in pi*x for x <= 1.5 (exact to roundoff), adaptive
    Gauss-Kronrod quadrature beyond, with a boundary-layer substitution once
    t^(2p) concentrates near t = 1 for large p.
    """
    if p < 0:
        raise ValueError("p must be non-negative")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0 / (2 * p + 1), 0.0, 1.0 / (2 * p + 3)
    y = math.pi * x
    if x <= _SERIES_CUTOFF:
        return (
            _cos_moment_series(2 * p, y),
            _sin_moment_series(2 * p + 1, y),
            _cos_moment_series(2 * p + 2, y),
        )
    return (
        _moment_quad("cos", 2 * p, x, p),
        _moment_quad("sin", 2 * p + 1, x, p),
        _moment_quad("cos", 2 * p + 2, x, p),
    )


def limit_terms(p: int, x: float) -> MomentTerms:
    """Moment integrals and the A, B, C combination of the limit formula.

    C = g1^2 - g3^2 cancels to O(x^2) at small separation, so on the series
    branch it is computed from a dedicated expansion of g1 - g3.
    """
    g1 = 1.0 / (2 * p + 1)
    g2 = 1.0 / (2 * p + 3)
    g3, g4, g5 = g_limit_integrals(p, x)
    if 0.0 < x <= _SERIES_CUTOFF:
        C = _g1_minus_g3_series(p, math.pi * x) * (g1 + g3)
    else:
        C = g1 * g1 - g3 * g3
    return _moment_terms(g1, g2, g3, g4, g5, C)


def pair_correlation_limit(p: int, x: float) -> float:
    """Pair correlation of real zeros of the p-th derivative, large-N limit.

    Valid for separations x > MIN_SEPARATION in the unit-mean-spacing
    coordinate; between its peaks it plateaus near v_p^2, and near the
    positive integers it develops peaks of height ~ p/n.
    """
    if x <= MIN_SEPARATION:
        raise ValueError(
            "below resolvable separation: use the small-x repulsion expansion"
        )
    t = limit_terms(p, x)
    return _assemble_r2(t.A, t.B, t.C, 1.0)


def pair_correlation_limit_curve(p: int, xs) -> np.ndarray:
    """pair_correlation_limit tabulated over an array of separations."""
    return np.array([pair_correlation_limit(p, float(x)) for x in np.asarray(xs)])
