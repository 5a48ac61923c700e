"""Closed-form and quadrature-based zero statistics.

* Kac-Rice counts.  For a stationary Gaussian trigonometric polynomial the
  expected real-zero density per unit x is (1/pi) * sqrt(B2/A2) with
  A2 = sum sigma_n^2 and B2 = sum n^2 sigma_n^2 (the covariance of (F, F')
  vanishes), which gives the expected fraction of real zeros at finite N and
  the limit value v_p = sqrt((2p+1)/(2p+3)) for the p-th derivative.

* Pair correlation of real zeros, in the coordinate x with unit mean zero
  spacing.  The finite-N curve and its large-N limit are one formula over a
  measure with nodes t in [0, 1] and weights w:

      g1 = sum w,  g2 = sum w t^2,  g3 = sum w cos(pi x t),
      g4 = sum w t sin(pi x t),  g5 = sum w t^2 cos(pi x t),
      C = g1^2 - g3^2,  A = g2 C - g1 g4^2,  B = g5 C - g3 g4^2,
      R2(x) = (B asin(B/A) + sqrt(A^2 - B^2)) / C^(3/2),

  homogeneous of degree 0 in w.  At finite N, mode n sits at t = n/N with
  w = sigma_n^2, mode 0 included (sample() draws a_0 with sigma_0); the
  curve at an unrescaled separation tau is R2(tau N / pi) (N / pi)^2.  For
  the p-th derivative at large N the measure is t^(2p) dt, so
  g1 = 1/(2p+1) and g2 = 1/(2p+3).  Gauss-Legendre rules of 34, 44, 64
  and 103 nodes, each built on first use, resolve cos(pi x t) up to x = 12.5,
  25, 50 and 100; each x takes the smallest that resolves it, so its value
  depends on x alone.  In the node variable u in [-1, 1], cos(pi x t) turns
  at most pi x / 2 radians per unit, and an n-node rule is exact to degree
  2n - 1, so a cap takes about pi cap / 4 nodes; 24 more put the truncation
  error below rounding.  That rule is mapped for each p onto the part of
  [0, 1] where t^(2p) > 1e-16, with t^(2p) folded into its weights.

  A, B and C vanish like x^4, x^4 and x^2, so the form above cancels at
  small x.  _moment_terms, the one place g3, g4, g5, A, B and C are
  computed, takes sin and cos of pi x t / 2 only, sums
  C = (g1 - g3)(g1 + g3) from their doubled squares, and A, B from
  regression residuals: about 12 significant digits down to MIN_SEPARATION.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .poly import _TABLE_WORDS, VarianceProfile

__all__ = [
    "MomentTerms",
    "kac_rice_density",
    "expected_real_fraction",
    "v_p",
    "pair_correlation_finite_n",
    "pair_correlation_finite_n_rescaled",
    "limit_terms",
    "pair_correlation_limit",
    "pair_correlation_limit_curve",
]

# the limit curve refuses separations at or below this one and points to the
# small-x repulsion expansion (asymptotics module); the residual sums keep
# about 12 significant digits down to it
MIN_SEPARATION = 1e-4
# the largest separation the limit rules below resolve
MAX_SEPARATION = 100.0
# a separation x takes the Gauss-Legendre rule of the smallest cap >= x
_CAPS = MAX_SEPARATION / np.array([8.0, 4.0, 2.0, 1.0])
# each rule drops the part of [0, 1] where t^(2p) is below this
_TAIL = 1e-16


# ---------------------------------------------------------------------------
# Kac-Rice
# ---------------------------------------------------------------------------


def kac_rice_density(profile: VarianceProfile) -> float:
    """Expected real zeros per unit x, sqrt(B2/A2)/pi; stationarity makes it
    constant."""
    s2 = profile.sigmas**2
    n = np.arange(profile.degree + 1)
    return math.sqrt(np.sum(n * n * s2) / np.sum(s2)) / math.pi


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
# pair correlation: one core for finite N and the large-N limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentTerms:
    """Moment integrals g1..g5 of the large-N limit and the derived A, B, C
    of the pair-correlation formula."""

    g1: float
    g2: float
    g3: float
    g4: float
    g5: float
    A: float
    B: float
    C: float


def _moment_terms(t: np.ndarray, w: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Rows g3, g4, g5, A, B, C of the measure (t, w), one column per
    separation in xs.

    A/C and B/C are Var F'(0) and Cov(F'(0), F'(x)) given F(0) = F(x) = 0:
    sums over the nodes of products of the residuals of F'(0), F'(x)
    regressed on the uncorrelated F(x) -+ F(0) (variances 2(g1 -+ g3),
    covariances +-g4), not the cancelling g2 C - g1 g4^2.  Each separation
    is reduced on its own row, so its values do not depend on the others.
    Where g1 -+ g3 vanishes (x = 0) C is 0, which _assemble_r2 rejects.
    """
    out = np.empty((6, len(xs)))
    # words per point and node: at most 10 tables and temporaries at once
    rows = max(1, _TABLE_WORDS // (12 * len(t)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, len(xs), rows):
            # the half angle y/2 = pi x t / 2; its cosine overwrites it
            h = (0.5 * np.pi) * np.multiply.outer(xs[i:i + rows], t)
            s, c = np.sin(h), np.cos(h, out=h)
            # 1 -+ cos(y), free of cancellation at y near 0 and near pi
            u, v, sin = 2.0 * s * s, 2.0 * c * c, 2.0 * s * c
            del h, s, c
            cos = 0.5 * (v - u)
            g3 = (w * cos).sum(axis=1)
            g4 = (w * t * sin).sum(axis=1)
            g5 = (w * t * t * cos).sum(axis=1)
            g1_minus_g3 = (w * u).sum(axis=1)
            g1_plus_g3 = (w * v).sum(axis=1)
            # regress on F(x) - F(0) and F(x) + F(0); (ra, rb) and (qa, qb)
            # are the cos and sin parts of the residuals of F'(0) and F'(x)
            alpha = (0.5 * g4 / g1_minus_g3)[:, None]
            beta = (0.5 * g4 / g1_plus_g3)[:, None]
            ra, rb = alpha * u - beta * v, t - (alpha + beta) * sin
            qa, qb = alpha * u + beta * v - t * sin, t * cos - (alpha - beta) * sin
            C = g1_minus_g3 * g1_plus_g3
            A = C * (w * (ra * ra + rb * rb)).sum(axis=1)
            B = C * (w * (ra * qa + rb * qb)).sum(axis=1)
            out[:, i:i + rows] = g3, g4, g5, A, B, C
            del u, v, sin, cos, ra, rb, qa, qb  # freed before the next block's
    return out


def _assemble_r2(A, B, C) -> np.ndarray:
    """R2 from arrays A, B, C; raises if any point is degenerate."""
    if not np.all(C > 0.0) or not np.all(np.isfinite(C)):
        raise ValueError("degenerate separation: C is not positive")
    if np.any(A <= 0.0):
        raise ValueError("degenerate separation: A is not positive")
    r = np.divide(B, A)
    out = np.abs(r) > 1.0 + 1e-9
    if np.any(out):
        raise ValueError(f"arcsin argument out of range: B/A = {r[out][0]!r}")
    r = np.clip(r, -1.0, 1.0)
    return (B * np.arcsin(r) + np.sqrt(np.maximum(A * A - B * B, 0.0))) / C**1.5


def pair_correlation_finite_n_rescaled(profile: VarianceProfile, x: float) -> float:
    """Finite-N pair correlation in the unit-mean-spacing coordinate.

    Even and 2N-periodic in x; raises at multiples of 2N, where C vanishes.
    Elsewhere about 12 significant digits down to MIN_SEPARATION from those
    multiples, except for a profile of one mode (or one to within rounding,
    as N = 16, p = 500): its A vanishes, and the value is rounding noise
    near 0.
    """
    N = profile.degree
    # fold by evenness and period 2N (exactly), so pi x t stays small
    x = abs(math.remainder(x, 2 * N))
    terms = _moment_terms(np.arange(N + 1) / N, profile.sigmas**2, np.array([x]))
    return float(_assemble_r2(*terms[3:])[0])


def pair_correlation_finite_n(profile: VarianceProfile, tau: float) -> float:
    """Expected pair density of real zeros at separation tau (unrescaled x):
    the rescaled curve at tau N / pi, times (N / pi)^2."""
    N = profile.degree
    return pair_correlation_finite_n_rescaled(profile, tau * N / math.pi) * (N / math.pi) ** 2


@functools.cache
def _rule(cap: float):
    """Gauss-Legendre rule on [-1, 1] for x <= cap.

    cos(pi x t) over t in [0, 1] turns pi x / 2 radians per unit of the node
    variable u, so it is about a polynomial of degree pi x / 2 in u, and an
    n-node rule is exact to degree 2n - 1: n = pi cap / 4 nodes, plus 24
    that put the error below the ~1e-13 rounding floor (with 16 it reaches
    1e-9 at cap 100; with 20, 6e-12)."""
    return np.polynomial.legendre.leggauss(math.ceil(math.pi * cap / 4) + 24)


def _limit_terms(p: int, xs: np.ndarray) -> np.ndarray:
    """_moment_terms of the limit measure t^(2p) dt, each x on its own rule."""
    if p < 0:
        raise ValueError("p must be non-negative")
    if not np.all(xs <= MAX_SEPARATION):
        raise ValueError(f"separation above MAX_SEPARATION = {MAX_SEPARATION}")
    half = 0.5 * (1.0 - (_TAIL ** (1.0 / (2 * p)) if p else 0.0))
    rung = np.searchsorted(_CAPS, xs)
    out = np.empty((6, len(xs)))
    for k in np.unique(rung):
        nodes, weights = _rule(_CAPS[k])
        s = half * (1.0 - nodes)  # 1 - t, exact near t = 1
        w = half * weights * np.exp(2 * p * np.log1p(-s))
        out[:, rung == k] = _moment_terms(1.0 - s, w, xs[rung == k])
    return out


def limit_terms(p: int, x: float) -> MomentTerms:
    """Moment integrals and the A, B, C combination of the limit formula,
    exact at x = 0, where A = B = C = 0."""
    if p < 0:
        raise ValueError("p must be non-negative")
    if x < 0:
        raise ValueError("x must be non-negative")
    g1, g2 = 1.0 / (2 * p + 1), 1.0 / (2 * p + 3)
    if x == 0.0:
        return MomentTerms(g1=g1, g2=g2, g3=g1, g4=0.0, g5=g2, A=0.0, B=0.0, C=0.0)
    g3, g4, g5, A, B, C = (float(v[0]) for v in _limit_terms(p, np.array([x], dtype=float)))
    return MomentTerms(g1=g1, g2=g2, g3=g3, g4=g4, g5=g5, A=A, B=B, C=C)


def pair_correlation_limit(p: int, x: float) -> float:
    """Pair correlation of real zeros of the p-th derivative, large-N limit.

    Valid for separations MIN_SEPARATION < x <= MAX_SEPARATION in the
    unit-mean-spacing coordinate; between its peaks it plateaus near v_p^2,
    and near the positive integers it develops peaks of height ~ p/n.
    """
    return float(pair_correlation_limit_curve(p, [x])[0])


def pair_correlation_limit_curve(p: int, xs) -> np.ndarray:
    """pair_correlation_limit tabulated over an array of separations."""
    xs = np.asarray(xs, dtype=float).ravel()
    if np.any(xs <= MIN_SEPARATION):
        raise ValueError(
            "below resolvable separation: use the small-x repulsion expansion"
        )
    return _assemble_r2(*_limit_terms(p, xs)[3:])
