"""Large-order asymptotics of the pair correlation and the approach to
equal spacing.

As the derivative order p grows, the pair correlation collapses onto a sum
of unit-mass peaks near the positive integers.  The peak near n is centered
at n*(1 + 1/(2p)), has height p/n, and its shape in the zoom variable u
(separation = n*(1 + 1/(2p) + u/p)) is the heavy-tailed density

    (1 + 4 u^2)^(-3/2),

which is also the rescaled nearest-neighbor spacing law.  At the other end,
separations x -> 0 show linear repulsion with slope falling off like
pi^2/(8 p^2), the same magnitude as the fraction of zeros that turn real at
order p, i.e. the new arrivals drive the close pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import v_p

__all__ = [
    "series_abc",
    "peak_location",
    "theorem_profile",
    "nn_density",
    "nn_cdf",
    "repulsion_slope",
    "repulsion_expansion",
    "new_real_fraction",
    "TripleZeroDemo",
    "gap_function",
    "gap_function_derivative",
    "triple_zero_demo",
    "triple_zero_count",
    "triple_zero_threshold",
    "TRIPLE_ZERO_CRITICAL",
]

# pitchfork of the derivative of the gap function at x = 1/2:
# f''(1/2) = 4 (pi^2 - 8) a^2 - 8 changes sign here
TRIPLE_ZERO_CRITICAL = math.sqrt(2.0 / (math.pi**2 - 8.0))
# triple_zero_count samples the derivative at this many interior points
TRIPLE_ZERO_POINTS = 8001
# the largest a of the gap function, far below a = 1e152, from where its
# derivative overflows on triple_zero_demo's grid
GAP_A_MAX = 1e100


def theorem_profile(n: int, p: int, u):
    """Peak shape (p/n) * (1 + 4u^2)^(-3/2) in the zoom variable u.

    In the original separation variable the peak carries total mass 1, so
    this is the limiting Dirac profile near the integer n.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return (p / n) * nn_density(u)


def nn_density(u):
    """Rescaled nearest-neighbor spacing density (1 + 4u^2)^(-3/2).

    u = p * (s - 1 - 1/(2p)) for a gap s at derivative order p; total mass 1,
    with much heavier tails than any Gaussian.
    """
    u = np.asarray(u, dtype=float)
    out = (1.0 + 4.0 * u * u) ** -1.5
    return float(out) if out.ndim == 0 else out


def nn_cdf(u):
    """Closed-form CDF of nn_density: 1/2 + u / (2 sqrt(1/4 + u^2))."""
    u = np.asarray(u, dtype=float)
    out = 0.5 + u / np.sqrt(1.0 + 4.0 * u * u)
    return float(out) if out.ndim == 0 else out


def series_abc(p: int, x: float) -> tuple[float, float, float]:
    """Truncated large-p expansions of the limit-formula ingredients A, B, C.

    A and B carry their order p^-5 leading terms, C the p^-2, p^-3 and p^-4
    terms.  The C expansion is accurate to O(p^-5) uniformly in x; the A and
    B leading terms are exact only near integer x (at x = n both reduce to
    +-pi^2 n^2/32 p^-5) and should not be used as quantitative approximations
    between the peaks.
    """
    if p < 2:
        raise ValueError("expansions need p >= 2")
    pi = math.pi
    y = pi * x
    a5 = (-2 * y * y - 2 * math.sin(2 * y) * y + (4 * y * y - 1) * math.cos(2 * y) + 1) / 64.0
    b5 = (
        math.cos(y) + (4 * y * y - 1) * math.cos(3 * y) - 8 * y * math.sin(y)
    ) / 128.0
    c2 = 0.25 * math.sin(y) ** 2
    c3 = -0.25 * (y * math.cos(y) + math.sin(y)) * math.sin(y)
    c4 = (y * y + 8 * math.sin(2 * y) * y + 3 * (y * y - 1) * math.cos(2 * y) + 3) / 32.0
    A = a5 * p**-5
    B = b5 * p**-5
    C = c2 * p**-2 + c3 * p**-3 + c4 * p**-4
    return A, B, C


def peak_location(n: int, p: int) -> float:
    """Solve tan(2 pi x) = pi x / p for the root nearest the integer n.

    This stationarity condition locates the pair-correlation peak, shifted
    from n to approximately n*(1 + 1/(2p)).  On the branch
    (n - 1/4, n + 1/4) it reads x = n + atan(pi x / p) / (2 pi), whose
    right side is a contraction by at most 1/(2p) <= 1/4, so the iteration
    from n reaches its fixed point to rounding in a few steps (at most 15
    for n <= 1000, p <= 500); the cap of 64 only ends a two-float cycle.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if p < 2:
        raise ValueError("peak equation needs p >= 2")
    x = float(n)
    for _ in range(64):
        x, last = n + math.atan(math.pi * x / p) / (2.0 * math.pi), x
        if x == last:
            break
    return x


def repulsion_slope(p: int) -> float:
    """Linear coefficient of the pair correlation at small separation."""
    if p < 0:
        raise ValueError("p must be non-negative")
    return (
        math.pi**2
        * math.sqrt(4.0 * p * p + 8.0 * p + 3.0)
        / (2.0 * (2 * p + 3) ** 2 * (2 * p + 5))
    )


def repulsion_expansion(p: int, x: float) -> float:
    """Small-separation pair correlation: slope * x + c3 * x^3 + O(x^4).

    Valid for 0 <= x <= 0.2.  The expansion has no x^2 term; c3 is the
    closed-form cubic coefficient from the Maclaurin series of g3, g4, g5,

        c3 = pi^4 sqrt(2p+1) (32p^3 + 240p^2 + 450p + 135)
             / (36 (2p+3)^(5/2) (2p+5)^2 (2p+7)),

    and the sum tracks the limit formula to 1e-4 relative at x = 0.05 and
    to 1e-2 at x = 0.2.  For large p the slope behaves like pi^2 / (8 p^2):
    every derivative order keeps linear repulsion, at a strength matching
    the influx of newly real zeros.
    """
    if not 0.0 <= x <= 0.2:
        raise ValueError("expansion domain is 0 <= x <= 0.2")
    linear = repulsion_slope(p) * x
    c3 = (
        math.pi**4
        * math.sqrt(2 * p + 1)
        * (32 * p**3 + 240 * p**2 + 450 * p + 135)
        / (36 * (2 * p + 3) ** 2.5 * (2 * p + 5) ** 2 * (2 * p + 7))
    )
    return linear + c3 * x**3


def new_real_fraction(p: int) -> float:
    """Fraction of zeros that become real at derivative order p: v_p - v_{p-1}."""
    if p < 1:
        raise ValueError("p must be at least 1")
    return v_p(p) - v_p(p - 1)


# ---------------------------------------------------------------------------
# close-pair mechanism: a sine with one gap bridged by a conjugate pair
# ---------------------------------------------------------------------------


def _sin_over_gap(x):
    """sin(pi x) / (x (x - 1)) with the removable singularities at 0 and 1."""
    x = np.asarray(x, dtype=float)
    near0 = np.abs(x) < 0.5
    near1 = np.abs(x - 1.0) < 0.5
    safe = np.where(near0 | near1, 0.25, x)  # dummy point away from the poles
    generic = np.sin(np.pi * safe) / (safe * (safe - 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        v0 = np.pi * np.sinc(x) / np.where(near0, x - 1.0, 1.0)
        v1 = -np.pi * np.sinc(x - 1.0) / np.where(near1, x, 1.0)
    return np.where(near0, v0, np.where(near1, v1, generic))


def gap_function(x, a: float):
    """f(x) = sin(pi x) ((x - 1/2)^2 + a^2) / (x (x - 1)), for 0 < a <=
    GAP_A_MAX.

    Entire function with zeros at every integer except 0 and 1, plus the
    conjugate pair 1/2 +- i a bridging the double-width gap.
    """
    if not 0 < a <= GAP_A_MAX:
        raise ValueError(f"a must be in (0, {GAP_A_MAX:g}], got {a!r}")
    x = np.asarray(x, dtype=float)
    out = _sin_over_gap(x) * ((x - 0.5) ** 2 + a * a)
    return float(out) if out.ndim == 0 else out


def gap_function_derivative(x, a: float):
    """Exact derivative of gap_function, finite at the removable points:
    f'(0) = pi (3/4 - a^2) = -f'(1)."""
    if not 0 < a <= GAP_A_MAX:
        raise ValueError(f"a must be in (0, {GAP_A_MAX:g}], got {a!r}")
    x = np.asarray(x, dtype=float)
    # the two 1/w terms cancel at the removable points; snap a tiny
    # neighborhood to the exact limits to avoid catastrophic cancellation
    at0 = np.abs(x) < 1e-9
    at1 = np.abs(x - 1.0) < 1e-9
    safe = np.where(at0 | at1, 0.25, x)
    w = safe * (safe - 1.0)
    val = np.pi * np.cos(np.pi * safe) * ((safe - 0.5) ** 2 + a * a) / w - np.sin(
        np.pi * safe
    ) * (2.0 * safe - 1.0) * (a * a + 0.25) / (w * w)
    val = np.where(at0, np.pi * (0.75 - a * a), val)
    val = np.where(at1, -np.pi * (0.75 - a * a), val)
    out = val
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TripleZeroDemo:
    """Sampled gap function, its derivative, and the derivative zero count."""

    a: float
    x: np.ndarray
    f: np.ndarray
    fprime: np.ndarray
    derivative_zero_count: int


def triple_zero_count(a: float) -> int:
    """Sign changes of the gap-function derivative strictly inside (0, 1),
    sampled at TRIPLE_ZERO_POINTS interior points."""
    x = np.linspace(0.0, 1.0, TRIPLE_ZERO_POINTS + 2)[1:-1]
    d = gap_function_derivative(x, a)
    s = np.sign(d[np.abs(d) > 1e-12 * np.max(np.abs(d))])
    return int(np.sum(s[1:] != s[:-1]))


def triple_zero_demo(a: float) -> TripleZeroDemo:
    """Evaluate the gap function and derivative on 6001 points of [-1/4, 5/4].

    Below the critical a the derivative has three zeros in (0, 1): the pair
    flanking 1/2 are exactly the closely spaced zeros that newly real
    arrivals produce.  Above it only the midpoint zero survives.
    """
    x = np.linspace(-0.25, 1.25, 6001)
    return TripleZeroDemo(
        a=a,
        x=x,
        f=gap_function(x, a),
        fprime=gap_function_derivative(x, a),
        derivative_zero_count=triple_zero_count(a),
    )


def triple_zero_threshold(lo: float = 0.9, hi: float = 1.2, tol: float = 1e-6) -> float:
    """Bisect the 3 -> 1 transition of the derivative zero count."""
    if triple_zero_count(lo) < 3 or triple_zero_count(hi) != 1:
        raise ValueError("bracket does not straddle the transition")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if triple_zero_count(mid) >= 3:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
