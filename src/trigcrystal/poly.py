"""Random trigonometric polynomials: representation, Gaussian sampling,
evaluation, and exact differentiation.

The central object is the finite series

    F(x) = sum_{n=0}^{N} a_n cos(n x) + b_n sin(n x),

with real coefficients.  Ensembles draw the coefficients as independent
centered Gaussians with per-mode standard deviations sigma_n; repeated
differentiation reweights mode n by a factor n per derivative, which is
why the zero statistics of high derivatives are dominated by the top
mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrigPolynomial",
    "VarianceProfile",
    "EnsembleSpec",
    "sample",
    "evaluate",
    "evaluate_rescaled",
    "differentiate",
    "derivative_rescaled",
]

# row blocks of the series evaluator allocate at most this many float64
# words of temporaries (16 MiB)
_TABLE_WORDS = 1 << 21


def _frozen_array(values, name):
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TrigPolynomial:
    """Degree-N cosine/sine series with coefficient vectors a_0..a_N, b_0..b_N.

    b_0 must be zero (sin(0*x) contributes nothing).  Instances are immutable
    and safe to share across threads.
    """

    degree: int
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        a = _frozen_array(self.cos_coeffs, "cos_coeffs")
        b = _frozen_array(self.sin_coeffs, "sin_coeffs")
        if len(a) != self.degree + 1 or len(b) != self.degree + 1:
            raise ValueError("coefficient vectors must have length degree + 1")
        if b[0] != 0.0:
            raise ValueError("sin coefficient b_0 must be zero")
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

    @property
    def is_zero(self) -> bool:
        return not (np.any(self.cos_coeffs) or np.any(self.sin_coeffs))

    def to_json(self) -> dict:
        """JSON-serializable fixture form {"degree": N, "a": [...], "b": [...]}."""
        return {
            "degree": self.degree,
            "a": self.cos_coeffs.tolist(),
            "b": self.sin_coeffs.tolist(),
        }

    @classmethod
    def from_json(cls, obj) -> "TrigPolynomial":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(degree=int(obj["degree"]), cos_coeffs=obj["a"], sin_coeffs=obj["b"])


@dataclass(frozen=True)
class VarianceProfile:
    """Per-mode standard deviations sigma_0..sigma_N of the coefficient Gaussians.

    Stores standard deviations, not variances: coefficient n has variance
    sigma_n**2.  At least one sigma_n with n >= 1 must be positive, otherwise
    the polynomial is constant and zero statistics are undefined.
    """

    sigmas: np.ndarray

    def __post_init__(self):
        s = _frozen_array(self.sigmas, "sigmas")
        if len(s) < 2:
            raise ValueError("profile needs at least modes 0 and 1")
        if np.any(s < 0.0):
            raise ValueError("standard deviations must be non-negative")
        if not np.any(s[1:] > 0.0):
            raise ValueError("at least one sigma_n with n >= 1 must be positive")
        object.__setattr__(self, "sigmas", s)

    @property
    def degree(self) -> int:
        return len(self.sigmas) - 1

    @classmethod
    def equal(cls, degree: int, sigma: float = 1.0) -> "VarianceProfile":
        """All modes share the same standard deviation."""
        return cls(np.full(degree + 1, float(sigma)))

    @classmethod
    def derivative(cls, degree: int, order: int, sigma: float = 1.0) -> "VarianceProfile":
        """Profile of the order-th derivative of an equal-variance polynomial.

        Mode n is weighted by n**order.  The stored values are normalized to
        (n/N)**order so that arbitrarily high orders stay inside the floating
        range; all zero statistics are invariant under that overall rescaling.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        if degree < 1:
            raise ValueError("derivative profile needs degree >= 1")
        n = np.arange(degree + 1, dtype=float)
        return cls(float(sigma) * (n / degree) ** order)


@dataclass(frozen=True)
class EnsembleSpec:
    """Full description of a reproducible Monte Carlo ensemble.

    Two runs with equal EnsembleSpec produce bit-identical realizations, no
    matter how the realizations are partitioned across workers: realization i
    uses its own substream keyed by (master_seed, i).
    """

    degree: int
    derivative_order: int
    profile: VarianceProfile
    realizations: int
    master_seed: int

    def __post_init__(self):
        if self.profile.degree != self.degree:
            raise ValueError("profile degree does not match spec degree")
        if self.derivative_order < 0:
            raise ValueError("derivative_order must be non-negative")
        if self.realizations < 1:
            raise ValueError("realizations must be at least 1")

    @classmethod
    def equal_variance(
        cls,
        degree: int,
        derivative_order: int,
        realizations: int,
        master_seed: int,
        sigma: float = 1.0,
    ) -> "EnsembleSpec":
        return cls(
            degree=degree,
            derivative_order=derivative_order,
            profile=VarianceProfile.equal(degree, sigma),
            realizations=realizations,
            master_seed=master_seed,
        )


def _draws(spec: EnsembleSpec, lo: int, hi: int):
    """Cos and sin coefficient rows (hi - lo, N+1) of realizations lo..hi-1.

    Row k holds the normals of substream (master_seed, lo + k), drawn
    straight into it, times sigma_n, with b_0 = 0.
    """
    z = np.empty((hi - lo, 2, spec.degree + 1))
    for k in range(hi - lo):
        seq = np.random.SeedSequence(entropy=spec.master_seed, spawn_key=(lo + k,))
        np.random.default_rng(seq).standard_normal(out=z[k])
    z *= spec.profile.sigmas
    z[:, 1, 0] = 0.0
    return z[:, 0], z[:, 1]


def sample(spec: EnsembleSpec, index: int) -> TrigPolynomial:
    """Draw realization `index` of the ensemble.

    Coefficients are independent Gaussian(0, sigma_n**2), generated by
    numpy's PCG64 ziggurat normal sampler on a SeedSequence substream
    spawned as (master_seed, index).  The draw is a pure function of
    (spec, index), and the ensemble's blocks draw it by the same routine.
    """
    if not 0 <= index < spec.realizations:
        raise IndexError(f"realization index {index} outside [0, {spec.realizations})")
    a, b = _draws(spec, index, index + 1)
    return TrigPolynomial(degree=spec.degree, cos_coeffs=a[0], sin_coeffs=b[0])


def _coefficient_rows(spec: EnsembleSpec, lo: int, hi: int):
    """Complex coefficient rows c = a - i b (hi - lo, N+1) of the rescaled
    derivatives F^(p) N^-p of realizations lo..hi-1; row k equals
    _coefficients(derivative_rescaled(sample(spec, lo + k), p)) bit for bit."""
    a, b = _draws(spec, lo, hi)
    if spec.derivative_order > 0:
        a, b = _rescaled(a, b, spec.derivative_order)
    return a - 1j * b


def _coefficients(f):
    """The complex coefficients c_n = a_n - i b_n of f, so that
    F(x) = Re sum_n c_n exp(inx)."""
    return f.cos_coeffs - 1j * f.sin_coeffs


def _factored(c):
    """Value/slope matrices of the factored evaluator for coefficient rows c.

    With c_n = a_n - i b_n, F(x) = Re sum_n c_n exp(inx) and F'(x) =
    Re sum_n i n c_n exp(inx).  Writing n = qB + r with B = ceil(sqrt(N+1)),
    r < B and q < Q = ceil((N+1)/B) factors exp(inx) = exp(iqBx) exp(irx):
    each row of c (K, N+1), zero-padded to Q*B, becomes a (B, 2Q) matrix of
    value and slope columns, returned as one (K, B, 2Q) array.
    """
    K, n1 = c.shape
    B = math.isqrt(n1 - 1) + 1
    Q = -(-n1 // B)
    cp = np.zeros((K, Q * B), dtype=complex)
    cp[:, :n1] = c
    slope = 1j * np.arange(Q * B) * cp
    C = np.concatenate([cp.reshape(K, Q, B), slope.reshape(K, Q, B)], axis=1)
    return np.ascontiguousarray(C.transpose(0, 2, 1))


def _doubled(T, size):
    """exp(ikx) for k < size along the first axis, from T[j] = exp(i 2^j x):
    each step multiplies the powers found so far by the next factor, so
    power k is the product of the factors of its binary digits."""
    out = np.empty((size, *T.shape[1:]), dtype=complex)
    out[0] = 1.0
    w = 1
    for j in range(len(T)):
        n = min(w, size - w)
        np.multiply(out[:n], T[j], out=out[w:w + n])
        w *= 2
    return out


def _series_values(C, own, x):
    """F and F' at the points of the 1-D array x, point i on row own[i] of
    the factored matrices C (K, B, 2Q); own must be non-decreasing.

    Each point needs the B + Q powers E = exp(irx) and G = exp(iqBx), and
    the sums are Re sum_q G_q (E @ C)_q.  Only exponentials of power-of-two
    multiples are taken, exp(i 2^j x) for 2^j < B and exp(i (2^j B) x) for
    2^j < Q: about log2 N complex exponentials per point instead of N+1
    cosines and N+1 sines.  E and G are filled from them by doubling
    products, E[w:2w] = E[:w] exp(iwx).  The arguments 2^j x are exact and
    (2^j B) x rounds once, so the arguments of exp(inx) together round by at
    most eps*n*|x|, inside the |x| term of the root finder's noise floor;
    each power is a product of at most log2 N correctly rounded factors.
    (Squaring exp(ix) repeatedly would double its rounding with every step.)

    The points are grouped by row and padded to the largest group, so each
    row's points meet its own matrix in one stacked matmul.  They are taken
    in blocks whose temporaries together hold at most _TABLE_WORDS float64
    words, so memory stays bounded at large degree.
    """
    K, B, Q = C.shape[0], C.shape[1], C.shape[2] // 2
    n = len(x)
    if n == 0:
        return np.empty(0), np.empty(0)
    if own[0] == own[-1]:
        rows, L, X = own[:1], n, x[None]
    else:
        starts = np.flatnonzero(np.diff(own, prepend=-1))
        counts = np.diff(np.append(starts, n))
        rows, L = own[starts], int(counts.max())
        grp = np.repeat(np.arange(len(rows)), counts)
        pos = np.arange(n) - starts[grp]
        X = np.zeros((len(rows), L))
        X[grp, pos] = x
    if len(rows) < K:
        C = C[rows]
    je, jg = (B - 1).bit_length(), (Q - 1).bit_length()
    mult = np.concatenate([2.0 ** np.arange(je), B * 2.0 ** np.arange(jg)])
    out = np.empty((len(rows), L, 2))
    # words per point: the je + jg exponentials with the real and complex
    # intermediates of 1j*outer (1 + 2 + 2 per column), E and G (2 per
    # power), the product (4 per q), the sums (4)
    budget = max(1, _TABLE_WORDS // (5 * (je + jg) + 2 * (B + Q) + 4 * Q + 4))
    kc = max(1, min(len(rows), budget // L))
    lc = max(1, budget // kc)
    for k in range(0, len(rows), kc):
        for i in range(0, L, lc):
            xb = X[k:k + kc, i:i + lc]
            # powers first, so each doubling product is one contiguous run
            T = np.exp(1j * np.multiply.outer(mult, xb))
            E, G = _doubled(T[:je], B), _doubled(T[je:], Q)
            P = np.matmul(E.transpose(1, 2, 0), C[k:k + kc]).reshape(*xb.shape, 2, Q)
            out[k:k + kc, i:i + lc] = np.matmul(P, G.transpose(1, 2, 0)[..., None])[..., 0].real
            del T, E, G, P  # before the next block is built
    out = out[0] if len(rows) == 1 else out[grp, pos]
    return out[:, 0], out[:, 1]


def _value_and_slope(f, x):
    """F(x) and F'(x) of one polynomial at the points of the 1-D array x."""
    return _series_values(_factored(_coefficients(f)[None]), np.zeros(len(x), int), x)


def evaluate(f: TrigPolynomial, x):
    """Evaluate F at scalar or array x (the value column of the factored
    evaluator shared with the root finder)."""
    xv = np.asarray(x, dtype=float)
    vals = _value_and_slope(f, xv.ravel())[0].reshape(xv.shape)
    if xv.ndim == 0:
        return float(vals)
    return vals


def evaluate_rescaled(f: TrigPolynomial, x_rescaled):
    """Evaluate F(pi * x / N): in this coordinate the mean spacing of the
    2N zeros per period is exactly 1."""
    if f.degree < 1:
        raise ValueError("rescaling needs degree >= 1")
    return evaluate(f, np.asarray(x_rescaled, dtype=float) * (np.pi / f.degree))


def _turned(a, b, times):
    """Coefficients (a, b) turned `times` times by (a_n, b_n) -> (b_n, -a_n),
    the phase one derivative puts on each mode."""
    for _ in range(times % 4):
        a, b = b, -a
    return a, b


def _rescaled(a, b, times):
    """Coefficient rows (..., N+1) of the `times`-th derivative scaled by
    N**(-times): mode n weighted by (n/N)**times, then turned."""
    w = (np.arange(a.shape[-1], dtype=float) / (a.shape[-1] - 1)) ** times
    return _turned(w * a, w * b, times)


def differentiate(f: TrigPolynomial, times: int = 1) -> TrigPolynomial:
    """Exact derivative, applied `times` times.

    One application maps (a_n, b_n) -> (n*b_n, -n*a_n); four applications
    give (n^4*a_n, n^4*b_n).  The constant term is annihilated.  The factor
    n is applied once per derivative, so differentiate(differentiate(f, i), j)
    equals differentiate(f, i + j) bit for bit.
    """
    if times < 1:
        raise ValueError("times must be at least 1")
    n = np.arange(f.degree + 1, dtype=float)
    a, b = f.cos_coeffs, f.sin_coeffs
    for _ in range(times):
        a, b = n * a, n * b
    return TrigPolynomial(f.degree, *_turned(a, b, times))


def derivative_rescaled(f: TrigPolynomial, times: int) -> TrigPolynomial:
    """The `times`-th derivative scaled by N**(-times).

    Same zero set as differentiate(f, times); the per-mode weight is
    computed as (n/N)**times so very high orders cannot overflow.  Used by
    the ensemble pipeline, where all statistics are scale invariant.
    """
    if times < 0:
        raise ValueError("times must be non-negative")
    if times == 0:
        return f
    if f.degree < 1:
        raise ValueError("rescaled derivative needs degree >= 1")
    return TrigPolynomial(f.degree, *_rescaled(f.cos_coeffs, f.sin_coeffs, times))
