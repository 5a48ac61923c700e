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

import functools
import json
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

# row blocks of the limit curves' tables allocate at most this many float64
# words of temporaries (16 MiB)
_TABLE_WORDS = 1 << 21
# the series evaluator's temporaries hold at most this many float64 words
# (512 KiB) at once
_SERIES_WORDS = 1 << 16
# the hash constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx),
# whose seeding of one substream _pcg64_states replays for many at once
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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


def _seed_hash(v, init, mult, n, rows):
    """SeedSequence's hash of the uint32 words v, once for each of `rows`
    consecutive constants c_k, k = n, n+1, ..., of the sequence c_k = init *
    mult^k mod 2^32: x = (v ^ c_k) * c_k+1, then x ^ (x >> 16), one row per
    constant."""
    c = [init * pow(mult, n + k, 1 << 32) & _MASK32 for k in range(rows + 1)]
    c = np.array(c, dtype=np.uint32)[:, None]
    x = (v ^ c[:-1]) * c[1:]
    return x ^ x >> 16


def _seed_mix(pool, v):
    """SeedSequence's mix of the hashes v into the pool words."""
    x = _MIX_L * pool - _MIX_R * v
    return x ^ x >> 16


def _pcg64_states(seed, lo, hi):
    """The words SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4,
    uint64) seeds PCG64 with, for i = lo..hi-1, as a (hi - lo, 4) array.

    SeedSequence hashes the 32-bit words of the seed into a pool of four
    words (zero-padded to four), then mixes four hashes of each word of the
    spawn key into the pool, one into each word, and hashes the pool into
    the state.  The first stage is the pool of the unspawned
    SeedSequence(seed); the rest is replayed here on uint32 arrays for every
    i at once.  Its hashes take consecutive constants of one sequence, so
    the spawn key's take them after the 16 of the four-word pool and the 4
    of each further seed word.  An index below 2^32 is one key word; a
    larger one, past any ensemble the CLI runs, takes its own SeedSequence.
    """
    out = np.empty((hi - lo, 4), dtype=np.uint64)
    i = np.arange(lo, max(lo, min(hi, 1 << 32)), dtype=np.uint32)
    n = 16 + 4 * max(0, -(-int(seed).bit_length() // 32) - 4)
    pool = np.random.SeedSequence(seed).pool[:, None]
    pool = _seed_mix(pool, _seed_hash(i, _INIT_A, _MULT_A, n, 4))
    state = _seed_hash(np.concatenate([pool, pool]), _INIT_B, _MULT_B, 0, 8)
    # each uint64 is two uint32 words, the first the low half
    out[:len(i)] = state.T.astype("<u4", order="C").view("<u8")
    for k in range(len(i), hi - lo):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(lo + k,))
        out[k] = seq.generate_state(4, np.uint64)
    return out


@functools.cache
def _seed_words():
    """The seed sequence that hands PCG64 its state words as given, defined
    on the first draw: numpy.random is not imported with the package."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for its four uint64 state words
            return self.state

    return Words


def _draws(spec: EnsembleSpec, lo: int, hi: int):
    """Cos and sin coefficient rows (hi - lo, N+1) of realizations lo..hi-1.

    Row k holds the normals of substream (master_seed, lo + k), drawn
    straight into it, times sigma_n, with b_0 = 0.  Each substream's PCG64
    is seeded from the words of _pcg64_states, computed for the whole range
    at once, through a seed sequence that hands them over: the same
    generator as default_rng(SeedSequence(master_seed, spawn_key=(lo + k,))).
    """
    words = _seed_words()
    z = np.empty((hi - lo, 2, spec.degree + 1))
    for k, state in enumerate(_pcg64_states(spec.master_seed, lo, hi)):
        np.random.Generator(np.random.PCG64(words(state))).standard_normal(out=z[k])
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


def _series_values(c, own, x):
    """F and F' at the points of the 1-D array x, point i on the coefficient
    row own[i] of c (K, N+1), c_n = a_n - i b_n, by direct summation:

        F(x) = sum_n a_n cos(nx) + b_n sin(nx),
        F'(x) = sum_n n (b_n cos(nx) - a_n sin(nx)).

    The argument n*x rounds once, by at most eps*n*|x|/2, inside the |x|
    term of the root finder's noise floor; the rest are correctly rounded
    real elementwise products, sums and differences, NumPy's elementwise
    cos and sin, and one sum over each point's own N+1 terms.  So a point's values
    depend only on its row and its x, not on the other points of the call,
    their rows or how many there are.  The points are taken in slices whose
    six (points, N+1) temporaries stay within _SERIES_WORDS float64 words.
    """
    n = np.arange(c.shape[1], dtype=float)
    out = np.empty((2, len(x)))
    step = max(1, _SERIES_WORDS // (6 * len(n)))
    for i in range(0, len(x), step):
        rows = own[i:i + step]
        a, b = c.real[rows], -c.imag[rows]
        nx = np.multiply.outer(x[i:i + step], n)
        cos, sin = np.cos(nx), np.sin(nx, out=nx)
        t, u = a * cos, b * sin
        out[0, i:i + step] = np.add(t, u, out=t).sum(axis=1)
        np.multiply(b, cos, out=t)
        np.multiply(a, sin, out=u)
        out[1, i:i + step] = np.multiply(np.subtract(t, u, out=t), n, out=t).sum(axis=1)
    return out[0], out[1]


def _value_and_slope(f, x):
    """F(x) and F'(x) of one polynomial at the points of the 1-D array x."""
    return _series_values(_coefficients(f)[None], np.zeros(len(x), int), x)


def evaluate(f: TrigPolynomial, x):
    """Evaluate F at scalar or array x (the direct sum the root finder
    certifies its roots with)."""
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
