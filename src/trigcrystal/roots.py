"""Real (and complex) zeros of trigonometric polynomials over one period.

Two independent routes are provided and cross-validated in the test suite:

* ``real_roots_sampled`` evaluates F and F' on a uniform grid of
  16*(2N+1) points by one zero-padded inverse real FFT (O(m) memory),
  brackets the sign changes of F and refines each bracket by a safeguarded
  Newton iteration started at the secant point.  Off the grid, F and F'
  come from the factored evaluator of ``poly``, which writes exp(inx) as
  exp(iqBx) exp(irx) with B = ceil(sqrt(N+1)), so each Newton point costs
  about 2*sqrt(N) complex exponentials and one small matrix product.  A
  degree-N polynomial has at most 2N real zeros per period, so a missed
  bracket is very unlikely; a second pass inspects shallow dips that touch
  zero without a grid sign change, locating each extremum by the same
  Newton iteration on F'.
  Refinement stops at the rounding noise of the series,
  |F(x)| <= 4 eps (sum |a_n|+|b_n| + |x| sum n(|a_n|+|b_n|)), where the
  second term is the rounding of the arguments n*x.

* ``all_roots_companion`` substitutes z = exp(ix), turning F into an
  algebraic polynomial Q of degree 2N with F(x) = exp(-iNx) Q(exp(ix)),
  and takes companion-matrix eigenvalues.  Unit-circle roots of Q are the
  real zeros of F; the rest come in conjugate-symmetric pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import TrigPolynomial, _value_and_slope, differentiate

__all__ = [
    "RootSet",
    "real_roots_sampled",
    "all_roots_companion",
]

DEFAULT_OVERSAMPLE = 16
DEFAULT_TOL = 1e-12
DEFAULT_CLASSIFY_TOL = 1e-8
MAX_REFINE_ITERATIONS = 200
_EPS = np.finfo(float).eps
# dips shallower than this fraction of the grid max cannot hide a root pair
# at the default oversampling (depth <= (N*dx)^2/8 of the local scale)
DIP_DEPTH_FRACTION = 0.05


@dataclass(frozen=True)
class RootSet:
    """Zeros of one polynomial over [0, 2*pi).

    real_roots is strictly increasing.  complex_roots, when present, holds
    the non-real zeros x = -i log z of the companion method; together the
    two lists then account for all 2N zeros counted with multiplicity.
    """

    real_roots: np.ndarray
    complex_roots: np.ndarray | None
    method: str
    tolerance: float

    def __post_init__(self):
        rr = np.asarray(self.real_roots, dtype=float)
        object.__setattr__(self, "real_roots", rr)
        if self.complex_roots is not None:
            object.__setattr__(
                self, "complex_roots", np.asarray(self.complex_roots, dtype=complex)
            )

    @property
    def real_count(self) -> int:
        return len(self.real_roots)

    def to_json(self) -> dict:
        cplx = None
        if self.complex_roots is not None:
            cplx = [[float(z.real), float(z.imag)] for z in self.complex_roots]
        return {
            "real": self.real_roots.tolist(),
            "complex": cplx,
            "method": self.method,
        }

    def real_roots_csv(self) -> str:
        """One real root per line, full precision."""
        return "\n".join(repr(float(r)) for r in self.real_roots) + "\n"


def _grid_values(f, m):
    """F and F' at x_k = 2*pi*k/m, k < m, by one zero-padded inverse real FFT.

    Bin n of the half spectrum holds (m/2)(a_n - i b_n) (bin 0 holds m*a_0),
    and the derivative's bins are i*n times those, the transform of
    (n*b_n, -n*a_n).  Needs m > 2N, which oversample >= 4 guarantees.
    """
    n = np.arange(f.degree + 1)
    spec = np.zeros((2, m // 2 + 1), dtype=complex)
    spec[0, n] = 0.5 * m * (f.cos_coeffs - 1j * f.sin_coeffs)
    spec[0, 0] = m * f.cos_coeffs[0]
    spec[1, n] = 1j * n * spec[0, n]
    return np.fft.irfft(spec, m)


def _noise_floor(f):
    """(c0, c1) of the bound c0 + c1*|x| on the rounding error of computed F(x).

    c0 covers the cos/sin values and the sum, c1 the rounding of the
    arguments n*x, which dominates at large N.
    """
    w = np.abs(f.cos_coeffs) + np.abs(f.sin_coeffs)
    n = np.arange(f.degree + 1)
    return 4.0 * _EPS * w.sum(), 4.0 * _EPS * (n * w).sum()


def _inside(x, lo, hi):
    """x where it lies strictly inside (lo, hi), the midpoint elsewhere."""
    bad = ~np.isfinite(x) | (x <= lo) | (x >= hi)
    return np.where(bad, 0.5 * (lo + hi), x)


def _newton(f, lo, hi, flo, fhi):
    """One zero of f in each bracket [lo, hi], flo and fhi of opposite sign.

    Safeguarded Newton, vectorized over the brackets: it starts from the
    secant point, every evaluation shrinks the bracket, and a step that
    would leave the bracket is replaced by its midpoint.  A bracket is done
    when |f(x)| is inside the rounding noise of the series, when the Newton
    step no longer moves x, or when the bracket has shrunk to adjacent
    floats.
    """
    c0, c1 = _noise_floor(f)
    lo, hi = lo.copy(), hi.copy()
    lo_sign = np.sign(flo)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _inside((lo * fhi - hi * flo) / (fhi - flo), lo, hi)
    live = np.arange(len(x))
    for _ in range(MAX_REFINE_ITERATIONS):
        xl = x[live]
        fx, dfx = _value_and_slope(f, xl)
        on_lo = np.sign(fx) == lo_sign[live]
        a = np.where(on_lo, xl, lo[live])
        b = np.where(on_lo, hi[live], xl)
        lo[live], hi[live] = a, b
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xl - fx / dfx
        done = (np.abs(fx) <= c0 + c1 * np.abs(xl)) | (xn == xl)
        xn = _inside(xn, a, b)
        done |= xn == xl
        x[live] = np.where(done, xl, xn)
        live = live[~done]
        if len(live) == 0:
            return x
    worst = live[0]
    raise RuntimeError(
        f"root refinement did not converge: bracket [{lo[worst]!r}, {hi[worst]!r}] "
        f"after {MAX_REFINE_ITERATIONS} iterations"
    )


def _dip_brackets(f, x, vals, dvals):
    """Brackets hidden in shallow same-sign dips (near-tangent root pairs).

    A pair of close real roots can sit between grid points without a sign
    change; the dip minimum is then a zero of F' with F small.  Locates the
    extremum by Newton on F' inside the grid cell pair around each candidate
    and returns (lo, hi, flo, fhi) brackets on both sides of it wherever F
    flips sign there.
    """
    m = len(x)
    step = x[1]
    absv = np.abs(vals)
    interior_min = (absv < np.roll(absv, 1)) & (absv <= np.roll(absv, -1))
    shallow = absv < DIP_DEPTH_FRACTION * np.max(absv)
    no_change = (np.roll(vals, 1) * vals > 0) & (vals * np.roll(vals, -1) > 0)
    cand = np.nonzero(interior_min & shallow & no_change)[0]
    da, db = dvals[cand - 1], dvals[(cand + 1) % m]
    keep = da * db < 0
    cand = cand[keep]
    c = _newton(differentiate(f, 1), x[cand] - step, x[cand] + step, da[keep], db[keep])
    fc, _ = _value_and_slope(f, c)
    flips = fc * vals[cand] < 0
    j, c, fc = cand[flips], c[flips], fc[flips]
    return (
        np.concatenate([x[j] - step, c]),
        np.concatenate([c, x[j] + step]),
        np.concatenate([vals[j - 1], fc]),
        np.concatenate([fc, vals[(j + 1) % m]]),
    )


def real_roots_sampled(
    f: TrigPolynomial,
    oversample: int = DEFAULT_OVERSAMPLE,
    tol: float = DEFAULT_TOL,
) -> RootSet:
    """All real zeros in [0, 2*pi) by dense sampling plus bracket refinement.

    Each root is refined to the rounding noise of the series; tol is the
    separation below which two refined roots count as one.
    """
    if oversample < 4:
        raise ValueError("oversample must be at least 4")
    if f.is_zero:
        raise ValueError("degenerate input: polynomial is identically zero")
    m = oversample * (2 * f.degree + 1)
    xe = np.arange(m + 1) * (2.0 * np.pi / m)
    x = xe[:m]
    vals, dvals = _grid_values(f, m)

    nxt = np.roll(vals, -1)
    idx = np.nonzero(vals * nxt < 0.0)[0]
    grid = (x[idx], xe[idx + 1], vals[idx], nxt[idx])
    lo, hi, flo, fhi = map(np.concatenate, zip(grid, _dip_brackets(f, x, vals, dvals)))
    roots = np.concatenate([x[vals == 0.0], _newton(f, lo, hi, flo, fhi)])
    roots = np.sort(np.mod(roots, 2.0 * np.pi))
    if len(roots) > 1:
        keep = np.concatenate([[True], np.diff(roots) > 10 * tol])
        # wrap-around duplicate (a root found both near 0 and near 2*pi)
        if roots[-1] - roots[0] > 2.0 * np.pi - 10 * tol:
            keep[-1] = False
        roots = roots[keep]
    return RootSet(real_roots=roots, complex_roots=None, method="sampled", tolerance=tol)


def _polish_real(f, x0):
    """A few Newton steps on the trig series; keeps eigenvalue-derived real
    roots consistent with the refined sampled positions."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(4):
        fx, dfx = _value_and_slope(f, x)
        step = np.where(dfx != 0.0, fx / np.where(dfx == 0.0, 1.0, dfx), 0.0)
        step = np.clip(step, -1e-3, 1e-3)
        x = x - step
    return x


def all_roots_companion(
    f: TrigPolynomial,
    classify_tol: float = DEFAULT_CLASSIFY_TOL,
    polish: bool = True,
) -> RootSet:
    """All 2N zeros via companion-matrix eigenvalues of Q(z), z = exp(ix).

    Q has coefficients c_{N+n} = (a_n - i b_n)/2, c_{N-n} = (a_n + i b_n)/2,
    c_N = a_0, so that F(x) = exp(-iNx) Q(exp(ix)).  Eigenvalues z with
    ||z| - 1| < classify_tol are classified real and mapped to x = arg z
    (mod 2*pi); the remainder are reported as complex x = -i log z.
    """
    N = f.degree
    if N < 1:
        raise ValueError("companion method needs degree >= 1")
    a, b = f.cos_coeffs, f.sin_coeffs
    if a[N] == 0.0 and b[N] == 0.0:
        raise ValueError("degree deficient: leading coefficients a_N, b_N both zero")
    c = np.zeros(2 * N + 1, dtype=complex)
    c[N] = a[0]
    for n in range(1, N + 1):
        c[N + n] = 0.5 * (a[n] - 1j * b[n])
        c[N - n] = 0.5 * (a[n] + 1j * b[n])
    z = np.polynomial.polynomial.polyroots(c)

    dist = np.abs(np.abs(z) - 1.0)
    on_circle = dist < classify_tol
    real = np.mod(np.angle(z[on_circle]), 2.0 * np.pi)
    if polish and len(real):
        real = np.mod(_polish_real(f, real), 2.0 * np.pi)
    real = np.sort(real)
    off = z[~on_circle]
    cplx = np.angle(off) - 1j * np.log(np.abs(off))
    order = np.lexsort((cplx.imag, cplx.real))
    return RootSet(
        real_roots=real,
        complex_roots=cplx[order],
        method="companion",
        tolerance=classify_tol,
    )
