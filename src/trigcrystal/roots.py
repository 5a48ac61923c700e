"""Real (and complex) zeros of trigonometric polynomials over one period.

Two independent routes are provided and cross-validated in the test suite:

* ``real_roots_sampled`` evaluates F and F' on a uniform grid of
  m = 16*(2N+1) points by one inverse real FFT of length m (O(m) memory),
  brackets the sign changes of F and refines each bracket by a safeguarded
  Newton iteration.  It starts at the zero of the cubic Hermite
  interpolant of F and F' at the two bracket ends, which the grid already
  holds, and accepts the Newton point from there without evaluating it
  when a proven bound puts |F| there within twice the noise floor: the
  second-order Taylor remainder, at most sum n^2 |c_n| D^2 / 2 for a step
  D, plus the evaluator's errors at the start and the rounding of the step
  (``_newton``).  So most roots take one evaluation, at the start (1.03
  per root at N=256, p=20; 1.38 at N=64, p=0, with its many close pairs).
  Off the grid, F and F' come from the factored evaluator of
  ``poly``, which writes exp(inx) as exp(iqBx) exp(irx) with
  B = ceil(sqrt(N+1)) and builds both factors by doubling products from
  the exponentials of power-of-two multiples of x, so each Newton point
  costs about log2 N complex exponentials and one small matrix product.  A
  degree-N polynomial has at most 2N real zeros per period, so a missed
  bracket is very unlikely; a second pass inspects shallow dips that may
  touch zero without a grid sign change.  It first screens them with the
  cubic Hermite interpolant of the grid's F and F' and a proven bound on
  its error, and only the few dips that come within that bound of zero get
  their extremum located by the same Newton iteration on F' (from the
  secant point: there is no F'' grid).
  Refinement stops at the rounding noise of the series: a root x has
  |F(x)| <= 2 e(x), e(x) = 4 eps (sum |a_n|+|b_n| + |x| sum n(|a_n|+|b_n|)),
  where the second term is the rounding of the arguments n*x; an evaluated
  point is accepted when its computed |F| is within e(x), the Newton point
  when the bound above is within 2 e(x).

  The finder works on a block of K polynomials of one degree
  (``_real_roots_block``); ``real_roots_sampled`` is a block of one.  The
  block's grids come from one batched transform, its brackets from the 2-D
  grid, each carrying its row index, and one Newton pass refines all of
  them, with each row's points grouped against that row's factored matrix
  and each row's own noise floor.  That pays the per-call NumPy overhead
  once per block instead of once per polynomial.  The ensemble picks
  K = max(1, 2^15 // m), so a block's F and F' grid takes at most 512 KiB.

* ``all_roots_companion`` substitutes z = exp(ix), turning F into an
  algebraic polynomial Q of degree 2N with F(x) = exp(-iNx) Q(exp(ix)),
  and takes companion-matrix eigenvalues.  Unit-circle roots of Q are the
  real zeros of F; the rest come in conjugate-symmetric pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import (
    TrigPolynomial,
    _coefficients,
    _factored,
    _series_values,
    _value_and_slope,
)

__all__ = [
    "RootSet",
    "real_roots_sampled",
    "all_roots_companion",
]

# the grid has m = OVERSAMPLE*(2N+1) points; the dip pass is argued for 16
OVERSAMPLE = 16
# two refined roots of one polynomial closer than 10*TOL count as one
TOL = 1e-12
# companion eigenvalues with ||z| - 1| below this are real roots
CLASSIFY_TOL = 1e-8
MAX_REFINE_ITERATIONS = 200
# Newton steps on the cubic of the Hermite start: from the secant point two
# already land well inside the cubic's own error, about (N*h)^4/384 ~ 4e-6
# of a grid cell at 16x oversampling; a third saves no evaluation
HERMITE_STEPS = 2
_EPS = np.finfo(float).eps
# dips shallower than this fraction of the grid max cannot hide a root pair
# on the 16x grid (depth <= (N*dx)^2/8 of the local scale); like the F'
# sign-change test of _dip_candidates, this holds for that grid alone
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


def _grid_values(c, m):
    """F and F' of every coefficient row c (K, N+1) at x_k = 2*pi*k/m, k < m,
    by one batched inverse real FFT of length m, as a (K, 2, m) array.

    Bin n of the half spectrum holds (m/2)(a_n - i b_n) (bin 0 holds m*a_0),
    and the derivative's bins are i*n times those, the transform of
    (n*b_n, -n*a_n).  irfft pads the N+1 bins with zeros to m/2+1 itself.
    Needs m > 2N, which the OVERSAMPLE grid has.
    """
    K, n1 = c.shape
    spec = np.empty((K, 2, n1), dtype=complex)
    spec[:, 0] = 0.5 * m * c
    spec[:, 0, 0] = m * c[:, 0].real
    spec[:, 1] = 1j * np.arange(n1) * spec[:, 0]
    return np.fft.irfft(spec, m)


def _noise_floor(c):
    """(c0, c1, c2) of each coefficient row of c (..., N+1), c_n = a_n - i b_n:
    c_k = 4 eps sum n^k (|a_n| + |b_n|).

    The evaluator's F is within c0 + c1|x| of the exact value: c0 covers
    the cos/sin values and the sum, c1 the rounding of the arguments n*x,
    which dominates at large N.  Its F' is within c1 + c2|x|, the floor of
    the derivative's coefficients, and c2 / (4 eps) >= sum n^2 |c_n| bounds
    |F''|.
    """
    w = np.abs(c.real) + np.abs(c.imag)
    n = np.arange(c.shape[-1])
    return tuple(4.0 * _EPS * (n**k * w).sum(axis=-1) for k in range(3))


def _series(c):
    """Coefficient rows prepared for Newton: the factored value/slope
    matrices and each row's noise floor (c0, c1, c2)."""
    return (_factored(c), *_noise_floor(c))


def _inside(x, lo, hi):
    """(x where it lies strictly inside (lo, hi), the midpoint elsewhere;
    the mask of the points kept)."""
    ok = np.isfinite(x) & (x > lo) & (x < hi)
    return np.where(ok, x, 0.5 * (lo + hi)), ok


def _hermite_start(lo, hi, flo, fhi, dlo, dhi):
    """Zero of the cubic Hermite interpolant of f and f' at both ends of each
    bracket, by HERMITE_STEPS Newton steps on t in (0, 1) from the secant t.

    With m = h f' at the ends (h = hi - lo) and d = fhi - flo the cubic is
    flo + mlo t + (3d - 2mlo - mhi) t^2 + (mlo + mhi - 2d) t^3.  On a grid
    cell its error is O((N h)^4) of the local scale against O((N h)^2) for
    the secant point, so it starts Newton one round closer to the root.
    """
    h, d = hi - lo, fhi - flo
    m0, m1 = h * dlo, h * dhi
    c2, c3 = 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d
    t = -flo / d
    for _ in range(HERMITE_STEPS):
        t = t - (flo + t * (m0 + t * (c2 + t * c3))) / (m0 + t * (2.0 * c2 + 3.0 * t * c3))
    return lo + t * h


def _newton(series, own, lo, hi, flo, fhi, dlo=None, dhi=None):
    """One zero in each bracket [lo, hi] of row own[i] of the _series rows,
    flo and fhi of opposite sign; own must be non-decreasing.

    Safeguarded Newton, vectorized over the brackets of every row.  Given
    the slopes dlo and dhi at the bracket ends it starts from the zero of
    the cubic Hermite interpolant (_hermite_start), otherwise from the
    secant point; every evaluation shrinks the bracket, and a start or step
    that would leave the bracket is replaced by its midpoint.  A bracket is
    done at x when |f(x)| is inside the rounding noise e(x) = c0 + c1|x| of
    its row's series, when the Newton step no longer moves x, or when the
    bracket has shrunk to adjacent floats; or at the Newton point x1 when it
    lies strictly inside the bracket and a proven bound puts |F(x1)| within
    2 e(x1) without evaluating it.  Only the live brackets are carried from
    round to round.

    The bound.  The evaluator gives f0 and d0 at x0 with |f0 - F(x0)| <=
    e(x0) and |d0 - F'(x0)| <= e'(x0) = c1 + c2|x0| (tests/test_poly.py
    checks both against 40-digit sums), and |F''| <= S2 = sum n^2 |c_n| <=
    c2 / (4 eps).  With u = eps/2, x1 = fl(x0 - fl(f0/d0)) is x0 - q + eta
    with q = (f0/d0)(1 + t), |t| <= u, and |eta| <= u|x1|, so the step
    D = x1 - x0 = -q + eta gives f0 + d0 D = -f0 t + d0 eta.  Taylor's
    theorem, F(x1) = F(x0) + F'(x0) D + F''(xi) D^2 / 2, then gives

        |F(x1)| <= e(x0) + u (|f0| + |d0| |x1|) + e'(x0) |D| + S2 D^2 / 2,

    and x1 is accepted when that is at most 2 e(x1): the guarantee of the
    evaluated test |f(x1)| <= e(x1), which with the evaluator's own error
    e(x1) also says |F(x1)| <= 2 e(x1).  D is the computed x1 - x0, exact
    by Sterbenz's lemma unless x0 and x1 differ by more than a factor two
    (near x = 0), and then off by at most u|D|.  Like that rounding, the
    relative O(N eps) rounding of the bound's own arithmetic and of the
    sums c0, c1, c2 is far inside the room the evaluator leaves: its errors
    stay below a quarter of e and e' in those tests.  The dip pass's Newton
    on F' runs the same rule on the slope rows, with their own (c0, c1, c2).
    At N = 256, p = 20 the first Newton step is certified for nearly every
    root, so a root costs one evaluation, at the Hermite start.
    """
    roots = np.empty(len(lo))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if dlo is None:
            x = (lo * fhi - hi * flo) / (fhi - flo)
        else:
            x = _hermite_start(lo, hi, flo, fhi, dlo, dhi)
        x, _ = _inside(x, lo, hi)
    C, c0, c1, c2 = series
    live, lo_sign = np.arange(len(x)), np.sign(flo)
    c0, c1, c2 = c0[own], c1[own], c2[own]
    for _ in range(MAX_REFINE_ITERATIONS):
        fx, dfx = _series_values(C, own, x)
        on_lo = np.sign(fx) == lo_sign
        lo, hi = np.where(on_lo, x, lo), np.where(on_lo, hi, x)
        ax = np.abs(x)
        e0 = c0 + c1 * ax
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xn = x - fx / dfx
            step = np.abs(xn - x)
            bound = (e0 + 0.5 * _EPS * (np.abs(fx) + np.abs(dfx) * np.abs(xn))
                     + (c1 + c2 * ax) * step + c2 / (8.0 * _EPS) * step * step)
        done = (np.abs(fx) <= e0) | (xn == x)
        xn, newton = _inside(xn, lo, hi)
        sure = newton & ~done & (bound <= 2.0 * (c0 + c1 * np.abs(xn)))
        done |= xn == x
        roots[live[done]] = x[done]
        roots[live[sure]] = xn[sure]
        go = ~(done | sure)
        live, x, lo, hi, own = live[go], xn[go], lo[go], hi[go], own[go]
        lo_sign, c0, c1, c2 = lo_sign[go], c0[go], c1[go], c2[go]
        if len(live) == 0:
            return roots
    raise RuntimeError(
        f"root refinement did not converge: bracket [{lo[0]!r}, {hi[0]!r}] "
        f"after {MAX_REFINE_ITERATIONS} iterations"
    )


def _dip_candidates(vals, dvals):
    """(row, j) of the grid points that may hide a near-tangent root pair.

    A candidate is a shallow interior minimum of |F| (below DIP_DEPTH_FRACTION
    of its row's grid max) with no sign change on either side, where F'
    changes sign across it.  Shallow points are a small share of the grid,
    so the tests against the neighbours run on them alone.

    Both filters are argued for the 16x grid alone.  On a 5x grid the
    realization N=16, p=3, seed 7, index 3291 loses a root pair: F' has two
    zeros between the grid points either side of its dip, so the F' test
    drops it.
    """
    m = vals.shape[1]
    top = DIP_DEPTH_FRACTION * np.maximum(vals.max(axis=1), -vals.min(axis=1))[:, None]
    row, j = np.nonzero((vals < top) & (vals > -top))
    jl, jr = j - 1, (j + 1) % m
    v, vl, vr = vals[row, j], vals[row, jl], vals[row, jr]
    keep = (np.abs(v) < np.abs(vl)) & (np.abs(v) <= np.abs(vr))
    keep &= (vl * v > 0) & (v * vr > 0) & (dvals[row, jl] * dvals[row, jr] < 0)
    return row[keep], j[keep]


def _screen(c, series, step, row, j, vals, dvals):
    """Whether dip candidate (row, j) may hide a root pair in its two grid
    cells [x_{j-1}, x_j] and [x_j, x_{j+1}].

    On a cell of width h the cubic Hermite interpolant H of the grid's F and
    F' differs from F by the remainder F''''(xi)/4! (x - x_0)^2 (x - x_1)^2,
    at most h^4/384 max|F''''| <= h^4/384 sum n^4 |c_n|.  Rounding adds
    three terms, bounded generously: each grid value of F (F') is off by
    less than m*c0 (m*c1), since the transform's rounding is a small
    multiple of eps log2(m) times the coefficient sums in c0 (c1); H weighs
    those by |h00| + |h01| = 1 and h (|h10| + |h11|) <= h/4 = pi/(2m); and
    the series evaluator's own noise is at most c0 + 2*pi*c1.  The margin
    is their sum, h^4/384 sum n^4 |c_n| + (m + 1) c0 + 8 c1.

    A candidate is kept where s*H, s the sign of the dip, comes within the
    margin of zero on either cell.  Where it is dropped s*F stays above the
    evaluator's noise on both cells, so F has no zero there and F at the
    extremum keeps the sign s: no bracket is lost.  s*H is least at a cell
    end or at a zero of H', so the cubic is evaluated at the centre grid
    point and at both zeros of H' clipped into the cell (where H' has no
    zero in the cell, those are just two more points of it).
    """
    _, c0, c1, _ = series
    m = vals.shape[1]
    n = np.arange(c.shape[1])
    margin = step**4 / 384 * (n**4 * np.abs(c)).sum(axis=1) + (m + 1) * c0 + 8.0 * c1
    idx = np.stack([j - 1, j, (j + 1) % m])
    s = np.sign(vals[row, j])
    f, d = s * vals[row, idx], s * step * dvals[row, idx]
    # cubic f0 + m0 t + c2 t^2 + c3 t^3 on t in [0, 1], one per cell
    f0, m0, m1 = f[:2], d[:2], d[1:]
    df = f[1:] - f0
    c2, c3 = 3.0 * df - 2.0 * m0 - m1, m0 + m1 - 2.0 * df
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # zeros of m0 + 2 c2 t + 3 c3 t^2 without cancellation
        q = -(c2 + np.copysign(np.sqrt(np.maximum(c2 * c2 - 3.0 * c3 * m0, 0.0)), c2))
        t = np.clip(np.nan_to_num(np.stack([q / (3.0 * c3), m0 / q])), 0.0, 1.0)
    low = (f0 + t * (m0 + t * (c2 + t * c3))).min(axis=(0, 1))
    return np.minimum(low, f[1]) <= margin[row]


def _dip_brackets(c, series, x, vals, dvals):
    """Brackets hidden in shallow same-sign dips (near-tangent root pairs).

    A pair of close real roots can sit between grid points without a sign
    change; the dip minimum is then a zero of F' with F small.  Only the
    candidates (_dip_candidates) that pass the Hermite _screen get the
    extremum located, by Newton on F' inside their grid cell pair (from the
    secant point: there is no F'' grid for a Hermite start), and F evaluated
    there.  Returns (row, lo, hi, flo, fhi, dlo, dhi) brackets on both sides
    of the extremum wherever F flips sign there, with F' from the grid at
    the outer ends and from the evaluation of F at the extremum at the inner
    one.  vals and dvals are the (K, m) grids of F and F'.
    """
    m = vals.shape[1]
    step = x[1]
    row, j = _dip_candidates(vals, dvals)
    keep = _screen(c, series, step, row, j, vals, dvals)
    row, j = row[keep], j[keep]
    if len(row):
        rows, own = np.unique(row, return_inverse=True)
        slope = _series(1j * np.arange(c.shape[1]) * c[rows])
        da, db = dvals[row, j - 1], dvals[row, (j + 1) % m]
        xc = _newton(slope, own, x[j] - step, x[j] + step, da, db)
        fc, dc = _series_values(series[0], row, xc)
    else:
        xc = fc = dc = np.empty(0)
    flips = fc * vals[row, j] < 0
    row, j, xc, fc, dc = row[flips], j[flips], xc[flips], fc[flips], dc[flips]
    return (
        np.concatenate([row, row]),
        np.concatenate([x[j] - step, xc]),
        np.concatenate([xc, x[j] + step]),
        np.concatenate([vals[row, j - 1], fc]),
        np.concatenate([fc, vals[row, (j + 1) % m]]),
        np.concatenate([dvals[row, j - 1], dc]),
        np.concatenate([dc, dvals[row, (j + 1) % m]]),
    )


def _real_roots_block(c):
    """Sorted real zeros in [0, 2*pi) of each coefficient row of c (K, N+1),
    one array per row.

    One batched grid for the block, sign-change and dip brackets found on
    the 2-D grid with their row index, and one Newton pass over every
    bracket of the block.  Two refined roots of a row closer than 10*TOL
    count as one.
    """
    if not np.all(np.any(c != 0.0, axis=1)):
        raise ValueError("degenerate input: polynomial is identically zero")
    K, n1 = c.shape
    m = OVERSAMPLE * (2 * n1 - 1)
    xe = np.arange(m + 1) * (2.0 * np.pi / m)
    x = xe[:m]
    grid = _grid_values(c, m)
    vals, dvals = grid[:, 0], grid[:, 1]
    s = _series(c)

    # F changes sign between x_j and x_j+1 (the last cell wraps to x_0)
    change = np.empty(vals.shape, dtype=bool)
    np.less(vals[:, :-1] * vals[:, 1:], 0.0, out=change[:, :-1])
    change[:, -1] = vals[:, -1] * vals[:, 0] < 0.0
    row, j = np.nonzero(change)
    j1 = (j + 1) % m
    found = (row, x[j], xe[j + 1], vals[row, j], vals[row, j1], dvals[row, j], dvals[row, j1])
    dips = _dip_brackets(c, s, x, vals, dvals)
    own, *brackets = map(np.concatenate, zip(found, dips))
    order = np.argsort(own, kind="stable")
    own, brackets = own[order], [v[order] for v in brackets]
    zr, zj = np.nonzero(vals == 0.0)
    roots = np.mod(np.concatenate([x[zj], _newton(s, own, *brackets)]), 2.0 * np.pi)
    own = np.concatenate([zr, own])
    order = np.lexsort((roots, own))
    roots, own = roots[order], own[order]
    # per row: drop a root within 10*TOL of the one before it, and the
    # wrap-around duplicate (a root found both near 0 and near 2*pi)
    first = np.diff(own, prepend=-1) != 0
    keep = first | (np.diff(roots, prepend=-np.inf) > 10 * TOL)
    head = np.flatnonzero(first)
    tail = np.append(head, len(roots))[1:] - 1
    wrap = roots[tail] - roots[head] > 2.0 * np.pi - 10 * TOL
    keep[tail[wrap]] = False
    counts = np.bincount(own[keep], minlength=K)
    return np.split(roots[keep], np.cumsum(counts)[:-1])


def real_roots_sampled(f: TrigPolynomial) -> RootSet:
    """All real zeros in [0, 2*pi) by dense sampling plus bracket refinement.

    Each root is refined to the rounding noise of the series; two refined
    roots closer than 10*TOL count as one.  This is the block finder run on
    a block of one.
    """
    (roots,) = _real_roots_block(_coefficients(f)[None])
    return RootSet(real_roots=roots, complex_roots=None, method="sampled")


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


def all_roots_companion(f: TrigPolynomial) -> RootSet:
    """All 2N zeros via companion-matrix eigenvalues of Q(z), z = exp(ix).

    Q has coefficients c_{N+n} = (a_n - i b_n)/2, c_{N-n} = (a_n + i b_n)/2,
    c_N = a_0, so that F(x) = exp(-iNx) Q(exp(ix)).  Eigenvalues z with
    ||z| - 1| < CLASSIFY_TOL are classified real and mapped to x = arg z
    (mod 2*pi) and polished by Newton steps on the series; the remainder
    are reported as complex x = -i log z.
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
    on_circle = dist < CLASSIFY_TOL
    real = np.mod(np.angle(z[on_circle]), 2.0 * np.pi)
    if len(real):
        real = np.mod(_polish_real(f, real), 2.0 * np.pi)
    real = np.sort(real)
    off = z[~on_circle]
    cplx = np.angle(off) - 1j * np.log(np.abs(off))
    order = np.lexsort((cplx.imag, cplx.real))
    return RootSet(real_roots=real, complex_roots=cplx[order], method="companion")
