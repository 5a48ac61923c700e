"""Real (and complex) zeros of trigonometric polynomials over one period.

Two independent routes are provided and cross-validated in the test suite:

* ``real_roots_sampled`` evaluates F and F' on a uniform grid of
  m = 16*(2N+1) points by one inverse real FFT of length m (O(m) memory),
  brackets the sign changes of F and refines each bracket by a safeguarded
  Newton iteration.  It starts at the zero of the septic Hermite
  interpolant of F and F' at the bracket ends and at the grid points either
  side of them, which the grid already holds, and accepts the Newton point
  from there without evaluating it when a proven bound puts |F| there
  within twice the noise floor: the second-order Taylor remainder, at most
  sum n^2 |c_n| D^2 / 2 for a step D, plus the evaluator's errors at the
  start and the rounding of the step (``_newton``).  The septic start lies
  within about 1e-8 of a grid cell of the root, close enough for that
  bound, so nearly every root takes one evaluation, at the start (1.000
  per root at N=256, p=20 and 1.005 at N=64, p=0, with its many close
  pairs).  Off the grid, F and F' come from the factored evaluator of
  ``poly``, which writes exp(inx) as exp(iqBx) exp(irx) with
  B = ceil(sqrt(N+1)) and builds both factors by doubling products from
  the exponentials of power-of-two multiples of x, so each Newton point
  costs about log2 N complex exponentials and one small matrix product.  A
  degree-N polynomial has at most 2N real zeros per period, so a missed
  bracket is very unlikely; a second pass looks for close root pairs
  hidden inside one grid cell, where F keeps its sign at both ends and F'
  changes sign.  A proven lower bound on the cubic Hermite interpolant of
  the grid's F and F' clears most such cells, the cubic itself and a
  proven bound on its error clear nearly all the rest, and only the few
  cells where F may come near zero get their extremum located by the same
  Newton iteration on F' (``_dip_brackets``).  Where F there has the other
  sign, the extremum splits the cell into two brackets, each started at
  its midpoint.  Every bracket gives one root strictly inside it, and the
  brackets' interiors are disjoint, so no root is found twice and the
  roots need no merging.
  Refinement stops at the rounding noise of the series: a root x has
  |F(x)| <= 2 e(x), e(x) = 4 eps (sum |a_n|+|b_n| + |x| sum n(|a_n|+|b_n|)),
  where the second term is the rounding of the arguments n*x; an evaluated
  point is accepted when its computed |F| is within e(x), the Newton point
  when the bound above is within 2 e(x).

  The finder works on a batch of K polynomials of one degree
  (``_real_roots_block``); ``real_roots_sampled`` is a batch of one.  The
  grid pass takes the batch in chunks of max(1, 2^15 // m) rows, so a
  chunk's F and F' grid takes at most 512 KiB: one batched transform per
  chunk, whose sign-change brackets, exact zeros and dip candidates come
  from the 2-D grid, each carrying its row index, before the grid is
  freed.  Everything after it runs once per batch: the dip screen, one
  sort and one Newton pass over every bracket, with each row's points
  grouped against that row's factored matrix and each row's own noise
  floor.  That pays the per-call NumPy overhead once per batch instead of
  once per polynomial.  The evaluator is batch-invariant, so a root is the
  same bit for bit whatever batch it is found in; the ensemble's batches
  are 8 chunks.

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
    _series_values,
    _value_and_slope,
)

__all__ = [
    "RootSet",
    "real_roots_sampled",
    "all_roots_companion",
]

# the grid has m = OVERSAMPLE*(2N+1) points
OVERSAMPLE = 16
# companion eigenvalues with ||z| - 1| below this are real roots
CLASSIFY_TOL = 1e-8
MAX_REFINE_ITERATIONS = 200
_EPS = np.finfo(float).eps
# the grid pass takes rows in chunks of at most this many grid points per
# row of F and F', so its grid takes at most 512 KiB however many rows the
# finder is given
_CHUNK_GRID_POINTS = 1 << 15


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
    """Coefficient rows prepared for Newton: the rows and each row's noise
    floor (c0, c1, c2)."""
    return (c, *_noise_floor(c))


def _inside(x, lo, hi):
    """(x where it lies strictly inside (lo, hi), the midpoint elsewhere;
    the mask of the points kept)."""
    ok = (x > lo) & (x < hi)
    return np.where(ok, x, 0.5 * (lo + hi)), ok


# the coefficients of t^2 .. t^7 of the septic Hermite interpolant of f and
# h f' on the stencil t = -1, 0, 1, 2, from f there (the first four columns)
# and h f' there (the last four); those of 1 and t are f and h f' at t = 0
_SEPTIC = np.array([
    [56, -297, 216, 25, 12, -108, -108, -6],
    [-124, 27, 108, -11, -24, -189, 0, 3],
    [50, 270, -270, -50, 3, 216, 189, 12],
    [59, -54, -27, 22, 21, 54, -27, -6],
    [-52, -81, 108, 25, -15, -108, -81, -6],
    [11, 27, -27, -11, 3, 27, 27, 3],
], dtype=float) / 108


def _hermite_start(lo, hi, s):
    """Zero in each bracket [lo, hi] of the septic Hermite interpolant of
    the stencil s (8, n): f at lo - h, lo, hi and hi + h, then h f' there,
    with h = hi - lo.

    In t = (x - lo) / h, with m = h f' and D = f(hi) - f(lo), the cubic
    Hermite interpolant at the ends is H = f(lo) + m(lo) t + (3D - 2m(lo) -
    m(hi)) t^2 + (m(lo) + m(hi) - 2D) t^3.  Two Newton steps on it from
    the secant t land inside its own error, at most (N h)^4/384 of the
    coefficient sum: a few 1e-6 of a grid cell at 16x oversampling.  One
    step on the septic Hermite interpolant P follows, t - P(t)/H'(t), and
    lands inside P's error: at most 0.32 (N h)^8/8! of the coefficient
    sum, about 2e-11.  The slopes of P and H differ by O((N h)^4) of the
    slope, so that step, from within a few 1e-6 of a cell of P's zero,
    lands within about 1e-8 of a cell of it.
    """
    (f0, f1), (m0, m1) = s[1:3], s[5:7]
    D = f1 - f0
    c2, c3 = 3.0 * D - 2.0 * m0 - m1, m0 + m1 - 2.0 * D
    b2, b3 = 2.0 * c2, 3.0 * c3
    t = -f0 / D
    for _ in range(2):
        slope = m0 + t * (b2 + t * b3)
        t = t - (f0 + t * (m0 + t * (c2 + t * c3))) / slope
    # P(t) by Horner's rule, from its coefficients lowest first; einsum,
    # not matmul: a real matrix product would be a run's only call of BLAS
    # dgemm, whose code adds 0.45 MB to its peak resident set
    *a, P = (f0, m0, *np.einsum("kj,jn->kn", _SEPTIC, s))
    for ak in a[::-1]:
        P = P * t + ak
    t = t - P / slope
    return lo + t * (hi - lo)


def _newton(series, own, lo, hi, x, lo_sign):
    """One zero in each bracket [lo, hi] of row own[i] of the _series rows,
    from the start x inside it, lo_sign the sign of f at lo; own must be
    non-decreasing.  lo and hi are narrowed in place.

    Safeguarded Newton, vectorized over the brackets of every row.  Every
    evaluation shrinks the bracket, and a step that would leave the bracket
    is replaced by its midpoint.  A bracket is done at x when |f(x)| is
    inside the rounding noise e(x) = c0 + c1|x| of its row's series, when
    the Newton step no longer moves x, or when the bracket has shrunk to
    adjacent floats; or at the Newton point x1 when it lies strictly inside
    the bracket and a proven bound puts |F(x1)| within 2 e(x1) without
    evaluating it.  Only the live brackets are carried from round to round.

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
    From the septic start of a sign-change bracket (_scan) the first Newton
    step is certified for nearly every root, so a root costs one
    evaluation, at the start.
    """
    roots = np.empty(len(x))
    c, c0, c1, c2 = series
    live = np.arange(len(x))
    for _ in range(MAX_REFINE_ITERATIONS):
        fx, dfx = _series_values(c, own, x)
        on_lo = np.sign(fx) == lo_sign
        np.copyto(lo, x, where=on_lo)
        np.copyto(hi, x, where=~on_lo)
        # the first round holds every bracket of the batch, so each
        # temporary goes as soon as it is used
        del on_lo
        ax = np.abs(x)
        e0 = c0[own] + c1[own] * ax
        done = np.abs(fx) <= e0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xn = x - fx / dfx
            step = np.abs(xn - x)
            bound = e0 + 0.5 * _EPS * (np.abs(fx) + np.abs(dfx) * np.abs(xn))
            del fx, dfx, e0
            bound += (c1[own] + c2[own] * ax) * step
            bound += c2[own] / (8.0 * _EPS) * step * step
        done |= xn == x
        del ax, step
        xn, newton = _inside(xn, lo, hi)
        sure = newton & ~done & (bound <= 2.0 * (c0[own] + c1[own] * np.abs(xn)))
        done |= xn == x
        roots[live[done]] = x[done]
        roots[live[sure]] = xn[sure]
        go = ~(done | sure)
        del bound, newton, done, sure
        live, x, lo, hi, own, lo_sign = live[go], xn[go], lo[go], hi[go], own[go], lo_sign[go]
        if len(live) == 0:
            return roots
    raise RuntimeError(
        f"root refinement did not converge: bracket [{lo[0]!r}, {hi[0]!r}] "
        f"after {MAX_REFINE_ITERATIONS} iterations"
    )


def _across(op, a):
    """The ufunc op of the two ends of every grid cell [x_j, x_j+1] of the
    rows of a (K, m), the last cell wrapping to x_0, as a (K, m) array."""
    out = np.empty_like(a)
    op(a[:, :-1], a[:, 1:], out=out[:, :-1])
    op(a[:, -1], a[:, 0], out=out[:, -1])
    return out


def _margin(c, c0, c1):
    """_screen's margin for each coefficient row of c (K, N+1), with c0 and
    c1 of its noise floor: h^4/384 sum n^4 |c_n| + (m + 1) c0 + 8 c1 on
    the grid of m points and step h."""
    m = OVERSAMPLE * (2 * c.shape[1] - 1)
    n = np.arange(c.shape[1])
    return (2.0 * np.pi / m) ** 4 / 384 * (n**4 * np.abs(c)).sum(axis=1) + (m + 1) * c0 + 8.0 * c1


def _dip_candidates(grid, same, margin, h):
    """The cells of one chunk's grid of F and F', grid (K, 2, m) with step h,
    that may hide a near-tangent root pair, as (row, j, f, d): the cell
    [x_j, x_j+1] of row `row`, with f and d (2, n) the grid's F and F' at
    its ends.  same[k, j] says F has one nonzero sign at both ends of cell j
    on row k, and margin holds _screen's margin of each row.

    A candidate is a cell with one sign of F at both ends where the sign
    bit of F' differs between them, so that F' changes sign in the cell (an
    F' of exactly +-0 at a grid point flags one of its two cells), less the
    cells the prefilter clears.  The cubic Hermite interpolant H of the
    grid's F and F' on a cell is f_j h00 + f_j+1 h01 + h (f'_j h10 +
    f'_j+1 h11) with h00, h01 >= 0, h00 + h01 = 1 and |h10| + |h11| =
    t(1 - t) <= 1/4 on t in [0, 1], so with s the sign of F at the ends

        s H >= min(|f_j|, |f_j+1|) - h/4 max(|f'_j|, |f'_j+1|),

    and where that exceeds the margin _screen would drop the cell too.  The
    gathers take the grid by flat index, as _scan's stencils do.

    The pass assumes that the extremum between a pair of roots hidden in a
    cell leaves a sign change of F' between the cell's ends: a cell where
    F' has two zeros (the extremum and a turn back) is not looked at.
    """
    m = grid.shape[2]
    turn = _across(np.not_equal, np.signbit(grid[:, 1]))
    turn &= same
    row, j = np.divmod(np.flatnonzero(turn), m)
    at = np.stack([j, (j + 1) % m]) + 2 * m * row
    flat = grid.reshape(-1)
    f, d = flat.take(at), flat.take(at + m)
    keep = np.abs(f).min(axis=0) - 0.25 * h * np.abs(d).max(axis=0) <= margin[row]
    return row[keep], j[keep], f[:, keep], d[:, keep]


def _screen(f, d, h, margin):
    """Whether each dip candidate cell of width h, with the grid's F and F'
    at its ends in f and d (2, n), may hide a root pair, given its row's
    margin; and the t in [0, 1] of the least s*H found on it (below).

    On a cell the cubic Hermite interpolant H of the grid's F and F'
    differs from F by the remainder F''''(xi)/4! (x - x_0)^2 (x - x_1)^2,
    at most h^4/384 max|F''''| <= h^4/384 sum n^4 |c_n|.  Rounding adds
    three terms, bounded generously: each grid value of F (F') is off by
    less than m*c0 (m*c1), since the transform's rounding is a small
    multiple of eps log2(m) times the coefficient sums in c0 (c1); H weighs
    those by |h00| + |h01| = 1 and h (|h10| + |h11|) <= h/4 = pi/(2m); and
    the series evaluator's own noise is at most c0 + 2*pi*c1.  The margin
    (_margin) is their sum, h^4/384 sum n^4 |c_n| + (m + 1) c0 + 8 c1.

    A cell is kept where s*H, s the sign of F at its ends, comes within the
    margin of zero.  Where it is dropped s*F stays above the evaluator's
    noise on the cell, so F has no zero there and F at the extremum keeps
    the sign s: no bracket is lost.  s*H is least at a cell end or at a
    zero of H', so the cubic is evaluated at both zeros of H' clipped into
    the cell (where H' has no zero in the cell, those are just two more
    points of it) and compared with the ends.  The prefilter of
    _dip_candidates is a lower bound on the same s*H.
    """
    s = np.sign(f[0])
    f, d = s * f, s * h * d
    # cubic f0 + m0 t + c2 t^2 + c3 t^3 on t in [0, 1]
    f0, m0, m1 = f[0], d[0], d[1]
    df = f[1] - f0
    c2, c3 = 3.0 * df - 2.0 * m0 - m1, m0 + m1 - 2.0 * df
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # zeros of m0 + 2 c2 t + 3 c3 t^2 without cancellation
        q = -(c2 + np.copysign(np.sqrt(np.maximum(c2 * c2 - 3.0 * c3 * m0, 0.0)), c2))
        t = np.clip(np.nan_to_num(np.stack([q / (3.0 * c3), m0 / q])), 0.0, 1.0)
    H = f0 + t * (m0 + t * (c2 + t * c3))
    first = H[0] <= H[1]
    low = np.minimum(np.where(first, H[0], H[1]), f.min(axis=0))
    return low <= margin, np.where(first, t[0], t[1])


def _dip_brackets(series, margin, xe, row, j, f, d):
    """Brackets of the root pairs hidden in dip candidate cells.

    A pair of close real roots can sit inside one grid cell without a sign
    change; the extremum between them is then a zero of F' with F small.
    Only the candidates (row, grid index j and end values f, d of
    _dip_candidates) that pass the Hermite _screen get the extremum
    located, by Newton on F' over their cell, which the sign change of F'
    brackets, from the least s*H the screen found; F is evaluated there.
    Returns (row, lo, hi, start, sign) brackets, sign that of F at lo, on
    both sides of the extremum xc wherever F flips sign there, each started
    at its midpoint.  Their interiors are disjoint from each other and from
    every sign-change cell, so each holds its own root.  series holds the
    _series rows, margin their _margin and xe the grid's m + 1 points.
    """
    h = xe[1]
    keep, t = _screen(f, d, h, margin[row])
    row, j, t, f, d = row[keep], j[keep], t[keep], f[:, keep], d[:, keep]
    if len(row):
        c = series[0]
        rows, own = np.unique(row, return_inverse=True)
        slope = _series(1j * np.arange(c.shape[1]) * c[rows])
        lo, hi = xe[j], xe[j + 1]
        x, _ = _inside(lo + t * h, lo, hi)
        xc = _newton(slope, own, lo, hi, x, 1.0 - 2.0 * np.signbit(d[0]))
        fc, _ = _series_values(c, row, xc)
    else:
        xc = fc = np.empty(0)
    flips = fc * f[0] < 0
    row, j, xc, sign = row[flips], j[flips], xc[flips], np.sign(f[0, flips])
    lo, hi = np.concatenate([xe[j], xc]), np.concatenate([xc, xe[j + 1]])
    return np.concatenate([row, row]), lo, hi, 0.5 * (lo + hi), np.concatenate([sign, -sign])


def _chunk_rows(n1):
    """Rows per grid chunk for coefficient rows of length n1: max(1, 2^15 // m)
    for the m-point grid."""
    return max(1, _CHUNK_GRID_POINTS // (OVERSAMPLE * (2 * n1 - 1)))


def _scan(c, margin, k0, k1, xe):
    """The grid pass over rows k0..k1-1 of the coefficient rows c, on the
    grid xe[:-1] of m points: the rows' sign-change brackets (row, lo, hi,
    start, sign), then the (row, j) of the grid points where F is exactly
    zero and the dip candidates of _dip_candidates, given each row's
    _margin, each with its row in c.  Each bracket [x_j, x_j+1]
    starts at the septic Hermite zero (_hermite_start) of the grid's F and
    F' on the stencil x_j-1 .. x_j+2, gathered here, so that the stencils of
    a chunk live only as long as its grid, which is freed on return; where
    that zero would leave the bracket, at its midpoint."""
    m = len(xe) - 1
    grid = _grid_values(c[k0:k1], m)
    vals = grid[:, 0]
    # F_j F_j+1 of every cell; F changes sign across the negative ones
    ends = _across(np.multiply, vals)
    row, j = np.divmod(np.flatnonzero(ends < 0.0), m)
    # F, then h F', on the stencil x_j-1 .. x_j+2 of each bracket
    # [x_j, x_j+1], wrapped, taken from the chunk's (rows, 2, m) grid by flat
    # index; h is the grid step
    at = (j + np.arange(-1, 3)[:, None]) % m + 2 * m * row
    s = np.empty((8, len(j)))
    grid.reshape(-1).take(at, out=s[:4])
    grid.reshape(-1).take(at + m, out=s[4:])
    del at
    s[4:] *= xe[1]
    lo, hi = xe[j], xe[j + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        start, _ = _inside(_hermite_start(lo, hi, s), lo, hi)
    zr, zj = np.divmod(np.flatnonzero(vals == 0.0), m)
    drow, dj, f, d = _dip_candidates(grid, ends > 0.0, margin[k0:k1], xe[1])
    return row + k0, lo, hi, start, np.sign(s[1]), zr + k0, zj, drow + k0, dj, f, d


def _real_roots_block(c):
    """Sorted real zeros in [0, 2*pi) of each coefficient row of c (K, N+1),
    one array per row.

    The grid pass runs chunk by chunk (_chunk_rows rows each, _scan): one
    batched transform per chunk, its sign-change brackets, exact zeros and
    dip candidates found on the 2-D grid with their row index, and the
    chunk's grid freed before the next one.  Everything after it runs once
    for all K rows: the Hermite screen of the dip candidates and the Newton
    on F' of those it keeps, one stable sort of the brackets by row, one
    Newton pass over every bracket, and the per-row sort and split.  Each
    bracket gives one root strictly inside it, the brackets' interiors are
    disjoint (the sign-change cells, and the two halves of a dip cell split
    at its extremum) and an exact grid zero opens none, so no root is found
    twice and none needs merging.  A row's roots do not depend on the other
    rows, since every step works row by row and the series evaluator is
    batch-invariant.
    """
    if not np.all(np.any(c != 0.0, axis=1)):
        raise ValueError("degenerate input: polynomial is identically zero")
    K, n1 = c.shape
    m = OVERSAMPLE * (2 * n1 - 1)
    xe = np.arange(m + 1) * (2.0 * np.pi / m)
    s = _series(c)
    margin = _margin(c, *s[1:3])
    k = _chunk_rows(n1)
    parts = [_scan(c, margin, k0, k0 + k, xe) for k0 in range(0, K, k)]
    *found, zr, zj, row, j, f, d = (np.concatenate(v, axis=-1) for v in zip(*parts))
    del parts
    dips = _dip_brackets(s, margin, xe, row, j, f, d)
    own, *brackets = (np.concatenate(v) for v in zip(found, dips))
    del found, dips, row, j, f, d
    order = np.argsort(own, kind="stable")
    own, brackets = own[order], [v[order] for v in brackets]
    del order
    roots = np.mod(np.concatenate([xe[zj], _newton(s, own, *brackets)]), 2.0 * np.pi)
    own = np.concatenate([zr, own])
    # by row, then by value: ties are equal values, so the values' sort
    # need not be stable; the rows' sort is, and NumPy radix-sorts row
    # indices held in the smallest unsigned type
    order = np.argsort(roots)
    order = order[np.argsort(own[order].astype(np.min_scalar_type(K)), kind="stable")]
    counts = np.bincount(own, minlength=K)
    return np.split(roots[order], np.cumsum(counts)[:-1])


def real_roots_sampled(f: TrigPolynomial) -> RootSet:
    """All real zeros in [0, 2*pi) by dense sampling plus bracket refinement.

    Each root is refined to the rounding noise of the series, one root per
    bracket.  This is the block finder run on a block of one.
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
