"""Real (and complex) zeros of trigonometric polynomials over one period.

Two independent routes are provided and cross-validated in the test suite:

* ``real_roots_sampled`` evaluates F on a uniform grid of m points, m the
  smallest even 5-smooth number >= 16*(2N+1) (``_grid_length``), by one
  inverse real FFT of length m (O(m) memory) and brackets
  the sign changes of F.  Each bracket [x_j, x_j+1] starts at the root of
  the cubic through the grid's F at x_j-1 .. x_j+2 and is refined by two
  safeguarded Newton steps on P, the degree-15 interpolant of the grid's
  F at x_j-7 .. x_j+8 (``_grid_roots``), and the result is the root,
  unevaluated, where a proven bound on |F| there
  (|P|, P's rounding and truncation, and the grid's error) is within
  twice the noise floor: about 99.9% of the roots at N=64, p=0, with its
  many close pairs, and all but a few in 10^5 at N=256, p=20.  The rest,
  close pairs, go to safeguarded Newton on the series (``_newton``), which
  evaluates every point it takes by the direct sum of ``poly``: N+1
  cosines and N+1 sines per point, so the finder locates every root and
  extremum on the grid and evaluates the series only to certify a root or
  decide a sign.  A degree-N polynomial has at most 2N real zeros per
  period, so a missed bracket is very unlikely; a second pass looks for
  close root pairs hidden inside one grid cell, where F keeps its sign at
  both ends (``_dip_candidates``).  A proven bound on F alone clears
  nearly every such cell.  On the few left F' at the ends comes from P',
  and the cells where it changes sign get their extremum located by
  Newton on P' from the secant zero of P' (``_dip_brackets``).  The
  grid's certificate at the extremum clears most of these, where it
  proves F there beyond the series' noise with the sign of the cell's
  ends, and F is evaluated on the series at the extrema of the rest.
  Where F there has not the sign of the cell's ends, the extremum splits
  the cell into two brackets, each started at its midpoint.  Sign changes
  are told by sign bits, +-0 included, never by products of values, and
  each row is first scaled by the power of two that puts its largest
  |a_n|, |b_n| in [0.5, 1), so 2^k F has F's roots bit for bit and nothing
  overflows.  Every bracket gives one root strictly inside it, and the
  brackets' interiors are disjoint, so no root is found twice and the
  roots need no merging.  Every root comes from a bracket, so each count
  is even by construction: the sign-bit flips around the closed grid are
  even in number, and each split dip cell adds two.
  Refinement stops at the rounding noise of the series: a root x has
  |F(x)| <= 2 e(x), e(x) = 4 eps (sum |a_n|+|b_n| + |x| sum n(|a_n|+|b_n|)),
  where the second term is the rounding of the arguments n*x; an evaluated
  point is accepted when its computed |F| is within e(x), a root of P when
  the bound above is within 2 e(x).

  The finder works on a batch of K polynomials of one degree
  (``_real_roots_block``); ``real_roots_sampled`` is a batch of one.  The
  grid pass takes the batch in chunks of max(1, 2^16 // m) rows (182 at
  N = 10, 60 at 32, 30 at 64, 7 at 256 and 1 from 1024 up), so a chunk's
  F grid takes about 512 KiB: one batched transform per chunk, whose
  sign-change stencils and dip candidates come from the 2-D grid, each
  carrying its row index, before the grid is freed.
  Everything after it runs once per batch: the dip candidates' extrema on
  the interpolant and one Newton pass over every bracket the grid could
  not certify, each point on its own row with that row's noise floor.  That
  pays the per-call NumPy overhead once per batch instead of once per
  polynomial.  Every step works row by row and a point's series values
  depend on that point alone, so a root is the same bit for bit whatever
  batch it is found in; the ensemble's batches are 4 chunks.

* ``all_roots_companion`` substitutes z = exp(ix), turning F into an
  algebraic polynomial Q of degree 2N with F(x) = exp(-iNx) Q(exp(ix)),
  and takes companion-matrix eigenvalues.  Unit-circle roots of Q are the
  real zeros of F; the rest come in conjugate-symmetric pairs.
"""

from __future__ import annotations

import math
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

# the grid has at least OVERSAMPLE*(2N+1) points (_grid_length)
OVERSAMPLE = 16
# companion eigenvalues with ||z| - 1| below this are real roots
CLASSIFY_TOL = 1e-8
MAX_REFINE_ITERATIONS = 200
_EPS = np.finfo(float).eps
# the grid pass takes rows in chunks of at most this many grid points of F,
# so its grid takes about 512 KiB however many rows the finder is given
_CHUNK_GRID_POINTS = 1 << 16

# The constants of the grid's proofs (_grid_roots, _bounds).  The
# interpolant's 16 nodes, in grid steps from the left end of a cell, and
# their barycentric weights (-1)^(i+1) C(15, i), exact integers: the
# Lagrange weights 1/prod_(l != i) (k_i - k_l) times 15!.
_NODES = np.arange(-7.0, 9.0)
_WEIGHTS = np.array([(-1) ** (i + 1) * math.comb(15, i) for i in range(16)], dtype=float)
# Newton steps on the interpolant: from the cubic start of _grid_roots, and
# from the secant zero of P' in _dip_brackets
_STEPS = 2
# the grid's error in units of c0 (the transform's rounding; at most 0.48
# c0 against 40-digit sums, tests/test_roots.py)
_DELTA = 1.0
# max |prod_k (t - k)| / 16! over t in [0, 1], reached at t = 1/2
_OMEGA = abs(np.prod(0.5 - _NODES)) / math.factorial(16)
# The interpolant's differentiation matrix: h P'(x_j+i) = sum_k _DIFF[i, k]
# F_j+k, i, k = -7 .. 8 (rows and columns in the order of _NODES), with
# (w_k / w_i) / (i - k) off the diagonal and sum_(l != i) 1/(i - l) on it,
# summed exactly in units of 1/lcm(1, .., 15) and rounded once.  P' has
# degree 14, so the degree-15 interpolant of _DIFF f is P' itself
# (_dip_brackets).
_DIFF = np.divide(_WEIGHTS / _WEIGHTS[:, None], _NODES[:, None] - _NODES,
                  out=np.zeros((16, 16)), where=_NODES[:, None] != _NODES)
_LCM = math.lcm(*range(1, 16))
np.fill_diagonal(_DIFF, [sum(_LCM // (i - l) for l in range(16) if l != i) / _LCM
                         for i in range(16)])
# h P'(x_j) = sum_k _SLOPE[k] F_j+k, the row of the node k = 0
_SLOPE = _DIFF[7]


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = eps / 2."""
    return k * _EPS / 2 / (1.0 - k * _EPS / 2)


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
    """F of every coefficient row c (K, N+1) at x_k = 2*pi*k/m, k = -7 ..
    m+9, as a (K, m + 17) array whose column k + 7 holds x_k: one batched
    inverse real FFT of length m, wrapped around the period by copies of
    its first 10 and last 7 columns, so every stencil is a run of columns.

    Bin n of the half spectrum holds (m/2)(a_n - i b_n) (bin 0 holds
    m*a_0); irfft pads the N+1 bins with zeros to m/2+1 itself.  Needs
    m > 2N, which the OVERSAMPLE grid has.
    """
    spec = 0.5 * m * c
    spec[:, 0] = m * c[:, 0].real
    vals = np.empty((len(c), m + 17))
    np.fft.irfft(spec, m, out=vals[:, 7:-10])
    vals[:, :7], vals[:, -10:] = vals[:, m:m + 7], vals[:, 7:17]
    return vals


def _noise_floor(c):
    """(c0, c1) of each coefficient row of c (..., N+1), c_n = a_n - i b_n:
    c_k = 4 eps sum n^k (|a_n| + |b_n|).

    The evaluator's F is within c0 + c1|x| of the exact value: c0 covers
    the cos/sin values, the products and the sum over the N+1 terms, c1 the
    rounding of the arguments n*x, which dominates at large N.
    """
    w = np.abs(c.real) + np.abs(c.imag)
    n = np.arange(c.shape[-1])
    return 4.0 * _EPS * w.sum(axis=-1), 4.0 * _EPS * (n * w).sum(axis=-1)


def _bounds(c, c0, h):
    """(T, cut) of each coefficient row of c (K, N+1), with c0 its noise
    floor, on the grid of step h; delta = _DELTA.

    T = _OMEGA sum (n h)^16 |c_n| bounds the interpolant's truncation error
    on its centre cell (_grid_roots).

    cut: F differs from its chord on a cell [x_j, x_j+1] by at most h^2/8
    max|F''| <= h^2/8 sum n^2 |c_n|, and the grid's F_j from F by at most
    delta c0, so F has no zero on a cell whose grid ends have one sign and
    both exceed cut = h^2/8 sum n^2 |c_n| + delta c0 in magnitude.
    """
    n = np.arange(c.shape[1])
    a = np.abs(c)
    cut = h * h / 8.0 * (n**2 * a).sum(axis=1) + _DELTA * c0
    return _OMEGA * ((n * h) ** 16 * a).sum(axis=1), cut


def _inside(x, lo, hi):
    """(x where it lies strictly inside (lo, hi), the midpoint elsewhere;
    the mask of the points kept)."""
    ok = (x > lo) & (x < hi)
    return np.where(ok, x, 0.5 * (lo + hi)), ok


def _value_step(wf, r):
    """(S, P/P') at t of the interpolant P = omega/15! S with the weighted
    grid values wf (16, n), r_k = 1/(t - k) (_grid_roots): P has the sign
    of S on (0, 1), and P' = omega/15! (S sum_k r_k - sum_k w_k f_k r_k^2)."""
    S = np.einsum("kn,kn->n", wf, r)
    return S, S / (S * r.sum(axis=0) - np.einsum("kn,kn,kn->n", wf, r, r))


def _interpolant_newton(wf, t, side):
    """t in (0, 1) after _STEPS safeguarded Newton steps from t on the
    degree-15 interpolant P of a grid cell (_value_step), with the weighted
    values wf (16, n) at its nodes (_NODES, _WEIGHTS), and side (+-1) the
    sign bit's sign of P at t = 0.  Each step narrows [0, 1] to the side of
    t where S has that sign and moves t by the Newton step, or to the
    narrowed bracket's midpoint where that would leave it (_inside); a step
    that no longer moves t stays, though t is now a bracket end."""
    lo, hi = np.zeros(len(t)), np.ones(len(t))
    r = np.empty_like(wf)
    for _ in range(_STEPS):
        S, move = _value_step(wf, np.reciprocal(np.subtract(t, _NODES[:, None], out=r), out=r))
        on_lo = np.sign(S) == side
        np.copyto(lo, t, where=on_lo)
        np.copyto(hi, t, where=~on_lo)
        new = t - move
        t = np.where(new == t, t, _inside(new, lo, hi)[0])
    return t


def _grid_roots(f, x0, h, c0, c1, T):
    """The root in each sign-change cell [x0, x0 + h] from the grid alone,
    as (x, certified), certified where x is.  f (16, n) holds the grid's F
    at the nodes x0 + k h, k = -7 .. 8 (_NODES), so f[7] and f[8] are the
    cell's ends; c0, c1 are each bracket's noise floor and T its
    truncation bound (_bounds).

    In t = (x - x0) / h, P(t) = omega(t)/15! S(t), with omega(t) =
    prod_k (t - k) and S(t) = sum_k w_k f_k / (t - k), is the first
    barycentric form of the degree-15 interpolant of f, with the integer
    weights w_k of _WEIGHTS.  omega > 0 on (0, 1), so P has the sign of S
    there.  From the root in (0, 1) of the cubic through f at x0 - h ..
    x0 + 2h, two Newton steps on it from the secant point, each kept in
    (0, 1) by _inside, _interpolant_newton takes safeguarded Newton steps
    on P, narrowing [0, 1] by the sign of S against the sign bit of f at x0
    (_value_step).  f is overwritten.

    The certificate.  F* is the interpolant of the exact F at the nodes,
    P that of the grid's values, each within delta c0 of F (_DELTA; the
    tests check it against 40-digit sums).  At x(t) = x0 + h t, exactly,

        |F(x(t))| <= |P^(t)| + r + Lambda(t) delta c0 + T,

    * P^ is the computed P.  Higham (2004) shows the first barycentric form
      backward stable, each f_k perturbed by a relative gamma_(5n+5) at
      degree n, so |P^ - P| <= r = gamma_80 sum_k |l_k(t) f_k|, l_k the
      Lagrange basis.  Exact weights need fewer roundings: 52 per term
      (two for 1/(t - k), two for w_k f_k / (t - k), 15 for the sum, 31
      for omega and two to scale it and multiply).
    * Lambda(t) = sum_k |l_k(t)| is the Lebesgue function, at most 1.718 on
      the centre cell: P - F* = sum_k l_k (f_k - F(x0 + k h)).
    * T = _OMEGA sum (n h)^16 |c_n| bounds F - F*, the remainder
      F^(16)(xi)/16! h^16 omega(t), as |F^(16)| <= sum n^16 |c_n|.  At 16x
      oversampling n h < pi/16 and T < 0.017 c0; on grids a few times
      coarser it exceeds 2 e(x) and nothing is certified.

    The point returned is x = fl(x0 + fl(h t)), x0 = fl(j h), h =
    fl(2 pi / m): fl(pi) and the division put h within 1.4 u of 2 pi/m (u
    = eps/2) and the product and the sum add u each, so |x - x(t)| <=
    3.4 u |x| to first order, under 2 eps |x|.  F moves by at most
    sum n |c_n| times that, at most c1 |x| / 2 as c1 >= 4 eps sum n |c_n|.
    So x is accepted when

        |P^(t)| + r + Lambda(t) delta c0 + T <= 2 c0 + 1.5 c1 |x|,

    which puts |F(x)| <= 2 e(x), the guarantee of _newton's evaluated
    test.  r + Lambda(t) delta c0 is computed as |omega|/15! sum_k
    (gamma_80 |w_k f_k| + delta c0 |w_k|) / |t - k|; the bound's own
    arithmetic rounds each term by a relative 60 u or less, far inside the
    slack of gamma_80 and of delta: the grid's error stays below delta c0
    / 2 in those tests.
    """
    f0, f1, f2, f3 = f[6:10].copy()
    a1, a2 = f2 - f1 / 2 - f0 / 3 - f3 / 6, (f0 + f2) / 2 - f1
    a3 = (f1 - f2) / 2 + (f3 - f0) / 6
    t, _ = _inside(f1 / (f1 - f2), 0.0, 1.0)
    for _ in range(2):
        move = (f1 + t * (a1 + t * (a2 + t * a3))) / (a1 + t * (2 * a2 + 3 * t * a3))
        t, _ = _inside(t - move, 0.0, 1.0)
    wf = np.multiply(f, _WEIGHTS[:, None], out=f)
    t = _interpolant_newton(wf, t, 1.0 - 2.0 * np.signbit(f1))
    scale, S, spread = _interpolant_bound(wf, t, c0)
    x = x0 + h * t
    return x, scale * (np.abs(S) + spread) + T <= 2.0 * c0 + 1.5 * c1 * np.abs(x)


def _interpolant_bound(wf, t, c0):
    """(scale, S, spread) of the certificate of _grid_roots at t in (0, 1),
    with the weighted grid values wf (16, n) and each cell's c0: the
    computed P is scale S, scale = |omega(t)|/15!, and |F(x(t)) - scale S|
    <= scale spread + T, spread = gamma_80 sum_k |w_k f_k| / |t - k| +
    delta c0 sum_k |w_k| / |t - k|.  wf is overwritten."""
    d = np.empty_like(wf)
    scale = np.abs(np.prod(np.subtract(t, _NODES[:, None], out=d), axis=0)) / math.factorial(15)
    S = np.einsum("kn,kn->n", wf, np.reciprocal(d, out=d))
    np.abs(d, out=d)
    spread = (_gamma(80) * np.einsum("kn,kn->n", np.abs(wf, out=wf), d)
              + _DELTA * c0 * np.einsum("k,kn->n", np.abs(_WEIGHTS), d))
    return scale, S, spread


def _newton(series, own, lo, hi, x, lo_sign):
    """One zero of F in each bracket [lo, hi] of row own[i] of the series
    rows (c, c0, c1), from the start x inside it, lo_sign (+-1) the sign
    of F at lo.  lo and hi are narrowed in place.

    Safeguarded Newton on the series, vectorized over the brackets of every
    row, evaluating every point it takes.  Every evaluation shrinks the
    bracket, and a step that would leave the bracket is replaced by its
    midpoint.  A bracket is done at x when |f(x)| is inside the rounding
    noise e(x) = c0 + c1|x| of its row's series (tests/test_poly.py checks
    the evaluator's F against 40-digit sums within e(x)/4), so |F(x)| <=
    2 e(x); or when the Newton step no longer moves x, or the bracket has
    shrunk to adjacent floats.  Only the live brackets are carried from
    round to round.  It takes the sign-change brackets the grid's
    interpolant could not certify (_grid_roots), about one root in a
    thousand, all in close pairs, and the halves of the dip cells.
    """
    roots = np.empty(len(x))
    c, c0, c1 = series
    live = np.arange(len(x))
    for _ in range(MAX_REFINE_ITERATIONS):
        fx, dfx = _series_values(c, own, x)
        on_lo = np.sign(fx) == lo_sign
        np.copyto(lo, x, where=on_lo)
        np.copyto(hi, x, where=~on_lo)
        done = np.abs(fx) <= c0[own] + c1[own] * np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xn = x - fx / dfx
        done |= xn == x
        xn, _ = _inside(xn, lo, hi)
        done |= xn == x
        roots[live[done]] = x[done]
        go = ~done
        live, x, lo, hi, own, lo_sign = live[go], xn[go], lo[go], hi[go], own[go], lo_sign[go]
        if len(live) == 0:
            return roots
    raise RuntimeError(
        f"root refinement did not converge: bracket [{lo[0]!r}, {hi[0]!r}] "
        f"after {MAX_REFINE_ITERATIONS} iterations"
    )


def _gather(vals, row, j, width):
    """The grid values at x_j-7 .. x_j-8+width of the cell j of row row,
    from the rows of the padded grid vals (K, m + 17) of _grid_values by
    flat index, as a (width, n) array."""
    return vals.reshape(-1).take(row * vals.shape[1] + j + np.arange(width)[:, None])


def _dip_candidates(vals, same, cut):
    """The cells of one chunk's padded grid of F, vals (K, m + 17)
    (_grid_values), that may hide a near-tangent root pair, as
    (row, j, g, d): the cell [x_j, x_j+1] of row `row`, with g (16, n) the
    grid's F at the interpolant's nodes x_j-7 .. x_j+8 (_NODES), so g[7:9]
    at its ends, and d (2, n) h P' at its ends, h the grid step.  same[k, j]
    says the grid's F has one sign bit at both ends of cell j on row k, and
    cut holds each row's cut of _bounds.

    The cells where both |F_j| and |F_j+1| exceed cut hold no zero of F
    and go first: nearly all of them.  On the rest, h F' at each end x_i
    comes from the interpolant on x_i-7 .. x_i+8 (_SLOPE), so a grid point
    has one slope whichever cell asks.  A candidate is a cell where the
    sign bits of the two differ, so that F' changes sign in the cell (an
    F' of exactly +-0 at a grid point flags one of its two cells).

    The pass assumes that the extremum between a pair of roots hidden in a
    cell leaves a sign change of F' between the cell's ends: a cell where
    F' has two zeros (the extremum and a turn back) is not looked at.
    """
    ends = vals[:, 7:-9]
    low = (ends <= cut[:, None]) & (ends >= -cut[:, None])
    row, j = np.divmod(np.flatnonzero((low[:, :-1] | low[:, 1:]) & same), same.shape[1])
    g = _gather(vals, row, j, 17)
    d = np.stack([np.einsum("k,kn->n", _SLOPE, g[:16]), np.einsum("k,kn->n", _SLOPE, g[1:])])
    keep = np.signbit(d[0]) != np.signbit(d[1])
    return row[keep], j[keep], g[:16, keep], d[:, keep]


def _dip_brackets(series, T, xe, row, j, g, d):
    """Brackets of the root pairs hidden in dip candidate cells.

    A pair of close real roots can sit inside one grid cell without a sign
    change; the extremum between them is then a zero of F'.  Each candidate
    of _dip_candidates (row, grid index j, the grid's F at the nodes in g
    and h P' at the cell's ends in d) gets its extremum located on the
    cell's interpolant P (_grid_roots) as a root of P': _DIFF g holds h P'
    at the nodes, and P', of degree 14, is their degree-15 interpolant, so
    from the secant zero of d _interpolant_newton takes its safeguarded
    Newton steps on P', narrowing by its sign against that of d at the
    cell's left end.

    At the extremum xc the certificate of _grid_roots (_interpolant_bound,
    with each row's truncation bound T) decides the cell where it proves
    |F| above the series' noise with the sign bit's sign s of the cell's
    ends (a computed S or F of 0 has sign 0, so it never clears a cell):
    S has the sign s and scale (|S| - spread) - T > c0 + 1.5 c1 |xc|,
    the 1.5 c1 |xc| covering the rounding of xc as in _grid_roots, so
    |F(xc)| > c0 + c1 |xc| and the series, the rows (c, c0, c1), would
    give s.  Those cells hold no hidden pair.  F is evaluated on the
    series at the extrema of the rest.  Returns (row, lo, hi, start, sign)
    brackets, sign that of F at lo, on both sides of xc wherever F there
    has not the sign s, each started at its midpoint.  Their interiors are
    disjoint from each other and from every sign-change cell, so each holds
    its own root.  xe holds the grid's m + 1 points.
    """
    c, c0, c1 = series
    if len(row):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t, _ = _inside(d[0] / (d[0] - d[1]), 0.0, 1.0)
            wd = _WEIGHTS[:, None] * np.einsum("ik,kn->in", _DIFF, g)
            t = _interpolant_newton(wd, t, 1.0 - 2.0 * np.signbit(d[0]))
            scale, S, spread = _interpolant_bound(_WEIGHTS[:, None] * g, t, c0[row])
        xc = xe[j] + xe[1] * t
        s = 1.0 - 2.0 * np.signbit(g[7])
        clear = np.sign(S) == s
        clear &= scale * (np.abs(S) - spread) - T[row] > c0[row] + 1.5 * c1[row] * np.abs(xc)
        row, j, xc, s = row[~clear], j[~clear], xc[~clear], s[~clear]
        fc, _ = _series_values(c, row, xc)
    else:
        xc = fc = s = np.empty(0)
    flips = np.sign(fc) != s
    row, j, xc, sign = row[flips], j[flips], xc[flips], s[flips]
    lo, hi = np.concatenate([xe[j], xc]), np.concatenate([xc, xe[j + 1]])
    return np.concatenate([row, row]), lo, hi, 0.5 * (lo + hi), np.concatenate([sign, -sign])


def _grid_length(n1):
    """m, the length of the grid for coefficient rows of length n1: the
    smallest even 5-smooth number >= OVERSAMPLE (2 n1 - 1), a length whose
    transform takes radix-2, 3 and 5 passes only (16(2N+1) itself has the
    factor 683 at N = 1024)."""
    need = OVERSAMPLE * (2 * n1 - 1)
    best, f5 = 2 * need, 1
    while f5 < best:
        f = f5
        while f < best:
            # the smallest f 2^e >= need with e >= 1
            best = min(best, f << max(1, (-(-need // f) - 1).bit_length()))
            f *= 3
        f5 *= 5
    return best


def _chunk_rows(n1):
    """Rows per grid chunk for coefficient rows of length n1: max(1, 2^16 // m)
    for the m-point grid (_grid_length)."""
    return max(1, _CHUNK_GRID_POINTS // _grid_length(n1))


def _scan(series, bounds, k0, k1, xe):
    """The grid pass over rows k0..k1-1 of the series rows (c, c0, c1),
    with their _bounds, on the grid xe[:-1] of m points, each result with
    its row in the series: the roots the grid settles, (row, x), being the
    certified roots of the sign-change cells (_grid_roots); the sign-change
    brackets left, (row, lo, hi, start, sign), each started where the
    interpolant's Newton steps ended; and the dip candidates (row, j, g, d)
    of _dip_candidates.  The chunk's padded grid is freed once the
    sign-change stencils and the dip candidates are gathered, before the
    sign-change roots are refined."""
    c, c0, c1 = (v[k0:k1] for v in series)
    T, cut = (v[k0:k1] for v in bounds)
    m = len(xe) - 1
    vals = _grid_values(c, m)
    # F changes sign across cell j where F_j and F_j+1 (x_m is x_0) differ in
    # sign bit and keeps it where they agree, a zero's sign being its sign bit
    sign = np.signbit(vals[:, 7:-9])
    same = sign[:, :-1] == sign[:, 1:]
    row, j = np.divmod(np.flatnonzero(~same), m)
    f = _gather(vals, row, j, 16)
    drow, *dips = _dip_candidates(vals, same, cut)
    del vals, same, sign  # the grid and its maps, freed once used
    lo_sign = 1.0 - 2.0 * np.signbit(f[7])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, certified = _grid_roots(f, xe[j], xe[1], c0[row], c1[row], T[row])
    go, j = ~certified, j[~certified]
    return (row[certified] + k0, x[certified],
            row[go] + k0, xe[j], xe[j + 1], x[go], lo_sign[go], drow + k0, *dips)


def _real_roots_block(c):
    """The real zeros in [0, 2*pi) of each coefficient row of c (K, N+1), as
    one flat record (roots, counts): roots holds row 0's zeros sorted, then
    row 1's, and so on, and counts[k] is how many row k has.  The ensemble
    reduces the record as it is, and np.split(roots, np.cumsum(counts)[:-1])
    gives one array per row.

    The grid pass runs chunk by chunk (_chunk_rows rows each, _scan): one
    batched transform per chunk, the roots of its sign-change cells
    certified from the grid and the dip candidates found on the 2-D grid
    with their row index, and the chunk's grid freed before the next one.
    Everything after it runs once for all K rows: the dip candidates'
    extrema on the interpolant, one Newton pass over the brackets left, and
    the sort by row and value.  Each bracket gives one root strictly
    inside it, the brackets' interiors are disjoint (the sign-change cells,
    and the two halves of a dip cell split at its extremum), so no root is
    found twice and none needs merging, and every root comes from one, so
    each row's count is even.  A row's roots do not depend on the other
    rows, since every step works row by row and a point's series values
    depend on that point alone.
    """
    if not np.all(np.any(c != 0.0, axis=1)):
        raise ValueError("degenerate input: polynomial is identically zero")
    # each row times the power of two, exact, that puts its largest |a_n|,
    # |b_n| in [0.5, 1), so neither the transform nor the noise floor overflows
    ab = np.ascontiguousarray(c).view(float)
    c = np.ldexp(ab, -np.frexp(np.abs(ab).max(axis=1))[1][:, None]).view(complex)
    K, n1 = c.shape
    m = _grid_length(n1)
    xe = np.arange(m + 1) * (2.0 * np.pi / m)
    s = (c, *_noise_floor(c))
    bounds = _bounds(c, s[1], xe[1])
    k = _chunk_rows(n1)
    parts = [_scan(s, bounds, k0, k0 + k, xe) for k0 in range(0, K, k)]
    settled, at, *found, row, j, g, d = (np.concatenate(v, axis=-1) for v in zip(*parts))
    dips = _dip_brackets(s, bounds[0], xe, row, j, g, d)
    own, *brackets = (np.concatenate(v) for v in zip(found, dips))
    roots = np.mod(np.concatenate([at, _newton(s, own, *brackets)]), 2.0 * np.pi)
    own = np.concatenate([settled, own])
    # by row, then by value: ties are equal values, so the values' sort
    # need not be stable; the rows' sort is, and NumPy radix-sorts row
    # indices held in the smallest unsigned type
    order = np.argsort(roots)
    order = order[np.argsort(own[order].astype(np.min_scalar_type(K)), kind="stable")]
    return roots[order], np.bincount(own, minlength=K)


def real_roots_sampled(f: TrigPolynomial) -> RootSet:
    """All real zeros in [0, 2*pi) by dense sampling plus bracket refinement.

    Each root is refined to the rounding noise of the series, one root per
    bracket.  This is the block finder run on a block of one.
    """
    roots, _ = _real_roots_block(_coefficients(f)[None])
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
    # f times the power of two, exact, that puts its largest |a_n|, |b_n| in
    # [0.5, 1), so the polish's F' does not overflow; the companion matrix
    # and the Newton steps F/F' are unchanged by it
    k = -np.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]
    a, b = np.ldexp(a, k), np.ldexp(b, k)
    f = TrigPolynomial(N, a, b)
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
