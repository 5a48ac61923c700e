"""Monte Carlo ensembles of real zeros and their empirical statistics.

Statistics live in the rescaled coordinate x -> N*x/pi, where the 2N
fundamental zeros per period have unit mean spacing, so the circle has
circumference 2N.  The root finder takes an ensemble in fixed batches of
consecutive realizations, and each batch leaves it as one flat record:
every realization's sorted roots, one realization after the other, and
each realization's count.  The process that found a batch reduces it at
once to statistics (_Reduction): the per-realization counts, the integer
histogram counts of the ordered pairs or of the gaps, and the sum of the
gaps held exactly, as a whole number of 2^-1074.  Integers add up alike in
any order, so every estimate is the same however the batches are spread
over workers, and a run holds one batch's roots at a time: beyond that its
memory grows by one count per realization.  The functions that take lists
of root sets reduce them in the same batches with the same code.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import poly, roots

__all__ = [
    "Histogram",
    "PairCorrelationEstimate",
    "rescale_zeros",
    "real_zero_ensemble",
    "empirical_real_fraction",
    "empirical_pair_correlation",
    "nearest_neighbor_spacings",
    "circular_gaps",
    "gap_ensemble",
]


def rescale_zeros(zeros, degree: int) -> np.ndarray:
    """Map sorted roots in [0, 2*pi) to [0, 2N): x -> N*x/pi."""
    return np.asarray(zeros, dtype=float) * (degree / np.pi)


@dataclass(frozen=True)
class Histogram:
    """Binned statistic with explicit edges."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if len(e) != len(v) + 1:
            raise ValueError("edges must have one more entry than values")
        if np.any(np.diff(e) <= 0):
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "values", v)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


@dataclass(frozen=True)
class PairCorrelationEstimate:
    """Pair-correlation histogram plus the facts of its estimate: realizations,
    degree, bin_width, max_range and ordered_pairs."""

    histogram: Histogram
    metadata: dict = field(default_factory=dict)


# every double is a whole multiple of 2^-1074, the least subnormal
_TINY = 1074


def _whole(x) -> int:
    """The double x as a whole number of 2^-1074: exact, so sums of these do
    not depend on their order."""
    n, d = float(x).as_integer_ratio()
    return n << (_TINY + 1 - d.bit_length())


@dataclass
class _Statistics:
    """Statistics of realizations, summed over their batches: each
    realization's real-root count, in index order; the integer histogram
    counts of the ordered pairs and of the gaps (empty unless asked for);
    and the sum of the gaps, _whole."""

    counts: np.ndarray
    pairs: np.ndarray
    gaps: np.ndarray
    gap_sum: int = 0

    @property
    def gap_count(self) -> int:
        """How many gaps there are: the roots of the realizations with two or
        more."""
        return int(self.counts[self.counts >= 2].sum())

    def mean_gap(self) -> float:
        """The mean gap, correctly rounded from the batches' exact sum."""
        return self.gap_sum / (self.gap_count << _TINY)


# no histogram asked for
_NO_BINS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class _Reduction:
    """What each batch of a degree-N ensemble leaves the root finder as: the
    _Statistics of its realizations, with the ordered-pair histogram counts
    on pair_edges and the gap histogram counts on gap_edges where given."""

    degree: int
    pair_edges: np.ndarray | None = None
    gap_edges: np.ndarray | None = None

    def __call__(self, r, k) -> _Statistics:
        """The statistics of the flat record (r, k): rescaled roots sorted
        realization by realization, and each realization's count."""
        period = 2.0 * self.degree
        stats = _Statistics(k.astype(np.int32), _NO_BINS, _NO_BINS)
        if self.pair_edges is not None:
            stats.pairs = _pair_counts(r, k, period, self.pair_edges)
        if self.gap_edges is not None:
            g = _gaps(r, k, period)
            stats.gaps = _histogram(g, self.gap_edges)
            stats.gap_sum = _whole(g.sum())
        return stats

    def merge(self, parts) -> _Statistics:
        """The statistics of parts, consecutive runs of realizations in
        index order, taken together.  The counts are appended to one byte
        buffer, 4 bytes a realization, not kept as one array per batch."""
        counts, pairs, gaps, gap_sum = bytearray(), 0, 0, 0
        for part in parts:
            counts += part.counts.tobytes()
            pairs, gaps = pairs + part.pairs, gaps + part.gaps
            gap_sum += part.gap_sum
        return _Statistics(np.frombuffer(counts, dtype=np.int32), pairs, gaps, gap_sum)


class _RootSets:
    """real_zero_ensemble's default reduction: each realization's root
    array."""

    def __call__(self, r, k) -> list[np.ndarray]:
        return np.split(r, np.cumsum(k)[:-1])

    def merge(self, parts) -> list[np.ndarray]:
        return [roots for part in parts for roots in part]


# the array of float64 words (16 MiB) that _reduce_batches frees first, to
# lift glibc's dynamic mmap threshold
_LIFT_WORDS = 1 << 21
# the root finder takes a batch of this many grid chunks of realizations at
# once: the grid is still computed one chunk at a time, and everything after
# it runs once per batch
_BATCH_CHUNKS = 4


def _block_size(degree: int) -> int:
    """Realizations per batch: _BATCH_CHUNKS grid chunks of max(1, 2^16 // m)
    realizations each, for the m-point grid (120 at N = 64, 28 at N = 256)."""
    return _BATCH_CHUNKS * roots._chunk_rows(degree + 1)


def _reduce_batches(args):
    """reduce.merge of reduce applied to each batch of realizations
    lo..hi-1, whose roots are found, rescaled and reduced one batch at a
    time.

    lo is a multiple of the batch size, so the batches do not depend on how
    the index range was split into tasks; nor does any root depend on the
    batch it was found in.  The sampler draws each batch's coefficient rows
    straight into one array.
    """
    spec, lo, hi, reduce = args
    # freeing one mapped array larger than any temporary of a batch (the
    # evaluator's budget, a chunk's F grid and its interpolant stencils,
    # the transform's own buffers: several MiB at N = 4096) lifts glibc's
    # dynamic mmap threshold, and with it the heap trim threshold, above
    # them; otherwise they are mapped or trimmed and faulted in again on
    # every call (other allocators ignore this)
    np.empty(_LIFT_WORDS)
    K = _block_size(spec.degree)
    scale = spec.degree / np.pi  # rescale_zeros' factor

    def batches():
        for start in range(lo, hi, K):
            c = poly._coefficient_rows(spec, start, min(start + K, hi))
            r, k = roots._real_roots_block(c)
            yield reduce(r * scale, k)

    return reduce.merge(batches())


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the system
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def real_zero_ensemble(spec: poly.EnsembleSpec, threads: int = 1, reduce=None):
    """Rescaled real roots of F^(p) for every realization, in index order,
    or, given reduce, the ensemble's reduction by it.

    The root finder works on fixed batches of consecutive realizations
    (_block_size: 4 grid chunks of max(1, 2^16 // m) realizations for the
    m-point grid, m the smallest even 5-smooth number >= 16(2N+1)), and
    each batch leaves it as a flat record (r, k): the batch's rescaled
    roots sorted realization by realization, and each realization's count.
    reduce(r, k) reduces one batch, and reduce.merge(results) takes the
    results of consecutive runs of batches, in index order, together.  The
    default keeps each realization's root array, so the list grows with M;
    the commands' statistics (_Reduction) keep one count per realization.

    The workers are the least of threads, the CPUs this process may use and
    the batches.  With more than one, runs of whole batches go to that many
    worker processes, and each returns its run's merged result, not its
    roots; the pool is imported when first used, so a one-process run never
    loads multiprocessing.  Each realization is a pure function of (spec,
    index) and its roots do not depend on the batch it is found in, so the
    result is identical for any thread count.
    """
    if reduce is None:
        reduce = _RootSets()
    M = spec.realizations
    K = _block_size(spec.degree)
    blocks = math.ceil(M / K)
    workers = min(threads, _cpus(), blocks)
    if workers <= 1:
        return _reduce_batches((spec, 0, M, reduce))
    step = K * max(1, math.ceil(blocks / (4 * workers)))
    tasks = [(spec, lo, min(lo + step, M), reduce) for lo in range(0, M, step)]
    # imported here: it loads multiprocessing, socket, subprocess and
    # logging, which a one-process run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return reduce.merge(pool.map(_reduce_batches, tasks))


def _statistics(spec: poly.EnsembleSpec, threads: int = 1, pair_edges=None,
                gap_edges=None) -> _Statistics:
    """The ensemble's _Statistics, with the ordered-pair and gap histogram
    counts on pair_edges and gap_edges where given: real_zero_ensemble
    reduced batch by batch by _Reduction, the same for any thread count.
    It runs through the module's real_zero_ensemble, which
    perfbench/traced.py wraps by name to time the ensemble layer."""
    return real_zero_ensemble(spec, threads, _Reduction(spec.degree, pair_edges, gap_edges))


def _record(rootsets):
    """The flat record (r, k) of a list of root sets: their roots one set
    after the other, and each set's count."""
    return np.concatenate(rootsets, dtype=float), np.array([len(x) for x in rootsets])


def _list_statistics(rootsets, degree: int, pair_edges=None, gap_edges=None) -> _Statistics:
    """_statistics of a list of rescaled root sets of degree-N polynomials,
    taken in the ensemble's batches."""
    reduce = _Reduction(degree, pair_edges, gap_edges)
    K = _block_size(degree)
    return reduce.merge(reduce(*_record(rootsets[lo:lo + K]))
                        for lo in range(0, len(rootsets), K))


def _real_fraction(counts, degree: int) -> tuple[float, float]:
    """Mean and standard error of the real-zero fraction of degree-N
    realizations with these real-root counts."""
    fracs = counts / (2.0 * degree)
    return float(fracs.mean()), float(fracs.std(ddof=1) / math.sqrt(len(fracs)))


def empirical_real_fraction(
    spec: poly.EnsembleSpec, rootsets: list[np.ndarray] | None = None
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the real-zero fraction, of the
    given rescaled root sets or else of a one-thread run of the ensemble,
    which keeps only the counts."""
    if spec.realizations < 2:
        raise ValueError("need at least 2 realizations for a standard error")
    if rootsets is None:
        counts = _statistics(spec).counts
    else:
        counts = np.array([len(r) for r in rootsets])
    return _real_fraction(counts, spec.degree)


def _steps_within(step: float, top: float) -> int:
    """How many steps of width step from 0 fit in [0, top]: round(top /
    step) when that many end at top up to rounding, else floor(top / step),
    so the last never passes top."""
    k = int(round(top / step))
    if abs(k * step - top) > 1e-9 * top:
        k = int(math.floor(top / step))
    return k


def _bin_edges(bin_width: float, max_range: float) -> np.ndarray:
    """Edges 0, w, 2w, ... of a histogram on [0, max_range] with bin width
    w, _steps_within(w, max_range) bins of it."""
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    if bin_width >= max_range:
        raise ValueError("bin_width must be smaller than max_range")
    return np.arange(_steps_within(bin_width, max_range) + 1) * bin_width


def _pair_counts(r, k, period, edges):
    """Histogram counts on edges of the ordered pairs of roots closer than
    top = edges[-1] around the circle, within each realization of the flat
    record (r, k); the bins are edges[1] wide.

    Lag l pairs each root r_i with the l-th root after it in its
    realization's r followed by r + period, as long as that one is still
    below r_i + top: the diffs are the same doubles a loop over the
    realizations takes, and the lags stop when no root has a partner left.
    A root's partners never reach the next realization's roots, since
    r_i + period is not below r_i + top.
    """
    bin_width, top, nbins = edges[1], edges[-1], len(edges) - 1
    # each realization's r, then r + period; root t sits at ext[at[t]]
    at = np.arange(len(r)) + np.repeat(np.cumsum(k) - k, k)
    ext = np.empty(2 * len(r))
    ext[at] = r
    ext[at + np.repeat(k, k)] = r + period
    counts = np.zeros(nbins, dtype=np.int64)
    live, bound = np.arange(len(r)), r + top
    lag = 1
    while len(live):
        j = at[live] + lag
        near = ext[j] < bound[live]
        live, j = live[near], j[near]
        idx = ((ext[j] - r[live]) / bin_width).astype(np.int64)
        idx = idx[idx < nbins]  # guard rounding exactly onto the top edge
        counts += np.bincount(idx, minlength=nbins)
        lag += 1
    return counts


def _pair_correlation(stats: _Statistics, degree: int, edges) -> PairCorrelationEstimate:
    """The pair-correlation estimate of stats' ordered-pair counts on edges."""
    period = 2.0 * degree
    bin_width, M = float(edges[1]), len(stats.counts)
    values = stats.pairs / (M * period * bin_width)
    meta = {"realizations": M, "degree": degree, "bin_width": bin_width,
            "max_range": float(edges[-1]), "ordered_pairs": int(stats.pairs.sum())}
    return PairCorrelationEstimate(histogram=Histogram(edges, values), metadata=meta)


def empirical_pair_correlation(
    rootsets: list[np.ndarray],
    degree: int,
    bin_width: float = 0.05,
    max_range: float = 6.0,
) -> PairCorrelationEstimate:
    """Histogram estimate of the pair correlation of rescaled real zeros.

    Counts ordered pairs (i != j) whose circular difference mod 2N falls in
    [0, max_range), then divides each bin count by (M * 2N * bin_width).
    For an uncorrelated point process of density v the estimate converges
    to v*v in every bin; for the zero process the plateau is the squared
    density of real zeros.
    """
    if not len(rootsets):
        raise ValueError("empty ensemble")
    edges = _bin_edges(bin_width, max_range)
    if max_range > degree:
        raise ValueError("max_range cannot exceed the half period N")
    return _pair_correlation(_list_statistics(rootsets, degree, pair_edges=edges),
                             degree, edges)


def _histogram(x, edges):
    """np.histogram(x, edges)[0], bin i holding edges[i] <= x < edges[i+1]
    and the last also x = edges[-1], found by binary search on the edges:
    NumPy's sorts x, whose first call faults in about 0.5 MB of sort code in
    every worker."""
    i = np.searchsorted(edges, x, side="right") - 1
    i[x == edges[-1]] -= 1
    return np.bincount(i[(i >= 0) & (i < len(edges) - 1)], minlength=len(edges) - 1)


def _gaps(r, k, period):
    """The circular gaps of each realization of the flat record (r, k) that
    has two roots or more, one realization after the other: each root's
    distance to the next around its circle of length period."""
    first = np.cumsum(k) - k
    ahead = np.empty_like(r)
    ahead[:-1] = r[1:]
    some = k > 0
    ahead[first[some] + k[some] - 1] = r[first[some]] + period
    return (ahead - r)[np.repeat(k >= 2, k)]


def circular_gaps(zeros, period: float) -> np.ndarray:
    """Consecutive gaps of a sorted root list on a circle of given length."""
    r = np.asarray(zeros, dtype=float)
    return _gaps(r, np.array([len(r)]), period)


def gap_ensemble(rootsets: list[np.ndarray], degree: int) -> np.ndarray:
    """All circular nearest-neighbor gaps of the ensemble, in index order."""
    gaps = _gaps(*_record(rootsets), 2.0 * degree) if len(rootsets) else np.empty(0)
    if not len(gaps):
        raise ValueError("no realization contributed two or more roots")
    return gaps


def _spacings(stats: _Statistics, edges) -> Histogram:
    """The density-normalized histogram of stats' gap counts on edges."""
    if not stats.gap_count:
        raise ValueError("no realization contributed two or more roots")
    in_range = stats.gaps.sum()
    if in_range == 0:
        raise ValueError("no gaps fall inside the histogram range")
    return Histogram(edges, stats.gaps / (in_range * float(edges[1])))


def nearest_neighbor_spacings(
    rootsets: list[np.ndarray],
    degree: int,
    bin_width: float = 0.05,
    max_range: float = 6.0,
) -> Histogram:
    """Density-normalized histogram of consecutive circular gaps.

    Realizations with fewer than two roots contribute no gaps.  The values
    integrate to 1 over the histogram support.
    """
    edges = _bin_edges(bin_width, max_range)
    return _spacings(_list_statistics(rootsets, degree, gap_edges=edges), edges)
