"""Monte Carlo ensembles of real zeros and their empirical statistics.

Statistics live in the rescaled coordinate x -> N*x/pi, where the 2N
fundamental zeros per period have unit mean spacing, so the circle has
circumference 2N.  Everything here is computed from per-realization root
lists produced in realization-index order; partial results are reduced in
that fixed order, which makes every estimate independent of how the
realizations were partitioned across workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
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


# the root finder takes a batch of this many grid chunks of realizations at
# once: the grid is still computed one chunk at a time, and everything after
# it runs once per batch
_BATCH_CHUNKS = 4


def _block_size(degree: int) -> int:
    """Realizations per batch: _BATCH_CHUNKS grid chunks of max(1, 2^16 // m)
    realizations each, for the m-point grid (124 at N = 64, 28 at N = 256)."""
    return _BATCH_CHUNKS * roots._chunk_rows(degree + 1)


def _blocks_rescaled_roots(args):
    """Rescaled roots of realizations lo..hi-1, found batch by batch.

    lo is a multiple of the batch size, so the batches do not depend on how
    the index range was split into tasks; nor does any root depend on the
    batch it was found in.  The sampler draws each batch's coefficient rows
    straight into one array.
    """
    spec, lo, hi = args
    # freeing one mapped array larger than any temporary of a batch (the
    # evaluator's budget, a chunk's F grid and its interpolant stencils,
    # the transform's own buffers: several MiB at N = 4096) lifts glibc's
    # dynamic mmap threshold, and with it the heap trim threshold, above
    # them; otherwise they are mapped or trimmed and faulted in again on
    # every call (other allocators ignore this)
    np.empty(poly._TABLE_WORDS)
    K = _block_size(spec.degree)
    out = []
    for start in range(lo, hi, K):
        c = poly._coefficient_rows(spec, start, min(start + K, hi))
        for r in roots._real_roots_block(c):
            out.append(rescale_zeros(r, spec.degree))
    return out


def real_zero_ensemble(spec: poly.EnsembleSpec, threads: int = 1) -> list[np.ndarray]:
    """Rescaled real roots of F^(p) for every realization, in index order.

    The root finder works on fixed batches of consecutive realizations
    (_block_size: 4 grid chunks of max(1, 2^16 // m) realizations for the
    m = 16*(2N+1) point grid).  With threads > 1 runs of whole batches are
    processed in parallel worker processes.  Each realization is a pure
    function of (spec, index), its roots do not depend on the batch it is
    found in, and the returned list is always ordered by index, so the
    output is identical for any thread count.
    """
    M = spec.realizations
    K = _block_size(spec.degree)
    blocks = math.ceil(M / K)
    if threads <= 1 or blocks == 1:
        return _blocks_rescaled_roots((spec, 0, M))
    workers = min(threads, os.cpu_count() or 1, blocks)
    step = K * max(1, math.ceil(blocks / (4 * workers)))
    tasks = [(spec, lo, min(lo + step, M)) for lo in range(0, M, step)]
    out: list[np.ndarray] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_blocks_rescaled_roots, tasks):
            out.extend(part)
    return out


def empirical_real_fraction(
    spec: poly.EnsembleSpec, rootsets: list[np.ndarray] | None = None
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the real-zero fraction, of the
    given rescaled root sets or else of a one-thread run of the ensemble."""
    if spec.realizations < 2:
        raise ValueError("need at least 2 realizations for a standard error")
    if rootsets is None:
        rootsets = real_zero_ensemble(spec)
    fracs = np.array([len(r) / (2.0 * spec.degree) for r in rootsets])
    return float(fracs.mean()), float(fracs.std(ddof=1) / math.sqrt(len(fracs)))


def _bin_edges(bin_width: float, max_range: float) -> np.ndarray:
    """Edges 0, w, 2w, ... of a histogram on [0, max_range] with bin width w.

    Takes round(max_range / w) bins when that many end at max_range up to
    rounding, else floor(max_range / w), so the top edge never passes
    max_range.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    if bin_width >= max_range:
        raise ValueError("bin_width must be smaller than max_range")
    nbins = int(round(max_range / bin_width))
    if abs(nbins * bin_width - max_range) > 1e-9 * max_range:
        nbins = int(math.floor(max_range / bin_width))
    return np.arange(nbins + 1) * bin_width


# the pair histogram takes runs of whole realizations holding at most this
# many roots at once, so its temporaries stay small beside the ensemble
_PAIR_ROOTS = 1 << 14


def _pair_counts(rootsets, period, top, bin_width, nbins):
    """Histogram counts of the ordered pairs of rescaled roots closer than
    top around the circle, over every realization of rootsets at once.

    Lag l pairs each root r_i with the l-th root after it in r followed by
    r + period, as long as that one is still below r_i + top: the diffs are
    the same doubles a loop over the realizations takes, and the lags stop
    when no root has a partner left.  A root's partners never reach the
    next realization's roots, since r_i + period is not below r_i + top.
    """
    r = np.concatenate(rootsets)
    k = np.array([len(x) for x in rootsets])
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
    if not rootsets:
        raise ValueError("empty ensemble")
    edges = _bin_edges(bin_width, max_range)
    if max_range > degree:
        raise ValueError("max_range cannot exceed the half period N")
    period = 2.0 * degree
    nbins = len(edges) - 1
    top = float(edges[-1])
    counts = np.zeros(nbins, dtype=np.int64)
    step = max(1, _PAIR_ROOTS // (2 * degree))
    for lo in range(0, len(rootsets), step):
        counts += _pair_counts(rootsets[lo:lo + step], period, top, bin_width, nbins)
    M = len(rootsets)
    values = counts / (M * period * bin_width)
    meta = {"realizations": M, "degree": degree, "bin_width": bin_width,
            "max_range": top, "ordered_pairs": int(counts.sum())}
    return PairCorrelationEstimate(histogram=Histogram(edges, values), metadata=meta)


def circular_gaps(zeros, period: float) -> np.ndarray:
    """Consecutive gaps of a sorted root list on a circle of given length."""
    r = np.asarray(zeros, dtype=float)
    if len(r) < 2:
        return np.empty(0)
    return np.concatenate([np.diff(r), [r[0] + period - r[-1]]])


def gap_ensemble(rootsets: list[np.ndarray], degree: int) -> np.ndarray:
    """All circular nearest-neighbor gaps of the ensemble, in index order."""
    period = 2.0 * degree
    parts = [circular_gaps(r, period) for r in rootsets]
    parts = [p for p in parts if len(p)]
    if not parts:
        raise ValueError("no realization contributed two or more roots")
    return np.concatenate(parts)


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
    counts, _ = np.histogram(gap_ensemble(rootsets, degree), bins=edges)
    in_range = counts.sum()
    if in_range == 0:
        raise ValueError("no gaps fall inside the histogram range")
    values = counts / (in_range * bin_width)
    return Histogram(edges, values)
