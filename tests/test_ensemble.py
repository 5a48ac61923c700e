"""Empirical zero statistics on the rescaled circle."""

import math
import os
import signal
import statistics
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from trigcrystal import ensemble
from trigcrystal.cli import _Outputs, _write_histogram, main
from trigcrystal.ensemble import (
    Histogram,
    circular_gaps,
    empirical_pair_correlation,
    empirical_real_fraction,
    gap_ensemble,
    nearest_neighbor_spacings,
    real_zero_ensemble,
    rescale_zeros,
)
from trigcrystal.poly import EnsembleSpec, VarianceProfile


def unit_lattice(degree):
    return np.arange(2 * degree, dtype=float) + 0.5


class TestRescale:
    def test_cosine_zeros_have_unit_spacing(self):
        N = 7
        roots = math.pi / (2 * N) + np.arange(2 * N) * math.pi / N
        r = rescale_zeros(roots, N)
        assert np.allclose(r, 0.5 + np.arange(2 * N), atol=1e-12)
        assert np.allclose(np.diff(r), 1.0, atol=1e-12)

    def test_empty_stays_empty(self):
        assert len(rescale_zeros([], 5)) == 0


class TestPairCorrelation:
    def test_rigid_lattice_mass_sits_on_integers(self):
        deg = 50
        est = empirical_pair_correlation([unit_lattice(deg)], deg,
                                         bin_width=0.5, max_range=6.0)
        v = est.histogram.values
        # bins [1.0,1.5), [2.0,2.5), ... carry density mass 1 each (value 2)
        assert np.all(v[2::2][:5] == 2.0)
        assert np.all(v[1::2] == 0.0)
        assert v[0] == 0.0

    def test_uncorrelated_process_plateaus_at_squared_density(self):
        rng = np.random.default_rng(123)
        deg, v = 50, 0.6
        L = 2 * deg
        sets = [np.sort(rng.uniform(0, L, rng.poisson(v * L))) for _ in range(4000)]
        est = empirical_pair_correlation(sets, deg, bin_width=0.25, max_range=6.0)
        assert np.max(np.abs(est.histogram.values - v * v)) < 0.04 * v * v

    def test_matches_brute_force_ordered_pairs(self):
        rng = np.random.default_rng(99)
        deg = 20
        L, top = 2 * deg, 5.0
        sets = [np.sort(rng.uniform(0, L, 30)) for _ in range(10)]
        est = empirical_pair_correlation(sets, deg, bin_width=0.25, max_range=top)
        counts = np.zeros(20, dtype=int)
        for r in sets:
            for i in range(len(r)):
                for j in range(len(r)):
                    if i == j:
                        continue
                    d = (r[j] - r[i]) % L
                    if d < top:
                        counts[int(d / 0.25)] += 1
        expect = counts / (len(sets) * L * 0.25)
        assert np.array_equal(est.histogram.values, expect)

    def test_runs_of_realizations_count_the_same_pairs(self, monkeypatch):
        # a list is reduced in the ensemble's batches, _BATCH_CHUNKS
        # realizations each at N = 1024: one per batch, as a loop over the
        # realizations takes them, or 7, against all 60 in one batch; some
        # hold 0 or 1 roots
        rng = np.random.default_rng(5)
        deg = 1024
        sets = [np.sort(rng.uniform(0, 2 * deg, n)) for n in rng.integers(0, 400, 60)]
        sets[3], sets[10] = np.empty(0), np.array([5.0])
        assert ensemble._block_size(deg) == ensemble._BATCH_CHUNKS
        monkeypatch.setattr(ensemble, "_BATCH_CHUNKS", len(sets))
        whole = empirical_pair_correlation(sets, deg, bin_width=0.1, max_range=6.0)
        gaps = nearest_neighbor_spacings(sets, deg, bin_width=0.1, max_range=6.0)
        for chunks in (1, 7):
            monkeypatch.setattr(ensemble, "_BATCH_CHUNKS", chunks)
            apart = empirical_pair_correlation(sets, deg, bin_width=0.1, max_range=6.0)
            assert np.array_equal(whole.histogram.values, apart.histogram.values)
            assert whole.metadata["ordered_pairs"] == apart.metadata["ordered_pairs"] > 0
            apart = nearest_neighbor_spacings(sets, deg, bin_width=0.1, max_range=6.0)
            assert np.array_equal(gaps.values, apart.values)
            # the mean gap comes from the counts alone: each realization
            # with two or more roots has gaps that go once round its circle
            mean = ensemble._list_statistics(sets, deg).mean_gap(deg)
            assert mean == pytest.approx(gap_ensemble(sets, deg).mean(), rel=1e-14)

    def test_total_pair_mass_identity(self):
        rng = np.random.default_rng(7)
        deg = 25
        sets = [np.sort(rng.uniform(0, 2 * deg, 40)) for _ in range(20)]
        est = empirical_pair_correlation(sets, deg, bin_width=0.1, max_range=6.0)
        h = est.histogram
        mass = float(np.sum(h.values)) * 0.1 * (2 * deg) * len(sets)
        assert round(mass) == est.metadata["ordered_pairs"]

    def test_folded_differences_equal_halved_bidirectional(self):
        rng = np.random.default_rng(31)
        deg = 10
        L = 2 * deg
        sets = [np.sort(rng.uniform(0, L, 25)) for _ in range(8)]
        est = empirical_pair_correlation(sets, deg, bin_width=0.5, max_range=float(deg))
        folded = np.zeros(len(est.histogram.values))
        for r in sets:
            for i in range(len(r)):
                for j in range(len(r)):
                    if i == j:
                        continue
                    d = (r[j] - r[i]) % L
                    s = min(d, L - d)
                    if s < deg:
                        folded[int(s / 0.5)] += 0.5
        folded /= len(sets) * L * 0.5
        assert np.allclose(folded, est.histogram.values, atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_pair_correlation([], 10)
        with pytest.raises(ValueError, match="bin_width"):
            empirical_pair_correlation([unit_lattice(10)], 10, bin_width=7.0,
                                       max_range=6.0)
        with pytest.raises(ValueError, match="half period"):
            empirical_pair_correlation([unit_lattice(10)], 10, bin_width=0.1,
                                       max_range=11.0)


class TestSpacings:
    def test_lattice_gaps_are_all_one(self):
        deg = 30
        hist = nearest_neighbor_spacings([unit_lattice(deg)], deg,
                                         bin_width=0.25, max_range=3.0)
        assert hist.values[4] == 4.0  # all mass in [1.0, 1.25)
        assert np.sum(hist.values > 0) == 1

    def test_density_normalization(self):
        rng = np.random.default_rng(12)
        deg = 40
        sets = [np.sort(rng.uniform(0, 2 * deg, 60)) for _ in range(30)]
        hist = nearest_neighbor_spacings(sets, deg, bin_width=0.1, max_range=8.0)
        assert abs(float(np.sum(hist.values * np.diff(hist.edges))) - 1.0) < 1e-12

    def test_gaps_cover_the_circle_exactly(self):
        rng = np.random.default_rng(13)
        deg = 15
        r = np.sort(rng.uniform(0, 2 * deg, 37))
        g = circular_gaps(r, 2 * deg)
        assert len(g) == 37
        assert abs(float(np.sum(g)) - 2 * deg) < 1e-9

    def test_mean_gap_identity(self):
        # aggregated mean gap = total circular length / number of gaps
        rng = np.random.default_rng(14)
        deg = 12
        sets = [np.sort(rng.uniform(0, 2 * deg, int(rng.integers(5, 40))))
                for _ in range(25)]
        gaps = gap_ensemble(sets, deg)
        total_roots = sum(len(r) for r in sets)
        assert abs(gaps.mean() - 2 * deg * len(sets) / total_roots) < 1e-9

    def test_sparse_realizations_contribute_nothing(self):
        deg = 10
        sets = [np.array([3.0]), unit_lattice(deg)]
        gaps = gap_ensemble(sets, deg)
        assert len(gaps) == 2 * deg
        with pytest.raises(ValueError):
            gap_ensemble([np.array([3.0])], deg)
        # a range above the circle, 2N = 6: the one-root set still adds no
        # gap, where its gap round the circle would be 6; the other's gaps
        # are 1.5 and 4.5
        hist = nearest_neighbor_spacings([[1.0], [1.0, 2.5]], 3, bin_width=0.5,
                                         max_range=7.0)
        assert np.flatnonzero(hist.values).tolist() == [3, 9]
        assert hist.values[3] == hist.values[9] == 1.0

    def test_both_estimators_share_one_bin_edge_rule(self):
        # 6 / 0.07 = 85.7 bins: both histograms end at 85 * 0.07 = 5.95, never
        # past max_range
        deg, sets = 6, [unit_lattice(6)]
        pair = empirical_pair_correlation(sets, deg, bin_width=0.07, max_range=6.0)
        gaps = nearest_neighbor_spacings(sets, deg, bin_width=0.07, max_range=6.0)
        assert np.array_equal(pair.histogram.edges, gaps.edges)
        assert len(gaps.edges) == 86 and gaps.edges[-1] <= 6.0
        # more than MAX_BINS = 2^20 bins are refused: the counts grow with them
        for width in (0.0, -0.05, 1e-6, 5e-324):
            for estimator in (empirical_pair_correlation, nearest_neighbor_spacings):
                with pytest.raises(ValueError, match="bin_width"):
                    estimator(sets, deg, bin_width=width, max_range=6.0)


class TestRealFraction:
    def test_pure_top_mode_is_all_real(self):
        sig = np.zeros(7)
        sig[6] = 2.0
        spec = EnsembleSpec(6, 0, VarianceProfile(sig), 5, 11)
        mean, err = empirical_real_fraction(spec)
        assert mean == 1.0
        assert err == 0.0

    def test_exact_sums_round_once(self):
        # the mean and the squared standard error are those of exact
        # rational arithmetic, each rounded once
        counts = np.random.default_rng(5).integers(0, 61, 1001).astype(np.int32)
        fracs = [Fraction(int(k), 60) for k in counts]
        mean, err = ensemble._real_fraction(counts, 30)
        assert mean == float(statistics.mean(fracs))
        assert err == math.sqrt(float(statistics.variance(fracs) / len(fracs)))
        assert err == pytest.approx(np.std(counts / 60, ddof=1) / math.sqrt(len(counts)),
                                    rel=1e-12)

    def test_memory_does_not_grow_with_the_counts(self):
        counts = np.random.default_rng(6).integers(0, 2049, 10**6).astype(np.int32)
        tracemalloc.start()
        try:
            ensemble._real_fraction(counts, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_needs_two_realizations(self):
        spec = EnsembleSpec.equal_variance(6, 0, 1, 11)
        with pytest.raises(ValueError):
            empirical_real_fraction(spec)


class TestStreaming:
    """The commands' path: each batch is reduced to statistics as it leaves
    the finder, and no list of roots is held."""

    @pytest.mark.parametrize("chunks", [1, 16])
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("N,p", [(64, 0), (256, 20)])
    def test_streamed_counts_are_those_of_the_root_sets(self, N, p, threads, chunks,
                                                       monkeypatch):
        # two full default batches and a partial one, taken in batches of
        # 1 or 16 grid chunks, in one process or three
        M = 2 * ensemble._block_size(N) + 17
        spec = EnsembleSpec.equal_variance(N, p, M, 19)
        sets = real_zero_ensemble(spec)
        edges = ensemble._bin_edges(0.05, 6.0)
        monkeypatch.setattr(ensemble, "_BATCH_CHUNKS", chunks)
        # the pairs at every lag
        stats = ensemble._statistics(spec, threads, edges)
        assert np.array_equal(stats.counts, [len(r) for r in sets])
        pairs = empirical_pair_correlation(sets, N)
        streamed = ensemble._pair_correlation(stats, N, edges)
        assert np.array_equal(streamed.histogram.values, pairs.histogram.values)
        assert streamed.metadata == pairs.metadata
        assert stats.hist.sum() == pairs.metadata["ordered_pairs"] > 0
        # the gaps, lag 1 of the same walk
        stats = ensemble._statistics(spec, threads, edges, lags=1)
        assert np.array_equal(stats.counts, [len(r) for r in sets])
        gaps = gap_ensemble(sets, N)
        assert np.array_equal(stats.hist, np.histogram(gaps, bins=edges)[0])
        assert stats.gap_count == len(gaps)
        assert stats.mean_gap(N) == pytest.approx(gaps.mean(), rel=1e-14)
        assert np.array_equal(ensemble._spacings(stats, edges).values,
                              nearest_neighbor_spacings(sets, N).values)

    def test_memory_does_not_grow_with_the_ensemble(self, monkeypatch):
        # the traced peak of the streamed reduction over 8 batches is within
        # 10% of that over 2: one batch's roots and temporaries, and one
        # count per realization (holding the root sets reads +27%); the
        # 16 MiB the workers free to tune malloc is left out, since it would
        # hide the difference, and a first run takes the one-time allocations
        monkeypatch.setattr(ensemble, "_LIFT_WORDS", 0)
        N = 64
        K = ensemble._block_size(N)
        edges = ensemble._bin_edges(0.05, 6.0)

        def peak(batches):
            spec = EnsembleSpec.equal_variance(N, 0, batches * K, 23)
            tracemalloc.start()
            try:
                ensemble._statistics(spec, 1, edges)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)
        small, large = peak(2), peak(8)
        assert large <= 1.1 * small

    def test_counts_take_four_bytes_a_realization(self):
        # from N = 1024 up a batch is 4 realizations, so at M = 10^7 an
        # array per batch would hold 2.5 million arrays, about 10 times
        # the counts' own bytes
        reduce = ensemble._Reduction(1024)
        k = np.array([3, 4, 5, 6])
        parts = (reduce(np.empty(0), k) for _ in range(25_000))
        tracemalloc.start()
        try:
            counts = reduce.merge(parts).counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counts) == 100_000 and np.array_equal(counts[-4:], k)
        assert peak < 6 * len(counts)

    def test_one_cpu_runs_in_process(self, tmp_path):
        # --threads 2 on a process that may use one CPU starts no worker (a
        # fork would raise), and writes the CSV bytes of --threads 1
        args = ["spacing", "--N", "32", "--p", "2", "--realizations", "600", "--seed", "7"]
        assert main([*args, "--threads", "1", "--out", str(tmp_path / "t1")]) == 0
        code = ("import os, sys\n"
                "os.sched_getaffinity = lambda pid: {0}\n"
                "os.cpu_count = lambda: 1\n"
                "def fork():\n"
                "    raise AssertionError('a worker was forked')\n"
                "os.fork = fork\n"
                "from trigcrystal.cli import main\n"
                f"code = main({[*args, '--threads', '2', '--out', str(tmp_path / 't2')]!r})\n"
                "print(code)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.splitlines()[-1] == "0"
        for name in ("spacing.csv", "spacing_model.csv"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    def test_two_workers_are_forked_directly(self, tmp_path):
        # --threads 2 with two CPUs forks exactly two workers and loads no
        # pool module, and writes the CSV bytes of --threads 1 at an M that
        # splits into runs of unequal length
        M = 600
        assert M % (2 * ensemble._block_size(32))
        args = ["spacing", "--N", "32", "--p", "2", "--realizations", str(M), "--seed", "7"]
        assert main([*args, "--threads", "1", "--out", str(tmp_path / "t1")]) == 0
        code = ("import os, sys\n"
                "from trigcrystal import ensemble\n"
                "from trigcrystal.cli import main\n"
                "ensemble._cpus = lambda: 2\n"
                "forks, fork = [], os.fork\n"
                "def counted():\n"
                "    pid = fork()\n"
                "    if pid:\n"
                "        forks.append(pid)\n"
                "    return pid\n"
                "os.fork = counted\n"
                f"code = main({[*args, '--threads', '2', '--out', str(tmp_path / 't2')]!r})\n"
                "print(code, len(forks), sorted(m for m in ('concurrent.futures', "
                "'multiprocessing') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.splitlines()[-1] == "0 2 []"
        for name in ("spacing.csv", "spacing_model.csv"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    def test_no_fork_runs_in_process(self, monkeypatch):
        # a platform without os.fork counts as one worker
        spec = EnsembleSpec.equal_variance(64, 0, 2 * ensemble._block_size(64) + 17, 19)
        serial = real_zero_ensemble(spec)
        monkeypatch.setattr(ensemble, "_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        sets = real_zero_ensemble(spec, threads=2)
        assert len(sets) == len(serial)
        assert all(np.array_equal(a, b) for a, b in zip(sets, serial))

    def test_cpus_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ensemble._cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert ensemble._cpus() == 6


class TestForkedWorkers:
    """Two forked workers, one of them failing: the failure reaches the
    parent, and no child is left."""

    N = 64

    def spec(self):
        # two runs of whole batches: 2K realizations, then 17
        return EnsembleSpec.equal_variance(self.N, 0, 2 * ensemble._block_size(self.N) + 17, 19)

    @staticmethod
    def fail(monkeypatch, worker, act):
        """Make worker 0 (lo = 0) or 1 (lo > 0) of two call act before its
        work."""
        monkeypatch.setattr(ensemble, "_cpus", lambda: 2)
        work = ensemble._reduce_batches

        def reduce_batches(spec, lo, hi, reduce):
            if (lo > 0) == (worker == 1):
                act()
            return work(spec, lo, hi, reduce)

        monkeypatch.setattr(ensemble, "_reduce_batches", reduce_batches)

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def raise_value_error():
        raise ValueError("no roots in this worker")

    @pytest.mark.parametrize("worker", [1, 0])
    def test_an_exception_is_raised_again(self, monkeypatch, worker, capfd):
        # a failure in the first worker leaves the second running: it is
        # killed and reaped, and prints nothing
        self.fail(monkeypatch, worker, self.raise_value_error)
        with pytest.raises(ValueError, match="no roots in this worker"):
            real_zero_ensemble(self.spec(), threads=2)
        self.assert_no_child()
        assert capfd.readouterr().err == ""

    def test_an_exception_that_cannot_be_pickled(self, monkeypatch):
        class Local(Exception):
            pass

        def act():
            raise Local("defined in a function")

        self.fail(monkeypatch, 1, act)
        with pytest.raises(RuntimeError, match="Local: defined in a function"):
            real_zero_ensemble(self.spec(), threads=2)
        self.assert_no_child()

    @pytest.mark.parametrize("worker", [1, 0])
    def test_a_killed_worker_is_named(self, monkeypatch, worker):
        self.fail(monkeypatch, worker, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match=f"ensemble worker {worker} .* without a result"):
            real_zero_ensemble(self.spec(), threads=2)
        self.assert_no_child()

    def test_the_cli_exits_3(self, monkeypatch, tmp_path, capsys):
        self.fail(monkeypatch, 1, self.raise_value_error)
        args = ["spacing", "--N", "32", "--p", "2", "--realizations", "600", "--threads", "2"]
        assert main([*args, "--out", str(tmp_path)]) == 3
        assert "no roots in this worker" in capsys.readouterr().err
        self.assert_no_child()


class TestScaleInvariance:
    def test_power_of_two_rescaling_is_bitwise_silent(self):
        spec = EnsembleSpec.equal_variance(10, 2, 6, 505)
        base = real_zero_ensemble(spec)
        scaled_spec = EnsembleSpec(10, 2, VarianceProfile(np.full(11, 8.0)), 6, 505)
        scaled = real_zero_ensemble(scaled_spec)
        for a, b in zip(base, scaled):
            assert np.array_equal(a, b)

    def test_generic_rescaling_moves_roots_at_roundoff_only(self):
        spec = EnsembleSpec.equal_variance(10, 2, 6, 505)
        base = real_zero_ensemble(spec)
        scaled_spec = EnsembleSpec(10, 2, VarianceProfile(np.full(11, 7.3)), 6, 505)
        scaled = real_zero_ensemble(scaled_spec)
        for a, b in zip(base, scaled):
            assert len(a) == len(b)
            assert np.max(np.abs(a - b)) < 1e-9


class TestHistogramType:
    def test_edges_values_shape_contract(self):
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0]))

    def test_csv_header(self, tmp_path):
        h = Histogram(np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.75]))
        _write_histogram(_Outputs(str(tmp_path)), "h.csv", h, "h")
        text = (tmp_path / "h.csv").read_text()
        assert text.startswith("bin_left,bin_right,value\n")
        assert "0.5,1.0,0.75" in text
