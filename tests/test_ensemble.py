"""Empirical zero statistics on the rescaled circle."""

import math

import numpy as np
import pytest

from trigcrystal import ensemble
from trigcrystal.cli import _Outputs, _write_histogram
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
        # one realization per run, as a loop over the realizations takes
        # them, against the whole ensemble in one run; some hold 0 or 1 roots
        rng = np.random.default_rng(5)
        deg = 20
        sets = [np.sort(rng.uniform(0, 2 * deg, n)) for n in rng.integers(0, 40, 60)]
        whole = empirical_pair_correlation(sets, deg, bin_width=0.1, max_range=6.0)
        monkeypatch.setattr(ensemble, "_PAIR_ROOTS", 2 * deg)
        apart = empirical_pair_correlation(sets, deg, bin_width=0.1, max_range=6.0)
        assert np.array_equal(whole.histogram.values, apart.histogram.values)
        assert whole.metadata["ordered_pairs"] == apart.metadata["ordered_pairs"] > 0

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
        assert abs(float(np.sum(hist.values * hist.widths)) - 1.0) < 1e-12

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

    def test_both_estimators_share_one_bin_edge_rule(self):
        # 6 / 0.07 = 85.7 bins: both histograms end at 85 * 0.07 = 5.95, never
        # past max_range
        deg, sets = 6, [unit_lattice(6)]
        pair = empirical_pair_correlation(sets, deg, bin_width=0.07, max_range=6.0)
        gaps = nearest_neighbor_spacings(sets, deg, bin_width=0.07, max_range=6.0)
        assert np.array_equal(pair.histogram.edges, gaps.edges)
        assert len(gaps.edges) == 86 and gaps.edges[-1] <= 6.0
        for width in (0.0, -0.05):
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

    def test_needs_two_realizations(self):
        spec = EnsembleSpec.equal_variance(6, 0, 1, 11)
        with pytest.raises(ValueError):
            empirical_real_fraction(spec)


class TestScaleInvariance:
    def test_power_of_two_rescaling_is_bitwise_silent(self):
        spec = EnsembleSpec.equal_variance(10, 2, 6, 505)
        base = real_zero_ensemble(spec)
        scaled_spec = EnsembleSpec.equal_variance(10, 2, 6, 505, sigma=8.0)
        scaled = real_zero_ensemble(scaled_spec)
        for a, b in zip(base, scaled):
            assert np.array_equal(a, b)

    def test_generic_rescaling_moves_roots_at_roundoff_only(self):
        spec = EnsembleSpec.equal_variance(10, 2, 6, 505)
        base = real_zero_ensemble(spec)
        scaled_spec = EnsembleSpec.equal_variance(10, 2, 6, 505, sigma=7.3)
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
