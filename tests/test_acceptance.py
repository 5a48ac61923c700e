"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; the printed notes (visible with -s) carry the measured values.

Three checks are marked xfail(strict=True): they pin published reference
constants that exact computation contradicts.  Each has a green companion
test asserting the independently computed value, so the functionality stays
verified while the discrepancy stays visible:

* criterion 6b: p^2 * repulsion slope reaches pi^2/8 only like 1 - 4.5/p,
  which is an 8.4 percent deficit at p = 50, not 2 percent.
* criterion 7: the gap variable u = p(s - 1 - 1/(2p)) carries a
  deterministic centering offset p/(2N) + O(1/p) ~ -0.057 at (p=20, N=256),
  which alone drives the KS distance above the 0.05 bound; after exact
  centering the shape matches to ~0.01.
* criterion 9b: the 3 -> 1 transition of the gap-function derivative is at
  sqrt(2/(pi^2 - 8)) ~ 1.03429 (from f''(1/2) = 4(pi^2 - 8)a^2 - 8 = 0);
  the reference constant 1.06975 = 2/(pi^2 - 8) is its square.
"""

import math
import os

import numpy as np
import pytest

import trigcrystal as tc
from trigcrystal.analytic import limit_terms
from trigcrystal.asymptotics import series_abc, triple_zero_count
from trigcrystal.cli import main as cli_main

SEED = 20260809


def note(msg):
    print(f"  [acceptance] {msg}")


@pytest.fixture(scope="module")
def ensemble_n64_p0():
    spec = tc.EnsembleSpec.equal_variance(64, 0, 10_000, SEED)
    return tc.real_zero_ensemble(spec)


@pytest.fixture(scope="module")
def ensemble_n256_p20():
    spec = tc.EnsembleSpec.equal_variance(256, 20, 2_000, SEED)
    return tc.real_zero_ensemble(spec)


def test_criterion_01_limit_fractions():
    assert abs(tc.v_p(0) - 1.0 / math.sqrt(3.0)) <= 1e-12
    assert tc.v_p(49) >= 0.99
    assert tc.v_p(48) < 0.99
    note(f"v_0={tc.v_p(0):.12f}, v_48={tc.v_p(48):.6f}, v_49={tc.v_p(49):.6f}")


def test_criterion_02_finite_n_kac_rice():
    got = tc.expected_real_fraction(30, 10)
    assert abs(got - 0.9696) <= 1e-4
    excess = got - tc.v_p(10)
    assert abs(excess - 0.014) <= 1e-3
    note(f"fraction(30,10)={got:.6f}, excess over limit={excess:.5f}")


@pytest.mark.parametrize("p", [0, 4])
def test_criterion_03_monte_carlo_vs_kac_rice(p):
    spec = tc.EnsembleSpec.equal_variance(100, p, 2_000, 42)
    mean, err = tc.empirical_real_fraction(spec)
    target = tc.expected_real_fraction(100, p)
    if p == 4:
        assert target > 0.90
    assert abs(mean - target) <= 3.0 * err
    note(f"p={p}: mc={mean:.5f}+-{err:.5f} vs formula={target:.5f} "
         f"(|z|={abs(mean - target) / err:.2f})")


def test_criterion_04_empirical_vs_analytic_pair_correlation(ensemble_n64_p0):
    est = tc.empirical_pair_correlation(ensemble_n64_p0, 64,
                                        bin_width=0.05, max_range=6.0)
    h = est.histogram
    centers = h.centers
    sel = (centers >= 0.2) & (centers <= 4.0)
    curve = tc.pair_correlation_limit_curve(0, centers[sel])
    maxdev = float(np.max(np.abs(h.values[sel] - curve)))
    assert maxdev < 0.02
    plateau = float(np.mean(h.values[(centers >= 2.0) & (centers <= 6.0)]))
    assert abs(plateau - 1.0 / 3.0) < 0.05 / 3.0
    note(f"max|emp-analytic| on [0.2,4] = {maxdev:.4f}; plateau = {plateau:.4f} "
         f"(target 1/3)")


def test_criterion_05_peak_profile_convergence():
    us = np.linspace(-3.0, 3.0, 121)
    target = (1.0 + 4.0 * us * us) ** -1.5
    devs = []
    for p in (10, 20, 40, 80):
        vals = np.array(
            [tc.pair_correlation_limit(p, 1.0 + 1.0 / (2 * p) + u / p) / p for u in us]
        )
        devs.append(float(np.max(np.abs(vals - target))))
    ratios = [b / a for a, b in zip(devs, devs[1:])]
    assert all(0.35 <= r <= 0.65 for r in ratios)
    note(f"max deviations {['%.4f' % d for d in devs]}, ratios "
         f"{['%.3f' % r for r in ratios]}")


def _fd_slope(p, h=1e-3):
    # Richardson-extrapolated finite-difference slope at x ~ 1e-3; the h/2
    # combination removes the first correction term
    s_h = tc.pair_correlation_limit(p, h) / h
    s_h2 = tc.pair_correlation_limit(p, h / 2) / (h / 2)
    return 2.0 * s_h2 - s_h


def test_criterion_06a_repulsion_slope_closed_form():
    worst = 0.0
    for p in (0, 1, 3, 10):
        fd = _fd_slope(p)
        formula = tc.repulsion_slope(p)
        rel = abs(fd - formula) / formula
        worst = max(worst, rel)
        assert rel <= 1e-4
    note(f"worst relative slope error over p in (0,1,3,10): {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="exact value: p^2*slope*8/pi^2 = 1 - 4.5/p + O(1/p^2), an 8.4% "
    "deficit at p=50; the 2% band is reached only near p ~ 225",
)
def test_criterion_06b_large_p_slope_constant_at_p50():
    ratio = _fd_slope(50) * 50**2 * 8.0 / math.pi**2
    assert abs(ratio - 1.0) <= 0.02


def test_criterion_06b_companion_large_p_slope_convergence():
    # the honest convergence statement behind criterion 6b
    for p in (50, 100):
        ratio = tc.repulsion_slope(p) * p * p * 8.0 / math.pi**2
        assert ratio == pytest.approx(1.0 - 4.5 / p, abs=0.01)
    ratio250 = tc.repulsion_slope(250) * 250**2 * 8.0 / math.pi**2
    assert abs(ratio250 - 1.0) <= 0.02
    note(f"p^2*slope*8/pi^2 at p=50: {tc.repulsion_slope(50) * 2e4 / math.pi ** 2:.4f}, "
         f"at p=250: {ratio250:.4f}")


def _gap_ks(rootsets, degree, p, center):
    gaps = tc.gap_ensemble(rootsets, degree)
    u = np.sort(p * (gaps - center))
    n = len(u)
    cdf = tc.nn_cdf(u)
    return (
        max(float(np.max(np.arange(1, n + 1) / n - cdf)),
            float(np.max(cdf - np.arange(0, n) / n))),
        float(u.mean()),
    )


@pytest.mark.xfail(
    strict=True,
    reason="the pinned centering 1 + 1/(2p) misses the exact mean gap by "
    "p/(2N) + O(1/p) ~ 0.057 in u at (p=20, N=256); that deterministic "
    "shift alone pushes KS to ~0.06",
)
def test_criterion_07_nearest_neighbor_law(ensemble_n256_p20):
    ks, _ = _gap_ks(ensemble_n256_p20, 256, 20, 1.0 + 1.0 / 40.0)
    assert ks < 0.05


def test_criterion_07_companion_shape_after_exact_centering(ensemble_n256_p20):
    from scipy.integrate import quad

    mass, _ = quad(tc.nn_density, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
    assert abs(mass - 1.0) <= 1e-10
    p, N = 20, 256
    exact_center = 1.0 / tc.expected_real_fraction(N, p)
    ks, mean_u = _gap_ks(ensemble_n256_p20, N, p, exact_center)
    assert ks < 0.03
    # the raw offset of the pinned centering matches the prediction
    _, raw_mean = _gap_ks(ensemble_n256_p20, N, p, 1.0 + 1.0 / (2 * p))
    predicted = p * (exact_center - (1.0 + 1.0 / (2 * p)))
    assert abs(raw_mean - predicted) < 0.01
    note(f"KS after exact centering = {ks:.4f}; raw centering offset "
         f"{raw_mean:.4f} vs predicted {predicted:.4f}")


def test_criterion_08_root_finder_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(4, 41))
        p = int(rng.integers(0, 9))
        spec = tc.EnsembleSpec.equal_variance(N, 0, 1, int(rng.integers(1, 2**62)))
        f = tc.sample(spec, 0)
        if p:
            f = tc.derivative_rescaled(f, p)
        a = tc.real_roots_sampled(f)
        b = tc.all_roots_companion(f)
        assert a.real_count == b.real_count
        if a.real_count:
            worst = max(worst, float(np.max(np.abs(a.real_roots - b.real_roots))))
    assert worst < 1e-8
    note(f"100 instances: counts identical, worst position gap {worst:.2e}")


def test_criterion_09a_derivative_zero_counts():
    assert triple_zero_count(0.92) == 3
    assert triple_zero_count(1.1) == 1
    note("a=0.92 -> 3 derivative zeros in (0,1); a=1.1 -> 1")


@pytest.mark.xfail(
    strict=True,
    reason="the transition sits at sqrt(2/(pi^2-8)) ~ 1.034285 (pitchfork "
    "f''(1/2) = 4(pi^2-8)a^2 - 8 = 0); the reference value 1.06975 = "
    "2/(pi^2-8) equals its square",
)
def test_criterion_09b_transition_at_published_constant():
    thr = tc.triple_zero_threshold(0.9, 1.2, tol=1e-6)
    assert abs(thr - 2.0 / (math.pi**2 - 8.0)) <= 1e-4


def test_criterion_09b_companion_transition_at_exact_constant():
    thr = tc.triple_zero_threshold(0.9, 1.2, tol=1e-6)
    assert abs(thr - math.sqrt(2.0 / (math.pi**2 - 8.0))) <= 1e-4
    note(f"bisection transition at a = {thr:.6f} "
         f"(exact pitchfork {math.sqrt(2.0 / (math.pi ** 2 - 8.0)):.6f})")


def test_criterion_10_series_validation():
    errs = {}
    for p in (100, 1000):
        quad_c = limit_terms(p, 0.7).C
        series_c = series_abc(p, 0.7)[2]
        errs[p] = abs(series_c - quad_c) / abs(quad_c)
    assert errs[100] < 1e-4
    assert errs[1000] <= errs[100] / 10.0
    peak = tc.peak_location(1, 10)
    assert abs(peak - 1.05) <= 5.0 / 10**2
    note(f"C series rel err: {errs[100]:.2e} (p=100) -> {errs[1000]:.2e} "
         f"(p=1000); peak_location(1,10) = {peak:.6f}")


def test_criterion_11_thread_count_determinism(tmp_path):
    base = ["paircorr", "--N", "32", "--p", "1", "--mode", "empirical",
            "--realizations", "300", "--seed", str(SEED), "--bins", "0.05"]
    outs = {}
    for threads in (1, 4):
        d = tmp_path / f"t{threads}"
        assert cli_main(base + ["--threads", str(threads), "--out", str(d)]) == 0
        outs[threads] = (d / "paircorr_empirical.csv").read_bytes()
    assert outs[1] == outs[4]
    base2 = ["fraction", "--N", "32", "--p", "1", "--mode", "empirical",
             "--realizations", "200", "--seed", str(SEED)]
    frs = {}
    for threads in (1, 3):
        d = tmp_path / f"f{threads}"
        assert cli_main(base2 + ["--threads", str(threads), "--out", str(d)]) == 0
        frs[threads] = (d / "fraction.csv").read_bytes()
    assert frs[1] == frs[3]
    note("empirical CSV bytes identical across thread counts")
