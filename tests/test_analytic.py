"""Kac-Rice counts, finite-N pair correlation, and the large-N limit."""

import math

import numpy as np
import pytest

from trigcrystal.analytic import (
    MAX_SEPARATION,
    _moment_terms,
    expected_real_fraction,
    kac_rice_density,
    limit_terms,
    pair_correlation_finite_n,
    pair_correlation_finite_n_rescaled,
    pair_correlation_limit,
    pair_correlation_limit_curve,
    v_p,
)
from trigcrystal.ensemble import empirical_real_fraction, real_zero_ensemble
from trigcrystal.poly import EnsembleSpec, VarianceProfile


class TestKacRice:
    def test_v_p_values(self):
        assert abs(v_p(0) - 1.0 / math.sqrt(3.0)) < 1e-15
        assert abs(v_p(49) - math.sqrt(99.0 / 101.0)) < 1e-15
        assert v_p(10**6) > 1.0 - 1e-6

    def test_v_p_tail_goes_like_one_over_2p(self):
        for p in (100, 1000):
            assert abs((1.0 - v_p(p)) * 2 * p - 1.0) < 2.0 / p

    def test_finite_n_fraction_direct_sum(self):
        # sum of n^2 for n <= 30 is 9455, over 31 modes including n = 0
        assert abs(expected_real_fraction(30, 0) - math.sqrt(9455.0 / 31.0) / 30.0) < 1e-14

    def test_finite_n_headline_value(self):
        got = expected_real_fraction(30, 10)
        assert abs(got - 0.9696) < 1e-4
        assert abs((got - v_p(10)) - 0.014) < 1e-3

    def test_density_of_pure_top_mode(self):
        N = 12
        sig = np.zeros(N + 1)
        sig[N] = 3.0
        assert abs(kac_rice_density(VarianceProfile(sig)) - N / math.pi) < 1e-12

    def test_density_and_fraction_are_one_formula(self):
        for (N, p) in ((10, 0), (30, 10), (64, 3)):
            prof = VarianceProfile.derivative(N, p)
            assert math.isclose(
                kac_rice_density(prof) * math.pi / N,
                expected_real_fraction(N, p),
                rel_tol=1e-15,
            )

    def test_density_matches_monte_carlo(self):
        spec = EnsembleSpec.equal_variance(100, 0, 400, 606)
        mean, err = empirical_real_fraction(spec)
        assert abs(mean - expected_real_fraction(100, 0)) < 3.0 * err

    def test_inputs_structure(self):
        # A2 = 6 modes of unit variance, B2 = sum n^2 over n <= 5 = 55
        assert kac_rice_density(VarianceProfile.equal(5)) == pytest.approx(
            math.sqrt(55.0 / 6.0) / math.pi, rel=1e-15
        )


def finite_n_terms(prof, xs):
    """Rows g3, g4, g5, A, B, C of the finite-N measure (mode n at t = n/N,
    weight sigma_n^2) at rescaled separations xs."""
    N = prof.degree
    return _moment_terms(np.arange(N + 1) / N, prof.sigmas**2, np.asarray(xs, dtype=float))


def finite_n_highprec(N, p, x):
    """Oracle: pair_correlation_finite_n_rescaled from the written-out sums
    over n = 0..N of the profile n^(2p) (1 at p = 0, mode 0 included) in
    50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        tau = mp.pi * mp.mpf(x) / N
        w = [mp.mpf(n) ** (2 * p) if p else mp.mpf(1) for n in range(N + 1)]
        g1 = mp.fsum(w)
        g2 = mp.fsum(n * n * w[n] for n in range(N + 1))
        g3 = mp.fsum(w[n] * mp.cos(n * tau) for n in range(N + 1))
        g4 = mp.fsum(n * w[n] * mp.sin(n * tau) for n in range(N + 1))
        g5 = mp.fsum(n * n * w[n] * mp.cos(n * tau) for n in range(N + 1))
        C = g1 * g1 - g3 * g3
        A = g2 * C - g1 * g4 * g4
        B = g5 * C - g3 * g4 * g4
        r2 = (B * mp.asin(B / A) + mp.sqrt(A * A - B * B)) / C**1.5
        return float(r2 / N**2)


class TestFiniteNPairCorrelation:
    def test_moment_sums_against_direct_loop(self):
        prof = VarianceProfile.derivative(12, 2)
        x = 0.83 * 12 / math.pi
        g3_, g4_, _, _, _, C = finite_n_terms(prof, [x])
        s2 = prof.sigmas**2
        g1 = math.fsum(s2)
        ts = [n / 12 for n in range(1, 13)]
        g3 = sum(s2[n] * math.cos(math.pi * (x * t)) for n, t in enumerate(ts, 1))
        g4 = sum(t * s2[n] * math.sin(math.pi * (x * t)) for n, t in enumerate(ts, 1))
        assert abs(g3_[0] - g3) < 1e-15
        assert abs(g4_[0] - g4) < 1e-15
        assert C[0] == pytest.approx(g1**2 - g3**2, rel=1e-15, abs=0.0)

    def test_c_positive_away_from_origin(self):
        prof = VarianceProfile.equal(20)
        g3, _, _, _, _, C = finite_n_terms(prof, np.linspace(0.05, math.pi, 40) * 20 / math.pi)
        assert np.all(C > 0.0)
        assert np.all(np.abs(g3) < np.sum(prof.sigmas**2))

    def test_arcsin_domain_on_a_grid(self):
        grids = (
            (VarianceProfile.equal(64), np.linspace(0.05, 6.0, 80)),
            (VarianceProfile.derivative(64, 20), np.geomspace(1e-3, 0.5, 60)),
            (VarianceProfile.derivative(64, 500), np.geomspace(1e-3, 0.5, 60)),
        )
        for prof, xs in grids:
            *_, A, B, _ = finite_n_terms(prof, xs)
            assert np.all(np.abs(B) <= A * (1.0 + 1e-12))

    def test_matches_high_precision_sums(self):
        # A and B vanish like x^4: the written-out sums lose 7 digits at
        # x = 0.01 and raise at (64, 500, 0.05); (10, 0) counts mode n = 0;
        # x = 127.99 is 0.01 short of the period 2N
        for N, p, x in ((64, 10, 0.01), (256, 20, 0.01), (64, 10, 1e-3),
                        (64, 500, 0.05), (10, 0, 0.01), (64, 80, 127.99)):
            got = pair_correlation_finite_n_rescaled(VarianceProfile.derivative(N, p), x)
            ref = finite_n_highprec(N, p, x)
            assert abs(got - ref) <= 1e-12 * ref, (N, p, x)

    def test_degenerate_separation_raises(self):
        prof = VarianceProfile.equal(16)
        with pytest.raises(ValueError, match="degenerate"):
            pair_correlation_finite_n(prof, 0.0)

    def test_plateau_near_squared_density(self):
        prof = VarianceProfile.equal(128)
        val = pair_correlation_finite_n_rescaled(prof, 3.5)
        assert abs(val - v_p(0) ** 2) < 0.02

    def test_converges_to_the_limit_curve(self):
        xs = np.linspace(0.2, 4.0, 39)
        lim = pair_correlation_limit_curve(0, xs)
        devs = []
        for N in (16, 32, 64, 128):
            prof = VarianceProfile.equal(N)
            fin = np.array([pair_correlation_finite_n_rescaled(prof, float(x)) for x in xs])
            devs.append(float(np.max(np.abs(fin - lim))))
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < 0.01

    def test_constant_mode_matches_the_sampled_ensemble(self):
        # at p = 0 sample() draws a_0 with sigma_0 = 1, so the curve must sum
        # n = 0..N; without mode 0 this gives max |z| 17 and chi2/dof 120
        N, M, width = 10, 20_000, 0.1
        period = 2.0 * N
        edges = np.round(np.arange(2, 61) * width, 10)
        rootsets = real_zero_ensemble(EnsembleSpec.equal_variance(N, 0, M, 10))
        R = np.full((M, max(len(r) for r in rootsets)), np.nan)
        for i, r in enumerate(rootsets):
            R[i, :len(r)] = r
        # each realization's ordered-pair histogram, normalized like
        # empirical_pair_correlation, so the spread gives standard errors
        per = np.zeros((M, len(edges) - 1))
        for lo in range(0, M, 2000):
            d = np.mod(R[lo:lo + 2000, None, :] - R[lo:lo + 2000, :, None], period)
            row = np.broadcast_to(np.arange(lo, lo + len(d))[:, None, None], d.shape)
            b = np.floor((d - edges[0]) / width)
            ok = np.isfinite(d) & (b >= 0) & (b < len(edges) - 1)
            np.add.at(per, (row[ok], b[ok].astype(int)), 1.0 / (period * width))
        mean = per.mean(axis=0)
        stderr = per.std(axis=0, ddof=1) / math.sqrt(M)
        # the histogram estimates each bin's average: 3-point Gauss rule
        prof = VarianceProfile.equal(N)
        gx, gw = np.polynomial.legendre.leggauss(3)
        curve = np.array([
            sum(w * pair_correlation_finite_n_rescaled(prof, float(a + 0.5 * width * (1 + g)))
                for g, w in zip(gx, gw)) / 2
            for a in edges[:-1]
        ])
        z = (mean - curve) / stderr
        assert np.max(np.abs(z)) < 4.0
        assert np.mean(z * z) < 1.5


def g_limit_integrals_recurrence(p, x):
    """(g3, g4, g5) by the upward integration-by-parts recurrence

        I_k = sin(pi x)/(pi x) - (k/(pi x)) J_{k-1}
        J_k = -cos(pi x)/(pi x) + (k/(pi x)) I_{k-1}

    from I_0 = sin(pi x)/(pi x), J_0 = (1 - cos(pi x))/(pi x), in double
    precision.  The upward sweep amplifies roundoff once k >> pi*x, so it is
    a cross-check for small p only.
    """
    y = math.pi * x
    table_i = [math.sin(y) / y]
    table_j = [(1.0 - math.cos(y)) / y]
    for k in range(1, 2 * p + 3):
        table_i.append(math.sin(y) / y - (k / y) * table_j[k - 1])
        table_j.append(-math.cos(y) / y + (k / y) * table_i[k - 1])
    return table_i[2 * p], table_j[2 * p + 1], table_i[2 * p + 2]


def g_recurrence_highprec(p, x):
    """Oracle: the integration-by-parts recurrence in 60-digit arithmetic,
    where the upward instability is harmless."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        y = mp.pi * mp.mpf(x)
        table_i = [mp.sin(y) / y]
        table_j = [(1 - mp.cos(y)) / y]
        for k in range(1, 2 * p + 3):
            table_i.append(mp.sin(y) / y - (k / y) * table_j[k - 1])
            table_j.append(-mp.cos(y) / y + (k / y) * table_i[k - 1])
        return (float(table_i[2 * p]), float(table_j[2 * p + 1]),
                float(table_i[2 * p + 2]))


class TestLimitIntegrals:
    def test_exact_at_zero_separation(self):
        for p in (0, 3, 40):
            t = limit_terms(p, 0.0)
            assert t.g3 == 1.0 / (2 * p + 1)
            assert t.g4 == 0.0
            assert t.g5 == 1.0 / (2 * p + 3)

    def test_p0_x1_closed_forms(self):
        t = limit_terms(0, 1.0)
        assert abs(t.g3) < 1e-15              # integral of cos(pi t)
        assert abs(t.g4 - 1.0 / math.pi) < 1e-14  # integral of t sin(pi t)

    def test_bounds(self):
        for p in (0, 2, 9):
            for x in (0.3, 1.2, 2.7):
                t = limit_terms(p, x)
                assert abs(t.g3) <= 1.0 / (2 * p + 1) + 1e-15
                assert abs(t.g4) <= 1.0 / (2 * p + 2) + 1e-15
                assert abs(t.g5) <= 1.0 / (2 * p + 3) + 1e-15

    def test_agrees_with_highprec_recurrence(self):
        # the production route must match the independent recurrence oracle
        # to 1e-9 relative across the small-p validation grid
        for p in range(6):
            for x in (0.1, 0.5, 1.0, 2.0, 5.0):
                t = limit_terms(p, x)
                ref = g_recurrence_highprec(p, x)
                for a, b in zip((t.g3, t.g4, t.g5), ref):
                    if abs(b) > 1e-12:
                        assert abs(a - b) <= 1e-9 * abs(b)
                    else:
                        assert abs(a - b) <= 1e-12

    def test_float_recurrence_in_its_stable_window(self):
        # upward recurrence is fine while k is not much larger than pi*x
        for p in (0, 1, 2):
            for x in (2.0, 5.0):
                got = g_limit_integrals_recurrence(p, x)
                ref = g_recurrence_highprec(p, x)
                for a, b in zip(got, ref):
                    assert abs(a - b) <= 1e-9 * max(abs(b), 1e-6)

    def test_agrees_with_highprec_recurrence_either_side_of_x_1_5(self):
        for p in (0, 4, 17):
            for x in (1.499, 1.501):
                t = limit_terms(p, x)
                ref = g_recurrence_highprec(p, x)
                for a, b in zip((t.g3, t.g4, t.g5), ref):
                    assert abs(a - b) <= 1e-9 * max(abs(b), 1e-12)

    def test_large_p_agrees_with_mpmath_quadrature(self):
        mp = pytest.importorskip("mpmath")
        p, x = 80, 2.3
        t = limit_terms(p, x)  # the rule sits on the layer near t = 1
        with mp.workdps(40):
            xm = mp.mpf(x)
            ref = (
                float(mp.quad(lambda t: mp.cos(mp.pi * xm * t) * t ** (2 * p), [0, 1])),
                float(mp.quad(lambda t: mp.sin(mp.pi * xm * t) * t ** (2 * p + 1), [0, 1])),
                float(mp.quad(lambda t: mp.cos(mp.pi * xm * t) * t ** (2 * p + 2), [0, 1])),
            )
        for a, b in zip((t.g3, t.g4, t.g5), ref):
            assert abs(a - b) <= 1e-9 * max(abs(b), 1e-15)


class TestLimitPairCorrelation:
    def test_plateau_is_squared_real_density(self):
        for p in (0, 1, 3):
            # far between peaks the correlation forgets the lattice
            val = pair_correlation_limit(p, 4.5 + 0.5 / (2 * p + 1))
            assert abs(val - v_p(p) ** 2) < 0.08 * v_p(p) ** 2

    def test_nonnegative_everywhere_sampled(self):
        for p in (0, 2, 10):
            for x in np.linspace(0.02, 6.0, 47):
                assert pair_correlation_limit(p, float(x)) >= 0.0

    def test_refuses_unresolvable_separation(self):
        with pytest.raises(ValueError, match="separation"):
            pair_correlation_limit(3, 1e-5)
        with pytest.raises(ValueError, match="separation"):
            pair_correlation_limit(3, MAX_SEPARATION * 1.0001)

    def test_terms_match_structure(self):
        t = limit_terms(5, 0.9)
        assert t.g1 == 1.0 / 11.0
        assert t.g2 == 1.0 / 13.0
        assert t.C == pytest.approx(t.g1**2 - t.g3**2, rel=1e-9, abs=0.0)
        assert t.A == pytest.approx(t.g2 * t.C - t.g1 * t.g4**2, rel=1e-9, abs=0.0)

    def test_small_x_matches_high_precision(self):
        mp = pytest.importorskip("mpmath")

        def r2_mp(p, x):
            with mp.workdps(50):
                xm = mp.mpf(x)
                g1 = mp.mpf(1) / (2 * p + 1)
                g2 = mp.mpf(1) / (2 * p + 3)
                g3 = mp.quad(lambda t: mp.cos(mp.pi * xm * t) * t ** (2 * p), [0, 1])
                g4 = mp.quad(lambda t: mp.sin(mp.pi * xm * t) * t ** (2 * p + 1), [0, 1])
                g5 = mp.quad(lambda t: mp.cos(mp.pi * xm * t) * t ** (2 * p + 2), [0, 1])
                C = g1 * g1 - g3 * g3
                A = g2 * C - g1 * g4 * g4
                B = g5 * C - g3 * g4 * g4
                return float((B * mp.asin(B / A) + mp.sqrt(A * A - B * B)) / C ** mp.mpf(1.5))

        for p, x in ((0, 0.004), (3, 0.01), (10, 0.05), (1, 0.3)):
            assert pair_correlation_limit(p, x) == pytest.approx(r2_mp(p, x), rel=1e-8, abs=0.0)

    def test_curve_helper_matches_scalar(self):
        # points on every rule of the ladder, either side of each cap, in a
        # shuffled order: each value is the scalar's and the sorted curve's
        xs = np.array([0.5, 1.0, 2.5, 12.5, 12.6, 25.0, 30.0, 50.0, 50.1, 99.9])
        shuffled = np.random.default_rng(11).permutation(xs)
        for p in (0, 2, 80):
            by_x = dict(zip(xs, pair_correlation_limit_curve(p, xs)))
            for x, val in zip(shuffled, pair_correlation_limit_curve(p, shuffled)):
                assert val == pair_correlation_limit(p, float(x))
                assert val == by_x[x]

    def test_matches_mpmath_over_the_whole_domain(self):
        # reference: the moment integrals as 1F2 hypergeometric functions at
        # 40 digits; x runs from near MIN_SEPARATION, where A and B vanish
        # like x^4, through the first peak 1 + 1/(2p), and over the top
        # quarter of each rule of the ladder, where it is least accurate, to
        # its cap and just past it.  The values sit at the ~1e-13 rounding
        # floor; rules of pi cap / 4 + 16 nodes miss 1e-12 at caps 50 and 100
        mp = pytest.importorskip("mpmath")

        def r2_mp(p, x):
            with mp.workdps(40):
                y = mp.pi * mp.mpf(x)
                z = -y * y / 4
                k = mp.mpf(2 * p)
                g1, g2 = 1 / (k + 1), 1 / (k + 3)
                g3 = mp.hyp1f2((k + 1) / 2, 0.5, (k + 3) / 2, z) / (k + 1)
                g4 = y / (k + 3) * mp.hyp1f2((k + 3) / 2, 1.5, (k + 5) / 2, z)
                g5 = mp.hyp1f2((k + 3) / 2, 0.5, (k + 5) / 2, z) / (k + 3)
                C = g1 * g1 - g3 * g3
                A = g2 * C - g1 * g4 * g4
                B = g5 * C - g3 * g4 * g4
                return float((B * mp.asin(B / A) + mp.sqrt(A * A - B * B)) / C**1.5)

        top_quarters = np.concatenate([np.linspace(0.75 * cap, cap, 11)
                                       for cap in (12.5, 25.0, 50.0, MAX_SEPARATION)])
        for p in (0, 1, 3, 10, 80, 500):
            peak = 1.0 + 1.0 / (2 * p) if p else 1.5
            xs = np.concatenate([[2e-4, 0.05, 0.3, peak, 2.3, 12.5000001, 25.0000001,
                                  50.0000001], top_quarters])
            for x, got in zip(xs, pair_correlation_limit_curve(p, xs)):
                assert got == pytest.approx(r2_mp(p, x), rel=1e-12, abs=0.0), (p, x)
