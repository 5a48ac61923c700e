"""Large-order expansions, peak structure, repulsion, and the triple-zero
mechanism behind close pairs."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from trigcrystal import asymptotics
from trigcrystal.analytic import limit_terms, pair_correlation_limit, v_p
from trigcrystal.asymptotics import (
    TRIPLE_ZERO_CRITICAL,
    gap_function,
    gap_function_derivative,
    new_real_fraction,
    nn_cdf,
    nn_density,
    peak_location,
    repulsion_expansion,
    repulsion_slope,
    series_abc,
    theorem_profile,
    triple_zero_count,
    triple_zero_demo,
    triple_zero_threshold,
)
from trigcrystal.cli import main as cli_main


class TestSeriesABC:
    def test_c_leading_term_at_half(self):
        # at x = 1/2 the head of the C expansion is p^-2/4
        p = 400
        _, _, C = series_abc(p, 0.5)
        y = math.pi / 2
        expected = (
            0.25 * p**-2
            - 0.25 * (y * math.cos(y) + math.sin(y)) * math.sin(y) * p**-3
            + (y * y + 8 * math.sin(2 * y) * y + 3 * (y * y - 1) * math.cos(2 * y) + 3)
            / 32 * p**-4
        )
        assert C == pytest.approx(expected, rel=1e-15, abs=0.0)
        # head 1/4, depleted by the p^-3 term which is exactly -1/(4p) here
        assert C * p * p == pytest.approx(0.25 - 0.25 / p, rel=1e-4, abs=0.0)

    def test_c_collapses_at_integer_separations(self):
        # sin(pi x) = 0 kills the p^-2 and p^-3 terms, leaving C ~ p^-4 and
        # hence C^(3/2) ~ p^-6
        p = 50
        for x in (1.0, 2.0):
            _, _, C = series_abc(p, x)
            assert C == pytest.approx((math.pi * x) ** 2 / 8 * p**-4, rel=1e-10, abs=0.0)
            assert C**1.5 == pytest.approx(((math.pi * x) ** 2 / 8) ** 1.5 * p**-6,
                                           rel=1e-9, abs=0.0)

    def test_c_series_converges_to_quadrature(self):
        x = 0.7
        errs = {}
        for p in (100, 1000):
            Cq = limit_terms(p, x).C
            Cs = series_abc(p, x)[2]
            errs[p] = abs(Cs - Cq) / abs(Cq)
        assert errs[100] < 1e-4
        assert errs[1000] < errs[100] / 10.0

    def test_ab_leading_terms_at_integer_x(self):
        # at x = n the A and B heads equal +-pi^2 n^2/32 p^-5 and match the
        # quadrature-built values with an O(1/p) relative remainder
        p = 200
        Aq = limit_terms(p, 1.0).A
        As, Bs, _ = series_abc(p, 1.0)
        assert As == pytest.approx(math.pi**2 / 32 * p**-5, rel=1e-12, abs=0.0)
        assert Bs == pytest.approx(-math.pi**2 / 32 * p**-5, rel=1e-9, abs=0.0)
        assert Aq == pytest.approx(As, rel=0.05, abs=0.0)

    def test_ab_display_terms_are_not_quantitative_between_peaks(self):
        # constraint check: away from integer x the displayed A, B heads do
        # not track the true asymptotics (C does); guards the docstring
        p = 1000
        t = limit_terms(p, 0.7)
        As, Bs, Cs = series_abc(p, 0.7)
        assert abs(Cs - t.C) / abs(t.C) < 1e-6
        assert abs(As - t.A) / abs(t.A) > 0.5
        assert abs(Bs - t.B) / abs(t.B) > 0.5

    def test_needs_p_at_least_two(self):
        with pytest.raises(ValueError):
            series_abc(1, 0.5)


class TestPeakLocation:
    def test_residual_of_the_peak_equation(self):
        for (n, p) in ((1, 10), (1, 40), (2, 20), (3, 7)):
            x = peak_location(n, p)
            assert abs(math.tan(2 * math.pi * x) - math.pi * x / p) < 1e-10

    def test_fixed_point_to_rounding_where_n_is_large_against_p(self):
        # near n + 1/4 the tan form's residual is ill-conditioned; the
        # branch's fixed-point form x = n + atan(pi x / p) / (2 pi) is not
        for n in (1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000):
            for p in (2, 3, 5, 10, 20, 50, 100, 200, 500):
                x = peak_location(n, p)
                assert n < x < n + 0.25
                residual = x - n - math.atan(math.pi * x / p) / (2 * math.pi)
                assert abs(residual) <= 4 * math.ulp(x)

    def test_first_peak_near_shifted_integer(self):
        x = peak_location(1, 10)
        assert abs(x - 1.05) < 5.0 / 10**2

    def test_limit_is_the_integer(self):
        assert abs(peak_location(1, 10**6) - 1.0) < 1e-5
        assert abs(peak_location(4, 10**6) - 4.0) < 1e-4

    def test_against_dense_scan_of_quadrature_c(self):
        # the C minimum (dense scan of the quadrature route) and the peak
        # equation agree to O(n/p^2); the gap shrinks with p
        for (n, p, bound) in ((1, 20, 2.5 / 20**2), (1, 40, 2.5 / 40**2)):
            xs = np.linspace(n - 0.2, n + 0.2, 8001)
            cs = np.array([limit_terms(p, float(x)).C for x in xs])
            scan = float(xs[np.argmin(cs)])
            assert abs(peak_location(n, p) - scan) < bound


class TestPeakProfile:
    def test_height_and_center(self):
        # height p/n at u = 0; the zoom centre n(1 + 1/(2p)) is the root of
        # the peak equation up to O(n/p^2)
        assert theorem_profile(2, 10, 0.0) == 5.0
        assert theorem_profile(3, 7, 0.0) == 7 / 3
        for n, p in ((1, 100), (2, 100), (2, 1000), (3, 1000)):
            assert abs(peak_location(n, p) - n * (1.0 + 1.0 / (2.0 * p))) < n / p**2

    def test_even_in_u(self):
        us = np.linspace(0.0, 3.0, 10)
        assert np.array_equal(theorem_profile(1, 7, us), theorem_profile(1, 7, -us))

    def test_unit_mass_as_a_peak_in_x(self):
        # integrating over x = n(1 + 1/(2p) + u/p) gives (n/p) * integral in u
        n, p = 3, 9
        mass, _ = quad(lambda u: theorem_profile(n, p, u) * (n / p), -np.inf, np.inf,
                       epsabs=1e-12, epsrel=1e-12)
        assert abs(mass - 1.0) < 1e-10

    def test_profile_value_is_scaled_nn_density(self):
        us = np.linspace(-2, 2, 21)
        assert np.allclose(theorem_profile(2, 6, us), 3.0 * nn_density(us), rtol=1e-15)


class TestSpacingLaw:
    def test_peak_value(self):
        assert nn_density(0.0) == 1.0

    def test_unit_mass(self):
        mass, _ = quad(nn_density, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
        assert abs(mass - 1.0) < 1e-10

    def test_cdf_is_the_antiderivative(self):
        for u in (-1.7, -0.3, 0.0, 0.4, 2.2):
            num, _ = quad(nn_density, -np.inf, u, epsabs=1e-12, epsrel=1e-12)
            assert abs(nn_cdf(u) - num) < 1e-10

    def test_tails_are_far_from_gaussian(self):
        # Gaussian with the same peak and curvature at zero is exp(-6u^2)
        ratio = nn_density(2.0) / math.exp(-6.0 * 4.0)
        assert ratio > 10.0

    def test_delta_profile_sharpens_like_one_over_p(self):
        us = np.linspace(-3.0, 3.0, 121)
        target = nn_density(us)
        prev = None
        for p in (10, 20, 40):
            vals = np.array(
                [pair_correlation_limit(p, 1.0 + 1.0 / (2 * p) + u / p) / p for u in us]
            )
            dev = float(np.max(np.abs(vals - target)))
            if prev is not None:
                assert 0.35 < dev / prev < 0.65
            prev = dev

    def test_between_peaks_the_correlation_dies(self):
        vals = [pair_correlation_limit(p, 0.5) for p in (10, 20, 40, 80)]
        assert vals == sorted(vals, reverse=True)


class TestRepulsion:
    def test_slope_at_p0(self):
        assert repulsion_slope(0) == pytest.approx(math.pi**2 * math.sqrt(3) / 90,
                                                   rel=1e-14, abs=0.0)

    def test_slope_matches_limit_formula(self):
        for p in (0, 1, 3, 10):
            x = 0.002
            assert repulsion_slope(p) * x == pytest.approx(
                pair_correlation_limit(p, x), rel=2e-3, abs=0.0
            )

    def test_linear_term_tracks_limit_at_x005(self):
        # the linear law alone is within 1 percent at x = 0.05
        p = 3
        lim = pair_correlation_limit(p, 0.05)
        assert abs(repulsion_slope(p) * 0.05 - lim) / lim < 1e-2

    def test_cubic_term_tracks_limit_formula(self):
        # linear + cubic against the limit formula; the old quadratic term
        # was off by 5e-2 to 9e-2 at x = 0.05
        for p in (0, 1, 3, 10, 50):
            for x, tol in ((0.05, 1e-4), (0.2, 1e-2)):
                lim = pair_correlation_limit(p, x)
                assert abs(repulsion_expansion(p, x) - lim) <= tol * lim

    def test_large_p_slope_constant(self):
        # p^2 * slope -> pi^2/8 with a 4.5/p relative deficit
        for p in (50, 100):
            ratio = repulsion_slope(p) * p * p * 8.0 / math.pi**2
            assert ratio == pytest.approx(1.0 - 4.5 / p, abs=0.01)
        assert repulsion_slope(250) * 250**2 * 8.0 / math.pi**2 > 0.98

    def test_domain_window(self):
        with pytest.raises(ValueError, match="domain"):
            repulsion_expansion(2, 0.25)


class TestNewRealZeros:
    def test_first_order_value(self):
        assert new_real_fraction(1) == pytest.approx(
            math.sqrt(3.0 / 5.0) - math.sqrt(1.0 / 3.0), rel=1e-14, abs=0.0
        )
        assert abs(new_real_fraction(1) - 0.1972) < 1e-4

    def test_positive_and_decreasing(self):
        vals = [new_real_fraction(p) for p in range(1, 60)]
        assert all(v > 0 for v in vals)
        assert vals == sorted(vals, reverse=True)

    def test_arrival_rate_matches_one_over_2p2(self):
        assert 2.0 * 50**2 * new_real_fraction(50) == pytest.approx(1.0, abs=0.05)

    def test_consistency_with_v_p(self):
        for p in (1, 4, 9):
            assert new_real_fraction(p) == pytest.approx(v_p(p) - v_p(p - 1),
                                                         rel=1e-15, abs=0.0)


class TestTripleZero:
    def test_zero_set_of_the_gap_function(self):
        a = 0.97
        for k in (-3, -2, -1, 2, 3, 4):
            assert abs(gap_function(float(k), a)) < 1e-12
        assert gap_function(0.0, a) == pytest.approx(-math.pi * (0.25 + a * a),
                                                     rel=1e-15, abs=0.0)
        assert gap_function(1.0, a) == pytest.approx(-math.pi * (0.25 + a * a),
                                                     rel=1e-15, abs=0.0)
        # the bridged pair keeps the function single signed inside (0, 1)
        xs = np.linspace(0.01, 0.99, 99)
        assert np.all(gap_function(xs, a) < 0)

    def test_symmetry_about_the_gap_midpoint(self):
        xs = np.linspace(-0.4, 1.4, 181)
        a = 1.02
        assert np.allclose(gap_function(xs, a), gap_function(1.0 - xs, a),
                           rtol=1e-10, atol=1e-12)

    def test_derivative_by_finite_differences(self):
        a, h = 0.95, 1e-6
        for x in (-0.2, 0.13, 0.5, 0.77, 1.31):
            fd = (gap_function(x + h, a) - gap_function(x - h, a)) / (2 * h)
            assert gap_function_derivative(x, a) == pytest.approx(fd, abs=5e-9)

    def test_derivative_endpoint_limits(self):
        a = 1.3
        assert gap_function_derivative(0.0, a) == math.pi * (0.75 - a * a)
        assert gap_function_derivative(1.0, a) == -math.pi * (0.75 - a * a)

    def test_counts_on_both_sides_of_the_transition(self, monkeypatch):
        assert triple_zero_count(0.92) == 3
        assert triple_zero_count(1.1) == 1
        # grid refinement does not change the verdicts
        monkeypatch.setattr(asymptotics, "TRIPLE_ZERO_POINTS", 32001)
        assert triple_zero_count(0.92) == 3
        assert triple_zero_count(1.1) == 1

    def test_threshold_matches_the_pitchfork_constant(self):
        thr = triple_zero_threshold(tol=1e-7)
        assert abs(thr - TRIPLE_ZERO_CRITICAL) < 1e-4
        assert TRIPLE_ZERO_CRITICAL == pytest.approx(
            math.sqrt(2.0 / (math.pi**2 - 8.0)), rel=1e-15, abs=0.0
        )

    def test_demo_payload(self, tmp_path, capsys):
        demo = triple_zero_demo(0.92)
        assert demo.derivative_zero_count == 3
        assert demo.x[0] == -0.25 and demo.x[-1] == 1.25
        assert len(demo.x) == len(demo.f) == len(demo.fprime)
        assert cli_main(["demo-triple-zero", "--a", "0.92", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        text = (tmp_path / "triple_zero.csv").read_text()
        assert text.startswith("x,f,fprime\n")
        assert len(text.strip().split("\n")) == len(demo.x) + 1

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            gap_function(0.3, 0.0)

    def test_rejects_a_above_the_bound(self):
        # the derivative overflows from about a = 1e152, and at 1e154 the
        # demo's table is all -inf and nan; the bound keeps a far below that
        demo = triple_zero_demo(asymptotics.GAP_A_MAX)
        assert demo.derivative_zero_count == 1
        assert np.all(np.isfinite(demo.f)) and np.all(np.isfinite(demo.fprime))
        for fn in (triple_zero_demo, triple_zero_count):
            with pytest.raises(ValueError, match="a must be in"):
                fn(1e300)
