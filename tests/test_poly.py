"""Construction, sampling, evaluation, and exact differentiation."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigcrystal.poly import (
    EnsembleSpec,
    TrigPolynomial,
    VarianceProfile,
    _coefficient_rows,
    _SERIES_WORDS,
    _coefficients,
    _draws,
    _series_values,
    _value_and_slope,
    derivative_rescaled,
    differentiate,
    evaluate,
    evaluate_rescaled,
    sample,
)
from trigcrystal.ensemble import real_zero_ensemble
from trigcrystal.roots import _noise_floor


def cosine(N):
    a = np.zeros(N + 1)
    a[N] = 1.0
    return TrigPolynomial(N, a, np.zeros(N + 1))


class TestConstruction:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            TrigPolynomial(2, [1.0, 0.0], [0.0, 0.0, 0.0])

    def test_b0_must_vanish(self):
        with pytest.raises(ValueError):
            TrigPolynomial(1, [0.0, 1.0], [0.5, 0.0])

    def test_coefficients_must_be_finite(self):
        with pytest.raises(ValueError):
            TrigPolynomial(1, [np.inf, 1.0], [0.0, 0.0])

    def test_arrays_are_frozen(self):
        f = cosine(3)
        with pytest.raises(ValueError):
            f.cos_coeffs[0] = 1.0

    def test_profile_needs_an_oscillating_mode(self):
        with pytest.raises(ValueError):
            VarianceProfile([1.0, 0.0, 0.0])

    def test_json_roundtrip(self):
        f = TrigPolynomial(2, [0.5, -1.25, 3.0], [0.0, 2.0, -0.125])
        g = TrigPolynomial.from_json(json.loads(json.dumps(f.to_json())))
        assert g.degree == 2
        assert np.array_equal(g.cos_coeffs, f.cos_coeffs)
        assert np.array_equal(g.sin_coeffs, f.sin_coeffs)


class TestSampling:
    def test_zero_variance_modes_are_exactly_zero(self):
        sig = np.zeros(5)
        sig[1] = 1.0
        spec = EnsembleSpec(4, 0, VarianceProfile(sig), 3, 7)
        f = sample(spec, 0)
        assert f.cos_coeffs[0] == 0.0
        assert np.all(f.cos_coeffs[2:] == 0.0)
        assert np.all(f.sin_coeffs[2:] == 0.0)
        assert f.cos_coeffs[1] != 0.0 and f.sin_coeffs[1] != 0.0

    def test_same_index_is_bit_identical(self):
        spec = EnsembleSpec.equal_variance(16, 0, 10, 123456789)
        f, g = sample(spec, 4), sample(spec, 4)
        assert np.array_equal(f.cos_coeffs, g.cos_coeffs)
        assert np.array_equal(f.sin_coeffs, g.sin_coeffs)

    def test_distinct_indices_differ(self):
        spec = EnsembleSpec.equal_variance(16, 0, 10, 123456789)
        assert not np.array_equal(sample(spec, 0).cos_coeffs, sample(spec, 1).cos_coeffs)

    def test_index_out_of_range(self):
        spec = EnsembleSpec.equal_variance(4, 0, 2, 1)
        with pytest.raises(IndexError):
            sample(spec, 2)

    def test_moments_match_profile(self):
        # Monte Carlo moment oracle: mean within 4 sigma/sqrt(M), variance
        # within 10 percent, for mode 2 of an N=4 equal-variance ensemble
        M = 10_000
        spec = EnsembleSpec.equal_variance(4, 0, M, 314159)
        a2 = np.array([sample(spec, i).cos_coeffs[2] for i in range(M)])
        assert abs(a2.mean()) < 4.0 / math.sqrt(M)
        assert abs(a2.var(ddof=1) - 1.0) < 0.10

    def test_draw_is_the_substream_normals_times_sigma(self):
        # the per-realization recipe of the sampler, written out: realization
        # i is 2(N+1) ziggurat normals of substream (master_seed, i)
        N = 9
        prof = VarianceProfile(np.linspace(0.5, 2.0, N + 1))
        spec = EnsembleSpec(N, 0, prof, 20, 2718)
        for i in (0, 7, 19):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=2718, spawn_key=(i,)))
            z = rng.standard_normal(2 * (N + 1))
            a, b = z[: N + 1] * prof.sigmas, z[N + 1:] * prof.sigmas
            b[0] = 0.0
            f = sample(spec, i)
            assert f.cos_coeffs.tobytes() == a.tobytes()
            assert f.sin_coeffs.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 12345,
                                      2**130 + 5])
    def test_batch_seeding_is_one_seed_sequence_per_realization(self, seed):
        # _draws seeds a whole range of substreams at once, yet realization i
        # is the draw of its own SeedSequence(seed, spawn_key=(i,)) through
        # default_rng: across a batch boundary (120 at N=64), for a seed of
        # more than four 32-bit words, across the indices where the spawn key
        # grows to two and three words, and through sample
        N = 5
        spec = EnsembleSpec.equal_variance(N, 0, 2**64 + 1, seed)
        drawn = []
        for lo, hi, rows in ((0, 122, (0, 119, 120, 121)), (2**32 - 1, 2**32 + 1, (0, 1)),
                             (2**64 - 1, 2**64 + 1, (0, 1))):
            a, b = _draws(spec, lo, hi)
            drawn += [(lo + k, np.concatenate([a[k], b[k]])) for k in rows]
        f = sample(spec, 2**32 + 1)
        drawn.append((2**32 + 1, np.concatenate([f.cos_coeffs, f.sin_coeffs])))
        for i, got in drawn:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            z = rng.standard_normal(2 * (N + 1))
            z[N + 1] = 0.0
            assert got.tobytes() == z.tobytes()

    @pytest.mark.parametrize("p", [0, 1, 3, 20])
    def test_block_rows_equal_sample_bit_for_bit(self, p):
        spec = EnsembleSpec.equal_variance(17, p, 12, 4242)
        rows = _coefficient_rows(spec, 3, 12)
        assert rows.shape == (9, 18)
        for k, row in enumerate(rows):
            f = sample(spec, 3 + k)
            f = derivative_rescaled(f, p) if p else f
            assert row.tobytes() == _coefficients(f).tobytes()

    def test_serial_matches_worker_partition(self):
        spec = EnsembleSpec.equal_variance(12, 1, 24, 77)
        serial = real_zero_ensemble(spec, threads=1)
        parallel = real_zero_ensemble(spec, threads=3)
        assert len(serial) == len(parallel) == 24
        for s, q in zip(serial, parallel):
            assert np.array_equal(s, q)


class TestEvaluate:
    def test_cos_at_zero(self):
        f = TrigPolynomial(1, [0.0, 1.0], [0.0, 0.0])
        assert evaluate(f, 0.0) == 1.0

    def test_sin_3x_at_pi_over_6(self):
        f = TrigPolynomial(3, [0.0] * 4, [0.0, 0.0, 0.0, 1.0])
        assert abs(evaluate(f, math.pi / 6) - 1.0) < 1e-15

    def test_matches_extended_precision_sum(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(5)
        f = TrigPolynomial(
            12, rng.standard_normal(13), np.concatenate([[0.0], rng.standard_normal(12)])
        )
        x = 0.7
        exact = mp.mpf(0)
        for n in range(13):
            exact += mp.mpf(f.cos_coeffs[n]) * mp.cos(n * mp.mpf(x))
            exact += mp.mpf(f.sin_coeffs[n]) * mp.sin(n * mp.mpf(x))
        got = evaluate(f, x)
        assert abs(got - float(exact)) <= 1e-12 * abs(float(exact))

    def test_array_input(self):
        f = cosine(4)
        xs = np.linspace(0, 2 * math.pi, 7)
        vals = evaluate(f, xs)
        assert vals.shape == (7,)
        assert np.allclose(vals, np.cos(4 * xs))


def dense_value_and_slope(f, x):
    """Reference: F and F' by direct summation over a full cos/sin table."""
    n = np.arange(f.degree + 1, dtype=float)
    a, b = f.cos_coeffs, f.sin_coeffs
    c, s = np.cos(np.multiply.outer(x, n)), np.sin(np.multiply.outer(x, n))
    return c @ a + s @ b, c @ (n * b) - s @ (n * a)


@st.composite
def sparse_polynomials(draw):
    """Degrees 1..4096; spectra with only the top mode, a few random modes,
    or all modes."""
    N = draw(st.integers(1, 4096))
    kind = draw(st.sampled_from(["top", "few", "all"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = np.zeros(N + 1), np.zeros(N + 1)
    if kind == "top":
        modes = np.array([N])
    elif kind == "few":
        modes = rng.choice(N + 1, size=min(N + 1, 4), replace=False)
    else:
        modes = np.arange(N + 1)
    a[modes] = rng.standard_normal(len(modes))
    b[modes] = rng.standard_normal(len(modes))
    b[0] = 0.0
    return TrigPolynomial(N, a, b)


class TestFactoredEvaluator:
    @staticmethod
    def assert_within_floor(f, x, got, want, fraction, order=0):
        # the floor c0 + c1|x| of F (order 0), or of F' (order 1), whose
        # coefficients are i n c_n, as the root finder's stopping rule
        # assumes for both
        c = _coefficients(f) * (1j * np.arange(f.degree + 1)) ** order
        c0, c1 = _noise_floor(c)
        assert np.all(np.abs(got - want) <= fraction * (c0 + c1 * np.abs(x)))

    @pytest.mark.parametrize("N,p", [(64, 0), (256, 20), (4096, 0), (64, 500)])
    def test_matches_extended_precision_within_the_noise_floor(self, N, p):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        f = sample(EnsembleSpec.equal_variance(N, 0, 1, 29), 0)
        f = derivative_rescaled(f, p) if p else f
        x = np.random.default_rng(N + p).uniform(0.0, 2.0 * math.pi, 40)
        exact = []
        for xi in x:
            z, w = mp.expj(mp.mpf(xi)), mp.mpc(1)
            value = slope = mp.mpf(0)
            for n in range(N + 1):
                c = mp.mpc(float(f.cos_coeffs[n]), -float(f.sin_coeffs[n])) * w
                value += c.real
                slope -= n * c.imag
                w *= z
            exact.append((float(value), float(slope)))
        exact = np.array(exact)
        value, slope = _value_and_slope(f, x)
        self.assert_within_floor(f, x, value, exact[:, 0], 0.25)
        self.assert_within_floor(f, x, slope, exact[:, 1], 0.25, order=1)

    @pytest.mark.parametrize("N", [64, 256, 4096])
    def test_matches_extended_precision_near_zero(self, N):
        # top modes only: near x = 0 the floor's |x| term vanishes, so the
        # rounding of the exponentials themselves must stay inside c0
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        a, b = np.zeros(N + 1), np.zeros(N + 1)
        a[N], a[N - 1], b[N] = 1.0, 0.5, -0.7
        f = TrigPolynomial(N, a, b)
        x = np.array([1e-9, 3e-7, 1e-5, 2e-4, 3e-3])
        exact = []
        for xi in x:
            value = slope = mp.mpf(0)
            for n in (N - 1, N):
                c, s = mp.cos(n * mp.mpf(xi)), mp.sin(n * mp.mpf(xi))
                value += float(a[n]) * c + float(b[n]) * s
                slope += n * (float(b[n]) * c - float(a[n]) * s)
            exact.append((float(value), float(slope)))
        exact = np.array(exact)
        value, slope = _value_and_slope(f, x)
        self.assert_within_floor(f, x, value, exact[:, 0], 0.25)
        self.assert_within_floor(f, x, slope, exact[:, 1], 0.25, order=1)

    @settings(max_examples=150, deadline=None)
    @given(f=sparse_polynomials(),
           x=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20))
    def test_matches_direct_summation(self, f, x):
        x = np.array(x)
        value, slope = _value_and_slope(f, x)
        want_value, want_slope = dense_value_and_slope(f, x)
        self.assert_within_floor(f, x, value, want_value, 1.0)
        self.assert_within_floor(f, x, slope, want_slope, 1.0, order=1)

    def test_rows_of_a_block_match_their_own_polynomials(self):
        # uneven groups, one row without points, the rows interleaved
        N = 40
        fs = [sample(EnsembleSpec.equal_variance(N, 0, 4, 5), i) for i in range(4)]
        c = np.stack([_coefficients(f) for f in fs])
        own = np.random.default_rng(9).permutation(np.repeat([0, 2, 3], [7, 1, 12]))
        x = np.random.default_rng(8).uniform(-7.0, 7.0, len(own))
        value, slope = _series_values(c, own, x)
        for k in (0, 2, 3):
            on = own == k
            want_value, want_slope = dense_value_and_slope(fs[k], x[on])
            self.assert_within_floor(fs[k], x[on], value[on], want_value, 1.0)
            self.assert_within_floor(fs[k], x[on], slope[on], want_slope, 1.0, order=1)

    def test_peak_memory_is_bounded_at_the_largest_degree(self):
        # one row of many points: the results and the row's indices take 3
        # words a point, and the temporaries of each slice of it stay inside
        # the word budget (with room for NumPy's own buffers)
        f = sample(EnsembleSpec.equal_variance(4096, 0, 1, 3), 0)
        x = np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, 20_000)
        tracemalloc.start()
        try:
            value, _ = _value_and_slope(f, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * len(x) + 2 * 8 * _SERIES_WORDS
        # the points span several slices; the last, partial one too
        tail = x[-50:]
        self.assert_within_floor(f, tail, value[-50:], dense_value_and_slope(f, tail)[0], 1.0)

    @pytest.mark.parametrize("N", [1, 10, 64, 256, 1024, 4096])
    def test_a_point_does_not_depend_on_the_others_in_the_call(self, N):
        # 300 points on 15 rows, evaluated whole, again in groups of 1, 7,
        # 30 and 100 points and again in shuffled order: the same values bit
        # for bit, so a root found in a batch of polynomials is the root of
        # its polynomial found alone
        c = _coefficient_rows(EnsembleSpec.equal_variance(N, 0, 15, 3), 0, 15)
        rng = np.random.default_rng(N)
        own = np.sort(rng.integers(0, 15, 300))
        x = rng.uniform(0.0, 2.0 * math.pi, 300)
        whole = np.stack(_series_values(c, own, x))
        for size in (1, 7, 30, 100):
            parts = [np.stack(_series_values(c, own[i:i + size], x[i:i + size]))
                     for i in range(0, 300, size)]
            assert np.array_equal(np.concatenate(parts, axis=1), whole)
        shuffled = rng.permutation(300)
        assert np.array_equal(np.stack(_series_values(c, own[shuffled], x[shuffled])),
                              whole[:, shuffled])


class TestEvaluateRescaled:
    def test_first_zero_of_top_cosine(self):
        f = cosine(6)
        assert abs(evaluate_rescaled(f, 0.5)) < 1e-14

    def test_identity_at_origin(self):
        rng = np.random.default_rng(11)
        f = TrigPolynomial(5, rng.standard_normal(6),
                           np.concatenate([[0.0], rng.standard_normal(5)]))
        assert evaluate_rescaled(f, 0.0) == evaluate(f, 0.0)

    def test_unit_spacing_of_cosine_zeros(self):
        # zeros of cos(Nx) sit at 1/2 + k in the rescaled coordinate
        f = cosine(5)
        ks = np.arange(10)
        assert np.max(np.abs(evaluate_rescaled(f, 0.5 + ks))) < 1e-12


class TestDifferentiate:
    def test_cos_2x_once(self):
        f = TrigPolynomial(2, [0.0, 0.0, 1.0], [0.0] * 3)
        g = differentiate(f, 1)
        assert g.cos_coeffs[2] == 0.0
        assert g.sin_coeffs[2] == -2.0

    def test_four_applications_scale_by_n4(self):
        rng = np.random.default_rng(3)
        f = TrigPolynomial(6, rng.standard_normal(7),
                           np.concatenate([[0.0], rng.standard_normal(6)]))
        g = differentiate(f, 4)
        n4 = np.arange(7.0) ** 4
        assert np.allclose(g.cos_coeffs, n4 * f.cos_coeffs, rtol=1e-14, atol=0.0)
        assert np.allclose(g.sin_coeffs, n4 * f.sin_coeffs, rtol=1e-14, atol=0.0)

    def test_constant_dies(self):
        f = TrigPolynomial(1, [3.0, 0.0], [0.0, 0.0])
        g = differentiate(f, 1)
        assert g.is_zero

    def test_additivity_is_exact(self):
        rng = np.random.default_rng(8)
        f = TrigPolynomial(9, rng.standard_normal(10),
                           np.concatenate([[0.0], rng.standard_normal(9)]))
        lhs = differentiate(f, 5)
        rhs = differentiate(differentiate(f, 2), 3)
        assert np.array_equal(lhs.cos_coeffs, rhs.cos_coeffs)
        assert np.array_equal(lhs.sin_coeffs, rhs.sin_coeffs)

    def test_two_twice_closes_the_four_cycle(self):
        rng = np.random.default_rng(9)
        f = TrigPolynomial(7, rng.standard_normal(8),
                           np.concatenate([[0.0], rng.standard_normal(7)]))
        g = differentiate(differentiate(f, 2), 2)
        n4 = np.arange(8.0) ** 4
        assert np.allclose(g.cos_coeffs, n4 * f.cos_coeffs, rtol=1e-14, atol=0.0)
        assert np.allclose(g.sin_coeffs, n4 * f.sin_coeffs, rtol=1e-14, atol=0.0)

    def test_matches_centered_finite_difference(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(100):
            N = int(rng.integers(1, 12))
            f = TrigPolynomial(N, rng.standard_normal(N + 1),
                               np.concatenate([[0.0], rng.standard_normal(N)]))
            x = float(rng.uniform(0, 2 * math.pi))
            fd = (evaluate(f, x + h) - evaluate(f, x - h)) / (2 * h)
            exact = evaluate(differentiate(f, 1), x)
            scale = max(np.max(np.abs(f.cos_coeffs)), np.max(np.abs(f.sin_coeffs)))
            assert abs(exact - fd) < 1e-5 * N**3 * scale

    def test_rescaled_derivative_matches_exact_up_to_scale(self):
        rng = np.random.default_rng(21)
        f = TrigPolynomial(10, rng.standard_normal(11),
                           np.concatenate([[0.0], rng.standard_normal(10)]))
        for times in (1, 2, 3, 4, 7):
            g = differentiate(f, times)
            h = derivative_rescaled(f, times)
            scale = 10.0**times
            assert np.allclose(h.cos_coeffs, g.cos_coeffs / scale, rtol=1e-13, atol=1e-300)
            assert np.allclose(h.sin_coeffs, g.sin_coeffs / scale, rtol=1e-13, atol=1e-300)

    def test_rescaled_derivative_survives_extreme_order(self):
        f = cosine(256)
        g = derivative_rescaled(f, 500)
        assert np.all(np.isfinite(g.cos_coeffs))
        assert abs(g.cos_coeffs[256]) == 1.0
