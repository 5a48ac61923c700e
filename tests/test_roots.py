"""Root finding: dense-sampling vs companion-matrix cross-validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigcrystal import roots as roots_module
from trigcrystal.ensemble import _block_size, real_zero_ensemble
from trigcrystal.poly import (
    EnsembleSpec,
    TrigPolynomial,
    _coefficients,
    derivative_rescaled,
    differentiate,
    evaluate,
    sample,
)
from trigcrystal.roots import (
    _dip_candidates,
    _grid_values,
    _real_roots_block,
    _screen,
    _series,
    all_roots_companion,
    real_roots_sampled,
)


def cosine(N):
    a = np.zeros(N + 1)
    a[N] = 1.0
    return TrigPolynomial(N, a, np.zeros(N + 1))


def random_derivative(N, p, seed):
    spec = EnsembleSpec.equal_variance(N, 0, 1, seed)
    f = sample(spec, 0)
    return derivative_rescaled(f, p) if p else f


class TestSampled:
    def test_cos_8x_roots(self):
        rs = real_roots_sampled(cosine(8))
        assert rs.real_count == 16
        expected = math.pi / 16 + np.arange(16) * math.pi / 8
        assert np.max(np.abs(rs.real_roots - expected)) < 1e-10

    def test_sin_x_roots(self):
        f = TrigPolynomial(1, [0.0, 0.0], [0.0, 1.0])
        rs = real_roots_sampled(f)
        assert rs.real_count == 2
        assert abs(rs.real_roots[0] - 0.0) < 1e-10
        assert abs(rs.real_roots[1] - math.pi) < 1e-10

    def test_no_real_roots(self):
        f = TrigPolynomial(1, [2.0, 1.0], [0.0, 0.0])  # 2 + cos x
        rs = real_roots_sampled(f)
        assert rs.real_count == 0
        assert rs.real_count / (2 * 1) == 0.0

    def test_zero_polynomial_is_degenerate(self):
        f = TrigPolynomial(2, [0.0] * 3, [0.0] * 3)
        with pytest.raises(ValueError, match="degenerate"):
            real_roots_sampled(f)

    def test_near_tangent_pairs_are_recovered(self):
        # cos(8x) + (1 - eps) dips just below zero at eight minima; each dip
        # hides a close root pair with no grid sign change
        cases = []
        for eps in (1e-3, 1e-5, 1e-9, 1e-11):
            a = np.zeros(9)
            a[0] = 1.0 - eps
            a[8] = 1.0
            cases.append((TrigPolynomial(8, a, np.zeros(9)), 16, 1e-8))
        # a sampled realization whose pair a 5x grid loses: F' has two zeros
        # between the grid points either side of its dip
        spec = EnsembleSpec.equal_variance(16, 3, 3292, 7)
        cases.append((derivative_rescaled(sample(spec, 3291), 3), 32, 1e-12))
        for f, count, gap in cases:
            rs = real_roots_sampled(f)
            rc = all_roots_companion(f)
            assert rs.real_count == rc.real_count == count
            assert np.max(np.abs(rs.real_roots - rc.real_roots)) < gap

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_tangent_dips_above_zero_have_no_roots(self, eps):
        # cos(8x) + 1 + eps stays above zero by eps at eight grid-point
        # minima; the dip screen's margin is 3e-6 here, so the dips at
        # eps <= 1e-6 reach Newton on F' and must still not flip
        a = np.zeros(9)
        a[0], a[8] = 1.0 + eps, 1.0
        f = TrigPolynomial(8, a, np.zeros(9))
        assert real_roots_sampled(f).real_count == all_roots_companion(f).real_count == 0


class TestCompanion:
    def test_cos_Nx_is_all_real(self):
        N = 9
        rc = all_roots_companion(cosine(N))
        assert rc.real_count == 2 * N
        assert len(rc.complex_roots) == 0
        assert rc.real_count / (2 * N) == 1.0

    def test_total_count_is_2N(self):
        for seed in range(5):
            N = 11
            f = random_derivative(N, 0, 1000 + seed)
            rc = all_roots_companion(f)
            assert rc.real_count + len(rc.complex_roots) == 2 * N

    def test_complex_roots_conjugate_symmetric(self):
        f = random_derivative(14, 0, 4242)
        rc = all_roots_companion(f)
        z = np.array(sorted(rc.complex_roots, key=lambda w: (round(w.real, 9), w.imag)))
        assert len(z) % 2 == 0
        for k in range(0, len(z), 2):
            assert abs(z[k] - np.conj(z[k + 1])) < 1e-10

    def test_degree_deficient_rejected(self):
        f = TrigPolynomial(3, [0.0, 1.0, 0.0, 0.0], [0.0] * 4)
        with pytest.raises(ValueError, match="degree deficient"):
            all_roots_companion(f)

    def test_classify_tol_insensitive(self):
        counts = {}
        for tol in (1e-10, 1e-8, 1e-6):
            total = 0
            for seed in range(20):
                f = random_derivative(10, 2, 31337 + seed)
                total += all_roots_companion(f, classify_tol=tol).real_count
            counts[tol] = total
        assert counts[1e-10] == counts[1e-8] == counts[1e-6]


class TestCrossValidation:
    def test_methods_agree_on_random_ensembles(self):
        rng = np.random.default_rng(2718)
        for _ in range(40):
            N = int(rng.integers(4, 21))
            p = int(rng.integers(0, 11))
            f = random_derivative(N, p, int(rng.integers(1, 2**31)))
            a = real_roots_sampled(f)
            b = all_roots_companion(f)
            assert a.real_count == b.real_count
            if a.real_count:
                assert np.max(np.abs(a.real_roots - b.real_roots)) < 1e-8

    @pytest.mark.parametrize("N,p,count", [(64, 0, 4), (256, 20, 2), (64, 500, 4)])
    def test_hard_regimes_match_the_companion_oracle(self, N, p, count):
        # many close pairs (p=0), the crystallized regime at larger N (p=20)
        # and the top-mode limit where low modes underflow (p=500)
        for k in range(count):
            f = random_derivative(N, p, 90210 + k)
            a = real_roots_sampled(f)
            b = all_roots_companion(f)
            assert a.real_count == b.real_count
            assert np.max(np.abs(a.real_roots - b.real_roots)) < 1e-8

    def test_crystallization_toward_top_mode(self):
        # zeros of high derivatives approach the zeros of the top mode
        # c_N cos(Nx + phi); the attraction sharpens with the order
        N = 8
        f = random_derivative(N, 0, 2024)
        a_top, b_top = f.cos_coeffs[N], f.sin_coeffs[N]
        phi = math.atan2(b_top, a_top)
        top = np.sort(np.mod((phi + math.pi / 2 + np.arange(2 * N) * math.pi) / N,
                             2 * math.pi))

        def max_dist(p):
            rr = real_roots_sampled(derivative_rescaled(f, p)).real_roots
            d = np.abs(rr[:, None] - top[None, :])
            d = np.minimum(d, 2 * math.pi - d)
            return float(d.min(axis=1).max())

        assert max_dist(40) < max_dist(10)


def block_of(fs):
    return _real_roots_block(np.stack([_coefficients(f) for f in fs]))


def seeded_block(N, p, K):
    """The first K realizations of the seed-4242 ensemble, differentiated p times."""
    spec = EnsembleSpec.equal_variance(N, 0, K, 4242)
    fs = [sample(spec, i) for i in range(K)]
    return [derivative_rescaled(f, p) for f in fs] if p else fs


def assert_matches_companion(fs, block):
    for f, roots in zip(fs, block):
        oracle = all_roots_companion(f)
        assert len(roots) == oracle.real_count
        assert np.max(np.abs(roots - oracle.real_roots)) < 1e-8


class TestBlock:
    def test_members_match_blocks_of_one(self):
        # a near-tangent pair in every dip (dip pass), a top-mode-only
        # spectrum, ordinary draws and a row with no real roots: uneven
        # bracket counts across the rows
        N = 8
        tangent = np.zeros(N + 1)
        tangent[0], tangent[N] = 1.0 - 1e-9, 1.0
        top_a, top_b = np.zeros(N + 1), np.zeros(N + 1)
        top_a[N], top_b[N] = 0.3, -1.7
        fs = [
            random_derivative(N, 0, 11),
            TrigPolynomial(N, tangent, np.zeros(N + 1)),
            random_derivative(N, 0, 12),
            TrigPolynomial(N, top_a, top_b),
            random_derivative(N, 3, 13),
            TrigPolynomial(N, tangent + 1.0 * (np.arange(N + 1) == 0), np.zeros(N + 1)),
        ]
        block = block_of(fs)
        assert [len(r) for r in block] == [real_roots_sampled(f).real_count for f in fs]
        assert len(block[1]) == len(block[3]) == 2 * N and len(block[5]) == 0
        for f, roots in zip(fs, block):
            if len(roots):
                assert np.max(np.abs(roots - real_roots_sampled(f).real_roots)) < 1e-13

    def test_a_zero_member_is_degenerate(self):
        fs = [cosine(3), TrigPolynomial(3, [0.0] * 4, [0.0] * 4)]
        with pytest.raises(ValueError, match="degenerate"):
            block_of(fs)

    @pytest.mark.parametrize("N,p", [(64, 0), (256, 20), (64, 500)])
    def test_whole_block_matches_the_companion_oracle(self, N, p):
        fs = seeded_block(N, p, max(_block_size(N), 2))
        assert_matches_companion(fs, block_of(fs))

    @pytest.mark.parametrize("N,p,most", [(64, 0, 2.6), (256, 20, 2.3)])
    def test_hermite_start_saves_evaluations(self, N, p, most, monkeypatch):
        # points handed to the series evaluator per root found, the dip
        # pass included; the secant start needed 3.4 (N=64) and 2.9 (N=256)
        fs = seeded_block(N, p, _block_size(N))
        points, evaluate = [], roots_module._series_values

        def counting(C, own, x):
            points.append(len(x))
            return evaluate(C, own, x)

        monkeypatch.setattr(roots_module, "_series_values", counting)
        block = block_of(fs)
        assert sum(points) <= most * sum(len(r) for r in block)
        assert_matches_companion(fs, block)

    def test_ensemble_is_bit_identical_across_threads(self):
        # N=10 has 97 realizations per block: two full blocks and a partial one
        spec = EnsembleSpec.equal_variance(10, 0, 201, 77)
        assert _block_size(10) == 97
        serial = real_zero_ensemble(spec, threads=1)
        parallel = real_zero_ensemble(spec, threads=3)
        assert len(serial) == len(parallel) == 201
        assert all(np.array_equal(a, b) for a, b in zip(serial, parallel))


def polynomial_of(row):
    return TrigPolynomial(len(row) - 1, row.real, -row.imag)


class TestDipScreen:
    """The Hermite screen drops only dip candidates that cannot hide a root."""

    def blocks(self):
        # ordinary draws with many shallow dips, the crystallized regime, and
        # tangent dips just above and just below zero on the grid and off it
        tangent = []
        for eps in (1e-2, 1e-5, -1e-5, 1e-9, -1e-9):
            for shift in (0.0, 0.37):
                a, b = np.zeros(9), np.zeros(9)
                a[0] = 1.0 + eps
                a[8], b[8] = math.cos(8 * shift), math.sin(8 * shift)
                tangent.append(TrigPolynomial(8, a, b))
        return [seeded_block(64, 0, _block_size(64)), seeded_block(256, 20, 3), tangent]

    def screened(self, fs):
        c = np.stack([_coefficients(f) for f in fs])
        m = 16 * (2 * c.shape[1] - 1)
        grid = _grid_values(c, m)
        vals, dvals = grid[:, 0], grid[:, 1]
        row, j = _dip_candidates(vals, dvals)
        keep = _screen(c, _series(c), 2 * math.pi / m, row, j, vals, dvals)
        return c, m, vals, row, j, keep

    def test_dropped_candidates_have_no_sign_change(self):
        dropped = 0
        for fs in self.blocks():
            c, m, vals, row, j, keep = self.screened(fs)
            for r, k in zip(row[~keep], j[~keep]):
                xs = np.linspace(k - 1, k + 1, 801) * (2 * math.pi / m)
                assert np.all(evaluate(polynomial_of(c[r]), xs) * vals[r, k] > 0)
                dropped += 1
        assert dropped > 50

    def test_hermite_cubic_is_within_the_margin(self):
        # the truncation term of the screen's margin, h^4/384 sum n^4 |c_n|,
        # bounds |F - H| on every candidate cell
        for fs in self.blocks():
            c, m, vals, row, j, keep = self.screened(fs)
            h = 2 * math.pi / m
            n = np.arange(c.shape[1])
            bound = h**4 / 384 * (n**4 * np.abs(c)).sum(axis=1)
            t = np.linspace(0.0, 1.0, 65)
            h00, h01 = (1 + 2 * t) * (1 - t) ** 2, t * t * (3 - 2 * t)
            h10, h11 = t * (1 - t) ** 2, t * t * (t - 1)
            for r, k in zip(row[:40], j[:40]):
                f = polynomial_of(c[r])
                x0 = (k + np.array([-1, 0])) * h
                f0, d0 = evaluate(f, x0), evaluate(differentiate(f), x0)
                f1, d1 = evaluate(f, x0 + h), evaluate(differentiate(f), x0 + h)
                for i in range(2):
                    cubic = f0[i] * h00 + f1[i] * h01 + h * (d0[i] * h10 + d1[i] * h11)
                    assert np.max(np.abs(evaluate(f, x0[i] + t * h) - cubic)) <= bound[r]

    def test_only_a_few_candidates_reach_newton(self):
        # at N=64, p=0 fewer than one candidate in a hundred comes within
        # the margin of zero (4 of 915 here); in the crystallized regime none
        keep = self.screened(seeded_block(64, 0, 240))[-1]
        assert len(keep) > 500 and keep.sum() <= 0.01 * len(keep)
        assert not self.screened(seeded_block(256, 20, 6))[-1].any()


@st.composite
def adversarial_polynomials(draw):
    """Dense or sparse spectra of degree 1..40 differentiated up to 500
    times, half of them with a constant that puts the global minimum a
    relative 1e-8..1e-3 above or below zero (a near-tangent pair)."""
    N = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = np.ones(N + 1, dtype=bool)
    if draw(st.booleans()):
        modes[:] = False
        modes[draw(st.lists(st.integers(0, N), max_size=4))] = True
        modes[N] = True
    a, b = rng.standard_normal(N + 1) * modes, rng.standard_normal(N + 1) * modes
    b[0] = 0.0
    f = TrigPolynomial(N, a, b)
    p = draw(st.integers(0, 500))
    f = derivative_rescaled(f, p) if p else f
    depth = draw(st.none() | st.floats(1e-8, 1e-3) | st.floats(-1e-3, -1e-8))
    if depth is not None:
        ext = all_roots_companion(differentiate(f)).real_roots
        low = np.min(evaluate(f, ext)) if len(ext) else 0.0
        scale = np.abs(f.cos_coeffs).sum() + np.abs(f.sin_coeffs).sum()
        a = f.cos_coeffs.copy()
        a[0] += depth * scale - low
        f = TrigPolynomial(N, a, f.sin_coeffs)
    return f


class TestAdversarial:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(adversarial_polynomials())
    def test_sampled_count_equals_the_companion_count(self, f):
        assert real_roots_sampled(f).real_count == all_roots_companion(f).real_count


class TestRootSet:
    def test_json_schema(self):
        rc = all_roots_companion(random_derivative(6, 1, 5))
        doc = rc.to_json()
        assert set(doc) == {"real", "complex", "method"}
        assert doc["method"] == "companion"
        assert all(len(pair) == 2 for pair in doc["complex"])
        rs = real_roots_sampled(random_derivative(6, 1, 5))
        assert rs.to_json()["complex"] is None

    def test_csv_one_root_per_line(self):
        rs = real_roots_sampled(cosine(4))
        lines = rs.real_roots_csv().strip().split("\n")
        assert len(lines) == rs.real_count
        assert abs(float(lines[0]) - math.pi / 8) < 1e-10
