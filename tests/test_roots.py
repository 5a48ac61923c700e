"""Root finding: dense-sampling vs companion-matrix cross-validation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigcrystal import ensemble
from trigcrystal import roots as roots_module
from trigcrystal.ensemble import _block_size, real_zero_ensemble, rescale_zeros
from trigcrystal.poly import (
    EnsembleSpec,
    TrigPolynomial,
    _coefficient_rows,
    _coefficients,
    _series_values,
    derivative_rescaled,
    differentiate,
    evaluate,
    sample,
)
from trigcrystal.roots import (
    _DIFF,
    _NODES,
    _WEIGHTS,
    _bounds,
    _dip_brackets,
    _dip_candidates,
    _gather,
    _grid_length,
    _grid_values,
    _interpolant_bound,
    _noise_floor,
    _real_roots_block,
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


def circle_gap(x, y):
    """The largest distance around the circle from a root of x to the
    nearest root of y, or from one of y to the nearest of x."""
    d = np.mod(np.subtract.outer(np.asarray(x), np.asarray(y)), 2 * math.pi)
    d = np.minimum(d, 2 * math.pi - d)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def tangents():
    """(N, f) for the 240 tangents 1 +- cos N(x - phi): ten degrees, each
    with twelve phases, five of them on grid points and three on fractions
    of a grid step, so the double roots fall on, beside and between grid
    points."""
    for N in (1, 2, 3, 4, 5, 8, 16, 32, 64, 100):
        h = 2 * math.pi / _grid_length(N + 1)
        for phi in (0.0, h, 2 * h, 5 * h, 13 * h, h / 2, h / 3, h / 4, 0.1, 0.37, 1.0, 2.5):
            for s in (1.0, -1.0):
                a, b = np.zeros(N + 1), np.zeros(N + 1)
                a[0], a[N], b[N] = 1.0, s * math.cos(N * phi), s * math.sin(N * phi)
                yield N, TrigPolynomial(N, a, b)


def hidden_pair():
    """The N=16, p=3 realization whose close root pair sits inside one cell
    of the 16x grid, found only by the dip pass (seed 7, index 3291)."""
    spec = EnsembleSpec.equal_variance(16, 3, 3292, 7)
    return derivative_rescaled(sample(spec, 3291), 3)


class TestSampled:
    def test_cos_8x_roots(self):
        rs = real_roots_sampled(cosine(8))
        assert rs.real_count == 16
        expected = math.pi / 16 + np.arange(16) * math.pi / 8
        assert np.max(np.abs(rs.real_roots - expected)) < 1e-10

    def test_sin_x_roots(self):
        f = TrigPolynomial(1, [0.0, 0.0], [0.0, 1.0])
        rs = real_roots_sampled(f)
        # F(0) is exactly +0 on the grid, so the root at 0 is found from
        # inside the cell below 2 pi, within the noise floor
        assert rs.real_count == 2
        assert circle_gap(rs.real_roots, [0.0, math.pi]) < 1e-10

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
        # a sampled realization with a close root pair inside one grid cell
        cases.append((hidden_pair(), 32, 1e-12))
        for f, count, gap in cases:
            rs = real_roots_sampled(f)
            rc = all_roots_companion(f)
            assert rs.real_count == rc.real_count == count
            assert np.max(np.abs(rs.real_roots - rc.real_roots)) < gap

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_tangent_dips_above_zero_have_no_roots(self, eps):
        # cos(8x) + 1 + eps stays above zero by eps at eight grid-point
        # minima; each is a dip candidate whose extremum is located on the
        # interpolant, and neither the grid's certificate there nor the
        # series, where the certificate cannot decide, may flip it
        a = np.zeros(9)
        a[0], a[8] = 1.0 + eps, 1.0
        f = TrigPolynomial(8, a, np.zeros(9))
        assert real_roots_sampled(f).real_count == all_roots_companion(f).real_count == 0

    def test_tangent_counts_are_even(self):
        # a grid value's sign is its sign bit, zero included, so every root
        # comes from a bracket and the count is the number of sign-bit flips
        # around the grid plus two per split dip cell: even, and at most 2N
        # on these double roots
        counts = [(N, real_roots_sampled(f).real_count) for N, f in tangents()]
        assert len(counts) == 240
        assert all(n % 2 == 0 and n <= 2 * N for N, n in counts)
        for a in ([1, 0, 1], [1, 0, -1]):
            f = TrigPolynomial(2, a, [0, 0, 0])
            assert real_roots_sampled(f).real_count == all_roots_companion(f).real_count == 4


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

    def test_classify_tol_insensitive(self, monkeypatch):
        counts = {}
        for tol in (1e-10, 1e-8, 1e-6):
            monkeypatch.setattr(roots_module, "CLASSIFY_TOL", tol)
            total = 0
            for seed in range(20):
                f = random_derivative(10, 2, 31337 + seed)
                total += all_roots_companion(f).real_count
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


# realizations per test block: at most one grid chunk, so the tests' cost does not
# grow with the ensemble's batch
BLOCK = {10: 97, 16: 62, 64: 15, 256: 3}


def seeded_block(N, p, K):
    """The first K realizations of the seed-4242 ensemble, differentiated p times."""
    spec = EnsembleSpec.equal_variance(N, 0, K, 4242)
    fs = [sample(spec, i) for i in range(K)]
    return [derivative_rescaled(f, p) for f in fs] if p else fs


def evaluator_points(monkeypatch):
    """The list to which the series evaluator, patched, appends the number
    of points of each call."""
    points, evaluate = [], roots_module._series_values

    def counting(c, own, x):
        points.append(len(x))
        return evaluate(c, own, x)

    monkeypatch.setattr(roots_module, "_series_values", counting)
    return points


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
        assert len(block[1]) == len(block[3]) == 2 * N and len(block[5]) == 0
        for f, roots in zip(fs, block):
            assert np.array_equal(roots, real_roots_sampled(f).real_roots)

    def test_a_zero_member_is_degenerate(self):
        fs = [cosine(3), TrigPolynomial(3, [0.0] * 4, [0.0] * 4)]
        with pytest.raises(ValueError, match="degenerate"):
            block_of(fs)

    @pytest.mark.parametrize("N,p", [(64, 0), (256, 20), (64, 500)])
    def test_whole_block_matches_the_companion_oracle(self, N, p):
        fs = seeded_block(N, p, BLOCK[N])
        assert_matches_companion(fs, block_of(fs))

    @pytest.mark.parametrize("N,p", [(64, 0), (256, 20), (16, 3), (10, 0)])
    def test_the_grid_certifies_nearly_every_root(self, N, p, monkeypatch):
        # points handed to the series evaluator per root found, the dip
        # pass included: the interpolant of the grid's F certifies all
        # roots but a few close pairs (0.011 points per root at N=64)
        fs = seeded_block(N, p, BLOCK[N])
        points = evaluator_points(monkeypatch)
        block = block_of(fs)
        assert sum(points) <= 0.02 * sum(len(r) for r in block)
        assert_matches_companion(fs, block)

    @pytest.mark.parametrize("N,p,M,certified,brackets", [
        (64, 0, 1000, 73948, 74022),
        (256, 20, 200, 100093, 100096),
        (16, 3, 4000, 115902, 116128),
        (10, 0, 2000, 23621, 23670),
    ])
    def test_two_steps_certify_no_fewer_roots(self, N, p, M, certified, brackets, monkeypatch):
        # each sign-change bracket costs two Newton steps on the interpolant
        # (_value_step) and its certificate; the share of the brackets the
        # grid certifies is no lower than with four steps from the secant
        # point (the counts given, seed 7); the dip pass's steps on P' are
        # not counted
        calls, grid_roots, value_step = [], roots_module._grid_roots, roots_module._value_step
        tally, inside = [0, 0], [False]

        def counting_value_step(wf, r):
            calls[-1] += inside[0]
            return value_step(wf, r)

        def counting_grid_roots(*args):
            calls.append(0)
            inside[0] = True
            try:
                x, ok = grid_roots(*args)
            finally:
                inside[0] = False
            tally[0] += ok.sum()
            tally[1] += len(ok)
            return x, ok

        monkeypatch.setattr(roots_module, "_value_step", counting_value_step)
        monkeypatch.setattr(roots_module, "_grid_roots", counting_grid_roots)
        real_zero_ensemble(EnsembleSpec.equal_variance(N, p, M, 7))
        assert calls and set(calls) == {2}
        assert tally[0] / tally[1] >= certified / brackets

    def test_interpolant_reproduces_every_polynomial_of_degree_15(self):
        # from q at the nodes k = -7 .. 8 the first barycentric form with
        # the integer weights gives q on the centre cell, and each row of the
        # differentiation matrix gives q' at its own node, the row of the
        # node k = 0 being (w_k / w_7) / (0 - k) off the diagonal; the node
        # polynomial peaks on the cell at t = 1/2
        slope = np.divide(_WEIGHTS / _WEIGHTS[7], -_NODES, out=np.zeros(16), where=_NODES != 0.0)
        slope[7] = -1.0 / 8.0
        assert np.array_equal(_DIFF[7], slope)
        grid = np.linspace(0.0, 1.0, 2001)[:, None]
        peak = np.abs(np.prod(grid - _NODES, axis=1)).max() / math.factorial(16)
        assert peak <= roots_module._OMEGA * (1 + 1e-12)
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 1.0, 9)[1:-1, None]
        omega = np.prod(t - _NODES, axis=1) / math.factorial(15)
        for q in rng.standard_normal((20, 16)):
            f = np.polyval(q[::-1], _NODES / 8)
            P = omega * (_WEIGHTS * f / (t - _NODES)).sum(axis=1)
            assert np.allclose(P, np.polyval(q[::-1], t[:, 0] / 8), rtol=0, atol=1e-12)
            slopes = np.polyval(np.polyder(q[::-1]), _NODES / 8) / 8
            assert np.allclose(_DIFF @ f, slopes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("N", [1, 7, 64, 1000])
    def test_a_cosine_is_certified_from_the_grid(self, N, monkeypatch):
        # cos(Nx - phi), the top mode alone, bends the most per grid cell;
        # its zeros are (phi + pi/2 + k pi)/N, and the grid alone gives all
        # 2N of them, with no series evaluation
        phi = 0.3
        a, b = np.zeros(N + 1), np.zeros(N + 1)
        a[N], b[N] = math.cos(phi), math.sin(phi)
        points = evaluator_points(monkeypatch)
        roots = real_roots_sampled(TrigPolynomial(N, a, b)).real_roots
        assert sum(points) == 0
        assert len(roots) == 2 * N
        exact = (phi + math.pi / 2 + np.arange(2 * N) * math.pi) / N
        h = 2 * math.pi / _grid_length(N + 1)
        assert np.all(np.abs(roots - exact) <= 1e-9 * h)

    def test_the_grid_length_is_the_least_even_5_smooth_one(self):
        def smooth(m):
            for q in (2, 3, 5):
                while m % q == 0:
                    m //= q
            return m == 1

        for N in [*range(1, 300), 1024, 2000, 4095, 4096]:
            need = 16 * (2 * N + 1)
            want = next(m for m in range(need, 2 * need + 1, 2) if smooth(m))
            assert _grid_length(N + 1) == want
        assert [_grid_length(N + 1) for N in (64, 256, 1024, 4096)] == [2160, 8640, 33750, 131220]

    @pytest.mark.parametrize("N", [1, 7, 64])
    def test_padded_stencils_wrap_around_the_period(self, N):
        # the 17 values of a cell's stencil, x_j-7 .. x_j+9, are the grid's
        # values at (j + k) mod m, in the first and the last cells too
        c = np.stack([_coefficients(random_derivative(N, 0, s)) for s in (1, 2)])
        m = _grid_length(N + 1)
        padded = _grid_values(c, m)
        grid = padded[:, 7:-10]
        j = np.concatenate([np.arange(9), np.arange(m - 10, m)])
        row = np.repeat([0, 1], len(j))
        j = np.tile(j, 2)
        stencil = _gather(padded, row, j, 17)
        assert np.array_equal(stencil, grid[row, (j + np.arange(-7, 10)[:, None]) % m])

    @pytest.mark.parametrize("N", [1, 7, 64])
    @pytest.mark.parametrize("cell", [0, -1])
    def test_roots_in_the_end_cells_are_certified_from_the_grid(self, N, cell, monkeypatch):
        # cos(Nx - phi) with a zero in the first or the last cell of the
        # grid, whose interpolant's stencil wraps around the period: all 2N
        # zeros come from the grid, none evaluated.  The zero sits at 0.95 of
        # the cell, where the interpolant's rounding is small, since near
        # x = 0 the bound has no slack from the arguments' rounding c1 |x|
        m = _grid_length(N + 1)
        h = 2 * math.pi / m
        x0 = (cell % m + 0.95) * h
        phi = N * x0 - math.pi / 2
        a, b = np.zeros(N + 1), np.zeros(N + 1)
        a[N], b[N] = math.cos(phi), math.sin(phi)
        points = evaluator_points(monkeypatch)
        roots = real_roots_sampled(TrigPolynomial(N, a, b)).real_roots
        assert sum(points) == 0
        assert len(roots) == 2 * N
        exact = np.sort(np.mod(x0 + np.arange(2 * N) * math.pi / N, 2 * math.pi))
        assert np.all(np.abs(roots - exact) <= 1e-9 * h)
        assert abs(roots[cell] - x0) <= 1e-9 * h

    @pytest.mark.parametrize("N", [1, 10, 64, 256, 1024, 4096])
    @pytest.mark.parametrize("p", [0, 20, 500])
    def test_grid_is_within_delta_c0_of_40_digit_sums(self, N, p):
        # the premise of every proof on the grid: each value of the
        # transform is within delta c0 of F at the exact point 2 pi k / m
        # (at most 0.48 c0 was seen here)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        f = random_derivative(N, p, 100)
        c = _coefficients(f)
        m = _grid_length(N + 1)
        grid = _grid_values(c[None], m)[0, 7:-10]
        c0, _ = _noise_floor(c)
        coeffs = [mp.mpc(float(z.real), float(z.imag)) for z in c]
        for k in np.random.default_rng(N + p).choice(m, 8, replace=False):
            z, w, value = mp.expj(2 * mp.pi * int(k) / m), mp.mpc(1), mp.mpf(0)
            for cn in coeffs:
                value += (cn * w).real
                w *= z
            assert abs(float(grid[k] - value)) <= roots_module._DELTA * c0

    @pytest.mark.parametrize("N,p", [(64, 0), (256, 20), (64, 500)])
    def test_every_root_is_within_twice_the_noise_floor(self, N, p):
        # the guarantee of both stopping rules, evaluated and certified:
        # |F(root)| <= 2 (c0 + c1 |root|) in 40-digit arithmetic
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        fs = seeded_block(N, p, BLOCK[N])
        for f, roots in zip(fs, block_of(fs)):
            c0, c1 = roots_module._noise_floor(_coefficients(f))
            coeffs = [mp.mpc(float(a), -float(b)) for a, b in zip(f.cos_coeffs, f.sin_coeffs)]
            for x in roots:
                z, w, value = mp.expj(mp.mpf(float(x))), mp.mpc(1), mp.mpf(0)
                for cn in coeffs:
                    value += (cn * w).real
                    w *= z
                assert abs(float(value)) <= 2.0 * (c0 + c1 * abs(x))

    @pytest.mark.parametrize("N,p", [(64, 0), (256, 20), (16, 3)])
    def test_the_ensemble_makes_no_blas_call(self, N, p, monkeypatch):
        # a BLAS product starts its own threads in every worker process, and
        # the finder needs none
        def blas(*args, **kwargs):
            raise AssertionError("BLAS call in the ensemble path")

        for name in ("matmul", "dot", "vdot", "inner", "tensordot"):
            monkeypatch.setattr(np, name, blas)
        found = real_zero_ensemble(EnsembleSpec.equal_variance(N, p, 2 * _block_size(N), 5))
        assert sum(len(r) for r in found) > 0

    @pytest.mark.parametrize("k", [-600, 600, 1015])
    def test_scaling_by_a_power_of_two_keeps_every_root(self, k):
        # 2^k F has F's roots bit for bit, with no overflow or underflow on
        # the way: the finder compares signs, not products of values, and
        # scales each row to a largest coefficient in [0.5, 1) before the
        # transform; the realization has a close pair that only the dip
        # pass finds
        rows = _coefficient_rows(EnsembleSpec.equal_variance(64, 0, 120, 7), 0, 120)
        pair = _coefficients(hidden_pair())[None]
        for c in (rows, pair):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                scaled = _real_roots_block(c * 2.0**k)
            for want, got in zip(_real_roots_block(c), scaled):
                assert np.array_equal(got, want)
        assert len(_real_roots_block(pair)[0]) == 32

    def test_a_tiny_sine_keeps_its_roots(self):
        f = TrigPolynomial(3, [0.0] * 4, [0.0, 0.0, 0.0, 1e-200])
        roots = real_roots_sampled(f).real_roots
        assert len(roots) == 6
        assert circle_gap(roots, np.arange(6) * math.pi / 3) < 1e-12

    @pytest.mark.parametrize("chunks", [1, ensemble._BATCH_CHUNKS, 4 * ensemble._BATCH_CHUNKS])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_ensemble_roots_are_those_of_each_polynomial_alone(self, chunks, threads,
                                                                monkeypatch):
        # whatever the batch and the thread count, realization i's roots are
        # bit for bit those of its own polynomial found alone; the count
        # spans two full default batches and a partial one
        N, p = 64, 0
        M = 2 * _block_size(N) + 17
        spec = EnsembleSpec.equal_variance(N, p, M, 77)
        monkeypatch.setattr(ensemble, "_BATCH_CHUNKS", chunks)
        found = real_zero_ensemble(spec, threads=threads)
        assert len(found) == M
        for i, roots in enumerate(found):
            f = derivative_rescaled(sample(spec, i), p)
            assert np.array_equal(roots, rescale_zeros(real_roots_sampled(f).real_roots, N))


def polynomial_of(row):
    return TrigPolynomial(len(row) - 1, row.real, -row.imag)


class TestDipScreen:
    """The F-only cut and the grid's certificate at the extremum drop only
    cells that cannot hide a root, on bounds that hold."""

    def blocks(self):
        # ordinary draws with many shallow dips, the crystallized regime, and
        # tangent dips just above and just below zero on the grid and off it,
        # the last within the series' noise of zero
        tangent = []
        for eps in (1e-2, 1e-5, -1e-5, 1e-9, -1e-9, 1e-15):
            for shift in (0.0, 0.37):
                a, b = np.zeros(9), np.zeros(9)
                a[0] = 1.0 + eps
                a[8], b[8] = math.cos(8 * shift), math.sin(8 * shift)
                tangent.append(TrigPolynomial(8, a, b))
        return [seeded_block(64, 0, BLOCK[64]), seeded_block(256, 20, BLOCK[256]), tangent]

    def grid(self, fs):
        """(c, m, padded, same) of fs: their coefficient rows, the grid
        length, the padded grid of F (_grid_values) and the cells whose ends
        have one sign bit of F, as in _scan."""
        c = np.stack([_coefficients(f) for f in fs])
        m = _grid_length(c.shape[1])
        padded = _grid_values(c, m)
        sign = np.signbit(padded[:, 7:-10])
        return c, m, padded, sign == np.roll(sign, -1, axis=1)

    def screened(self, fs):
        """Every cell [x_j, x_j+1] of the grids of fs with one sign of F at
        both ends and differing sign bits of the series' F' there: (c, m,
        vals, row, j), the share of all cells with one sign of F at both
        ends that the F-only cut leaves, and whether _dip_candidates keeps
        each cell."""
        c, m, padded, same = self.grid(fs)
        h = 2 * math.pi / m
        vals = padded[:, 7:-10]
        slopes = np.stack([evaluate(differentiate(f), np.arange(m) * h) for f in fs])
        turn = np.signbit(slopes) != np.signbit(np.roll(slopes, -1, axis=1))
        row, j = np.nonzero(same & turn)
        _, cut = _bounds(c, _noise_floor(c)[0], h)
        low = np.minimum(np.abs(vals), np.abs(np.roll(vals, -1, axis=1))) <= cut[:, None]
        krow, kj, *_ = _dip_candidates(padded, same, cut)
        kept = np.isin(row * m + j, krow * m + kj)
        return c, m, vals, row, j, (low & same).sum() / same.sum(), kept

    def decided(self, fs, monkeypatch):
        """Every candidate of _dip_candidates on the grids of fs, run through
        _dip_brackets: (c, m, vals, row, j, xc, sent), xc each cell's
        extremum, as _dip_brackets computes it, and sent whether F was
        evaluated there on the series."""
        c, m, padded, same = self.grid(fs)
        xe = np.arange(m + 1) * (2 * math.pi / m)
        series = (c, *_noise_floor(c))
        T, cut = _bounds(c, series[1], xe[1])
        row, j, g, d = _dip_candidates(padded, same, cut)
        at, asked = [], set()

        def bound(wf, t, c0):
            at.append(t)
            return _interpolant_bound(wf, t, c0)

        def values(c, own, x):
            asked.update(zip(own, x))
            return _series_values(c, own, x)

        monkeypatch.setattr(roots_module, "_interpolant_bound", bound)
        monkeypatch.setattr(roots_module, "_series_values", values)
        _dip_brackets(series, T, xe, row, j, g, d)
        xc = xe[j] + xe[1] * at[0] if len(row) else np.empty(0)
        sent = np.array([(r, x) in asked for r, x in zip(row, xc)], dtype=bool)
        return c, m, padded[:, 7:-10], row, j, xc, sent

    def test_dropped_candidates_have_no_sign_change(self):
        dropped = 0
        t = np.linspace(0.0, 1.0, 801)
        for fs in self.blocks():
            c, m, vals, row, j, _, kept = self.screened(fs)
            for r in np.unique(row[~kept]):
                cells = j[~kept & (row == r)]
                xs = (cells[:, None] + t) * (2 * math.pi / m)
                assert np.all(evaluate(polynomial_of(c[r]), xs) * vals[r, cells, None] > 0)
                dropped += len(cells)
        assert dropped > 1000

    def test_the_certificate_drops_only_cells_without_a_root(self, monkeypatch):
        # a candidate the certificate clears has F at its extremum beyond the
        # series' noise with the sign of the cell's ends, and F keeps that
        # sign over the whole cell
        dropped = 0
        t = np.linspace(0.0, 1.0, 801)
        for fs in self.blocks():
            c, m, vals, row, j, xc, sent = self.decided(fs, monkeypatch)
            c0, c1 = _noise_floor(c)
            for r, k, x in zip(row[~sent], j[~sent], xc[~sent]):
                f, s = polynomial_of(c[r]), np.sign(vals[r, k])
                assert s * evaluate(f, x) > c0[r] + c1[r] * abs(x)
                assert np.all(s * evaluate(f, (k + t) * (2 * math.pi / m)) > 0)
                dropped += 1
        assert dropped > 30

    def test_chord_is_within_the_cut(self):
        # the truncation term of the F-only cut, h^2/8 sum n^2 |c_n|, bounds
        # F less its chord between the ends of every candidate cell
        for fs in self.blocks():
            c, m, vals, row, j, *_ = self.screened(fs)
            h = 2 * math.pi / m
            n = np.arange(c.shape[1])
            bound = h**2 / 8 * (n**2 * np.abs(c)).sum(axis=1)
            t = np.linspace(0.0, 1.0, 65)
            for r, k in zip(row[:40], j[:40]):
                exact = evaluate(polynomial_of(c[r]), (k + t) * h)
                assert np.max(np.abs(exact - (exact[0] + t * (exact[-1] - exact[0])))) <= bound[r]

    def test_only_a_few_candidates_reach_newton(self, monkeypatch):
        # at N=64, p=0 the F-only cut leaves 1.4% of the cells with one sign
        # of F at both ends, and F is evaluated on the series at the
        # extremum of fewer than one in 2000 of those with an F' sign change
        # (1 of 23 970 here); in the crystallized regime the cut leaves
        # 2.3% and the certificate decides every candidate
        fs = seeded_block(64, 0, 240)
        *_, left, kept = self.screened(fs)
        *_, sent = self.decided(fs, monkeypatch)
        assert left <= 0.02 and len(kept) > 20000 and sent.sum() <= 0.0005 * len(kept)
        fs = seeded_block(256, 20, 6)
        *_, left, kept = self.screened(fs)
        *_, sent = self.decided(fs, monkeypatch)
        assert left <= 0.03 and len(kept) > 2000 and not sent.any()

    @pytest.mark.parametrize("oversample", [5, 3])
    def test_coarse_grids_keep_a_pair_inside_one_cell(self, oversample, monkeypatch):
        # the close root pair of this realization (see
        # test_near_tangent_pairs_are_recovered) leaves an F' sign change
        # between the ends of its cell on these coarser grids too
        monkeypatch.setattr(roots_module, "OVERSAMPLE", oversample)
        f = hidden_pair()
        assert real_roots_sampled(f).real_count == all_roots_companion(f).real_count == 32


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
        rs = real_roots_sampled(f).real_roots
        assert len(rs) == all_roots_companion(f).real_count
        # one root per bracket and disjoint brackets: no root twice, none
        # wrapped onto 2*pi, with no merge pass to drop duplicates
        assert np.all(np.diff(rs) > 0)
        assert np.all((rs >= 0) & (rs < 2 * math.pi))


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
