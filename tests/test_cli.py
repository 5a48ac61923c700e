"""CLI: parsing precedence, outputs, exit codes, reproducibility."""

import dataclasses
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from trigcrystal import cli, ensemble, svgplot
from trigcrystal.cli import main, parse_config
from trigcrystal.poly import EnsembleSpec, TrigPolynomial, derivative_rescaled, sample


def flat_root():
    """(1 - cos x)^10 in exact dyadic coefficients: a root of multiplicity
    20 at x = 0, flatter than the noise floor, where the grid's signs are
    rounding, so the sampled finder counts 24 roots of 2N = 20."""
    a = [math.comb(20, 10) / 2**10]
    a += [(-1) ** j * math.comb(20, 10 - j) / 2**9 for j in range(1, 11)]
    return {"degree": 10, "a": a, "b": [0] * 11}


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestParsing:
    def test_defaults_fill_in(self):
        cfg = parse_config(["paircorr", "--p", "10", "--mode", "analytic",
                            "--x-max", "6"])
        assert cfg.p == 10
        assert cfg.mode == "analytic"
        assert cfg.x_max == 6.0
        assert cfg.N == 30 and cfg.bins == 0.05 and cfg.threads >= 1

    def test_negative_p_exits_2_and_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["fraction", "--p", "-1"])
        assert exc.value.code == 2
        assert "p" in capsys.readouterr().err

    def test_flag_beats_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"p": 3}))
        cfg = parse_config(["fraction", "--config", str(cfgfile), "--p", "5"])
        assert cfg.p == 5
        cfg = parse_config(["fraction", "--config", str(cfgfile)])
        assert cfg.p == 3

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        for command, data in (("fraction", {"p": 3, "warp_factor": 9}),
                              ("roots", {"oversample": 16})):
            cfgfile.write_text(json.dumps(data))
            with pytest.raises(SystemExit) as exc:
                parse_config([command, "--config", str(cfgfile)])
            assert exc.value.code == 2
            assert "unknown config keys" in capsys.readouterr().err

    def test_threads_env_default(self, monkeypatch):
        # --threads defaults to 1 like any other option; no environment
        # variable sets it
        monkeypatch.setenv("CRYSTALLIZE_THREADS", "5")
        assert parse_config(["fraction"]).threads == 1

    def test_range_guards(self, tmp_path, capsys):
        for argv in (["fraction", "--N", "0"],
                     ["fraction", "--N", "5000"],
                     ["paircorr", "--N", "4", "--max-range", "6", "--mode", "empirical"],
                     ["fraction", "--realizations", "0"],
                     ["fraction", "--mode", "empirical", "--realizations", "1"],
                     ["fraction", "--mode", "all", "--realizations", "1"],
                     ["roots", "--oversample", "16"],
                     # more than 2^20 bins, whose memory grows without limit
                     ["paircorr", "--mode", "empirical", "--bins", "1e-6"],
                     ["spacing", "--bins", "1e-300"],
                     # the gap function's derivative overflows from a = 1e152
                     ["demo-triple-zero", "--a", "1e300"]):
            with pytest.raises(SystemExit) as exc:
                parse_config(argv)
            assert exc.value.code == 2
            capsys.readouterr()
        # one realization has no standard error, but the analytic mode needs none
        assert parse_config(["fraction", "--mode", "analytic", "--realizations", "1"])
        assert parse_config(["paircorr", "--mode", "empirical", "--N", "64",
                             "--bins", str(64 / ensemble.MAX_BINS), "--max-range", "64"])
        # config-file values pass the flag's own type, choices and bounds
        cfgfile = tmp_path / "run.json"
        for command, data in (("fraction", {"N": "64"}),
                              ("fraction", {"N": True}),
                              ("fraction", {"p": 2.5}),
                              ("fraction", {"threads": "2"}),
                              ("fraction", {"mode": "bogus"}),
                              ("figure", {"which": 7}),
                              ("demo-triple-zero", {"find_threshold": "yes"})):
            cfgfile.write_text(json.dumps(data))
            with pytest.raises(SystemExit) as exc:
                parse_config([command, "--config", str(cfgfile)])
            assert exc.value.code == 2
            (key,) = data
            assert key in capsys.readouterr().err
        # an int is a float value; max_range <= N binds only where a
        # histogram is built
        cfgfile.write_text(json.dumps({"max_range": 4}))
        assert main(["spacing", "--N", "8", "--realizations", "2", "--config", str(cfgfile),
                     "--out", str(tmp_path / "spacing")]) == 0
        assert main(["paircorr", "--mode", "analytic", "--p", "3", "--N", "4",
                     "--out", str(tmp_path / "paircorr")]) == 0
        capsys.readouterr()

    def test_x_max_is_bounded_by_the_limit_rule(self, tmp_path, capsys):
        for command in ("paircorr", "figure"):
            with pytest.raises(SystemExit) as exc:
                parse_config([command, "--x-max", "100.01"])
            assert exc.value.code == 2
            assert "x_max" in capsys.readouterr().err
        assert main(["paircorr", "--mode", "analytic", "--x-max", "100",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _, rows = read_csv(tmp_path / "paircorr_analytic.csv")
        assert len(rows) == 5000
        assert float(rows[-1][0]) == 100.0

    def test_x_max_below_the_grid_step_is_a_usage_error(self, tmp_path, capsys):
        # the grid's first point is its step, 0.02: a smaller x_max would
        # give an empty curve
        for argv in (["paircorr", "--mode", "analytic"], ["figure", "--which", "2"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--x-max", "0.01", "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert "x_max" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("x_max,points", [(0.02, 1), (0.03, 1), (0.05, 2), (0.0599, 2),
                                              (30.0, 1500)])
    def test_the_curve_grid_never_passes_x_max(self, tmp_path, capsys, x_max, points):
        assert main(["paircorr", "--mode", "analytic", "--x-max", str(x_max),
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _, rows = read_csv(tmp_path / "paircorr_analytic.csv")
        assert len(rows) == points
        assert float(rows[-1][0]) <= x_max


class TestCommands:
    def test_vp_table_row_p4(self, tmp_path, capsys):
        assert main(["vp-table", "--p-max", "4", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        header, rows = read_csv(tmp_path / "vp_table.csv")
        assert header == ["p", "v_p", "finite_N_fraction", "new_real_fraction"]
        assert len(rows) == 5
        v4 = float(rows[4][1])
        assert abs(v4 - math.sqrt(9.0 / 11.0)) < 1e-12
        assert abs(v4 - 0.9045) < 1e-4
        assert rows[0][3] == ""

    def test_fraction_analytic_headline(self, tmp_path, capsys):
        assert main(["fraction", "--N", "30", "--p", "10", "--mode", "analytic",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert abs(float(out.rsplit(":", 1)[1]) - 0.9696) < 1e-4
        _, rows = read_csv(tmp_path / "fraction.csv")
        assert abs(float(rows[0][1]) - 0.9696) < 1e-4

    def test_paircorr_analytic_peak(self, tmp_path, capsys):
        assert main(["paircorr", "--p", "10", "--mode", "analytic",
                     "--x-max", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _, rows = read_csv(tmp_path / "paircorr_analytic.csv")
        xs = np.array([float(r[0]) for r in rows])
        ys = np.array([float(r[1]) for r in rows])
        k = int(np.argmax(ys))
        assert abs(xs[k] - 1.05) < 0.03
        assert 9.0 < ys[k] < 11.0

    def test_sample_fixture_roundtrip(self, tmp_path, capsys):
        assert main(["sample", "--N", "10", "--p", "2", "--index", "3",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "sample.json") as fh:
            doc = json.load(fh)
        assert set(doc) == {"degree", "a", "b"}
        f = TrigPolynomial.from_json(doc)
        assert f.degree == 10
        assert f.sin_coeffs[0] == 0.0
        # derivative annihilates the constant and the first two modes scale up
        assert f.cos_coeffs[0] == 0.0

    def test_sample_index_past_the_old_realization_default(self, tmp_path, capsys):
        # realization i depends only on (seed, i); sample and roots take no
        # --realizations and accept any non-negative index
        assert main(["sample", "--N", "10", "--p", "2", "--seed", "7", "--index", "250",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "sample.json") as fh:
            got = TrigPolynomial.from_json(json.load(fh))
        spec = EnsembleSpec.equal_variance(10, 2, 251, 7)
        want = derivative_rescaled(sample(spec, 250), 2)
        assert got.to_json() == want.to_json()
        for argv in (["sample", "--realizations", "300"], ["roots", "--realizations", "300"],
                     ["sample", "--index", "-1"]):
            with pytest.raises(SystemExit) as exc:
                parse_config(argv)
            assert exc.value.code == 2
            capsys.readouterr()

    def test_roots_outputs_and_cross_check(self, tmp_path, capsys):
        assert main(["roots", "--N", "12", "--p", "2", "--method", "both",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "max position difference" in out
        with open(tmp_path / "roots.json") as fh:
            doc = json.load(fh)
        assert set(doc) == {"real", "complex", "method"}
        assert doc["method"] == "companion"
        _, rows = read_csv(tmp_path / "roots.csv")
        # headerless: read_csv treats the first line as header; recount raw
        with open(tmp_path / "roots.csv") as fh:
            n_lines = len([ln for ln in fh if ln.strip()])
        assert n_lines == len(doc["real"])

    def test_roots_both_names_the_roots_without_a_partner(self, tmp_path, capsys,
                                                          monkeypatch):
        # a sampled finder that loses its first root: the counts disagree,
        # and the line names that root as the companion's alone
        sampled = cli.roots.real_roots_sampled

        def losing(f):
            rs = sampled(f)
            return dataclasses.replace(rs, real_roots=rs.real_roots[1:])

        monkeypatch.setattr(cli.roots, "real_roots_sampled", losing)
        assert main(["roots", "--N", "12", "--p", "2", "--method", "both",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        with open(tmp_path / "roots.json") as fh:
            real = json.load(fh)["real"]
        assert (f"sampled {len(real) - 1} real roots, companion {len(real)}; "
                f"no partner within 1e-08: sampled none; companion {real[0]!r}\n") in out
        assert "nan" not in out

    def test_roots_from_fixture_input(self, tmp_path, capsys):
        fx = tmp_path / "poly.json"
        fx.write_text(json.dumps({"degree": 2, "a": [0.0, 0.0, 1.0],
                                  "b": [0.0, 0.0, 0.0]}))
        assert main(["roots", "--input", str(fx), "--method", "sampled",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "roots.json") as fh:
            doc = json.load(fh)
        assert len(doc["real"]) == 4  # cos(2x)

    def test_a_double_root_counts_twice(self, tmp_path, capsys):
        # 1 + cos(2x) has two double roots, each found as a pair
        fx = tmp_path / "poly.json"
        fx.write_text(json.dumps({"degree": 2, "a": [1, 0, 1], "b": [0, 0, 0]}))
        assert main(["roots", "--input", str(fx), "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert "sampled: 4 real roots of 2N = 4" in out
        assert err == ""

    def test_a_count_above_2n_is_warned_on_stderr(self, tmp_path, capsys):
        # the finder's 24 roots of (1 - cos x)^10 are more than 2N; the run
        # says so on stderr, still exiting 0
        fx = tmp_path / "poly.json"
        fx.write_text(json.dumps(flat_root()))
        assert main(["roots", "--input", str(fx), "--out", str(tmp_path / "flat")]) == 0
        out, err = capsys.readouterr()
        assert "sampled: 24 real roots of 2N = 20" in out
        assert err == ("warning: 1 of 1 real-root counts is odd or above 2N "
                       "(see count_violations in the manifest)\n")
        assert main(["roots", "--N", "64", "--out", str(tmp_path / "plain")]) == 0
        assert capsys.readouterr().err == ""

    def test_roots_of_a_huge_sine(self, tmp_path, capsys):
        # 1e308 sin(3x): the transform of the unscaled coefficients would
        # overflow; the finder scales each row by a power of two first
        fx = tmp_path / "poly.json"
        fx.write_text(json.dumps({"degree": 3, "a": [0, 0, 0, 0], "b": [0, 0, 0, 1e308]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["roots", "--input", str(fx), "--out", str(tmp_path)]) == 0
        assert "sampled: 6 real roots of 2N = 6" in capsys.readouterr().out
        with open(tmp_path / "roots.json") as fh:
            real = np.array(json.load(fh)["real"])
        # F(0) is exactly +0 on the grid, so the root at 0 is found from
        # inside the cell below 2 pi: compared around the circle
        exact = np.arange(6) * math.pi / 3
        assert np.all(cli._gaps(real, exact) < 1e-12) and np.all(cli._gaps(exact, real) < 1e-12)

    def test_the_companion_polishes_a_huge_sine(self, tmp_path, capsys):
        # 1e308 sin(3x): the companion's Newton polish on the unscaled
        # series would overflow in F'; it runs on f times a power of two
        fx = tmp_path / "poly.json"
        fx.write_text(json.dumps({"degree": 3, "a": [0, 0, 0, 0], "b": [0, 0, 0, 1e308]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["roots", "--input", str(fx), "--method", "both",
                         "--out", str(tmp_path)]) == 0
        assert "sampled 6 real roots, companion 6" in capsys.readouterr().out

    def test_roots_both_without_real_roots(self, tmp_path, capsys):
        # 2 + cos(2x) + sin(2x)/2 > 0: both finders agree on no real root
        fx = tmp_path / "poly.json"
        fx.write_text(json.dumps({"degree": 2, "a": [2, 0, 1], "b": [0, 0, 0.5]}))
        assert main(["roots", "--input", str(fx), "--method", "both",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == "sampled 0 real roots, companion 0; no real roots to compare\n"

    def test_roots_both_compares_around_the_circle(self, tmp_path, capsys):
        # sin(x + 1e-17): the sampled finder's root just below 2 pi is the
        # companion's root at 0, a few ulps away around the circle
        fx = tmp_path / "poly.json"
        fx.write_text(json.dumps({"degree": 1, "a": [0, 1e-17], "b": [0, 1]}))
        assert main(["roots", "--input", str(fx), "--method", "both",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        head, diff = out.split("max position difference ")
        assert head == "sampled 2 real roots, companion 2; "
        assert float(diff) < 1e-12

    @pytest.mark.parametrize("method", ["sampled", "both", "companion"])
    def test_roots_manifest_reports_the_sampled_count(self, tmp_path, capsys, method):
        # the sampled finder counts 24 roots of (1 - cos x)^10, above 2N =
        # 20, a count the report must flag
        fx = tmp_path / "poly.json"
        fx.write_text(json.dumps(flat_root()))
        assert main(["roots", "--input", str(fx), "--method", method,
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        with open(tmp_path / "roots_manifest.json") as fh:
            doc = json.load(fh)
        if method == "companion":
            assert "report" not in doc
            return
        count = int(re.match(r"sampled:? (\d+) real roots", out).group(1))
        assert count == 24
        assert doc["report"] == {"realizations": 1, "roots": 24, "count_violations": 1}

    def test_manifest_echoes_config(self, tmp_path, capsys):
        assert main(["vp-table", "--p-max", "2", "--N", "17",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "vp_table_manifest.json") as fh:
            doc = json.load(fh)
        assert doc["tool"] == "crystallize"
        assert doc["command"] == "vp-table"
        assert doc["config"]["N"] == 17
        assert doc["config"]["p_max"] == 2

    def test_manifest_lists_only_the_commands_own_keys(self, tmp_path, capsys):
        assert main(["spacing", "--N", "8", "--p", "1", "--realizations", "2",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "spacing_manifest.json") as fh:
            config = json.load(fh)["config"]
        foreign = {"a", "find_threshold", "index", "input", "method", "mode", "p_max",
                   "which", "x_max"}
        assert not foreign & set(config)
        assert config["N"] == 8 and config["realizations"] == 2 and config["bins"] == 0.05
        # no figure reads p, so figure takes no --p
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--p", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert main(["figure", "--which", "3", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "figure_manifest.json") as fh:
            assert "p" not in json.load(fh)["config"]

    @pytest.mark.parametrize("argv,name", [
        (["spacing"], "spacing"),
        (["paircorr", "--mode", "empirical"], "paircorr"),
        (["fraction", "--mode", "all"], "fraction"),
    ])
    def test_manifest_reports_the_count_invariants(self, tmp_path, capsys, argv, name):
        assert main([*argv, "--N", "8", "--p", "1", "--realizations", "5", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / f"{name}_manifest.json") as fh:
            report = json.load(fh)["report"]
        sets = ensemble.real_zero_ensemble(EnsembleSpec.equal_variance(8, 1, 5, 3))
        expected = {"realizations": 5, "roots": sum(len(r) for r in sets),
                    "count_violations": 0}
        if name == "paircorr":
            est = ensemble.empirical_pair_correlation(sets, 8)
            expected["ordered_pairs"] = est.metadata["ordered_pairs"]
        assert report == expected

    def test_manifest_report_counts_violations(self, tmp_path, capsys, monkeypatch):
        # odd and above-2N counts are reported, not dropped
        def bad(*args, **kwargs):
            return ensemble._Statistics(np.array([1, 20, 2], dtype=np.int32),
                                        ensemble._NO_BINS)

        monkeypatch.setattr(ensemble, "_statistics", bad)
        assert main(["fraction", "--mode", "empirical", "--N", "8", "--realizations", "3",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "fraction_manifest.json") as fh:
            report = json.load(fh)["report"]
        assert report == {"realizations": 3, "roots": 23, "count_violations": 2}

    def test_analytic_runs_have_no_report(self, tmp_path, capsys):
        assert main(["fraction", "--mode", "analytic", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "fraction_manifest.json") as fh:
            assert "report" not in json.load(fh)

    def test_figure2_panel_is_the_paircorr_analytic_curve(self, tmp_path, capsys):
        fig, pc = tmp_path / "fig", tmp_path / "pc"
        assert main(["figure", "--which", "2", "--x-max", "3", "--out", str(fig)]) == 0
        assert main(["paircorr", "--mode", "analytic", "--p", "3", "--x-max", "3",
                     "--out", str(pc)]) == 0
        capsys.readouterr()
        assert (fig / "figure2_p3.csv").read_bytes() == (pc / "paircorr_analytic.csv").read_bytes()

    def test_figure3_writes_csv_and_svg(self, tmp_path, capsys):
        assert main(["figure", "--which", "3", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        names = sorted(os.listdir(tmp_path))
        assert "figure3_a0_92.csv" in names
        assert "figure3_a1_1.svg" in names
        svg = (tmp_path / "figure3_a0_92.svg").read_text()
        assert svg.startswith("<svg")
        assert "trigcrystal" in svg  # version comment
        assert "stroke-dasharray" in svg  # dotted derivative curve

    def test_triple_zero_demo_counts(self, tmp_path, capsys):
        assert main(["demo-triple-zero", "--a", "1.1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 real zero" in out
        header, _ = read_csv(tmp_path / "triple_zero.csv")
        assert header == ["x", "f", "fprime"]


class TestLargeDegree:
    def test_empirical_fraction_at_the_largest_degree(self, tmp_path, capsys):
        # N = 4096 is the top of the accepted range; the grid is O(m) memory
        code = main(["fraction", "--mode", "empirical", "--N", "4096",
                     "--realizations", "2", "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        header, rows = read_csv(tmp_path / "fraction.csv")
        assert header == ["mode", "value", "stderr"]
        assert rows[0][0] == "empirical"
        assert abs(float(rows[0][1]) - 1.0 / math.sqrt(3.0)) < 0.02


class TestFailureHandling:
    def test_numerical_failure_exits_3_and_cleans_partials(self, tmp_path, capsys, monkeypatch):
        # a command that fails after writing a file must leave nothing behind
        def fails_midway(cfg, out):
            out.write_text("paircorr_analytic.csv", "x,R2\n")
            raise ValueError("arcsin argument out of range")

        monkeypatch.setitem(cli._DISPATCH, "paircorr", fails_midway)
        code = main(["paircorr", "--N", "8", "--p", "2", "--mode", "all",
                     "--realizations", "4", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "arcsin" in err
        assert os.listdir(tmp_path) == []

    def test_memory_error_exits_3_and_cleans_partials(self, tmp_path, capsys, monkeypatch):
        def exhausts_memory(cfg, out):
            out.write_text("fraction.csv", "mode,value,stderr\n")
            raise MemoryError("cannot allocate the grid")

        monkeypatch.setitem(cli._DISPATCH, "fraction", exhausts_memory)
        code = main(["fraction", "--out", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        # the message names only the options the failing command takes
        monkeypatch.setitem(cli._DISPATCH, "demo-triple-zero", exhausts_memory)
        assert main(["demo-triple-zero", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "a=0.92" in err and "N=" not in err and "seed=" not in err

    def test_asymptotic_p0_fails_before_the_ensemble(self, tmp_path, capsys, monkeypatch):
        # p = 0 has no asymptotic profile: a usage error, found before any work
        def no_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble ran before the p >= 1 check")

        monkeypatch.setattr(ensemble, "_statistics", no_ensemble)
        monkeypatch.setattr(ensemble, "real_zero_ensemble", no_ensemble)
        for mode in ("all", "asymptotic"):
            with pytest.raises(SystemExit) as exc:
                main(["paircorr", "--N", "8", "--p", "0", "--mode", mode,
                      "--out", str(tmp_path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "p must be at least 1" in err and "numerical failure" not in err
            assert os.listdir(tmp_path) == []

    # the grid grows with the degree, so a fixture has --N's bound, 4096
    @pytest.mark.parametrize("fixture", [None, [1, 2], {"degree": 2},
                                         {"degree": 4097, "a": [0] * 4097 + [1],
                                          "b": [0] * 4098}],
                             ids=["missing", "list", "no-coefficients", "above-the-largest-N"])
    def test_unreadable_input_fixture_exits_2_naming_input(self, tmp_path, capsys, fixture):
        fx = tmp_path / "poly.json"
        if fixture is not None:
            fx.write_text(json.dumps(fixture))
        out = tmp_path / "out"
        code = main(["roots", "--input", str(fx), "--out", str(out)])
        assert code == 2
        assert "input" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("fixture,method", [
        ({"degree": 2, "a": [0, 0, 0], "b": [0, 0, 0]}, "sampled"),
        ({"degree": 0, "a": [1], "b": [0]}, "companion"),
    ], ids=["all-zero", "degree-0-companion"])
    def test_fixture_without_roots_to_find_exits_2_naming_input(self, tmp_path, capsys,
                                                                 fixture, method):
        fx = tmp_path / "poly.json"
        fx.write_text(json.dumps(fixture))
        out = tmp_path / "out"
        code = main(["roots", "--input", str(fx), "--method", method, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "input" in err and "numerical failure" not in err
        # --input makes the command ignore the sampling options
        assert "N=" not in err and "seed=" not in err
        assert os.listdir(out) == []

    def test_unwritable_output_dir_exits_2(self, tmp_path, capsys):
        target = tmp_path / "ro"
        target.mkdir()
        os.chmod(target, 0o500)
        try:
            code = main(["vp-table", "--p-max", "1", "--out", str(target)])
        finally:
            os.chmod(target, 0o700)
        if os.getuid() != 0:  # root bypasses permissions; skip the assert then
            assert code == 2
            assert "not writable" in capsys.readouterr().err


class TestReproducibility:
    def test_thread_count_does_not_change_csv_bytes(self, tmp_path, capsys):
        args = ["paircorr", "--N", "16", "--p", "2", "--mode", "empirical",
                "--realizations", "40", "--seed", "777", "--bins", "0.1"]
        d1, d2 = tmp_path / "t1", tmp_path / "t2"
        assert main(args + ["--threads", "1", "--out", str(d1)]) == 0
        assert main(args + ["--threads", "2", "--out", str(d2)]) == 0
        capsys.readouterr()
        b1 = (d1 / "paircorr_empirical.csv").read_bytes()
        b2 = (d2 / "paircorr_empirical.csv").read_bytes()
        assert b1 == b2

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["spacing", "--N", "12", "--p", "1", "--realizations", "30",
                "--seed", "303", "--bins", "0.1"]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        capsys.readouterr()
        assert (d1 / "spacing.csv").read_bytes() == (d2 / "spacing.csv").read_bytes()
        assert (d1 / "spacing.svg").read_bytes() == (d2 / "spacing.svg").read_bytes()

    def test_each_svg_shows_the_floats_of_its_csv(self, tmp_path, capsys):
        def columns(path):
            header, rows = read_csv(path)
            return {h: [float(r[i]) for r in rows] for i, h in enumerate(header)}

        out = tmp_path / "out"
        assert main(["spacing", "--N", "32", "--p", "2", "--realizations", "20",
                     "--out", str(out)]) == 0
        assert main(["demo-triple-zero", "--out", str(out)]) == 0
        capsys.readouterr()

        hist, model = columns(out / "spacing.csv"), columns(out / "spacing_model.csv")
        steps_x = [e for pair in zip(hist["bin_left"], hist["bin_right"]) for e in pair]
        steps_y = [v for v in hist["value"] for _ in range(2)]
        svgplot.render(tmp_path / "spacing.svg",
                       [svgplot.Series(steps_x, steps_y, label="empirical"),
                        svgplot.Series(model["s"], model["density"], label="model",
                                       dashed=True)],
                       title="nearest-neighbor spacing, N=32, p=2",
                       xlabel="gap (mean total spacing = 1)", ylabel="density")

        demo = columns(out / "triple_zero.csv")
        svgplot.render(tmp_path / "triple_zero.svg",
                       [svgplot.Series(demo["x"], demo["f"], label="f"),
                        svgplot.Series(demo["x"], demo["fprime"], label="f'", dashed=True)],
                       title="bridged-gap function, a = 0.92", xlabel="x", ylabel="value")

        for name in ("spacing.svg", "triple_zero.svg"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
