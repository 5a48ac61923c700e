"""crystallize: command-line front end.

Runs Monte Carlo ensembles, tabulates the analytic curves, exports CSV and
renders static SVG plots.  CSV is the primary data interface; every SVG is
drawn from the same floats its CSV holds.

Every option is declared once, in ``OPTIONS``: its type, default, the
commands that take it, its choices or bounds and its help text.  The
subcommand flags, ``RunConfig`` and the manifest are all read from that
table, and a value from a ``--config`` JSON file passes the same type,
choice and bound checks as the flag it stands for.  Each command writes a
manifest JSON echoing the resolved value of every option the command takes
(plus, for an ensemble and for ``roots`` with the sampled finder, a report
of its real-zero count invariant and, for paircorr, its ordered pair
count), and rerunning a command with the same configuration and seed
reproduces byte-identical CSV output for any --threads value.

Exit codes: 0 success, 2 usage/configuration error, 3 numerical failure.
A run whose report has a count violation still exits 0, with stdout and
the CSVs as they are, but prints one warning line to stderr naming how
many of its real-root counts are odd or above 2N.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__, analytic, asymptotics, ensemble, poly, roots, svgplot

MODES = ("empirical", "analytic", "asymptotic", "all")
METHODS = ("sampled", "companion", "both")


class _Option(NamedTuple):
    """One CLI option; its flag is ``--`` plus the name with ``_`` -> ``-``.

    commands None means every command.  A value must be one of choices, if
    given, and lie between lo (excluded when lo_open) and hi; lo None means
    unbounded.
    """

    type: type
    default: object
    commands: tuple[str, ...] | None
    help: str
    choices: tuple | None = None
    lo: float | None = None
    hi: float = math.inf
    lo_open: bool = False

    def takes(self, command: str) -> bool:
        return self.commands is None or command in self.commands

    def admits(self, v) -> bool:
        if self.choices is not None:
            return v in self.choices
        return self.lo is None or (self.lo < v if self.lo_open else self.lo <= v) and v <= self.hi

    def allowed(self) -> str:
        if self.choices is not None:
            return "{" + ", ".join(map(repr, self.choices)) + "}"
        return (f"{'(' if self.lo_open else '['}{self.lo}, "
                f"{self.hi}{']' if self.hi < math.inf else ')'}")


# the step of the analytic curves' grid, and the least x_max
_GRID_STEP = 0.02
_POLY = ("sample", "roots")
_ENSEMBLE = ("fraction", "paircorr", "spacing")
_HISTOGRAM = ("paircorr", "spacing")

OPTIONS = {
    "N": _Option(int, 30, (*_POLY, *_ENSEMBLE, "vp-table", "figure"), "polynomial degree",
                 lo=1, hi=4096),
    "p": _Option(int, 0, (*_POLY, *_ENSEMBLE), "derivative order", lo=0, hi=500),
    "realizations": _Option(int, 200, _ENSEMBLE, "Monte Carlo ensemble size", lo=1, hi=10**7),
    "seed": _Option(int, 20260809, (*_POLY, *_ENSEMBLE, "figure"), "master seed", lo=0),
    "threads": _Option(int, None, _ENSEMBLE,
                       "worker processes (default $CRYSTALLIZE_THREADS or 1)", lo=1),
    "index": _Option(int, 0, _POLY, "realization index", lo=0),
    "method": _Option(str, "sampled", ("roots",), "root finder", choices=METHODS),
    "input": _Option(str, None, ("roots",), "polynomial fixture JSON instead of sampling"),
    "mode": _Option(str, "analytic", ("fraction", "paircorr"), "estimates to write",
                    choices=MODES),
    "bins": _Option(float, 0.05, _HISTOGRAM, "bin width (rescaled units)", lo=0, lo_open=True),
    "max_range": _Option(float, 6.0, _HISTOGRAM, "histogram range, above bins and at most N"),
    "x_max": _Option(float, 6.0, ("paircorr", "figure"), "upper end of the analytic curve grid",
                     lo=_GRID_STEP, hi=analytic.MAX_SEPARATION),
    "p_max": _Option(int, 10, ("vp-table",), "largest derivative order", lo=0, hi=500),
    "a": _Option(float, 0.92, ("demo-triple-zero",), "imaginary part of the bridged zero pair",
                 lo=0, lo_open=True),
    "find_threshold": _Option(bool, False, ("demo-triple-zero",),
                              "bisect the 3 -> 1 transition in a"),
    "which": _Option(int, 1, ("figure",), "figure number", choices=(1, 2, 3)),
    "out": _Option(str, "crystallize-out", None, "output directory"),
}

RunConfig = dataclasses.make_dataclass(
    "RunConfig", [("command", str)] + [(name, opt.type) for name, opt in OPTIONS.items()],
    frozen=True, namespace={"__module__": __name__,
                            "__doc__": "Fully resolved configuration of one CLI invocation."},
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystallize",
        description="Zero statistics of random trigonometric polynomials and "
        "their derivatives: ensembles, analytic curves, CSV and SVG output.",
    )
    parser.add_argument("--version", action="version", version=f"crystallize {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn in _DISPATCH.items():
        sp = sub.add_parser(command, help=fn.__doc__)
        for name, opt in OPTIONS.items():
            if not opt.takes(command):
                continue
            flag = "--" + name.replace("_", "-")
            text = opt.help if opt.lo is None else f"{opt.help}, in {opt.allowed()}"
            if opt.type is bool:
                sp.add_argument(flag, action="store_true", default=None, help=text)
            else:
                sp.add_argument(flag, type=opt.type, choices=opt.choices, default=None,
                                help=text)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config file; explicit flags take precedence")
    return parser


def _load_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    """The file's values, each of its option's JSON type: an int for int, an
    int or float for float, a bool for bool, a string for str."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read --config file: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"--config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        parser.error("--config file must hold a JSON object")
    unknown = sorted(set(data) - set(OPTIONS))
    if unknown:
        parser.error(f"unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        opt = OPTIONS[key]
        if value is None and opt.default is None:
            continue
        accepted = (int, float) if opt.type is float else opt.type
        if isinstance(value, bool) != (opt.type is bool) or not isinstance(value, accepted):
            parser.error(f"config key {key} must be a JSON {opt.type.__name__}, "
                         f"got {json.dumps(value)}")
        data[key] = opt.type(value)
    return data


def parse_config(argv=None) -> RunConfig:
    """Parse argv (and optional config file) into a fully resolved RunConfig.

    Precedence: built-in defaults < config file < explicit flags.
    """
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)

    merged = {name: opt.default for name, opt in OPTIONS.items()}
    if config_path:
        merged.update(_load_config_file(config_path, parser))
    merged.update((key, val) for key, val in args.items() if val is not None)
    if merged["threads"] is None:
        try:
            merged["threads"] = int(os.environ.get("CRYSTALLIZE_THREADS", "1"))
        except ValueError:
            parser.error("CRYSTALLIZE_THREADS must be an integer")

    for key, opt in OPTIONS.items():
        if not opt.admits(merged[key]):
            parser.error(f"{key} must be in {opt.allowed()}, got {merged[key]!r}")
    if (command == "fraction" and merged["mode"] in ("empirical", "all")
            and merged["realizations"] < 2):
        parser.error(f"realizations must be at least 2 for the standard error of mode "
                     f"{merged['mode']}, got {merged['realizations']}")
    if command == "paircorr" and merged["mode"] in ("asymptotic", "all") and merged["p"] < 1:
        parser.error(f"p must be at least 1 for the asymptotic pair-correlation profile "
                     f"of mode {merged['mode']}, got {merged['p']}")
    # the two histogram estimators read bins and max_range
    if command == "spacing" or (command == "paircorr" and merged["mode"] in ("empirical", "all")):
        if not merged["max_range"] > merged["bins"]:
            parser.error("max_range must exceed the bin width bins")
        if merged["max_range"] > merged["N"]:
            parser.error(f"max_range must not exceed the half period N={merged['N']}, "
                         f"got {merged['max_range']}")
    return RunConfig(command=command, **merged)


def _own_options(cfg: RunConfig) -> dict:
    """The resolved values of the options cfg's command takes."""
    return {k: getattr(cfg, k) for k, opt in OPTIONS.items() if opt.takes(cfg.command)}


class _Outputs:
    """Tracks files written by one run so failures can clean up partials."""

    def __init__(self, directory):
        self.directory = directory
        self.paths: list[str] = []

    def path(self, name: str) -> str:
        p = os.path.join(self.directory, name)
        self.paths.append(p)
        return p

    def write_text(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p

    def discard_all(self):
        for p in self.paths:
            try:
                os.unlink(p)
            except OSError:
                pass


def _write_manifest(out: _Outputs, cfg: RunConfig, report: dict | None):
    doc = {
        "tool": "crystallize",
        "version": __version__,
        "command": cfg.command,
        "config": {"command": cfg.command, **_own_options(cfg)},
    }
    if report is not None:
        doc["report"] = report
    name = cfg.command.replace("-", "_") + "_manifest.json"
    out.write_text(name, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_csv(out: _Outputs, name: str, header: str, cols) -> list[list[float]]:
    """Write the columns under header to the CSV `name` and return them as
    lists of Python floats, the values its SVG is drawn from.  A float's
    repr is its shortest round trip, so the file parses back to them."""
    cols = [np.asarray(c, dtype=float).tolist() for c in cols]
    rows = zip(*(map(repr, c) for c in cols))
    out.write_text(name, "\n".join([header, *map(",".join, rows), ""]))
    return cols


def _write_histogram(out: _Outputs, name: str, hist: ensemble.Histogram,
                     label: str) -> svgplot.Series:
    """Write hist's bins to the CSV `name`; returns their step series."""
    left, right, values = _write_csv(out, name, "bin_left,bin_right,value",
                                     (hist.edges[:-1], hist.edges[1:], hist.values))
    return svgplot.Series(*svgplot.steps(left + right[-1:], values), label=label)


def _analytic_grid(x_max: float, step: float = _GRID_STEP) -> np.ndarray:
    """The points step, 2 step, ... up to x_max, by the histograms' rule
    (ensemble._steps_within), so none passes x_max."""
    ks = np.arange(1, ensemble._steps_within(step, x_max) + 1)
    return np.round(ks * step, 10)


def _write_limit_curve(out: _Outputs, name: str, p: int, x_max: float,
                       label: str) -> svgplot.Series:
    """Write the large-N pair correlation on the analytic grid to the CSV
    `name`; returns its series."""
    xs = _analytic_grid(x_max)
    r2 = analytic.pair_correlation_limit_curve(p, xs)
    return svgplot.Series(*_write_csv(out, name, "x,R2", (xs, r2)), label=label)


def _write_triple_zero(out: _Outputs, stem: str, a: float, title: str):
    demo = asymptotics.triple_zero_demo(a)
    xs, f, fprime = _write_csv(out, f"{stem}.csv", "x,f,fprime", (demo.x, demo.f, demo.fprime))
    svgplot.render(out.path(f"{stem}.svg"),
                   [svgplot.Series(xs, f, label="f"),
                    svgplot.Series(xs, fprime, label="f'", dashed=True)],
                   title=title, xlabel="x", ylabel="value")
    return demo


def _spec(cfg: RunConfig) -> poly.EnsembleSpec:
    return poly.EnsembleSpec.equal_variance(
        cfg.N, cfg.p, cfg.realizations, cfg.seed
    )


def _count_report(rootsets, N: int) -> dict:
    """The manifest report of the count invariant of degree-N real zero
    sets: every realization has an even number of real zeros, at most 2N."""
    counts = np.array([len(r) for r in rootsets])
    return {
        "realizations": len(rootsets),
        "roots": int(counts.sum()),
        "count_violations": int(np.sum((counts % 2 == 1) | (counts > 2 * N))),
    }


def _ensemble(cfg: RunConfig):
    """The run's rootsets and the manifest report of their count invariant."""
    rootsets = ensemble.real_zero_ensemble(_spec(cfg), threads=cfg.threads)
    return rootsets, _count_report(rootsets, cfg.N)


class _InputError(Exception):
    """The --input fixture cannot be read as a polynomial (exit 2)."""


def _fixture_polynomial(cfg: RunConfig) -> poly.TrigPolynomial:
    if cfg.input:
        try:
            with open(cfg.input, "r", encoding="utf-8") as fh:
                return poly.TrigPolynomial.from_json(json.load(fh))
        except OSError as exc:
            raise _InputError(f"cannot read input file: {exc}") from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise _InputError(
                f"input file {cfg.input!r} is not a polynomial fixture (a JSON object "
                f"with degree, a and b): {type(exc).__name__}: {exc}"
            ) from exc
    # realization i depends only on (seed, i), so any ensemble past i serves
    spec = poly.EnsembleSpec.equal_variance(cfg.N, cfg.p, cfg.index + 1, cfg.seed)
    # scaled by N^-p; the zero set is unchanged and stays in float range
    return poly.derivative_rescaled(poly.sample(spec, cfg.index), cfg.p)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_sample(cfg: RunConfig, out: _Outputs):
    """draw one realization and write a JSON fixture"""
    f = _fixture_polynomial(cfg)
    out.write_text("sample.json", json.dumps(f.to_json(), indent=2) + "\n")
    print(f"wrote realization {cfg.index} (N={cfg.N}, p={cfg.p}) to sample.json")


# --method both pairs a root of one finder with one of the other this close
_PARTNER_GAP = 1e-8


def _gaps(x, y):
    """The distance around the circle from each root of x to the nearest
    root of y, both sorted in [0, 2*pi); y must not be empty."""
    i = np.searchsorted(y, x)
    gap = np.abs(x - np.stack([y[i - 1], y[i % len(y)]]))
    return np.minimum(gap, 2.0 * np.pi - gap).min(axis=0)


def _unmatched(x, y):
    """The roots of x with no root of y within _PARTNER_GAP (_gaps)."""
    return x[_gaps(x, y) > _PARTNER_GAP] if len(y) else x


def _cmd_roots(cfg: RunConfig, out: _Outputs):
    """real/complex zeros of one realization"""
    f = _fixture_polynomial(cfg)
    if cfg.input and f.is_zero:
        raise _InputError(f"input file {cfg.input!r} holds the zero polynomial, "
                          f"which has no isolated roots")
    top = f.degree >= 1 and (f.cos_coeffs[-1] != 0.0 or f.sin_coeffs[-1] != 0.0)
    if cfg.input and cfg.method != "sampled" and not top:
        raise _InputError(f"input file {cfg.input!r}: --method {cfg.method} needs degree "
                          f">= 1 and a_N, b_N not both zero; --method sampled takes it")
    sets = {}
    if cfg.method in ("sampled", "both"):
        sets["sampled"] = roots.real_roots_sampled(f)
    if cfg.method in ("companion", "both"):
        sets["companion"] = roots.all_roots_companion(f)
    primary = sets.get("companion", sets.get("sampled"))
    out.write_text("roots.csv", primary.real_roots_csv())
    out.write_text("roots.json", json.dumps(primary.to_json(), indent=2) + "\n")
    if cfg.method == "both":
        a, b = sets["sampled"], sets["companion"]
        head = f"sampled {a.real_count} real roots, companion {b.real_count}; "
        if a.real_count == b.real_count == 0:
            print(head + "no real roots to compare")
        elif a.real_count == b.real_count:
            u, v = a.real_roots, b.real_roots
            diff = float(max(_gaps(u, v).max(), _gaps(v, u).max()))
            print(head + f"max position difference {diff:.3e}")
        else:
            lone = [", ".join(repr(float(x)) for x in _unmatched(u, v)) or "none"
                    for u, v in ((a.real_roots, b.real_roots), (b.real_roots, a.real_roots))]
            print(head + f"no partner within {_PARTNER_GAP:g}: sampled {lone[0]}; "
                  f"companion {lone[1]}")
    else:
        print(f"{primary.method}: {primary.real_count} real roots "
              f"of 2N = {2 * f.degree}")
    return _count_report([sets["sampled"].real_roots], f.degree) if "sampled" in sets else None


def _cmd_fraction(cfg: RunConfig, out: _Outputs):
    """real-zero fraction (empirical/analytic/asymptotic)"""
    rows, report = [], None
    if cfg.mode in ("analytic", "all"):
        rows.append(("analytic", analytic.expected_real_fraction(cfg.N, cfg.p), ""))
    if cfg.mode in ("asymptotic", "all"):
        rows.append(("asymptotic", analytic.v_p(cfg.p), ""))
    if cfg.mode in ("empirical", "all"):
        rootsets, report = _ensemble(cfg)
        mean, err = ensemble.empirical_real_fraction(_spec(cfg), rootsets=rootsets)
        rows.append(("empirical", mean, repr(err)))
    lines = ["mode,value,stderr"]
    for mode, value, err in rows:
        lines.append(f"{mode},{value!r},{err}")
        print(f"fraction[{mode}] N={cfg.N} p={cfg.p}: {value:.6f}"
              + (f" +- {float(err):.6f}" if err else ""))
    out.write_text("fraction.csv", "\n".join(lines) + "\n")
    return report


def _cmd_paircorr(cfg: RunConfig, out: _Outputs):
    """pair correlation of real zeros"""
    series, report = [], None
    if cfg.mode in ("empirical", "all"):
        rootsets, report = _ensemble(cfg)
        est = ensemble.empirical_pair_correlation(
            rootsets, cfg.N, bin_width=cfg.bins, max_range=cfg.max_range
        )
        report["ordered_pairs"] = est.metadata["ordered_pairs"]
        series.append(_write_histogram(out, "paircorr_empirical.csv", est.histogram,
                                       "empirical"))
    if cfg.mode in ("analytic", "all"):
        series.append(_write_limit_curve(out, "paircorr_analytic.csv", cfg.p, cfg.x_max,
                                         "analytic"))
    if cfg.mode in ("asymptotic", "all"):
        us = np.linspace(-3.0, 3.0, 121)
        xs = 1.0 + 1.0 / (2.0 * cfg.p) + us / cfg.p
        r2 = np.array([asymptotics.theorem_profile(1, cfg.p, u) for u in us])
        cols = _write_csv(out, "paircorr_theorem.csv", "x,R2", (xs, r2))
        series.append(svgplot.Series(*cols, label="asymptotic", dashed=True))
    print(f"paircorr mode={cfg.mode}: wrote {len(series)} CSV file(s)")
    if cfg.mode == "all":
        svgplot.render(out.path("paircorr.svg"), series,
                       title=f"pair correlation, N={cfg.N}, p={cfg.p}",
                       xlabel="separation (mean total spacing = 1)", ylabel="R2")
    return report


def _cmd_spacing(cfg: RunConfig, out: _Outputs):
    """nearest-neighbor spacing distribution"""
    rootsets, report = _ensemble(cfg)
    hist = ensemble.nearest_neighbor_spacings(
        rootsets, cfg.N, bin_width=cfg.bins, max_range=cfg.max_range
    )
    series = [_write_histogram(out, "spacing.csv", hist, "empirical")]
    mean_gap = float(np.mean(ensemble.gap_ensemble(rootsets, cfg.N)))
    print(f"spacing: {len(hist.values)} bins, ensemble mean gap {mean_gap:.6f}")
    if cfg.p >= 1:
        ss = _analytic_grid(cfg.max_range, 0.01)
        us = cfg.p * (ss - 1.0 - 1.0 / (2.0 * cfg.p))
        dens = cfg.p * asymptotics.nn_density(us)
        cols = _write_csv(out, "spacing_model.csv", "s,density", (ss, dens))
        series.append(svgplot.Series(*cols, label="model", dashed=True))
    svgplot.render(out.path("spacing.svg"), series,
                   title=f"nearest-neighbor spacing, N={cfg.N}, p={cfg.p}",
                   xlabel="gap (mean total spacing = 1)", ylabel="density")
    return report


def _cmd_vp_table(cfg: RunConfig, out: _Outputs):
    """table of real-zero fractions per derivative order"""
    lines = ["p,v_p,finite_N_fraction,new_real_fraction"]
    for p in range(cfg.p_max + 1):
        vp = analytic.v_p(p)
        finite = analytic.expected_real_fraction(cfg.N, p)
        new_txt = repr(asymptotics.new_real_fraction(p)) if p >= 1 else ""
        lines.append(f"{p},{vp!r},{finite!r},{new_txt}")
    text = "\n".join(lines) + "\n"
    out.write_text("vp_table.csv", text)
    sys.stdout.write(text)


def _cmd_demo_triple_zero(cfg: RunConfig, out: _Outputs):
    """close pairs from newly real zeros"""
    demo = _write_triple_zero(out, "triple_zero", cfg.a,
                              f"bridged-gap function, a = {cfg.a}")
    print(f"a = {cfg.a}: derivative has {demo.derivative_zero_count} real zero(s) in (0, 1)")
    if cfg.find_threshold:
        thr = asymptotics.triple_zero_threshold()
        print(f"3 -> 1 transition at a = {thr:.6f}")
        out.write_text("triple_zero_threshold.txt", f"{thr!r}\n")


def _figure1(cfg: RunConfig, out: _Outputs):
    spec = poly.EnsembleSpec.equal_variance(cfg.N, 0, 1, cfg.seed)
    f = poly.sample(spec, 0)
    xs = np.linspace(0.0, 2.0 * cfg.N, 1201)
    panels = [("F", 0), ("d1", 1), ("d3", 3), ("d10", 10)]
    for name, order in panels:
        vals = poly.evaluate_rescaled(poly.derivative_rescaled(f, order), xs)
        vals = vals / np.max(np.abs(vals))
        cols = _write_csv(out, f"figure1_{name}.csv", "x,value", (xs, vals))
        svgplot.render(out.path(f"figure1_{name}.svg"), [svgplot.Series(*cols, label=name)],
                       title=f"degree-{cfg.N} realization, panel {name} (normalized)",
                       xlabel="x (rescaled)", ylabel="value")


def _figure2(cfg: RunConfig, out: _Outputs):
    for p in (0, 1, 3, 10):
        curve = _write_limit_curve(out, f"figure2_p{p}.csv", p, cfg.x_max, f"p={p}")
        svgplot.render(out.path(f"figure2_p{p}.svg"), [curve],
                       title=f"pair correlation of real zeros, p={p}",
                       xlabel="separation", ylabel="R2")


def _figure3(cfg: RunConfig, out: _Outputs):
    for a in (0.92, 1.1):
        tag = f"a{a:g}".replace(".", "_")
        _write_triple_zero(out, f"figure3_{tag}", a, f"bridged-gap function, a = {a:g}")


def _cmd_figure(cfg: RunConfig, out: _Outputs):
    """reproduce the standard figures (CSV + SVG)"""
    (_figure1, _figure2, _figure3)[cfg.which - 1](cfg, out)
    print(f"figure {cfg.which}: wrote {len(out.paths)} file(s)")


_DISPATCH = {
    "sample": _cmd_sample,
    "roots": _cmd_roots,
    "fraction": _cmd_fraction,
    "paircorr": _cmd_paircorr,
    "spacing": _cmd_spacing,
    "vp-table": _cmd_vp_table,
    "demo-triple-zero": _cmd_demo_triple_zero,
    "figure": _cmd_figure,
}


def run(cfg: RunConfig) -> int:
    """Execute a resolved configuration; returns a process exit code."""
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {cfg.out!r}: {exc}", file=sys.stderr)
        return 2
    if not os.access(cfg.out, os.W_OK):
        print(f"output directory {cfg.out!r} is not writable", file=sys.stderr)
        return 2
    out = _Outputs(cfg.out)
    try:
        report = _DISPATCH[cfg.command](cfg, out)
        _write_manifest(out, cfg, report)
    except _InputError as exc:
        out.discard_all()
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OverflowError, FloatingPointError, MemoryError) as exc:
        out.discard_all()
        taken = ", ".join(f"{k}={v}" for k, v in _own_options(cfg).items())
        print(f"numerical failure in {cfg.command} ({taken}): {exc}", file=sys.stderr)
        return 3
    if report and report["count_violations"]:
        print(f"warning: {report['count_violations']} of {report['realizations']} real-root "
              "counts is odd or above 2N (see count_violations in the manifest)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    cfg = parse_config(argv)
    return run(cfg)


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
