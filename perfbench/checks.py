"""Output checks of the benchmark: every CLI output against the closed forms.

Each function takes the call's output directory, the CLI's standard output
and the call's parameters, and returns a list of problems (empty when the
output is correct).  Monte Carlo tolerances are derived from the noise at
the ensemble size the call used, so the same check serves the full and the
smoke sizes; the constants below were measured at the full sizes.  The
library's own closed forms are imported where needed, from the ``src/``
that run.py puts on the path.
"""

import math
import os
import re

# Per-bin pair counts are close to Poisson (standard deviation over ten
# seeds of 1000 realizations: 0.97 of the Poisson value), so a bin may miss
# by Z_BINS standard deviations; over 76 bins pure noise fails that about
# once in 25 000 runs.
Z_BINS = 5.0
# N=64 is not N=infinity: over ten seeds of 1000 realizations the mean
# histogram sat up to 0.0114 off pair_correlation_limit_curve(0, .).
PAIR_FINITE_N = 0.015
# Plateau mean over [2, 6]: 0.3392 +- 0.0006 over those seeds against 1/3 at
# N=infinity; one seed's standard deviation was 0.00195 at 1000
# realizations, i.e. 0.062 / sqrt(realizations).
PLATEAU_FINITE_N = 0.01
PLATEAU_SD_ONE = 0.062
# Relative standard deviation of one realization's real count at N=256,
# p=20 (3.4 of 501, over three seeds of 200 realizations).
COUNT_REL_SD_ONE = 0.0069
# Limit curves average to v_p^2 over (x_max - 10, x_max]; at x_max=30 the
# worst of p in {0, 1, 3, 10, 80} is 0.5% off (p=80, whose peaks are wide).
PLATEAU_REL = 0.01


def v_p(p):
    """Large-N real-zero fraction sqrt((2p+1)/(2p+3)), written out here so
    the CLI's own value is checked against an independent copy."""
    return math.sqrt((2 * p + 1) / (2 * p + 3))


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        cols = {h: [] for h in header}
        for line in fh:
            for h, v in zip(header, line.strip().split(",")):
                cols[h].append(_number(v))
    return cols


def _number(text):
    """A CSV field as a float; an empty field is NaN, a label stays text."""
    if not text:
        return math.nan
    try:
        return float(text)
    except ValueError:
        return text


def _load(outdir, name, problems):
    try:
        return read_csv(os.path.join(outdir, name))
    except (OSError, ValueError) as exc:
        problems.append(f"{name}: {exc}")
        return None


def _need_files(outdir, names, problems):
    for name in names:
        if not os.path.isfile(os.path.join(outdir, name)):
            problems.append(f"{name} missing")


def paircorr_empirical(outdir, stdout, params):
    """Histogram against pair_correlation_limit_curve(p, .) on [0.2, 4] and
    its plateau on [2, 6] against v_p^2."""
    problems = []
    cols = _load(outdir, "paircorr_empirical.csv", problems)
    if cols is None:
        return problems
    N, M, p = params["N"], params["realizations"], params["p"]
    centers = [0.5 * (a + b) for a, b in zip(cols["bin_left"], cols["bin_right"])]
    norm = M * 2 * N * (cols["bin_right"][0] - cols["bin_left"][0])
    sel = [i for i, c in enumerate(centers) if 0.2 <= c <= 4.0]
    from trigcrystal.analytic import pair_correlation_limit_curve

    curve = pair_correlation_limit_curve(p, [centers[i] for i in sel])
    for i, r in zip(sel, curve):
        tol = Z_BINS * math.sqrt(r / norm) + PAIR_FINITE_N
        if not abs(cols["value"][i] - r) <= tol:
            problems.append(f"bin at {centers[i]:.3f}: {cols['value'][i]:.4f} against "
                            f"{r:.4f}, tolerance {tol:.4f}")
    plateau_bins = [v for c, v in zip(centers, cols["value"]) if 2.0 <= c <= 6.0]
    plateau = sum(plateau_bins) / max(1, len(plateau_bins))
    tol = PLATEAU_FINITE_N + Z_BINS * PLATEAU_SD_ONE / math.sqrt(M)
    if not abs(plateau - v_p(p) ** 2) <= tol:
        problems.append(f"plateau {plateau:.4f} against {v_p(p) ** 2:.4f}, tolerance {tol:.4f}")
    return problems


def spacing(outdir, stdout, params):
    """Mean gap against 1/expected_real_fraction(N, p); histogram is a density."""
    problems = []
    _need_files(outdir, ["spacing.svg"], problems)
    cols = _load(outdir, "spacing.csv", problems)
    if cols is not None:
        mass = sum(v * (b - a) for a, b, v in
                   zip(cols["bin_left"], cols["bin_right"], cols["value"]))
        if not abs(mass - 1.0) <= 1e-9:
            problems.append(f"spacing density integrates to {mass!r}, not 1")
    found = re.search(r"ensemble mean gap ([-+0-9.eE]+)", stdout)
    if not found:
        return problems + ["no 'ensemble mean gap' line on standard output"]
    gap = float(found.group(1))
    from trigcrystal.analytic import expected_real_fraction

    target = 1.0 / expected_real_fraction(params["N"], params["p"])
    tol = Z_BINS * target * COUNT_REL_SD_ONE / math.sqrt(params["realizations"])
    if not abs(gap - target) <= tol:
        problems.append(f"mean gap {gap:.6f} against {target:.6f}, tolerance {tol:.6f}")
    return problems


def vp_table(outdir, stdout, params):
    """v_p = sqrt((2p+1)/(2p+3)) with v_0 = 1/sqrt(3); new = v_p - v_{p-1};
    the finite-N fraction lies in [v_p, 1]."""
    problems = []
    cols = _load(outdir, "vp_table.csv", problems)
    if cols is None:
        return problems
    if cols["p"] != [float(p) for p in range(params["p_max"] + 1)]:
        return problems + ["rows are not p = 0 .. p_max"]
    if not abs(cols["v_p"][0] - 1.0 / math.sqrt(3.0)) <= 1e-12:
        problems.append(f"v_0 = {cols['v_p'][0]!r}, not 1/sqrt(3)")
    for p, v, fin, new in zip(cols["p"], cols["v_p"], cols["finite_N_fraction"],
                              cols["new_real_fraction"]):
        p = int(p)
        if not abs(v - v_p(p)) <= 1e-12:
            problems.append(f"v_{p} = {v!r}, not {v_p(p)!r}")
        if not v_p(p) - 1e-12 <= fin <= 1.0 + 1e-12:
            problems.append(f"finite-N fraction at p={p} is {fin!r}, outside [v_p, 1]")
        if p and not abs(new - (v_p(p) - v_p(p - 1))) <= 1e-12:
            problems.append(f"new real fraction at p={p} is {new!r}")
    return problems


def fraction_analytic(outdir, stdout, params):
    """expected_real_fraction(30, 10) = 0.9696 +- 1e-4 (the published value)."""
    problems = []
    cols = _load(outdir, "fraction.csv", problems)
    if cols is None:
        return problems
    rows = dict(zip(cols["mode"], cols["value"]))
    value = rows.get("analytic", math.nan)
    if not abs(value - params["expected"]) <= 1e-4:
        problems.append(f"analytic fraction {value!r}, not {params['expected']} +- 1e-4")
    return problems


def _curve_plateau(cols, p, x_max, name):
    xs, r2 = cols["x"], cols["R2"]
    if len(xs) != round(x_max / 0.02) or not all(math.isfinite(v) for v in r2):
        return [f"{name}: {len(xs)} points or non-finite values"]
    tail = [r for x, r in zip(xs, r2) if x > x_max - 10.0]
    mean = sum(tail) / len(tail)
    if not abs(mean / v_p(p) ** 2 - 1.0) <= PLATEAU_REL:
        return [f"{name}: plateau {mean:.5f} against v_p^2 = {v_p(p) ** 2:.5f}"]
    return []


def paircorr_analytic(outdir, stdout, params):
    problems = []
    cols = _load(outdir, "paircorr_analytic.csv", problems)
    if cols is not None:
        problems += _curve_plateau(cols, params["p"], params["x_max"], "paircorr_analytic.csv")
    return problems


def figure2(outdir, stdout, params):
    problems = []
    for p in (0, 1, 3, 10):
        _need_files(outdir, [f"figure2_p{p}.svg"], problems)
        cols = _load(outdir, f"figure2_p{p}.csv", problems)
        if cols is not None:
            problems += _curve_plateau(cols, p, params["x_max"], f"figure2_p{p}.csv")
    return problems


def paircorr_asymptotic(outdir, stdout, params):
    """Peak (p/n)(1+4u^2)^(-3/2) at n=1: height p at x = 1 + 1/(2p), and mass
    6/sqrt(37) over the tabulated window u in [-3, 3]."""
    problems = []
    cols = _load(outdir, "paircorr_theorem.csv", problems)
    if cols is None:
        return problems
    p, xs, r2 = params["p"], cols["x"], cols["R2"]
    top = max(range(len(r2)), key=r2.__getitem__)
    if not (abs(r2[top] - p) <= 1e-12 * p and abs(xs[top] - 1.0 - 0.5 / p) <= 1e-12):
        problems.append(f"peak {r2[top]!r} at {xs[top]!r}")
    mass = sum(0.5 * (r2[i] + r2[i + 1]) * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))
    if not abs(mass - 6.0 / math.sqrt(37.0)) <= 1e-4:
        problems.append(f"peak mass {mass!r}, not 6/sqrt(37)")
    return problems


CHECKS = {f.__name__: f for f in (paircorr_empirical, spacing, vp_table, fraction_analytic,
                                  paircorr_analytic, figure2, paircorr_asymptotic)}


def check_call(call, outdir, stdout, rc):
    """Problems with one CLI call: a non-zero exit or an output out of tolerance."""
    if rc != 0:
        return [f"exit {rc}"]
    try:
        return CHECKS[call["check"]](outdir, stdout, call["params"])
    except (KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]
