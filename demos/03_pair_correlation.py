#!/usr/bin/env python3
"""Pair correlation of real zeros: ensemble histogram vs the exact curve.

The pair density of real zeros at separation x (in units of the mean total
zero spacing) has a closed form built from five moment integrals.  Between
its peaks it plateaus at the squared real-zero density v_p^2; as the
derivative order p grows the peaks near the integers sharpen into unit-mass
spikes of height ~ p/n.

Writes overlay data to demos/output/ and prints a coarse comparison table.
"""

import os

import numpy as np

import trigcrystal as tc
from trigcrystal import svgplot

N, p, M = 48, 3, 800
OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

spec = tc.EnsembleSpec.equal_variance(N, p, M, master_seed=333)
rootsets = tc.real_zero_ensemble(spec)
est = tc.empirical_pair_correlation(rootsets, N, bin_width=0.05, max_range=6.0)
h = est.histogram

xs = h.centers[h.centers >= 0.2]
curve = tc.pair_correlation_limit_curve(p, xs)

print(f"N = {N}, p = {p}, M = {M}; plateau target v_p^2 = {tc.v_p(p)**2:.4f}\n")
print(f"{'x':>5} {'empirical':>10} {'analytic':>10}")
for x in (0.5, 1.0, 1.1, 1.5, 2.1, 3.5, 5.0):
    k = int(np.argmin(np.abs(h.centers - x)))
    print(f"{x:>5.2f} {h.values[k]:>10.4f} "
          f"{tc.pair_correlation_limit(p, float(h.centers[k])):>10.4f}")

hx, hy = svgplot.steps(h.edges, h.values)
svgplot.render(
    os.path.join(OUT, "pair_correlation.svg"),
    [
        svgplot.Series(hx, hy, label=f"ensemble (M={M})"),
        svgplot.Series(xs, curve, label="exact curve"),
    ],
    title=f"pair correlation of real zeros, p={p}",
    xlabel="separation", ylabel="R2",
)
print(f"\nwrote {os.path.join(OUT, 'pair_correlation.svg')}")
