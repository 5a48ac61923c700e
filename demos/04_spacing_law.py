#!/usr/bin/env python3
"""The non-Gaussian law of gaps around the crystalline spacing.

At derivative order p the nearest-neighbor gaps s concentrate near
1 + 1/(2p).  In the zoom variable u = p(s - center) the gaps follow the
heavy-tailed density (1 + 4u^2)^(-3/2): a Cauchy-like shape whose tails are
orders of magnitude fatter than any Gaussian fit.  The script builds the
gap histogram of an ensemble and compares it with the law, including the
tail ratio that rules out Gaussianity.
"""

import os

import numpy as np

import trigcrystal as tc
from trigcrystal import svgplot

N, p, M = 128, 12, 400
OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

spec = tc.EnsembleSpec.equal_variance(N, p, M, master_seed=11)
gaps = tc.gap_ensemble(tc.real_zero_ensemble(spec), N)
center = 1.0 / tc.expected_real_fraction(N, p)  # exact mean gap at finite N
u = p * (gaps - center)

edges = np.linspace(-4.0, 4.0, 81)
counts, _ = np.histogram(u, bins=edges)
density = counts / (len(u) * (edges[1] - edges[0]))
mids = 0.5 * (edges[:-1] + edges[1:])

print(f"N={N}, p={p}, {len(u)} gaps; zoom variable u = p(s - {center:.4f})\n")
print(f"{'u':>5} {'empirical':>10} {'law':>8} {'gaussian fit':>13}")
for uu in (0.0, 0.5, 1.0, 2.0, 3.0):
    k = int(np.argmin(np.abs(mids - uu)))
    print(f"{uu:>5.1f} {density[k]:>10.4f} {tc.nn_density(uu):>8.4f} "
          f"{np.exp(-6.0 * uu * uu):>13.2e}")

print(f"\ntail ratio law/gaussian at u=2: "
      f"{tc.nn_density(2.0) / np.exp(-24.0):.1e} (Gaussian is hopeless)")

hx, hy = svgplot.steps(edges, density)
us = np.linspace(-4, 4, 401)
svgplot.render(
    os.path.join(OUT, "spacing_law.svg"),
    [
        svgplot.Series(hx, hy, label="ensemble gaps"),
        svgplot.Series(us, tc.nn_density(us), label="(1+4u^2)^(-3/2)"),
    ],
    title=f"rescaled nearest-neighbor gaps, p={p}",
    xlabel="u", ylabel="density",
)
print(f"wrote {os.path.join(OUT, 'spacing_law.svg')}")
