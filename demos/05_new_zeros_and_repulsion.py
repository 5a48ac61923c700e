#!/usr/bin/env python3
"""Why close pairs never disappear: new real zeros and linear repulsion.

Every derivative order pulls a fresh fraction v_p - v_{p-1} ~ 1/(2p^2) of
zeros onto the real line, and the pair correlation keeps a linear ramp
R2 ~ pi^2 x/(8p^2) at small separations of exactly that magnitude: the
newly landed zeros are the close pairs.

The mechanism in miniature: take a sine-like function with integer zeros,
remove the two at 0 and 1, and bridge the gap with a conjugate pair
1/2 +- i a.  As a shrinks through sqrt(2/(pi^2 - 8)) ~ 1.0343 the pair
presses onto the line and the derivative's single midpoint zero splits into
three: a triple zero at the threshold, then a tight real triplet.
"""

import numpy as np

import trigcrystal as tc
from trigcrystal.asymptotics import TRIPLE_ZERO_CRITICAL

print("arrival rate of new real zeros vs repulsion slope\n")
print(f"{'p':>4} {'v_p - v_(p-1)':>14} {'1/(2p^2)':>10} {'slope':>12} "
      f"{'pi^2/(8p^2)':>12}")
for p in (1, 3, 10, 30):
    print(f"{p:>4} {tc.new_real_fraction(p):>14.6f} {1 / (2 * p * p):>10.6f} "
          f"{tc.repulsion_slope(p):>12.6f} {np.pi**2 / (8 * p * p):>12.6f}")

print("\nthe bridged-gap construction:")
for a in (0.92, 1.0, 1.03, 1.05, 1.1):
    demo = tc.triple_zero_demo(a)
    print(f"  a = {a:<5}: derivative has {demo.derivative_zero_count} "
          f"real zero(s) in (0, 1)")

thr = tc.triple_zero_threshold()
print(f"\nbisected 3 -> 1 transition: a* = {thr:.6f}")
print(f"pitchfork constant sqrt(2/(pi^2-8)): {TRIPLE_ZERO_CRITICAL:.6f}")
print("(the derivative acquires a triple zero at x = 1/2 exactly there)")
