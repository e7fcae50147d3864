"""Finding the strongest attack at a fixed QBER.

At a given error rate D the two-angle BB84 family still has one degree of
freedom. Scanning it shows the Devetak-Winter rate is minimized on the
diagonal x = y, where it equals the unconditionally-secure key rate
1 - 2 H(D) -- the family is strong enough to reach that bound.
"""

import math

from symqkd.rates import binary_entropy, general_rate_bb84, minimize_family_rate

for d in (0.02, 0.05, 0.11, 0.25):
    best = minimize_family_rate(d, grid=2000)
    target = 1.0 - 2.0 * binary_entropy(d)
    print(f"QBER D = {d}")
    x, y, rate = best["x_best"], best["y_best"], best["R_min"]
    print(f"  minimizer: x = {x:.6f}, y = {y:.6f}  (diagonal: x - y = {x - y:+.1e})")
    print(f"  R_min = {rate:+.9f}   1 - 2H(D) = {target:+.9f}   gap = {abs(rate - target):.1e}")
    print()

# The landscape itself, at D = 0.25: off-diagonal attacks leak less.
d = 0.25
print("rate along the fixed-QBER family at D = 0.25 (x in radians):")
for c in (0.40, 0.45, 0.50, 0.55, 0.60):
    x = math.acos(c)
    cy = (1.0 - c) / d - 2.0 + c
    y = math.acos(cy)
    tag = "  <- x = y" if abs(x - y) < 1e-12 else ""
    print(f"  x = {x:.4f}, y = {y:.4f}:  R = {general_rate_bb84(x, y):+.6f}{tag}")
