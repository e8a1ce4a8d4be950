#!/usr/bin/env python3
"""Entanglement versus CHSH parameter along the one-parameter families.

Emits the data behind the two curve plots: for each t on a grid, the
concurrence and the spin-1 CHSH parameter of the family member.  The first
family keeps gamma pinned at 1 while its entanglement rises and falls; the
second grows maximally entangled while gamma *decreases* to sqrt(8/9).
A Werner sweep over the mixing parameter is appended.
"""

import numpy as np

from spinchsh import Example1, Example2, Werner, analytic_concurrence, analytic_gamma

GRID = np.linspace(*Example1.interval, 21)  # the t interval Example1 and Example2 share

print("# family 1: (1-t)|11> + t|33>, normalized")
print("t,gamma,concurrence")
for t in GRID:
    spec = Example1(float(t))
    print(f"{t:.2f},{analytic_gamma(spec):.10f},{analytic_concurrence(spec):.10f}")

print()
print("# family 2: |11> -> GHZ ramp")
print("t,gamma,concurrence")
for t in GRID:
    spec = Example2(float(t))
    print(f"{t:.2f},{analytic_gamma(spec):.10f},{analytic_concurrence(spec):.10f}")

print()
print("# Werner family (no pure-state concurrence; mixed for phi < 0 nonseparable)")
print("phi,gamma")
for phi in np.linspace(*Werner.interval, 21):
    print(f"{phi:+.2f},{analytic_gamma(Werner(float(phi))):.10f}")

print()
print("Family 1 shows constant gamma with varying entanglement; family 2 shows")
print("gamma falling while entanglement climbs to its maximum 2/sqrt(3).")
