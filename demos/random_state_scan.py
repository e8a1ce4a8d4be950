#!/usr/bin/env python3
"""Monte Carlo test of the nonviolation conjecture at desk scale.

Draws 100,000 random pure two-qutrit states (independent re/im parts uniform
on the unit interval, then normalized), computes each state's spin-1 CHSH
parameter, and reports the maximum together with a concurrence histogram.
The run is reproducible: every sample is a pure function of (seed, index),
so the report is identical at any worker count.
"""

import numpy as np

from spinchsh import ScanConfig, run_scan

cfg = ScanConfig(n_samples=100_000, sampler="uniform", seed=42,
                 histogram_bins=24, workers=2)
report = run_scan(cfg)

print(f"samples            : {report.n_samples}")
print(f"max gamma          : {report.max_gamma:.6f}  (sample #{report.argmax_index})")
print(f"violations (>1)    : {report.violation_count}")
print(f"min concurrence    : {report.min_concurrence:.6f}  "
      f"(every sampled state is entangled)")

print()
print("concurrence histogram (counts over [0, 2/sqrt(3)]):")
peak = max(c for _, _, c in report.histogram)
for lo, hi, count in report.histogram:
    bar = "#" * int(round(40 * count / peak))
    print(f"  [{lo:.3f}, {hi:.3f})  {count:7d}  {bar}")

print()
print("first five samples, printed to two decimals (amplitudes then gamma):")
for amplitudes, gamma in report.sample_rows[:5]:
    amps = ", ".join(f"{a.real:+.2f}{a.imag:+.2f}j" for a in amplitudes)
    print(f"  {{{amps}}}  ->  {gamma:.2f}")

print()
if report.violation_count == 0:
    print("No sampled state violates the CHSH inequality under spin-1")
    print("measurements, in line with the nonviolation conjecture.")
else:
    print("Conjecture counterexample candidates were recorded in the report!")
    for index, gamma, state in report.violations:
        print(f"  sample {index}: gamma = {gamma!r}")
        print(f"  amplitudes: {state.amplitudes}")
