"""The full measurement: disorder-averaged relaxation between two bounds.

For the single-site observable under Bernoulli bias, one batch of walker
paths yields three curves at once: the annealed relaxation (per-site
Laplace weights), an upper bound driven by exp(-nu1 |R_t|), and a lower
bound driven by exp(-nu2 |R_t|). All three are stretched exponentials with
the same predicted exponent 1/3; their fitted exponents and the per-time
ordering are the checkable content at desk scale.
"""

import sys

import numpy as np

from biased_voter import bernoulli_law, site_indicator
from biased_voter.harness import (ExperimentConfig, sandwich_report,
                                  write_sandwich_csv)

config = ExperimentConfig(
    mode="sandwich",
    t_grid=tuple(float(t) for t in np.geomspace(10.0, 1000.0, 12)),
    replicas=100_000,          # the acceptance suite runs 10x this
    seed=2024,
    dim=1,
    law=bernoulli_law(0.5, 1.0),
    observable=site_indicator(0))

report = sandwich_report(config)

print(f"{'t':>8} {'lower':>12} {'estimate':>12} {'upper':>12}  ordering")
c = report.columns
for t, low, est, up, ok in zip(c["t"], c["lower"], c["estimate"], c["upper"], c["sandwich_ok"]):
    print(f"{t:8.1f} {low:12.3e} {est:12.3e} {up:12.3e}  {'ok' if ok else 'VIOLATED'}")

print(f"\ntarget exponent d/(d+alpha) = {report.gamma_target:.4f}")
for name, g in (("estimate", report.gamma_estimate),
                ("lower bound", report.gamma_lower),
                ("upper bound", report.gamma_upper)):
    print(f"fitted gamma [{name:11s}] = {g[0]:.4f} +- {g[1]:.4f}")
print(f"rate constants: c(nu1) = {report.constants['c_upper']:.4f} "
      f"< c(nu2) = {report.constants['c_lower']:.4f}")
print(f"ordering holds at every time: {report.ordering_ok}")
print(f"exponent bracket holds: {report.gamma_bracket_ok}")

out = sys.argv[1] if len(sys.argv) > 1 else "sandwich_demo.csv"
write_sandwich_csv(out, report)
print(f"\nfull curve written to {out}")
