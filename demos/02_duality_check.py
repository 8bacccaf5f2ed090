"""The duality identity, exactly and by Monte Carlo.

The forward expectation of a product indicator from the all-ones start
equals the expectation of exp(-accumulated bias) along the coalescing dual
started from the indicator's sites. On a 3-site ring both sides can be
computed exactly for every subset at once: ``duality_gap`` evolves the
all-ones configuration to the law of eta_t by one adjoint uniformization,
reads every product-indicator expectation off its superset sums, and
compares them with the killed-dual semigroup. The script then confirms
that the two Monte Carlo routes (event-driven forward dynamics, weighted
dual walks) land on the same number.
"""

import numpy as np

from biased_voter import (BiasField, dual_curve, duality_gap, exact_dual_value,
                          fold_to_torus, forward_relaxation, make_nn_kernel,
                          site_indicator)
from biased_voter.cli import DUALITY_TOL

side = 3
kernel = make_nn_kernel(1)
tk = fold_to_torus(kernel, side)
rng = np.random.default_rng(42)
beta = rng.uniform(0.0, 2.0, side)
field = BiasField({(i,): float(beta[i]) for i in range(side)})
print(f"ring of {side} sites, bias field {np.round(beta, 3)}")

# the gap itself is rounding noise; what the identity promises is the bound
print("\n== exact identity, every subset ==")
times = (0.5, 2.0)
for t, gap in zip(times, duality_gap(beta, tk, times)):
    status = "PASS" if gap <= DUALITY_TOL else "FAIL"
    print(f"t={t}: max |forward - dual| over subsets: {status} (tolerance {DUALITY_TOL:g})")

print("\n== the same number from the two simulators ==")
t = 1.0
replicas = 40_000
target = exact_dual_value([(0,)], beta, tk, t)
fwd_mean, fwd_se = forward_relaxation(site_indicator(0), field, tk, [t],
                                      replicas, seed=1)
dual = dual_curve([(0,)], tk, [t], replicas, seed=2, bias=field)
print(f"exact value              : {target:.6f}")
print(f"forward Monte Carlo      : {fwd_mean[0]:.6f} +- {fwd_se[0]:.6f}")
print(f"weighted dual Monte Carlo: {dual.weight_mean[0]:.6f} +- {dual.weight_stderr[0]:.6f}")
