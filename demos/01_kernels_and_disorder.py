"""Kernels and disorder laws: the two static ingredients of the model.

A displacement kernel drives both the opinion resampling and the dual
walks; a disorder law assigns each site an i.i.d. nonnegative bias toward
opinion 0. This script builds the standard kernels, checks the small-k
stability expansion, folds a kernel onto a torus, and evaluates the two
decay constants of a few laws.
"""

import math

import numpy as np

from biased_voter import (bernoulli_law, deterministic_law, fold_to_torus,
                          laplace, make_nn_kernel, make_power_kernel, nu1, nu2)


def p_hat(kernel, k):
    """The characteristic function sum_x p(x) cos(<k, x>)."""
    return float(np.dot(kernel.weights, np.cos(kernel.displacements @ np.asarray(k, float))))


print("== nearest-neighbor kernels ==")
for d in (1, 2, 3):
    k = make_nn_kernel(d)
    kk = np.full(d, 0.1)
    phat = p_hat(k, kk)
    # p_hat(k) = 1 - k.D.k + O(|k|^4), and p_hat < 1 off 2 pi Z^d
    residual = abs(phat - 1.0 + kk @ k.dmatrix @ kk) / (kk @ kk)
    print(f"d={d}: {len(k.weights)} displacements, "
          f"quadratic coefficient {k.dmatrix[0, 0]:.4f}, "
          f"small-k residual {residual:.2e}, "
          f"aperiodic={phat < 1.0 - 1e-9}")

print("\n== truncated power-law kernel (heavy tails, alpha < 2) ==")
k = make_power_kernel(alpha=1.0, cutoff=1000)
print(f"alpha=1, cutoff=1000: fitted tail constant {k.tail_constant:.5f}")
for kk in (0.01, 0.05, 0.1):
    print(f"  1 - p_hat({kk}) = {1 - p_hat(k, [kk]):.6f}   "
          f"c*|k| = {k.tail_constant * kk:.6f}")

print("\n== folding onto a ring of 4 ==")
tk = fold_to_torus(make_nn_kernel(1), 4)
folded = dict(zip(map(tuple, tk.displacements.tolist()), tk.weights.tolist()))
print(f"folded weights: {folded}")

print("\n== disorder laws and their decay constants ==")
for name, law in (("deterministic b=1", deterministic_law(1.0)),
                  ("bernoulli q=0.5 b=1", bernoulli_law(0.5, 1.0)),
                  ("bernoulli q=0.9 b=4", bernoulli_law(0.9, 4.0))):
    n2 = nu2(law)
    n2_str = f"{n2:.4f}" if math.isfinite(n2) else "inf"
    print(f"{name:22s}: nu1={nu1(law):.4f}  nu2={n2_str}  "
          f"laplace(1)={laplace(law, 1.0):.4f}  "
          f"jensen bound log(1+mean)={math.log(1 + law.mean_bias):.4f}")
