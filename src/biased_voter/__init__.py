"""Simulation and verification toolkit for the biased random voter model.

Opinions 0/1 on a lattice evolve by copying random neighbors; an i.i.d.
nonnegative bias per site pushes opinions to 0. The package simulates the
forward dynamics on finite tori, the coalescing dual process with
multiplicative path weights, exact small-system oracles, and the range
statistics that control the stretched-exponential relaxation exp(-c t^g)
with g = d/(d+alpha).
"""

from .disorder import BiasField, bernoulli_law, deterministic_law, laplace, nu1, nu2
from .dual import dual_curve
from .forward import forward_relaxation
from .kernel import fold_to_torus, make_nn_kernel, make_power_kernel
from .localfn import site_indicator
from .rangestats import dv_constant, effective_exponent, lambda_nn, mc_range_functional

__version__ = "0.1.0"

# the exact oracles need scipy, which takes several times longer to import
# than the rest of the package; they are imported on first access (PEP 562)
_EXACT = ("duality_gap", "exact_dual_value", "exact_range_functional_curve_1d")


def __getattr__(name):
    if name in _EXACT:
        from . import exact
        return getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
