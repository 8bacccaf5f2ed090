"""Simulation and verification toolkit for the biased random voter model.

Opinions 0/1 on a lattice evolve by copying random neighbors; an i.i.d.
nonnegative bias per site pushes opinions to 0. The package simulates the
forward dynamics on finite tori, the coalescing dual process with
multiplicative path weights, exact small-system oracles, and the range
statistics that control the stretched-exponential relaxation exp(-c t^g)
with g = d/(d+alpha).
"""

from .disorder import (BiasField, DisorderLaw, LazyBiasField, bernoulli_law,
                       deterministic_law, laplace, nu1, nu2, sample_field)
from .dual import (DualCurve, DualSimulation, DualState, RangeTracker,
                   annealed_dual_expectation, coupled_dual_walker_ranges,
                   dual_curve, dual_evolve, independent_walkers_range,
                   quenched_dual_expectation)
from .exact import (build_dual_matrix, build_forward_generator, duality_gap,
                    exact_dual_value, exact_dual_values_all,
                    exact_forward_values_all, exact_range_functional_1d,
                    exact_range_functional_curve_1d, product_indicator_vector,
                    semigroup_apply)
from .forward import (Configuration, CoupledForwardSimulation, Event, EventLog,
                      ForwardSimulation, all_ones, all_zeros, coupled_evolve,
                      evolve, first_flip_site, forward_relaxation)
from .kernel import (AssumptionReport, Kernel, TorusKernel, char_fn,
                     fold_to_torus, make_nn_kernel, make_power_kernel,
                     verify_assumption)
from .localfn import (LocalFunction, Lemma2Report, eval_H, gap, hat_coeffs,
                      is_monotone, lemma1_check, lemma2_verify,
                      parse_localfn_text, sigma_and_support, site_indicator)
from .rangestats import (DVConstant, RangeCurve, dv_constant,
                         effective_exponent, lambda_nn, mc_range_functional)

__version__ = "0.1.0"
