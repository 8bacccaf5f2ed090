"""Every engine, oracle and reference reads a site set by one rule, ``kernel.site_array``:
sites of the kernel's dimension, wrapped mod the side on a torus, no two equal once wrapped."""

import numpy as np
import pytest

from biased_voter import (bernoulli_law, dual_curve, exact_dual_value, fold_to_torus,
                          forward_relaxation, make_nn_kernel)
from biased_voter.dual import DualSimulation
from biased_voter.localfn import product_indicator
from biased_voter.walks import walk_curve

RING3 = fold_to_torus(make_nn_kernel(1), 3)
LAW = bernoulli_law(0.5, 1.0)
BETA = np.array([0.5, 1.0, 1.5])

ENTRY_POINTS = {
    "walk_curve": lambda sites: walk_curve(RING3, [1.0], 10, 0, starts=sites),
    "dual_curve": lambda sites: dual_curve(sites, RING3, [1.0], 10, 0, law=LAW),
    "DualSimulation": lambda sites: DualSimulation(sites, RING3, np.random.default_rng(0)),
    "forward_relaxation": lambda sites: forward_relaxation(
        product_indicator(sites), LAW, RING3, [1.0], 10, 0),
    "exact_dual_value": lambda sites: exact_dual_value(sites, BETA, RING3, 1.0),
}

BAD_SITE_SETS = {
    "repeated": [(1,), (1,)],
    "collide-after-wrapping": [(0,), (3,)],
    "wrong-dimension": [(0, 0)],
}


@pytest.mark.parametrize("sites", BAD_SITE_SETS.values(), ids=BAD_SITE_SETS)
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_bad_site_set_is_a_value_error(entry, sites):
    with pytest.raises(ValueError):
        entry(sites)


def test_dual_reference_visits_only_wrapped_sites():
    sim = DualSimulation([(5,)], RING3, np.random.default_rng(1))
    sim.advance_to(2.0)
    assert sim.visited <= {(0,), (1,), (2,)}
    assert sim.jumps > 0
