"""Every engine and exact oracle judges its time grid by one rule, ``stats.check_t_grid``:
nonempty, finite, strictly increasing and nonnegative, or a ``ConfigError`` naming t_grid."""

import math

import pytest

from biased_voter import (bernoulli_law, dual_curve, exact_range_functional_curve_1d,
                          fold_to_torus, forward_relaxation, make_nn_kernel, site_indicator)
from biased_voter.stats import ConfigError
from biased_voter.walks import walk_curve

NN1 = make_nn_kernel(1)
LAW = bernoulli_law(0.5, 1.0)

ENTRY_POINTS = {
    "walk_curve": lambda grid: walk_curve(NN1, grid, 10, 0),
    "dual_curve": lambda grid: dual_curve([(0,)], NN1, grid, 10, 0, law=LAW),
    "forward_relaxation": lambda grid: forward_relaxation(
        site_indicator(0), LAW, fold_to_torus(NN1, 8), grid, 10, 0),
    "exact_range_functional_curve_1d": lambda grid: exact_range_functional_curve_1d(
        1.0, grid, 100),
}

BAD_GRIDS = {
    "nan": [1.0, math.nan],
    "inf": [1.0, math.inf],     # the forward engine would run to it forever
    "negative": [-1.0, 3.0],
    "decreasing": [5.0, 1.0, 3.0],
    "repeated": [1.0, 1.0, 2.0],
    "empty": [],
}


@pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_bad_grid_is_a_config_error_naming_t_grid(entry, grid):
    with pytest.raises(ConfigError, match="t_grid"):
        entry(grid)
