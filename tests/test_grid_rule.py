"""Every engine and exact oracle judges its time grid by one rule, ``stats.check_t_grid``:
nonempty, finite, strictly increasing and nonnegative, or a ``ConfigError`` naming t_grid.
A single time, one a simulation advances to or a semigroup runs for, obeys
``stats.check_time``: finite and not before the current time; so does each
time of a grid a semigroup runs over."""

import math

import numpy as np
import pytest

from biased_voter import (bernoulli_law, dual_curve, exact, exact_range_functional_curve_1d,
                          fold_to_torus, forward_relaxation, make_nn_kernel, site_indicator)
from biased_voter.dual import DualSimulation
from biased_voter.exact import build_dual_matrix, semigroup_apply
from biased_voter.forward import ForwardSimulation
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


RING8 = fold_to_torus(NN1, 8)


def _forward():
    return ForwardSimulation(np.ones((2, 8), dtype=np.uint8), np.zeros(8), RING8,
                             np.random.default_rng(0))


def _semigroup(t):
    return semigroup_apply(build_dual_matrix(np.ones(8), RING8), np.ones(1 << 8), t)


SIMULATIONS = {
    "ForwardSimulation": _forward,
    "DualSimulation": lambda: DualSimulation([(0,), (2,)], RING8, np.random.default_rng(0)),
}


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("make", SIMULATIONS.values(), ids=SIMULATIONS)
def test_bad_single_time_is_rejected_before_the_state_moves(make, t):
    sim = make()
    sim.advance_to(1.0)
    with pytest.raises(ValueError, match="finite"):
        sim.advance_to(t)
    assert sim.time == 1.0
    sim.advance_to(1.0)     # advancing to the current time stays allowed
    with pytest.raises(ValueError, match="backwards"):
        sim.advance_to(0.5)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, [1.0, math.nan, math.inf, -1.0]],
                         ids=["nan", "inf", "negative", "in-a-grid"])
def test_bad_semigroup_time_is_a_value_error(t, monkeypatch):
    def uniformize(*args):
        raise AssertionError("a bad time must be rejected before the uniformization starts")

    monkeypatch.setattr(exact, "_uniformize", uniformize)
    with pytest.raises(ValueError, match="finite|backwards"):
        _semigroup(t)
