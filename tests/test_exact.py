import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm, poisson

from biased_voter.exact import (_mean_range_1d, _set_rank, build_dual_matrix,
                                build_forward_generator, duality_gap,
                                exact_dual_value, exact_dual_values_all,
                                exact_forward_values_all,
                                exact_range_functional_curve_1d,
                                product_indicator_vector, semigroup_apply)
from biased_voter.kernel import fold_to_torus, make_nn_kernel, make_power_kernel
from biased_voter.rangestats import (dv_constant, effective_exponent, lambda_nn,
                                     mc_range_functional)
from biased_voter.walks import walk_curve
from references import dual_matrix_reference, sites_to_mask

NN1 = make_nn_kernel(1)


# Reference solver for E^0 exp(-nu |R_t|): the lumped (offset, width) chain
# stepped one embedded jump at a time, mixed with Poisson jump-count weights,
# and its Gaussian width check. The closed form is checked against it.

def reference_width_check(t, width_cap):
    """Raise ValueError unless P(width > cap) < 1e-12 for a Brownian surrogate."""
    mean = np.sqrt(8.0 * t / np.pi)
    sd = np.sqrt((4.0 * np.log(2.0) - 8.0 / np.pi) * t)
    if sd > 0.0 and norm.sf((width_cap - mean) / sd) >= 1e-12:
        raise ValueError(f"width_cap={width_cap} too small for t={t}")


def reference_range_panel(nu, t_grid, width_cap):
    """Panel phi[w, j] (width w, offset j) per jump; width gains weigh exp(-nu)."""
    t_arr = np.asarray(t_grid, dtype=np.float64)
    t_max = float(t_arr.max())
    reference_width_check(t_max, width_cap)
    n_steps = int(t_max + 12.0 * np.sqrt(t_max + 1.0) + 60.0)
    decay = np.exp(-nu)
    cap = width_cap
    phi = np.zeros((cap + 1, cap + 1))
    phi[1, 0] = decay  # the start site is already visited
    interior_right = np.zeros((cap + 1, cap + 1), dtype=bool)
    for w in range(1, cap + 1):
        interior_right[w, : max(w - 1, 0)] = True
    diag_rows = np.arange(1, cap)
    series = np.empty(n_steps + 1)
    series[0] = phi.sum()
    for k in range(1, n_steps + 1):
        new = np.zeros_like(phi)
        new[:, :-1] += 0.5 * phi[:, 1:]
        new[:, 1:] += 0.5 * np.where(interior_right, phi, 0.0)[:, :-1]
        new[2:, 0] += 0.5 * decay * phi[1:-1, 0]
        new[diag_rows + 1, diag_rows] += 0.5 * decay * phi[diag_rows, diag_rows - 1]
        phi = new
        series[k] = phi.sum()
    ks = np.arange(n_steps + 1)
    return np.array([np.dot(poisson.pmf(ks, t), series) for t in t_arr])


def passing_cap(nu, t):
    """Smallest cap, in steps of 5, that both width checks accept."""
    cap = 5
    while True:
        try:
            reference_width_check(t, cap)
            exact_range_functional_curve_1d(nu, [t], cap)
            return cap
        except ValueError:
            cap += 5


class TestForwardGenerator:
    def test_two_site_rates_by_hand(self):
        # on a ring of 2 the only partner is the other site, so from (1,0)
        # both sites flip at rate 1
        gen = build_forward_generator(np.zeros(2), fold_to_torus(NN1, 2))
        m = gen.toarray()
        assert m[1, 0] == pytest.approx(1.0)
        assert m[1, 3] == pytest.approx(1.0)
        assert m[1, 1] == pytest.approx(-2.0)
        assert m[0, 1] == 0.0 and m[0, 2] == 0.0  # all-zeros is a trap

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        tk = fold_to_torus(NN1, 5)
        gen = build_forward_generator(rng.uniform(0, 2, 5), tk)
        rows = np.asarray(gen.sum(axis=1)).ravel()
        assert np.abs(rows).max() < 1e-12

    def test_single_site_torus_rejected(self):
        with pytest.raises(ValueError):
            fold_to_torus(NN1, 1)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            build_forward_generator(np.zeros(13), fold_to_torus(NN1, 13))


class TestSemigroup:
    def test_t_zero_is_identity(self):
        gen = build_forward_generator(np.ones(3), fold_to_torus(NN1, 3))
        g = np.arange(8.0)
        assert np.array_equal(semigroup_apply(gen, g, 0.0), g)
        assert np.array_equal(semigroup_apply(gen, g, (0.0, 2.0, 0.0))[[0, 2]], [g, g])

    def test_grid_pass_equals_one_pass_per_time(self):
        # the grid's pass takes the term count of its largest time; the terms
        # past a smaller time's own count are below the rounding of its sum
        tk = fold_to_torus(NN1, 8)
        beta = np.random.default_rng(8).uniform(0.0, 2.0, 8)
        grid = (0.0, 0.1, 1.0, 10.0, 30.0)
        for values in (exact_dual_values_all, exact_forward_values_all):
            together = values(beta, tk, grid)
            alone = np.array([values(beta, tk, t) for t in grid])
            assert together.shape == alone.shape == (5, 256)
            assert np.all(np.abs(together - alone) <= 1e-15 * np.abs(alone)), values
        assert np.array_equal(exact_dual_value([(0,), (3,)], beta, tk, grid),
                              [exact_dual_value([(0,), (3,)], beta, tk, t) for t in grid])
        gaps = duality_gap(beta, tk, grid)
        assert gaps.shape == (5,) and np.all(gaps < 1e-10)

    def test_peak_memory_does_not_grow_with_t(self):
        # the powers are summed as they come: a (terms x states) table would
        # hold about 2500 x 4096 entries at t = 100, ten times its size at t = 10
        dual = build_dual_matrix(np.ones(12), fold_to_torus(NN1, 12))
        ones = np.ones(dual.shape[0])
        peaks = []
        for t in (10.0, 100.0):
            tracemalloc.start()
            try:
                semigroup_apply(dual, ones, t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_two_site_half_life(self):
        # from (1,0): P(still mixed) = exp(-2t), absorbed half up, half down
        gen = build_forward_generator(np.zeros(2), fold_to_torus(NN1, 2))
        g = product_indicator_vector(2, 1)  # indicator of eta(0) = 1
        for t in (0.3, 1.0, 2.5):
            val = semigroup_apply(gen, g, t)[1]
            assert val == pytest.approx(0.5 * (1 + math.exp(-2 * t)), abs=1e-10)

    def test_probability_conservation(self):
        rng = np.random.default_rng(4)
        tk = fold_to_torus(NN1, 4)
        gen = build_forward_generator(rng.uniform(0, 3, 4), tk)
        for t in (0.1, 1.0, 10.0):
            out = semigroup_apply(gen, np.ones(16), t)
            assert np.abs(out - 1.0).max() < 1e-10

    def test_constant_bias_single_site_decay(self):
        # duality with a deterministic weight: E^1[eta_t(0)] = exp(-b t)
        b = 0.8
        tk = fold_to_torus(NN1, 3)
        gen = build_forward_generator(np.full(3, b), tk)
        g = product_indicator_vector(3, 1)
        for t in (0.5, 2.0):
            val = semigroup_apply(gen, g, t)[7]
            assert val == pytest.approx(math.exp(-b * t), abs=1e-10)


class TestExactDual:
    def test_empty_set_is_one(self):
        tk = fold_to_torus(NN1, 3)
        for t in (0.0, 1.0, 10.0):
            assert exact_dual_value([], np.ones(3), tk, t) == pytest.approx(1.0, abs=1e-10)

    def test_zero_bias_is_one(self):
        tk = fold_to_torus(NN1, 3)
        vals = exact_dual_values_all(np.zeros(3), tk, 5.0)
        assert np.abs(vals - 1.0).max() < 1e-10

    def test_duality_identity_random_fields(self):
        # forward expectation of the product indicator from all-ones must
        # equal the killed dual value, both computed independently; the
        # per-subset loop is the reference the adjoint route is checked against
        rng = np.random.default_rng(5)
        tk = fold_to_torus(NN1, 3)
        for _ in range(5):
            beta = rng.uniform(0, 2, 3)
            gen = build_forward_generator(beta, tk)
            for t in (0.1, 1.0, 10.0):
                dual = exact_dual_values_all(beta, tk, t)
                adjoint = exact_forward_values_all(beta, tk, t)
                for mask in range(1, 8):
                    g = product_indicator_vector(3, mask)
                    fwd = semigroup_apply(gen, g, t)[7]
                    assert abs(fwd - dual[mask]) < 1e-10
                    assert abs(fwd - adjoint[mask]) < 1e-10
                assert duality_gap(beta, tk, t) < 1e-10

    def test_dual_rows_sum_to_minus_kill_rate(self):
        beta = np.array([0.5, 1.5, 0.0])
        tk = fold_to_torus(NN1, 3)
        m = build_dual_matrix(beta, tk)
        rows = np.asarray(m.sum(axis=1)).ravel()
        for mask in range(8):
            kill = sum(beta[i] for i in range(3) if mask >> i & 1)
            assert rows[mask] == pytest.approx(-kill, abs=1e-12)


class TestDualFromASet:
    """``exact_dual_value`` runs the killed dual over the sets of at most |A| sites."""

    @pytest.mark.parametrize("kernel, side", [
        (NN1, 3), (NN1, 12), (make_nn_kernel(2), 3), (make_power_kernel(1.0, 4), 4),
        (make_power_kernel(0.7, 9), 11),
    ], ids=["nn1-3", "nn1-12", "nn2-3", "power-1-4", "power-0.7-11"])
    def test_matches_the_all_subsets_dual(self, kernel, side):
        tk = fold_to_torus(kernel, side)
        beta = np.random.default_rng(2).uniform(0.0, 2.0, tk.n_sites)
        for t in (0.1, 1.0, 5.0):
            full = exact_dual_values_all(beta, tk, t)
            for flat in ([0], [0, 1], [0, 2], [0, 1, 2]):
                sites = [tuple(c) for c in tk.coords[flat]]
                value = exact_dual_value(sites, beta, tk, t)
                assert abs(value - full[sites_to_mask(sites, tk)]) < 1e-12, (sites, t)

    @pytest.mark.parametrize("kernel, side", [
        (NN1, 2), (NN1, 3), (NN1, 4), (NN1, 12), (make_nn_kernel(2), 2), (make_nn_kernel(2), 3),
        (make_nn_kernel(3), 2), (make_power_kernel(1.0, 4), 4), (make_power_kernel(0.7, 9), 11),
    ], ids=["nn1-2", "nn1-3", "nn1-4", "nn1-12", "nn2-2", "nn2-3", "nn3-2", "power-1-4",
            "power-0.7-11"])
    def test_matrix_is_the_all_subsets_matrix_restricted(self, kernel, side):
        # entry for entry against the bit-mask reference: biases in eighths keep every sum exact
        tk = fold_to_torus(kernel, side)
        n = tk.n_sites
        beta = np.random.default_rng(3).integers(0, 17, n) / 8.0
        full = dual_matrix_reference(beta, tk)
        assert (build_dual_matrix(beta, tk) != full).nnz == 0
        for mask in sorted({0, 1, 3, 5, 0b1011, (1 << n) - 1} & set(range(1 << n))):
            sites = [i for i in range(n) if mask >> i & 1]
            mat = build_dual_matrix(beta, tk, len(sites))
            states = [m for m in range(1 << n) if m.bit_count() <= len(sites)]
            assert states[_set_rank(sites)] == mask
            assert mat.shape == (len(states), len(states))
            assert (mat != full[states][:, states]).nnz == 0, mask
        # uniform biases: the reference's pattern, each entry to 1e-14 relative (the two
        # diagonals sum the biases in different orders)
        for seed in range(3):
            beta = np.random.default_rng(seed).uniform(0.0, 2.0, n)
            mat, ref = build_dual_matrix(beta, tk), dual_matrix_reference(beta, tk)
            assert np.array_equal(mat.indptr, ref.indptr)
            assert np.array_equal(mat.indices, ref.indices)
            assert np.all(np.abs(mat.data - ref.data) <= 1e-14 * np.abs(ref.data))

    def test_states_beyond_sixty_three_sites(self):
        # a 64-site torus: masks pass int64, ranks do not; a row sums to minus its kill rate
        tk = fold_to_torus(make_nn_kernel(2), 8)
        beta = np.arange(64) / 8.0
        mat = build_dual_matrix(beta, tk, 2)
        row = _set_rank(tk.flat_index(np.array([[0, 0], [7, 7]])).tolist())
        kill = -np.asarray(mat.sum(axis=1)).ravel()
        assert mat.shape == (2081, 2081)
        assert kill[row] == beta[0] + beta[63]
        assert list(kill[:5]) == [0.0, beta[0], beta[1], beta[0] + beta[1], beta[2]]
        pairs = [beta[a] + beta[b] for a, b in itertools.combinations(range(64), 2)]
        assert np.array_equal(np.sort(kill), np.sort([0.0, *beta, *pairs]))

    def test_state_count(self):
        tk = fold_to_torus(make_nn_kernel(2), 4)
        assert build_dual_matrix(np.ones(16), tk, 2).shape == (137, 137)
        big = fold_to_torus(make_nn_kernel(2), 8)
        with pytest.raises(ValueError, match="43745"):
            exact_dual_value([(0, 0), (1, 1), (2, 2)], np.ones(64), big, 1.0)

    @pytest.mark.parametrize("start", [[(0, 0), (1, 1)], [(0, 0), (0, 1)]],
                             ids=["diagonal", "neighbors"])
    def test_two_sites_on_sixteen_match_quenched_walks(self, start):
        tk = fold_to_torus(make_nn_kernel(2), 4)
        beta = np.random.default_rng(np.random.SeedSequence([50, 0])).uniform(0.0, 2.0, 16)
        times = (0.5, 2.0)
        stats = walk_curve(tk, times, 40_000, 51, bias=beta, starts=start)
        for j, t in enumerate(times):
            target = exact_dual_value(start, beta, tk, t)
            assert abs(stats.weight_mean[j] - target) < 4 * stats.weight_stderr[j], f"t={t}"


class TestRangeFunctional:
    def test_at_zero(self):
        for nu in (0.25, 1.0, 3.0):
            assert exact_range_functional_curve_1d(nu, [0.0], 30)[0] == pytest.approx(
                math.exp(-nu), abs=1e-12)

    def test_first_jump_expansion(self):
        # F(t) = e^-nu - t e^-nu (1 - e^-nu) + O(t^2)
        nu, t = 1.0, 0.01
        val = exact_range_functional_curve_1d(nu, [t], 30)[0]
        first_order = math.exp(-nu) * (1.0 - t * (1.0 - math.exp(-nu)))
        assert abs(val - first_order) < 1e-4

    def test_decreasing_in_time_and_nu(self):
        grid = np.linspace(0.0, 30.0, 13)
        v1 = exact_range_functional_curve_1d(0.5, grid, 80)
        v2 = exact_range_functional_curve_1d(1.5, grid, 80)
        assert np.all(np.diff(v1) < 0)
        assert np.all(np.diff(v2) < 0)
        assert np.all(v2 < v1)

    def test_width_cap_guard(self):
        with pytest.raises(ValueError, match="width_cap"):
            exact_range_functional_curve_1d(1.0, [2000.0], 50)

    def test_cap_below_one_rejected(self):
        # at cap 0 the remainder bound would read P(J > -1) and be no bound
        with pytest.raises(ValueError, match="width_cap"):
            exact_range_functional_curve_1d(0.5, [3.0], 0)

    @settings(max_examples=20, deadline=None)
    @given(nu=st.floats(0.2, 3.0), t=st.floats(0.0, 300.0), slack=st.integers(0, 20))
    def test_closed_form_matches_panel(self, nu, t, slack):
        cap = passing_cap(nu, t) + slack
        grid = sorted({t / 3.0, t})   # a grid repeats no time, so t = 0 is one point
        got = exact_range_functional_curve_1d(nu, grid, cap)
        want = reference_range_panel(nu, grid, cap)
        assert np.all(np.abs(got - want) <= 1e-11 * want)

    def test_mean_range_matches_monte_carlo(self):
        ts = [1.0, 10.0, 100.0]
        curve = mc_range_functional(NN1, 1.0, ts, 20_000, seed=12)
        exact = _mean_range_1d(np.array(ts))
        assert np.all(np.abs(curve.range_mean - exact) <= 4.0 * curve.range_stderr)

    def test_donsker_varadhan_approach(self):
        # -log F / t^(1/3) climbs toward the rate constant c(1) = 3.2175
        ts = np.array([1e4, 1e5, 1e6])
        rate = -np.log(exact_range_functional_curve_1d(1.0, ts, 420)) / ts ** (1.0 / 3.0)
        assert rate == pytest.approx([2.938, 3.063, 3.135], abs=1e-3)
        assert np.all(np.diff(rate) > 0)
        assert rate[-1] < dv_constant(1, 2.0, lambda_nn(1), 1.0)

    def test_local_exponent_decreasing_at_large_times(self, exact_series_nu1):
        ts, values = exact_series_nu1
        slopes = [s for _, s in effective_exponent(list(zip(ts, values)))]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))


class TestRangeChain:
    def test_first_jump_oracle_matches_solver(self):
        # one-step expansion: from the fresh walk (offset 0, width 1) both
        # neighbors widen, each at rate 1/2, so one jump weighs decay**2
        nu, t = 0.7, 0.008
        decay = math.exp(-nu)
        series = math.exp(-t) * (decay + t * decay ** 2)
        assert exact_range_functional_curve_1d(nu, [t], 30)[0] == pytest.approx(series, abs=5e-5)
