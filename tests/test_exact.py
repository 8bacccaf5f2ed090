import math

import numpy as np
import pytest

from biased_voter.exact import (build_dual_matrix, build_forward_generator,
                                duality_gap, exact_dual_value,
                                exact_dual_values_all, exact_forward_values_all,
                                exact_range_functional_1d,
                                exact_range_functional_curve_1d,
                                product_indicator_vector, semigroup_apply)
from biased_voter.kernel import fold_to_torus, make_nn_kernel
from biased_voter.rangestats import effective_exponent

NN1 = make_nn_kernel(1)


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


class TestRangeFunctional:
    def test_at_zero(self):
        for nu in (0.25, 1.0, 3.0):
            assert exact_range_functional_1d(nu, 0.0, 30) == pytest.approx(
                math.exp(-nu), abs=1e-12)

    def test_first_jump_expansion(self):
        # F(t) = e^-nu - t e^-nu (1 - e^-nu) + O(t^2)
        nu, t = 1.0, 0.01
        val = exact_range_functional_1d(nu, t, 30)
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
            exact_range_functional_1d(1.0, 2000.0, 50)

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
        assert exact_range_functional_1d(nu, t, 30) == pytest.approx(series, abs=5e-5)
