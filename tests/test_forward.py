import math

import numpy as np
import pytest

from biased_voter.disorder import bernoulli_law, sample_field
from biased_voter.forward import (Configuration, Event, EventLog,
                                  CoupledForwardSimulation, all_ones, all_zeros,
                                  coupled_evolve, evolve, first_flip_site,
                                  forward_relaxation)
from biased_voter.kernel import fold_to_torus, make_nn_kernel
from biased_voter.localfn import LocalFunction, site_indicator

NN1 = make_nn_kernel(1)


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


class TestAbsorbingStates:
    def test_all_ones_absorbing_without_bias(self):
        tk = fold_to_torus(NN1, 6)
        out = evolve(all_ones(6, 1), np.zeros(6), tk, 20.0, rng_for(1))
        assert out.opinions.tolist() == [1] * 6

    def test_all_zeros_absorbing_with_any_bias(self):
        tk = fold_to_torus(NN1, 6)
        out = evolve(all_zeros(6, 1), np.full(6, 3.0), tk, 20.0, rng_for(2))
        assert out.opinions.tolist() == [0] * 6


class TestTwoSiteMasterEquation:
    def test_monte_carlo_matches_hand_solution(self):
        # from (1,0) with no bias: E[eta_t(0)] = (1 + exp(-2t)) / 2
        tk = fold_to_torus(NN1, 2)
        t = 0.7
        n = 20_000
        total = 0
        for r in range(n):
            out = evolve(Configuration(2, 1, [1, 0]), np.zeros(2), tk, t, rng_for(3, r))
            total += int(out.opinions[0])
        mean = total / n
        exact = 0.5 * (1 + math.exp(-2 * t))
        stderr = math.sqrt(exact * (1 - exact) / n)
        assert abs(mean - exact) < 4 * stderr


class TestCoupling:
    def test_equal_inputs_stay_equal(self):
        tk = fold_to_torus(NN1, 5)
        start = Configuration(5, 1, [1, 0, 1, 0, 0])
        low, high = coupled_evolve(start, start.copy(), np.full(5, 0.5), tk, 5.0, rng_for(4))
        assert np.array_equal(low.opinions, high.opinions)

    def test_zero_start_keeps_order(self):
        tk = fold_to_torus(NN1, 5)
        low, high = coupled_evolve(all_zeros(5, 1), all_ones(5, 1),
                                   np.full(5, 0.5), tk, 5.0, rng_for(5))
        assert low.opinions.tolist() == [0] * 5
        assert np.all(low.opinions <= high.opinions)

    def test_violating_precondition_rejected(self):
        tk = fold_to_torus(NN1, 3)
        with pytest.raises(ValueError):
            coupled_evolve(all_ones(3, 1), all_zeros(3, 1), np.zeros(3), tk, 1.0, rng_for(6))

    def test_random_ordered_pairs_stay_ordered(self):
        tk = fold_to_torus(NN1, 8)
        law = bernoulli_law(0.5, 1.0)
        for r in range(100):
            rng = rng_for(7, r)
            high_bits = (rng.random(8) < 0.7).astype(np.uint8)
            low_bits = (high_bits & (rng.random(8) < 0.6)).astype(np.uint8)
            field = sample_field(law, [(i,) for i in range(8)], rng)
            low, high = coupled_evolve(Configuration(8, 1, low_bits),
                                       Configuration(8, 1, high_bits),
                                       field, tk, 3.0, rng)
            assert np.all(low.opinions <= high.opinions)


class TestEventLog:
    def test_times_strictly_increasing(self):
        log = EventLog()
        tk = fold_to_torus(NN1, 4)
        evolve(all_ones(4, 1), np.full(4, 1.0), tk, 2.0, rng_for(8), log=log)
        times = [e.time for e in log.events]
        assert len(times) > 0
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_partner_only_on_resamples(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.append(Event(1.0, 0, "kill", partner=2))
        with pytest.raises(ValueError):
            log.append(Event(1.0, 0, "resample", partner=None))
        log.append(Event(1.0, 0, "resample", partner=1))
        with pytest.raises(ValueError):
            log.append(Event(1.0, 1, "kill"))  # not increasing


class TestRateAudit:
    def test_first_flip_distribution_matches_rates(self):
        # frozen configuration on a ring of 4; the first configuration
        # change happens at site x with probability c(x) / sum c
        side = 4
        tk = fold_to_torus(NN1, side)
        beta = np.array([0.7, 0.0, 1.9, 0.3])
        config = Configuration(side, 1, [1, 0, 1, 1])
        rates = np.empty(side)
        for x in range(side):
            partners = [(x - 1) % side, (x + 1) % side]
            agree = sum(0.5 * (config.opinions[p] != config.opinions[x]) for p in partners)
            rates[x] = beta[x] * config.opinions[x] + agree
        probs = rates / rates.sum()
        n = 100_000
        counts = np.zeros(side)
        for r in range(n):
            site = first_flip_site(config, beta, tk, rng_for(9, r))
            counts[site] += 1
        for x in range(side):
            se = math.sqrt(probs[x] * (1 - probs[x]) / n)
            assert abs(counts[x] / n - probs[x]) < 4 * se, f"site {x}"

    @pytest.mark.parametrize("config, beta", [(all_zeros(4, 1), 1.0), (all_ones(4, 1), 0.0)],
                             ids=["all_zeros", "all_ones_unbiased"])
    def test_first_flip_none_when_nothing_can_change(self, config, beta):
        # no kill hits a 1 and no resample copies a differing opinion, so the
        # default t_max = inf must not wait for a flip
        tk = fold_to_torus(NN1, 4)
        assert first_flip_site(config, np.full(4, beta), tk, rng_for(10)) is None


class TestForwardRelaxation:
    def test_time_zero_is_exact(self):
        tk = fold_to_torus(NN1, 4)
        mean, stderr = forward_relaxation(site_indicator(0), np.zeros(4), tk,
                                          [0.0], 50, seed=1)
        assert mean[0] == 1.0
        assert stderr[0] == 0.0

    def test_constant_observable_gives_zero(self):
        tk = fold_to_torus(NN1, 4)
        f = LocalFunction([], [2.0])
        mean, stderr = forward_relaxation(f, np.ones(4), tk, [0.5, 1.0], 50, seed=2)
        assert np.all(mean == 0.0)
        assert np.all(stderr == 0.0)

    def test_constant_bias_decay(self):
        # with constant bias the dual path weight is deterministic exp(-bt)
        b = 1.2
        tk = fold_to_torus(NN1, 8)
        t_grid = [0.5, 1.5]
        mean, stderr = forward_relaxation(site_indicator(0), np.full(8, b), tk,
                                          t_grid, 30_000, seed=3)
        for j, t in enumerate(t_grid):
            assert abs(mean[j] - math.exp(-b * t)) < 4 * stderr[j]

    def test_monotone_observable_decays(self):
        # uniformly positive bias: the curve must trend down beyond noise
        tk = fold_to_torus(NN1, 6)
        t_grid = [0.5, 1.0, 2.0, 4.0]
        mean, stderr = forward_relaxation(site_indicator(0), np.full(6, 1.0), tk,
                                          t_grid, 4000, seed=4)
        x = np.asarray(t_grid)
        slope = np.polyfit(x, mean, 1)[0]
        slope_se = math.sqrt(np.sum(stderr ** 2) / np.sum((x - x.mean()) ** 2))
        assert slope <= 4 * slope_se

    def test_support_must_fit_in_torus(self):
        tk = fold_to_torus(NN1, 4)
        f = LocalFunction([(0,), (4,)], [0.0, 0.0, 0.0, 1.0])  # 4 wraps onto 0
        with pytest.raises(ValueError, match="collide"):
            forward_relaxation(f, np.zeros(4), tk, [1.0], 10, seed=5)

    def test_bias_mismatch_rejected(self):
        tk = fold_to_torus(NN1, 4)
        with pytest.raises(ValueError):
            forward_relaxation(site_indicator(0), np.zeros(3), tk, [1.0], 10, seed=6)

    def test_thread_count_does_not_change_results(self):
        tk = fold_to_torus(NN1, 4)
        args = (site_indicator(0), np.full(4, 0.5), tk, [0.5, 1.5], 3000)
        m1, s1 = forward_relaxation(*args, seed=7, threads=1)
        m2, s2 = forward_relaxation(*args, seed=7, threads=3)
        assert np.array_equal(m1, m2)
        assert np.array_equal(s1, s2)


class TestDeterminism:
    def test_evolve_reproducible(self):
        tk = fold_to_torus(NN1, 6)
        a = evolve(all_ones(6, 1), np.full(6, 0.8), tk, 4.0, rng_for(10))
        b = evolve(all_ones(6, 1), np.full(6, 0.8), tk, 4.0, rng_for(10))
        assert np.array_equal(a.opinions, b.opinions)

    def test_snapshots_match_single_run(self):
        # advancing in two hops equals advancing once with the same stream
        tk = fold_to_torus(NN1, 6)
        from biased_voter.forward import ForwardSimulation
        sim = ForwardSimulation(all_ones(6, 1), np.full(6, 0.8), tk, rng_for(11))
        sim.advance_to(1.0)
        sim.advance_to(3.0)
        direct = evolve(all_ones(6, 1), np.full(6, 0.8), tk, 3.0, rng_for(11))
        assert np.array_equal(sim.config.opinions, direct.opinions)
