import hashlib
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from biased_voter.disorder import _draw_values, bernoulli_law
from biased_voter.exact import (build_forward_generator, exact_forward_values_all,
                                semigroup_apply)
from biased_voter.forward import ForwardSimulation, _EventStream, forward_relaxation
from biased_voter.kernel import TorusKernel, fold_to_torus, make_kernel, make_nn_kernel
from biased_voter.localfn import LocalFunction, product_indicator, site_indicator
from biased_voter.walks import walk_curve

NN1 = make_nn_kernel(1)


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def evolve(start, bias, tk, t, rng):
    sim = ForwardSimulation(start, bias, tk, rng)
    sim.advance_to(t)
    return sim.layers


class TestAbsorbingStates:
    def test_all_ones_absorbing_without_bias(self):
        tk = fold_to_torus(NN1, 6)
        out, = evolve(np.ones((1, 6)), np.zeros(6), tk, 20.0, rng_for(1))
        assert out.tolist() == [[1] * 6]

    def test_all_zeros_absorbing_with_any_bias(self):
        tk = fold_to_torus(NN1, 6)
        out, = evolve(np.zeros((1, 6)), np.full(6, 3.0), tk, 20.0, rng_for(2))
        assert out.tolist() == [[0] * 6]


class TestTwoSiteMasterEquation:
    def test_monte_carlo_matches_hand_solution(self):
        # from (1,0) with no bias: E[eta_t(0)] = (1 + exp(-2t)) / 2
        tk = fold_to_torus(NN1, 2)
        t = 0.7
        n = 20_000
        out, = evolve(np.tile([1, 0], (n, 1)), np.zeros(2), tk, t, rng_for(3))
        mean = out[:, 0].mean()
        exact = 0.5 * (1 + math.exp(-2 * t))
        stderr = math.sqrt(exact * (1 - exact) / n)
        assert abs(mean - exact) < 4 * stderr


class TestCoupling:
    def test_equal_inputs_stay_equal(self):
        tk = fold_to_torus(NN1, 5)
        start = np.array([[1, 0, 1, 0, 0]])
        low, high = evolve([start, start], np.full(5, 0.5), tk, 5.0, rng_for(4))
        assert np.array_equal(low, high)

    def test_zero_start_keeps_order(self):
        tk = fold_to_torus(NN1, 5)
        low, high = evolve([np.zeros((1, 5)), np.ones((1, 5))],
                           np.full(5, 0.5), tk, 5.0, rng_for(5))
        assert low.tolist() == [[0] * 5]
        assert np.all(low <= high)

    @pytest.mark.parametrize("start, t, match", [
        ([np.ones((1, 3)), np.zeros((1, 3))], 1.0, "low <= high"),
        (np.ones((2, 4)), 1.0, "one opinion per site"),
        ([[1, 2, 0]], 1.0, "0 or 1"),
        ([[1, -1, 0]], 1.0, "0 or 1"),
        (np.ones((2, 3)), -1.0, "backwards"),
    ], ids=["unordered_layers", "wrong_row_length", "opinion_2", "opinion_minus_1",
            "advance_backwards"])
    def test_violating_precondition_rejected(self, start, t, match):
        tk = fold_to_torus(NN1, 3)
        with pytest.raises(ValueError, match=match):
            ForwardSimulation(start, np.zeros(3), tk, rng_for(6)).advance_to(t)

    def test_random_ordered_pairs_stay_ordered(self):
        tk = fold_to_torus(NN1, 8)
        rng = rng_for(7)
        high = (rng.random((100, 8)) < 0.7).astype(np.uint8)
        low = high & (rng.random((100, 8)) < 0.6)
        beta = _draw_values(bernoulli_law(0.5, 1.0), 800, rng).reshape(100, 8)
        low, high = evolve([low, high], beta, tk, 3.0, rng)
        assert np.all(low <= high)


class _Step(NamedTuple):
    """The events of one applied step, one per replica with an event in it."""

    row: np.ndarray
    site: np.ndarray
    source: np.ndarray    # flat cell copied; the own cell for a kill or no-op
    kill: np.ndarray
    changed: np.ndarray   # whether the event changed the first opinion array


def applied_steps(stream: _EventStream, t: float):
    """One record per applied step of ``stream.steps(t)``.

    A padded slot, past its replica's event count, is not an event and is
    left out of the record.
    """
    n = stream.n_sites
    for block, step, change in stream.steps(t):
        row = block.live[step].nonzero()[0]
        cell = block.cell[step, row]
        yield _Step(row, cell - row * n, block.source[step, row], block.keep[step, row] == 0,
                    change[row] != 0)


class TestEventStreamStep:
    def test_kill_resample_and_noop_decoding(self):
        # a ring of 5 with distinct biases: every event of a step is a kill
        # (cell set to 0), a resample (copy of a kernel partner) or a no-op
        side, replicas = 5, 40
        tk = fold_to_torus(NN1, side)
        beta = np.array([0.0, 0.4, 1.0, 2.5, 0.7])
        partners = tk.partner_table[0]
        rng = rng_for(8)
        layer = (rng.random(replicas * side) < 0.8).astype(np.uint8)
        stream = _EventStream([layer], beta, tk, rng)
        events = np.zeros(replicas, dtype=np.int64)
        seen = set()
        before = layer.copy()
        for step in applied_steps(stream, 3.0):
            cell = step.row * side + step.site
            resample = ~step.kill & (step.source != cell)
            noop = ~step.kill & (step.source == cell)
            assert np.all(layer[cell[step.kill]] == 0)
            assert np.all(beta[step.site[step.kill]] > 0)
            offset = step.source[resample] - step.row[resample] * side
            assert np.all((partners[step.site[resample]] == offset[:, None]).any(axis=1))
            assert np.array_equal(layer[cell[resample]], before[step.source[resample]])
            assert np.array_equal(layer[cell[noop]], before[cell[noop]])
            assert np.array_equal(step.changed, layer[cell] != before[cell])
            untouched = np.ones(layer.size, dtype=bool)
            untouched[cell] = False
            assert np.array_equal(layer[untouched], before[untouched])
            assert np.unique(step.row).size == step.row.size
            events[step.row] += 1
            seen |= {kind for kind, mask in (("kill", step.kill), ("resample", resample),
                                             ("noop", noop)) if mask.any()}
            before = layer.copy()
        assert seen == {"kill", "resample", "noop"}
        assert np.all(events > 0)


def first_flip_sites(start, bias, tk: TorusKernel, rng: np.random.Generator,
                     t_max: float = np.inf) -> np.ndarray:
    """Flat index of the first site whose opinion changes, per row, for rate audits.

    ``start`` is an (R, n_sites) 0/1 array and ``bias`` as for
    ``ForwardSimulation``. The stream advances in hops of one time unit and
    each row records its first changed event; a row reads -1 when nothing flips
    by ``t_max``, and at once when no event can change it: no 1-site has
    positive bias and no partner pair disagrees.
    """
    sim = ForwardSimulation(start, bias, tk, rng)
    stream, ones = sim.stream, sim.layers[0].astype(bool)
    beta = stream.beta.reshape(-1, tk.n_sites)
    waiting = (((beta > 0) & ones).any(axis=1)
               | (ones[:, tk.partner_table[0]] != ones[:, :, None]).any(axis=(1, 2)))
    sites = np.full(len(ones), -1)
    t = 0.0
    while waiting.any() and t < t_max:
        t = min(t + 1.0, t_max)
        for step in applied_steps(stream, t):
            first = waiting[step.row] & step.changed
            sites[step.row[first]] = step.site[first]
            waiting[step.row[first]] = False
    return sites


class TestRateAudit:
    def test_first_flip_distribution_matches_rates(self):
        # frozen configuration on a ring of 4; the first configuration
        # change happens at site x with probability c(x) / sum c
        side = 4
        tk = fold_to_torus(NN1, side)
        beta = np.array([0.7, 0.0, 1.9, 0.3])
        config = np.array([1, 0, 1, 1])
        rates = np.empty(side)
        for x in range(side):
            partners = [(x - 1) % side, (x + 1) % side]
            agree = sum(0.5 * (config[p] != config[x]) for p in partners)
            rates[x] = beta[x] * config[x] + agree
        probs = rates / rates.sum()
        n = 100_000
        sites = first_flip_sites(np.tile(config, (n, 1)), beta, tk, rng_for(9))
        assert np.all(sites >= 0)
        counts = np.bincount(sites, minlength=side)
        for x in range(side):
            se = math.sqrt(probs[x] * (1 - probs[x]) / n)
            assert abs(counts[x] / n - probs[x]) < 4 * se, f"site {x}"

    @pytest.mark.parametrize("start, beta, flips", [
        ([[0, 0, 0, 0]], 1.0, [False]),
        ([[1, 1, 1, 1]], 0.0, [False]),
        ([[1, 1, 1, 1], [1, 0, 1, 1]], 0.0, [False, True]),
    ], ids=["all_zeros", "all_ones_unbiased", "frozen_next_to_live"])
    def test_first_flip_none_when_nothing_can_change(self, start, beta, flips):
        # no kill hits a 1 and no resample copies a differing opinion, so the
        # default t_max = inf must not wait for a flip in a frozen row
        tk = fold_to_torus(NN1, 4)
        sites = first_flip_sites(start, np.full(4, beta), tk, rng_for(10))
        assert (sites >= 0).tolist() == flips

    def test_first_flip_stops_at_t_max(self):
        # flip rates 0.5, 1, 0.5, 0 sum to 2: a row flips by t_max = 0.1 with
        # probability 1 - exp(-0.2), and reads -1 otherwise
        tk = fold_to_torus(NN1, 4)
        n, t_max = 2000, 0.1
        sites = first_flip_sites(np.tile([1, 0, 1, 1], (n, 1)), np.zeros(4), tk,
                                 rng_for(12), t_max=t_max)
        assert set(sites.tolist()) == {-1, 0, 1, 2}
        p = 1 - math.exp(-2 * t_max)
        assert abs(np.mean(sites >= 0) - p) < 4 * math.sqrt(p * (1 - p) / n)


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

    @pytest.mark.parametrize("bias", [np.full(4, 0.5), bernoulli_law(0.5, 1.0)],
                             ids=["quenched", "annealed"])
    def test_thread_count_does_not_change_results(self, bias):
        tk = fold_to_torus(NN1, 4)
        args = (site_indicator(0), bias, tk, [0.5, 1.5], 3000)
        m1, s1 = forward_relaxation(*args, seed=7, threads=1)
        m2, s2 = forward_relaxation(*args, seed=7, threads=3)
        assert np.array_equal(m1, m2)
        assert np.array_equal(s1, s2)

    def test_quenched_output_bytes_are_pinned(self):
        """A quenched run's one field is not shift invariant: its sample is f
        on the support itself, f(eta_t), and these bytes pin that estimator."""
        tk = make_kernel("nn", 2, None, 1, side=4)
        f = LocalFunction([(0, 0), (1, 0)], [0.0, 0.25, 0.5, 1.0])
        mean, stderr = forward_relaxation(f, np.linspace(0.0, 1.5, 16), tk,
                                          [0.5, 1.0, 2.0], 2500, seed=31)
        assert hashlib.sha256(mean.tobytes() + stderr.tobytes()).hexdigest() == \
            "b1ac1617589d7a0fc18464db1161df39e1b45b9e7f322cf947ad84d5ba464377"

    def test_annealed_two_sites_match_the_walk_dual_on_the_torus(self):
        # E[eta_t(0,0) eta_t(1,0)] is the annealed weight of the coalescing
        # dual started from both sites, on the same 4 x 4 torus
        tk = make_kernel("nn", 2, None, 1, side=4)
        law = bernoulli_law(0.5, 1.0)
        sites = [(0, 0), (1, 0)]
        t_grid = [0.5, 1.5, 3.0]
        mean, stderr = forward_relaxation(product_indicator(sites), law, tk, t_grid,
                                          4000, seed=32)
        ref = walk_curve(tk, t_grid, 20_000, seed=33, law=law, starts=sites)
        sigma = np.hypot(stderr, ref.weight_stderr)
        assert np.all(np.abs(mean - ref.weight_mean) < 4 * sigma)

    def test_annealed_translate_average_cuts_the_stderr(self):
        # the benchmark's forward run: one replica's sample at t = 8 averages
        # f over 32 translates; f(eta_t) alone gives a relative stderr of 0.051
        tk = make_kernel("nn", 1, None, 1, side=32)
        mean, stderr = forward_relaxation(site_indicator(0), bernoulli_law(0.5, 1.0), tk,
                                          [8.0], 2048, seed=34)
        assert stderr[0] / mean[0] <= 0.03


class TestDeterminism:
    def test_evolve_reproducible(self):
        tk = fold_to_torus(NN1, 6)
        a = evolve(np.ones((3, 6)), np.full(6, 0.8), tk, 4.0, rng_for(10))
        b = evolve(np.ones((3, 6)), np.full(6, 0.8), tk, 4.0, rng_for(10))
        assert np.array_equal(a, b)

    def test_same_seed_and_hops_give_identical_layers(self):
        tk = fold_to_torus(NN1, 6)
        runs = []
        for _ in range(2):
            sim = ForwardSimulation(np.ones((50, 6)), np.full(6, 0.8), tk, rng_for(11))
            sim.advance_to(1.0)
            sim.advance_to(3.0)
            runs.append(sim.layers)
        assert np.array_equal(*runs)

    @pytest.mark.parametrize("hops", [(1.0, 3.0), (3.0,)], ids=["two_hops", "one_hop"])
    def test_hops_match_the_exact_law(self, hops):
        # every product-indicator expectation at t = 3, from the all-ones start;
        # the draws differ by hop, the law of the layers at t does not
        tk = fold_to_torus(NN1, 6)
        beta = np.full(6, 0.8)
        rows = 20_000
        sim = ForwardSimulation(np.ones((rows, 6)), beta, tk, rng_for(11))
        for t in hops:
            sim.advance_to(t)
        masks = sim.layers[0] @ (1 << np.arange(6))
        subsets = np.arange(1, 1 << 6)
        got = ((masks[:, None] & subsets) == subsets).mean(axis=0)
        exact = exact_forward_values_all(beta, tk, 3.0)[subsets]
        stderr = np.sqrt(exact * (1 - exact) / rows)
        assert np.all(np.abs(got - exact) < 4 * stderr)


class TestLayerLaws:
    def test_two_layer_stream_matches_the_exact_generator(self):
        # each layer of a coupled pair is, on its own, the forward dynamics:
        # its law at t = 2 over the 64 configurations of the 6-site ring is
        # the exact semigroup's from its start
        tk = fold_to_torus(NN1, 6)
        beta = np.array([0.2, 1.1, 0.0, 0.7, 1.6, 0.4])
        starts = [np.array([1, 0, 1, 0, 0, 1]), np.ones(6, dtype=int)]
        rows, t = 20_000, 2.0
        sim = ForwardSimulation([np.tile(s, (rows, 1)) for s in starts], beta, tk,
                                rng_for(13))
        sim.advance_to(t)
        adjoint = build_forward_generator(beta, tk).T.tocsr()
        bits = 1 << np.arange(6)
        for start, layer in zip(starts, sim.layers):
            point = np.zeros(1 << 6)
            point[start @ bits] = 1.0
            exact = semigroup_apply(adjoint, point, t)
            got = np.bincount(layer @ bits, minlength=1 << 6) / rows
            stderr = np.sqrt(exact * (1 - exact) / rows)
            assert np.all(np.abs(got - exact) <= 4 * stderr)


class TestMemory:
    def test_peak_does_not_grow_with_t_max(self):
        # events are drawn in blocks of at most BLOCK slots, so a run to
        # t = 200 (about 12800 events a replica) peaks as one to t = 20 does
        tk = fold_to_torus(NN1, 32)
        law = bernoulli_law(0.5, 1.0)
        # a warm-up run first, so one-time allocations (cached kernel tables)
        # do not fall in the first traced run
        forward_relaxation(site_indicator(0), law, tk, [1.0], 4, seed=14)
        peaks = []
        for t in (20.0, 200.0):
            tracemalloc.start()
            try:
                forward_relaxation(site_indicator(0), law, tk, [t], 512, seed=14)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
