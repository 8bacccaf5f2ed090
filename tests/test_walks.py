"""The walk engine's one-pass reduction and coalescence sweep against the
loops they replaced, its narrow draw and site keys, the dual range inside
the walker range, its pair-id step and per-row grid search, its memory
footprint, the output bytes of four batches, observables run through
their expansion against the exact torus oracle, the quenched box's exact
continuation against the exact ring oracle and the plain estimate, and a
batch reduced in chunks of replicas against the same draw reduced whole
and against exact values past many chunks."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biased_voter import walks
from biased_voter.disorder import LazyBiasField, bernoulli_law, deterministic_law, laplace
from biased_voter.exact import (exact_dual_value, exact_forward_values_all,
                                exact_range_functional_curve_1d)
from biased_voter.kernel import (TorusKernel, bias_values, box_keys, fold_to_torus,
                                 make_nn_kernel, make_power_kernel)
from biased_voter.localfn import LocalFunction, hat_coeffs
from biased_voter.stats import InvariantError
from references import sites_to_mask

NN1 = make_nn_kernel(1)
NN2 = make_nn_kernel(2)
NN3 = make_nn_kernel(3)
POWER = make_power_kernel(0.8, 30)
TORUS5 = fold_to_torus(POWER, 5)   # displacements of +-5, +-10, ... fold to no-op jumps
SANDWICH_GRID = np.geomspace(10.0, 1000.0, 12)


def whole_draw(kernel, starts, t_max, count, rng):
    """One chunk's draw of ``count`` replicas of walkers at ``starts`` up to t_max."""
    return walks._draw(kernel, starts, t_max, count, rng)


def death_times(cum_t, skey, k, t_max):
    """The engine's coalescence sweep over one draw."""
    return walks._coalesce(cum_t, skey, k, t_max)


def reference_death_times(cum_t, skey, k, t_max):
    """The coalescence sweep as one numpy step per jump, in time order."""
    rows, m = cum_t.shape
    count = rows // k
    times = cum_t.reshape(count, k * m)
    order = np.argsort(times, axis=1)
    due = np.count_nonzero(times <= t_max, axis=1)   # jumps of each replica by t_max
    held = skey[:, 0].reshape(count, k).copy()   # site of each live rider, -1 once dead
    live = np.full(count, k)
    death = np.full(rows, np.inf)
    active = np.flatnonzero(live > 1)
    for s in range(due.max()):
        active = active[due[active] > s]
        if active.size == 0:
            break
        jump = order[active, s]
        w, j = np.divmod(jump, m)
        row = active * k + w
        x, y = held[active, w], skey[row, j + 1]
        hit = (x >= 0) & (y != x) & (held[active] == y[:, None]).any(axis=1)
        held[active, w] = np.where((x < 0) | hit, -1, y)
        if hit.any():
            death[row[hit]] = times[active[hit], jump[hit]]
            live[active[hit]] -= 1
            active = active[live[active] > 1]
    return death


def reference_batch(kernel, t_grid, starts, count, rng, law=None, bias=None):
    """The reduction as one full pass over every held interval per grid time."""
    k = len(starts)
    t_max = float(t_grid[-1])
    pos, cum_t = whole_draw(kernel, starts, t_max, count, rng)
    rows = pos.shape[0]
    skey, mins, spans = box_keys(pos, count)
    max_abs = int(max(abs(int(mins.min())), abs(int((mins + spans - 1).max()))))
    n_keys = math.prod(int(s) for s in spans)
    arrivals = np.concatenate([np.zeros((rows, 1)), cum_t], axis=1)
    nexts = np.concatenate([cum_t, np.full((rows, 1), np.inf)], axis=1)
    keys = np.arange(rows, dtype=np.int64)[:, None] // k * n_keys + skey
    particles = None
    if k > 1:
        death = reference_death_times(cum_t, skey, k, t_max)[:, None]
        particles = (death > t_grid).reshape(count, k, t_grid.size).sum(axis=1)
        held = (arrivals < death) & (arrivals <= t_max)
        np.minimum(nexts, death, out=nexts)
        arrivals, nexts, keys = arrivals[held], nexts[held], keys[held]
    arrivals, nexts, keys = arrivals.ravel(), nexts.ravel(), keys.ravel()
    uniq, inverse = np.unique(keys, return_inverse=True)
    inverse = inverse.ravel()
    replica_of = uniq // n_keys
    if bias is not None:
        coords = np.stack(np.unravel_index(uniq % n_keys, spans), axis=-1) + mins
        if isinstance(kernel, TorusKernel):
            beta = bias[np.ravel_multi_index(coords.T, (kernel.side,) * kernel.dim)]
        else:
            beta = bias_values(bias, map(tuple, coords.tolist()))
    range_counts = np.empty((count, t_grid.size), dtype=np.int64)
    logw = np.empty((count, t_grid.size)) if law is not None or bias is not None else None
    for j, tj in enumerate(t_grid):
        hold = np.clip(np.minimum(nexts, tj) - arrivals, 0.0, None)
        visited = np.zeros(uniq.size, dtype=bool)
        visited[inverse[(arrivals == 0.0) | (arrivals < tj)]] = True
        range_counts[:, j] = np.bincount(replica_of[visited], minlength=count)
        if logw is not None:
            lt = np.bincount(inverse, weights=hold, minlength=uniq.size)
            terms = np.log(laplace(law, lt)) if law is not None else -beta * lt
            logw[:, j] = np.bincount(replica_of, weights=terms, minlength=count)
    return range_counts, particles, logw, max_abs


def coupled_dual_walker_ranges(starts, kernel, t, replicas, rng):
    """Dual range and independent-walker range of each replica on shared randomness.

    Each dual particle rides one walker; when a carried particle lands on a
    site already holding another one, the rider is dropped (coalescence).
    The dual visited set is then a subset of the walkers' visited set on
    every path, which is checked replica by replica.
    """
    pos, cum_t = whole_draw(kernel, walks._start_array(kernel, starts), t, replicas, rng)
    arrivals = np.concatenate([np.zeros((len(pos), 1)), cum_t], axis=1)
    k = len(pos) // replicas
    skey, _, spans = box_keys(pos, replicas)
    death = death_times(cum_t, skey, k, t)
    n_keys = math.prod(int(s) for s in spans)
    keys = skey + (np.arange(len(pos)) // k * n_keys)[:, None]   # replica-major (replica, site)
    seen = arrivals <= t
    walker = np.unique(keys[seen])
    dual = np.unique(keys[seen & (arrivals < death[:, None])])
    outside = dual[~np.isin(dual, walker)]
    if outside.size:
        raise InvariantError(f"dual range left the walker range in replica {outside[0] // n_keys}")
    return (np.bincount(dual // n_keys, minlength=replicas),
            np.bincount(walker // n_keys, minlength=replicas))


class SiteHashField:
    """A deterministic nonnegative field on Z^d."""

    def value(self, site):
        return (sum((i + 3) * x for i, x in enumerate(site)) * 0.618) % 2.5


@st.composite
def batch_cases(draw):
    """A kernel, k distinct starts, a grid, a replica count, a seed and a weight."""
    kernel = draw(st.sampled_from([NN1, NN2, POWER]))
    side = draw(st.none() | st.integers(3, 6))
    if side is not None:
        kernel = fold_to_torus(kernel, side)
    k = draw(st.integers(1, 3))
    wrap = (lambda s: tuple(x % side for x in s)) if side is not None else tuple
    starts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * kernel.dim),
                           min_size=k, max_size=k, unique_by=wrap))
    starts = walks._start_array(kernel, starts)
    count = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    t_max = draw(st.sampled_from([0.0, 0.3]) | st.floats(0.5, 25.0))
    grid = draw(st.lists(st.floats(0.0, t_max), max_size=5)) + [t_max]
    if draw(st.booleans()):
        grid.append(0.0)
    if draw(st.booleans()):   # a grid time equal to a drawn jump time
        _, cum_t = whole_draw(kernel, starts, t_max, count, rng_for(seed))
        jumps = cum_t[cum_t < t_max]
        if jumps.size:
            grid.append(float(jumps[draw(st.integers(0, jumps.size - 1))]))
    weight = draw(st.sampled_from(["none", "law", "bias"]))
    law = bias = None
    if weight == "law":
        law = bernoulli_law(draw(st.floats(0.0, 0.9)), draw(st.floats(0.1, 3.0)))
    elif weight == "bias" and side is not None:
        bias = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=kernel.n_sites,
                                      max_size=kernel.n_sites)))
    elif weight == "bias":
        bias = SiteHashField()
    return kernel, np.array(sorted(grid)), starts, count, seed, law, bias


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, 0]))


@settings(max_examples=150, deadline=None)
@given(case=batch_cases())
def test_reduction_matches_per_grid_time_loop(case):
    kernel, t_grid, starts, count, seed, law, bias = case
    whole = tuple(range(len(starts)))
    reduced, max_abs = walks._simulate_batch(kernel, t_grid, starts, count, rng_for(seed),
                                             law, bias, {whole: True})
    got = (*reduced[whole], max_abs)
    want = reference_batch(kernel, t_grid, starts, count, rng_for(seed), law, bias)
    np.testing.assert_array_equal(got[0], want[0])
    if want[1] is None:
        assert got[1] is None
    else:
        np.testing.assert_array_equal(got[1], want[1])
    if want[2] is None:
        assert got[2] is None
    else:
        assert np.all(np.abs(got[2] - want[2]) <= 1e-12 * np.maximum(1.0, np.abs(want[2])))
    assert got[3] == want[3]


def batch_digest(kernel, t_grid, starts, count, seed, law, bias, subsets):
    """sha256 over the max coordinate and every array _simulate_batch returns."""
    reduced, max_abs = walks._simulate_batch(kernel, np.asarray(t_grid, dtype=float), starts,
                                             count, rng_for(seed), law, bias, subsets)
    digest = hashlib.sha256(str(max_abs).encode())
    for walkers in sorted(reduced):
        for a in reduced[walkers]:
            digest.update(b"None" if a is None else f"{a.dtype}{a.shape}".encode() + a.tobytes())
    return digest.hexdigest()


TORUS_NN2 = fold_to_torus(NN2, 5)


@pytest.mark.parametrize("kernel, t_grid, starts, count, seed, weight, subsets, digest", [
    (NN1, SANDWICH_GRID, None, 512, 11, "law", {(0,): True},
     "092e779c8346369d354199b803bfec1e9b2046d8e2cb1c7460749fae93b9b4dd"),
    (NN1, [0.0, 0.5, 5.0, 50.0], [(0,), (1,), (3,)], 64, 12, "field",
     {(0, 1, 2): True, (0,): False, (0, 2): True},
     "64a3ea5a33a503680c836f73d5ef69afa4deebd7c027e2dd90cd0c7b48a0b78d"),
    (POWER, np.geomspace(1.0, 100.0, 6), [(0,), (2,)], 64, 13, "law",
     {(0, 1): True, (1,): True},
     "e41176de1616eddeef4bfcb0d281fd9c414507a0331186288ed94d7601108859"),
    (TORUS_NN2, [0.25, 2.0, 20.0], [(0, 0), (1, 0)], 64, 14, "array", {(0, 1): True},
     "3765cf28e448108b66a45108e3c997e0b1b8ab8f6860bc37ed24afd9f20f1b84"),
], ids=["nn-annealed-sandwich-grid", "k3-quenched", "power-annealed", "torus-quenched"])
def test_batch_output_bytes_are_pinned(kernel, t_grid, starts, count, seed, weight, subsets,
                                       digest):
    """Stream-pinned on purpose: these digests change whenever the draw's
    random stream or the order of any float operation in the reduction does,
    so a rewrite of the engine that keeps them keeps these batches' bytes."""
    law = bernoulli_law(0.5, 1.0) if weight == "law" else None
    bias = {"field": SiteHashField(),
            "array": rng_for(14).uniform(0.0, 2.0, TORUS_NN2.n_sites)}.get(weight)
    assert batch_digest(kernel, t_grid, walks._start_array(kernel, starts), count, seed,
                        law, bias, subsets) == digest


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6), m=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
       grid=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6, unique=True),
       on_jump=st.booleans())
@example(rows=2, m=5, seed=0, grid=[0.0], on_jump=False)          # t = 0: no jump before it
@example(rows=2, m=5, seed=0, grid=[1e-9, 2e-9], on_jump=False)   # every grid time below a row
@example(rows=2, m=5, seed=0, grid=[500.0, 900.0], on_jump=False)  # every grid time above
def test_jumps_before_equals_searchsorted_per_row(rows, m, seed, grid, on_jump):
    cum_t = np.cumsum(np.random.default_rng(seed).exponential(size=(rows, m)), axis=1)
    if on_jump:   # grid times equal to drawn jump times, the last one's too
        grid += [float(cum_t[0, 0]), float(cum_t[-1, m // 2]), float(cum_t[0, -1])]
    t_grid = np.array(sorted(set(grid)))
    want = np.array([np.searchsorted(row[:-1], t_grid, side="left") for row in cum_t])
    np.testing.assert_array_equal(walks._jumps_before(cum_t, t_grid), want)
    # one time per row, as the death cut takes it
    per_row = cum_t[np.arange(rows), np.arange(rows) % m][:, None]
    want = np.array([np.searchsorted(row[:-1], t, side="left") for row, t in zip(cum_t, per_row)])
    np.testing.assert_array_equal(walks._jumps_before(cum_t, per_row), want)


def test_dual_range_dominated_by_walkers():
    # shared-randomness coupling: the coalescing set visits no more
    # sites than the independent walkers it rides on
    rng = np.random.default_rng(np.random.SeedSequence([26]))
    dual_count, walker_count = coupled_dual_walker_ranges(
        [(0,), (1,), (3,)], NN1, 5.0, 10_000, rng)
    assert dual_count.shape == walker_count.shape == (10_000,)
    assert np.all(dual_count <= walker_count)


@st.composite
def sweep_cases(draw):
    """A kernel, 2 to 6 distinct starts, a replica count, a seed and a t_max
    that is short, or long enough for k walkers to cross the first three
    chunk boundaries (64 + 128 + 256 events) of the sweep."""
    kernel = draw(st.sampled_from([NN1, NN2, TORUS5, POWER]))
    k = draw(st.integers(2, 5 if kernel is TORUS5 else 6))
    wrap = (lambda s: tuple(x % 5 for x in s)) if kernel is TORUS5 else tuple
    starts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * kernel.dim),
                           min_size=k, max_size=k, unique_by=wrap))
    count = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    t_max = draw(st.floats(0.5, 30.0) | st.floats(250.0, 400.0))
    return kernel, walks._start_array(kernel, starts), count, seed, t_max


@settings(max_examples=100, deadline=None)
@given(case=sweep_cases())
@example(case=(NN1, walks._start_array(NN1, [(0,), (1,), (3,)]), 16, 0, 0.05))  # most replicas never jump
@example(case=(NN2, walks._start_array(NN2, [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]),
               4, 1, 300.0))   # riders live on across many chunks
def test_death_times_match_per_jump_sweep(case):
    kernel, starts, count, seed, t_max = case
    pos, cum_t = whole_draw(kernel, starts, t_max, count, rng_for(seed))
    skey = box_keys(pos, count)[0]
    k = len(starts)
    assert np.array_equal(death_times(cum_t, skey, k, t_max),
                          reference_death_times(cum_t, skey, k, t_max))


@settings(max_examples=80, deadline=None)
@given(key_space=st.integers(1, 400), size=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
@example(key_space=50, size=400, seed=0)    # the bitmap
@example(key_space=400, size=50, seed=0)    # the sort
def test_pair_ids_equal_unique(key_space, size, seed):
    keys = np.random.default_rng(seed).integers(0, key_space, size=size)
    got = walks._pair_ids(keys, key_space)
    want = np.unique(keys, return_inverse=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def test_wide_boxes_take_the_sorted_pair_ids(monkeypatch):
    """The chunks of a 2-d batch and of a power-kernel batch to t = 1000
    span more pair keys than they hold intervals, so their pair ids come
    from the sort."""
    sorted_ids, pair_ids = [], walks._pair_ids

    def spy(keys, key_space):
        sorted_ids.append(key_space > keys.size)
        return pair_ids(keys, key_space)
    monkeypatch.setattr(walks, "_pair_ids", spy)
    for kernel in (NN2, make_power_kernel(0.8, 100)):
        sorted_ids.clear()
        walks.walk_curve(kernel, [1000.0], walks.BATCH_SIZE, 5)
        assert len(sorted_ids) == 4 and all(sorted_ids), sorted_ids


def searchsorted_draw(kernel, starts, t_max, count, rng):
    """Positions and jump times from float uniforms searched on the cumulative
    weights, an int64 gather of the displacements and a cumsum."""
    disp, cum = kernel.sampling_arrays()
    rows, d = count * len(starts), kernel.dim
    m0 = max(4, int(t_max + 6.0 * math.sqrt(t_max + 1.0) + 16.0))
    cum_t = np.cumsum(rng.exponential(size=(rows, m0)), axis=1)
    while cum_t[:, -1].min() <= t_max:
        extra = np.cumsum(rng.exponential(size=(rows, 64)), axis=1)
        cum_t = np.hstack([cum_t, cum_t[:, -1:] + extra])
    idx = np.searchsorted(cum, rng.random(cum_t.shape))
    pos = np.concatenate(
        [np.zeros((rows, 1, d), dtype=np.int64), np.cumsum(disp[idx], axis=1)], axis=1)
    pos += np.tile(starts, (count, 1))[:, None, :]
    if isinstance(kernel, TorusKernel):
        pos %= kernel.side
    return pos, cum_t


@pytest.mark.parametrize("kernel", [NN1, NN2, make_nn_kernel(3), fold_to_torus(NN2, 5)],
                         ids=["nn1", "nn2", "nn3", "nn2-torus5"])
def test_equal_weights_draw_each_displacement_at_rate_one_over_n(kernel):
    disp, _ = kernel.sampling_arrays()
    pos, cum_t = whole_draw(kernel, walks._start_array(kernel, None), 50.0, 400, rng_for(6))
    assert pos.dtype == np.int32
    steps = np.diff(pos, axis=1).reshape(-1, kernel.dim)
    if isinstance(kernel, TorusKernel):
        steps %= kernel.side
    counts = [np.count_nonzero((steps == x).all(axis=1)) for x in disp]
    assert sum(counts) == steps.shape[0]
    p = 1.0 / len(disp)
    sigma = math.sqrt(p * (1.0 - p) / steps.shape[0])
    assert all(abs(c / steps.shape[0] - p) < 4.0 * sigma for c in counts), counts


@pytest.mark.parametrize("kernel", [POWER, TORUS5], ids=["power", "torus5"])
def test_unequal_weights_draw_the_searchsorted_positions(kernel):
    starts = walks._start_array(kernel, [(0,), (3,), (-1,)])
    pos, cum_t = whole_draw(kernel, starts, 40.0, 50, rng_for(7))
    want_pos, want_t = searchsorted_draw(kernel, starts, 40.0, 50, rng_for(7))
    np.testing.assert_array_equal(cum_t, want_t)
    np.testing.assert_array_equal(pos, want_pos)


def test_start_near_int32_limit_takes_int64_positions():
    # positions that may pass 2 ** 31 - 1 are drawn in int64, on the stream of
    # the same walk from the origin; their keys stay int32 and the batch is the
    # origin's shifted
    far = walks._start_array(NN1, [(2 ** 31 - 8,)])
    near = walks._start_array(NN1, None)
    pos, cum_t = whole_draw(NN1, far, 30.0, 4, rng_for(8))
    origin, origin_t = whole_draw(NN1, near, 30.0, 4, rng_for(8))
    assert pos.dtype == np.int64 and origin.dtype == np.int32
    np.testing.assert_array_equal(cum_t, origin_t)
    np.testing.assert_array_equal(pos, origin.astype(np.int64) + (2 ** 31 - 8))
    assert pos.max() > 2 ** 31 - 1
    grid, law = np.array([5.0, 30.0]), bernoulli_law(0.5, 1.0)
    far_out, near_out = (walks._simulate_batch(NN1, grid, s, 4, rng_for(8), law, None,
                                               {(0,): True})[0][(0,)] for s in (far, near))
    np.testing.assert_array_equal(far_out[0], near_out[0])
    np.testing.assert_array_equal(far_out[2], near_out[2])


@pytest.mark.parametrize("lo, span, count, dtype", [
    ((-3, 5), (7, 9), 10, np.int32),                 # a small box
    ((2 ** 31 - 20, 0), (40, 3), 10, np.int32),      # int64 positions, a small box
    ((0, 0), (2 ** 16, 2 ** 15), 1, np.int64),       # count * keys reaches 2 ** 31
], ids=["small-box", "int64-positions", "int64-keys"])
def test_site_keys_are_row_major_in_the_narrowest_dtype(lo, span, count, dtype):
    rng = np.random.default_rng(9)
    pos = np.stack([rng.integers(a, a + n, size=(count, 6)) for a, n in zip(lo, span)], axis=-1)
    pos[0, 0], pos[-1, -1] = lo, np.add(lo, span) - 1    # the box's corners are visited
    pos = pos.astype(np.int32 if pos.max() < 2 ** 31 else np.int64)
    skey, mins, spans = box_keys(pos, count)
    assert skey.dtype == dtype
    np.testing.assert_array_equal(spans, span)
    np.testing.assert_array_equal(
        skey, np.ravel_multi_index(tuple(np.moveaxis(pos - mins, -1, 0)), spans))


def first_chunk_shape(starts, count, t_max):
    """(rows, m) of the first chunk's draw of a ``count``-replica nn batch to t_max."""
    size = walks._chunk_size(t_max, len(starts), count)
    return whole_draw(NN1, starts, t_max, size, rng_for(3))[1].shape


def test_draw_peak_memory():
    """The traced peak of drawing the first chunk of a 2048-walker nn batch
    to t = 1000 (524 walkers) stays below 2.0 x (rows x m x 8 bytes): 4.0 x
    with float uniforms searched into int64 indices and gathered, 2.0 x with
    uint8 indices and int32 positions, where the exponential clock and its
    cumsum set the peak, and 1.63 x with the clock summed in place, all for
    the whole batch; 1.78 x for the chunk."""
    starts = walks._start_array(NN1, None)
    rows, m = first_chunk_shape(starts, walks.BATCH_SIZE, SANDWICH_GRID[-1])
    assert rows < walks.BATCH_SIZE   # a chunk, not the whole batch
    tracemalloc.start()
    try:
        whole_draw(NN1, starts, SANDWICH_GRID[-1], rows, rng_for(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * rows * m * 8


def test_annealed_batch_peak_memory():
    """The traced peak of a 2048-walker annealed batch to t = 1000 stays below
    5.5 x (rows x m x 8 bytes), rows and m those of the batch's first chunk:
    11.2 x with the per-grid-time loop, 5.5 x with the one-pass reduction for
    one walker per replica, and 4.1 x for k = 3 and k = 8 with the chunked
    coalescence sweep; 4.8 x and 3.6 x with int32 positions and keys and the
    holds computed in place among the deposits; 3.18 x, 2.76 x and 2.89 x for
    k = 1, 3 and 8 with one search per row, one table key per deposit and the
    clock summed in place, all with the whole batch drawn in one piece; and
    3.5 x, 2.4 x and 3.0 x in chunks of about 520 walker rows, whose results
    the batch holds beside the next chunk."""
    law = bernoulli_law(0.5, 1.0)
    for k in (1, 3, 8):
        starts = walks._start_array(NN1, [(2 * i,) for i in range(k)])
        count = walks.BATCH_SIZE // k
        rows, m = first_chunk_shape(starts, count, SANDWICH_GRID[-1])
        tracemalloc.start()
        try:
            walks._simulate_batch(NN1, SANDWICH_GRID, starts, count, rng_for(3), law, None,
                                  {tuple(range(k)): True})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * rows * m * 8, (k, peak / (rows * m * 8))


TORUS4 = fold_to_torus(NN1, 4)
OR_01 = LocalFunction([(0,), (1,)], [0.0, 1.0, 1.0, 1.0])
# monotone; fhat = H(01) + H(03) + H(13) - 2 H(013)
MAJORITY_013 = LocalFunction([(0,), (1,), (3,)], [0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0])


def expansion(f):
    return {A: c for A, c in hat_coeffs(f).items() if A and c != 0.0}


def exact_relaxation(f, beta, t):
    """sum over nonempty A of fhat(A) E[H(eta_t, A)] from all ones on the 4-site torus."""
    values = exact_forward_values_all(beta, TORUS4, t)
    return sum(c * values[sites_to_mask(A, TORUS4)] for A, c in expansion(f).items())


@pytest.mark.parametrize("f", [OR_01, MAJORITY_013], ids=["or-01", "majority-013"])
@pytest.mark.parametrize("disorder", ["annealed", "quenched"])
def test_expansion_matches_exact_torus(f, disorder):
    # one draw for every subset of the support: the annealed run against the
    # law-weighted average over all 16 fields, the quenched one against its field
    law, times = bernoulli_law(0.5, 1.0), (0.5, 2.0)
    if disorder == "annealed":
        stats = walks.walk_curve(TORUS4, times, 40_000, 41, law=law, starts=expansion(f))
        fields = [(np.array([law.atoms[i][0] for i in bits]),
                   np.prod([law.atoms[i][1] for i in bits]))
                  for bits in itertools.product(range(len(law.atoms)), repeat=4)]
    else:
        beta = rng_for(42).uniform(0.0, 2.0, 4)
        stats = walks.walk_curve(TORUS4, times, 40_000, 43, bias=beta, starts=expansion(f))
        fields = [(beta, 1.0)]
    for j, t in enumerate(times):
        target = sum(p * exact_relaxation(f, beta, t) for beta, p in fields)
        assert abs(stats.weight_mean[j] - target) < 4 * stats.weight_stderr[j], f"t={t}"


@pytest.mark.parametrize("disorder", ["annealed", "quenched", "none"])
def test_one_term_expansion_is_the_start_list(disorder):
    starts = [(0,), (1,), (3,)]
    weight = {"annealed": {"law": bernoulli_law(0.5, 1.0)}, "quenched": {"bias": SiteHashField()},
              "none": {}}[disorder]
    plain, mapped = (walks.walk_curve(NN1, [0.5, 4.0, 20.0], 1500, 44, exponents=(0.7,),
                                      starts=s, **weight)
                     for s in (starts, {tuple(starts): 1.0}))
    for name, value in vars(plain).items():
        other = getattr(mapped, name)
        if isinstance(value, dict):
            assert value.keys() == other.keys()
            assert all(np.array_equal(value[nu], other[nu]) for nu in value), name
        else:
            assert np.array_equal(value, other), name


def test_control_weight_is_the_weight_less_its_floor_on_one_draw():
    # c (W - exp(-nu |R_t|)) per replica: the mean moves by c mean(exp(-nu |R_t|)),
    # and the draw, the range and the bound curve stay as they are
    law, nu, grid = bernoulli_law(0.5, 1.0), math.log(2.0), SANDWICH_GRID[:6]
    plain, controlled = (walks.walk_curve(NN1, grid, 3000, 5, law=law, exponents=(nu,),
                                          starts={((4,),): 2.0}, control=control)
                         for control in (None, nu))
    assert np.all(np.abs(controlled.weight_mean - (plain.weight_mean - 2.0 * plain.exp_means[nu]))
                  <= 1e-15 * plain.weight_mean)
    assert np.all(controlled.weight_mean > 0.0)
    assert np.all(controlled.weight_stderr < plain.weight_stderr)
    assert np.array_equal(controlled.exp_means[nu], plain.exp_means[nu])
    assert np.array_equal(controlled.range_mean, plain.range_mean)
    assert controlled.max_abs_position == plain.max_abs_position


@pytest.mark.parametrize("weight, starts", [
    ({}, None),
    ({"bias": SiteHashField()}, None),
    ({"law": bernoulli_law(0.5, 1.0)}, [(0,), (1,)]),
    ({"law": bernoulli_law(0.5, 1.0)}, {((0,),): 1.0, ((0,), (1,)): -1.0}),
], ids=["no-weight", "quenched", "two-sites", "two-terms"])
def test_control_needs_a_law_and_one_single_site_term(weight, starts):
    with pytest.raises(ValueError, match="control variate"):
        walks.walk_curve(NN1, [1.0], 10, 0, starts=starts, control=0.5, **weight)


# ---------------------------------------------------------------------------
# The quenched box: exact continuation once one rider is left
# ---------------------------------------------------------------------------

FIELD_LAW = bernoulli_law(0.5, 1.0)


def ring_value(field, sites, grid, side=64):
    """The exact killed dual from ``sites`` on the ``side``-site ring carrying
    ``field``'s values on -side/2 .. side/2 - 1, at each time of ``grid``: the
    walk on Z up to a wrap of probability below 1e-15 by t = 10."""
    beta = np.array([field.value(((x + side // 2) % side - side // 2,)) for x in range(side)])
    return exact_dual_value([(x % side,) for (x,) in sites], beta, fold_to_torus(NN1, side), grid)


def test_one_site_box_weight_is_exp_minus_bt_for_a_constant_bias():
    field = LazyBiasField(deterministic_law(0.7), 1)
    box = walks.QuenchedBox.solve(field, 0, 64, 50.0)
    grid = np.array([0.0, 0.5, 5.0, 50.0])
    got = walks.walk_curve(NN1, grid, 300, 2, starts=[(0,)], bias=field, box=box)
    assert np.all(np.abs(got.weight_mean - np.exp(-0.7 * grid)) <= 1e-10 * np.exp(-0.7 * grid))
    assert np.all(got.weight_stderr == 0.0)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_one_site_box_weight_is_the_exact_ring_value(seed):
    field = LazyBiasField(FIELD_LAW, seed)
    box = walks.QuenchedBox.solve(field, 1, 32, 10.0)
    grid = np.array([1.0, 5.0, 10.0])
    for site in [(0,), (3,)]:
        got = walks.walk_curve(NN1, grid, 10, 4, starts=[site], bias=field, box=box)
        want = ring_value(field, [site], grid)
        assert np.all(np.abs(got.weight_mean - want) <= 1e-10 * want)
        assert np.all(got.weight_stderr == 0.0)


@pytest.mark.parametrize("seed, sites", [(11, [(0,), (1,)]), (12, [(0,), (3,)])])
def test_two_site_box_weight_agrees_with_the_exact_ring_value(seed, sites):
    field = LazyBiasField(FIELD_LAW, seed)
    box = walks.QuenchedBox.solve(field, 1, 32, 10.0)
    grid = np.array([2.0, 5.0, 10.0])
    got = walks.walk_curve(NN1, grid, 10_000, 6, starts=sites, bias=field, box=box)
    want = ring_value(field, sites, grid)
    assert np.all(np.abs(got.weight_mean - want) <= 4.0 * got.weight_stderr)
    assert np.all(got.weight_stderr <= 0.03 * want)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_three_site_box_weight_agrees_with_the_plain_estimate(seed):
    # the plain estimate at its own seed; the box keeps the draw, so range and
    # live riders are those of the plain run at the same seed, bit for bit
    field = LazyBiasField(FIELD_LAW, seed)
    box = walks.QuenchedBox.solve(field, 1, 64, 25.1)
    grid, sites = np.array([5.0, 10.0, 25.1]), [(0,), (1,), (3,)]
    plain = walks.walk_curve(NN1, grid, 20_000, 7, starts=sites, bias=field)
    boxed = walks.walk_curve(NN1, grid, 20_000, 8, starts=sites, bias=field, box=box)
    z = (boxed.weight_mean - plain.weight_mean) / np.hypot(boxed.weight_stderr,
                                                            plain.weight_stderr)
    assert np.all(np.abs(z) <= 4.0), z
    assert np.all(boxed.weight_stderr < plain.weight_stderr)
    same_draw = walks.walk_curve(NN1, grid, 20_000, 7, starts=sites, bias=field, box=box)
    assert np.array_equal(same_draw.range_mean, plain.range_mean)
    assert np.array_equal(same_draw.particles_mean, plain.particles_mean)
    assert same_draw.max_abs_position == plain.max_abs_position


def test_box_goes_on_per_term_of_an_expansion():
    # 0.5 H(., {0}) + 2 H(., {0, 3}): one exact term and one that coalesces
    field = LazyBiasField(FIELD_LAW, 11)
    box = walks.QuenchedBox.solve(field, 1, 32, 5.0)
    grid = np.array([2.0, 5.0])
    got = walks.walk_curve(NN1, grid, 10_000, 9, starts={((0,),): 0.5, ((0,), (3,)): 2.0},
                           bias=field, box=box)
    want = 0.5 * ring_value(field, [(0,)], grid) + 2.0 * ring_value(field, [(0,), (3,)], grid)
    assert np.all(np.abs(got.weight_mean - want) <= 4.0 * got.weight_stderr)


def test_box_certifies_only_inside_and_while_exits_are_negligible():
    field = LazyBiasField(FIELD_LAW, 11)
    box = walks.QuenchedBox.solve(field, 0, 8, 0.1)
    s = np.array([0.0, 0.1, 0.1, 0.1, 0.2, -0.1])
    z = np.array([0, 0, 8, 9, 0, 0])
    got = box.log_value(s, z)
    assert got[0] == 0.0                                   # u(0, z) = 1
    assert np.isfinite(got[1]) and got[1] < 0.0
    assert np.isnan(got[2:]).all()                         # end site, outside, past the horizon
    late = walks.QuenchedBox.solve(field, 0, 8, 50.0)      # exits by t = 50 are not negligible
    assert np.isnan(late.log_value(s[1:2], z[1:2])).all()
    wide = walks.QuenchedBox.solve(field, 0, 32, 0.1)
    assert abs(wide.log_value(s[1:2], z[1:2])[0] - got[1]) <= 1e-10


def test_box_values_far_below_one_keep_their_relative_accuracy():
    # a constant bias 3: u = e^(-3 s) down to 1e-26, the walk 108 sites or more from the ends
    box = walks.QuenchedBox.solve(LazyBiasField(deterministic_law(3.0), 2), 0, 128, 20.0)
    s = np.array([0.5, 2.0, 10.0, 20.0])
    for z in (0, 20):
        got = box.log_value(s, np.full(4, z))
        assert np.all(np.abs(got + 3.0 * s) <= 1e-12), (z, got + 3.0 * s)


def test_box_table_is_pinned():
    """Pinned on purpose: the box's term count, step arithmetic and weights
    fix its table, exits and log-factorials bit for bit."""
    box = walks.QuenchedBox.solve(LazyBiasField(FIELD_LAW, 11), 1, 64, 100.0)
    digest = hashlib.sha256()
    for array in (box.powers, box.exits, box.log_factorials, np.array([box.tail, box.rate])):
        digest.update(array.tobytes())
    assert box.powers.shape == (129, 333)
    assert digest.hexdigest() == "b2fbef80c30207799d4fab7458fb73aa333bf62a515af35aaef7b0177440e53b"


def test_box_too_large_to_hold_is_refused():
    assert walks.QuenchedBox.solve(LazyBiasField(FIELD_LAW, 11), 0, 512, 2000.0) is None


def test_box_sample_is_audited_to_lie_in_0_1(monkeypatch):
    field = LazyBiasField(FIELD_LAW, 11)
    box = walks.QuenchedBox.solve(field, 1, 16, 2.0)
    monkeypatch.setattr(walks.QuenchedBox, "log_value",
                        lambda self, s, z: np.full(s.shape, math.log(2.0)))
    with pytest.raises(InvariantError, match="path weight"):
        walks.walk_curve(NN1, [1.0, 2.0], 20, 0, starts=[(0,), (1,)], bias=field, box=box)


@pytest.mark.parametrize("kernel, weight", [
    (NN1, {"law": FIELD_LAW}),
    (NN2, {"bias": SiteHashField()}),
    (POWER, {"bias": SiteHashField()}),
    (fold_to_torus(NN1, 8), {"bias": SiteHashField()}),
], ids=["annealed", "nn-2d", "power", "torus"])
def test_box_needs_a_field_and_the_nn_kernel_on_z(kernel, weight):
    box = walks.QuenchedBox.solve(SiteHashField(), 0, 4, 1.0)
    with pytest.raises(ValueError, match="quenched box"):
        walks.walk_curve(kernel, [1.0], 10, 0, box=box, **weight)


# ---------------------------------------------------------------------------
# Chunks: a batch drawn and reduced a chunk of whole replicas at a time
# ---------------------------------------------------------------------------

def reduce_chunks(kernel, t_grid, k, weight, pos, cum_t, sizes):
    """One draw reduced as chunks of ``sizes`` replicas, each keyed in its own
    box: the chunks' results concatenated and the largest coordinate magnitude."""
    outs, max_abs, lo = [], 0, 0
    for n in sizes:
        rows = slice(lo * k, (lo + n) * k)
        skey, mins, spans = box_keys(pos[rows], n)
        max_abs = max(max_abs, int(np.abs(np.concatenate([mins, mins + spans - 1])).max()))
        outs.append(walks._reduce(kernel, t_grid, [cum_t[rows], skey, mins, spans], k, *weight))
        lo += n
    return (*(None if out[0] is None else np.concatenate(out) for out in zip(*outs)), max_abs)


QUENCHED_FIELD = LazyBiasField(bernoulli_law(0.5, 1.0), 11)


@pytest.mark.parametrize("kernel, t_grid, starts, count, weight, sizes", [
    (NN1, SANDWICH_GRID, None, 256, "law", [100, 1, 155]),
    (NN1, [0.0, 2.0, 5.0, 10.0, 25.1], [(0,), (1,), (3,)], 300, "box", [7, 93, 200]),
    (POWER, np.geomspace(1.0, 100.0, 6), [(0,), (2,)], 64, "law", [32, 32]),
    (TORUS_NN2, [0.25, 2.0, 20.0], [(0, 0), (1, 0)], 64, "array", [1, 63]),
    (NN2, [1.0, 10.0, 30.0], [(0, 0), (1, 1)], 64, "field", [20, 20, 24]),
    (NN3, [1.0, 10.0, 30.0], [(0, 0, 0), (1, 0, 0), (0, 1, 1)], 32, "field", [5, 27]),
], ids=["nn-annealed-sandwich-grid", "k3-quenched-box", "power-annealed", "torus-quenched",
        "nn2-quenched", "nn3-quenched"])
def test_chunks_reduce_as_one(kernel, t_grid, starts, count, weight, sizes):
    """One draw cut by replica into chunks, some of one replica, each keyed
    in its own box, reduces bit for bit as it does whole: the same range
    counts, live riders, log weights and largest coordinate. A replica's
    pairs keep their order in any box that holds them, so its sums are
    taken in the same order."""
    t_grid = np.asarray(t_grid, dtype=float)
    starts = walks._start_array(kernel, starts)
    k = len(starts)
    law = bernoulli_law(0.5, 1.0) if weight == "law" else None
    bias = {"array": rng_for(14).uniform(0.0, 2.0, TORUS_NN2.n_sites), "field": SiteHashField(),
            "box": QUENCHED_FIELD}.get(weight)
    box = walks.QuenchedBox.solve(QUENCHED_FIELD, 1, 64, t_grid[-1]) if weight == "box" else None
    pos, cum_t = whole_draw(kernel, starts, t_grid[-1], count, rng_for(21))
    one = reduce_chunks(kernel, t_grid, k, (law, bias, box), pos, cum_t, [count])
    several = reduce_chunks(kernel, t_grid, k, (law, bias, box), pos, cum_t, sizes)
    np.testing.assert_array_equal(several[0], one[0])
    if k > 1:
        np.testing.assert_array_equal(several[1], one[1])
    else:
        assert several[1] is None and one[1] is None
    np.testing.assert_array_equal(several[2], one[2])
    assert several[3] == one[3]
    if box is not None:   # the box went on in some replicas
        assert np.isfinite(one[2]).all() and (one[1][:, -1] == 1).any()


@pytest.mark.parametrize("starts", [None, [(0,), (1,), (3,)]], ids=["2048x1", "682x3"])
def test_walk_curve_peak_does_not_grow_with_t_max(starts):
    """The traced peak of a 12-time annealed nn walk to t = 1e4 stays within
    10% of that to t = 1e3. Drawn and reduced in one piece, the batches
    peaked at 62 MB (2048 x 1) and 53 MB (682 x 3) at t = 1e3, and near nine
    times that at t = 1e4; in time windows carrying their (replica, site)
    pairs, at 21.5 -> 25.5 MB and 21.4 MB at both; in chunks of whole
    replicas, at 17.6 -> 16.1 MB and 11.7 -> 10.5 MB, a chunk at t = 1e4
    being a tenth as many replicas drawn ten times as far."""
    law, replicas = bernoulli_law(0.5, 1.0), walks.BATCH_SIZE // (1 if starts is None else 3)

    def traced(t_max):
        tracemalloc.start()
        try:
            walks.walk_curve(NN1, np.geomspace(10.0, t_max, 12), replicas, 5, law=law,
                             starts=starts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    traced(1e3)   # warm-up
    low, high = traced(1e3), traced(1e4)
    assert high <= 1.1 * low, (low / 1e6, high / 1e6)


def chunks_of_batch(t_max, k):
    """How many chunks a full batch of k-walker replicas to t_max is cut into."""
    count = walks.BATCH_SIZE // k
    return math.ceil(count / walks._chunk_size(t_max, k, count))


def test_range_curve_past_many_chunks_matches_exact():
    # 2048 walkers to t = 4000: sixteen chunks
    nu, grid = 0.1, np.geomspace(10.0, 4000.0, 8)
    assert chunks_of_batch(grid[-1], 1) == 16
    stats = walks.walk_curve(NN1, grid, walks.BATCH_SIZE, 0, exponents=(nu,))
    exact = exact_range_functional_curve_1d(nu, grid, 600)
    assert np.all(np.abs(stats.exp_means[nu] - exact) <= 4.0 * stats.exp_stderrs[nu])


def test_boxed_quenched_batch_in_chunks_agrees_with_one_chunk(monkeypatch):
    # one full batch of the three-site quenched run on field 11 to t = 1000:
    # four chunks, against the same run drawn as one
    grid, sites, replicas = np.geomspace(10.0, 1000.0, 6), [(0,), (1,), (3,)], 682
    box = walks.QuenchedBox.solve(QUENCHED_FIELD, 1, 128, grid[-1])
    assert chunks_of_batch(grid[-1], 3) == 4
    chunks = walks.walk_curve(NN1, grid, replicas, 31, starts=sites, bias=QUENCHED_FIELD,
                              box=box)
    monkeypatch.setattr(walks, "CHUNK_JUMPS", 1 << 22)
    one = walks.walk_curve(NN1, grid, replicas, 31, starts=sites, bias=QUENCHED_FIELD, box=box)
    z = (chunks.weight_mean - one.weight_mean) / np.hypot(chunks.weight_stderr,
                                                          one.weight_stderr)
    assert np.all(np.abs(z) <= 4.0), z
