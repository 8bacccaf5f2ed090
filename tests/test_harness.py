import ctypes
import dataclasses
import itertools
import math
import os
import subprocess
import sys
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

import biased_voter
from biased_voter import cli, forward, harness, stats, walks
from biased_voter.cli import EXIT_INVARIANT, main as cli_main
from biased_voter.exact import exact_dual_value, exact_range_functional_curve_1d
from biased_voter.kernel import fold_to_torus, make_nn_kernel
from biased_voter.harness import (ConfigError, ExperimentConfig, config_hash,
                                  fit_stretch_exponent, parse_config_text,
                                  parse_sites, parse_t_grid, read_curve_csv,
                                  run, sandwich_report, write_records_csv,
                                  write_sandwich_csv)
from biased_voter.disorder import LazyBiasField, bernoulli_law, deterministic_law, laplace, nu2
from biased_voter.dual import dual_curve
from biased_voter.localfn import (LocalFunction, hat_coeffs, parse_localfn_text,
                                  product_indicator, site_indicator)
from biased_voter.rangestats import dirichlet_eigenvalue, dv_constant, lambda_nn
from biased_voter.stats import InvariantError, keep_freed_pages, map_batches
from biased_voter.walks import walk_curve

BERNOULLI_CONFIG = """
# two-sided measurement at desk scale
mode = dual-annealed
dim = 1
kernel = nn
disorder = bernoulli
q = 0.5
b = 1.0
observable = site 0
t_grid = 10:1000:12
replicas = 3000
seed = 7
"""


def small_config(**overrides):
    base = dict(mode="dual-annealed", t_grid=(1.0, 4.0, 10.0), replicas=500,
                seed=3, dim=1, law=bernoulli_law(0.5, 1.0),
                observable=site_indicator(0))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestParsing:
    def test_full_config(self):
        cfg = parse_config_text(BERNOULLI_CONFIG)
        assert cfg.mode == "dual-annealed"
        assert cfg.replicas == 3000
        assert len(cfg.t_grid) == 12
        assert cfg.law.atoms == ((0.0, 0.5), (1.0, 0.5))
        assert cfg.observable.support == ((0,),)

    def test_t_grid_forms(self):
        assert parse_t_grid("1,2,5") == (1.0, 2.0, 5.0)
        lin = parse_t_grid("lin:0:10:5")
        assert lin == (0.0, 2.5, 5.0, 7.5, 10.0)
        log = parse_t_grid("1:100:3")
        assert log == pytest.approx((1.0, 10.0, 100.0))
        with pytest.raises(ConfigError):
            parse_t_grid("0:10:5")  # log grid from zero

    def test_sites(self):
        assert parse_sites("0;1") == ((0,), (1,))
        assert parse_sites("0,0; 1,2") == ((0, 0), (1, 2))
        with pytest.raises(ConfigError):
            parse_sites(" ; ")

    def test_unknown_key_is_line_precise(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config_text("mode = range\nt_grid = 1,2\nbogus = 1\nreplicas = 10\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("mode = range\nmode = forward\n")

    def test_bad_value_is_line_precise(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("mode = range\nreplicas = many\nt_grid = 1,2\nnu = 1\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config_text("t_grid = 1,2\nreplicas = 10\n")

    def test_table_disorder(self):
        cfg = parse_config_text(
            "mode = dual-quenched\ndisorder = table\natoms = 0:0.25, 2:0.75\n"
            "t_grid = 1,2\nreplicas = 10\nsites = 0\n")
        assert cfg.law.atoms == ((0.0, 0.25), (2.0, 0.75))

    def test_validation_catches_semantic_problems(self):
        with pytest.raises(ConfigError, match="increasing"):
            small_config(t_grid=(2.0, 1.0)).validate()
        with pytest.raises(ConfigError, match="replicas"):
            small_config(replicas=1).validate()
        with pytest.raises(ConfigError, match="monotone"):
            sandwich_report(small_config(mode="sandwich",
                                         observable=LocalFunction([(0,)], [1.0, 0.0])))
        with pytest.raises(ConfigError, match="nu"):
            ExperimentConfig(mode="range", t_grid=(1.0,), replicas=10).validate()
        with pytest.raises(ConfigError, match="constant"):
            small_config(mode="dual-quenched",
                         observable=LocalFunction([(0,)], [1.0, 1.0])).validate()

    def test_hash_is_stable_and_sensitive(self):
        a = config_hash(small_config())
        b = config_hash(small_config())
        c = config_hash(small_config(seed=4))
        assert a == b
        assert a != c


class TestFit:
    def test_noiseless_stretched_exponential(self):
        ts = np.geomspace(10, 1000, 20)
        curve = [(t, math.exp(-0.05 * t ** 0.4)) for t in ts]
        gamma, ci = fit_stretch_exponent(curve)
        assert gamma == pytest.approx(0.4, abs=1e-6)
        assert ci < 1e-6

    def test_noisy_coverage(self):
        # 1% multiplicative noise; the 99% interval should cover the truth
        # in at least 95% of seeds
        ts = np.geomspace(10, 1000, 20)
        clean = np.exp(-0.05 * ts ** 0.4)
        hits = 0
        n_seeds = 1000
        for s in range(n_seeds):
            rng = np.random.default_rng(s)
            noisy = clean * (1.0 + 0.01 * rng.standard_normal(ts.size))
            gamma, ci = fit_stretch_exponent(zip(ts, noisy), window=(10, 1000))
            hits += abs(gamma - 0.4) <= ci
        assert hits / n_seeds >= 0.95

    def test_default_window_is_last_decade(self):
        ts = np.geomspace(1, 1000, 30)
        curve = [(t, math.exp(-0.05 * t ** 0.5)) for t in ts]
        g_all, _ = fit_stretch_exponent(curve, window=(1, 1000))
        g_dec, _ = fit_stretch_exponent(curve)
        assert g_all == pytest.approx(0.5, abs=1e-9)
        assert g_dec == pytest.approx(0.5, abs=1e-9)

    def test_exact_series_exponent_window(self, exact_series_nu1):
        ts, values = exact_series_nu1
        gamma, ci = fit_stretch_exponent(zip(ts, values), window=(100, 2000))
        assert 0.30 <= gamma <= 0.42

    def test_ci_halfwidth_matches_student_t_ppf(self, monkeypatch):
        # the fit reads its quantile from scipy.special.stdtrit; it is the
        # same float as scipy.stats.t.ppf for every dof, and so is every
        # half-width (a fit needs 5 points, so dof >= 3 there)
        from scipy.stats import t as student_t
        p = 0.5 + harness.CI_LEVEL / 2.0
        for dof in range(1, 201):
            assert harness.stdtrit(dof, p) == student_t.ppf(p, dof)
        rng = np.random.default_rng(8)
        curves = []
        for dof in range(3, 201):
            ts = np.geomspace(10, 1000, dof + 2)
            noisy = np.exp(-0.05 * ts ** 0.4) * (1.0 + 0.01 * rng.standard_normal(ts.size))
            curves.append(list(zip(ts, noisy)))
        got = [fit_stretch_exponent(c, window=(10, 1000))[1] for c in curves]
        calls = []

        def ppf(dof, p):
            calls.append(dof)
            return student_t.ppf(p, dof)
        monkeypatch.setattr(harness, "stdtrit", ppf)
        want = [fit_stretch_exponent(c, window=(10, 1000))[1] for c in curves]
        assert calls == list(range(3, 201))
        assert got == want

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 5"):
            fit_stretch_exponent([(1, 0.5), (2, 0.4), (3, 0.3), (4, 0.2)])
        pts = [(t, 1.2) for t in (1, 2, 3, 4, 5)]
        with pytest.raises(ValueError, match="inside"):
            fit_stretch_exponent(pts, window=(1, 5))


class TestRunPipelines:
    def test_deterministic_law_reduces_to_pure_exponential(self):
        b = 0.8
        cfg = small_config(law=deterministic_law(b), t_grid=(0.5, 2.0, 5.0),
                           replicas=200)
        columns, _ = run(cfg)
        for t, mean, se in zip(columns["t"], columns["mean"], columns["stderr"]):
            assert abs(mean - math.exp(-b * t)) < 1e-12
            assert se < 1e-12
        # no mass at zero: floor is trivial
        report = sandwich_report(small_config(mode="sandwich", law=deterministic_law(b),
                                              t_grid=(0.5, 2.0, 5.0), replicas=200))
        assert all(v == 0.0 for v in report.columns["lower"])

    def test_all_mass_at_zero_is_constant_one(self):
        cfg = small_config(law=deterministic_law(0.0), replicas=100)
        columns, _ = run(cfg)
        assert all(m == 1.0 for m in columns["mean"])
        assert all(se == 0.0 for se in columns["stderr"])

    def test_sandwich_holds_on_small_run(self):
        cfg = small_config(mode="sandwich",
                           t_grid=tuple(float(t) for t in np.geomspace(10, 300, 8)),
                           replicas=4000)
        c = sandwich_report(cfg).columns
        for ok, low, est, se, low_se in zip(c["sandwich_ok"], c["lower"], c["estimate"],
                                            c["stderr"], c["lower_stderr"]):
            assert ok
            assert low <= est + 4 * math.sqrt(se ** 2 + low_se ** 2)

    def test_pathwise_floor_audited_inside_estimator(self, monkeypatch):
        # every annealed walk run checks weight >= mass_at_zero ** |R_t| on
        # every path, unasked: a floor above every weight must trip it
        monkeypatch.setattr(walks, "_FLOOR_TOL", -1.0)
        with pytest.raises(InvariantError, match="floor"):
            walks.walk_curve(make_nn_kernel(1), [1, 5], 50, 0, law=bernoulli_law(0.5, 1))

    def test_forward_mode(self):
        cfg = small_config(mode="forward", side=6, t_grid=(0.5, 1.5),
                           replicas=2000, law=deterministic_law(1.0))
        columns, _ = run(cfg)
        for t, mean, se in zip(columns["t"], columns["mean"], columns["stderr"]):
            assert abs(mean - math.exp(-t)) < 4 * se + 1e-12

    def test_forward_mode_annealed_matches_exact_average(self):
        # each replica draws its own field: the curve is the law-weighted
        # average of the exact quenched values over all 16 fields of a 4-ring
        law = bernoulli_law(0.5, 1.0)
        cfg = small_config(mode="forward", side=4, t_grid=(0.5, 2.0),
                           replicas=40_000, law=law)
        columns, _ = run(cfg)
        tk = fold_to_torus(make_nn_kernel(1), 4)
        (b0, p0), (b1, p1) = law.atoms
        exact = 0.0
        for bits in itertools.product((0, 1), repeat=4):
            beta = np.where(np.array(bits) == 1, b1, b0)
            weight = np.prod([p1 if b else p0 for b in bits])
            exact += weight * exact_dual_value([(0,)], beta, tk, columns["t"])
        for t, mean, se, want in zip(columns["t"], columns["mean"], columns["stderr"], exact):
            assert abs(mean - want) < 4 * se, f"t={t}"

    def test_dual_quenched_mode(self):
        cfg = small_config(mode="dual-quenched", replicas=300,
                           observable=product_indicator([(0,)]), disorder_seed=5)
        columns, _ = run(cfg)
        assert all(0.0 < m <= 1.0 for m in columns["mean"])
        assert all(p == 1.0 for p in columns["mean_particles"])

    def test_dual_annealed_without_observable_is_plain_estimator(self):
        cfg = small_config(observable=product_indicator([(0,), (1,)]), replicas=300)
        columns, _ = run(cfg)
        assert list(columns) == ["t", "mean", "stderr", "mean_range", "mean_particles"]
        assert all(0.0 < m <= 1.0 for m in columns["mean"])

    def test_quenched_observable_runs_its_expansion(self, tmp_path):
        # f = sum_A fhat(A) H(., A): OR and AND share a support but not a dual
        flags = ["--disorder", "bernoulli", "--q", "0.5", "--b", "1", "--disorder-seed", "9",
                 "--t-grid", "1,4,10", "--replicas", "4000", "--seed", "5"]
        outputs = {}
        for name, table in (("or", "0 0\n1 1\n2 1\n3 1\n"), ("and", "0 0\n1 0\n2 0\n3 1\n")):
            text = "sites = 0;1\n" + table
            (tmp_path / f"{name}.txt").write_text(text)
            out = tmp_path / f"{name}.csv"
            code = cli_main(["simulate-dual", "--mode", "quenched", "--observable",
                             f"file {tmp_path / name}.txt", *flags, "--out", str(out)])
            assert code == 0
            outputs[name] = out.read_bytes()
            rows = [ln.split(",") for ln in out.read_text().splitlines()
                    if not ln.startswith("#")][1:]
            mean, se = (np.array([float(r[i]) for r in rows]) for i in (1, 2))
            ref, var = 0.0, se ** 2
            for i, (A, c) in enumerate(sorted(hat_coeffs(parse_localfn_text(text)).items(),
                                              key=lambda item: sorted(item[0]))):
                if A and c != 0.0:
                    curve = dual_curve(sorted(A), make_nn_kernel(1), [1.0, 4.0, 10.0], 4000,
                                       20 + i, bias=LazyBiasField(bernoulli_law(0.5, 1.0), 9))
                    ref, var = ref + c * curve.weight_mean, var + (c * curve.weight_stderr) ** 2
            assert np.all(np.abs(mean - ref) < 4 * np.sqrt(var)), name
        assert outputs["or"] != outputs["and"]

    def test_annealed_xor_is_or_minus_and(self):
        # the three expansions share the starts {0, 1}, so one draw: per replica
        # w_0 + w_1 - 2 w_01 = (w_0 + w_1 - w_01) - w_01
        means = {}
        for name, table in (("xor", [0, 1, 1, 0]), ("or", [0, 1, 1, 1]), ("and", [0, 0, 0, 1])):
            cfg = small_config(observable=LocalFunction([(0,), (1,)], table), replicas=1500,
                               t_grid=(1.0, 4.0, 10.0, 40.0))
            means[name] = run(cfg)[0]["mean"]
        assert np.all(np.abs(means["xor"] - (means["or"] - means["and"])) < 1e-12)

    def test_and_observable_reduces_once_per_batch(self, monkeypatch):
        # the AND expansion is the one term {0, 1}: no other walk is reduced
        reduce, walkers = walks._reduce, []

        def counted(kernel, t_grid, draw, k, *args):
            walkers.append(k)
            return reduce(kernel, t_grid, draw, k, *args)
        monkeypatch.setattr(walks, "_reduce", counted)
        run(small_config(observable=LocalFunction([(0,), (1,)], [0, 0, 0, 1]), replicas=3000))
        assert walkers == [2, 2, 2]   # 1024 replicas of two walkers per batch

    def test_multi_chunk_csv_is_byte_identical_across_workers(self, tmp_path):
        # criterion 10 past one chunk: a 2048-replica batch to t = 600 runs in
        # three chunks, the 52-replica tail batch in one
        config = small_config(t_grid=tuple(np.geomspace(5.0, 600.0, 6)), replicas=2100,
                              seed=1010)
        assert walks._chunk_size(600.0, 1, walks.BATCH_SIZE) == 873   # 873 + 873 + 302
        assert walks._chunk_size(600.0, 1, 52) == 52
        outputs = []
        for threads in (1, 2):
            config = dataclasses.replace(config, threads=threads)
            path = tmp_path / f"t{threads}.csv"
            columns, notes = run(config)
            write_records_csv(path, columns, config, notes)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_range_mode(self):
        cfg = ExperimentConfig(mode="range", t_grid=(1.0, 5.0, 20.0),
                               replicas=2000, seed=1, nu=1.0)
        columns, _ = run(cfg)
        assert all(m > 0 for m in columns["mean"])
        assert columns["local_exponent"][1] is not None
        assert columns["local_exponent"][0] is None  # endpoint has no slope


class TestSandwichReport:
    def test_flags_on_bernoulli(self):
        cfg = small_config(mode="sandwich",
                           t_grid=tuple(float(t) for t in np.geomspace(10, 500, 10)),
                           replicas=4000)
        report = sandwich_report(cfg)
        assert report.hypothesis_upper_ok and report.hypothesis_lower_ok
        assert report.ordering_ok
        assert report.gamma_target == pytest.approx(1.0 / 3.0)
        assert report.constants["nu1"] < report.constants["nu2"]
        assert report.constants["c_upper"] < report.constants["c_lower"]

    def test_theorem_constants_ordering_on_law_grid(self):
        # nu1 < nu2 whenever the law mixes zero and positive bias, so the
        # two rate constants are strictly ordered
        from biased_voter.disorder import nu1, nu2
        lam = lambda_nn(1)
        for q in np.linspace(0.1, 0.9, 5):
            for b in np.linspace(0.2, 4.0, 5):
                law = bernoulli_law(q, b)
                assert nu1(law) < nu2(law)
                assert dv_constant(1, 2, lam, nu1(law)) < dv_constant(1, 2, lam, nu2(law))

    def test_hypothesis_failure_reported_not_raised(self):
        rep = sandwich_report(small_config(mode="sandwich", law=deterministic_law(1.0),
                                           replicas=200))
        assert rep.hypothesis_upper_ok and not rep.hypothesis_lower_ok
        rep = sandwich_report(small_config(mode="sandwich", law=deterministic_law(0.0),
                                           replicas=200))
        assert rep.hypothesis_lower_ok and not rep.hypothesis_upper_ok

    def test_sandwich_mode_runs_through_its_report_alone(self):
        with pytest.raises(ConfigError, match="sandwich_report"):
            run(small_config(mode="sandwich"))
        with pytest.raises(ConfigError, match="takes a sandwich config"):
            sandwich_report(small_config())
        power = dict(kernel_name="power", alpha=1.0)
        with pytest.raises(ConfigError, match="does not read 'fit_window'"):
            small_config(**power, fit_window=(10.0, 100.0)).validate()
        small_config(mode="sandwich", **power, fit_window=(10.0, 100.0)).validate()

    def test_eigenvalue_comes_from_the_kernel(self):
        # no key sets lam: nn has closed forms, a power kernel its Galerkin value
        assert "lam" not in harness.CONFIG_KEYS
        with pytest.raises(TypeError):
            small_config(mode="sandwich", lam=4.9)
        nn = sandwich_report(small_config(mode="sandwich", replicas=50))
        assert nn.constants["lambda"] == lambda_nn(1)
        power_cfg = small_config(mode="sandwich", kernel_name="power", alpha=1.0, replicas=50)
        power = sandwich_report(power_cfg)
        lam = dirichlet_eigenvalue(power_cfg.kernel())
        assert power.constants["lambda"] == lam
        assert power.constants["c_upper"] == dv_constant(1, 1.0, lam, power.constants["nu1"])
        assert power.constants["c_lower"] == dv_constant(1, 1.0, lam, power.constants["nu2"])


BENCH_GRID = parse_t_grid("10:1000:12")   # the sandwich benchmark call's grid


class TestSandwichControlVariate:
    """Where E exp(-nu2 |R_t|) is known exactly, the sandwich estimate takes it as a control."""

    @pytest.mark.parametrize("observable", [
        site_indicator(0), LocalFunction([(3,)], [0.5, 2.5]),
    ], ids=["site-0", "half-plus-2H(3)"])
    def test_exact_algebra_on_one_draw(self, monkeypatch, observable):
        config = small_config(mode="sandwich", t_grid=BENCH_GRID, replicas=2048, seed=11,
                              observable=observable)
        controlled = sandwich_report(config)
        monkeypatch.setattr(harness, "CONTROL_CAP_CEILING", 32)   # no cap certifies: plain
        plain = sandwich_report(config)
        assert controlled.control_width_cap == 128 and plain.control_width_cap is None
        c = hat_coeffs(observable)[frozenset(observable.support)]
        exact = c * exact_range_functional_curve_1d(nu2(config.law), config.t_grid, 128)
        est, plain_est = controlled.columns["estimate"], plain.columns["estimate"]
        base = plain.columns["lower"] / plain.constants["gap_f"]   # mean exp(-nu2 |R_t|)
        assert np.all(np.abs((est - plain_est) - (exact - c * base)) <= 1e-12 * est)
        assert np.all(est >= exact)
        assert np.all(controlled.columns["stderr"] < plain.columns["stderr"])
        for name in ("lower", "lower_stderr", "upper", "upper_stderr"):
            assert np.array_equal(controlled.columns[name], plain.columns[name]), name

    def test_agrees_with_an_independent_plain_run(self):
        report = sandwich_report(small_config(mode="sandwich", t_grid=BENCH_GRID,
                                              replicas=8192, seed=21))
        assert report.control_width_cap == 128
        k = 7   # t <= 123.3, where the plain stderr covers the truth
        ref = walk_curve(make_nn_kernel(1), BENCH_GRID[:k], 100_000, 22,
                         law=bernoulli_law(0.5, 1.0))
        est, se = report.columns["estimate"][:k], report.columns["stderr"][:k]
        assert np.all(np.abs(est - ref.weight_mean) <= 4 * np.hypot(se, ref.weight_stderr))
        # the control cuts the stderr: by about half at t = 123 (variance ratio 0.23)
        assert np.all(se < 0.8 * ref.weight_stderr * math.sqrt(100_000 / 8192))

    @pytest.mark.parametrize("overrides", [
        dict(law=bernoulli_law(0.99, 1.0), t_grid=BENCH_GRID),   # its cap passes the ceiling
        dict(law=deterministic_law(1.0)),                         # no mass at zero
        dict(kernel_name="power", alpha=1.0),
        dict(dim=2, observable=site_indicator((0, 0))),
        dict(observable=product_indicator([(0,), (1,)])),
    ], ids=["q0-0.99", "no-mass-at-zero", "power", "2-d", "two-sites"])
    def test_plain_estimate_outside_the_exact_cases(self, overrides):
        # the plain estimate is the dual-annealed run's at the same seed
        report = sandwich_report(small_config(mode="sandwich", replicas=64, **overrides))
        columns, _ = run(small_config(replicas=64, **overrides))
        assert report.control_width_cap is None
        assert np.array_equal(report.columns["estimate"], columns["mean"])
        assert np.array_equal(report.columns["stderr"], columns["stderr"])

    def test_q0_of_0_99_needs_a_wider_series_than_the_ceiling(self):
        with pytest.raises(ValueError, match="width_cap"):
            exact_range_functional_curve_1d(nu2(bernoulli_law(0.99, 1.0)), BENCH_GRID,
                                            harness.CONTROL_CAP_CEILING)

    def test_header_names_the_estimator(self, tmp_path):
        out = tmp_path / "sandwich.csv"
        for law, cap in ((bernoulli_law(0.5, 1.0), "128"), (bernoulli_law(0.99, 1.0), "")):
            config = small_config(mode="sandwich", t_grid=BENCH_GRID, replicas=64, law=law)
            write_sandwich_csv(out, sandwich_report(config))
            lines = out.read_text().splitlines()
            assert f"# control_width_cap: {cap}" in lines
            assert f"# config-hash: {config_hash(config)}" in lines
        assert "control_width_cap" not in harness.CONFIG_KEYS


    @pytest.mark.parametrize("q0, grid", [
        (0.5, "10:1000:12"), (0.9, "10:1000:12"), (0.99, "10:1000:12"), (0.9, "1:10000:9"),
        (0.99, "0.5:50:7"), (0.3, "1:10000:9"),
    ])
    def test_cap_is_chosen_before_any_series_is_summed(self, monkeypatch, q0, grid):
        # the first cap the series certifies, as the loop over every cap found it;
        # a cap whose bound exceeds 2e-12 q0 is passed over without its series
        config = small_config(mode="sandwich", t_grid=parse_t_grid(grid), law=bernoulli_law(q0, 1.0))
        nu = nu2(config.law)
        first = next((cap for cap in (64, 128, 256, 512, 1024)
                      if self._certifies(nu, config.t_grid, cap)), None)
        summed = []

        def counted(*args):
            summed.append(args[2])
            return exact_range_functional_curve_1d(*args)

        monkeypatch.setattr("biased_voter.exact.exact_range_functional_curve_1d", counted)
        got = harness._exact_control(config, nu)
        assert (got and got[0]) == first
        assert summed[-1:] == ([first] if first else [])
        if first is not None:
            assert np.array_equal(got[1], exact_range_functional_curve_1d(nu, config.t_grid, first))
        if (q0, grid) == (0.99, "10:1000:12"):
            assert summed == []     # was five series, about 0.3 s

    @staticmethod
    def _certifies(nu, t_grid, cap):
        try:
            exact_range_functional_curve_1d(nu, t_grid, cap)
        except ValueError:
            return False
        return True


class TestQuenchedBox:
    """A d = 1 nn quenched run goes on exactly through a box once one rider is left."""

    GRID = parse_t_grid("10:100:6")   # the short_horizon benchmark call's grid

    def config(self, **overrides):
        return small_config(**{"mode": "dual-quenched", "t_grid": self.GRID, "replicas": 100,
                               "observable": product_indicator([(0,), (1,), (3,)]),
                               "disorder_seed": 11, **overrides})

    def test_ladder_takes_the_first_width_that_certifies(self, monkeypatch):
        config = self.config()
        field = LazyBiasField(config.law, 11)
        box = harness._quenched_box(config, field)
        assert (box.center, box.width) == (1, 64)
        span = np.arange(0, 4)
        half = walks.QuenchedBox.solve(field, 1, 32, 100.0)
        assert np.isnan(half.log_value(np.full(4, 100.0), span)).any()
        monkeypatch.setattr(harness, "BOX_WIDTH_CEILING", 32)
        assert harness._quenched_box(config, field) is None

    @pytest.mark.parametrize("overrides, width", [
        ({}, "64"),
        ({"dim": 2, "observable": product_indicator([(0, 0), (1, 0)])}, ""),
        ({"kernel_name": "power", "alpha": 1.0}, ""),
        ({"mode": "dual-annealed"}, None),
    ], ids=["nn-1d", "nn-2d", "power", "annealed"])
    def test_header_names_the_box(self, tmp_path, overrides, width):
        config = self.config(**overrides)
        if config.mode == "dual-annealed":
            config = dataclasses.replace(config, disorder_seed=None)
        out = tmp_path / "dual.csv"
        columns, notes = run(config)
        write_records_csv(out, columns, config, notes)
        lines = out.read_text().splitlines()
        boxes = [ln for ln in lines if ln.startswith("# quenched_box:")]
        assert boxes == ([] if width is None else [f"# quenched_box: {width}"])
        assert f"# config-hash: {config_hash(config)}" in lines
        assert "quenched_box" not in harness.CONFIG_KEYS

    def test_plain_estimate_past_the_ceiling_keeps_the_walk(self, monkeypatch):
        # with no box the run is the plain walk, and the box moves no range or rider count
        config = self.config()
        boxed, _ = run(config)
        monkeypatch.setattr(harness, "BOX_WIDTH_CEILING", 32)
        plain, notes = run(config)
        assert notes["quenched_box"] is None
        field = LazyBiasField(config.law, 11)
        ref = walk_curve(make_nn_kernel(1), config.t_grid, 100, config.seed,
                         starts=harness._expansion(config), bias=field)
        assert np.array_equal(plain["mean"], ref.weight_mean)
        for name in ("mean_range", "mean_particles"):
            assert np.array_equal(boxed[name], plain[name]), name
        # t <= 25.1: past it 100 plain samples rarely hold the rare heavy paths
        assert np.all(boxed["stderr"][:3] < plain["stderr"][:3])

    @pytest.mark.parametrize("dseed", [11, 12, 13])
    def test_one_site_run_is_exact_with_no_spread(self, dseed):
        # the benchmark call's grid out to t = 100, in localised random fields, against
        # the exact dual on a 256-site ring carrying the field's values on -128 .. 127
        config = self.config(observable=site_indicator(0), t_grid=(1.0, 5.0, *self.GRID),
                             disorder_seed=dseed)
        columns, notes = run(config)
        assert notes["quenched_box"] == 64
        field = LazyBiasField(config.law, dseed)
        tk = fold_to_torus(make_nn_kernel(1), 256)
        beta = np.array([field.value(((x + 128) % 256 - 128,)) for x in range(256)])
        want = exact_dual_value([(0,)], beta, tk, config.t_grid)
        assert np.all(np.abs(columns["mean"] - want) <= 1e-10 * want)
        assert np.all(columns["stderr"] == 0.0)


class TestPersistence:
    def test_csv_roundtrip(self, tmp_path):
        cfg = small_config(replicas=300)
        columns, _ = run(cfg)
        out = tmp_path / "curve.csv"
        write_records_csv(out, columns, cfg)
        text = out.read_text()
        assert f"# config-hash: {config_hash(cfg)}" in text
        ts, ms = read_curve_csv(out)
        assert np.array_equal(ts, columns["t"])
        assert np.array_equal(ms, columns["mean"])

    def test_sandwich_csv_headers(self, tmp_path):
        cfg = small_config(mode="sandwich",
                           t_grid=tuple(float(t) for t in np.geomspace(5, 200, 8)),
                           replicas=600)
        report = sandwich_report(cfg)
        out = tmp_path / "sandwich.csv"
        write_sandwich_csv(out, report)
        text = out.read_text()
        assert f"# gamma_target: {report.gamma_target!r}" in text
        assert "sandwich_ok" in text.splitlines()[-len(report.columns["t"]) - 1]
        config_lines = [ln[2:] for ln in text.splitlines() if ln.startswith("# ") and " = " in ln]
        read_back = parse_config_text("\n".join(config_lines), str(out))
        assert f"# config-hash: {config_hash(read_back)}" in text

    def test_determinism_across_thread_counts(self, tmp_path):
        cfg = small_config(replicas=2100, threads=1)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        columns, max_pos = run(cfg)
        write_records_csv(a, columns, cfg, max_pos)
        cfg3 = ExperimentConfig(**{**cfg.__dict__, "threads": 3})
        columns, max_pos = run(cfg3)
        write_records_csv(b, columns, cfg3, max_pos)
        assert a.read_bytes() == b.read_bytes()

    def test_sandwich_determinism_across_thread_counts(self, tmp_path):
        # the control-variate route; 4200 replicas: two full batches and a ragged tail
        outputs = []
        for threads in (1, 3, 1):
            report = sandwich_report(small_config(
                mode="sandwich", t_grid=tuple(float(t) for t in np.geomspace(5.0, 200.0, 6)),
                replicas=4200, seed=1010, threads=threads))
            assert report.control_width_cap == 64
            path = tmp_path / f"sandwich{len(outputs)}.csv"
            write_sandwich_csv(path, report)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_forward_determinism_across_thread_counts(self, tmp_path):
        # 4200 replicas: two full 2048-replica chunks and a ragged tail
        outputs = []
        for threads in (1, 2, 1):
            cfg = small_config(mode="forward", side=8, t_grid=(0.5, 2.0),
                               replicas=4200, threads=threads)
            path = tmp_path / f"fwd{len(outputs)}.csv"
            columns, max_pos = run(cfg)
            write_records_csv(path, columns, cfg, max_pos)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_multi_site_dual_determinism_across_thread_counts(self, tmp_path):
        # three riders per replica: 682-replica batches, two full and a ragged tail
        outputs = []
        for threads in (1, 2, 1):
            cfg = small_config(mode="dual-quenched",
                               observable=product_indicator([(0,), (1,), (3,)]), disorder_seed=11,
                               replicas=1500, threads=threads)
            path = tmp_path / f"dual{len(outputs)}.csv"
            columns, max_pos = run(cfg)
            write_records_csv(path, columns, cfg, max_pos)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("jobs", [[-1], [-1, 2]], ids=["one-job", "two-jobs"])
    def test_no_more_workers_than_jobs(self, monkeypatch, jobs):
        # the spy runs the jobs in this process, so no worker ever starts;
        # every worker gets the allocator policy, whatever the start method
        started = []

        class SpyPool:
            def __init__(self, max_workers, initializer=None):
                started.append((max_workers, initializer))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", SpyPool)
        assert map_batches(abs, jobs, threads=4) == [abs(j) for j in jobs]
        assert started == [(len(jobs), keep_freed_pages)]

    def test_keep_freed_pages_without_mallopt_is_a_no_op(self, monkeypatch):
        looked_up = []

        class NoMallopt:
            def __init__(self, name):
                looked_up.append(name)

        monkeypatch.setattr(stats.ctypes, "CDLL", NoMallopt)
        assert keep_freed_pages.__wrapped__() is None
        assert looked_up == [None]


class TestCLI:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs most of the CLI's start-up; nothing may import it
        src = str(Path(biased_voter.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, biased_voter.cli; assert 'scipy.stats' not in sys.modules"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_forward_dual_and_range_runs_leave_scipy_unloaded(self, tmp_path):
        # only the exact oracles and the fits compute with scipy; the package
        # still serves the oracles by name, loading scipy on first access
        script = """if True:
            import sys
            import biased_voter, biased_voter.cli
            law = ["--disorder", "bernoulli", "--q", "0.5", "--b", "1"]
            for argv in (["simulate-forward", "--L", "4", *law],
                         ["simulate-dual", "--mode", "quenched", "--sites", "0;1", *law],
                         ["range", "--nu", "1"],
                         # three riders through the quenched box, solved with numpy alone
                         ["simulate-dual", "--mode", "quenched", "--sites", "0;1;3", *law,
                          "--t-grid", "10:100:6"]):
                if "--t-grid" not in argv:
                    argv = [*argv, "--t-grid", "1,2"]
                code = biased_voter.cli.main([*argv, "--replicas", "20", "--out", sys.argv[1]])
                assert code == 0, argv
            assert "scipy" not in sys.modules
            from biased_voter import duality_gap, exact_dual_value, exact_range_functional_curve_1d
            assert "scipy" in sys.modules
            try:
                biased_voter.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                raise SystemExit("an unknown attribute resolved")
            """
        src = str(Path(biased_voter.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "o.csv")],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                        reason="libc has no mallopt")
    def test_warm_range_calls_do_not_fault_their_pages_in_again(self, tmp_path):
        # a fresh interpreter: the policy is set by the first cli.main call.
        # Without it glibc trims each freed chunk and every call faults about 10k pages
        script = """if True:
            import resource, sys
            from biased_voter import cli
            argv = ["range", "--nu", "1.0", "--t-grid", "10:1000:4", "--replicas", "2048",
                    "--seed", "3", "--out", sys.argv[1]]
            for _ in range(3):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                assert cli.main(argv) == 0
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        src = str(Path(biased_voter.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "o.csv")],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        faults = [int(line) for line in proc.stdout.split()]
        assert len(faults) == 3 and max(faults[1:]) < 1000, faults

    def test_simulate_dual_and_fit(self, tmp_path, capsys):
        out = tmp_path / "dual.csv"
        code = cli_main(["simulate-dual", "--mode", "annealed", "--sites", "0",
                         "--disorder", "bernoulli", "--q", "0.5", "--b", "1",
                         "--t-grid", "5:200:8", "--replicas", "2000",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        code = cli_main(["fit", "--in", str(out)])
        assert code == 0
        assert "gamma = " in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["", "# biased-voter forward\nt,stderr\n1.0,0.1\n"],
                             ids=["empty", "no-value-column"])
    def test_fit_on_a_csv_with_no_curve_exits_2_naming_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "curve.csv"
        path.write_text(text)
        assert cli_main(["fit", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_sandwich_hypothesis_failure_exit_code(self, tmp_path):
        code = cli_main(["sandwich", "--disorder", "deterministic", "--b", "1",
                         "--observable", "site 0", "--t-grid", "5:200:8",
                         "--replicas", "500", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_sandwich_success_exit_code(self, tmp_path):
        code = cli_main(["sandwich", "--disorder", "bernoulli", "--q", "0.5",
                         "--b", "1", "--observable", "site 0",
                         "--t-grid", "10:300:8", "--replicas", "3000",
                         "--seed", "11", "--out", str(tmp_path / "s.csv")])
        assert code == 0

    @pytest.mark.parametrize("ordering_ok, code", [(True, 0), (False, EXIT_INVARIANT)])
    def test_sandwich_exit_follows_the_ordering_not_the_bracket(
            self, tmp_path, monkeypatch, capsys, ordering_ok, code):
        # the fits of a finite-window miss seen at t <= 1000, bracket false
        def missed(config):
            return dataclasses.replace(
                sandwich_report(config), ordering_ok=ordering_ok, gamma_bracket_ok=False,
                gamma_estimate=(0.4354, 0.0037), gamma_lower=(0.4099, 0.0100),
                gamma_upper=(0.4239, 0.0077))
        monkeypatch.setattr(cli, "sandwich_report", missed)
        out = tmp_path / "s.csv"
        assert cli_main(["sandwich", "--disorder", "bernoulli", "--q", "0.5", "--b", "1",
                         "--t-grid", "5,10", "--replicas", "50", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "# gamma_bracket_ok: 0" in out.read_text()
        if ordering_ok:
            assert ("warning: the bound exponents do not bracket" in err
                    and "estimate 0.4354 +- 0.0037, lower 0.4099 +- 0.0100, "
                        "upper 0.4239 +- 0.0077" in err)
        else:
            assert "invariant violation: bound ordering failed" in err

    def test_sandwich_default_observable_in_header(self, tmp_path):
        # the header and hash describe the config the audit ran, so leaving
        # out the default observable writes the same file as naming it
        args = ["sandwich", "--disorder", "bernoulli", "--q", "0.5", "--b", "1",
                "--t-grid", "5,10", "--replicas", "50", "--seed", "5"]
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        cli_main([*args, "--out", str(implicit)])
        cli_main([*args, "--observable", "site 0", "--out", str(explicit)])
        assert implicit.read_bytes() == explicit.read_bytes()
        assert "# observable = 0|1:1.0" in implicit.read_text()

    def test_sandwich_rejects_non_monotone_observable(self, tmp_path, capsys):
        # a dual run takes any observable; only the sandwich's bounds need monotone
        text = "sites = 0;1\n0 0\n1 1\n2 1\n3 0\n"
        small_config(observable=parse_localfn_text(text)).validate()
        xor = tmp_path / "xor.txt"
        xor.write_text(text)
        code = cli_main(["sandwich", "--disorder", "bernoulli", "--q", "0.5", "--b", "1",
                         "--observable", f"file {xor}", "--t-grid", "5,10",
                         "--replicas", "50", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "monotone observable" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["range", "--replicas", "2000"], ["exact", "--what", "range"]],
                             ids=["range", "exact"])
    def test_range_grid_from_zero(self, tmp_path, argv):
        # lin:a:b:n may start at t = 0, where the local slope is undefined
        out = tmp_path / "r.csv"
        assert cli_main([*argv, "--nu", "1", "--t-grid", "lin:0:50:6", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
        slopes = [row[rows[0].index("local_exponent")] for row in rows[1:]]
        # no slope at t = 0, nor at either end of the points past it
        assert slopes[:2] == ["", ""] and slopes[-1] == "" and all(slopes[2:-1])

    def test_exact_duality_gate(self, tmp_path):
        code = cli_main(["exact", "--what", "duality", "--L", "3",
                         "--fields", "2", "--out", str(tmp_path / "d.csv")])
        assert code == 0

    def test_exact_duality_beyond_site_limit(self, tmp_path, capsys):
        code = cli_main(["exact", "--what", "duality", "--L", "13",
                         "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "limited to 12 sites" in capsys.readouterr().err

    def test_localfn_check(self, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("sites = 0;1\n0 0\n1 1\n2 1\n3 1\n")
        assert cli_main(["localfn", "--check", str(f)]) == 0
        assert "monotone = True" in capsys.readouterr().out

    def test_localfn_check_repeated_mask_names_the_line(self, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("sites = 0;1\n1 1.0\n1 0.5\n")
        assert cli_main(["localfn", "--check", str(f)]) == 2
        assert "bitmask 1 given twice (line 3)" in capsys.readouterr().err

    def test_localfn_check_rejects_sites_of_mixed_dimension(self, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("sites = 0,1;1\n3 1.0\n")
        assert cli_main(["localfn", "--check", str(f)]) == 2
        assert "one dimension" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = range\nt_grid = 1,2\nreplicas = 10\n")  # missing nu
        code = cli_main(["range", "--config", str(cfg),
                         "--out", str(tmp_path / "r.csv")])
        assert code == 2

    def test_forward_cli(self, tmp_path):
        out = tmp_path / "fwd.csv"
        code = cli_main(["simulate-forward", "--dim", "1", "--L", "6",
                         "--disorder", "deterministic", "--b", "0.5",
                         "--t-grid", "lin:0.5:2:3", "--replicas", "400",
                         "--seed", "5", "--out", str(out)])
        assert code == 0
        header = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][0]
        assert header == "t,mean,stderr,replicas"


FORWARD_ARGS = ["simulate-forward", "--dim", "1", "--L", "4", "--disorder",
                "deterministic", "--b", "1", "--t-grid", "0.5,1", "--replicas", "20"]

# corrupts the engine's per-replica ones count, so the first event that
# changes an opinion breaks the absorbing-state invariant
CORRUPT_ONES = """
from biased_voter import forward
init = forward._EventStream.__init__
def corrupted(self, *args):
    init(self, *args)
    for ones in self.ones:
        ones[:] = 0
"""
CORRUPTED_CLI = """
import sys
from biased_voter import cli
forward._EventStream.__init__ = corrupted
sys.exit(cli.main(sys.argv[1:]))
"""

DUAL_ARGS = ["simulate-dual", "--mode", "annealed", "--sites", "0;1", "--disorder",
             "bernoulli", "--q", "0.5", "--b", "1", "--t-grid", "0.5,1", "--replicas", "20"]

# a Laplace transform above 1 makes annealed path weights leave (0, 1]
INFLATED_LAPLACE = """
import sys
from biased_voter import cli, walks
def inflated(law, u):
    return 1.5 + 0.0 * u
"""


# a Laplace transform above 1 only at local times past 3: the weights leave
# (0, 1] at t = 10, and not at t = 1
LATE_INFLATED_LAPLACE = """
import sys
import numpy as np
from biased_voter import cli, walks
def inflated(law, u):
    return np.where(u > 3.0, 1.5, 1.0)
"""
LATE_DUAL_ARGS = [*DUAL_ARGS[:-4], "--t-grid", "1,10", "--replicas", "20"]


class TestInvariantExitCode:
    def test_forward_violation_exits_3(self, tmp_path, monkeypatch, capsys):
        patch = {}
        exec(CORRUPT_ONES, patch)
        monkeypatch.setattr(forward._EventStream, "__init__", patch["corrupted"])
        code = cli_main([*FORWARD_ARGS, "--out", str(tmp_path / "f.csv")])
        assert code == EXIT_INVARIANT
        assert "absorbing state was left" in capsys.readouterr().err

    def test_walk_floor_violation_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(walks, "_FLOOR_TOL", -1.0)   # floor above every weight
        code = cli_main(["sandwich", "--disorder", "bernoulli", "--q", "0.5",
                         "--b", "1", "--observable", "site 0", "--t-grid", "5,10",
                         "--replicas", "50", "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_INVARIANT

    def test_forward_violation_exits_3_under_optimize(self, tmp_path):
        # python -O strips asserts; the invariant checks must survive it
        src = str(Path(biased_voter.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CORRUPT_ONES + CORRUPTED_CLI, *FORWARD_ARGS,
             "--out", str(tmp_path / "f.csv")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == EXIT_INVARIANT, proc.stderr
        assert "absorbing state was left" in proc.stderr

    def test_walk_weight_violation_exits_3(self, tmp_path, monkeypatch, capsys):
        patch = {}
        exec(INFLATED_LAPLACE, patch)
        monkeypatch.setattr(walks, "laplace", patch["inflated"])
        code = cli_main([*DUAL_ARGS, "--out", str(tmp_path / "d.csv")])
        assert code == EXIT_INVARIANT
        assert "path weight left (0, 1]" in capsys.readouterr().err

    def test_walk_floor_violation_past_the_first_window_exits_3(self, tmp_path, monkeypatch):
        # chunks of 10 replicas, each checked on its own; only local times past
        # 3, first met at t = 10, fall below the floor, so t = 1 alone passes
        law = bernoulli_law(0.5, 1.0)
        monkeypatch.setattr(walks, "CHUNK_JUMPS", 100)   # 100 jumps: 10 walkers to t = 10
        monkeypatch.setattr(walks, "laplace",
                            lambda law_, u: np.where(u > 3.0, 0.1, laplace(law, u)))
        code = cli_main(["sandwich", "--disorder", "bernoulli", "--q", "0.5",
                         "--b", "1", "--observable", "site 0", "--t-grid", "1,10",
                         "--replicas", "50", "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_INVARIANT

    def test_walk_weight_violation_past_the_first_window_exits_3(self, tmp_path, monkeypatch,
                                                                  capsys):
        patch = {}
        exec(LATE_INFLATED_LAPLACE, patch)
        monkeypatch.setattr(walks, "CHUNK_JUMPS", 80)   # chunks of 4 replicas of two walkers
        monkeypatch.setattr(walks, "laplace", patch["inflated"])
        code = cli_main([*LATE_DUAL_ARGS, "--out", str(tmp_path / "d.csv")])
        assert code == EXIT_INVARIANT
        assert "path weight left (0, 1]" in capsys.readouterr().err

    def test_walk_weight_violation_past_the_first_window_exits_3_under_optimize(self, tmp_path):
        src = str(Path(biased_voter.__file__).resolve().parent.parent)
        script = (LATE_INFLATED_LAPLACE + "walks.CHUNK_JUMPS = 80\nwalks.laplace = inflated\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, *LATE_DUAL_ARGS,
             "--out", str(tmp_path / "d.csv")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == EXIT_INVARIANT, proc.stderr
        assert "path weight left (0, 1]" in proc.stderr

    def test_walk_weight_violation_exits_3_under_optimize(self, tmp_path):
        src = str(Path(biased_voter.__file__).resolve().parent.parent)
        script = INFLATED_LAPLACE + "walks.laplace = inflated\nsys.exit(cli.main(sys.argv[1:]))\n"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, *DUAL_ARGS,
             "--out", str(tmp_path / "d.csv")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == EXIT_INVARIANT, proc.stderr
        assert "path weight left (0, 1]" in proc.stderr
