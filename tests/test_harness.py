import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biased_voter
from biased_voter import forward, harness, walks
from biased_voter.cli import EXIT_INVARIANT, main as cli_main
from biased_voter.exact import exact_dual_value
from biased_voter.kernel import fold_to_torus, make_nn_kernel
from biased_voter.harness import (ConfigError, ExperimentConfig, config_hash,
                                  fit_stretch_exponent, parse_config_text,
                                  parse_sites, parse_t_grid, read_curve_csv,
                                  run, sandwich_report, write_records_csv,
                                  write_sandwich_csv)
from biased_voter.disorder import LazyBiasField, bernoulli_law, deterministic_law
from biased_voter.dual import dual_curve
from biased_voter.localfn import LocalFunction, hat_coeffs, parse_localfn_text, site_indicator
from biased_voter.stats import InvariantError

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
            sandwich_report(small_config(observable=LocalFunction([(0,)], [1.0, 0.0])))
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
        assert all(v == 0.0 for v in sandwich_report(cfg).columns["lower"])

    def test_all_mass_at_zero_is_constant_one(self):
        cfg = small_config(law=deterministic_law(0.0), replicas=100)
        columns, _ = run(cfg)
        assert all(m == 1.0 for m in columns["mean"])
        assert all(se == 0.0 for se in columns["stderr"])

    def test_sandwich_holds_on_small_run(self):
        cfg = small_config(t_grid=tuple(float(t) for t in np.geomspace(10, 300, 8)),
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
        for t, mean, se in zip(columns["t"], columns["mean"], columns["stderr"]):
            exact = 0.0
            for bits in itertools.product((0, 1), repeat=4):
                beta = np.where(np.array(bits) == 1, b1, b0)
                weight = np.prod([p1 if b else p0 for b in bits])
                exact += weight * exact_dual_value([(0,)], beta, tk, t)
            assert abs(mean - exact) < 4 * se, f"t={t}"

    def test_dual_quenched_mode(self):
        cfg = small_config(mode="dual-quenched", replicas=300, observable=None,
                           sites=((0,),), disorder_seed=5)
        columns, _ = run(cfg)
        assert all(0.0 < m <= 1.0 for m in columns["mean"])
        assert all(p == 1.0 for p in columns["mean_particles"])

    def test_dual_annealed_without_observable_is_plain_estimator(self):
        cfg = small_config(observable=None, sites=((0,), (1,)), replicas=300)
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
                    ref, var = ref + c * curve.mean, var + (c * curve.stderr) ** 2
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

    def test_range_mode(self):
        cfg = ExperimentConfig(mode="range", t_grid=(1.0, 5.0, 20.0),
                               replicas=2000, seed=1, nu=1.0)
        columns, _ = run(cfg)
        assert all(m > 0 for m in columns["mean"])
        assert columns["local_exponent"][1] is not None
        assert columns["local_exponent"][0] is None  # endpoint has no slope


class TestSandwichReport:
    def test_flags_on_bernoulli(self):
        cfg = small_config(t_grid=tuple(float(t) for t in np.geomspace(10, 500, 10)),
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
        from biased_voter.rangestats import dv_constant, lambda_nn
        from biased_voter.disorder import nu1, nu2
        lam = lambda_nn(1)
        for q in np.linspace(0.1, 0.9, 5):
            for b in np.linspace(0.2, 4.0, 5):
                law = bernoulli_law(q, b)
                assert nu1(law) < nu2(law)
                assert dv_constant(1, 2, lam, nu1(law)) < dv_constant(1, 2, lam, nu2(law))

    def test_hypothesis_failure_reported_not_raised(self):
        rep = sandwich_report(small_config(law=deterministic_law(1.0), replicas=200))
        assert rep.hypothesis_upper_ok and not rep.hypothesis_lower_ok
        rep = sandwich_report(small_config(law=deterministic_law(0.0), replicas=200))
        assert rep.hypothesis_lower_ok and not rep.hypothesis_upper_ok


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
        cfg = small_config(t_grid=tuple(float(t) for t in np.geomspace(5, 200, 8)),
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
            cfg = small_config(mode="dual-quenched", observable=None,
                               sites=((0,), (1,), (3,)), disorder_seed=11,
                               replicas=1500, threads=threads)
            path = tmp_path / f"dual{len(outputs)}.csv"
            columns, max_pos = run(cfg)
            write_records_csv(path, columns, cfg, max_pos)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


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

    def test_sandwich_default_observable_in_header(self, tmp_path):
        # the header and hash describe the config the audit ran, so leaving
        # out the default observable writes the same file as naming it
        args = ["sandwich", "--disorder", "bernoulli", "--q", "0.5", "--b", "1",
                "--t-grid", "5,10", "--replicas", "50", "--seed", "5"]
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        cli_main([*args, "--out", str(implicit)])
        cli_main([*args, "--observable", "site 0", "--out", str(explicit)])
        assert implicit.read_bytes() == explicit.read_bytes()
        assert "# observable = 0|0.0,1.0" in implicit.read_text()

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
