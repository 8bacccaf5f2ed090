"""The CLI front end: config files and flags share one grammar and one builder.

A run description is read from the ``--config`` file first, then from every
flag given, which wins over the file's key; the subcommand sets the mode.
"""

import argparse
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from biased_voter import cli
from biased_voter.disorder import bernoulli_law
from biased_voter.harness import (CONFIG_KEYS, MODES, ConfigError, ExperimentConfig,
                                  config_hash, parse_config_text, read_keys)

QUENCHED_FILE = """
sites = 0
t_grid = 1,2
replicas = 20
seed = 4
disorder = bernoulli
q = 0.5
b = 1.0
"""
TABLE_FILE = QUENCHED_FILE.replace("disorder = bernoulli\nq = 0.5\nb = 1.0",
                                   "disorder = table\natoms = 0:0.5, 1:0.5")


def header(path: Path) -> dict:
    lines = [ln[2:] for ln in path.read_text().splitlines() if ln.startswith("# ")]
    return dict(ln.split(" = ", 1) for ln in lines if " = " in ln)


class TestFlagsOverTheFile:
    @pytest.mark.parametrize("text, flags, key, expected", [
        (QUENCHED_FILE.replace("q = 0.5\n", ""), ["--disorder", "deterministic"], "atoms",
         "1.0:1.0"),
        (QUENCHED_FILE, ["--q", "0.25"], "atoms", "0.0:0.25, 1.0:0.75"),
        (QUENCHED_FILE, ["--b", "2"], "atoms", "0.0:0.5, 2.0:0.5"),
        (TABLE_FILE, ["--atoms", "0:0.25, 2:0.75"], "atoms", "0.0:0.25, 2.0:0.75"),
        (QUENCHED_FILE.replace("sites = 0", "observable = site 0"), ["--observable", "site 5"],
         "observable", "5|1:1.0"),
    ])
    def test_flag_overrides_file_key(self, tmp_path, text, flags, key, expected):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "d.csv"
        code = cli.main(["simulate-dual", "--mode", "quenched", "--config", str(cfg),
                         *flags, "--out", str(out)])
        assert code == 0
        assert header(out)[key] == expected

    def test_invalid_flag_over_file_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mode = dual-quenched\n" + QUENCHED_FILE)
        code = cli.main(["simulate-dual", "--mode", "quenched", "--config", str(cfg),
                         "--q", "2", "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "probabilities must lie in [0, 1]" in capsys.readouterr().err

    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys):
        code = cli.main(["range", "--nu", "1", "--t-grid", "1,2", "--replicas", "many",
                         "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "config error: --replicas: bad value for 'replicas'" in capsys.readouterr().err

    def test_subcommand_sets_mode_over_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mode = forward\nnu = 1\nt_grid = 1,2\nreplicas = 20\n")
        out = tmp_path / "r.csv"
        assert cli.main(["range", "--config", str(cfg), "--out", str(out)]) == 0
        assert header(out)["mode"] == "range"


class TestExactKernelRule:
    @pytest.mark.parametrize("flags", [
        ["--what", "duality", "--kernel", "power"],
        ["--what", "duality", "--kernel", "power", "--alpha", "1", "--dim", "2", "--L", "3"],
        ["--what", "range", "--nu", "1", "--kernel", "power", "--alpha", "1"],
        # the kernel rule's own errors, as simulate-forward reports them
        ["--what", "duality", "--L", "1"],
        ["--what", "duality", "--kernel", "power", "--alpha", "2.5"],
        ["--what", "duality", "--dim", "4"],
        ["--what", "duality", "--kernel", "power", "--alpha", "1", "--cutoff", "0"],
    ])
    def test_bad_kernel_is_a_config_error(self, tmp_path, capsys, flags):
        code = cli.main(["exact", *flags, "--fields", "1",
                         "--t-grid", "1", "--out", str(tmp_path / "d.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if "--nu" not in flags:   # the range case fails on an unread flag, not the rule
            assert err.startswith("config error: <flags>: ")


class TestEngineRulesAreConfigErrors:
    """A kernel, torus or site set an engine rejects is a config error naming the flags."""

    @pytest.mark.parametrize("flags", [
        ["--dim", "4"],
        ["--kernel", "power", "--alpha", "2.5"],
        ["--kernel", "power", "--alpha", "1", "--cutoff", "0"],
        ["--L", "1"],
        ["--L", "4", "--sites", "0;4"],
    ], ids=["dim-4", "alpha-2.5", "cutoff-0", "side-1", "sites-collide"])
    def test_forward_engine_rule_is_a_config_error(self, tmp_path, capsys, flags):
        code = cli.main(["simulate-forward", *flags, *LAW_FLAGS, "--t-grid", "1",
                         "--out", str(tmp_path / "f.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: <flags>: ")


class TestExactUnreadFlags:
    """A flag that the chosen oracle does not read, set off its default, exits 2 naming it."""

    DUALITY = ["--what", "duality", "--L", "4", "--fields", "1", "--t-grid", "1"]
    RANGE = ["--what", "range", "--nu", "1", "--t-grid", "100,200"]

    @pytest.mark.parametrize("flags, flag", [
        ([*DUALITY, "--alpha", "1.5"], "--alpha"),
        ([*DUALITY, "--nu", "3"], "--nu"),
        ([*DUALITY, "--width-cap", "5"], "--width-cap"),
        ([*RANGE, "--L", "4"], "--L"),
        ([*RANGE, "--cutoff", "50"], "--cutoff"),
        ([*RANGE, "--fields", "2"], "--fields"),
    ], ids=["duality-alpha", "duality-nu", "duality-width-cap", "range-L", "range-cutoff",
            "range-fields"])
    def test_unread_flag_exits_2_naming_it(self, tmp_path, capsys, flags, flag):
        assert cli.main(["exact", *flags, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"does not read {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", ["0", "-1"])
    def test_duality_over_no_field_exits_2_naming_it(self, tmp_path, capsys, fields):
        # a gate that compares nothing must not print PASS
        flags = ["--what", "duality", "--L", "4", "--fields", fields, "--t-grid", "1"]
        assert cli.main(["exact", *flags, "--out", str(tmp_path / "o.csv")]) == 2
        assert "config error: --fields must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [DUALITY, RANGE], ids=["duality", "range"])
    def test_both_oracles_take_seed_and_default_flags(self, tmp_path, flags):
        # the benchmark passes --seed to every call, the range oracle's too
        argv = ["exact", *flags, "--seed", "3", "--kernel", "nn", "--dim", "1",
                "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 0


class TestLawKeys:
    """Each law kind reads its own keys; another law key names its line or flag."""

    @pytest.mark.parametrize("law, line, origin, key", [
        (["--disorder", "bernoulli", "--q", "0.5", "--b", "1", "--atoms", "0:0.5, 1:0.5"], "",
         "--atoms", "atoms"),
        (["--disorder", "deterministic", "--b", "1"], "q = 0.3", "c.cfg:1", "q"),
        (["--disorder", "table", "--atoms", "0:0.5, 1:0.5", "--b", "7"], "", "--b", "b"),
    ], ids=["bernoulli", "deterministic", "table"])
    def test_unread_law_key_is_a_config_error(self, tmp_path, capsys, law, line, origin, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        code = cli.main(["simulate-dual", "--sites", "0", "--t-grid", "1,2", "--replicas", "20",
                         *law, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{origin}: " in err and f"does not read {key!r}" in err


LAW_FLAGS = ["--disorder", "bernoulli", "--q", "0.5", "--b", "1", "--replicas", "20"]


class TestSitesIsAnObservable:
    """A start set A is the observable H(., A): one run, one config, one hash."""

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_that_reads_an_observable_reads_sites(self, mode):
        reads = read_keys(mode)
        assert ("sites" in reads) == ("observable" in reads)

    @pytest.mark.parametrize("mode", ["annealed", "quenched"])
    @pytest.mark.parametrize("sites, observable", [
        ("0", "site 0"),
        ("0;1;3", "0;1;3|7:1"),
    ], ids=["one-site", "three-sites"])
    def test_sites_and_its_observable_write_the_same_csv(self, tmp_path, mode, sites,
                                                         observable):
        outputs = []
        for key, value in (("--sites", sites), ("--observable", observable)):
            out = tmp_path / f"{key[2:]}.csv"
            code = cli.main(["simulate-dual", "--mode", mode, key, value, "--t-grid", "1,2",
                             *LAW_FLAGS, "--seed", "3", "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestSitesWithObservable:
    @pytest.mark.parametrize("mode", ["annealed", "quenched"])
    def test_annealed_bounds_reject_sites(self, tmp_path, capsys, mode):
        # one rule in both dual modes: start from sites or from the observable
        with pytest.raises(ConfigError, match="'sites' and 'observable'"):
            parse_config_text(f"mode = dual-{mode}\nt_grid = 1,2\nreplicas = 20\n"
                              "observable = site 0\nsites = 5\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sites = 5\n")
        out = tmp_path / "d.csv"
        code = cli.main(["simulate-dual", "--mode", mode, "--observable", "site 0",
                         "--config", str(cfg), "--t-grid", "1,2", *LAW_FLAGS,
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}:1, --observable: 'sites' and 'observable'" in err
        assert not out.exists()



class TestNonFiniteGrid:
    """A nan or inf time is a config error naming t_grid, in every experiment subcommand."""

    @pytest.mark.parametrize("argv", [
        ["simulate-forward", "--L", "4", *LAW_FLAGS],
        ["simulate-dual", "--mode", "annealed", *LAW_FLAGS],
        ["simulate-dual", "--mode", "quenched", *LAW_FLAGS],
        ["range", "--nu", "1", "--replicas", "20"],
        ["sandwich", *LAW_FLAGS],
    ], ids=["forward", "annealed", "quenched", "range", "sandwich"])
    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_time_exits_2_naming_t_grid(self, tmp_path, capsys, argv, time):
        out = tmp_path / "o.csv"
        code = cli.main([*argv, "--t-grid", f"1,{time}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "t_grid" in err
        assert not out.exists()


class TestExactGrid:
    """``exact`` checks its --t-grid by the rules of an experiment config."""

    @pytest.mark.parametrize("argv", [
        ["--what", "range", "--nu", "1", "--t-grid", "1,inf"],
        ["--what", "range", "--nu", "1", "--t-grid", "5,1"],
        ["--what", "duality", "--t-grid", "1,nan"],
    ], ids=["range-inf", "range-decreasing", "duality-nan"])
    def test_bad_grid_exits_2_naming_t_grid(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        code = cli.main(["exact", *argv, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "t_grid" in err
        assert not out.exists()


class TestInputRules:
    """nu, a seed and a fit window each have one rule; a value it rejects exits 2 naming it."""

    @pytest.mark.parametrize("argv", [
        ["range", "--t-grid", "1,2", "--replicas", "10"],
        ["exact", "--what", "range", "--t-grid", "1,2"],
    ], ids=["range", "exact-range"])
    @pytest.mark.parametrize("nu", ["nan", "inf"])
    def test_non_finite_nu_exits_2_naming_nu(self, tmp_path, capsys, argv, nu):
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--nu", nu, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "nu must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        (["simulate-dual", "--mode", "quenched", "--sites", "0", "--t-grid", "1,2", *LAW_FLAGS,
          "--disorder-seed", "-1"], "disorder_seed"),
        (["simulate-dual", "--mode", "quenched", "--sites", "0", "--t-grid", "1,2", *LAW_FLAGS,
          "--disorder-seed", "1" * 23], "disorder_seed"),
        (["range", "--nu", "1", "--t-grid", "1,2", "--replicas", "10", "--seed", str(2 ** 63)],
         "seed"),
        (["exact", "--what", "duality", "--seed", "-1"], "--seed"),
        (["exact", "--what", "range", "--nu", "1", "--seed", str(2 ** 63)], "--seed"),
    ], ids=["negative-disorder-seed", "long-disorder-seed", "long-seed", "exact-negative-seed",
            "exact-long-seed"])
    def test_bad_seed_exits_2_naming_its_key(self, tmp_path, capsys, argv, key):
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"{key} must be a nonnegative 63-bit" in err
        assert not out.exists()

    @pytest.mark.parametrize("window", ["100:10", "nan:100", "10:inf", "10:10"])
    def test_bad_window_exits_2_in_sandwich_and_fit(self, tmp_path, capsys, window):
        out = tmp_path / "o.csv"
        code = cli.main(["sandwich", "--t-grid", "1,2", *LAW_FLAGS, "--window", window,
                         "--out", str(out)])
        assert code == 2 and not out.exists()
        assert "--window: fit window must be finite with a < b" in capsys.readouterr().err
        curve = tmp_path / "curve.csv"
        curve.write_text("t,mean\n" + "".join(f"{t},{0.9 ** t}\n" for t in range(1, 20)))
        assert cli.main(["fit", "--in", str(curve), "--window", window]) == 2
        assert "fit window must be finite with a < b" in capsys.readouterr().err

    def test_lam_is_no_flag(self, capsys):
        # nor a key: TestUnreadKeys reads it from a config file
        with pytest.raises(SystemExit) as exc:
            cli.main(["sandwich", "--t-grid", "1,2", *LAW_FLAGS, "--kernel", "power",
                      "--alpha", "1", "--lam", "4.9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lam" in capsys.readouterr().err

    def test_power_sandwich_writes_the_rate_constants(self, tmp_path):
        out = tmp_path / "o.csv"
        assert cli.main(["sandwich", "--t-grid", "1,2", *LAW_FLAGS, "--kernel", "power",
                         "--alpha", "1", "--cutoff", "1000", "--out", str(out)]) == 0
        constants = dict(ln[len("# constant "):].split(": ") for ln in
                         out.read_text().splitlines() if ln.startswith("# constant "))
        assert float(constants["lambda"]) == pytest.approx(2.165, abs=1e-3)
        assert 0.0 < float(constants["c_upper"]) < float(constants["c_lower"])


def test_readme_key_block_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Plain text, `key = value`", 1)[1].split("```")[1]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line and not line.startswith(" ")]
    assert keys and sorted(keys) == sorted(CONFIG_KEYS)


class TestFitReadsWholeRows:
    """``fit`` reads a number from the 't' and value cells of every data row."""

    @pytest.mark.parametrize("row", ["2.0", "2.0,abc"], ids=["short", "not-a-number"])
    def test_bad_row_exits_2_naming_the_file_and_the_row(self, tmp_path, capsys, row):
        path = tmp_path / "curve.csv"
        path.write_text(f"t,mean\n1.0,0.5\n{row}\n")
        assert cli.main(["fit", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: row {row!r} ")


class TestHeadersReadBack:
    """Every output's ``# key = value`` header lines read back as its config;
    the other header lines take the ``# name: value`` form."""

    @pytest.mark.parametrize("argv", [
        ["simulate-forward", "--L", "4", "--t-grid", "0.5,1", *LAW_FLAGS],
        ["simulate-dual", "--mode", "quenched", "--sites", "0;1", "--t-grid", "1,2", *LAW_FLAGS],
        ["simulate-dual", "--mode", "annealed", "--sites", "0;1", "--t-grid", "1,2", *LAW_FLAGS],
        ["simulate-dual", "--mode", "annealed", "--observable", "site 0", "--t-grid", "1,2",
         *LAW_FLAGS],
        ["range", "--nu", "1", "--t-grid", "1,2", "--replicas", "20"],
        ["sandwich", "--observable", "site 0", "--t-grid", "10:100:6", "--window", "10:100",
         *LAW_FLAGS],
    ], ids=["forward", "quenched", "annealed", "bounds", "range", "sandwich"])
    def test_full_header_reads_back_to_its_hash(self, tmp_path, argv):
        out = tmp_path / "o.csv"
        cli.main([*argv, "--out", str(out)])
        lines = [ln[2:] for ln in out.read_text().splitlines() if ln.startswith("# ")]
        config = parse_config_text("\n".join(ln for ln in lines if " = " in ln), str(out))
        assert f"config-hash: {config_hash(config)}" in lines
        assert all(" = " in ln or ": " in ln for ln in lines[1:])


class TestStartSet:
    def run_dual(self, tmp_path, sites) -> Path:
        out = tmp_path / f"{sites}.csv"
        code = cli.main(["simulate-dual", "--mode", "quenched", "--sites", sites,
                         "--t-grid", "1,2", *LAW_FLAGS, "--out", str(out)])
        assert code == 0
        return out

    def test_order_of_the_sites_is_not_part_of_the_run(self, tmp_path):
        sorted_out, shuffled_out = self.run_dual(tmp_path, "0;1"), self.run_dual(tmp_path, "1;0")
        assert shuffled_out.read_bytes() == sorted_out.read_bytes()
        assert header(sorted_out)["observable"] == "0;1|3:1.0"

    def test_start_set_above_the_support_cap_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = cli.main(["simulate-dual", "--sites", ";".join(map(str, range(21))),
                         "--t-grid", "1,2", *LAW_FLAGS, "--out", str(out)])
        assert code == 2
        assert "config error: --sites: bad value for 'sites': support larger than 20 sites" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("observable, message", [
        ("0;1|4:1.0", "bitmask 4 out of range for 2 sites"),
        (";".join(map(str, range(41))) + "|1:1", "support larger than 20 sites"),
        ("0|1:1.0,1:0.5", r"bitmask 1 given twice \(entry 1:0.5\)"),
    ], ids=["mask-outside-the-table", "support-above-the-cap", "repeated-mask"])
    def test_bad_header_observable_names_the_line(self, observable, message):
        # the cap is checked before the 2^k table is built
        text = "mode = dual-annealed\ndisorder = deterministic\nb = 1\n" \
               f"observable = {observable}\nt_grid = 1,2\nreplicas = 10\n"
        with pytest.raises(ConfigError, match=f"c.cfg:4: bad value for 'observable': {message}"):
            parse_config_text(text, name="c.cfg")

    def test_repeated_site_names_the_flag(self, tmp_path, capsys):
        code = cli.main(["simulate-dual", "--mode", "quenched", "--sites", "0;0;1",
                         "--t-grid", "1,2", *LAW_FLAGS, "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "config error: --sites: repeated site" in capsys.readouterr().err

    def test_repeated_mask_names_the_flag(self, tmp_path, capsys):
        code = cli.main(["simulate-dual", "--observable", "0|1:1.0,1:0.5",
                         "--t-grid", "1,2", *LAW_FLAGS, "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "config error: --observable: bad value for 'observable': bitmask 1 given twice" \
            in capsys.readouterr().err

    def test_repeated_site_names_the_line(self):
        text = "mode = dual-annealed\ndisorder = deterministic\nb = 1\nsites = 1;0;1\n" \
               "t_grid = 1,2\nreplicas = 10\n"
        with pytest.raises(ConfigError, match="c.cfg:4: repeated site"):
            parse_config_text(text, name="c.cfg")


class TestValueErrorsNameTheLine:
    @pytest.mark.parametrize("line", [
        "fit_window = a:b",
        "fit_window = 1",
        "observable = site x",
    ])
    def test_bad_value_is_line_precise(self, line):
        text = f"mode = dual-annealed\ndisorder = deterministic\nb = 1\n{line}\nt_grid = 1,2\nreplicas = 10\n"
        with pytest.raises(ConfigError, match=":4:"):
            parse_config_text(text, name="c.cfg")


SUBCOMMAND_MODES = {
    "simulate-forward": ("forward",),
    "simulate-dual": ("dual-quenched", "dual-annealed"),
    "range": ("range",),
    "sandwich": ("sandwich",),
}


def flag_keys(command: str) -> set:
    """The keys a subcommand takes as flags, read off the parser."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in subs.choices[command]._actions} - {"help", "config", "out"}


RANGE_ARGS = ["range", "--nu", "1", "--t-grid", "1,2", "--replicas", "20"]
DUAL_ARGS = ["simulate-dual", "--sites", "0", "--t-grid", "1,2", *LAW_FLAGS]


class TestUnreadKeys:
    """A key its mode does not read is a config error naming it."""

    @pytest.mark.parametrize("argv, line, key", [
        (RANGE_ARGS, "observable = site 0", "observable"),
        (RANGE_ARGS, "L = 5", "L"),
        (DUAL_ARGS, "L = 16", "L"),
        (DUAL_ARGS, "nu = 1", "nu"),
        ([*DUAL_ARGS, "--mode", "annealed", "--disorder-seed", "3"], "", "disorder_seed"),
        ([*RANGE_ARGS, "--alpha", "1.5"], "", "alpha"),
        (["sandwich", "--t-grid", "1,2", *LAW_FLAGS, "--kernel", "power", "--alpha", "1"],
         "lam = 4.9", "lam"),
        (DUAL_ARGS, "fit_window = 10:100", "fit_window"),
    ], ids=["range-observable", "range-L", "dual-L-at-its-default", "dual-nu", "annealed-disorder-seed",
            "nn-alpha", "power-lam-is-no-key", "dual-fit-window"])
    def test_unread_key_exits_2_naming_it(self, tmp_path, capsys, argv, line, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        code = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err

    @pytest.mark.parametrize("argv, line, message", [
        (RANGE_ARGS, "sites = 0;1",
         "{cfg}:1: a range run with the nn kernel does not read 'sites'"),
        (RANGE_ARGS, "q = 0.5", "{cfg}:1: a range run with the nn kernel does not read 'q'"),
        ([*RANGE_ARGS, "--alpha", "1.5"], "",
         "--alpha: a range run with the nn kernel does not read 'alpha'"),
        ([*DUAL_ARGS, "--mode", "annealed", "--disorder-seed", "3"], "",
         "--disorder-seed: a dual-annealed run with the nn kernel does not read 'disorder_seed'"),
        (["sandwich", "--t-grid", "1,2", *LAW_FLAGS, "--kernel", "power", "--alpha", "1"],
         "# a comment\nnu = 1",
         "{cfg}:2: a sandwich run with the power kernel does not read 'nu'"),
    ], ids=["file-sites", "file-law-key", "flag-alpha", "flag-disorder-seed", "file-power-nu"])
    def test_unread_key_names_itself_and_its_origin(self, tmp_path, capsys, argv, line,
                                                    message):
        # the key that was given, on its line or flag, not the field it would set
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        code = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message.format(cfg=cfg)}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_unread_key_of_a_config_built_in_code(self):
        config = ExperimentConfig(mode="range", t_grid=(1.0,), replicas=2, nu=1.0,
                                  law=bernoulli_law(0.5, 1.0))
        with pytest.raises(ConfigError, match="'disorder'"):
            config.validate()

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODES))
    def test_every_flag_is_a_key_its_mode_reads(self, command):
        reads = {key for mode in SUBCOMMAND_MODES[command] for key in read_keys(mode)}
        assert flag_keys(command) <= reads


# ---------------------------------------------------------------------------
# Property: the split of a run description between file and flags is invisible
# ---------------------------------------------------------------------------

coords = st.integers(-4, 4)
unit = st.floats(0.0, 1.0)
bias = st.floats(0.0, 4.0)


def _site(dim):
    return st.tuples(*[coords] * dim).map(lambda s: ",".join(map(str, s)))


@st.composite
def run_descriptions(draw):
    """A subcommand plus a valid run description as flag-able key -> text,
    each key one that the drawn mode reads."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_MODES)))
    mode = draw(st.sampled_from(SUBCOMMAND_MODES[command]))
    items = {}
    times = draw(st.lists(st.floats(0.01, 1e4), min_size=1, max_size=6, unique=True))
    items["t_grid"] = ",".join(repr(t) for t in sorted(times))
    items["replicas"] = str(draw(st.integers(2, 10 ** 6)))
    for key, values in (("seed", st.integers(0, 2 ** 63 - 1)), ("threads", st.integers(1, 4)),
                        ("L", st.integers(2, 40))):
        if key in read_keys(mode) and draw(st.booleans()):
            items[key] = str(draw(values))
    if draw(st.booleans()):
        items.update(kernel="power", alpha=repr(draw(st.floats(0.1, 1.9))),
                     cutoff=str(draw(st.integers(1, 500))))
        dim = 1
    else:
        dim = draw(st.integers(1, 3))
        items.update(kernel="nn", dim=str(dim))
    if command != "range":
        kind = draw(st.sampled_from(["bernoulli", "deterministic", "table"]))
        items["disorder"] = kind
        if kind == "bernoulli":
            items.update(q=repr(draw(unit)), b=repr(draw(bias)))
        elif kind == "deterministic":
            items["b"] = repr(draw(bias))
        else:
            p = draw(unit)
            items["atoms"] = f"0:{p!r}, {draw(bias)!r}:{1.0 - p!r}"
    else:
        items["nu"] = repr(draw(st.floats(0.0, 3.0)))
    if "observable" in read_keys(mode):
        kind = draw(st.sampled_from([None, "observable", "sites"]))
        if kind == "observable":
            items["observable"] = "site " + draw(_site(dim))
        elif kind == "sites":
            # distinct after wrapping too: a forward run reads its sites on its torus
            side = int(items.get("L", ExperimentConfig.side)) if mode == "forward" else None
            sites = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=3,
                                  unique_by=lambda s: s if side is None else tuple(
                                      c % side for c in s)))
            items["sites"] = ";".join(",".join(map(str, s)) for s in sites)
    if command == "simulate-dual":
        if mode == "dual-quenched" and draw(st.booleans()):
            items["disorder_seed"] = str(draw(st.integers(0, 2 ** 31)))
    if command == "sandwich" and draw(st.booleans()):
        a = draw(st.floats(0.01, 100.0))
        items["fit_window"] = f"{a!r}:{a * 10!r}"
    argv = [command] + (["--mode", mode[5:]] if command == "simulate-dual" else [])
    assert set(items) <= flag_keys(command) & set(read_keys(mode, items["kernel"]))
    return argv, items


def _hash(argv, items, in_file, directory):
    flags = [f"--{'window' if k == 'fit_window' else k.replace('_', '-')}={v}"
             for k, v in items.items() if k not in in_file]
    if in_file:
        path = Path(directory) / "run.cfg"
        path.write_text("mode = forward\n" + "".join(f"{k} = {items[k]}\n" for k in in_file))
        flags += ["--config", str(path)]
    args = cli.build_parser().parse_args(argv + flags)
    return config_hash(cli._build_config(args))


@settings(max_examples=60, deadline=None)
@given(description=run_descriptions(), data=st.data())
def test_split_between_file_and_flags_keeps_hash(description, data):
    argv, items = description
    in_file = data.draw(st.sets(st.sampled_from(sorted(items))))
    with tempfile.TemporaryDirectory() as directory:
        all_flags = _hash(argv, items, set(), directory)
        assert _hash(argv, items, set(items), directory) == all_flags
        assert _hash(argv, items, in_file, directory) == all_flags
