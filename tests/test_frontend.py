"""The CLI front end: config files and flags share one grammar and one builder.

A run description is read from the ``--config`` file first, then from every
flag given, which wins over the file's key; the subcommand sets the mode.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from biased_voter import cli
from biased_voter.disorder import bernoulli_law
from biased_voter.harness import ConfigError, ExperimentConfig, config_hash, parse_config_text
from biased_voter.localfn import site_indicator

QUENCHED_FILE = """
sites = 0
t_grid = 1,2
replicas = 20
seed = 4
disorder = bernoulli
q = 0.5
b = 1.0
"""
TABLE_FILE = QUENCHED_FILE.replace("disorder = bernoulli", "disorder = table\natoms = 0:0.5, 1:0.5")


def header(path: Path) -> dict:
    lines = [ln[2:] for ln in path.read_text().splitlines() if ln.startswith("# ")]
    return dict(ln.split(" = ", 1) for ln in lines if " = " in ln)


class TestFlagsOverTheFile:
    @pytest.mark.parametrize("text, flags, key, expected", [
        (QUENCHED_FILE, ["--disorder", "deterministic"], "disorder", "1.0:1.0"),
        (QUENCHED_FILE, ["--q", "0.25"], "disorder", "0.0:0.25 1.0:0.75"),
        (QUENCHED_FILE, ["--b", "2"], "disorder", "0.0:0.5 2.0:0.5"),
        (TABLE_FILE, ["--atoms", "0:0.25, 2:0.75"], "disorder", "0.0:0.25 2.0:0.75"),
        (QUENCHED_FILE.replace("sites = 0", "observable = site 0"), ["--observable", "site 5"],
         "observable", "5|0.0,1.0"),
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
        ["--kernel", "power"],
        ["--kernel", "power", "--alpha", "1", "--dim", "2", "--L", "3"],
    ])
    def test_bad_kernel_is_a_config_error(self, tmp_path, capsys, flags):
        code = cli.main(["exact", "--what", "duality", *flags, "--fields", "1",
                         "--t-grid", "1", "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestSitesWithObservable:
    def test_sandwich_has_no_sites_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sandwich", "--disorder", "bernoulli", "--q", "0.5", "--b", "1",
                      "--t-grid", "10:100:5", "--replicas", "50", "--sites", "5",
                      "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode", ["annealed", "quenched"])
    def test_annealed_bounds_reject_sites(self, tmp_path, mode):
        # one rule in both dual modes: start from sites or from the observable
        config = ExperimentConfig(mode=f"dual-{mode}", t_grid=(1.0, 2.0), replicas=20,
                                  law=bernoulli_law(0.5, 1.0), observable=site_indicator(0),
                                  sites=((5,),))
        with pytest.raises(ConfigError, match="sites"):
            config.validate()
        code = cli.main(["simulate-dual", "--mode", mode, "--observable", "site 0",
                         "--sites", "5", "--disorder", "bernoulli", "--q", "0.5", "--b", "1",
                         "--t-grid", "1,2", "--replicas", "20",
                         "--out", str(tmp_path / "d.csv")])
        assert code == 2


LAW_FLAGS = ["--disorder", "bernoulli", "--q", "0.5", "--b", "1", "--replicas", "20"]


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
        assert header(sorted_out)["sites"] == "0;1"   # sorted input keeps its line, so its hash
        assert shuffled_out.read_bytes() == sorted_out.read_bytes()
        code_built = ExperimentConfig(mode="dual-quenched", t_grid=(1.0,), replicas=2,
                                      law=bernoulli_law(0.5, 1.0), sites=((3,), (0,)))
        assert code_built.sites == ((0,), (3,))

    def test_repeated_site_names_the_flag(self, tmp_path, capsys):
        code = cli.main(["simulate-dual", "--mode", "quenched", "--sites", "0;0;1",
                         "--t-grid", "1,2", *LAW_FLAGS, "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "config error: --sites: repeated site" in capsys.readouterr().err

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


# ---------------------------------------------------------------------------
# Property: the split of a run description between file and flags is invisible
# ---------------------------------------------------------------------------

FLAG_KEYS = {
    "simulate-forward": (),
    "simulate-dual": ("sites", "disorder_seed"),
    "range": ("nu",),
    "sandwich": ("fit_window",),
}
COMMON_KEYS = ("seed", "replicas", "threads", "dim", "L", "kernel", "alpha", "cutoff",
               "disorder", "q", "b", "atoms", "observable", "t_grid")

coords = st.integers(-4, 4)
unit = st.floats(0.0, 1.0)
bias = st.floats(0.0, 4.0)


def _site(dim):
    return st.tuples(*[coords] * dim).map(lambda s: ",".join(map(str, s)))


@st.composite
def run_descriptions(draw):
    """A subcommand plus a valid run description as flag-able key -> text."""
    command = draw(st.sampled_from(sorted(FLAG_KEYS)))
    dual_mode = draw(st.sampled_from(["quenched", "annealed"]))
    items = {}
    times = draw(st.lists(st.floats(0.01, 1e4), min_size=1, max_size=6, unique=True))
    items["t_grid"] = ",".join(repr(t) for t in sorted(times))
    items["replicas"] = str(draw(st.integers(2, 10 ** 6)))
    for key, values in (("seed", st.integers(0, 2 ** 63 - 1)), ("threads", st.integers(1, 4)),
                        ("L", st.integers(2, 40))):
        if draw(st.booleans()):
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
    observable = draw(st.booleans())
    if observable:
        items["observable"] = "site " + draw(_site(dim))
    if command == "simulate-dual":
        if not observable:
            sites = draw(st.lists(_site(dim), min_size=1, max_size=3, unique=True))
            items["sites"] = ";".join(sites)
        if draw(st.booleans()):
            items["disorder_seed"] = str(draw(st.integers(0, 2 ** 31)))
    if command == "sandwich" and draw(st.booleans()):
        a = draw(st.floats(0.01, 100.0))
        items["fit_window"] = f"{a!r}:{a * 10!r}"
    argv = [command] + (["--mode", dual_mode] if command == "simulate-dual" else [])
    assert set(items) <= set(COMMON_KEYS + FLAG_KEYS[command])
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
