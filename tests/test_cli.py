"""End-to-end command checks: exit codes, CSV shape, byte-stable reruns, and
the seed override."""

import hashlib
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest
import yaml

from ehrelay.cli import _SCHEMA, _fmt, main

# The package attribute ``ehrelay.optimize`` is the function, not the module.
opt = importlib.import_module("ehrelay.optimize")
cli = importlib.import_module("ehrelay.cli")

ROOT = pathlib.Path(__file__).resolve().parent.parent

RATE_CONFIG = "configs/rate-second-hop.yaml"
SIMULATE_CONFIG = "configs/simulate-occupancy.yaml"
AEP_CONFIG = "configs/aep-concentration.yaml"
CODEC_CONFIG = "configs/codec-trend.yaml"
TIMING_CONFIG = "configs/rate-timing.yaml"
BAD_LOSS_CONFIG = "configs/random-loss-verbatim.yaml"

INFEASIBLE = """\
model: second-hop
battery: {capacity: 2, cost: 2}
channels:
  second: {crossover: 0.1}
policy:
  joint-given-level:
    - [[0.25, 0.25], [0.25, 0.25]]
    - [[0.5, 0.0], [0.5, 0.0]]
    - [[0.25, 0.25], [0.25, 0.25]]
"""

UNINFORMATIVE = """\
model: second-hop
battery: {capacity: 2, cost: 2}
channels:
  second: {crossover: 0.5}
policy:
  joint-given-level:
    - [[0.5, 0.0], [0.5, 0.0]]
    - [[0.5, 0.0], [0.5, 0.0]]
    - [[0.25, 0.25], [0.25, 0.25]]
"""

TOTAL_LOSS = """\
model: random-loss
battery: {capacity: 2, cost: 2}
channels:
  first: {crossover: 0.05}
  second: {crossover: 0.1}
loss:
  given-zero: [1.0, 0.0]
  given-one: [1.0, 0.0]
policy:
  x1: [0.5, 0.5]
  x2-given-level:
    - [1.0, 0.0]
    - [1.0, 0.0]
    - [0.5, 0.5]
"""

DEAD_FIRST_HOP_BOTH_HOPS = """\
model: both-hops
battery: {capacity: 2, cost: 2}
channels:
  first: {q1: 1.0, q2: 0.0}
  second: {crossover: 0.1}
"""

NEVER_CHARGES = """\
model: random-loss
battery: {capacity: 2, cost: 2}
channels:
  first: {crossover: 0.05}
loss:
  given-zero: [1.0]
  given-one: [1.0, 0.0]
policy:
  x1: [0.5, 0.5]
  x2-given-level: [[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]]
run: {n: 1000, seed: 7}
"""

DEAD_FIRST_HOP = """\
model: timing
battery: {capacity: 2, cost: 2}
channels:
  first: {q1: 1.0, q2: 0.0}
optimizer: {grid-budget: 200}
"""


class TestExitCodes:
    def test_rate_pretty(self, capsys):
        assert main(["rate", "--config", RATE_CONFIG]) == 0
        out = capsys.readouterr().out
        assert "receiver bound" in out
        assert "0.212401763" in out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["rate", "--config", RATE_CONFIG, "--bogus"]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["rate", "--config", "configs/does-not-exist.yaml"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_loss_pmf(self, capsys):
        assert main(["rate", "--config", BAD_LOSS_CONFIG]) == 1

    def test_infeasible_policy(self, tmp_path, capsys):
        path = tmp_path / "infeasible.yaml"
        path.write_text(INFEASIBLE)
        assert main(["rate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "spending below cost" in err

    def test_uninformative_second_hop(self, tmp_path, capsys):
        path = tmp_path / "flat.yaml"
        path.write_text(UNINFORMATIVE)
        assert main(["rate", "--config", str(path)]) == 2
        assert "q1 + q2 = 1" in capsys.readouterr().err

    def test_search_that_finds_nothing_feasible_names_the_first_error(self, tmp_path, capsys):
        # the first-hop output is always 0, so no source bias recharges the relay
        path = tmp_path / "dead-first-hop.yaml"
        path.write_text(DEAD_FIRST_HOP)
        assert main(["optimize", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == ("constraint error: no feasible policy found anywhere on the search grid"
                       " (first error: charge probability must be in (0, 1]; 0 never recharges)\n")

    def test_both_hops_search_whose_first_hop_never_delivers_a_one(self, tmp_path, capsys):
        # no policy recharges the relay, so every grid point fails its chain
        path = tmp_path / "dead-first-hop-both-hops.yaml"
        path.write_text(DEAD_FIRST_HOP_BOTH_HOPS)
        assert main(["optimize", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "constraint error: no feasible policy found anywhere on the search grid\n")

    def test_simulate_a_chain_that_never_charges(self, tmp_path, capsys):
        # the level stays where it starts: the run is reported, without a steady state
        path = tmp_path / "never-charges.yaml"
        path.write_text(NEVER_CHARGES)
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "level 0: frequency 1\n" in out
        assert out.endswith("no steady state exists for this chain\n")

    def test_total_loss(self, tmp_path, capsys):
        path = tmp_path / "dead.yaml"
        path.write_text(TOTAL_LOSS)
        assert main(["rate", "--config", str(path)]) == 3
        assert "numerical error" in capsys.readouterr().err


DROP = object()  # a patch value that deletes the key


def _patched(base: str, patch: dict) -> dict:
    cfg = yaml.safe_load((ROOT / "configs" / base).read_text())

    def merge(node, edits):
        for key, value in edits.items():
            if value is DROP:
                del node[key]
            elif isinstance(value, dict) and isinstance(node.get(key), dict):
                merge(node[key], value)
            else:
                node[key] = value

    merge(cfg, patch)
    return cfg


WAIT_ZERO = {"wait": "const", "wait-value": 0}
NAN, INF = float("nan"), float("inf")

# (command, shipped config, patch or raw YAML text, text the one error line must hold)
BAD_CONFIGS = {
    "unknown-top-level-key": ("rate", "rate-second-hop.yaml", {"bogus-key": 1}, "bogus-key"),
    "misspelt-optimizer-key": ("optimize", "optimize-second-hop.yaml",
                               {"optimizer": {"restart": 4}}, "optimizer.restart"),
    "float-for-int": ("aep", "aep-concentration.yaml", {"run": {"n": 2000.7}}, "run.n"),
    "bool-for-int": ("aep", "aep-concentration.yaml", {"run": {"trials": True}}, "run.trials"),
    "string-for-bool-noiseless": ("aep", "aep-concentration.yaml",
                                  {"aep": {"noiseless": "false"}}, "aep.noiseless"),
    "string-for-bool-overlap": ("rate", "rate-timing.yaml",
                                {"timing": {"overlap": "false"}}, "timing.overlap"),
    "zmax-under-optimize": ("optimize", "optimize-second-hop.yaml",
                            {"timing": {"zmax": 5}}, "timing.zmax"),
    "aux-size-under-optimize": ("optimize", "optimize-second-hop.yaml",
                                {"timing": {"aux-size": 2}}, "optimizer.aux-sizes"),
    "zmax-under-sweep": ("sweep", "sweep-cost.yaml", {"timing": {"zmax": 5}}, "timing.zmax"),
    "aux-size-under-sweep": ("sweep", "sweep-cost.yaml",
                             {"timing": {"aux-size": 2}}, "timing.aux-size"),
    "word-for-int": ("rate", "rate-second-hop.yaml",
                     {"battery": {"capacity": "two"}}, "battery.capacity"),
    "word-for-seed": ("aep", "aep-concentration.yaml", {"run": {"seed": "abc"}}, "run.seed"),
    "list-for-float": ("rate", "random-loss-variant-a.yaml",
                       {"channels": {"first": {"crossover": [0.1]}}},
                       "channels.first.crossover"),
    "sweep-loss-missing-key": ("sweep", "sweep-cost.yaml",
                               {"loss": {"given-one": DROP}}, "loss.given-one"),
    "crossover-out-of-range": ("rate", "rate-second-hop.yaml",
                               {"channels": {"second": {"crossover": 1.5}}},
                               "channels.second: channel crossover must lie in [0, 1], got 1.5"),
    "wait-value-zero-under-rate": ("rate", "rate-timing.yaml", {"timing": WAIT_ZERO},
                                   "timing: constant wait must be at least one slot, got 0"),
    "wait-value-zero-under-optimize": ("optimize", "rate-timing.yaml",
                                       {"timing": {**WAIT_ZERO, "aux-size": DROP}},
                                       "timing: constant wait"),
    "wait-value-zero-under-sweep": ("sweep", "sweep-cost.yaml", {"timing": WAIT_ZERO},
                                    "timing: constant wait"),
    "run-n-zero": ("aep", "aep-concentration.yaml", {"run": {"n": 0}},
                   "run: need at least one step or sample"),
    "run-n-over-cap": ("simulate", "simulate-occupancy.yaml", {"run": {"n": 10 ** 8}},
                       "run: n = 100000000 exceeds the desk-scale cap"),
    "battery-cost-one": ("rate", "rate-second-hop.yaml", {"battery": {"cost": 1}},
                         "battery: cost must exceed 1"),
    "optimizer-eps-pos-out-of-range": ("optimize", "optimize-second-hop.yaml",
                                       {"optimizer": {"eps-pos": 0.7}},
                                       "optimizer: positivity floor must lie in (0, 0.5)"),
    "optimizer-restarts-negative": ("optimize", "optimize-second-hop.yaml",
                                    {"optimizer": {"restarts": -1}},
                                    "optimizer: restarts must not be negative"),
    "optimizer-grid-budget-zero": ("optimize", "optimize-second-hop.yaml",
                                   {"optimizer": {"grid-budget": 0}},
                                   "optimizer: grid budget must be at least one point"),
    "timing-rate-without-first-hop": ("rate", "rate-timing.yaml", {"channels": {"first": DROP}},
                                      "this model needs channels.first"),
    "noisy-aep-without-second-hop": ("aep", "aep-concentration.yaml",
                                     {"channels": {"second": DROP}, "aep": {"noiseless": False}},
                                     "this model needs channels.second"),
    "sweep-models-empty": ("sweep", "sweep-cost.yaml", {"sweep": {"models": []}},
                           "sweep.models must not be empty"),
    "charge-p-under-rate": ("rate", "rate-timing.yaml", {"timing": {"charge-p": 0.9}},
                            "timing.charge-p does not apply to rate"),
    "charge-p-under-optimize": ("optimize", "optimize-second-hop.yaml",
                                {"timing": {"charge-p": 0.9}},
                                "timing.charge-p does not apply to optimize"),
    "charge-p-under-sweep": ("sweep", "sweep-cost.yaml", {"timing": {"charge-p": 0.9}},
                             "timing.charge-p does not apply to sweep"),
    "yaml-syntax": ("rate", None, "model: [\n", "not valid YAML"),
    "codec-rates-nan": ("codec", "codec-trend.yaml", {"codec": {"rates": [NAN] * 3}},
                        "codec: subcodebook rates must lie in [0, 1] bit per symbol, got nan"),
    "codec-rates-inf": ("codec", "codec-trend.yaml", {"codec": {"rates": [INF] * 3}},
                        "codec: subcodebook rates must lie in [0, 1]"),
    "codec-rates-huge": ("codec", "codec-trend.yaml", {"codec": {"rates": [1.0e300] * 3}},
                         "codec: subcodebook rates must lie in [0, 1]"),
    "codec-margin-nan": ("codec", "codec-trend.yaml", {"codec": {"margin": NAN}},
                         "codec: subcodebook rates must lie in [0, 1]"),
    "codec-blocks-zero": ("codec", "codec-trend.yaml", {"codec": {"blocks": 0}},
                          "codec: need at least one block"),
    "rate-loss-not-a-pmf": ("rate", "random-loss-variant-a.yaml",
                            {"loss": {"given-one": [0.2, 0.9]}}, "loss: pmf sums to 1.1"),
    "sweep-loss-not-a-pmf": ("sweep", "sweep-cost.yaml", {"loss": {"given-one": [0.2, 0.9]}},
                             "loss: pmf sums to 1.1"),
    "sweep-loss-longer-than-cost": ("sweep", "sweep-cost.yaml",
                                    {"loss": {"given-one": [0.1, 0.1, 0.8]}},
                                    "loss law has 3 entries but the cost is 2"),
    "top-level-list": ("rate", None, "- model\n- battery\n",
                       "config must be a mapping at the top level"),
    "unknown-model": ("rate", "rate-second-hop.yaml", {"model": "nonsense"},
                      "unknown model 'nonsense' (choose from: second-hop, timing"),
    "battery-not-a-mapping": ("rate", "rate-second-hop.yaml", {"battery": 3},
                              "battery must be a mapping, got 3"),
    "sweep-models-not-a-list": ("sweep", "sweep-cost.yaml", {"sweep": {"models": "second-hop"}},
                                "sweep.models must be a list, got 'second-hop'"),
    "word-for-crossover": ("rate", "rate-second-hop.yaml",
                           {"channels": {"second": {"crossover": "abc"}}},
                           "channels.second.crossover must be a number, got 'abc'"),
    "channel-with-q1-alone": ("rate", "rate-second-hop.yaml",
                              {"channels": {"second": {"crossover": DROP, "q1": 0.9}}},
                              "channels.second: needs either crossover or q1+q2"),
    "policy-optimize-under-rate": ("rate", "rate-second-hop.yaml", {"policy": "optimize"},
                                   "the rate command evaluates a fixed policy"),
    "policy-optimize-under-simulate": ("simulate", "simulate-occupancy.yaml",
                                       {"policy": "optimize"},
                                       "this command needs a fixed policy, not 'optimize'"),
    "policy-with-neither-form": ("rate", "rate-second-hop.yaml",
                                 {"policy": {"joint-given-level": DROP, "x1": [0.5, 0.5]}},
                                 "policy needs joint-given-level, or x1 plus x2-given-level"),
    "both-hops-optimize-without-first-hop": ("optimize", "optimize-second-hop.yaml",
                                             {"model": "both-hops"},
                                             "the both-hops scheme needs the first-hop channel"),
    "timing-config-without-charge-p": ("timing", "rate-timing.yaml", {},
                                       "the timing command needs --cost and --charge-p"),
    "timing-config-without-cost-or-charge-p": ("timing", "rate-timing.yaml", {"battery": DROP},
                                               "config is missing battery.capacity"),
    # refused before any start is drawn: 2,000,005 starts of 8 coordinates
    "optimize-starts-over-cap": ("optimize", "optimize-second-hop.yaml",
                                 {"optimizer": {"grid-budget": 2_000_000}},
                                 "starts of 8 coordinates exceed the desk-scale cap"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_is_one_line_exit_one(case, tmp_path, capsys):
    command, base, patch, expected = BAD_CONFIGS[case]
    path = tmp_path / "bad.yaml"
    path.write_text(patch if base is None else yaml.safe_dump(_patched(base, patch)))
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and expected in err


def test_policy_optimize_under_optimize_prints_the_pinned_rows(tmp_path, capsys):
    # the README allows policy: optimize in an optimize config; the search
    # ignores it, so only the config hash in the comment line differs
    assert main(["optimize", "--config", "configs/optimize-second-hop.yaml", "--format", "csv"]) == 0
    shipped = capsys.readouterr().out
    assert hashlib.sha256(shipped.encode()).hexdigest() == SHIPPED_DIGESTS["optimize-second-hop"][1]
    path = tmp_path / "policy-optimize.yaml"
    path.write_text(yaml.safe_dump(_patched("optimize-second-hop.yaml", {"policy": "optimize"})))
    assert main(["optimize", "--config", str(path), "--format", "csv"]) == 0
    (head, rows), (shipped_head, shipped_rows) = (text.split("\n", 1) for text in
                                                  (capsys.readouterr().out, shipped))
    assert rows == shipped_rows
    assert head.split()[2:] == shipped_head.split()[2:]  # all but "# config_hash=..."


@pytest.mark.parametrize("given_one", [[0.2, 0.9], [0.1, 0.1, 0.8]])
def test_bad_sweep_loss_fails_before_any_cell(given_one, tmp_path, monkeypatch, capsys):
    cells = []
    monkeypatch.setattr(opt, "optimize", lambda *a, **kw: cells.append(a))
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_patched("sweep-cost.yaml", {"loss": {"given-one": given_one}})))
    assert main(["sweep", "--config", str(path)]) == 1
    assert "loss" in capsys.readouterr().err
    assert cells == []


@pytest.mark.parametrize("drop,expected", [
    ({"loss": DROP}, "error: the random-loss scheme needs the loss laws\n"),
    pytest.param({"channels": {"first": DROP}},
                 "error: the timing scheme needs the first-hop channel\n", id="drop1-first-hop"),
    ({"channels": {"second": DROP}},
     "error: the second-hop scheme needs the second-hop channel\n"),
])
def test_missing_sweep_input_fails_before_any_cell(drop, expected, tmp_path, monkeypatch,
                                                   capsys):
    cells = []
    real = opt.optimize
    monkeypatch.setattr(opt, "optimize", lambda *a, **kw: (cells.append(a), real(*a, **kw))[1])
    cfg = _patched("sweep-cost.yaml", {**drop, "sweep": {"values": [2]},
                                       "optimizer": {"grid-budget": 200}})
    path = tmp_path / "missing.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err == expected
    assert cells == []


def test_sweep_floor_without_room_fails_before_any_search(tmp_path, monkeypatch, capsys):
    searches = []
    for name in ("_line_search", "_run_search"):
        monkeypatch.setattr(opt, name, lambda *a, name=name: searches.append(name))
    cfg = _patched("sweep-cost.yaml", {"sweep": {"models": ["timing", "second-hop"]},
                                       "optimizer": {"eps-pos": 0.3}})
    path = tmp_path / "floor.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "constraint error: positivity floor 0.3 leaves no room in a four-cell table\n")
    assert searches == []


EPS_CONFIG = """\
model: second-hop
battery: {{capacity: 2, cost: 2}}
channels: {{second: {{crossover: 0.1}}}}
optimizer: {{grid-budget: 200, restarts: 1, eps-pos: {eps}}}
"""


def test_timing_flags_name_the_timing_section(capsys):
    argv = ["timing", "--cost", "2", "--charge-p", "0.5", "--wait", "const", "--wait-value", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: timing: constant wait must be at least one slot, got 0\n"


def test_out_into_a_missing_directory_is_one_line_exit_one(tmp_path, capsys):
    target = tmp_path / "missing" / "rate.csv"
    assert main(["rate", "--config", RATE_CONFIG, "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and str(target) in err
    assert not target.parent.exists()


def test_timing_command_still_reads_charge_p(tmp_path, capsys):
    path = tmp_path / "timing.yaml"
    path.write_text(yaml.safe_dump(_patched("rate-timing.yaml", {"timing": {"charge-p": 0.5}})))
    assert main(["timing", "--config", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "recharge,2,0.25"


def test_float_key_takes_the_yaml11_exponent_string(tmp_path, capsys):
    assert yaml.safe_load("eps: 1e-6") == {"eps": "1e-6"}
    rows = []
    for eps in ("1e-6", "1.0e-6"):
        path = tmp_path / "eps.yaml"
        path.write_text(EPS_CONFIG.format(eps=eps))
        assert main(["optimize", "--config", str(path), "--format", "csv"]) == 0
        rows.append(capsys.readouterr().out.splitlines()[2])
    assert rows[0] == rows[1]


# The two config loaders: libyaml's parser, when pyyaml was built with it,
# and pyyaml's own. ``main`` reads with the first it has.
LOADERS = {"libyaml": getattr(yaml, "CSafeLoader", None), "pure": yaml.SafeLoader}


@pytest.fixture(params=sorted(LOADERS))
def loader(request, monkeypatch):
    """Run the test with ``main`` reading configs through one loader."""
    chosen = LOADERS[request.param]
    if chosen is None:
        pytest.skip("pyyaml was built without libyaml")
    monkeypatch.setattr(cli, "_YAML_LOADER", chosen)
    return chosen


def test_main_reads_with_libyaml_when_pyyaml_has_it():
    assert cli._YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def test_shipped_configs_read_the_same_under_both_loaders(monkeypatch):
    if LOADERS["libyaml"] is None:
        pytest.skip("pyyaml was built without libyaml")
    configs = sorted((ROOT / "configs").glob("*.yaml"))
    assert configs
    for path in configs:
        read = {}
        for name, chosen in LOADERS.items():
            monkeypatch.setattr(cli, "_YAML_LOADER", chosen)
            read[name] = cli._load_config(str(path))
        # repr tells an int from an equal float, and a tuple from a list
        assert repr(read["libyaml"]) == repr(read["pure"]), path.name
        assert read["libyaml"] == read["pure"], path.name


def test_yaml_syntax_error_is_one_line_under_each_loader(loader, tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("model: second-hop\nbattery: {capacity: 2, cost: 2\n")
    assert main(["rate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config {path} is not valid YAML: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_deeply_nested_config_is_one_line_under_each_loader(loader, tmp_path, capsys):
    path = tmp_path / "deep.yaml"
    path.write_text("model: " + "[" * 5000 + "]" * 5000 + "\n")
    assert main(["rate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: config {path} nests too deeply to read\n"


def test_cached_parser_keeps_no_state_between_runs(loader, capsys):
    usage = ["rate", "--config", RATE_CONFIG, "--format", "xml"]
    good = ["rate", "--config", RATE_CONFIG, "--format", "csv"]

    def run(argv, fresh):
        if fresh:
            cli._parser.cache_clear()
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = [run(usage, True), run(good, True)]
    assert alone[0][0] == 1 and "invalid choice" in alone[0][2] and alone[0][1] == ""
    assert alone[1][0] == 0 and alone[1][2] == ""
    cli._parser.cache_clear()
    assert [run(usage, False), run(good, False), run(usage, False)] == alone + alone[:1]


def test_readme_schema_block_matches_the_table():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    documented = yaml.safe_load(block)
    assert list(documented) == list(_SCHEMA)
    for section, kind in _SCHEMA.items():
        mapping = kind[-1] if isinstance(kind, tuple) else kind
        if isinstance(mapping, dict):
            assert list(documented[section]) == list(mapping), section


class TestCsvContract:
    def run_csv(self, argv, capsys):
        assert main(argv + ["--format", "csv"]) == 0
        return capsys.readouterr().out.splitlines()

    def test_meta_line(self, capsys):
        lines = self.run_csv(["rate", "--config", RATE_CONFIG], capsys)
        assert re.fullmatch(
            r"# config_hash=[0-9a-f]{12} seed=\d+ version=0\.1\.0"
            r" command=rate", lines[0])

    def test_rate_columns(self, capsys):
        lines = self.run_csv(["rate", "--config", RATE_CONFIG], capsys)
        assert lines[1] == ("model,cost,capacity,relay_bound,receiver_bound,"
                            "rate,achievable,binding")
        assert lines[2].startswith("second-hop,2,2,1,0.212401763")

    def test_simulate_columns(self, capsys):
        lines = self.run_csv(["simulate", "--config", SIMULATE_CONFIG],
                             capsys)
        assert lines[1] == "level,frequency,stationary,abs_deviation"
        assert len(lines) == 5

    def test_aep_columns(self, capsys):
        lines = self.run_csv(["aep", "--config", AEP_CONFIG], capsys)
        assert lines[1] == "trial,n,marginal_bits_per_symbol,joint_bits_per_symbol"

    def test_codec_columns(self, capsys):
        lines = self.run_csv(["codec", "--config", CODEC_CONFIG], capsys)
        assert lines[1] == "block,n,trials,p_incomplete,p_ambiguous,p_either"

    def test_timing_columns(self, capsys):
        lines = self.run_csv(
            ["timing", "--cost", "2", "--charge-p", "0.5"], capsys)
        assert lines[1] == "series,value,probability"
        assert lines[2] == "recharge,2,0.25"

    def test_newline_discipline(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert main(["rate", "--config", RATE_CONFIG, "--out",
                     str(out)]) == 0
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")


# sha256 of the full --format csv stdout of each shipped config that runs,
# with the command that runs it
SHIPPED_DIGESTS = {
    "aep-concentration": ("aep", "a55e811b0a975fa15e7ddc2c99bba1eec5cbaefbdc673d692cab887cd57f0478"),
    "codec-trend": ("codec", "07ac2f4763e44fb0762f34bba2f3a1daf641ff6059bf77ab799ad1d1c0ab4b29"),
    "optimize-second-hop": ("optimize",
                            "35866541265baf22d0dbde0d7e4bc03bd600317522e57d5c212cb39706fafa38"),
    "random-loss-variant-a": ("rate",
                              "758c0b2b3b85b75acd8350a92ac6f7f7ec02bb26c17cf2bf97f6cd0cae01b832"),
    "random-loss-variant-b": ("rate",
                              "7cf1052be226a254d4ede41a1e8fc419d534390cce7404c83d9d611ea328c341"),
    "rate-second-hop": ("rate", "cfc3eef71a295e75c231ced8227e99c00547ae35a942496f189f4c491a6d6e74"),
    "rate-timing": ("rate", "aae2e1d0fc5674fe92cb953a275465bd1d434cda1f5bc64cd320d14b03b55a01"),
    "simulate-occupancy": ("simulate",
                           "416d195c71c43ebf720df94545c576b777dbe48ef3dfda088f6fef0a6c32630a"),
    "sweep-capacity": ("sweep", "15077fa5fc201f3e283f6f9de01589068bae5fa66ba64ef1659509ed5c894163"),
    "sweep-cost": ("sweep", "07a20678aa7213ce1c976437b52532fdc30d84fafbaa86565b6c4f79c78adc20"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_csv_is_pinned(name, capsys):
    command, digest = SHIPPED_DIGESTS[name]
    assert main([command, "--config", f"configs/{name}.yaml", "--format", "csv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_every_shipped_config_is_pinned_or_rejected():
    names = {path.stem for path in (ROOT / "configs").glob("*.yaml")}
    assert names == set(SHIPPED_DIGESTS) | {pathlib.Path(BAD_LOSS_CONFIG).stem}


class TestDeterminism:
    def rerun_bytes(self, argv, tmp_path, name):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            paths.append(out.read_bytes())
        return paths

    def test_rate_rerun_is_byte_identical(self, tmp_path):
        a, b = self.rerun_bytes(["rate", "--config", RATE_CONFIG],
                                tmp_path, "rate")
        assert a == b

    def test_stochastic_rerun_is_byte_identical(self, tmp_path):
        a, b = self.rerun_bytes(["aep", "--config", AEP_CONFIG],
                                tmp_path, "aep")
        assert a == b

    def test_seed_flag_matches_config_seed(self, tmp_path):
        base = tmp_path / "base.csv"
        flag = tmp_path / "flag.csv"
        assert main(["simulate", "--config", SIMULATE_CONFIG, "--out",
                     str(base)]) == 0
        assert main(["simulate", "--config", SIMULATE_CONFIG, "--seed", "7",
                     "--out", str(flag)]) == 0
        assert base.read_bytes() == flag.read_bytes()

    def test_seed_flag_changes_the_run(self, tmp_path):
        base = tmp_path / "base.csv"
        other = tmp_path / "other.csv"
        assert main(["simulate", "--config", SIMULATE_CONFIG, "--out",
                     str(base)]) == 0
        assert main(["simulate", "--config", SIMULATE_CONFIG, "--seed", "99",
                     "--out", str(other)]) == 0
        base_rows = base.read_bytes().splitlines()[2:]
        other_rows = other.read_bytes().splitlines()[2:]
        assert base_rows != other_rows


class TestTimingCommand:
    def test_flag_path_pretty(self, capsys):
        assert main(["timing", "--cost", "2", "--charge-p", "0.5",
                     "--wait", "const", "--wait-value", "1"]) == 0
        out = capsys.readouterr().out
        assert "recharge time: mean 4, entropy 2.71146872 bits" in out
        assert "spacing: mean 5, entropy 2.71146872 bits" in out
        assert "wait selector: constant wait 1" in out

    def test_config_path_notes_the_default_scheme(self, capsys):
        assert main(["rate", "--config", TIMING_CONFIG]) == 0
        out = capsys.readouterr().out
        assert "wait selector: uniform over" in out

    def test_invalid_charge_probability(self, capsys):
        assert main(["timing", "--cost", "2", "--charge-p", "1.5"]) == 1

    def test_cost_516_is_past_the_double_range_and_rated(self, capsys):
        assert main(["timing", "--cost", "516", "--charge-p", "0.99"]) == 0
        assert "recharge time: mean 521.212121" in capsys.readouterr().out

    def test_bias_whose_cumsum_ends_short_is_rated(self, capsys):
        assert main(["timing", "--cost", "3", "--charge-p", "0.04728146959597227"]) == 0
        assert "recharge time: mean" in capsys.readouterr().out

    def test_sure_charge_with_overlap_fits_a_one_slot_horizon(self, capsys):
        # every recharge takes one slot, so the law's range past zmax = 1 is empty
        assert main(["timing", "--cost", "2", "--charge-p", "1", "--overlap", "--zmax", "1"]) == 0
        assert "recharge time: mean 1, entropy 0 bits" in capsys.readouterr().out

    def test_truncating_horizon_is_one_numerical_line(self, capsys):
        assert main(["timing", "--cost", "2", "--charge-p", "0.5", "--zmax", "6"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1

    def test_recharge_support_past_the_cap_is_one_numerical_line(self, capsys):
        assert main(["timing", "--cost", "2", "--charge-p", "1e-6"]) == 3
        assert capsys.readouterr().err == (
            "numerical error: recharge-time support exceeds 1000000 points at p1=1e-06\n")

    def test_horizon_over_the_support_cap_is_rejected(self, capsys):
        from ehrelay.timing import _SUPPORT_CAP

        assert main(["timing", "--cost", "3", "--charge-p", "0.5",
                     "--zmax", str(_SUPPORT_CAP + 1)]) == 1
        err = capsys.readouterr().err
        assert "support cap" in err and err.count("\n") == 1


class TestClosedPipe:
    """A reader that closes early ends the run with exit 1 and no traceback."""

    def test_stdout_that_refuses_writes(self, monkeypatch, capsys):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["timing", "--cost", "600", "--charge-p", "0.5", "--format", "csv"]) == 1
        monkeypatch.undo()
        assert "Traceback" not in capsys.readouterr().err

    def test_closed_pipe_leaves_stdout_on_devnull(self, monkeypatch, capsys):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["timing", "--cost", "600", "--charge-p", "0.5", "--format", "csv"]) == 1
            monkeypatch.undo()
            # the exit flush now writes to os.devnull and cannot raise again
            assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
            stream.write("more\n")
        assert "Traceback" not in capsys.readouterr().err

    def test_reader_that_closes_after_three_lines(self, tmp_path):
        # About 390 KB of CSV, several times a pipe's buffer, so the run is
        # still writing when the reader closes.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        err = tmp_path / "stderr"
        with open(err, "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ehrelay", "timing", "--cost", "600",
                 "--charge-p", "0.1", "--format", "csv"],
                stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=ROOT)
            lines = [proc.stdout.readline() for _ in range(3)]
            proc.stdout.close()
            code = proc.wait(timeout=120)
        assert lines[1] == b"series,value,probability\n"
        assert code == 1
        assert "Traceback" not in err.read_text()


class TestFormatting:
    def test_negative_zero_collapses(self):
        assert _fmt(-0.0) == "0"

    def test_none_is_empty(self):
        assert _fmt(None) == ""

    def test_nine_significant_digits(self):
        assert _fmt(0.2124017625642875) == "0.212401763"
