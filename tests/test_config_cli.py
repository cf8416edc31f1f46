import ast
import importlib
import os
import runpy
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from asdnlms.analysis import sampled_node_bounds
from asdnlms.cli import main
from asdnlms.config import (
    _SCHEMA,
    ConfigError,
    EnvSpec,
    RunConfig,
    TopologySpec,
    parse_config_file,
    parse_config_text,
)
from asdnlms.harness import materialize, monte_carlo
from asdnlms.presets import BETA_RATIOS, PRESET_NAMES, PRESETS, expand_preset
from asdnlms.sampling import PolicyConfig
from conftest import no_child_left

GOOD_CONFIG = """
# small smoke-test run
topology.kind = random_geometric
topology.V = 6
topology.radius = 0.6
env.M = 4
env.sigma2_v_min = 0.1
env.sigma2_v_max = 0.4
env.nu = 0.2
env.delta = 1e-5
policy.kind = as_sampling
policy.beta = 0.68
policy.mu_s = 0.1571
policy.alpha_plus = 4.0
run.iterations = 120
run.realizations = 2
run.seed = 5
"""


def with_key(text: str, key: str, value: str) -> str:
    """The config text with `key` set to `value`, replacing any line of that key."""
    kept = [line for line in text.splitlines() if line.split("=", 1)[0].strip() != key]
    return "\n".join(kept + [f"{key} = {value}"]) + "\n"


def read_manifest(path) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


class TestConfigParsing:
    def test_good_config(self):
        cfg = parse_config_text(GOOD_CONFIG)
        assert cfg.topology.V == 6
        assert cfg.policy.beta == 0.68
        assert cfg.iterations == 120

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(GOOD_CONFIG + "\nrun.warp_speed = 9\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(GOOD_CONFIG + "\nrun.seed = 6\n")

    def test_missing_policy_kind(self):
        with pytest.raises(ConfigError, match="policy.kind"):
            parse_config_text("run.iterations = 10\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text(GOOD_CONFIG.replace("run.seed = 5", "run.seed = five"))

    def test_policy_params_enforced(self):
        text = GOOD_CONFIG.replace("policy.kind = as_sampling", "policy.kind = full")
        with pytest.raises(ConfigError, match="does not take"):
            parse_config_text(text)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("topology.kind random_geometric\n")

    def test_per_node_profiles(self):
        text = GOOD_CONFIG + "env.sigma2_v = 0.1,0.2,0.3,0.4,0.2,0.1\n"
        cfg = parse_config_text(text)
        assert cfg.env.sigma2_v == (0.1, 0.2, 0.3, 0.4, 0.2, 0.1)

    def test_profile_length_mismatch(self):
        text = GOOD_CONFIG + "env.sigma2_v = 0.1,0.2\n"
        with pytest.raises(ConfigError, match="length"):
            parse_config_text(text)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file("does/not/exist.cfg")

    def test_every_field_is_a_key(self):
        sections = {"topology": TopologySpec, "env": EnvSpec, "policy": PolicyConfig,
                    "run": RunConfig}
        keys = {f"{section}.{f.name}" for section, cls in sections.items()
                for f in fields(cls) if f.name not in sections}
        assert keys == set(_SCHEMA)

    @pytest.mark.parametrize("key", ["policy.V_s", "env.flip_iteration", "policy.beta",
                                     "policy.mu_s", "policy.alpha_plus", "policy.p",
                                     "env.sigma2_v", "env.mu_tilde"])
    def test_none_is_absent(self, key):
        cfg = parse_config_text(f"policy.kind = full\n{key} = none\n")
        section, name = key.split(".")
        assert getattr(getattr(cfg, section), name) is None

    def test_absent_alpha_plus_is_the_default(self):
        cfg = parse_config_text("policy.kind = as_sampling\npolicy.beta = 0.68\n"
                                "policy.mu_s = 0.1571\npolicy.alpha_plus = none\n")
        assert cfg.policy.alpha_plus == 4.0

    @pytest.mark.parametrize("key", ["run.label", "run.out_dir", "topology.edge_list"])
    def test_none_is_a_string_value(self, key):
        cfg = parse_config_text(f"policy.kind = full\n{key} = none\n")
        section, name = key.split(".")
        assert getattr(cfg if section == "run" else getattr(cfg, section), name) == "none"

    def test_readme_config_block(self):
        # the README's config example parses and names every key
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Config format", 1)[1].split("```\n")[1]
        parse_config_text(block, source="README.md")
        missing = [key for key in _SCHEMA if key not in block]
        assert not missing


class TestPresets:
    def test_names(self):
        assert set(PRESET_NAMES) == {"fig_msd_cost", "fig_beta_sweep", "fig_censoring"}

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            expand_preset("fig_nothing")

    def test_beta_sweep_coverage(self):
        configs = expand_preset("fig_beta_sweep")
        ratios = sorted(c.policy.beta / 0.4 for c in configs)
        assert ratios == pytest.approx(sorted(BETA_RATIOS))
        assert all(c.env.flip_iteration is None for c in configs)

    def test_defaults_embedded(self):
        for name in PRESET_NAMES:
            for cfg in expand_preset(name):
                assert cfg.topology.kind == "random_geometric"
                assert cfg.topology.V == 20
                assert cfg.topology.radius == 0.35
                assert (cfg.env.sigma2_v_min, cfg.env.sigma2_v_max) == (0.1, 0.4)
                assert (cfg.env.mu_tilde_min, cfg.env.mu_tilde_max) == (0.2, 1.0)
                assert cfg.env.sigma2_u == 1.0
                assert cfg.env.nu == 0.2
                assert cfg.env.delta == 1e-5
                assert cfg.env.M == 50
                assert cfg.realizations == 100
                assert cfg.iterations == 20000
                if cfg.policy.kind in ("as_sampling", "as_censoring"):
                    assert cfg.policy.alpha_plus == 4.0
                    assert cfg.policy.mu_s == 0.1571
                    if name != "fig_beta_sweep":
                        assert cfg.policy.beta == 0.68

    def test_msd_cost_variants(self):
        labels = [c.name() for c in expand_preset("fig_msd_cost")]
        assert labels == ["dnlms_full", "as_dnlms", "random_Vs5", "random_Vs10", "random_Vs15"]
        assert all(c.env.flip_iteration == 10000 for c in expand_preset("fig_msd_cost"))

    def test_censoring_variants(self):
        kinds = {c.policy.kind for c in expand_preset("fig_censoring")}
        assert kinds == {"full", "as_sampling", "as_censoring",
                         "probabilistic_transmission", "non_cooperative"}

    def test_overrides(self):
        configs = expand_preset("fig_censoring", seed=9, realizations=3, iterations=500)
        assert all(c.seed == 9 and c.realizations == 3 and c.iterations == 500 for c in configs)
        assert all(c.env.flip_iteration == 250 for c in configs)


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG)
        assert main(["validate", "--config", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG + "\nrun.comm_unit = bogus\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["policy.beta", "policy.mu_s", "policy.alpha_plus",
                                     "env.delta", "env.sigma2_u", "env.sigma2_v_max",
                                     "env.sigma2_v"])
    def test_validate_rejects_non_finite(self, key, value, tmp_path, capsys):
        if key == "env.sigma2_v":
            value = f"0.1,{value},0.3,0.4,0.2,0.1"
        path = tmp_path / "run.cfg"
        path.write_text(with_key(GOOD_CONFIG, key, value))
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "duplicate" not in err and "bad value" not in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_negative_seed_names_the_key(self, command, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(with_key(GOOD_CONFIG, "run.seed", "-3"))
        out = tmp_path / "out"
        argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 1
        assert "run.seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["../x", "sub/x", ".", ".."])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_label_must_be_a_plain_file_name(self, command, label, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(with_key(GOOD_CONFIG, "run.label", label))
        out = tmp_path / "out"
        argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 1
        assert f"run.label must be a plain file name, got {label!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_preset_negative_seed_names_the_key(self, tmp_path, capsys):
        rc = main(["preset", "fig_censoring", "--seed", "-1", "--realizations", "1",
                   "--iterations", "20", "--out", str(tmp_path)])
        assert rc == 1
        assert "run.seed must be >= 0, got -1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_validate_rejects_alpha_plus_above_the_bound(self, tmp_path, capsys):
        # cosh(alpha) would overflow in the alpha update, with exit 0
        path = tmp_path / "run.cfg"
        path.write_text(with_key(GOOD_CONFIG, "policy.alpha_plus", "1e300"))
        assert main(["validate", "--config", str(path)]) == 1
        assert "alpha_plus must be <= 700" in capsys.readouterr().err

    def test_run_at_the_largest_alpha_plus_warns_nothing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(with_key(GOOD_CONFIG, "policy.alpha_plus", "700"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_validate_rejects_nan_radius_before_drawing_graphs(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(with_key(GOOD_CONFIG, "topology.radius", "nan"))
        assert main(["validate", "--config", str(path)]) == 1
        assert "topology.radius must be > 0" in capsys.readouterr().err

    def test_validate_rejects_empty_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "empty.edges"
        edges.write_text("")
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG.replace("topology.kind = random_geometric",
                                            f"topology.kind = edge_list\ntopology.edge_list = {edges}"))
        assert main(["validate", "--config", str(path)]) == 1
        assert "empty edge-list" in capsys.readouterr().err

    def test_validate_rejects_unbuildable_random_graph(self, tmp_path, capsys):
        # a radius far too small to connect 30 nodes: validate fails as run does
        path = tmp_path / "run.cfg"
        path.write_text("topology.V = 30\ntopology.radius = 0.01\nenv.M = 4\npolicy.kind = full\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert "could not produce a connected graph" in capsys.readouterr().err

    def test_validate_rejects_disconnected_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "split.edges"
        edges.write_text("6\n0 1\n1 2\n3 4\n4 5\n")
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG.replace("topology.kind = random_geometric",
                                            f"topology.kind = edge_list\ntopology.edge_list = {edges}"))
        assert main(["validate", "--config", str(path)]) == 1
        assert "not connected" in capsys.readouterr().err

    def test_zero_noise_run_omits_bounds(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG + "env.sigma2_v = 0.1,0.0,0.3,0.4,0.2,0.1\n")
        out = tmp_path / "results"
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        manifest = (out / "as_sampling.manifest.txt").read_text()
        assert "steady.pre.sampled" in manifest
        assert "predicted." not in manifest

    def test_run_missing_config(self, capsys):
        assert main(["run", "--config", "missing.cfg"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG)
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        csv = (out / "as_sampling.csv").read_text().splitlines()
        assert csv[0] == "n,msd_db,msd_db_smoothed,sampled,comms,mults,adds"
        assert len(csv) == 121
        manifest = (out / "as_sampling.manifest.txt").read_text()
        assert "predicted.Vs_upper" in manifest

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG)
        target = tmp_path / "env_results"
        monkeypatch.setenv("ASDNLMS_OUT", str(target))
        assert main(["run", "--config", str(path)]) == 0
        assert (target / "as_sampling.csv").exists()

    def test_predict_output(self, capsys):
        rc = main([
            "predict", "--V", "20", "--beta", "0.68",
            "--sigma2-min", "0.1", "--sigma2-max", "0.4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Vs_lower = 2.9412" in out
        assert "Vs_upper = 11.7647" in out

    def test_predict_inadmissible(self, capsys):
        rc = main([
            "predict", "--V", "20", "--beta", "0.3",
            "--sigma2-min", "0.1", "--sigma2-max", "0.4",
        ])
        assert rc == 1

    @pytest.mark.parametrize("V, beta, s_min, s_max", [
        ("-5", "0.68", "0.1", "0.4"), ("0", "0.68", "0.1", "0.4"), ("20", "inf", "0.1", "0.4"),
        ("20", "nan", "0.1", "0.4"), ("20", "0.68", "nan", "0.4"), ("20", "inf", "inf", "inf")])
    def test_predict_impossible_inputs(self, capsys, V, beta, s_min, s_max):
        rc = main(["predict", "--V", V, "--beta", beta, "--sigma2-min", s_min,
                   "--sigma2-max", s_max])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_preset_tiny_censoring(self, tmp_path):
        out = tmp_path / "figs"
        rc = main(["preset", "fig_censoring", "--seed", "3", "--realizations", "1",
                   "--iterations", "200", "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["as_dnlms.csv", "as_dnlms_censoring.csv", "dnlms_full.csv",
                         "non_cooperative.csv", "pt_dnlms.csv"]

    @pytest.mark.parametrize("name", ["fig_msd_cost", "fig_censoring"])
    def test_flipped_preset_rejects_one_iteration(self, name, tmp_path, capsys):
        rc = main(["preset", name, "--iterations", "1", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "iterations must be at least 2" in err
        assert "flip_iteration" not in err
        assert not list(tmp_path.iterdir())

    def test_unflipped_preset_runs_one_iteration(self, tmp_path):
        rc = main(["preset", "fig_beta_sweep", "--realizations", "1", "--iterations", "1",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_preset_beta_sweep_writes_bounds(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["preset", "fig_beta_sweep", "--seed", "3", "--realizations", "1",
                   "--iterations", "150", "--out", str(out)])
        assert rc == 0
        bounds = (out / "bounds.csv").read_text().splitlines()
        assert bounds[0] == "beta_ratio,beta,vs_lower,vs_upper,measured_steady_sampled"
        assert len(bounds) == 1 + len(BETA_RATIOS)
        for ratio, row in zip(BETA_RATIOS, bounds[1:]):
            beta_ratio, _, vs_lower, vs_upper, _ = row.split(",")
            assert float(beta_ratio) == ratio
            m = read_manifest(out / f"beta_{ratio:g}x.manifest.txt")
            lo, hi = sampled_node_bounds(int(m["topology.V"]), float(m["policy.beta"]),
                                         float(m["drawn.sigma2_v_min"]),
                                         float(m["drawn.sigma2_v_max"]))
            assert (vs_lower, vs_upper) == (f"{lo:.6g}", f"{hi:.6g}")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_materializes_each_variant_once(self, name, tmp_path, monkeypatch):
        # perfbench/run.py wraps cli.materialize and cli.monte_carlo, finds each
        # variant's network and result by label, and times the engine as the
        # time spent inside monte_carlo: every run_batch call must fall inside one
        import asdnlms.cli as cli
        import asdnlms.harness as harness

        calls, results, batches, inside = [], [], [], []
        run_batch = harness.run_batch

        def counting(cfg):
            calls.append(cfg.name())
            return materialize(cfg)

        def recording(cfg, *args, **kwargs):
            inside.append(cfg.name())
            try:
                result = monte_carlo(cfg, *args, **kwargs)
            finally:
                inside.pop()
            results.append((cfg.name(), result.config.name()))
            return result

        def checked_run_batch(*args, **kwargs):
            batches.append(list(inside))
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)  # a child's counts stay in the child
        monkeypatch.setattr(cli, "materialize", counting)
        monkeypatch.setattr(cli, "monte_carlo", recording)
        monkeypatch.setattr(harness, "run_batch", checked_run_batch)
        rc = main(["preset", name, "--seed", "3", "--realizations", "1",
                   "--iterations", "60", "--out", str(tmp_path)])
        assert rc == 0
        labels = [c.name() for c in expand_preset(name)]
        assert calls == labels
        assert results == [(label, label) for label in labels]
        assert batches and all(len(stack) == 1 for stack in batches)
        # at one realization every variant of the preset shares one batch
        assert len(batches) == 1

    def test_unwritable_out_dir_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a dir")
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG)
        rc = main(["run", "--config", str(path), "--out", str(blocker / "nested")])
        assert rc == 2

    def test_non_finite_state_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        import asdnlms.harness as harness

        draw = harness.draw_signal_blocks

        def one_nan_sample(env, streams, iterations):
            inputs, noises = draw(env, streams, iterations)
            inputs[0, 2, 30] = np.nan
            return inputs, noises

        monkeypatch.setattr(harness, "draw_signal_blocks", one_nan_sample)
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG)
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "realization 0: network MSD is not finite at iteration 30" in capsys.readouterr().err
        assert not (out / "as_sampling.csv").exists()

    def test_non_finite_alpha_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        # a NaN alpha stops its node from sampling while the MSD stays finite
        import asdnlms.harness as harness

        monkeypatch.setattr(harness, "usable_cpus", lambda: 1)
        monkeypatch.setattr(harness, "phi_prime", lambda alpha, alpha_plus: alpha * np.nan)
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG)
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert ("as_sampling, realization 0: alpha is not finite at iteration 119"
                in capsys.readouterr().err)
        assert not (out / "as_sampling.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="campaigns fork only where os.fork exists")
    @pytest.mark.parametrize("argv", [
        ["preset", "fig_censoring", "--realizations", "3", "--iterations", "200"],
        ["preset", "fig_beta_sweep", "--realizations", "3", "--iterations", "150"],
        ["run", "--config", "8 realizations"],
    ])
    def test_outputs_identical_on_one_and_two_cpus(self, argv, tmp_path, monkeypatch):
        import asdnlms.harness as harness

        path = tmp_path / "run.cfg"
        path.write_text(with_key(GOOD_CONFIG, "run.realizations", "8"))
        argv = [str(path) if a == "8 realizations" else a for a in argv]
        run_batch, pids = harness.run_batch, tmp_path / "pids"

        def logging_pid(*args, **kwargs):  # in whichever process runs the batch
            with pids.open("a") as f:
                f.write(f"{os.getpid()}\n")
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(harness, "run_batch", logging_pid)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(argv + ["--out", str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
            assert len(set(pids.read_text().split())) == cpus
            pids.unlink()
        assert outputs[0] == outputs[1]
        assert any(name.endswith(".csv") for name in outputs[0])
        assert ("bounds.csv" in outputs[0]) == ("fig_beta_sweep" in argv)
        no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="campaigns fork only where os.fork exists")
    @pytest.mark.parametrize("policy", [
        "policy.kind = as_censoring\npolicy.beta = 0.68\npolicy.mu_s = 0.1571",
        "policy.kind = probabilistic_transmission\npolicy.p = 0.5",
        "policy.kind = random_sampling\npolicy.V_s = 12",
    ])
    def test_one_row_outputs_identical_on_one_and_two_cpus(self, policy, tmp_path, monkeypatch,
                                                          forks):
        # one realization: one batch, which runs in this process at either CPU count
        import asdnlms.harness as harness

        text = "\n".join(line for line in GOOD_CONFIG.splitlines()
                         if not line.startswith("policy.")) + "\n" + policy + "\n"
        for key, value in (("topology.V", "30"), ("topology.radius", "0.35"),
                           ("run.iterations", "600"), ("env.flip_iteration", "300"),
                           ("run.realizations", "1")):
            text = with_key(text, key, value)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
            assert not forks
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 2  # the CSV and the manifest
        no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="campaigns fork only where os.fork exists")
    def test_non_finite_state_in_a_child_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        # 8 realizations on 2 CPUs: realizations 4-7 run in the child
        import asdnlms.harness as harness

        parent, draw = os.getpid(), harness.draw_signal_blocks

        def nan_in_the_child(env, streams, iterations):
            inputs, noises = draw(env, streams, iterations)
            if os.getpid() != parent:
                inputs[0, 2, 30] = np.nan
            return inputs, noises

        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "draw_signal_blocks", nan_in_the_child)
        path = tmp_path / "run.cfg"
        path.write_text(with_key(GOOD_CONFIG, "run.realizations", "8"))
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert ("as_sampling, realization 4: network MSD is not finite at iteration 30"
                in capsys.readouterr().err)
        assert not (out / "as_sampling.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="campaigns fork only where os.fork exists")
    def test_child_dying_without_sending_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        # 8 realizations on 2 CPUs: batch 1 runs in a worker
        import asdnlms.harness as harness

        parent, run_batch = os.getpid(), harness.run_batch

        def dies_in_the_child(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(0)
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "run_batch", dies_in_the_child)
        path = tmp_path / "run.cfg"
        path.write_text(with_key(with_key(GOOD_CONFIG, "run.realizations", "8"),
                                 "run.iterations", "300"))
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "batch 1's worker died without its result" in capsys.readouterr().err
        assert not (out / "as_sampling.csv").exists()
        no_child_left()

    def test_preset_builds_its_network_once(self, tmp_path, monkeypatch):
        # the variants of a preset share one network, built by the first materialize
        import asdnlms.harness as harness

        build, builds = harness.build_random_geometric, []

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(harness, "build_random_geometric", counting)
        harness._random_geometric.cache_clear()
        rc = main(["preset", "fig_censoring", "--seed", "5", "--realizations", "1",
                   "--iterations", "60", "--out", str(tmp_path)])
        assert rc == 0
        configs = expand_preset("fig_censoring", seed=5, realizations=1, iterations=60)
        assert len(configs) == 5 and len(builds) == 1
        assert materialize(configs[0]) is materialize(configs[-1])
        assert len(builds) == 1

    def test_edge_list_read_once_per_materialize(self, tmp_path, monkeypatch):
        import asdnlms.harness as harness
        from asdnlms.network import load_edge_list

        edges = tmp_path / "ring.edges"
        edges.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG.replace("topology.kind = random_geometric",
                                            f"topology.kind = edge_list\ntopology.edge_list = {edges}"))
        calls = []

        def counting(p):
            calls.append(p)
            return load_edge_list(p)

        monkeypatch.setattr(harness, "load_edge_list", counting)
        cfg = parse_config_file(path)
        assert calls == []  # parsing reads no edge-list file
        mat = materialize(cfg)
        assert mat.topology.node_count == 6
        assert len(calls) == 1
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 2
        assert main(["validate", "--config", str(path)]) == 0
        assert len(calls) == 3

    def test_pinned_topology_runs_like_its_seed(self, tmp_path, monkeypatch, capsys):
        # scripts/pin_topology.py --seed S pins the graph that run.seed = S
        # builds, so a run on the pinned file writes the same CSV bytes
        edges = tmp_path / "graph.edges"
        script = Path(__file__).resolve().parents[1] / "scripts" / "pin_topology.py"
        monkeypatch.setattr("sys.argv", [str(script), "--V", "20", "--radius", "0.35",
                                         "--seed", "3", "--out", str(edges)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(script), run_name="__main__")
        assert exc.value.code == 0
        common = ("env.M = 10\npolicy.kind = as_censoring\npolicy.beta = 0.68\n"
                  "policy.mu_s = 0.1571\nrun.iterations = 300\nrun.realizations = 2\n"
                  "run.seed = 3\n")
        csvs = []
        for name, topology in [
                ("random", "topology.kind = random_geometric\ntopology.V = 20\n"
                           "topology.radius = 0.35\n"),
                ("pinned", f"topology.kind = edge_list\ntopology.edge_list = {edges}\n")]:
            path = tmp_path / f"{name}.cfg"
            path.write_text(topology + common)
            assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            csvs.append((tmp_path / name / "as_censoring.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_run_checks_profiles_against_the_loaded_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "ring.edges"
        edges.write_text("5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        path = tmp_path / "run.cfg"
        path.write_text(GOOD_CONFIG.replace("topology.kind = random_geometric",
                                            f"topology.kind = edge_list\ntopology.edge_list = {edges}")
                        + "env.sigma2_v = 0.1,0.2,0.3,0.4,0.2,0.1\n")
        parse_config_file(path)  # the node count is not known before the file is read
        assert main(["validate", "--config", str(path)]) == 1
        assert "length V=5" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert "length V=5" in capsys.readouterr().err
        assert not out.exists()


def test_perfbench_traced_names_resolve():
    """Every (module, attribute) pair perfbench's tracer wraps exists in asdnlms."""
    run_py = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    tables = {node.targets[0].id: node.value for node in ast.parse(run_py.read_text()).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("OUTER", "INNER")}
    assert set(tables) == {"OUTER", "INNER"}
    pairs = [(row.elts[0].value, row.elts[1].value)
             for table in tables.values() for row in table.elts]
    assert pairs
    for module, attr in pairs:
        assert module in ("cli", "harness")
        assert hasattr(importlib.import_module(f"asdnlms.{module}"), attr), (module, attr)


def test_perfbench_preset_labels_match_presets(monkeypatch):
    """perfbench's output checks find each preset variant by the label it lists."""
    import importlib.util
    import sys

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert workloads.PRESET_LABELS == {name: tuple(label for label, _ in variants)
                                       for name, (_, variants) in PRESETS.items()}


def test_harness_keeps_the_names_perfbench_traces():
    """A traced benchmark round calls getattr on each of these in asdnlms.harness."""
    import asdnlms.harness as harness

    for name in ("build_random_geometric", "load_edge_list", "uniform_weights",
                 "draw_signal_blocks", "draw_sampled_set", "draw_active_links",
                 "run_realization", "build_manifest"):
        assert callable(getattr(harness, name)), name
