"""Tests for the experiment runner, sweeps, and the command line interface.

CLI commands are invoked in-process through ``cli.main`` so exit codes,
stdout, and the single-line error contract are all observable. Experiment
runs here use a deliberately tiny task; the full-size defaults are covered
by the acceptance suite.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from meshadapt import cli, data, experiments, trainer
from meshadapt.experiments import (
    ExperimentResult,
    ExperimentSpec,
    SeedOutcome,
    SyntheticTask,
    apply_method,
    canonical_method,
    run_experiment,
    run_sweep,
)

TINY_TASK = SyntheticTask(
    num_classes=2, lift_dim=3, n_source=40, m_target=60,
    rotation_deg=40.0, translation=0.0, noise_std=0.3, shots=2,
)


def tiny_cfg(**overrides):
    base = dict(hidden_dims=(6,), bottleneck_dim=3, epochs=2, pretrain_epochs=3,
                batch_size=16, mc_passes=2, k_hat=4)
    base.update(overrides)
    return trainer.AdaptConfig(**base)


def tiny_spec(method="MESH", **overrides):
    base = dict(method=method, config=tiny_cfg(), seeds=(2021,), task=TINY_TASK)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestMethodPresets:
    def test_canonical_names(self):
        assert canonical_method("mesh") == "MESH"
        assert canonical_method(" s+t ") == "S+T"
        assert canonical_method("MESH-NA") == "MESH-nA"
        assert canonical_method("ent") == "ENT"
        with pytest.raises(ValueError, match="unknown method"):
            canonical_method("MESH+")

    def test_switch_sets(self):
        cfg = trainer.AdaptConfig()
        st = apply_method(cfg, "S+T")
        assert st.no_augmentation and st.no_ent and st.no_ps and st.no_vat and st.no_div
        ent = apply_method(cfg, "ENT")
        assert not ent.no_ent
        assert ent.no_augmentation and ent.no_ps and ent.no_vat and ent.no_div
        na = apply_method(cfg, "MESH-nA")
        assert na.no_augmentation
        assert not (na.no_ent or na.no_ps or na.no_vat or na.no_div)
        mesh = apply_method(cfg, "MESH")
        assert mesh == cfg

    def test_presets_never_reenable_terms(self):
        crippled = trainer.AdaptConfig(no_augmentation=True, no_ent=True, no_ps=True,
                                       no_vat=True, no_div=True)
        assert apply_method(crippled, "MESH") == crippled
        assert apply_method(crippled, "ENT") == apply_method(crippled, "S+T")


class TestSpecValidation:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.method == "MESH"
        assert spec.seeds == (2021, 2022, 2023)
        assert spec.task == SyntheticTask()
        assert spec.config == trainer.AdaptConfig()

    def test_method_spelling_normalised(self):
        assert ExperimentSpec(method="mesh-na").method == "MESH-nA"

    def test_file_mode_needs_both_paths(self):
        with pytest.raises(ValueError, match="both"):
            ExperimentSpec(source_path="only_source.tsv")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            ExperimentSpec(seeds=())


class TestExperimentResult:
    def test_aggregates(self):
        spec = tiny_spec()
        result = ExperimentResult(
            spec=spec,
            outcomes=[
                SeedOutcome(1, 0.5, trainer.TrainReport()),
                SeedOutcome(2, 0.7, trainer.TrainReport()),
            ],
        )
        assert result.accuracies == [0.5, 0.7]
        assert result.mean_accuracy == pytest.approx(0.6, abs=1e-15)
        assert result.std_accuracy == pytest.approx(0.1, abs=1e-12)


class TestRunExperiment:
    def test_outcomes_and_determinism(self):
        spec = tiny_spec(seeds=(2021, 2022))
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert [o.seed for o in a.outcomes] == [2021, 2022]
        assert all(0.0 <= acc <= 1.0 for acc in a.accuracies)
        assert a.accuracies == b.accuracies  # bitwise reproducible

    def test_pretrained_cache_reused(self):
        cache = {}
        run_experiment(tiny_spec(), pretrained_cache=cache)
        assert set(cache) == {2021}
        marker = cache[2021].encoder[0].weight.copy()
        # a second run must reuse the cached checkpoint, not rebuild it
        run_experiment(tiny_spec(method="S+T"), pretrained_cache=cache)
        assert np.array_equal(cache[2021].encoder[0].weight, marker)

    def test_report_file_contents(self, tmp_path):
        out = tmp_path / "mesh.txt"
        spec = tiny_spec(out_path=out)
        result = run_experiment(spec)
        lines = out.read_text().splitlines()
        assert lines[0] == "experiment-report v1"
        assert lines[1].startswith("task synthetic num_classes=2")
        assert lines[2].startswith("config lambda0=")
        assert "seed=" not in lines[2]
        assert lines[3] == "seeds 2021"
        assert lines[4] == "seed\taccuracy"
        seed, acc = lines[5].split("\t")
        assert seed == "2021"
        assert float(acc) == result.outcomes[0].accuracy
        assert lines[6].startswith("aggregate\tmean=")

    def test_report_file_byte_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run_experiment(tiny_spec(out_path=p1))
        run_experiment(tiny_spec(out_path=p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_mode_round_trip(self, tmp_path):
        source, pool = data.gen_synthetic_shift(
            num_classes=2, n_source=40, m_target=60, rotation_deg=40.0,
            translation=0.0, noise_std=0.3, seed=2021, lift_dim=3,
        )
        target = data.split_nshot(pool, shots=2, seed=2021)
        sp, tp = tmp_path / "s.tsv", tmp_path / "t.tsv"
        data.save_dataset(source, sp)
        data.save_dataset(target, tp)
        spec = ExperimentSpec(method="MESH", config=tiny_cfg(), seeds=(2021,),
                              source_path=sp, target_path=tp)
        from_files = run_experiment(spec)
        synthetic = run_experiment(tiny_spec())
        assert from_files.accuracies == synthetic.accuracies


class TestRunSweep:
    def test_lambda0_sweep_outputs(self, tmp_path):
        rows = run_sweep(tiny_spec(), "lambda0", [0.25, 0.75], tmp_path)
        assert [v for v, _ in rows] == [0.25, 0.75]
        assert (tmp_path / "lambda0_0.25.txt").exists()
        assert (tmp_path / "lambda0_0.75.txt").exists()
        summary = (tmp_path / "sweep_lambda0.txt").read_text().splitlines()
        assert summary[0] == "sweep-report v1"
        assert summary[1] == "param lambda0"
        assert summary[2] == "lambda0\tmean\tstd"
        assert len(summary) == 5
        value, mean, _ = summary[3].split("\t")
        assert float(value) == 0.25
        assert float(mean) == rows[0][1].mean_accuracy

    def test_k_hat_and_shots_points(self, tmp_path):
        rows = run_sweep(tiny_spec(), "k_hat", [3], tmp_path / "k")
        assert (tmp_path / "k" / "k_hat_3.txt").exists()
        assert rows[0][1].spec.config.k_hat == 3
        rows = run_sweep(tiny_spec(), "shots", [4], tmp_path / "s")
        assert (tmp_path / "s" / "shots_4.txt").exists()
        assert rows[0][1].spec.task.shots == 4

    def test_parameter_errors(self, tmp_path):
        with pytest.raises(ValueError, match="param"):
            run_sweep(tiny_spec(), "alpha", [0.5], tmp_path)
        with pytest.raises(ValueError, match="nonempty"):
            run_sweep(tiny_spec(), "lambda0", [], tmp_path)
        with pytest.raises(ValueError, match="invalid literal"):
            run_sweep(tiny_spec(), "k_hat", ["3", "x"], tmp_path / "bad")
        assert not (tmp_path / "bad").exists()  # rejected before the first point ran
        file_spec = replace(tiny_spec(), task=None,
                            source_path="s.tsv", target_path="t.tsv")
        with pytest.raises(ValueError, match="synthetic task"):
            run_sweep(file_spec, "shots", [2], tmp_path)


class TestConfigFileParsing:
    def test_read_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nepochs = 4\nhidden_dims=8,4\nno_vat = true\n")
        parsed = cli.read_config_file(path)
        assert parsed == {"epochs": 4, "hidden_dims": (8, 4), "no_vat": True}

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs=4\njust some words\n")
        with pytest.raises(ValueError, match="line 2"):
            cli.read_config_file(path)

    def test_value_parsers(self):
        assert cli._parse_bool("Yes") is True
        assert cli._parse_bool("0") is False
        with pytest.raises(ValueError, match="boolean"):
            cli._parse_bool("maybe")
        assert cli._parse_int_list("32, 16 8") == (32, 16, 8)
        assert cli._parse_int_list("1,2 3") == (1, 2, 3)
        assert cli._optional(int)("none") is None
        assert cli._optional(int)("5") == 5
        assert cli._optional(float)("") is None
        assert cli._optional(float)("0.5") == 0.5

    @pytest.mark.parametrize(
        "line,key",
        [("lamda0 = 0.0", "lamda0"), ("epochs = many", "epochs"),
         ("hidden_dims = 8;4", "hidden_dims"), ("no_vat = maybe", "no_vat"),
         ("method = FANCY", "method"), ("seeds = 1,x", "seeds")],
    )
    def test_malformed_file_names_file_line_and_key(self, tmp_path, capsys, line, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# run\nepochs = 2\n{line}\n")
        with pytest.raises(ValueError) as caught:
            cli.read_config_file(path)
        message = str(caught.value)
        assert str(path) in message and "line 3" in message and repr(key) in message
        rc = cli.main(["experiment", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "line 3" in err and repr(key) in err

    @pytest.mark.parametrize(
        "line,key,reason",
        [("lambda0 = -1", "lambda0", "lambda0 must be nonnegative"),
         ("k_hat = 0", "k_hat", "k_hat must be >= 1")],
    )
    def test_invalid_value_names_file_line_and_key(self, tmp_path, capsys, line, key, reason):
        # these parse as numbers; AdaptConfig's validation rejects them
        path = tmp_path / "bad.cfg"
        path.write_text(f"# run\nepochs = 2\n{line}\n")
        rc = cli.main(["experiment", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and "line 3" in err and repr(key) in err and reason in err

    def test_file_and_flags_resolve_alike(self, tmp_path):
        # every field at a non-default value, covering each parser type
        text = {
            "lambda0": "0.25", "alpha": "0.8", "k_hat": "7", "eps_smooth": "0.2",
            "eps_vat": "2.5", "vat_xi": "0.001", "vat_power_iters": "2",
            "lr_encoder": "0.002", "lr_bottleneck": "0.02", "lr_classifier": "0.03",
            "momentum": "0.5", "batch_size": "8", "epochs": "3", "pretrain_epochs": "4",
            "steps_per_epoch": "5", "mc_passes": "3", "dropout_rate": "0.25",
            "hidden_dims": "16,8", "bottleneck_dim": "4", "seed": "7",
            "no_augmentation": "true", "no_ent": "yes", "no_ps": "1", "no_vat": "on",
            "no_div": "True", "num_classes": "3", "lift_dim": "5", "n_source": "90",
            "m_target": "70", "rotation_deg": "30", "translation": "0.5",
            "noise_std": "0.2", "shots": "4",
        }
        config_fields = {f.name for f in fields(trainer.AdaptConfig)}
        task_fields = {f.name for f in fields(SyntheticTask)}
        assert set(text) == config_fields | task_fields
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
        flags = []
        for key, value in text.items():
            flags.append(f"--{key.replace('_', '-')}")
            if not key.startswith("no_"):
                flags.append(value)
        parser = cli.build_parser()
        from_file = cli._resolve(parser.parse_args(["experiment", "--config", str(path)]))
        from_flags = cli._resolve(parser.parse_args(["experiment", *flags]))
        assert from_file == from_flags
        cfg, task, selectors = from_file
        assert selectors == {}
        assert cfg.hidden_dims == (16, 8) and cfg.vat_xi == 0.001 and cfg.no_div is True
        for name in config_fields:
            assert getattr(cfg, name) != getattr(trainer.AdaptConfig(), name), name
        for name in task_fields:
            assert getattr(task, name) != getattr(SyntheticTask(), name), name


TINY_FLAGS = [
    "--num-classes", "2", "--lift-dim", "3", "--n-source", "40",
    "--m-target", "60", "--rotation-deg", "40", "--noise-std", "0.3",
    "--shots", "2",
]
TINY_CFG_FLAGS = [
    "--hidden-dims", "6", "--bottleneck-dim", "3", "--epochs", "2",
    "--pretrain-epochs", "3", "--batch-size", "16", "--mc-passes", "2",
    "--k-hat", "4",
]


class TestCli:
    def test_full_pipeline(self, tmp_path, capsys):
        datadir = tmp_path / "data"
        rc = cli.main(["gen-data", *TINY_FLAGS, "--seed", "2021", "--out", str(datadir)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        source = data.load_dataset(datadir / "source.tsv")
        target = data.load_dataset(datadir / "target.tsv")
        assert source.domain == "source" and target.domain == "target"
        assert (target.split == "labeled").sum() == 4  # 2 shots x 2 classes

        ckpt = tmp_path / "pretrained.txt"
        rc = cli.main(["pretrain", *TINY_CFG_FLAGS,
                       "--source", str(datadir / "source.tsv"), "--out", str(ckpt)])
        assert rc == 0
        assert ckpt.exists()
        out = capsys.readouterr().out
        assert "val accuracy" in out

        adapted = tmp_path / "adapted.txt"
        report = tmp_path / "train_report.txt"
        rc = cli.main(["adapt", *TINY_CFG_FLAGS,
                       "--model", str(ckpt), "--target", str(datadir / "target.tsv"),
                       "--out", str(adapted), "--report", str(report)])
        assert rc == 0
        assert adapted.exists()
        assert report.read_text().startswith("train-report v1")
        capsys.readouterr()

        rc = cli.main(["eval", "--model", str(adapted),
                       "--data", str(datadir / "target.tsv"), "--split", "test"])
        assert rc == 0
        acc = float(capsys.readouterr().out.strip())
        assert 0.0 <= acc <= 1.0

    def test_diverging_pretrain_prints_one_error_line(self, tmp_path, capsys):
        datadir = tmp_path / "data"
        cli.main(["gen-data", *TINY_FLAGS, "--out", str(datadir)])
        capsys.readouterr()
        rc = cli.main(["pretrain", *TINY_CFG_FLAGS, "--pretrain-epochs", "2",
                       "--lr-encoder", "1e200", "--lr-bottleneck", "1e200",
                       "--lr-classifier", "1e200",
                       "--source", str(datadir / "source.tsv"),
                       "--out", str(tmp_path / "pretrained.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: pretrain epoch 1, step ")
        assert "loss term l_src is not finite" in err

    def test_adapt_method_preset(self, tmp_path, capsys):
        datadir = tmp_path / "data"
        cli.main(["gen-data", *TINY_FLAGS, "--seed", "2021", "--out", str(datadir)])
        ckpt = tmp_path / "pre.txt"
        cli.main(["pretrain", *TINY_CFG_FLAGS,
                  "--source", str(datadir / "source.tsv"), "--out", str(ckpt)])
        report = tmp_path / "st_report.txt"
        rc = cli.main(["adapt", *TINY_CFG_FLAGS, "--method", "S+T",
                       "--model", str(ckpt), "--target", str(datadir / "target.tsv"),
                       "--out", str(tmp_path / "st.txt"), "--report", str(report)])
        assert rc == 0
        capsys.readouterr()
        # S+T runs with every extra loss off, so those columns are zero
        row = report.read_text().splitlines()[4].split("\t")
        l_ent, l_ps, l_vadv, l_div = (float(v) for v in row[2:6])
        assert l_ent == 0.0 and l_ps == 0.0 and l_vadv == 0.0 and l_div == 0.0

    def test_experiment_command(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        rc = cli.main(["experiment", *TINY_FLAGS, *TINY_CFG_FLAGS,
                       "--method", "MESH", "--seeds", "2021", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "seed 2021: accuracy" in stdout
        assert "mean " in stdout
        assert out.read_text().startswith("experiment-report v1")

    def test_sweep_command(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", *TINY_FLAGS, *TINY_CFG_FLAGS,
                       "--method", "MESH", "--seeds", "2021",
                       "--param", "k-hat", "--values", "3,4", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "k_hat=3" in stdout and "k_hat=4" in stdout
        assert (out / "sweep_k_hat.txt").exists()
        assert (out / "k_hat_3.txt").exists()

    def test_config_file_flags_win(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "epochs=5\nhidden_dims=6\nbottleneck_dim=3\npretrain_epochs=3\n"
            "batch_size=16\nmc_passes=2\nk_hat=4\nmethod=S+T\nseeds=2021\n"
            "num_classes=2\nlift_dim=3\nn_source=40\nm_target=60\n"
            "rotation_deg=40\nnoise_std=0.3\nshots=2\n"
        )
        out = tmp_path / "report.txt"
        rc = cli.main(["experiment", "--config", str(cfg_file),
                       "--epochs", "2", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        config_line = out.read_text().splitlines()[2]
        assert "epochs=2" in config_line  # flag beat the file's epochs=5
        assert "no_ent=True" in config_line  # method came from the file

    def test_adapt_method_from_config_file(self, tmp_path, capsys):
        datadir = tmp_path / "data"
        cli.main(["gen-data", *TINY_FLAGS, "--out", str(datadir)])
        ckpt = tmp_path / "pre.txt"
        cli.main(["pretrain", *TINY_CFG_FLAGS,
                  "--source", str(datadir / "source.tsv"), "--out", str(ckpt)])
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("method = S+T\n")

        def loss_columns(*extra):
            report = tmp_path / "report.txt"
            rc = cli.main(["adapt", *TINY_CFG_FLAGS, "--config", str(cfg_file), *extra,
                           "--model", str(ckpt), "--target", str(datadir / "target.tsv"),
                           "--out", str(tmp_path / "adapted.txt"), "--report", str(report)])
            assert rc == 0
            row = report.read_text().splitlines()[4].split("\t")
            return [float(v) for v in row[2:6]]  # l_ent, l_ps, l_vadv, l_div

        assert loss_columns() == [0.0, 0.0, 0.0, 0.0]  # S+T from the file
        l_ent, l_ps, l_vadv, l_div = loss_columns("--method", "ENT")  # the flag wins
        assert l_ent > 0.0 and l_ps == l_vadv == l_div == 0.0
        capsys.readouterr()

    def test_gen_data_seed_from_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 7\n")

        def generate(name, *extra):
            out = tmp_path / name
            assert cli.main(["gen-data", *TINY_FLAGS, *extra, "--out", str(out)]) == 0
            return (out / "source.tsv").read_bytes() + (out / "target.tsv").read_bytes()

        default = generate("default")
        assert generate("flag2021", "--seed", "2021") == default
        seven = generate("flag7", "--seed", "7")
        assert seven != default
        assert generate("file7", "--config", str(cfg_file)) == seven
        assert generate("flag_wins", "--config", str(cfg_file), "--seed", "2021") == default
        capsys.readouterr()

    def test_each_command_reads_config_file_once(self, tmp_path, capsys, monkeypatch):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "hidden_dims=6\nbottleneck_dim=3\nepochs=2\npretrain_epochs=3\n"
            "batch_size=16\nmc_passes=2\nk_hat=4\nmethod=MESH\nseeds=2021\n"
            "num_classes=2\nlift_dim=3\nn_source=40\nm_target=60\n"
            "rotation_deg=40\nnoise_std=0.3\nshots=2\nseed=2021\n"
        )
        reads = []
        real_read = cli.read_config_file
        monkeypatch.setattr(cli, "read_config_file",
                            lambda path: reads.append(path) or real_read(path))
        datadir, ckpt = tmp_path / "data", tmp_path / "pre.txt"
        commands = {
            "gen-data": ["--out", str(datadir)],
            "pretrain": ["--source", str(datadir / "source.tsv"), "--out", str(ckpt)],
            "adapt": ["--model", str(ckpt), "--target", str(datadir / "target.tsv"),
                      "--out", str(tmp_path / "adapted.txt")],
            "experiment": ["--out", str(tmp_path / "report.txt")],
            "sweep": ["--param", "lambda0", "--values", "0.5", "--out", str(tmp_path / "sw")],
        }
        for command, extra in commands.items():
            reads.clear()
            assert cli.main([command, "--config", str(cfg_file), *extra]) == 0, command
            assert reads == [cfg_file], command
        capsys.readouterr()

    def test_error_contract(self, tmp_path, capsys):
        rc = cli.main(["eval", "--model", str(tmp_path / "missing.txt"),
                       "--data", str(tmp_path / "missing.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_gen_data_unsplit_pool(self, tmp_path, capsys):
        datadir = tmp_path / "pool"
        rc = cli.main(["gen-data", *TINY_FLAGS[:-2], "--shots", "0",
                       "--seed", "3", "--out", str(datadir)])
        assert rc == 0
        capsys.readouterr()
        target = data.load_dataset(datadir / "target.tsv")
        assert np.all(target.split == "unlabeled")

    def test_unknown_method_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["experiment", "--method", "FANCY"])
        capsys.readouterr()
