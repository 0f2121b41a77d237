import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from promptseg import cli, runner, sweep, training
from promptseg.backbone import BackboneConfig
from promptseg.prompts import KINDS, CouplerConfig
from promptseg.tensor import ConfigError
from promptseg.training import TrainRunConfig

from helpers import load_arrays

SMALL = [
    "--set", "backbone.image_size=16",
    "--set", "data.image_size=16",
    "--set", "data.align=4",
    "--set", "data.train=8",
    "--set", "data.val=4",
    "--set", "data.test=4",
    "--set", "train.steps=3",
    "--set", "train.eval_every=2",
]


class TestConfig:
    def test_defaults_valid(self):
        cfg = runner.load_config()
        assert cfg["strategy"] == "vpt"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            runner.load_config(overrides=[("train.warmup", "5")])

    def test_type_checked_override(self):
        with pytest.raises(ConfigError):
            runner.load_config(overrides=[("train.steps", "fast")])

    def test_override_applies(self):
        cfg = runner.load_config(overrides=[("train.steps", "17"),
                                            ("strategy", "maple")])
        assert cfg["train"]["steps"] == 17
        assert cfg["strategy"] == "maple"

    def test_bad_strategy(self):
        with pytest.raises(ConfigError):
            runner.load_config(overrides=[("strategy", "adapters")])

    def test_image_size_consistency(self):
        with pytest.raises(ConfigError):
            runner.load_config(overrides=[("backbone.image_size", "64")])

    def test_config_file_merge(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"strategy": "coop",
                                    "train": {"steps": 9}}))
        cfg = runner.load_config(path)
        assert cfg["strategy"] == "coop"
        assert cfg["train"]["steps"] == 9
        assert cfg["train"]["micro_batch"] == 4  # untouched default

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"optimizer": "sgd"}))
        with pytest.raises(ConfigError):
            runner.load_config(path)

    def test_a_section_is_set_key_by_key(self, tmp_path):
        with pytest.raises(ConfigError, match="'train'"):
            runner.load_config(overrides=[("train", '{"steps": 1}')])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": 5}))
        with pytest.raises(ConfigError, match="'train'"):
            runner.load_config(path)

    def test_default_config_builds_the_dataclass_defaults(self):
        cfg = runner.default_config()
        backbone = runner.build_backbone(cfg)
        assert backbone.cfg == BackboneConfig()
        assert runner.build_state(cfg, backbone).coupler == CouplerConfig()
        assert runner.build_run_cfg(cfg) == TrainRunConfig()

    def test_domain_exceptions_accept_zero(self):
        zero = ["seed", "data.seed", "train.weight_decay", "train.smooth",
                "coupler.attn_dropout"]
        # each loss weight may be 0, but not both: the loss would be identically 0
        for weight in ("train.lambda_dice", "train.lambda_ce"):
            cfg = runner.load_config(overrides=[(key, "0") for key in (*zero, weight)])
            assert runner.build_run_cfg(cfg).loss.smooth == 0.0
            assert cfg["coupler"]["attn_dropout"] == 0.0
            section, _, leaf = weight.partition(".")
            assert cfg[section][leaf] == 0.0

    def test_cross_key_rules_apply_only_to_the_strategy_that_uses_them(self):
        heads = [("coupler.unified_dim", "12"), ("coupler.attn_heads", "8")]
        assert runner.load_config(overrides=heads)["coupler"]["unified_dim"] == 12
        with pytest.raises(ConfigError, match="attn_heads 8 does not divide unified_dim 12"):
            runner.load_config(overrides=[*heads, ("strategy", "shared-attention")])
        assert runner.load_config(overrides=[("strategy", "coop"),
                                             ("prompt_depth", "9")])["prompt_depth"] == 9
        with pytest.raises(ConfigError, match="prompt depth 9"):
            runner.load_config(overrides=[("prompt_depth", "9")])


class TestSweepTrials:
    def test_every_dimension_sets_a_config_key(self):
        space = sweep.default_search_space()
        assert set(runner.SWEEP_KEYS) == {d.name for d in space.dims}
        rng = np.random.default_rng(0)
        for strategy in KINDS:
            for _ in range(5):
                trial = sweep.sample_trial(space, strategy, [], rng)
                cfg = runner.default_config()
                for name, value in trial.items():
                    runner.set_key(cfg, runner.SWEEP_KEYS[name], value)
                    section, _, leaf = runner.SWEEP_KEYS[name].rpartition(".")
                    assert (cfg[section] if section else cfg)[leaf] == value

    def test_trial_reaches_run_as_config(self, monkeypatch):
        seen = []

        def fake_run(cfg, out_dir=None, dataset=None, seed=None):
            seen.append((cfg, seed))
            return SimpleNamespace(final_val_dice=0.5), 0.25, None, None

        monkeypatch.setattr(runner, "run_training", fake_run)
        cfg = runner.load_config(overrides=[("sweep.steps", "7")])
        objective = runner.make_objective(cfg, dataset={})
        attention = {"learning_rate": 2e-4, "weight_decay": 3e-3, "prompt_depth": 3,
                     "attn_heads": 8, "attn_dropout": 0.3, "attn_ff_dim": 128,
                     "layernorm_first": False}
        assert objective(attention, 11) == (0.5, 0.25)
        assert objective({"learning_rate": 1e-4, "weight_decay": 1e-5,
                          "prompt_depth": 1, "shared_dim": 64}, 12) == (0.5, 0.25)
        (first, seed1), (second, seed2) = seen
        assert (seed1, seed2) == (11, 12)
        assert first["train"]["steps"] == second["train"]["steps"] == 7
        assert first["train"]["learning_rate"] == 2e-4
        assert first["train"]["weight_decay"] == 3e-3
        assert first["prompt_depth"] == 3
        assert first["coupler"] == dict(cfg["coupler"], attn_heads=8, attn_dropout=0.3,
                                        attn_ff_dim=128, layernorm_first=False)
        assert second["train"]["learning_rate"] == 1e-4
        assert second["prompt_depth"] == 1
        assert second["coupler"] == dict(cfg["coupler"], unified_dim=64)
        # trials never leak into the caller's config or into each other
        assert cfg == runner.load_config(overrides=[("sweep.steps", "7")])


# a value outside its domain, and the key its error must name
OUT_OF_DOMAIN = [
    (["--set", "train.micro_batch=0"], "train.micro_batch"),
    (["--set", "train.eval_every=0"], "train.eval_every"),
    (["--set", "data.train=0"], "data.train"),
    (["--set", "data.align=0"], "data.align"),
    (["--set", "backbone.patch_size=0"], "backbone.patch_size"),
    (["--set", "strategy=cocoop", "--set", "coupler.intermediate_dim=0"],
     "coupler.intermediate_dim"),
    (["--set", "seed=-1"], "seed"),
    (["--set", "data.seed=-1"], "data.seed"),
    (["--set", "strategy=shared-attention", "--set", "coupler.attn_dropout=1.0"],
     "coupler.attn_dropout"),
    (["--set", "train.weight_decay=Infinity"], "train.weight_decay"),
    (["--set", "train.grad_accum=0"], "train.grad_accum"),
    (["--set", "train.steps=-3"], "train.steps"),
    (["--set", "train.learning_rate=-1"], "train.learning_rate"),
    (["--set", "train.lambda_dice=-1"], "train.lambda_dice"),
    (["--set", "sweep.n_trials=0"], "sweep.n_trials"),
    (["--set", "data.align=40"], "align"),
    (["--config", "{}/nan.json"], "train.learning_rate"),
    (["--seed", "-1"], "seed"),
]


def _toy_study(path, strategy="coop", n_trials=2):
    """A study file written by ``run_study`` on the quadratic objective: no training."""
    def objective(cfg, seed):
        v = sweep.quadratic_objective(cfg)
        return v, v

    sweep.run_study(strategy, sweep.default_search_space(), n_trials, objective, seed=4,
                    out_path=path)
    return [json.loads(ln) for ln in path.read_text().splitlines()]


def _no_low(header, records):
    del header["space"][0]["low"]


def _no_depth(header, records):
    del records[0]["config"]["prompt_depth"]


# each edit of a study's header and records, and what the error names
STUDY_EDITS = {
    "space-entry-without-low": (_no_low, "line 1 holds a malformed search space"),
    "rng-state-of-no-generator": (lambda h, r: h.update(rng_state={"x": 1}),
                                  "line 1 holds a malformed search space or sampler state"),
    "record-with-an-extra-key": (lambda h, r: r[0].update(extra=1),
                                 "line 2 holds an unknown or mistyped 'extra'"),
    "string-val-dice": (lambda h, r: r[1].update(val_dice="0.5"),
                        "line 3 holds an unknown or mistyped 'val_dice'"),
    "string-header-seed": (lambda h, r: h.update(seed="4"),
                           "line 1 holds an unknown or mistyped 'seed'"),
    "unknown-status": (lambda h, r: r[1].update(status="done"), "line 3 has status 'done'"),
    "config-without-prompt-depth": (_no_depth, "trial 0 has prompt_depth None"),
    # a dice of 1e200 would overflow linear_fit's squares
    "test-dice-of-1e200": (lambda h, r: r[0].update(test_dice=1e200),
                           "trial 0 has test_dice 1e+200"),
    "negative-test-dice": (lambda h, r: r[1].update(test_dice=-0.5),
                           "trial 1 has test_dice -0.5"),
    # a depth of 1e200 would overflow linear_fit's squares
    "depth-of-1e200": (lambda h, r: r[0]["config"].update(prompt_depth=1e200),
                       "trial 0 has prompt_depth 1e+200, not an integer in [1, 3]"),
    "depth-beyond-depth-max": (lambda h, r: r[1]["config"].update(prompt_depth=7),
                               "trial 1 has prompt_depth 7, not an integer in [1, 3]"),
    "fractional-depth": (lambda h, r: r[0]["config"].update(prompt_depth=1.5),
                         "trial 0 has prompt_depth 1.5"),
}


class TestExitCodes:
    @pytest.mark.parametrize("args, key", OUT_OF_DOMAIN,
                             ids=[" ".join(args) for args, _ in OUT_OF_DOMAIN])
    def test_value_outside_its_domain_exits_1_before_training(self, args, key, tmp_path,
                                                              capsys, monkeypatch):
        def no_training(*a, **kw):
            raise AssertionError("training started")

        monkeypatch.setattr(runner, "train", no_training)
        (tmp_path / "nan.json").write_text('{"train": {"learning_rate": NaN}}')
        args = [a.format(tmp_path) for a in args]
        rc = cli.main(["train", *SMALL, "--set", "train.steps=2", *args,
                       "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert f"'{key}'" in err or f"{key} " in err

    @pytest.mark.parametrize("args", [
        ["--set", "sweep.depth_max=5"],
        ["--set", "strategy=shared-attention", "--set", "coupler.unified_dim=12"],
    ], ids=["depth_max", "unified_dim"])
    def test_search_space_that_does_not_fit_exits_1_before_trial_0(self, args, tmp_path,
                                                                    capsys):
        out = tmp_path / "o"
        rc = cli.main(["sweep", *SMALL, "--set", "sweep.n_trials=3",
                       "--set", "sweep.steps=1", *args, "--out", str(out)])
        assert rc == 1
        assert "search space" in capsys.readouterr().err
        assert not (out / "study.jsonl").exists()

    def test_search_space_check_leaves_a_resumed_study_untouched(self, tmp_path):
        sweep = ["sweep", *SMALL, "--set", "strategy=shared-attention",
                 "--set", "sweep.steps=1", "--out", str(tmp_path / "o")]
        assert cli.main([*sweep, "--set", "sweep.n_trials=1"]) == 0
        before = (tmp_path / "o" / "study.jsonl").read_bytes()
        assert cli.main([*sweep, "--set", "sweep.n_trials=4",
                         "--set", "coupler.unified_dim=12"]) == 1
        assert (tmp_path / "o" / "study.jsonl").read_bytes() == before

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"train": {"steps": 2,}}', "[1]"],
                             ids=["not-json", "not-an-object"])
    def test_config_file_that_is_not_a_json_object_exits_1(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert str(path) in err

    def test_loss_with_both_weights_at_zero_exits_1_before_training(self, tmp_path, capsys,
                                                                     monkeypatch):
        def no_training(*a, **kw):
            raise AssertionError("training started")

        monkeypatch.setattr(runner, "train", no_training)
        rc = cli.main(["train", *SMALL, "--set", "train.lambda_dice=0",
                       "--set", "train.lambda_ce=0", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert "'train.lambda_dice'" in err and "'train.lambda_ce'" in err

    def test_bad_set_pair(self, tmp_path, capsys):
        rc = cli.main(["train", "--set", "oops", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_freeze_violation_exit_code(self, tmp_path, monkeypatch):
        original = training.train

        def sabotaged(model, state, dataset, run_cfg, out_dir=None, on_step=None):
            def corrupt(step, m, s):
                m.params["text.proj"].data = m.params["text.proj"].data + 1e-9
            return original(model, state, dataset, run_cfg, out_dir=out_dir,
                           on_step=corrupt)

        monkeypatch.setattr(runner, "train", sabotaged)
        rc = cli.main(["train", *SMALL, "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_sweep_freeze_violation_exit_code(self, tmp_path, monkeypatch):
        original = training.train

        def sabotaged(model, state, dataset, run_cfg, out_dir=None, on_step=None):
            def corrupt(step, m, s):
                m.params["text.proj"].data = m.params["text.proj"].data + 1e-9
            return original(model, state, dataset, run_cfg, out_dir=out_dir,
                            on_step=corrupt)

        monkeypatch.setattr(runner, "train", sabotaged)
        rc = cli.main(["sweep", *SMALL, "--set", "sweep.n_trials=2",
                       "--set", "sweep.steps=2", "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_phrase_longer_than_encoder_rejected_before_training(self, tmp_path,
                                                                 capsys, monkeypatch):
        def no_training(*a, **kw):
            raise AssertionError("training started")

        monkeypatch.setattr(runner, "train", no_training)
        eight = ["--set", "data.n_classes=8"]
        rc = cli.main(["train", *SMALL, *eight, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "orange triangle" in capsys.readouterr().err
        fixture = tmp_path / "fixture"
        assert cli.main(["gen-data", *SMALL, *eight, "--out", str(fixture)]) == 0
        rc = cli.main(["train", *SMALL, "--set", f'data.path="{fixture / "dataset"}"',
                       "--out", str(tmp_path / "o2")])
        assert rc == 1
        assert "orange triangle" in capsys.readouterr().err

    def test_sweep_resume_mismatch_exit_code(self, tmp_path):
        out = tmp_path / "o"
        sweep = ["sweep", *SMALL, "--set", "sweep.n_trials=1", "--set", "sweep.steps=1",
                 "--out", str(out)]
        assert cli.main(sweep) == 0
        before = (out / "study.jsonl").read_bytes()
        assert cli.main([*sweep, "--seed", "5"]) == 1
        assert cli.main([*sweep, "--set", "sweep.depth_max=2"]) == 1
        assert (out / "study.jsonl").read_bytes() == before

    def test_non_finite_loss_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(training, "combined_loss",
                            lambda logits, mask, cfg: logits[0, 0, 0] * float("nan"))
        rc = cli.main(["train", *SMALL, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "non-finite loss nan at step 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "prompts.ckpt").exists()
        # in a sweep the trial fails and its record names the step
        rc = cli.main(["sweep", *SMALL, "--set", "sweep.n_trials=1",
                       "--set", "sweep.steps=2", "--out", str(tmp_path / "s")])
        assert rc == 2
        lines = (tmp_path / "s" / "study.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        assert record["status"] == "failed"
        assert "at step 1" in record["config"]["_error"]

    def test_malformed_fixture_exit_code(self, tmp_path, capsys):
        fixture = tmp_path / "fixture"
        assert cli.main(["gen-data", *SMALL, "--out", str(fixture)]) == 0
        root = fixture / "dataset"
        image, mask = root / "images" / "train_0000.ppm", root / "masks" / "train_0000.pgm"
        good = {image: image.read_text(), mask: mask.read_text()}
        broken = [
            (image, good[image][:200], "values"),               # PPM cut short
            (image, good[image].replace("P3", "P5", 1), "not a plain PPM"),
            (image, good[image].replace("65535\n", "65535\nabc ", 1), "not a number"),
            (mask, good[mask][:40], "values"),                   # PGM cut short
        ]
        for path, text, what in broken:
            for p, original in good.items():
                p.write_text(original)
            path.write_text(text)
            rc = cli.main(["train", *SMALL, "--set", f'data.path="{root}"',
                           "--out", str(tmp_path / "run")])
            err = capsys.readouterr().err
            assert rc == 1, err
            assert str(path) in err and what in err

    def test_malformed_manifest_exits_1_before_training(self, tmp_path, capsys,
                                                         monkeypatch):
        def no_training(*a, **kw):
            raise AssertionError("training started")

        monkeypatch.setattr(runner, "train", no_training)
        fixture = tmp_path / "fixture"
        assert cli.main(["gen-data", *SMALL, "--out", str(fixture)]) == 0
        manifest = fixture / "dataset" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        no_phrase = json.loads(lines[0])
        del no_phrase["phrase"]
        broken = [
            ([ln for ln in lines if '"split": "val"' not in ln], "holds no val sample"),
            ([], "holds no train sample"),
            ([*lines[:3], lines[3][:30]], "line 4 is not valid JSON"),
            ([*lines[:2], "garbage", *lines[2:]], "line 3 is not valid JSON"),
            ([json.dumps(no_phrase), *lines[1:]], "line 1 lacks 'phrase'"),
            ([*lines[:5], lines[5].replace('"split": "', '"split": "dev'), *lines[6:]],
             "line 6 names split 'dev"),
        ]
        for text, what in broken:
            manifest.write_text("".join(ln + "\n" for ln in text))
            rc = cli.main(["train", *SMALL, "--set", f'data.path="{manifest.parent}"',
                           "--out", str(tmp_path / "run")])
            err = capsys.readouterr().err
            assert rc == 1, err
            assert str(manifest) in err and what in err
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    def test_malformed_study_file_exits_1_before_any_trial(self, tmp_path, capsys,
                                                           monkeypatch):
        out = tmp_path / "o"
        sweep_args = ["sweep", *SMALL, "--set", "sweep.steps=1", "--out", str(out)]
        assert cli.main([*sweep_args, "--set", "sweep.n_trials=2"]) == 0
        path = out / "study.jsonl"
        lines = path.read_text().splitlines()
        header, record = json.loads(lines[0]), json.loads(lines[1])
        del record["status"]
        broken = [
            ("\n".join(lines)[:-20], "line 3 is not valid JSON"),
            ("", "line 1 is not valid JSON"),
            ('{"trials": []}', "line 1 lacks 'format'"),
            (json.dumps(dict(header, format="promptseg-study-v0")),
             "line 1 has format 'promptseg-study-v0'"),
            ("\n".join([lines[0], json.dumps(record), lines[2]]), "line 2 lacks 'status'"),
        ]

        def no_trial(*a, **kw):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(runner, "run_training", no_trial)
        for text, what in broken:
            path.write_text(text)
            rc = cli.main([*sweep_args, "--set", "sweep.n_trials=4"])
            err = capsys.readouterr().err
            assert rc == 1, err
            assert str(path) in err and what in err
            assert path.read_text() == text
            rc = cli.main(["report", "--out", str(tmp_path / "rep"), "--study", str(path)])
            err = capsys.readouterr().err
            assert rc == 1, err
            assert str(path) in err and what in err

    @pytest.mark.parametrize("edit", STUDY_EDITS)
    def test_malformed_study_exits_1_from_report_naming_the_file(self, edit, tmp_path,
                                                                 capsys):
        path = tmp_path / "study.jsonl"
        header, *records = _toy_study(path)
        change, what = STUDY_EDITS[edit]
        change(header, records)
        path.write_text("".join(json.dumps(rec) + "\n" for rec in [header, *records]))
        rc = cli.main(["report", "--out", str(tmp_path / "rep"), "--study", str(path)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert str(path) in err and what in err

    @pytest.mark.parametrize("kind", ["config", "study", "manifest", "image", "mask"])
    def test_a_byte_that_is_not_utf8_exits_1_naming_the_file(self, kind, tmp_path, capsys):
        fixture = tmp_path / "fixture"
        assert cli.main(["gen-data", *SMALL, "--out", str(fixture)]) == 0
        root = fixture / "dataset"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"strategy": "coop"}))
        study = tmp_path / "study.jsonl"
        _toy_study(study)
        path = {"config": config, "study": study, "manifest": root / "manifest.jsonl",
                "image": root / "images" / "val_0001.ppm",
                "mask": root / "masks" / "test_0002.pgm"}[kind]
        raw = path.read_bytes()
        path.write_bytes(raw[:10] + b"\xff" + raw[11:])
        if kind == "study":
            argv = ["report", "--study", str(path)]
        else:
            argv = ["train", *SMALL, "--config", str(config),
                    "--set", f'data.path="{root}"']
        rc = cli.main([*argv, "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert str(path) in err and "not UTF-8" in err

    def test_runtime_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(*a, **kw):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(runner, "run_training", boom)
        rc = cli.main(["train", *SMALL, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_sweep_trial_error_exit_code(self, tmp_path, capsys, monkeypatch):
        """Only a diverged trial is a failed trial; any other error ends the sweep."""
        calls = []

        def second_call_fails(*a, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise TypeError("unexpected keyword")
            return SimpleNamespace(final_val_dice=0.5), 0.25, None, None

        monkeypatch.setattr(runner, "run_training", second_call_fails)
        out = tmp_path / "o"
        rc = cli.main(["sweep", *SMALL, "--set", "sweep.n_trials=3", "--out", str(out)])
        assert rc == 2
        assert len(calls) == 2
        assert "unexpected keyword" in capsys.readouterr().err
        lines = (out / "study.jsonl").read_text().splitlines()
        assert [json.loads(ln)["status"] for ln in lines[1:]] == ["complete"]


class TestTrainCommand:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["train", *SMALL, "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert "test_dice" in capsys.readouterr().out
        # effective-config snapshot reproduces the run
        snap = json.loads((out / "config.json").read_text())
        assert snap["train"]["steps"] == 3
        arrays = load_arrays(out / "prompts.ckpt")
        assert any(k.startswith("prompt.") for k in arrays)
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for ln in lines:
            rec = json.loads(ln)
            assert set(rec) == {"step", "loss", "dice", "lr"}


class TestGenData:
    def test_writes_fixture_and_reloads(self, tmp_path):
        out = tmp_path / "fixture"
        rc = cli.main(["gen-data", *SMALL, "--out", str(out)])
        assert rc == 0
        assert (out / "dataset" / "manifest.jsonl").exists()
        rc = cli.main([
            "train", *SMALL, "--set", f'data.path="{out / "dataset"}"',
            "--out", str(tmp_path / "run"),
        ])
        assert rc == 0

    def test_loaded_fixture_of_another_size_is_resized(self, tmp_path):
        fixture = tmp_path / "fixture"
        assert cli.main(["gen-data", *SMALL, "--out", str(fixture)]) == 0
        at_32 = ["--set", "backbone.image_size=32", "--set", "data.image_size=32",
                 "--set", f'data.path="{fixture / "dataset"}"']
        rc = cli.main(["train", *SMALL, *at_32, "--set", "train.steps=1",
                       "--out", str(tmp_path / "run")])
        assert rc == 0
        cfg = runner.load_config(overrides=[
            ("backbone.image_size", "32"), ("data.image_size", "32"),
            ("data.path", str(fixture / "dataset"))])
        for samples in runner.get_dataset(cfg).values():
            for s in samples:
                assert s.image.shape == (3, 32, 32)
                assert 0.0 <= s.image.min() and s.image.max() <= 1.0
                assert s.mask.shape == (32, 32)
                assert set(np.unique(s.mask)) <= {0, 1}


class TestAblations:
    def test_upsampler_report_structure(self, tmp_path):
        out = tmp_path / "ab"
        rc = cli.main(["ablate-upsampler", *SMALL, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "ablate_upsampler.json").read_text())
        assert "2.59" in report["note"]
        arm_rows = [r for r in report["rows"] if "use_upsampler" in r]
        delta_rows = [r for r in report["rows"] if "delta_with_minus_without" in r]
        assert len(arm_rows) == 2 and len(delta_rows) == 1
        assert {r["use_upsampler"] for r in arm_rows} == {True, False}

    def test_init_ablation_rejects_visual_kinds(self, tmp_path):
        rc = cli.main(["ablate-init", *SMALL, "--set", 'strategy="vpt"',
                       "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_init_ablation_three_seeds(self, tmp_path):
        out = tmp_path / "init"
        rc = cli.main(["ablate-init", *SMALL, "--set", 'strategy="coop"',
                       "--seed", "2", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "ablate_init.json").read_text())
        assert len(report["rows"]) == 3
        for row in report["rows"]:
            assert {"seed", "gaussian", "photo-of-a",
                    "delta_photo_minus_gaussian"} <= set(row)
        assert [r["seed"] for r in report["rows"]] == [2, 3, 4]


class TestReport:
    def test_report_without_a_study_exits_1(self, tmp_path, capsys):
        assert cli.main(["report", "--out", str(tmp_path / "rep")]) == 1
        assert "--study" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_report_from_study_files(self, tmp_path):
        from promptseg.sweep import default_search_space, quadratic_objective, run_study

        def objective(cfg, seed):
            v = quadratic_objective(cfg)
            return v, v

        studies = []
        for strategy in ("coop", "vpt"):
            path = tmp_path / f"{strategy}.jsonl"
            run_study(strategy, default_search_space(), 12, objective, seed=4,
                      out_path=path)
            studies.append(str(path))
        out = tmp_path / "rep"
        rc = cli.main(["report", "--out", str(out),
                       "--study", studies[0], "--study", studies[1]])
        assert rc == 0
        text = (out / "report.txt").read_text()
        assert "coop" in text and "vpt" in text
        scatter = json.loads((out / "depth_scatter.json").read_text())
        for strategy in ("coop", "vpt"):
            fit = scatter[strategy]["fit"]
            assert {"slope", "intercept", "r2"} <= set(fit)
            assert len(scatter[strategy]["points"]) == 12
        csv = (out / "report.csv").read_text()
        assert csv.startswith("strategy,mean,std")


# -- corrupted input files -----------------------------------------------------


def _corrupted(data, raw: bytes) -> bytes:
    """``raw`` cut short, with one line dropped, or with one byte changed."""
    how = data.draw(hst.sampled_from(["truncate", "drop-line", "flip-byte"]))
    if how == "truncate":
        return raw[:data.draw(hst.integers(0, len(raw) - 1))]
    if how == "drop-line":
        lines = raw.splitlines(keepends=True)
        k = data.draw(hst.integers(0, len(lines) - 1))
        return b"".join(lines[:k] + lines[k + 1:])
    k = data.draw(hst.integers(0, len(raw) - 1))
    byte = data.draw(hst.integers(0, 255).filter(lambda b: b != raw[k]))
    return raw[:k] + bytes([byte]) + raw[k + 1:]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A 12-trial study file and a tiny saved fixture, both valid."""
    root = tmp_path_factory.mktemp("inputs")
    _toy_study(root / "study.jsonl", n_trials=12)
    assert cli.main(["gen-data", *SMALL, "--out", str(root / "fixture")]) == 0
    return root / "study.jsonl", root / "fixture" / "dataset"


class TestCorruptedInputs:
    """A valid file that is cut short, loses a line or has one byte changed
    makes the command exit 0 or 1, never 2; an exit 1 comes before any
    optimizer step."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=hst.data())
    def test_study_file_under_report(self, valid_inputs, data):
        study, _ = valid_inputs
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "study.jsonl"
            path.write_bytes(_corrupted(data, study.read_bytes()))
            rc = cli.main(["report", "--out", str(Path(tmp) / "rep"), "--study", str(path)])
        assert rc in (0, 1)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=hst.data())
    def test_fixture_manifest_under_train(self, valid_inputs, data):
        _, root = valid_inputs
        manifest = root / "manifest.jsonl"
        raw, steps = manifest.read_bytes(), []
        step = training.AdamW.step
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(training.AdamW, "step", lambda opt: steps.append(step(opt)))
            manifest.write_bytes(_corrupted(data, raw))
            try:
                rc = cli.main(["train", *SMALL, "--set", "train.steps=1",
                               "--set", f'data.path="{root}"', "--out", tmp])
            finally:
                manifest.write_bytes(raw)
        assert rc in (0, 1)
        assert len(steps) == (1 if rc == 0 else 0)
