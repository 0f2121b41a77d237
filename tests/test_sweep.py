import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import stats

from promptseg.prompts import KINDS
from promptseg.sweep import (
    Dim,
    SearchSpace,
    StudyState,
    TrialRecord,
    compare_tpe_random,
    default_search_space,
    depth_scatter,
    linear_fit,
    load_study,
    quadratic_objective,
    run_study,
    sample_trial,
    save_study,
    summary_csv,
    summary_rows,
    trial_seed,
)
from promptseg.tensor import ConfigError
from promptseg.training import NonFiniteLossError


def make_history(configs_and_scores):
    return [TrialRecord(i, cfg, score, score, "complete", 0)
            for i, (cfg, score) in enumerate(configs_and_scores)]


class TestSpace:
    def test_applicability_masks(self):
        space = default_search_space()
        always = {"learning_rate", "weight_decay", "prompt_depth"}
        expectations = {
            "coop": always,
            "deep-textual": always,
            "vpt": always,
            "cocoop": always | {"intermediate_dim", "use_lora"},
            "maple": always | {"intermediate_dim", "use_lora"},
            "shared-attention": always | {"attn_heads", "attn_dropout",
                                          "attn_ff_dim", "layernorm_first"},
            "shared-separate": always | {"shared_dim"},
        }
        for strategy, expected in expectations.items():
            names = {d.name for d in space.dims_for(strategy)}
            assert names == expected, strategy

    def test_empty_space_rejected(self):
        space = SearchSpace([Dim("x", "linear", 0, 1, applies=("vpt",))])
        with pytest.raises(ConfigError):
            space.dims_for("coop")

    def test_json_round_trip(self):
        space = default_search_space()
        back = SearchSpace.from_json(
            [Dim.from_json(d.to_json()).to_json() for d in space.dims]
        )
        assert back.to_json() == space.to_json()


class TestSampling:
    def test_sampled_config_has_exactly_applicable_keys(self):
        space = default_search_space()
        rng = np.random.default_rng(0)
        cfg = sample_trial(space, "coop", [], rng)
        assert set(cfg) == {"learning_rate", "weight_decay", "prompt_depth"}
        cfg = sample_trial(space, "shared-attention", [], rng)
        assert "intermediate_dim" not in cfg and "shared_dim" not in cfg

    def test_values_respect_ranges_property(self):
        space = default_search_space()
        rng = np.random.default_rng(1)
        history = make_history(
            [({"learning_rate": 10 ** rng.uniform(-5, np.log10(5e-3)),
               "weight_decay": 10 ** rng.uniform(-5, -2),
               "prompt_depth": int(rng.integers(1, 4))}, rng.random())
             for _ in range(30)]
        )
        for _ in range(500):
            cfg = sample_trial(space, "coop", history, rng)
            assert 1e-5 <= cfg["learning_rate"] <= 5e-3
            assert 1e-5 <= cfg["weight_decay"] <= 1e-2
            assert cfg["prompt_depth"] in (1, 2, 3)
        for _ in range(500):
            cfg = sample_trial(space, "shared-attention", history, rng)
            assert cfg["attn_heads"] in (2, 4, 8)
            assert 0.1 <= cfg["attn_dropout"] <= 0.55
            assert cfg["attn_ff_dim"] in (64, 128)
            assert isinstance(cfg["layernorm_first"], (bool, np.bool_))

    def test_startup_learning_rate_uniform_in_log(self):
        space = default_search_space()
        rng = np.random.default_rng(2)
        draws = np.array([
            np.log10(sample_trial(space, "coop", [], rng)["learning_rate"])
            for _ in range(10_000)
        ])
        lo, hi = -5.0, np.log10(5e-3)
        _, p = stats.kstest((draws - lo) / (hi - lo), "uniform")
        assert p > 0.01

    def test_degenerate_history_keeps_sampling(self):
        space = default_search_space()
        rng = np.random.default_rng(3)
        history = make_history(
            [({"learning_rate": 1e-4, "weight_decay": 1e-4, "prompt_depth": 2},
              0.5) for _ in range(20)]
        )
        for _ in range(20):
            cfg = sample_trial(space, "coop", history, rng)
            assert 1e-5 <= cfg["learning_rate"] <= 5e-3

    def test_guided_sampling_concentrates_on_good_region(self):
        # val dice high iff prompt_depth == 3
        space = default_search_space()
        rng = np.random.default_rng(4)
        history = []
        for i in range(40):
            depth = int(rng.integers(1, 4))
            cfg = {"learning_rate": 10 ** rng.uniform(-5, np.log10(5e-3)),
                   "weight_decay": 10 ** rng.uniform(-5, -2),
                   "prompt_depth": depth}
            score = 0.9 if depth >= 3 else 0.1 + 0.01 * rng.random()
            history.append(TrialRecord(i, cfg, score, score, "complete", 0))
        sampled = [sample_trial(space, "coop", history, rng)["prompt_depth"]
                   for _ in range(50)]
        assert np.mean(np.array(sampled) >= 3) >= 0.7

    def test_failed_trials_ignored_by_sampler(self):
        space = default_search_space()
        rng = np.random.default_rng(5)
        history = [TrialRecord(i, {"learning_rate": 1e-4}, None, None,
                               "failed", 0) for i in range(30)]
        cfg = sample_trial(space, "coop", history, rng)  # still startup phase
        assert 1e-5 <= cfg["learning_rate"] <= 5e-3


class TestStudyPersistence:
    def _toy_objective(self):
        def objective(cfg, seed):
            val = quadratic_objective(cfg)
            return val, val - 0.01
        return objective

    def test_single_trial_study(self, tmp_path):
        study = run_study("coop", default_search_space(), 1, self._toy_objective(),
                          seed=7, out_path=tmp_path / "s.jsonl")
        assert len(study.records) == 1
        assert study.best is study.records[0]

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "s.jsonl"
        study = run_study("maple", default_search_space(), 5, self._toy_objective(),
                          seed=8, out_path=path)
        loaded = load_study(path)
        assert [r.to_json() for r in loaded.records] == [
            r.to_json() for r in study.records
        ]
        assert loaded.rng.bit_generator.state == study.rng.bit_generator.state

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        objective = self._toy_objective()
        full = run_study("coop", default_search_space(), 15, objective, seed=9,
                         out_path=tmp_path / "full.jsonl")
        part_path = tmp_path / "part.jsonl"
        run_study("coop", default_search_space(), 6, objective, seed=9,
                  out_path=part_path)
        resumed = run_study("coop", default_search_space(), 15, objective, seed=9,
                            out_path=part_path)

        def strip_time(rec):
            return {k: v for k, v in rec.to_json().items() if k != "wall_time"}

        assert [strip_time(r) for r in resumed.records] == [
            strip_time(r) for r in full.records
        ]

    def test_strategy_mismatch_on_resume(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_study("coop", default_search_space(), 2, self._toy_objective(),
                  seed=1, out_path=path)
        with pytest.raises(ConfigError):
            run_study("vpt", default_search_space(), 4, self._toy_objective(),
                      seed=1, out_path=path)

    def test_seed_mismatch_on_resume(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_study("coop", default_search_space(), 2, self._toy_objective(),
                  seed=1, out_path=path)
        before = path.read_bytes()
        with pytest.raises(ConfigError, match="seed"):
            run_study("coop", default_search_space(), 4, self._toy_objective(),
                      seed=2, out_path=path)
        assert path.read_bytes() == before

    def test_search_space_mismatch_on_resume(self, tmp_path):
        path = tmp_path / "s.jsonl"
        run_study("coop", default_search_space(3), 2, self._toy_objective(),
                  seed=1, out_path=path)
        before = path.read_bytes()
        with pytest.raises(ConfigError, match="search space"):
            run_study("coop", default_search_space(4), 4, self._toy_objective(),
                      seed=1, out_path=path)
        assert path.read_bytes() == before

    def test_trial_failure_recorded_and_study_continues(self, tmp_path):
        calls = {"n": 0}

        def flaky(cfg, seed):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NonFiniteLossError("boom")
            v = quadratic_objective(cfg)
            return v, v

        study = run_study("coop", default_search_space(), 4, flaky, seed=2,
                          out_path=tmp_path / "s.jsonl")
        statuses = [r.status for r in study.records]
        assert statuses.count("failed") == 1
        assert statuses.count("complete") == 3
        failed = next(r for r in study.records if r.status == "failed")
        assert "boom" in failed.config["_error"]

    def test_other_trial_error_ends_study_and_keeps_finished_trials(self, tmp_path):
        calls = {"n": 0}

        def broken(cfg, seed):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("boom")
            v = quadratic_objective(cfg)
            return v, v

        path = tmp_path / "s.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            run_study("coop", default_search_space(), 5, broken, seed=2, out_path=path)
        assert calls["n"] == 3
        records = load_study(path).records
        assert [r.trial_id for r in records] == [0, 1]
        assert all(r.status == "complete" for r in records)

    def test_best_skips_non_finite_val_dice(self):
        study = StudyState("coop", 0, default_search_space(), records=[
            TrialRecord(0, {}, float("nan"), 0.9, "complete", 0),
            TrialRecord(1, {}, 0.4, 0.3, "complete", 0),
        ])
        assert study.best is study.records[1]

    @settings(max_examples=40, deadline=None)
    @given(data=hst.data())
    def test_save_load_round_trip_property(self, data):
        """save_study then load_study gives back the seed, strategy, space,
        sampler state and every record; NaN compares by math.isnan."""
        words = hst.text(min_size=1, max_size=12)
        finite = hst.floats(allow_nan=False, allow_infinity=False)
        value = hst.one_of(hst.integers(-2**40, 2**40), finite, hst.booleans(), words)
        dim = hst.one_of(
            hst.builds(Dim, words, hst.sampled_from(["log", "linear", "int"]),
                       finite, finite),
            hst.builds(Dim, words, hst.just("choice"),
                       choices=hst.lists(value, min_size=1, max_size=4),
                       applies=hst.lists(hst.sampled_from(("all",) + KINDS), min_size=1,
                                         max_size=3).map(tuple)),
        )
        space = SearchSpace(data.draw(hst.lists(dim, min_size=1, max_size=5)))
        records = []
        for i in range(data.draw(hst.integers(0, 6))):
            config = data.draw(hst.dictionaries(words, value, max_size=5))
            if data.draw(hst.booleans()):
                records.append(TrialRecord(
                    i, config,
                    data.draw(hst.one_of(finite, hst.just(float("nan")))),
                    data.draw(finite), "complete", data.draw(hst.integers(0, 2**31 - 1)),
                    data.draw(finite)))
            else:
                records.append(TrialRecord(
                    i, dict(config, _error=data.draw(hst.text())), None, None, "failed",
                    data.draw(hst.integers(0, 2**31 - 1)), data.draw(finite)))
        study = StudyState(data.draw(hst.sampled_from(KINDS)),
                           data.draw(hst.integers(0, 2**63 - 1)), space, records=records)
        study.rng.random(data.draw(hst.integers(0, 5)))

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "study.jsonl"
            save_study(path, study)
            loaded = load_study(path)

        def same(a, b):
            if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
                return math.isnan(b)
            return type(a) is type(b) and a == b

        assert (loaded.strategy, loaded.seed) == (study.strategy, study.seed)
        assert loaded.space.to_json() == space.to_json()
        assert loaded.rng.bit_generator.state == study.rng.bit_generator.state
        assert len(loaded.records) == len(records)
        for got, want in zip(loaded.records, records):
            a, b = got.to_json(), want.to_json()
            assert a.keys() == b.keys()
            for key in ("trial_id", "val_dice", "test_dice", "status", "seed", "wall_time"):
                assert same(a[key], b[key]), key
            assert a["config"].keys() == b["config"].keys()
            for key, v in b["config"].items():
                assert same(a["config"][key], v), key

    def test_trial_seeds_deterministic_and_distinct(self):
        seeds = [trial_seed(5, i) for i in range(10)]
        assert seeds == [trial_seed(5, i) for i in range(10)]
        assert len(set(seeds)) == 10


class TestReporting:
    def test_linear_fit_matches_polyfit(self):
        rng = np.random.default_rng(0)
        x = rng.random(40) * 3 + 1
        y = 0.1 * x + 0.5 + rng.normal(0, 0.02, 40)
        fit = linear_fit(list(zip(x, y)))
        slope, intercept = np.polyfit(x, y, 1)
        r = np.corrcoef(x, y)[0, 1]
        assert fit["slope"] == pytest.approx(slope, abs=1e-9)
        assert fit["intercept"] == pytest.approx(intercept, abs=1e-9)
        assert fit["r2"] == pytest.approx(r * r, abs=1e-9)

    def test_linear_fit_degenerate(self):
        assert np.isnan(linear_fit([(1.0, 2.0)])["slope"])

    def test_depth_scatter_structure(self):
        records = make_history(
            [({"prompt_depth": d, "learning_rate": 1e-4}, 0.5 + 0.1 * d)
             for d in (1, 2, 3, 1, 2)]
        )
        scatter = depth_scatter(StudyState("coop", 0, default_search_space(), records))
        assert len(scatter["points"]) == 5
        assert scatter["fit"]["slope"] == pytest.approx(0.1, abs=1e-12)

    def test_summary_single_task(self):
        rows = summary_rows([{"strategy": "coop", "task": "a", "test_dice": 0.8}])
        assert rows[0]["mean"] == 0.8
        assert rows[0]["std"] is None
        assert "coop,0.800000," in summary_csv(rows)

    def test_summary_two_tasks_hand_values(self):
        rows = summary_rows([
            {"strategy": "coop", "task": "a", "test_dice": 0.8},
            {"strategy": "coop", "task": "b", "test_dice": 0.6},
        ])
        assert rows[0]["mean"] == pytest.approx(0.7)
        assert rows[0]["std"] == pytest.approx(0.1)

    def test_summary_keeps_best_per_task(self):
        rows = summary_rows([
            {"strategy": "vpt", "task": "a", "test_dice": 0.5},
            {"strategy": "vpt", "task": "a", "test_dice": 0.9},
        ])
        assert rows[0]["per_task"]["a"] == 0.9


class TestTpeVsRandom:
    def test_paired_comparison_on_quadratic_surface(self):
        result = compare_tpe_random(n_trials=20, n_reps=10, seed=3)
        assert len(result["tpe_best"]) == 10
        # guided search should find the peak at least as well as random
        assert result["tpe_median"] >= result["random_median"] - 1e-9
