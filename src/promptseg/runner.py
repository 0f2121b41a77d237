"""Config schema and experiment assembly shared by the CLI and the sweep."""

from __future__ import annotations

import copy
import json
from pathlib import Path

from .backbone import Backbone, BackboneConfig, TokenizationError, tokenize
from .dataio import SyntheticTaskSpec, generate_dataset, load_dataset, resize_sample
from .prompts import KINDS, STRATEGIES, CouplerConfig, init_prompts
from .sweep import default_search_space
from .tensor import ConfigError
from .training import LossConfig, TrainRunConfig, evaluate, train

DEFAULT_CONFIG = {
    "seed": 0,
    "strategy": "vpt",
    "prompt_length": 4,
    "prompt_depth": 2,
    "init_mode": "gaussian",
    "backbone": {
        "text_width": 32,
        "vision_width": 32,
        "joint_width": 32,
        "text_layers": 4,
        "vision_layers": 4,
        "decoder_layers": 2,
        "patch_size": 8,
        "image_size": 32,
        "max_text_len": 16,
        "text_heads": 4,
        "vision_heads": 4,
        "use_upsampler": True,
    },
    "coupler": {
        "unified_dim": 32,
        "use_lora": False,
        "intermediate_dim": 32,
        "attn_heads": 4,
        "attn_dropout": 0.0,
        "attn_ff_dim": 64,
        "layernorm_first": True,
    },
    "train": {
        "steps": 200,
        "micro_batch": 4,
        "grad_accum": 2,
        "learning_rate": 1e-3,
        "weight_decay": 1e-4,
        "eval_every": 50,
        "augment": False,
        "smooth": 1.0,
        "lambda_dice": 1.0,
        "lambda_ce": 0.2,
    },
    "data": {
        "n_classes": 2,
        "image_size": 32,
        "train": 64,
        "val": 16,
        "test": 16,
        "seed": 7,
        "align": 8,
        "path": "",        # load a saved fixture instead of generating
    },
    "sweep": {
        "n_trials": 20,
        "steps": 40,
        "depth_max": 3,
    },
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def load_config(path=None, overrides=None) -> dict:
    cfg = default_config()
    if path is not None:
        user = json.loads(Path(path).read_text())
        _merge(cfg, user, prefix="")
    for key, raw in overrides or []:
        apply_override(cfg, key, raw)
    if cfg["strategy"] not in KINDS:
        raise ConfigError(f"unknown strategy {cfg['strategy']!r}")
    if cfg["backbone"]["image_size"] != cfg["data"]["image_size"]:
        raise ConfigError("backbone.image_size must equal data.image_size")
    return cfg


def _merge(cfg: dict, user: dict, prefix: str) -> None:
    for key, value in user.items():
        full = f"{prefix}{key}"
        if key not in cfg:
            raise ConfigError(f"unknown config key {full!r}")
        if isinstance(cfg[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {full!r} expects an object")
            _merge(cfg[key], value, prefix=f"{full}.")
        else:
            cfg[key] = _coerce(full, cfg[key], value)


def _coerce(key: str, default, value):
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        raise ConfigError(f"config key {key!r} expects a boolean, got {value!r}")
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"config key {key!r} expects an integer, got {value!r}")
    if isinstance(default, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ConfigError(f"config key {key!r} expects a number, got {value!r}")
    if isinstance(default, str):
        if isinstance(value, str):
            return value
        raise ConfigError(f"config key {key!r} expects a string, got {value!r}")
    return value


def apply_override(cfg: dict, dotted: str, raw: str) -> None:
    """Apply one ``a.b.c=value`` CLI override, type-checked against the schema."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    set_key(cfg, dotted, value)


def set_key(cfg: dict, dotted: str, value) -> None:
    """Set the existing key ``a.b.c`` to ``value``, type-checked against the schema."""
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config key {dotted!r}")
        node = node[part]
    leaf = parts[-1]
    if leaf not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    node[leaf] = _coerce(dotted, node[leaf], value)


# the config key each search-space dimension sets
SWEEP_KEYS = {
    "learning_rate": "train.learning_rate",
    "weight_decay": "train.weight_decay",
    "prompt_depth": "prompt_depth",
    "shared_dim": "coupler.unified_dim",
    **{name: f"coupler.{name}" for name in ("intermediate_dim", "use_lora", "attn_heads",
                                            "attn_dropout", "attn_ff_dim", "layernorm_first")},
}


# -- assembly ----------------------------------------------------------------


def build_backbone(cfg: dict, use_upsampler=None) -> Backbone:
    b = dict(cfg["backbone"])
    if use_upsampler is not None:
        b["use_upsampler"] = use_upsampler
    return Backbone(BackboneConfig(**b), seed=cfg["seed"])


def build_state(cfg: dict, backbone: Backbone, seed: int | None = None):
    strategy = cfg["strategy"]
    return init_prompts(
        strategy,
        B=cfg["prompt_length"],
        J=STRATEGIES[strategy].depth or cfg["prompt_depth"],
        backbone=backbone,
        coupler=CouplerConfig(**cfg["coupler"]),
        init_mode=cfg["init_mode"],
        seed=cfg["seed"] if seed is None else seed,
    )


def build_run_cfg(cfg: dict, seed: int | None = None) -> TrainRunConfig:
    t = cfg["train"]
    return TrainRunConfig(
        steps=t["steps"],
        micro_batch=t["micro_batch"],
        grad_accum=t["grad_accum"],
        learning_rate=t["learning_rate"],
        weight_decay=t["weight_decay"],
        seed=cfg["seed"] if seed is None else seed,
        eval_every=t["eval_every"],
        augment=t["augment"],
        loss=LossConfig(lambda_dice=t["lambda_dice"], lambda_ce=t["lambda_ce"],
                        smooth=t["smooth"]),
    )


def synthetic_dataset(cfg: dict) -> dict:
    """The synthetic task the ``data`` section describes."""
    d = cfg["data"]
    return generate_dataset(SyntheticTaskSpec(
        n_classes=d["n_classes"],
        image_size=d["image_size"],
        samples_per_split={"train": d["train"], "val": d["val"], "test": d["test"]},
        seed=d["seed"],
        align=d["align"],
    ))


def get_dataset(cfg: dict) -> dict:
    """The saved fixture at ``data.path``, resized to the backbone's image
    size, else the synthetic task.  Every phrase must fit the text encoder,
    so a run cannot die mid-training."""
    path = cfg["data"]["path"]
    if path:
        size = cfg["backbone"]["image_size"]
        dataset = {split: [resize_sample(s, size) for s in samples]
                   for split, samples in load_dataset(path).items()}
    else:
        dataset = synthetic_dataset(cfg)
    max_len = cfg["backbone"]["max_text_len"]
    for phrase in sorted({s.phrase for samples in dataset.values() for s in samples}):
        try:
            tokenize(phrase, max_len)
        except TokenizationError as exc:
            raise ConfigError(f"phrase {phrase!r}: {exc} (backbone.max_text_len)") from exc
    return dataset


def run_training(cfg: dict, out_dir=None, dataset=None, seed: int | None = None):
    """One full experiment: build, train, evaluate.  Returns
    (artifacts, test_dice, model, state)."""
    dataset = dataset if dataset is not None else get_dataset(cfg)
    model = build_backbone(cfg)
    state = build_state(cfg, model, seed=seed)
    run_cfg = build_run_cfg(cfg, seed=seed)
    artifacts = train(model, state, dataset, run_cfg, out_dir=out_dir)
    test_dice = evaluate(model, state, dataset.get("test", []))
    return artifacts, test_dice, model, state


def make_objective(cfg: dict, dataset: dict):
    """Adapt sweep trials to full training runs: each trial is the config
    with every sampled value set at its ``SWEEP_KEYS`` key.  The sweep's
    training budget (sweep.steps) replaces the standalone budget."""

    def objective(trial: dict, seed: int):
        trial_cfg = copy.deepcopy(cfg)
        trial_cfg["train"]["steps"] = cfg["sweep"]["steps"]
        for name, value in trial.items():
            set_key(trial_cfg, SWEEP_KEYS[name], value)
        artifacts, test_dice, _, _ = run_training(trial_cfg, dataset=dataset, seed=seed)
        return artifacts.final_val_dice, test_dice

    return objective


def sweep_space(cfg: dict):
    return default_search_space(cfg["sweep"]["depth_max"])
