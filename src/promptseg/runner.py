"""Config schema and experiment assembly shared by the CLI and the sweep.

The ``backbone``, ``coupler`` and ``train`` sections of ``DEFAULT_CONFIG`` are
the defaults of the dataclasses they build, so each default is stated once.
``load_config`` type-checks each value against its default, then
``check_config`` checks every value before any work: each number is finite and
positive unless ``_DOMAIN_EXCEPTIONS`` says otherwise, the two loss weights
are not both 0, and the other rules that tie keys together are those of the
objects built from them.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import fields

from .backbone import Backbone, BackboneConfig, TokenizationError, tokenize
from .dataio import SyntheticTaskSpec, _read_text, generate_dataset, load_dataset, resize_sample
from .prompts import KINDS, STRATEGIES, CouplerConfig, init_prompts
from .sweep import default_search_space
from .tensor import ConfigError
from .training import LossConfig, TrainRunConfig, train


def _defaults(cls, *skip: str) -> dict:
    """The field defaults of dataclass ``cls`` by name, less ``skip``."""
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


DEFAULT_CONFIG = {
    "seed": TrainRunConfig.seed,
    "strategy": "vpt",
    "prompt_length": 4,
    "prompt_depth": 2,
    "init_mode": "gaussian",
    "backbone": _defaults(BackboneConfig),
    # use_layernorm has no key: only the shared-separate = maple equivalence turns it off
    "coupler": _defaults(CouplerConfig, "use_layernorm"),
    "train": {**_defaults(TrainRunConfig, "seed", "loss"), **_defaults(LossConfig)},
    "data": {
        "n_classes": 2,
        "image_size": BackboneConfig.image_size,
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

# Every number in the config must be finite and positive, except at these keys.
_POSITIVE = ("positive", lambda v: v > 0)
_DOMAIN_EXCEPTIONS = {
    **dict.fromkeys(("seed", "data.seed", "train.weight_decay", "train.smooth",
                     "train.lambda_dice", "train.lambda_ce"),
                    ("at least 0", lambda v: v >= 0)),
    "coupler.attn_dropout": ("in [0, 1)", lambda v: 0 <= v < 1),
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def load_config(path=None, overrides=None) -> dict:
    cfg = default_config()
    if path is not None:
        try:
            node = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(node, dict):
            raise ConfigError(f"config file {path} holds a {type(node).__name__}, not an object")
        for key, value in _leaves(node, ""):
            set_key(cfg, key, value)
    for key, raw in overrides or []:    # a raw value that is not JSON is a string
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        set_key(cfg, key, value)
    check_config(cfg)
    return cfg


def _leaves(node: dict, prefix: str):
    """(dotted key, value) for every key under ``node`` that is not a section."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def check_config(cfg: dict) -> None:
    """Check every value against its domain, then the rules that tie keys
    together; raises ``ConfigError`` naming the key."""
    for key, value in _leaves(cfg, ""):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            what, ok = _DOMAIN_EXCEPTIONS.get(key, _POSITIVE)
            if not ((isinstance(value, int) or math.isfinite(value)) and ok(value)):
                raise ConfigError(f"config key {key!r} must be finite and {what}, "
                                  f"got {value!r}")
    if cfg["train"]["lambda_dice"] == 0 and cfg["train"]["lambda_ce"] == 0:
        raise ConfigError("config keys 'train.lambda_dice' and 'train.lambda_ce' are both 0")
    if cfg["strategy"] not in KINDS:
        raise ConfigError(f"unknown strategy {cfg['strategy']!r}")
    if cfg["backbone"]["image_size"] != cfg["data"]["image_size"]:
        raise ConfigError("backbone.image_size must equal data.image_size")
    _task_spec(cfg)
    build_state(cfg, build_backbone(cfg))


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _coerce(key: str, default, value):
    if type(default) is float and type(value) is int:
        value = float(value)
    if type(value) is not type(default):
        raise ConfigError(f"config key {key!r} expects {_TYPE_NAMES[type(default)]}, "
                          f"got {value!r}")
    return value


def set_key(cfg: dict, dotted: str, value) -> None:
    """Set the existing key ``a.b.c`` to ``value``, type-checked against the schema."""
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config key {dotted!r}")
        node = node[part]
    leaf = parts[-1]
    if leaf not in node or isinstance(node[leaf], dict):
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
    t = dict(cfg["train"])
    loss = LossConfig(**{f.name: t.pop(f.name) for f in fields(LossConfig)})
    return TrainRunConfig(**t, seed=cfg["seed"] if seed is None else seed, loss=loss)


def _task_spec(cfg: dict) -> SyntheticTaskSpec:
    d = cfg["data"]
    return SyntheticTaskSpec(
        n_classes=d["n_classes"],
        image_size=d["image_size"],
        samples_per_split={"train": d["train"], "val": d["val"], "test": d["test"]},
        seed=d["seed"],
        align=d["align"],
    )


def synthetic_dataset(cfg: dict) -> dict:
    """The synthetic task the ``data`` section describes."""
    return generate_dataset(_task_spec(cfg))


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
    return artifacts, artifacts.final_test_dice, model, state


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
