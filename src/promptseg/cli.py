"""Command-line entry point.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure,
3 frozen-backbone violation.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

from . import runner, sweep as sweep_mod
from .dataio import save_dataset
from .prompts import STRATEGIES
from .tensor import ConfigError
from .training import FreezeViolationError

# contextual reference only: reported full-scale mean dice drop when the
# learnable upsampler is removed
UPSAMPLER_REFERENCE_DROP = 2.59


def _parse_set(pairs: list[str]) -> list[tuple[str, str]]:
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out.append((key, value))
    return out


def _prepare(args) -> tuple[dict, Path]:
    overrides = _parse_set(args.set or [])
    if args.seed is not None:
        overrides.append(("seed", str(args.seed)))
    cfg = runner.load_config(args.config, overrides)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # effective-config snapshot: every command is reproducible from this file
    (out / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")
    return cfg, out


def cmd_gen_data(args) -> int:
    cfg, out = _prepare(args)
    manifest = save_dataset(out / "dataset", runner.synthetic_dataset(cfg))
    print(f"wrote {manifest}")
    return 0


def cmd_train(args) -> int:
    cfg, out = _prepare(args)
    artifacts, test_dice, _, _ = runner.run_training(cfg, out_dir=out)
    print(f"strategy={cfg['strategy']} final_train_dice={artifacts.final_train_dice:.4f} "
          f"val_dice={artifacts.final_val_dice:.4f} test_dice={test_dice:.4f}")
    print(f"checkpoint: {artifacts.checkpoint_path}")
    print(f"metrics: {artifacts.metrics_path}")
    return 0


def _check_space(cfg: dict, space) -> None:
    """Fail before trial 0 unless every value the sweep may set passes the config check."""
    for dim in space.dims_for(cfg["strategy"]):
        for value in dim.choices or (dim.low, dim.high):
            trial_cfg = copy.deepcopy(cfg)
            runner.set_key(trial_cfg, runner.SWEEP_KEYS[dim.name], value)
            try:
                runner.check_config(trial_cfg)
            except ConfigError as exc:
                raise ConfigError(f"search space {dim.name}={value!r}: {exc}") from exc


def cmd_sweep(args) -> int:
    cfg, out = _prepare(args)
    space = runner.sweep_space(cfg)
    _check_space(cfg, space)
    dataset = runner.get_dataset(cfg)
    study = sweep_mod.run_study(
        cfg["strategy"], space, cfg["sweep"]["n_trials"],
        runner.make_objective(cfg, dataset), seed=cfg["seed"],
        out_path=out / "study.jsonl",
    )
    best = study.best
    if best is None:
        print("no complete trials", file=sys.stderr)
        return 2
    print(f"best trial {best.trial_id}: val_dice={best.val_dice:.4f} "
          f"test_dice={best.test_dice:.4f} config={json.dumps(best.config)}")
    return 0


def cmd_ablate_upsampler(args) -> int:
    cfg, out = _prepare(args)
    dataset = runner.get_dataset(cfg)
    strategy = cfg["strategy"]
    rows = []
    arm_dice = {}
    for use_up in (True, False):
        arm_cfg = copy.deepcopy(cfg)
        arm_cfg["backbone"]["use_upsampler"] = use_up
        artifacts, test_dice, _, _ = runner.run_training(arm_cfg, dataset=dataset)
        arm_dice[use_up] = test_dice
        rows.append({"strategy": strategy, "use_upsampler": use_up,
                     "test_dice": test_dice,
                     "val_dice": artifacts.final_val_dice})
    rows.append({"strategy": strategy,
                 "delta_with_minus_without": arm_dice[True] - arm_dice[False]})
    report = {
        "note": ("signed test-dice delta with vs without the learnable residual "
                 f"upsampler; full-scale reference mean drop without it: "
                 f"{UPSAMPLER_REFERENCE_DROP} dice points (context, not asserted)"),
        "rows": rows,
    }
    (out / "ablate_upsampler.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


def cmd_ablate_init(args) -> int:
    cfg, out = _prepare(args)
    if not STRATEGIES[cfg["strategy"]].text_space_init:
        raise ConfigError(
            f"init ablation needs text-space depth-1 prompts; {cfg['strategy']!r} "
            "has none"
        )
    dataset = runner.get_dataset(cfg)
    seeds = [cfg["seed"] + k for k in range(3)]
    rows = []
    for seed in seeds:
        per_arm = {}
        for mode in ("gaussian", "photo-of-a"):
            arm_cfg = copy.deepcopy(cfg)
            arm_cfg["init_mode"] = mode
            arm_cfg["seed"] = seed
            _, test_dice, _, _ = runner.run_training(arm_cfg, dataset=dataset)
            per_arm[mode] = test_dice
        rows.append({"seed": seed, **per_arm,
                     "delta_photo_minus_gaussian":
                         per_arm["photo-of-a"] - per_arm["gaussian"]})
    report = {"strategy": cfg["strategy"], "rows": rows}
    (out / "ablate_init.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


def cmd_report(args) -> int:
    cfg, out = _prepare(args)
    entries = []
    scatter = {}
    for path in args.study:
        study = sweep_mod.load_study(path)
        best = study.best
        if best is not None:
            entries.append({"strategy": study.strategy,
                            "task": Path(path).stem,
                            "test_dice": best.test_dice})
        try:
            scatter[study.strategy] = sweep_mod.depth_scatter(study)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    rows = sweep_mod.summary_rows(entries)
    text = sweep_mod.render_summary(rows)
    (out / "report.txt").write_text(text + "\n")
    (out / "report.csv").write_text(sweep_mod.summary_csv(rows) + "\n")
    (out / "depth_scatter.json").write_text(json.dumps(scatter, indent=2) + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptseg",
        description="Frozen-backbone prompt tuning for text-conditioned segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-data": cmd_gen_data,
        "train": cmd_train,
        "sweep": cmd_sweep,
        "ablate-upsampler": cmd_ablate_upsampler,
        "ablate-init": cmd_ablate_init,
        "report": cmd_report,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default="runs/out")
        if name == "report":
            p.add_argument("--study", action="append", required=True)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FreezeViolationError as exc:
        print(f"freeze violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
