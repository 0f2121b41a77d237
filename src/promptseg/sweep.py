"""Hyperparameter search: search space, a tree-structured Parzen estimator
sampler, resumable study execution, and reporting.

The sampler splits finished trials at the gamma-quantile of validation dice,
fits kernel densities to the good and bad sets per dimension, draws candidates
from the good density, and keeps the candidate with the best density ratio.
Until ``N_STARTUP`` trials have completed with a finite validation dice, every
trial is drawn uniformly.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .dataio import _read_text, json_line
from .tensor import ConfigError
from .training import NonFiniteLossError

GAMMA = 0.25
N_STARTUP = 10
N_CANDIDATES = 24
STUDY_FORMAT = "promptseg-study-v1"


@dataclass
class Dim:
    name: str
    kind: str                      # log | linear | int | choice
    low: float | None = None
    high: float | None = None
    choices: list | None = None
    applies: tuple = ("all",)

    def applicable(self, strategy: str) -> bool:
        return "all" in self.applies or strategy in self.applies

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "Dim":
        return cls(name=d["name"], kind=d["kind"], low=d["low"], high=d["high"],
                   choices=d["choices"], applies=tuple(d["applies"]))


@dataclass
class SearchSpace:
    dims: list[Dim]

    def dims_for(self, strategy: str) -> list[Dim]:
        out = [d for d in self.dims if d.applicable(strategy)]
        if not out:
            raise ConfigError(f"search space has no dimensions for {strategy!r}")
        return out

    def to_json(self) -> list[dict]:
        return [d.to_json() for d in self.dims]

    @classmethod
    def from_json(cls, data: list[dict]) -> "SearchSpace":
        return cls([Dim.from_json(d) for d in data])


def default_search_space(depth_max: int = 3) -> SearchSpace:
    """Desk-scale search space.  Head counts and feed-forward widths are
    remapped down from the full-size sets ({16,20,32} and {1280,1420}) so they
    divide the miniature unified width."""
    multim = ("cocoop", "maple")
    return SearchSpace([
        Dim("learning_rate", "log", 1e-5, 5e-3),
        Dim("weight_decay", "log", 1e-5, 1e-2),
        Dim("prompt_depth", "int", 1, depth_max),
        Dim("intermediate_dim", "choice", choices=[32, 64, 96, 128], applies=multim),
        Dim("use_lora", "choice", choices=[True, False], applies=multim),
        Dim("attn_heads", "choice", choices=[2, 4, 8], applies=("shared-attention",)),
        Dim("attn_dropout", "linear", 0.1, 0.55, applies=("shared-attention",)),
        Dim("attn_ff_dim", "choice", choices=[64, 128], applies=("shared-attention",)),
        Dim("layernorm_first", "choice", choices=[True, False],
            applies=("shared-attention",)),
        Dim("shared_dim", "choice", choices=[32, 64], applies=("shared-separate",)),
    ])


@dataclass
class TrialRecord:
    trial_id: int
    config: dict
    val_dice: float | None
    test_dice: float | None
    status: str                    # complete | failed
    seed: int
    wall_time: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "TrialRecord":
        return cls(**d)


def _scored(records: list[TrialRecord]) -> list[TrialRecord]:
    """The trials that completed with a finite validation dice."""
    return [t for t in records
            if t.status == "complete" and t.val_dice is not None and np.isfinite(t.val_dice)]


# -- sampling ----------------------------------------------------------------


def _uniform_draw(dim: Dim, rng) -> object:
    if dim.kind == "log":
        return float(10 ** rng.uniform(np.log10(dim.low), np.log10(dim.high)))
    if dim.kind == "linear":
        return float(rng.uniform(dim.low, dim.high))
    if dim.kind == "int":
        return int(rng.integers(int(dim.low), int(dim.high) + 1))
    if dim.kind == "choice":
        return dim.choices[int(rng.integers(len(dim.choices)))]
    raise ConfigError(f"unknown dimension kind {dim.kind!r}")


def _transform(dim: Dim, v: float) -> float:
    return float(np.log10(v)) if dim.kind == "log" else float(v)


def _untransform(dim: Dim, x: float):
    if dim.kind == "log":
        return float(10**x)
    if dim.kind == "int":
        return int(np.clip(round(x), int(dim.low), int(dim.high)))
    return float(x)


def _kde_logpdf(x: np.ndarray, centers: np.ndarray, bw: float) -> np.ndarray:
    z = (x[:, None] - centers[None, :]) / bw
    dens = np.exp(-0.5 * z * z).mean(axis=1) / (bw * np.sqrt(2 * np.pi))
    return np.log(dens + 1e-300)


def _numeric_tpe(dim: Dim, good: np.ndarray, bad: np.ndarray, rng) -> float:
    lo = _transform(dim, dim.low)
    hi = _transform(dim, dim.high)
    span = hi - lo

    def bandwidth(vals):
        if len(vals) < 2:
            return max(span * 0.2, 1e-12)
        s = float(vals.std())
        return max(s * len(vals) ** -0.2, span * 0.01)  # Scott's rule with a floor

    bw_g = bandwidth(good)
    centers = good[rng.integers(len(good), size=N_CANDIDATES)]
    cand = np.clip(centers + rng.normal(0.0, bw_g, N_CANDIDATES), lo, hi)
    score = _kde_logpdf(cand, good, bw_g)
    if len(bad):
        score = score - _kde_logpdf(cand, bad, bandwidth(bad))
    return float(cand[int(np.argmax(score))])


def _choice_tpe(dim: Dim, good: list, bad: list, rng):
    k = len(dim.choices)

    def probs(vals):
        counts = np.ones(k)  # Laplace smoothing
        for v in vals:
            counts[dim.choices.index(v)] += 1
        return counts / counts.sum()

    pl = probs(good)
    pg = probs(bad)
    idx = rng.choice(k, size=N_CANDIDATES, p=pl)
    ratios = pl[idx] / pg[idx]
    return dim.choices[int(idx[int(np.argmax(ratios))])]


def sample_trial(space: SearchSpace, strategy: str, history: list[TrialRecord],
                 rng) -> dict:
    """One sampled configuration containing exactly the applicable dimensions."""
    dims = space.dims_for(strategy)
    complete = _scored(history)
    if len(complete) < N_STARTUP:
        return {d.name: _uniform_draw(d, rng) for d in dims}

    ranked = sorted(complete, key=lambda t: -t.val_dice)
    n_good = max(1, int(np.ceil(GAMMA * len(ranked))))
    good_trials, bad_trials = ranked[:n_good], ranked[n_good:]

    cfg = {}
    for dim in dims:
        good_vals = [t.config[dim.name] for t in good_trials if dim.name in t.config]
        bad_vals = [t.config[dim.name] for t in bad_trials if dim.name in t.config]
        if not good_vals:
            cfg[dim.name] = _uniform_draw(dim, rng)
        elif dim.kind == "choice":
            cfg[dim.name] = _choice_tpe(dim, good_vals, bad_vals, rng)
        else:
            g = np.array([_transform(dim, v) for v in good_vals])
            b = np.array([_transform(dim, v) for v in bad_vals])
            cfg[dim.name] = _untransform(dim, _numeric_tpe(dim, g, b, rng))
    return cfg


# -- study execution ---------------------------------------------------------


@dataclass
class StudyState:
    strategy: str
    seed: int
    space: SearchSpace
    records: list[TrialRecord] = field(default_factory=list)
    rng: np.random.Generator = None

    def __post_init__(self):
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)

    @property
    def best(self) -> TrialRecord | None:
        return max(_scored(self.records), key=lambda t: t.val_dice, default=None)


def save_study(path, study: StudyState) -> None:
    header = {
        "format": STUDY_FORMAT,
        "strategy": study.strategy,
        "seed": study.seed,
        "space": study.space.to_json(),
        "rng_state": study.rng.bit_generator.state,
    }
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        f.write(json.dumps(header) + "\n")
        for rec in study.records:
            f.write(json.dumps(rec.to_json()) + "\n")
    os.replace(tmp, path)


def load_study(path) -> StudyState:
    """The study ``save_study`` wrote to ``path``; another format, a line that
    is not JSON or lacks, adds or mistypes a key, a trial status other than
    complete or failed, or a malformed search space or sampler state is a
    ``ConfigError`` naming the line."""
    lines = _read_text(path).splitlines() or [""]
    header = json_line(path, 1, lines[0], {"format": str, "strategy": str, "seed": int,
                                           "space": list, "rng_state": dict})
    if header["format"] != STUDY_FORMAT:
        raise ConfigError(f"{path} line 1 has format {header['format']!r}, not {STUDY_FORMAT!r}")
    records = [TrialRecord.from_json(json_line(path, n, ln, get_type_hints(TrialRecord)))
               for n, ln in enumerate(lines[1:], 2)]
    for n, rec in enumerate(records, 2):
        if rec.status not in ("complete", "failed"):
            raise ConfigError(f"{path} line {n} has status {rec.status!r}")
    try:
        study = StudyState(header["strategy"], header["seed"],
                           SearchSpace.from_json(header["space"]), records)
        study.rng.bit_generator.state = header["rng_state"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} line 1 holds a malformed search space or sampler state "
                          f"({type(exc).__name__}: {exc})") from None
    return study


def trial_seed(study_seed: int, trial_id: int) -> int:
    return int(np.random.default_rng([study_seed, trial_id]).integers(2**31))


def run_study(strategy: str, space: SearchSpace, n_trials: int, objective,
              seed: int = 0, out_path=None) -> StudyState:
    """Execute trials sequentially; ``objective(config, seed)`` returns
    (val_dice, test_dice).  A trial whose training diverged (a non-finite
    loss) is recorded as failed and the study continues; any other error
    ends the study.  The study file is rewritten after every trial so a
    crash loses at most the in-flight trial; it resumes only under the same
    strategy, seed and search space."""
    if out_path is not None and Path(out_path).exists():
        study = load_study(out_path)
        if study.strategy != strategy:
            raise ConfigError(
                f"study file holds strategy {study.strategy!r}, asked for {strategy!r}"
            )
        if study.seed != seed:
            raise ConfigError(f"study file holds seed {study.seed}, asked for {seed}")
        if json.dumps(study.space.to_json()) != json.dumps(space.to_json()):
            raise ConfigError(f"study file {out_path} holds a different search space")
    else:
        study = StudyState(strategy=strategy, seed=seed, space=space)

    while len(study.records) < n_trials:
        trial_id = len(study.records)
        cfg = sample_trial(space, strategy, study.records, study.rng)
        tseed = trial_seed(study.seed, trial_id)
        t0 = time.monotonic()
        try:
            val_dice, test_dice = objective(cfg, tseed)
            rec = TrialRecord(trial_id, cfg, float(val_dice), float(test_dice),
                              "complete", tseed, time.monotonic() - t0)
        except NonFiniteLossError as exc:
            rec = TrialRecord(trial_id, cfg, None, None, "failed", tseed,
                              time.monotonic() - t0)
            rec.config = dict(cfg, _error=str(exc))
        study.records.append(rec)
        if out_path is not None:
            save_study(out_path, study)
    return study


# -- reporting ---------------------------------------------------------------


def linear_fit(points) -> dict:
    """Least-squares line via running sums; returns slope, intercept, r2."""
    n = sx = sy = sxx = sxy = syy = 0.0
    for x, y in points:
        n += 1
        sx += x
        sy += y
        sxx += x * x
        sxy += x * y
        syy += y * y
    if n < 2:
        return {"slope": float("nan"), "intercept": float("nan"), "r2": float("nan")}
    denom_x = n * sxx - sx * sx
    denom_y = n * syy - sy * sy
    slope = (n * sxy - sx * sy) / denom_x if denom_x else float("nan")
    intercept = (sy - slope * sx) / n
    r2 = ((n * sxy - sx * sy) ** 2 / (denom_x * denom_y)) if denom_x and denom_y else float("nan")
    return {"slope": slope, "intercept": intercept, "r2": r2}


def depth_scatter(study: StudyState) -> dict:
    """(prompt depth, test dice) pairs for the study's complete trials plus
    the fitted line; a complete trial whose depth is not an integer in the
    range of the study's ``prompt_depth`` dimension, or whose test dice is not
    a number in [0, 1], is a ``ConfigError``."""
    dim = next((d for d in study.space.dims if d.name == "prompt_depth"), None)
    points = []
    for t in study.records:
        if t.status == "complete" and t.test_dice is not None:
            depth = t.config.get("prompt_depth")
            if dim is None:
                raise ConfigError("the search space has no prompt_depth dimension")
            if type(depth) is not int or not dim.low <= depth <= dim.high:
                raise ConfigError(f"trial {t.trial_id} has prompt_depth {depth!r}, "
                                  f"not an integer in [{dim.low}, {dim.high}]")
            if not isinstance(t.test_dice, (int, float)) or not 0.0 <= t.test_dice <= 1.0:
                raise ConfigError(f"trial {t.trial_id} has test_dice {t.test_dice!r}")
            points.append((float(depth), t.test_dice))
    return {"points": points, "fit": linear_fit(points)}


def summary_rows(entries: list[dict]) -> list[dict]:
    """Per-strategy best test dice per task, with mean and population std
    across tasks.  ``entries`` items: {strategy, task, test_dice}."""
    by_strategy: dict[str, dict[str, float]] = {}
    for e in entries:
        tasks = by_strategy.setdefault(e["strategy"], {})
        prev = tasks.get(e["task"])
        if prev is None or e["test_dice"] > prev:
            tasks[e["task"]] = e["test_dice"]
    rows = []
    for strategy in sorted(by_strategy):
        tasks = by_strategy[strategy]
        vals = np.array(list(tasks.values()), dtype=np.float64)
        rows.append({
            "strategy": strategy,
            "per_task": dict(sorted(tasks.items())),
            "mean": float(vals.mean()),
            "std": float(vals.std()) if len(vals) > 1 else None,
        })
    return rows


def render_summary(rows: list[dict]) -> str:
    lines = [f"{'strategy':<18} {'mean':>8} {'std':>8}  per-task"]
    for r in rows:
        std = f"{r['std']:.4f}" if r["std"] is not None else ""
        per_task = " ".join(f"{k}={v:.4f}" for k, v in r["per_task"].items())
        lines.append(f"{r['strategy']:<18} {r['mean']:>8.4f} {std:>8}  {per_task}")
    return "\n".join(lines)


def summary_csv(rows: list[dict]) -> str:
    out = ["strategy,mean,std"]
    for r in rows:
        std = "" if r["std"] is None else f"{r['std']:.6f}"
        out.append(f"{r['strategy']},{r['mean']:.6f},{std}")
    return "\n".join(out)


# -- sampler quality check ---------------------------------------------------


def quadratic_objective(cfg: dict) -> float:
    """Clipped quadratic response surface used to compare the guided sampler
    against pure random search.  The quadratic rises above 1 near its optimum,
    so clipping leaves a plateau of maximal value that both samplers can
    reach; the comparison then checks the guided sampler never does worse."""
    x = np.log10(cfg["learning_rate"])
    w = np.log10(cfg["weight_decay"])
    d = float(cfg["prompt_depth"])
    val = 1.08 - 0.15 * (x + 3.0) ** 2 - 0.08 * (w + 3.5) ** 2 - 0.05 * (d - 2.0) ** 2
    return float(np.clip(val, 0.0, 1.0))


def compare_tpe_random(strategy: str = "coop", n_trials: int = 20,
                       n_reps: int = 10, seed: int = 0,
                       depth_max: int = 3) -> dict:
    space = default_search_space(depth_max)

    def run(rng, guided: bool) -> float:
        history: list[TrialRecord] = []
        for i in range(n_trials):
            cfg = (sample_trial(space, strategy, history, rng) if guided
                   else {d.name: _uniform_draw(d, rng) for d in space.dims_for(strategy)})
            val = quadratic_objective(cfg)
            history.append(TrialRecord(i, cfg, val, val, "complete", 0))
        return max(t.val_dice for t in history)

    tpe_best, rand_best = [], []
    for rep in range(n_reps):
        tpe_best.append(run(np.random.default_rng([seed, rep, 0]), True))
        rand_best.append(run(np.random.default_rng([seed, rep, 1]), False))
    return {
        "tpe_best": tpe_best,
        "random_best": rand_best,
        "tpe_median": float(np.median(tpe_best)),
        "random_median": float(np.median(rand_best)),
    }
