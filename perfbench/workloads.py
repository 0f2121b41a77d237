"""The benchmark's workloads: inputs from a seed, timed rounds, checks, metrics.

A run sets up its inputs ``SETUP_REPEATS`` times (``setup_s`` is the median),
then runs whole rounds until the next round would overrun ``--seconds``; at
least one round always runs.  A round is one pass over the workload: the
seven strategies trained and evaluated, or one sweep study.  The outputs of
every round are checked after it, outside the timed part.  A traced run sets
up once and runs round 0 twice instead: with clocks only, then with spans.
"""

from __future__ import annotations

import copy
import gc
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from promptseg import dataio, runner, sweep, training
from promptseg.backbone import tokenize

from . import checks, layers
from .tracing import Tracer

# The slowest steppers (maple, shared-attention) sit apart in the round, so
# the tail of the step times is not drawn from one stretch of the run.
STRATEGIES = ("maple", "coop", "cocoop", "shared-attention", "vpt",
              "deep-textual", "shared-separate")
SETUP_REPEATS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                          # "train" or "sweep"
    overrides: tuple                   # (dotted config key, value) pairs
    seeded_data: bool = True           # data.seed is derive(seed, "data.seed")
    seeded_runs: bool = True           # round r runs with seed derive(seed, "r<r>"),
                                       # else with the config's seed
    min_train_dice: float | None = None


WORKLOADS = {
    "train-fixed": Workload(
        "train-fixed", "train",
        # The default config (seed 0) on the criterion-6 task (data seed 7,
        # align 8), whatever the workload seed: how fast coop reaches 0.90
        # train dice depends strongly on its prompt-init and sample-order seed
        # (one seed in about ninety is still at 0.84 after 100 steps), so the
        # criterion-6 property holds at a benchmark-sized budget only for a
        # fixed one.  Seed 0 is at >= 0.999 for every strategy by step 60.
        (("data.seed", "7"), ("data.align", "8"), ("train.steps", "60")),
        seeded_data=False, seeded_runs=False,
        min_train_dice=checks.FIXED_MIN_TRAIN_DICE),
    "train-augment": Workload(
        "train-augment", "train",
        (("data.n_classes", "7"), ("data.align", "8"), ("train.augment", "true"),
         ("train.micro_batch", "1"), ("train.grad_accum", "8"), ("train.steps", "35"))),
    "sweep": Workload(
        "sweep", "sweep",
        (("strategy", "shared-attention"),
         ("backbone.image_size", "16"), ("data.image_size", "16"),
         ("data.align", "4"), ("data.train", "8"), ("data.val", "4"), ("data.test", "4"),
         ("train.micro_batch", "2"), ("train.grad_accum", "1"),
         ("train.eval_every", "100"), ("sweep.steps", "8"), ("sweep.n_trials", "16")),
        # The sampler keeps the config's seed in every run and round: a
        # trial's cost follows its sampled depth and widths, and a new mix of
        # them per seed would swamp the bounds.  The fixture follows the seed.
        seeded_runs=False),
}


def derive(seed: int, salt: str) -> int:
    """A 31-bit value drawn from the workload seed, one stream per ``salt``."""
    return int(np.random.default_rng([seed, *salt.encode()]).integers(2**31))


def make_config(w: Workload, seed: int) -> dict:
    overrides = list(w.overrides)
    if w.seeded_data:
        overrides.append(("data.seed", str(derive(seed, "data.seed"))))
    return runner.load_config(overrides=overrides)


def with_strategy(cfg: dict, strategy: str) -> dict:
    out = copy.deepcopy(cfg)
    out["strategy"] = strategy
    return out


@dataclass
class Outcome:
    """What the timed rounds of a run leave for the metrics."""
    setup_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    trial_s: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)     # why operations failed
    failures: list[str] = field(default_factory=list)   # correctness failures


class Run:
    """One benchmark process: a workload, a seed and an output directory."""

    def __init__(self, w: Workload, seed: int, out: Path):
        self.w = w
        self.seed = seed
        self.out = out
        self.cfg = make_config(w, seed)
        self.strategies = STRATEGIES if w.kind == "train" else (self.cfg["strategy"],)
        self.use_upsampler = self.cfg["backbone"]["use_upsampler"]
        self.dataset = None
        self.before: dict[str, str] = {}
        self.grad_errors: list[float] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Dataset generation (and, for the sweep, the fixture round trip),
        backbone build and prompt init for every strategy; returns seconds."""
        gc.collect()
        t0 = time.perf_counter()
        data = runner.get_dataset(self.cfg)
        if self.w.kind == "sweep":
            fixture = self.out / "fixture"
            dataio.save_dataset(fixture, data)
            data = dataio.load_dataset(fixture)
        models = {}
        for s in self.strategies:
            cfg = with_strategy(self.cfg, s)
            models[s] = runner.build_backbone(cfg)
            runner.build_state(cfg, models[s], seed=self.run_seed(0))
        elapsed = time.perf_counter() - t0
        self.dataset = data
        self.before = {s: checks.frozen_hash(m, self.use_upsampler)
                       for s, m in models.items()}
        return elapsed

    def check_fixture(self) -> list[str]:
        """The saved fixture reads back as the generated dataset: same splits,
        phrases, classes and masks; images within half a 16-bit step."""
        generated = runner.get_dataset(self.cfg)
        out = []
        for split, samples in generated.items():
            loaded = self.dataset.get(split, [])
            if len(loaded) != len(samples):
                out.append(f"fixture split {split}: {len(loaded)} != {len(samples)}")
                continue
            for i, (a, b) in enumerate(zip(samples, loaded)):
                if (a.phrase, a.class_id) != (b.phrase, b.class_id) or not np.array_equal(
                        a.mask, b.mask) or np.max(np.abs(a.image - b.image)) > 0.5 / 65535:
                    out.append(f"fixture {split}[{i}] differs from the generated sample")
        return out

    # -- rounds ------------------------------------------------------------

    def round(self, r: int, tracer: Tracer, outcome: Outcome, label: str = "") -> float:
        """Round ``r`` (its seeds follow from ``r``), timed; checked after."""
        fn = self._train_round if self.w.kind == "train" else self._sweep_round
        t0 = time.perf_counter()
        with tracer:
            results = fn(r, label or f"r{r}", tracer, outcome)
        wall = time.perf_counter() - t0
        check = self._check_train if self.w.kind == "train" else self._check_sweep
        for res in results:
            outcome.failures.extend(check(res))
        return wall

    def run_seed(self, r: int) -> int:
        """The seed of round ``r`` for run_training or run_study."""
        return derive(self.seed, f"r{r}") if self.w.seeded_runs else self.cfg["seed"]

    def _train_round(self, r, label, tracer, outcome):
        run_seed = self.run_seed(r)
        results = []
        for s in self.strategies:
            tracer.begin_run(f"{label}/{s}")
            cfg = with_strategy(self.cfg, s)
            t0 = time.perf_counter()
            try:
                artifacts, test_dice, model, state = runner.run_training(
                    cfg, out_dir=self.out / label / s, dataset=self.dataset,
                    seed=run_seed)
            except Exception as exc:  # counted as a failed operation, run goes on
                outcome.failed += 1
                outcome.errors.append(f"{s}: run_training raised {exc!r}")
                continue
            outcome.trial_s.append(time.perf_counter() - t0)
            held_out = training.evaluate(model, state, self.dataset["test"])
            results.append((s, cfg, artifacts, test_dice, held_out, model, state))
        return results

    def _sweep_round(self, r, label, tracer, outcome):
        tracer.begin_run(f"{label}/{self.cfg['strategy']}")
        path = self.out / label / "study.jsonl"
        path.parent.mkdir(parents=True)
        n_saved = len(tracer.saves)
        t0 = time.perf_counter()
        study = sweep.run_study(
            self.cfg["strategy"], runner.sweep_space(self.cfg),
            self.cfg["sweep"]["n_trials"], runner.make_objective(self.cfg, self.dataset),
            seed=self.run_seed(r), out_path=path)
        # one study-file rewrite ends each trial
        marks = [t0, *tracer.saves[n_saved:]]
        outcome.trial_s.extend(b - a for a, b in zip(marks, marks[1:]))
        for rec in study.records:
            if rec.status != "complete":
                outcome.failed += 1
                outcome.errors.append(f"trial {rec.trial_id}: {rec.config.get('_error')}")
        return [(study, path)]

    # -- checks ------------------------------------------------------------

    def _check_train(self, res) -> list[str]:
        s, cfg, art, test_dice, held_out, model, state = res
        t = cfg["train"]
        out = checks.check_frozen(self.before[s], model, self.use_upsampler)
        out += checks.check_losses_finite(art.metrics)
        samples = self.dataset["train"]
        logits = [model.forward(x.image, phrase_tokens(model, x.phrase), state).data
                  for x in samples]
        out += checks.check_dice(checks.mean_dice(logits, [x.mask for x in samples]),
                                 art.final_train_dice, f"{s} final_train_dice")
        if held_out != test_dice:
            out.append(f"{s}: held-out evaluate {held_out!r} != run_training {test_dice!r}")
        params = {f"prompt.{n}": p for n, p in state.params.items()}
        if self.use_upsampler:
            params.update((n, model.params[n]) for n in checks.UPSAMPLER)
        out += checks.check_checkpoint(art.checkpoint_path,
                                       {n: p.data for n, p in params.items()})
        err = gradient_error(model, state, samples[:2], t, self.seed, list(params.values()))
        self.grad_errors.append(err)
        out += checks.check_gradient(err, s)
        if self.w.min_train_dice is not None and not (
                art.final_train_dice >= self.w.min_train_dice):
            out.append(f"{s}: final train dice {art.final_train_dice:.4f} "
                       f"< {self.w.min_train_dice}")
        return [f"{self.w.name}: {m}" for m in out]

    def _check_sweep(self, res) -> list[str]:
        study, path = res
        out = checks.check_study(study, self.cfg["sweep"]["n_trials"], path)
        return [f"{self.w.name}: {m}" for m in out]


def phrase_tokens(model, phrase: str) -> np.ndarray:
    return tokenize(phrase, model.cfg.max_text_len)


def tape_gradients(model, state, batch, t: dict, params) -> list[np.ndarray]:
    """The program's gradient of the mean combined loss over ``batch``."""
    for p in params:
        p.grad = None
    loss_cfg = training.LossConfig(lambda_dice=t["lambda_dice"], lambda_ce=t["lambda_ce"],
                                   smooth=t["smooth"])
    total = None
    for x in batch:
        logits = model.forward(x.image, phrase_tokens(model, x.phrase), state)
        term = training.combined_loss(logits, x.mask, loss_cfg)
        total = term if total is None else total + term
    (total * (1.0 / len(batch))).backward()
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    return grads


def own_batch_loss(model, state, batch, t: dict) -> float:
    return float(np.mean([
        checks.own_loss(model.forward(x.image, phrase_tokens(model, x.phrase), state).data,
                        x.mask, t["lambda_dice"], t["lambda_ce"], t["smooth"])
        for x in batch]))


def gradient_error(model, state, batch, t: dict, seed: int, params, grads=None) -> float:
    """Directional finite difference of the benchmark's own loss against the
    tape gradient (``grads`` replaces the tape's, for testing the check)."""
    if grads is None:
        grads = tape_gradients(model, state, batch, t, params)
    return checks.directional_error(lambda: own_batch_loss(model, state, batch, t),
                                    params, grads, np.random.default_rng([seed, 99]))


# -- metrics -------------------------------------------------------------------


def end_to_end(run: Run, tracer: Tracer, outcome: Outcome) -> dict:
    steps = np.array([s.seconds for s in tracer.steps])
    batch = run.cfg["train"]["micro_batch"] * run.cfg["train"]["grad_accum"]
    eval_n = sum(n for _, n, _ in tracer.evals)
    eval_s = sum(sec for _, _, sec in tracer.evals)
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "run_s": (statistics.median(outcome.round_s), "s"),
        "train_samples_per_s": (batch * len(steps) / steps.sum(), "samples/s"),
        "step_ms_p50": (1e3 * float(np.percentile(steps, 50)), "ms"),
        "step_ms_p90": (1e3 * float(np.percentile(steps, 90)), "ms"),
        "eval_samples_per_s": (eval_n / eval_s, "samples/s"),
        "trial_s_p50": (statistics.median(outcome.trial_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Run one workload; returns the result object printed as the last line,
    plus ``lines`` (the report), ``failures`` (of checks) and ``errors`` (of
    operations)."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    run = Run(w, seed, out)
    outcome = Outcome()
    lines = []
    for _ in range(SETUP_REPEATS if not trace else 1):
        outcome.setup_s.append(run.setup())
    if w.kind == "sweep":
        outcome.failures.extend(run.check_fixture())
    clock = Tracer(spans=False)
    if not trace:
        r = 0
        while True:
            outcome.round_s.append(run.round(r, clock, outcome))
            r += 1
            if sum(outcome.round_s) + outcome.round_s[-1] > seconds:
                break
        metrics = end_to_end(run, clock, outcome)
        tracers = [clock]
        lines.append(f"rounds {r}  timed steps {len(clock.steps)}  "
                     f"evaluated samples {sum(n for _, n, _ in clock.evals)}  "
                     f"trials/experiments {len(outcome.trial_s)}")
    else:
        # the same round twice: once with clocks only, once with spans
        untraced = run.round(0, clock, outcome, "untraced")
        spans = Tracer(spans=True)
        with spans:
            run.setup()
        traced = run.round(0, spans, outcome, "traced")
        overhead = traced / untraced - 1.0
        spans.write_spans(out / "spans.json")
        metrics, extra = layers.per_layer(spans, run)
        tracers = [clock, spans]
        lines.append(f"tracing overhead {100 * overhead:+.1f}% "
                     f"(round {untraced:.2f} s untraced, {traced:.2f} s traced)")
        lines.extend(f"layer {k} = {v:.6g} {u}" for k, (v, u) in sorted(extra.items()))
        extra["trace.overhead_pct"] = (100 * overhead, "%")
        _write_json(out / "trace-summary.json", {k: {"value": v, "unit": u}
                                                 for k, (v, u) in extra.items()})
    if run.grad_errors:
        lines.append(f"worst directional-derivative error {max(run.grad_errors):.2e} "
                     f"(tolerance {checks.GRAD_TOL:.0e})")
    # a failed experiment or trial counts once, beside the steps and samples it did
    ops = sum(t.operations() for t in tracers) + (
        len(outcome.trial_s) if w.kind == "sweep" else outcome.failed)
    return {
        "correct": not outcome.failures,
        "attempted": int(ops),
        "failed": int(outcome.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "lines": lines,
        "failures": outcome.failures,
        "errors": outcome.errors,
    }


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

