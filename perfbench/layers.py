"""Per-layer metrics of a traced round, named ``<module>.<function>.<quantity>``.

Per-step figures are charged only to spans inside ``training.train`` and
outside ``training.evaluate``, divided by the optimizer steps of the round;
eval figures are charged to spans inside ``training.evaluate``.
"""

from __future__ import annotations

import statistics

from .tracing import SpanTable, Tracer

# Exercised on every workload, so each reads non-zero on each; these are the
# per_layer metrics of BENCHMARK.json.  The others (per strategy, augment,
# fixture loading, sweep bookkeeping, checkpoint writes) go to the trace
# summary of the workloads that run them.
DECLARED = (
    ("tensor.nodes_per_step", "count"),
    ("tensor.nodes_per_eval_sample", "count"),
    ("tensor.backward.self_ms_per_step", "ms"),
    ("backbone.encode_text.calls_per_step", "count"),
    ("backbone.encode_image.calls_per_step", "count"),
    ("backbone.encode_text.self_ms_per_step", "ms"),
    ("backbone.encode_image.self_ms_per_step", "ms"),
    ("backbone.decode.self_ms_per_step", "ms"),
    ("backbone.decode.nodes_per_call", "count"),
    ("prompts.build_prompts.calls_per_step", "count"),
    ("prompts.build_prompts.self_ms_per_step", "ms"),
    ("training.combined_loss.self_ms_per_step", "ms"),
    ("training.combined_loss.ms_per_step", "ms"),
    ("training.adamw.self_ms_per_step", "ms"),
    ("training.evaluate.ms_per_sample", "ms"),
    ("training.evaluate.samples_per_run", "count"),
    ("training.step_ms.shared-attention", "ms"),
    ("dataio.generate_dataset.ms", "ms"),
    ("runner.build_backbone.ms_per_call", "ms"),
)


def per_layer(tr: Tracer, run) -> tuple[dict, dict]:
    """(declared metrics, every metric) as name -> (value, unit)."""
    tab = SpanTable(tr)
    out: dict[str, tuple[float, str]] = {}

    def ids(name, phase=None, strategy=None):
        label = None if strategy is None else f"traced/{strategy}"
        return tab.select(name, phase, label)

    def step_figures(suffix="", strategy=None):
        steps = len(ids("training.adamw", strategy=strategy))
        for fn in ("backbone.encode_text", "backbone.encode_image"):
            out[f"{fn}.calls_per_step{suffix}"] = (
                len(ids(fn, "step", strategy)) / steps, "count")
        for fn in ("backbone.encode_text", "backbone.encode_image", "backbone.decode"):
            out[f"{fn}.self_ms_per_step{suffix}"] = (
                tab.self_ms[ids(fn, "step", strategy)].sum() / steps, "ms")
        return steps

    steps = step_figures()
    step_spans = [i for i, ph in enumerate(tab.phase) if ph == "step"]
    eval_spans = [i for i, ph in enumerate(tab.phase) if ph == "eval"]
    eval_samples = sum(n for _, n, _ in tr.evals)
    out["tensor.nodes_per_step"] = (tab.excl_nodes[step_spans].sum() / steps, "count")
    out["tensor.nodes_per_eval_sample"] = (
        tab.excl_nodes[eval_spans].sum() / eval_samples, "count")
    for fn in ("tensor.backward", "prompts.build_prompts", "prompts.cocoop_condition",
               "training.combined_loss", "training.adamw"):
        out[f"{fn}.self_ms_per_step"] = (tab.self_ms[ids(fn, "step")].sum() / steps, "ms")
    out["training.combined_loss.ms_per_step"] = (
        tab.ms[ids("training.combined_loss", "step")].sum() / steps, "ms")
    out["prompts.build_prompts.calls_per_step"] = (
        len(ids("prompts.build_prompts", "step")) / steps, "count")
    decode = ids("backbone.decode")
    out["backbone.decode.nodes_per_call"] = (
        tab.incl_nodes[decode].sum() / len(decode), "count")

    # evaluate: the clock saw the same calls, in the same order, as the spans
    evals = ids("training.evaluate")
    out["training.evaluate.ms_per_sample"] = (tab.ms[evals].sum() / eval_samples, "ms")
    in_runs = sum(n for i, (_, n, _) in zip(evals, tr.evals) if tab.in_run_training[i])
    out["training.evaluate.samples_per_run"] = (
        in_runs / len(ids("runner.run_training")), "count")

    for name, per in (("dataio.augment", "ms_per_sample"),
                      ("dataio.load_dataset", "ms"),
                      ("dataio.generate_dataset", "ms"),
                      ("sweep.sample_trial", "ms_per_trial"),
                      ("sweep.save_study", "ms_per_trial"),
                      ("runner.build_backbone", "ms_per_call"),
                      ("checkpoint.save_arrays", "ms_per_call")):
        calls = ids(name)
        if calls:
            out[f"{name}.{per}"] = (float(tab.ms[calls].mean()), "ms")
    if not ids("prompts.cocoop_condition"):
        del out["prompts.cocoop_condition.self_ms_per_step"]

    for s in run.strategies:
        times = [st.seconds for st in tr.steps if tr.run_labels[st.run] == f"traced/{s}"]
        out[f"training.step_ms.{s}"] = (1e3 * statistics.median(times), "ms")
        if len(run.strategies) > 1:
            step_figures(f".{s}", s)

    declared = {name: out[name] for name, _ in DECLARED}
    return declared, {k: (float(v), u) for k, (v, u) in out.items()}
