"""What the traced run wraps, and how its spans become per-layer metrics.

Each target is the name a caller looks up at call time, so the span sits on
the boundary between two layers. Span names are ``<layer>.<what>``; the
layer is the ``vfsynth`` module the time is charged to.
"""

from __future__ import annotations

import statistics


def _message(direction):
    def hook(tracer, msg, _args):
        arrays = [v for v in getattr(msg, "__dict__", {}).values() if hasattr(v, "nbytes")]
        tracer.count(f"fedgan.msgs_{direction}")
        tracer.count(f"fedgan.bytes_{direction}", sum(a.nbytes for a in arrays))
    return hook


def _forest(tracer, forest, _args):
    trees = list(getattr(forest, "trees", ()))
    tracer.count("forest.trees", len(trees))
    try:
        tracer.count("forest.nodes", sum(len(t.feature) for t in trees))
    except (AttributeError, TypeError):
        pass  # a different tree layout: node count unknown


# (target, span name or None, result hook or None)
TRACE_TARGETS = [
    ("vfsynth.fedgan:Trainer.run_epoch", "fedgan.run_epoch", None),
    ("vfsynth.fedgan:Trainer.discriminator_step", "fedgan.disc_step", None),
    ("vfsynth.fedgan:Trainer.generator_step", "fedgan.gen_step", None),
    ("vfsynth.fedgan:Server.disc_step", "fedgan.server", None),
    ("vfsynth.fedgan:Server.gen_scores", "fedgan.server", None),
    ("vfsynth.fedgan:Server.apply_update", "fedgan.server", None),
    ("vfsynth.fedgan:generate_from", "fedgan.sample", None),
    ("vfsynth.fedgan:train", "fedgan.train", None),
    ("vfsynth.fedgan:FeatureUp", None, _message("up")),
    ("vfsynth.fedgan:FeatureGradDown", None, _message("down")),
    ("vfsynth.nn:forward", "nn.forward", None),
    ("vfsynth.audit:nn_forward", "nn.forward", None),
    ("vfsynth.nn:backward", "nn.backward", None),
    ("vfsynth.nn:gradient_penalty", "nn.gp", None),
    ("vfsynth.nn:adam_step", "nn.adam", None),
    ("vfsynth.fedgan:apply_mechanism", "dp.mechanism", None),
    ("vfsynth.dp:calibrate", "dp.calibrate", None),
    ("vfsynth.dp:budget_report", "dp.calibrate", None),
    ("vfsynth.fedgan:frechet_distance", "metrics.fd", None),
    ("vfsynth.metrics:frechet_distance", "metrics.fd", None),
    ("vfsynth.fedgan:stats_from_matrix", "metrics.stats", None),
    ("vfsynth.metrics:dataset_stats", "metrics.stats", None),
    ("vfsynth.metrics:utility_fourway", "metrics.utility", None),
    ("vfsynth.metrics:jacobi_eigh", "kernels.eigh", None),
    ("vfsynth.forest:best_split", "kernels.split", None),
    ("vfsynth.audit:nearest_neighbor_distances", "kernels.nn_dist", None),
    ("vfsynth.metrics:train_forest", "forest.fit", _forest),
    ("vfsynth.audit:train_forest", "forest.fit", _forest),
    ("vfsynth.metrics:predict", "forest.predict", None),
    ("vfsynth.audit:predict_scores", "forest.predict", None),
    ("vfsynth.audit:find_vulnerable_nn", "audit.select", None),
    ("vfsynth.audit:train_shadows_assd", "audit.shadows", None),
    ("vfsynth.audit:train_shadows_asif", "audit.shadows", None),
    ("vfsynth.audit:run_attack", "audit.attack", None),
    ("vfsynth.audit:_assd_job", "audit.job", None),
    ("vfsynth.audit:_asif_job", "audit.job", None),
    ("vfsynth.data:load_csv", "data.load", None),
    ("vfsynth.data:fit_encoder", "data.load", None),
    ("vfsynth.data:encode", "data.load", None),
    ("vfsynth.data:decode", "data.load", None),
    ("vfsynth.fedgan:partition", "data.load", None),
    ("vfsynth.cli:write_checkpoint", "cli.write", None),
    ("vfsynth.fedgan:TrainLog.to_csv", "cli.write", None),
    ("vfsynth.cli:_write_encoder", "cli.write", None),
    ("vfsynth.cli:_write_manifest", "cli.write", None),
    ("vfsynth.cli:_write_feature_csv", "cli.write", None),
]

LAYERS = ("cli", "fedgan", "nn", "dp", "metrics", "kernels", "forest", "audit", "data")

# Per-layer metrics of one traced operation, in report order. ``_ms`` values
# are inclusive times at a boundary (they may overlap: nn.gp contains its own
# nn.forward calls); ``self.<layer>_ms`` are exclusive and, with
# ``trace.unattributed_ms``, add up to ``trace.run_s``.
PER_OP = [
    ("trace.run_s", "s"),
    ("trace.unattributed_ms", "ms"),
    ("trace.absent_targets", "count"),
    *[(f"self.{layer}_ms", "ms") for layer in LAYERS],
    ("fedgan.epochs", "count"),
    ("fedgan.disc_step_ms", "ms"),
    ("fedgan.gen_step_ms", "ms"),
    ("fedgan.quality_ms", "ms"),
    ("fedgan.server_ms", "ms"),
    ("fedgan.epoch_ms_p50", "ms"),
    ("fedgan.epoch_ms_p95", "ms"),
    ("fedgan.msgs_per_epoch", "count"),
    ("fedgan.bytes_up_per_epoch", "bytes"),
    ("fedgan.bytes_down_per_epoch", "bytes"),
    ("nn.forward_calls", "count"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_calls", "count"),
    ("nn.backward_ms", "ms"),
    ("nn.gp_calls", "count"),
    ("nn.gp_ms", "ms"),
    ("nn.adam_calls", "count"),
    ("nn.adam_ms", "ms"),
    ("dp.mechanism_calls", "count"),
    ("dp.mechanism_ms", "ms"),
    ("dp.calibrate_ms", "ms"),
    ("metrics.fd_calls", "count"),
    ("metrics.fd_ms", "ms"),
    ("metrics.utility_ms", "ms"),
    ("kernels.eigh_calls", "count"),
    ("kernels.eigh_ms", "ms"),
    ("kernels.split_calls", "count"),
    ("kernels.split_ms", "ms"),
    ("kernels.nn_dist_ms", "ms"),
    ("forest.trees", "count"),
    ("forest.nodes", "count"),
    ("forest.fit_ms", "ms"),
    ("forest.predict_ms", "ms"),
    ("forest.us_per_node", "us"),
    ("audit.select_ms", "ms"),
    ("audit.shadows_ms", "ms"),
    ("audit.attack_ms", "ms"),
    ("audit.jobs", "count"),
    ("audit.job_ms", "ms"),
    ("data.load_ms", "ms"),
    ("cli.write_ms", "ms"),
]

# Per-layer metrics that compare the traced operations with the untraced
# ones of the same run.
PER_RUN = [
    ("trace.overhead_s", "s"),
    ("audit.pool_speedup", "ratio"),
    ("proc.cpu_per_wall", "ratio"),
]


def _quantile(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def op_metrics(stats, setup_stats, counters, run_s, absent) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``stats`` is :func:`tracer.analyse` over the timed section, ``setup_stats``
    over the set-up before it.
    """
    def get(name):
        return stats.get(name)

    def calls(name):
        st = get(name)
        return st.calls if st else 0

    def incl_ms(name, within=stats):
        st = within.get(name)
        return st.inclusive * 1e3 if st else 0.0

    def durations(name):
        st = get(name)
        return st.durations if st else []

    epochs = calls("fedgan.run_epoch")
    per_epoch = (lambda v: v / epochs) if epochs else (lambda v: 0.0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, st in stats.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + st.self_time * 1e3
    nodes = counters.get("forest.nodes", 0)
    jobs = durations("audit.job")
    out = {
        "trace.run_s": run_s,
        "trace.unattributed_ms": run_s * 1e3 - sum(layer_self.values()),
        "trace.absent_targets": len(absent),
        **{f"self.{layer}_ms": layer_self[layer] for layer in LAYERS},
        "fedgan.epochs": epochs,
        "fedgan.disc_step_ms": incl_ms("fedgan.disc_step"),
        "fedgan.gen_step_ms": incl_ms("fedgan.gen_step"),
        "fedgan.quality_ms": incl_ms("fedgan.run_epoch")
        - incl_ms("fedgan.disc_step") - incl_ms("fedgan.gen_step"),
        "fedgan.server_ms": incl_ms("fedgan.server"),
        "fedgan.epoch_ms_p50": _quantile(durations("fedgan.run_epoch"), 0.5) * 1e3,
        "fedgan.epoch_ms_p95": _quantile(durations("fedgan.run_epoch"), 0.95) * 1e3,
        "fedgan.msgs_per_epoch": per_epoch(
            counters.get("fedgan.msgs_up", 0) + counters.get("fedgan.msgs_down", 0)
        ),
        "fedgan.bytes_up_per_epoch": per_epoch(counters.get("fedgan.bytes_up", 0)),
        "fedgan.bytes_down_per_epoch": per_epoch(counters.get("fedgan.bytes_down", 0)),
        "dp.calibrate_ms": incl_ms("dp.calibrate", setup_stats),
        "metrics.utility_ms": incl_ms("metrics.utility"),
        "kernels.nn_dist_ms": incl_ms("kernels.nn_dist"),
        "forest.trees": counters.get("forest.trees", 0),
        "forest.nodes": nodes,
        "forest.fit_ms": incl_ms("forest.fit"),
        "forest.predict_ms": incl_ms("forest.predict"),
        "forest.us_per_node": incl_ms("forest.fit") * 1e3 / nodes if nodes else 0.0,
        "audit.select_ms": incl_ms("audit.select"),
        "audit.shadows_ms": incl_ms("audit.shadows"),
        "audit.attack_ms": incl_ms("audit.attack"),
        "audit.jobs": len(jobs),
        "audit.job_ms": statistics.median(jobs) * 1e3 if jobs else 0.0,
        "data.load_ms": incl_ms("data.load", setup_stats),
        "cli.write_ms": incl_ms("cli.write"),
    }
    for key, span in (("nn.forward", "nn.forward"), ("nn.backward", "nn.backward"),
                      ("nn.gp", "nn.gp"), ("nn.adam", "nn.adam"),
                      ("dp.mechanism", "dp.mechanism"), ("metrics.fd", "metrics.fd"),
                      ("kernels.eigh", "kernels.eigh"), ("kernels.split", "kernels.split")):
        out[f"{key}_calls"] = calls(span)
        out[f"{key}_ms"] = incl_ms(span)
    return out
