"""Names, units and directions of every metric the benchmark reports.

End-to-end metrics come from untraced repetitions. Per-layer metrics come
from one traced repetition and are named ``<module>.<function>.<stat>``:

* ``s``: inclusive seconds over all calls;
* ``self_s``: seconds minus the time covered by traced child spans;
* ``calls``: number of calls;
* ``p50_ms``, ``p90_ms``: call-duration percentiles. 90 is the highest
  percentile with at least ten calls beyond it on the workload with the
  fewest ``retrieve_topk`` calls (``query`` scores about 130 queries).

All per-layer values describe the timed body, except
``corpus.generate_synthetic.s``, which describes the traced set-up (the only
place the corpus is generated). A function a workload never calls reads 0.
"""
from __future__ import annotations

import numpy as np

END_TO_END = (
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

PIPELINE_STAGES = ("index", "splits", "train-dense", "embed", "build-kg",
                   "train-kg", "score", "tune", "eval", "ablate")

_SPAN_METRICS = (
    "corpus.generate_synthetic.s",
    "corpus.load_corpus.s", "corpus.load_corpus.calls",
    "corpus.build_qrels.self_s",
    "lexical_index.build_index.s",
    "lexical_index.retrieve_topk.s", "lexical_index.retrieve_topk.calls",
    "lexical_index.retrieve_topk.p50_ms", "lexical_index.retrieve_topk.p90_ms",
    "lexical_index.load_index.s",
    "dense_encoder.train_encoder.s", "dense_encoder.train_encoder.self_s",
    "dense_encoder.embed_corpus.s",
    "dense_encoder.encode.s", "dense_encoder.encode.calls",
    "optim.adamw_step.encoder.s", "optim.adamw_step.encoder.calls",
    "optim.adamw_step.kg.s", "optim.adamw_step.kg.calls",
    "kg_builder.build_catalog.s", "kg_builder.build_catalog.calls",
    "kg_builder.build_kg.s",
    "kg_embed.train_kg.s", "kg_embed.train_kg.self_s", "kg_embed.train_kg.calls",
    "kg_embed.load_kg_embeddings.s", "kg_embed.load_kg_embeddings.calls",
    "user_models.kg_user_score.s", "user_models.kg_user_score.calls",
    "user_models.attention_user_score.s", "user_models.attention_user_score.calls",
    "user_models.self_citation_score.s", "user_models.self_citation_score.calls",
    "user_models.mean_user_vector.s", "user_models.mean_user_vector.calls",
    "user_models.build_user_contexts.s",
    "graph_baselines.from_corpus.s", "graph_baselines.pagerank_by_ordinal.s",
    "fusion_eval.tune_lambdas.s", "fusion_eval.tune_lambdas.calls",
    "fusion_eval.fuse.s", "fusion_eval.fuse.calls",
    "fusion_eval.evaluate_run.s",
    "fusion_eval.significance_test.s", "fusion_eval.significance_test.calls",
) + tuple(f"pipeline.{stage}.{stat}" for stage in PIPELINE_STAGES
          for stat in ("s", "self_s"))

SETUP_SPAN_METRICS = frozenset({"corpus.generate_synthetic.s"})

# Report-only values that repeat exactly for one commit and seed (the host
# calibration and the tracing overhead aside), and the claim margins.
_REPORT = (
    ("trace.overhead_s", "s", "lower"),
    ("host.calib_s", "s", "lower"),
    ("count.encoder_steps", "count", "lower"),
    ("count.kg_steps", "count", "lower"),
    ("count.src_lines", "lines", "lower"),
    ("query.queries_per_s", "1/s", "higher"),
    ("eval.fused_transh.map100", "ratio", "higher"),
    ("eval.fused_transh.ndcg10", "ratio", "higher"),
    ("claim.fused_vs_two_stage.map_gap", "ratio", "higher"),
    ("claim.fused_vs_two_stage.p", "ratio", "lower"),
    ("claim.two_stage_vs_bm25.p", "ratio", "lower"),
    ("claim.ablate.venue_ndcg10_gap", "ratio", "higher"),
    ("claim.ablate.affiliation_ndcg10_gap", "ratio", "higher"),
)

_STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "p50_ms": "ms",
               "p90_ms": "ms"}


def _span_unit(name: str) -> str:
    return _STAT_UNITS[name.rsplit(".", 1)[1]]


PER_LAYER = tuple((name, _span_unit(name), "lower") for name in _SPAN_METRICS) \
    + _REPORT


def span_metrics(body: dict[str, dict], setup: dict[str, dict]) -> dict[str, float]:
    """Per-layer span metrics from Tracer.stats of the body and the set-up."""
    values = {}
    for name in _SPAN_METRICS:
        key, stat = name.rsplit(".", 1)
        entry = (setup if name in SETUP_SPAN_METRICS else body).get(key)
        if entry is None:
            values[name] = 0.0
        elif stat.startswith("p") and stat.endswith("_ms"):
            values[name] = float(np.percentile(entry["durations_ms"],
                                               float(stat[1:-3])))
        else:
            values[name] = float(entry[stat])
    return values
