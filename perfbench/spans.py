"""Span tracing around the public functions of each acadsearch layer.

The tracer replaces each traced function wherever a module has bound it
(``pipeline.py`` imports names with ``from .x import f``, so the same
function object sits in several module namespaces) and each traced method
on its class. Every call records a span: name, parent span, start and end.
Spans stay in memory until the run ends; then they are written out and
reduced to per-layer statistics. Only one thread runs the pipeline, so a
plain stack gives each span its parent.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (layer, module, function or Class.method)
TRACED = (
    ("corpus", "acadsearch.corpus.synth", "generate_synthetic"),
    ("corpus", "acadsearch.corpus.io", "load_corpus"),
    ("corpus", "acadsearch.corpus.qrels", "build_qrels"),
    ("lexical_index", "acadsearch.lexical_index", "build_index"),
    ("lexical_index", "acadsearch.lexical_index", "retrieve_topk"),
    ("lexical_index", "acadsearch.lexical_index", "load_index"),
    ("dense_encoder", "acadsearch.dense_encoder", "train_encoder"),
    ("dense_encoder", "acadsearch.dense_encoder", "embed_corpus"),
    ("dense_encoder", "acadsearch.dense_encoder", "HashedBowEncoder.encode"),
    ("optim", "acadsearch.optim", "AdamW.step"),
    ("kg_builder", "acadsearch.kg_builder", "build_catalog"),
    ("kg_builder", "acadsearch.kg_builder", "build_kg"),
    ("kg_embed", "acadsearch.kg_embed", "train_kg"),
    ("kg_embed", "acadsearch.kg_embed", "load_kg_embeddings"),
    ("user_models", "acadsearch.user_models", "kg_user_score"),
    ("user_models", "acadsearch.user_models", "attention_user_score"),
    ("user_models", "acadsearch.user_models", "self_citation_score"),
    ("user_models", "acadsearch.user_models", "mean_user_vector"),
    ("user_models", "acadsearch.user_models", "build_user_contexts"),
    ("graph_baselines", "acadsearch.graph_baselines", "CitationGraph.from_corpus"),
    ("graph_baselines", "acadsearch.graph_baselines", "pagerank_by_ordinal"),
    ("fusion_eval", "acadsearch.fusion_eval", "tune_lambdas"),
    ("fusion_eval", "acadsearch.fusion_eval", "fuse"),
    ("fusion_eval", "acadsearch.fusion_eval", "evaluate_run"),
    ("fusion_eval", "acadsearch.fusion_eval", "significance_test"),
)

# Training steps are private functions; they are counted, not timed. A
# missing one (renamed by a later change) counts zero.
COUNTED = (
    ("count.encoder_steps", "acadsearch.dense_encoder", "_encoder_step"),
    ("count.kg_steps", "acadsearch.kg_embed", "_kg_step"),
)

# AdamW.step is attributed to the trainer that called it.
_ADAMW = "optim.adamw_step"
_TRAINERS = {"dense_encoder.train_encoder": "encoder", "kg_embed.train_kg": "kg"}


def span_name(layer: str, attr: str) -> str:
    if attr == "AdamW.step":
        return _ADAMW
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _timed(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return wrapper

    def _counted(self, key: str, fn):
        """Counts calls per top-level span, e.g. ``counts["body"][key]``."""
        counts, spans, stack = self.counts, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = spans[stack[0]][0] if stack else ""
            counts.setdefault(top, Counter())[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    # -- patching -------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` in every acadsearch module that bound it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "acadsearch"
                                   or mod_name.startswith("acadsearch.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        importlib.import_module("acadsearch.pipeline")
        for layer, mod_name, attr in TRACED:
            mod = importlib.import_module(mod_name)
            name = span_name(layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._timed(name, raw.__func__))
                else:
                    new = self._timed(name, raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self._timed(name, original))
        for key, mod_name, attr in COUNTED:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is not None:
                self._rebind(original, self._counted(key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"run_id": self.run_id,
                                 "fields": ["id", "parent", "name", "start",
                                            "end"]}) + "\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end]) + "\n")

    def stats(self, root: str) -> dict[str, dict]:
        """Per span name under the top-level span ``root``: inclusive seconds,
        self seconds (minus the time direct child spans cover), call count
        and every duration in ms."""
        spans = self.spans
        top = [0] * len(spans)
        child_time = [0.0] * len(spans)
        out: dict[str, dict] = {}
        for i, (name, parent, start, end) in enumerate(spans):
            top[i] = i if parent < 0 else top[parent]
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, start, end) in enumerate(spans):
            if spans[top[i]][0] != root or parent < 0:
                continue
            if name == _ADAMW:
                name = f"{name}.{self._trainer(i)}"
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                          "durations_ms": []})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
            entry["durations_ms"].append((end - start) * 1e3)
        return out

    def _trainer(self, i: int) -> str:
        parent = self.spans[i][1]
        while parent >= 0:
            label = _TRAINERS.get(self.spans[parent][0])
            if label:
                return label
            parent = self.spans[parent][1]
        return "other"
