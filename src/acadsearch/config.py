"""The run configuration: defaults, config files and ``--set`` overrides.

A value's JSON type is checked against its key's default as it is merged,
and its range against ``CONFIG_RULES`` by :func:`check_config`.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
from pathlib import Path

from . import corpus as corpus_mod
from .errors import ConfigError
from .kg_embed import KG_MODELS
from .user_models import KG_METRICS, USER_CHANNELS, AggregationMode

DEFAULT_CONFIG: dict = {
    "seed": 7,
    "paths": {"workdir": "work", "corpus": None, "authors": None},
    # every generator knob is overridable; values are the dataclass defaults
    "synth": {f.name: (list(f.default) if isinstance(f.default, tuple)
                       else f.default)
              for f in dataclasses.fields(corpus_mod.SynthConfig)},
    "split": {
        # cutoff_year null = 80th percentile of publication years
        "cutoff_year": None,
        "max_train_queries": 6000, "max_val_queries": 700,
        "max_test_queries": 1000,
    },
    "bm25": {"k1": 0.9, "b": 0.4, "depth": 100},
    "encoder": {
        # desk-scale defaults; full-scale transformer reference settings are
        # 10 epochs, lr 5e-5, batch 256, with embeddings then dropped in via
        # the precomputed-embedding loader
        "dim": 64, "buckets": 65536, "epochs": 10, "lr": 1e-3,
        "batch_size": 128, "margin": 1.0, "weight_decay": 0.01,
        "max_positives_per_query": 3,
        # encoder trains only on queries at least this many years before the
        # cutoff, so validation measures generalization to unseen documents
        # the same way the test split does
        "train_year_gap": 2,
    },
    "kg": {"include_venue": True, "include_affiliation": True,
           "include_self_citations": False},
    "kg_train": {
        # full-scale reference: 100 epochs at batch 16384, same learning rate
        "model": "transh", "margin": 1.0, "lr": 1e-3, "epochs": 50,
        "batch_size": 4096, "constraint_weight": 0.25, "constraint_eps": 1e-3,
        "weight_decay": 0.01,
    },
    "fusion": {"grid_step": 0.05, "user_channel": "kg", "aggregation": "max",
               "user_metric": "cosine", "include_transe": True},
    "eval": {"permutations": 10000},
}


def _one_of(choices) -> tuple:
    return lambda v, _: v in choices, f"one of {', '.join(choices)}"


# key -> (test of its value and the value's section, what a legal value is) for
# each key that takes only some values of its type; check_config runs them in order
CONFIG_RULES: dict[str, tuple] = {
    **dict.fromkeys(["seed", "synth.refs_mean", "synth.refs_max",
                     "encoder.epochs", "encoder.weight_decay",
                     "encoder.train_year_gap", "kg_train.epochs",
                     "kg_train.constraint_weight", "kg_train.constraint_eps",
                     "kg_train.weight_decay"],
                    (lambda v, _: 0 <= v < math.inf, "finite and >= 0")),
    **dict.fromkeys(["synth.n_authors", "synth.n_venues", "synth.n_affiliations",
                     "synth.n_topics", "synth.n_subtopics",
                     "split.max_train_queries", "split.max_val_queries",
                     "split.max_test_queries", "bm25.depth", "encoder.dim",
                     "encoder.buckets", "encoder.max_positives_per_query",
                     "kg_train.batch_size", "eval.permutations"],
                    (lambda v, _: v >= 1, ">= 1")),
    **dict.fromkeys(["synth.n_docs", "encoder.batch_size"], (lambda v, _: v >= 2, ">= 2")),
    **dict.fromkeys(["bm25.k1", "encoder.lr", "encoder.margin", "kg_train.lr",
                     "kg_train.margin"],
                    (lambda v, _: 0 < v < math.inf, "finite and > 0")),
    **dict.fromkeys(["bm25.b", *(f"synth.{key}" for key in DEFAULT_CONFIG["synth"]
                                 if key.endswith("_prob"))],
                    (lambda v, _: 0 <= v <= 1, "in [0, 1]")),
    "synth.shared_vocab_frac": (lambda v, _: 0 <= v < 1, "in [0, 1)"),
    **dict.fromkeys(["synth.title_len", "synth.abstract_len"], (
        lambda v, _: 0 <= v[0] <= v[1], "[low, high] with 0 <= low <= high")),
    "synth.year_max": (lambda v, s: v >= s["year_min"], ">= synth.year_min"),
    # after the keys it reads, which are then in range
    "synth.vocab_size": (lambda v, s: (v - int(v * s["shared_vocab_frac"]))
                         // (s["n_topics"] * s["n_subtopics"]) >= 2,
                         "large enough for a synonym pair per subtopic"),
    "kg_train.model": _one_of(KG_MODELS),
    "fusion.user_channel": _one_of(USER_CHANNELS),
    "fusion.aggregation": _one_of([m.value for m in AggregationMode]),
    "fusion.user_metric": _one_of(KG_METRICS),
    # (0, 1] also rules out NaN and infinity; the tolerance is lambda_grid's
    "fusion.grid_step": (lambda v, _: 0 < v <= 1 and abs(round(1 / v) * v - 1) <= 1e-9,
                         "a number in (0, 1] that divides 1"),
}


# the keys whose default is null, with a value of the type they take instead
_NULL_DEFAULTS = {"paths.corpus": "", "paths.authors": "", "split.cutoff_year": 0}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list"}


def _fits(value, default) -> bool:
    """Whether ``value`` has the JSON type of ``default``; an int fits a float."""
    if type(default) is list:
        return (type(value) is list and len(value) == len(default)
                and all(map(_fits, value, default)))
    return type(value) is type(default) or (type(default) is float
                                            and type(value) is int)


def _merge(dst: dict, src: dict, prefix: str = "",
           defaults: dict = DEFAULT_CONFIG) -> None:
    """Set each of ``src``'s values in ``dst``; a value must take the type of
    its key's default, or be null where the default is null."""
    for key, value in src.items():
        name = prefix + key
        if key not in dst:
            raise ConfigError(f"unknown config key {name!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {name!r} cannot be set to "
                                  f"{value!r}")
            _merge(dst[key], value, name + ".", default)
            continue
        nullable = name in _NULL_DEFAULTS
        default = _NULL_DEFAULTS.get(name, default)
        if not (_fits(value, default) or nullable and value is None):
            raise ConfigError(
                f"config key {name!r} must be {'null or ' * nullable}"
                f"{_TYPE_NAMES[type(default)]} (default {defaults[key]!r}); "
                f"got {value!r}")
        dst[key] = value


def merge_config(overrides: dict | None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if overrides:
        _merge(cfg, overrides)
    return cfg


def load_config(path: str | Path | None, sets: list[str] | None = None) -> dict:
    """Config file plus `section.key=value` command-line overrides."""
    overrides: dict = {}
    if path is not None:
        try:
            overrides = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:   # ValueError: bad JSON or UTF-8
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        if not isinstance(overrides, dict):
            raise ConfigError(f"config {path} is not a JSON object")
    cfg = merge_config(overrides)
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(dotted.split(".")):
            value = {part: value}
        _merge(cfg, value)
    return cfg


def check_config(cfg: dict) -> None:
    """ConfigError naming the first key, in CONFIG_RULES order, whose value
    breaks its rule."""
    for key, (legal, rule) in CONFIG_RULES.items():
        section, _, leaf = key.rpartition(".")
        values = cfg[section] if section else cfg
        if not legal(value := values[leaf], values):
            raise ConfigError(f"config key {key!r} must be {rule}; got {value!r}")
