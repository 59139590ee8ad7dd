"""Stage orchestration: artifacts, manifests, and the end-to-end driver.

Each stage writes its outputs plus a manifest (config hash of the sections
it depends on, content hashes of every workdir file it read) into one
workdir subdirectory. Downstream stages refuse to run against stale or
missing artifacts unless forced; deleting a downstream directory never
invalidates upstream ones.
"""
from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import json
import logging
import math
import os
import resource
import time
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .corpus.io import read_records
from .dense_encoder import (HashedBowEncoder, embed_corpus,
                            load_precomputed_embeddings, train_encoder)
from .errors import (AcadSearchError, ConfigError, DataFormatError,
                     MissingArtifactError, SplitError, StaleArtifactError)
from .fusion_eval import (CandidateList, Lambdas, MetricReport, ablation_report,
                          evaluate_run, fuse, metrics_table,
                          significance_test, tune_lambdas, write_run)
from .graph_baselines import (CitationGraph, pagerank_by_ordinal,
                              popularity_by_ordinal)
from .kg_builder import (EntityCatalog, KGConfig, build_catalog, build_kg,
                         kg_stats, load_triples, save_triples)
from .kg_embed import (KG_MODELS, KGEmbeddings, KGTrainConfig,
                       load_kg_embeddings, save_kg_embeddings, train_kg)
from .lexical_index import (BM25Params, build_index, load_index, retrieve_topk,
                            save_index, tokenize)
from .user_models import (KG_METRICS, USER_CHANNELS, AggregationMode,
                          ChannelInputs, build_user_contexts, user_column)

log = logging.getLogger(__name__)

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
# each key that takes only some values of its type; Pipeline checks them in order
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

# stage name -> (workdir subdirectory, config sections its manifest hashes);
# train-kg writes one subdirectory per KG model under its own. A stage hashes
# exactly the sections its own code reads; upstream ones are checked through
# the upstream manifests (Pipeline._check_fresh).
STAGES: dict[str, tuple[str, tuple[str, ...]]] = {
    "synth": ("corpus", ("seed", "synth")),
    "ingest": ("corpus", ("paths",)),
    "index": ("index", ()),
    "splits": ("splits", ("seed", "split", "bm25")),
    "train-dense": ("dense", ("seed", "encoder")),
    "embed": ("embed", ()),
    "build-kg": ("kg", ("kg",)),
    "train-kg": ("kg_embed", ("seed", "kg", "kg_train")),
    "score": ("score", ("bm25",)),
    "tune": ("tune", ("fusion", "kg", "kg_train")),
    "eval": ("eval", ("seed", "eval", "fusion", "kg", "kg_train")),
    "ablate": ("ablate", ("seed", "kg", "kg_train", "fusion")),
}

# a manifest of any other version lists an incomplete set of inputs
MANIFEST_VERSION = 2

CORPUS_FILES = ("corpus/corpus.jsonl", "corpus/authors.jsonl")


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


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# A file whose status changed less than this long before it was hashed may
# be rewritten within the same timestamp tick, so its digest is not kept.
_RACY_NS = 100_000_000

# path -> (stat key, sha256) of settled files, for the life of the process
_digest_cache: dict[str, tuple[tuple[int, ...], str]] = {}

# kind -> (content key, parsed value): the latest corpus and candidate
# records, at most one of each kind, shared by every Pipeline in the process
_memo: dict[str, tuple[tuple, object]] = {}


def _stat_key(path: Path) -> tuple[int, ...]:
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _hash_file(path: Path) -> str:
    """sha256 of ``path``, read again only when its status has changed.

    A digest is kept only if the file's status was the same before and after
    the read and its ctime lies more than _RACY_NS before the clock read
    ahead of hashing ("racily clean", as git calls it). A ctime with no
    sub-second part marks a coarse filesystem, whose files are never kept.
    No call can set ctime back, so any later write changes the key.
    """
    now = time.time_ns()
    key = _stat_key(path)
    cached = _digest_cache.get(str(path))
    if cached is not None and cached[0] == key:
        return cached[1]
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    digest = h.hexdigest()
    ctime = key[4]
    if (ctime % 1_000_000_000 and now - ctime > _RACY_NS
            and _stat_key(path) == key):
        _digest_cache[str(path)] = (key, digest)
    return digest


def _memoized(kind: str, key: tuple, load):
    """``load()``, or the value it gave for ``key`` if that was the latest
    ``kind`` loaded in this process."""
    slot = _memo.get(kind)
    if slot is None or slot[0] != key:
        slot = _memo[kind] = (key, load())
    return slot[1]


def _read_json_object(path: Path, what: str) -> dict:
    """A JSON object from ``path``; DataFormatError naming it otherwise."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
        raise DataFormatError(f"{path}: unreadable {what}: {exc}") from None
    if not isinstance(data, dict):
        raise DataFormatError(f"{path}: {what} is not a JSON object")
    return data


# (stage, section) -> the key its hash leaves out: a workdir copied elsewhere
# stays fresh, and train-kg's output directory is named after the model
_UNHASHED = {("ingest", "paths"): "workdir", ("train-kg", "kg_train"): "model"}


def _stage_config(cfg: dict, stage: str) -> dict:
    """The config sections ``stage`` hashes, without its _UNHASHED key."""
    sections = {s: cfg[s] for s in STAGES[stage][1]}
    for (name, section), key in _UNHASHED.items():
        if name == stage:
            sections[section] = {k: v for k, v in cfg[section].items()
                                 if k != key}
    return sections


def stage_config_hash(cfg: dict, stage: str) -> str:
    return _hash_bytes(json.dumps(_stage_config(cfg, stage),
                                  sort_keys=True).encode())


def _check_candidates(record: dict, corpus) -> dict:
    """``record`` with bm25 and dense as float arrays, plus doc id ``ordinals``.

    Raises ValueError or TypeError unless the fields the fusion stages read
    hold distinct corpus doc ids and one finite score per id.
    """
    if not isinstance(record["query_id"], str) or not isinstance(record["text"], str):
        raise ValueError("query_id and text must be strings")
    if record["user_id"] is not None and not isinstance(record["user_id"], str):
        raise ValueError("user_id must be a string or null")
    doc_ids = record["doc_ids"]
    ordinals = ([corpus.ordinal(d) for d in doc_ids if d in corpus]
                if isinstance(doc_ids, list) else [])
    if (not ordinals or len(ordinals) != len(doc_ids)
            or len(set(ordinals)) != len(ordinals)):
        raise ValueError("doc_ids must be distinct corpus doc ids, at least one")
    record["ordinals"] = ordinals
    for channel in ("bm25", "dense"):
        scores = np.asarray(record[channel], dtype=np.float64)
        if scores.shape != (len(doc_ids),) or not np.isfinite(scores).all():
            raise ValueError(f"{channel} must hold one finite number per doc_id")
        scores.flags.writeable = False   # records are shared once memoized
        record[channel] = scores
    return record


def _load_candidates(path: Path, corpus) -> list[dict]:
    """The candidate records ``score`` wrote, each checked by _check_candidates."""
    records = []
    for lineno, record in read_records(path, ("query_id", "user_id", "text",
                                              "doc_ids", "bm25", "dense"),
                                       "candidate record"):
        try:
            records.append(_check_candidates(record, corpus))
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: bad candidate record on line "
                                  f"{lineno}: {exc}") from None
    return records


def _cpu_s() -> float:
    """CPU seconds, user and system, of this process and its joined children."""
    return sum(r.ru_utime + r.ru_stime for r in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _write_train_log(path: Path, losses: list[float]) -> None:
    path.write_text("".join(f"epoch {i + 1} mean_loss {loss:.8f}\n"
                            for i, loss in enumerate(losses)), encoding="utf-8")


def _fuse_and_evaluate(name: str, lam: Lambdas, lists: list[CandidateList],
                       qrels) -> tuple[dict, MetricReport]:
    """Each list fused under ``lam``, and the report of that run."""
    fused = {cl.query_id: fuse(lam, cl) for cl in lists}
    return fused, evaluate_run(name, {q: [d for d, _ in entries]
                                      for q, entries in fused.items()}, qrels)


def _build_kg(corpus, cutoff_year: int, kg_config: KGConfig, out: Path):
    """``kg_config``'s entity catalog and the triples before ``cutoff_year``,
    written to triples.tsv and stats.txt in ``out``; returns (triples, catalog)."""
    authors = list(corpus.authors.values())
    catalog = build_catalog(corpus, authors, kg_config)
    triples = build_kg(corpus.before(cutoff_year), authors, catalog, kg_config)
    save_triples(triples, catalog, out / "triples.tsv")
    (out / "stats.txt").write_text(kg_stats(triples, catalog), encoding="utf-8")
    return triples, catalog


def _train_kg(triples, catalog, store, config: KGTrainConfig,
              out: Path) -> KGEmbeddings:
    """``config``'s model trained on ``triples``, written to entities.bin,
    entities.manifest.txt and train_log.txt in ``out``."""
    emb = train_kg(triples, store, catalog, config)
    save_kg_embeddings(emb, out / "entities.bin", out / "entities.manifest.txt")
    _write_train_log(out / "train_log.txt", emb.epoch_losses)
    return emb


def _variant_child(conn, corpus, cutoff_year: int, kg_config: KGConfig, store,
                   config: KGTrainConfig, out: Path) -> None:
    """Forked process body: builds and trains one ablation variant into
    ``out`` by the code of `build-kg` and `train-kg`, and sends (its model,
    its number of triples), or whatever it raised, to the parent, which
    raises it there; so the child prints no traceback, and an interrupt ends
    it quietly."""
    try:
        out.mkdir(exist_ok=True)
        triples, catalog = _build_kg(corpus, cutoff_year, kg_config, out)
        result = _train_kg(triples, catalog, store, config, out), len(triples)
    except BaseException as exc:   # raised again by the parent
        result = exc
    with contextlib.suppress(BaseException):   # the parent may be gone
        conn.send(result)


def _fork_variant(label: str, *args):
    """(process, receiving end) of a forked child that trains ``label``."""
    # imported here, since only ablate forks: at the top, the import would
    # add about 0.6 MiB to the peak memory of every stage's process
    import multiprocessing
    fork = multiprocessing.get_context("fork")
    recv_end, send_end = fork.Pipe(duplex=False)
    proc = fork.Process(target=_variant_child, args=(send_end, *args),
                        name=f"ablate {label}")
    proc.start()
    send_end.close()   # so the parent sees end-of-file once the child exits
    return proc, recv_end


def _join_variant(label: str, proc, conn) -> tuple[KGEmbeddings, int]:
    """The result a forked child sent for ``label``, or what it raised."""
    try:
        result = conn.recv()
    except EOFError:
        proc.join()
        code = proc.exitcode
        raise AcadSearchError(
            f"ablate: the process training variant {label!r} ended without a "
            f"result ({f'signal {-code}' if code < 0 else f'exit code {code}'})"
        ) from None
    finally:
        conn.close()
    proc.join()
    if isinstance(result, BaseException):
        raise result
    return result


def _producers(dir_rel: str) -> str:
    """The stage(s) that write ``dir_rel``, for 'run ... first' messages."""
    top, _, model = dir_rel.partition("/")
    if top == STAGES["train-kg"][0] and model:
        return f"`train-kg --model {model}`"
    return " or ".join(f"`{name}`" for name, (d, _) in STAGES.items() if d == top)


class Pipeline:
    """Executes stages against one workdir.

    A stage body runs inside :meth:`_stage` and opens every workdir file it
    reads through :meth:`_input`, so its manifest lists exactly those files.
    """

    def __init__(self, cfg: dict, threads: int = 1, force: bool = False):
        # only perfbench/workloads.py passes it; the next benchmark change deletes it
        if threads != 1:
            raise ConfigError(f"threads must be 1, got {threads!r}")
        for key, (legal, rule) in CONFIG_RULES.items():
            section, _, leaf = key.rpartition(".")
            values = cfg[section] if section else cfg
            if not legal(value := values[leaf], values):
                raise ConfigError(f"config key {key!r} must be {rule}; got {value!r}")
        self.cfg = cfg
        self.force = force
        self.workdir = Path(cfg["paths"]["workdir"])

    # -- manifests ------------------------------------------------------------

    @contextlib.contextmanager
    def _stage(self, name: str, subdir: str = ""):
        """Yield the stage's output directory; on success write its manifest.

        The manifest records the config sections the stage depends on, a
        sha256 of every file the body read through :meth:`_input`, and the
        stage's wall time and CPU time, its joined children's included.
        """
        started, cpu = time.time(), _cpu_s()
        out = self.workdir / STAGES[name][0] / subdir
        # the outermost directory this call creates, removed if the body fails
        made = [d for d in (self.workdir, out.parent, out) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        self._reads: set[str] = set()
        self._checked: set[str] = set()
        # one hash per file per stage call, shared by upstream checks and
        # this stage's own manifest
        self._digests: dict[str, str] = {}
        self._catalog: EntityCatalog | None = None
        try:
            yield out
        except BaseException:
            if made:
                import shutil   # only a failed stage needs it
                shutil.rmtree(made[0], ignore_errors=True)
            raise
        manifest = {
            "stage": name,
            "version": MANIFEST_VERSION,
            "config_hash": stage_config_hash(self.cfg, name),
            "config": _stage_config(self.cfg, name),
            "inputs": {rel: self._digest(rel) for rel in self._reads},
            "duration_s": round(time.time() - started, 3),
            "cpu_s": round(_cpu_s() - cpu, 3),
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def _digest(self, rel: str) -> str:
        if rel not in self._digests:
            self._digests[rel] = _hash_file(self.workdir / rel)
        return self._digests[rel]

    def _input(self, rel: str) -> Path:
        """``workdir/rel``, recorded as a read of the running stage, once its
        directory passes :meth:`_check_fresh`; the file itself must exist."""
        dir_rel = rel.rsplit("/", 1)[0]
        self._check_fresh(dir_rel)
        path = self.workdir / rel
        if not path.exists():
            raise MissingArtifactError(
                f"artifact {rel} is missing: run {_producers(dir_rel)} first")
        self._reads.add(rel)
        return path

    def _check_fresh(self, dir_rel: str) -> None:
        """Once per stage call: the artifacts in ``dir_rel`` exist and, unless
        forced, were built by this manifest version from the current config
        and inputs; then so were those of each input's directory, upstream."""
        if dir_rel in self._checked:
            return
        self._checked.add(dir_rel)
        manifest_path = self.workdir / dir_rel / "manifest.json"
        rerun = _producers(dir_rel)
        if not manifest_path.exists():
            raise MissingArtifactError(
                f"missing artifacts in {dir_rel!r}: run {rerun} first")
        manifest = _read_json_object(manifest_path, "stage manifest")
        if self.force:
            return
        stage = manifest.get("stage")
        if manifest.get("version") != MANIFEST_VERSION or stage not in STAGES:
            raise StaleArtifactError(
                f"artifacts in {dir_rel!r} were built by another version; "
                f"re-run {rerun} or pass --force")
        if manifest.get("config_hash") != stage_config_hash(self.cfg, stage):
            raise StaleArtifactError(
                f"artifacts in {dir_rel!r} were built with a different "
                f"config; re-run {rerun} or pass --force")
        inputs = manifest.get("inputs")
        if not isinstance(inputs, dict):
            raise DataFormatError(f"{manifest_path}: stage manifest has no "
                                  f"inputs object")
        for rel, digest in inputs.items():
            if not (self.workdir / rel).exists() or self._digest(rel) != digest:
                raise StaleArtifactError(
                    f"input {rel!r} of {dir_rel!r} changed since it was "
                    f"built; re-run {rerun} or pass --force")
        for rel in inputs:
            self._check_fresh(rel.rsplit("/", 1)[0])

    # -- corpus stages ----------------------------------------------------------

    def stage_synth(self) -> None:
        with self._stage("synth") as out:
            synth_kwargs = {k: (tuple(v) if isinstance(v, list) else v)
                            for k, v in self.cfg["synth"].items()}
            synth_cfg = corpus_mod.SynthConfig(**synth_kwargs)
            corpus, authors = corpus_mod.generate_synthetic(synth_cfg, self.cfg["seed"])
            corpus_mod.save_corpus(corpus, out / "corpus.jsonl")
            corpus_mod.save_authors(authors, out / "authors.jsonl")
        log.info("synth: %d documents, %d authors", len(corpus), len(authors))

    def stage_ingest(self) -> None:
        src = self.cfg["paths"]["corpus"]
        if not src:
            raise ConfigError("ingest requires paths.corpus")
        with self._stage("ingest") as out:
            corpus, report = corpus_mod.load_corpus(src, self.cfg["paths"]["authors"])
            corpus_mod.save_corpus(corpus, out / "corpus.jsonl")
            corpus_mod.save_authors(sorted(corpus.authors.values(),
                                           key=lambda a: a.author_id),
                                    out / "authors.jsonl")
        log.info("ingest: %d documents (%d self-refs, %d dangling refs dropped)",
                 report.documents, report.self_references_dropped,
                 report.dangling_references_dropped)

    def _corpus_key(self) -> tuple[str, ...]:
        """Digests of the corpus files, each read through _input."""
        for rel in CORPUS_FILES:
            self._input(rel)
        return tuple(self._digest(rel) for rel in CORPUS_FILES)

    def _load_corpus(self):
        """The workdir corpus, parsed once per process for each content."""
        return _memoized("corpus", self._corpus_key(), lambda: corpus_mod.load_corpus(
            *(self.workdir / rel for rel in CORPUS_FILES))[0])

    # -- index -------------------------------------------------------------------

    def stage_index(self) -> None:
        with self._stage("index") as out:
            corpus = self._load_corpus()
            index = build_index(corpus)
            save_index(index, out / "index.bin")
        log.info("index: %d documents, %d terms", index.doc_count,
                 len(index.postings))

    # -- splits --------------------------------------------------------------------

    def _bm25_params(self) -> BM25Params:
        return BM25Params(self.cfg["bm25"]["k1"], self.cfg["bm25"]["b"])

    def stage_splits(self) -> None:
        scfg = self.cfg["split"]
        with self._stage("splits") as out:
            corpus = self._load_corpus()
            index = load_index(self._input("index/index.bin"))
            cutoff = scfg["cutoff_year"]
            if cutoff is None:
                years = np.sort(np.asarray(corpus.years()))
                cutoff = int(years[int(0.8 * (len(years) - 1))])
            train_view, test_queries = corpus_mod.chronological_split(
                corpus, cutoff)
            rng = np.random.default_rng(self.cfg["seed"] + 101)
            if len(test_queries) > scfg["max_test_queries"]:
                keep = np.sort(rng.choice(len(test_queries),
                                          size=scfg["max_test_queries"], replace=False))
                test_queries = [test_queries[i] for i in keep]
            pool, _ = corpus_mod.make_queries(corpus, train_view.ordinals)
            perm = rng.permutation(len(pool))
            val_queries = [pool[i] for i in perm[:scfg["max_val_queries"]]]
            train_queries = [pool[i] for i in
                             perm[scfg["max_val_queries"]:
                                  scfg["max_val_queries"] + scfg["max_train_queries"]]]
            train_qrels, train_drop = corpus_mod.build_qrels(
                corpus, index, train_queries, bm25_fallback=True,
                depth=self.cfg["bm25"]["depth"], params=self._bm25_params())
            # Validation qrels are citations-only: a BM25 fallback puts the
            # BM25 top-100 itself into relevance, which at this scale makes pure
            # BM25 the trivially optimal fusion and blinds the tuner.
            val_qrels, val_drop = corpus_mod.build_qrels(corpus, index, val_queries)
            test_qrels, test_drop = corpus_mod.build_qrels(corpus, index, test_queries)
            train_queries = [q for q in train_queries if q.query_id in train_qrels]
            val_queries = [q for q in val_queries if q.query_id in val_qrels]
            test_queries = [q for q in test_queries if q.query_id in test_qrels]
            for name, kept in (("validation", val_queries), ("test", test_queries)):
                if not kept:
                    raise SplitError(f"the {name} split has no query left: a query "
                                     "needs title words and a relevant document")
            corpus_mod.save_queries(train_queries, out / "train_queries.jsonl")
            corpus_mod.save_queries(val_queries, out / "val_queries.jsonl")
            corpus_mod.save_queries(test_queries, out / "test_queries.jsonl")
            corpus_mod.save_qrels(train_qrels, out / "train_qrels.txt")
            corpus_mod.save_qrels(val_qrels, out / "val_qrels.txt")
            corpus_mod.save_qrels(test_qrels, out / "test_qrels.txt")
            (out / "split.json").write_text(json.dumps({
                "cutoff_year": cutoff,
                "train_queries": len(train_queries),
                "val_queries": len(val_queries),
                "test_queries": len(test_queries),
                "dropped_empty_qrels": {"train": len(train_drop),
                                        "val": len(val_drop),
                                        "test": len(test_drop)},
            }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        log.info("splits: cutoff %d; %d train / %d val / %d test queries",
                 cutoff, len(train_queries), len(val_queries), len(test_queries))

    def _cutoff_year(self) -> int:
        split_file = self._input("splits/split.json")
        split = _read_json_object(split_file, "split record")
        try:
            return int(split["cutoff_year"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise DataFormatError(
                f"{split_file}: missing or non-integer cutoff_year") from None

    # -- dense encoder ---------------------------------------------------------------

    def stage_train_dense(self) -> None:
        with self._stage("train-dense") as out:
            corpus = self._load_corpus()
            ecfg = self.cfg["encoder"]
            queries = corpus_mod.load_queries(
                self._input("splits/train_queries.jsonl"))
            qrels = corpus_mod.load_qrels(self._input("splits/train_qrels.txt"))
            year_cap = self._cutoff_year() - ecfg["train_year_gap"]
            queries = [q for q in queries if q.year < year_cap]
            pairs: list[tuple[str, int]] = []
            cap = ecfg["max_positives_per_query"]
            for q in queries:
                relevant = qrels.relevant(q.query_id)
                source = (corpus.get(q.source_doc_id)
                          if q.source_doc_id in corpus else None)
                cited = ([r for r in source.references if r in relevant]
                         if source else [])
                positives = cited[:cap] if cited else sorted(relevant)[:cap]
                pairs.extend((q.text, corpus.ordinal(d)) for d in positives)
            encoder = HashedBowEncoder(ecfg["dim"], ecfg["buckets"],
                                       seed=self.cfg["seed"])
            texts = [d.text() for d in corpus.docs]
            losses = train_encoder(
                encoder, pairs, texts, epochs=ecfg["epochs"], lr=ecfg["lr"],
                batch_size=ecfg["batch_size"], margin=ecfg["margin"],
                seed=self.cfg["seed"], weight_decay=ecfg["weight_decay"])
            encoder.save(out / "encoder.bin")
            _write_train_log(out / "train_log.txt", losses)
        log.info("train-dense: %d pairs, epoch losses %s", len(pairs),
                 [round(x, 4) for x in losses])

    def stage_embed(self) -> None:
        with self._stage("embed") as out:
            corpus = self._load_corpus()
            encoder = HashedBowEncoder.load(self._input("dense/encoder.bin"))
            store = embed_corpus(encoder, corpus.docs)
            store.save(out / "doc_embeddings.bin")
        log.info("embed: %d rows, %d empty", store.count,
                 int(store.empty_mask.sum()))

    def _doc_embeddings(self, corpus):
        return load_precomputed_embeddings(
            self._input("embed/doc_embeddings.bin"), expect_count=len(corpus))

    # -- knowledge graph ---------------------------------------------------------------

    def stage_build_kg(self) -> None:
        with self._stage("build-kg") as out:
            triples, _ = _build_kg(self._load_corpus(), self._cutoff_year(),
                                   KGConfig(**self.cfg["kg"]), out)
        log.info("build-kg: %d triples", len(triples))

    def _kg_catalog(self, corpus) -> EntityCatalog:
        """The configured KG's entity catalog, built once per stage call."""
        if self._catalog is None:
            self._catalog = build_catalog(corpus, list(corpus.authors.values()),
                                          KGConfig(**self.cfg["kg"]))
        return self._catalog

    def _kg_train_config(self, model: str | None = None) -> KGTrainConfig:
        kcfg = dict(self.cfg["kg_train"])
        if model is not None:
            kcfg["model"] = model
        return KGTrainConfig(seed=self.cfg["seed"], **kcfg)

    def stage_train_kg(self, model: str | None = None) -> None:
        config = self._kg_train_config(model)
        with self._stage("train-kg", config.model) as out:
            corpus = self._load_corpus()
            catalog = self._kg_catalog(corpus)
            triples = load_triples(self._input("kg/triples.tsv"), catalog)
            emb = _train_kg(triples, catalog, self._doc_embeddings(corpus),
                            config, out)
        log.info("train-kg(%s): %d entities, final loss %.6f", config.model,
                 catalog.total, emb.epoch_losses[-1] if emb.epoch_losses else 0.0)

    def _load_kg_embeddings(self, model: str, corpus) -> KGEmbeddings:
        return load_kg_embeddings(
            self._input(f"kg_embed/{model}/entities.bin"),
            self._input(f"kg_embed/{model}/entities.manifest.txt"),
            self._kg_catalog(corpus))

    # -- scoring -----------------------------------------------------------------------

    def stage_score(self) -> None:
        with self._stage("score") as out:
            corpus = self._load_corpus()
            index = load_index(self._input("index/index.bin"))
            encoder = HashedBowEncoder.load(self._input("dense/encoder.bin"))
            store = self._doc_embeddings(corpus)
            params = self._bm25_params()
            depth = self.cfg["bm25"]["depth"]
            years = np.asarray([corpus.get(d).year for d in index.doc_ids])
            # both splits are read before either file is written
            by_split = {split: corpus_mod.load_queries(
                self._input(f"splits/{split}_queries.jsonl"))
                for split in ("val", "test")}
            for split, queries in by_split.items():
                with open(out / f"{split}_candidates.jsonl", "w",
                          encoding="utf-8") as fh:
                    for q in queries:
                        allowed = years < q.year
                        hits = retrieve_topk(index, tokenize(q.text), depth,
                                             params, allowed=allowed)
                        if not hits:
                            continue
                        doc_ids = [index.doc_ids[o] for o, _ in hits]
                        q_vec = encoder.encode(q.text)
                        dense = [float(np.dot(q_vec, store.row(corpus.ordinal(d))))
                                 for d in doc_ids]
                        fh.write(json.dumps({
                            "query_id": q.query_id, "user_id": q.user_id,
                            "year": q.year, "text": q.text, "doc_ids": doc_ids,
                            "bm25": [s for _, s in hits], "dense": dense,
                        }) + "\n")
        log.info("score: candidate lists written for val and test")

    def _corpus_and_candidates(self, split: str):
        """The corpus and ``split``'s candidate records, each parsed once per
        process for each content of the files they come from."""
        rel = f"score/{split}_candidates.jsonl"
        path = self._input(rel)
        corpus = self._load_corpus()
        records = _memoized(rel, (self._digest(rel), self._corpus_key()),
                            lambda: _load_candidates(path, corpus))
        return corpus, records

    # -- user channels ------------------------------------------------------------------

    def _candidate_lists(self, records: list[dict], corpus, channel: str,
                         kg: KGEmbeddings | None = None) -> list[CandidateList]:
        """Each record's bm25, dense and ``channel`` user scores, loading what
        the channel reads; the ``kg`` channel scores with ``kg``."""
        fusion = self.cfg["fusion"]
        inputs = ChannelInputs(corpus, AggregationMode(fusion["aggregation"]),
                               fusion["user_metric"], kg=kg)
        if channel in ("mean", "attention", "selfcite"):
            inputs.contexts = build_user_contexts(corpus, self._cutoff_year())
            if channel != "selfcite":
                inputs.store = self._doc_embeddings(corpus)
            if channel == "attention":
                inputs.encoder = HashedBowEncoder.load(
                    self._input("dense/encoder.bin"))
        elif channel in ("pagerank", "pop"):
            graph = CitationGraph.from_corpus(corpus, self._cutoff_year())
            by_ordinal = (pagerank_by_ordinal if channel == "pagerank"
                          else popularity_by_ordinal)
            inputs.by_ordinal = by_ordinal(graph, len(corpus))
        return [CandidateList(r["query_id"], r["doc_ids"], np.column_stack(
                    [r["bm25"], r["dense"], user_column(channel, inputs, r)]))
                for r in records]

    # -- tuning and evaluation -------------------------------------------------------------

    def _with_transe(self) -> bool:
        """Whether TransE is trained and evaluated beside the configured KG."""
        return (self.cfg["fusion"]["user_channel"] == "kg"
                and self.cfg["fusion"]["include_transe"]
                and self.cfg["kg_train"]["model"] != "transe")

    def _systems(self, records: list[dict], corpus
                 ) -> list[tuple[str, str, list[CandidateList]]]:
        """(system name, user channel, candidate lists) to tune and evaluate.
        Every list is built, and so every input read, before any is used."""
        systems = [("two_stage", "none",
                    self._candidate_lists(records, corpus, "none"))]
        channel = self.cfg["fusion"]["user_channel"]
        if channel == "kg":
            models = ([self.cfg["kg_train"]["model"]]
                      + (["transe"] if self._with_transe() else []))
            systems += [(f"fused_{m}", "kg", self._candidate_lists(
                records, corpus, "kg", self._load_kg_embeddings(m, corpus)))
                for m in models]
        elif channel != "none":
            systems.append((f"fused_{channel}", channel,
                            self._candidate_lists(records, corpus, channel)))
        return systems

    def stage_tune(self) -> None:
        with self._stage("tune") as out:
            corpus, records = self._corpus_and_candidates("val")
            qrels = corpus_mod.load_qrels(self._input("splits/val_qrels.txt"))
            step = self.cfg["fusion"]["grid_step"]
            lambdas: dict[str, dict] = {}
            for name, channel, lists in self._systems(records, corpus):
                lam, grid_text = tune_lambdas(
                    lists, qrels, step, fix_user_zero=(channel == "none"))
                lambdas[name] = dataclasses.asdict(lam)
                (out / f"grid_{name}.txt").write_text(grid_text, encoding="utf-8")
                log.info("tune %s: %s", name, lambdas[name])
            (out / "lambdas.json").write_text(
                json.dumps(lambdas, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def stage_eval(self) -> None:
        with self._stage("eval") as out:
            corpus, records = self._corpus_and_candidates("test")
            lambdas_path = self._input("tune/lambdas.json")
            qrels = corpus_mod.load_qrels(self._input("splits/test_qrels.txt"))
            lambdas = _read_json_object(lambdas_path, "fusion weights file")
            tuned = {}
            for name, weights in lambdas.items():
                try:
                    tuned[name] = Lambdas(**weights)
                except (TypeError, ConfigError) as exc:
                    raise DataFormatError(f"{lambdas_path}: bad fusion weights "
                                          f"for {name!r}: {exc}") from None
            systems = self._systems(records, corpus)
            # bm25 alone ranks the two-stage candidates by their bm25 score
            runs = [("bm25", Lambdas(1.0, 0.0, 0.0), systems[0][2])]
            for name, _, lists in systems:
                if name not in tuned:
                    raise DataFormatError(f"{lambdas_path}: no fusion weights "
                                          f"for {name!r}; re-run `tune`")
                runs.append((name, tuned[name], lists))
            reports: list[MetricReport] = []
            for name, lam, lists in runs:
                fused, report = _fuse_and_evaluate(name, lam, lists, qrels)
                write_run(name, fused, out / f"run_{name}.txt")
                reports.append(report)
            pvals = {}
            by_name = {r.name: r for r in reports}
            for a, _, _ in runs[1:]:
                b = "bm25" if a == "two_stage" else "two_stage"
                qa = by_name[a].per_query["map@100"]
                qb = by_name[b].per_query["map@100"]
                shared = sorted(set(qa) & set(qb))
                pvals[f"{a}_vs_{b}"] = significance_test(
                    [qa[q] for q in shared], [qb[q] for q in shared],
                    permutations=self.cfg["eval"]["permutations"],
                    seed=self.cfg["seed"])
            table = metrics_table(reports)
            report_lines = [table, "fusion weights:"]
            for name in sorted(lambdas):
                lam = lambdas[name]
                report_lines.append(f"  {name}: bm25={lam['bm25']:.2f} "
                                    f"dense={lam['dense']:.2f} "
                                    f"user={lam['user']:.2f}")
            report_lines.append("")
            report_lines.append("paired randomization test on per-query map@100:")
            for key in sorted(pvals):
                report_lines.append(f"  {key}: p = {pvals[key]:.6f}")
            (out / "report.txt").write_text("\n".join(report_lines) + "\n",
                                            encoding="utf-8")
            (out / "metrics.json").write_text(json.dumps({
                "systems": {r.name: r.means for r in reports},
                "n_queries": {r.name: len(next(iter(r.per_query.values()), {}))
                              for r in reports},
                "skipped_empty_qrels": {r.name: r.skipped_empty for r in reports},
                "significance": pvals,
                "lambdas": lambdas,
            }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        log.info("eval:\n%s", table)

    # -- ablation ----------------------------------------------------------------------------

    ABLATION_VARIANTS = (
        ("user-only", {"include_venue": False, "include_affiliation": False}),
        ("+venue", {"include_venue": True, "include_affiliation": False}),
        ("+affiliation", {"include_venue": True, "include_affiliation": True}),
    )

    def stage_ablate(self) -> None:
        with self._stage("ablate") as out:
            corpus, val_records = self._corpus_and_candidates("val")
            _, test_records = self._corpus_and_candidates("test")
            store = self._doc_embeddings(corpus)
            val_qrels = corpus_mod.load_qrels(self._input("splits/val_qrels.txt"))
            test_qrels = corpus_mod.load_qrels(self._input("splits/test_qrels.txt"))
            cutoff = self._cutoff_year()
            step = self.cfg["fusion"]["grid_step"]

            # Train (or reuse) every variant, then compare them under one set
            # of fusion weights tuned on the full configuration; re-tuning per
            # variant would fold validation noise into the node-type effect.
            main_kg = KGConfig(**self.cfg["kg"])
            config = self._kg_train_config()
            kg_configs = [(label, dataclasses.replace(main_kg, **overrides))
                          for label, overrides in self.ABLATION_VARIANTS]
            # a variant identical to the configured KG reuses its model, read
            # before any child forks so that a stale one fails at once
            variants = {
                label: (self._load_kg_embeddings(config.model, corpus), None)
                for label, kg in kg_configs if kg == main_kg}
            # Every input is read above, so no read is made in a child, where
            # the manifest would miss it. Each training is seeded from its own
            # config, so running them side by side changes no byte.
            children = {label: _fork_variant(
                label, corpus, cutoff, kg, store, config,
                out / label.replace("+", "plus_"))
                for label, kg in kg_configs if kg != main_kg}

            def model(label: str) -> KGEmbeddings:
                if label not in variants:
                    variants[label] = _join_variant(label, *children[label])
                return variants[label][0]

            try:
                lam, _ = tune_lambdas(self._candidate_lists(
                    val_records, corpus, "kg", model(kg_configs[-1][0])),
                    val_qrels, step)
                lam_ref, _ = tune_lambdas(
                    self._candidate_lists(val_records, corpus, "none"),
                    val_qrels, step, fix_user_zero=True)
                _, ref_report = _fuse_and_evaluate(
                    "no-kg (two-stage)", lam_ref,
                    self._candidate_lists(test_records, corpus, "none"), test_qrels)
                reports = {label: _fuse_and_evaluate(
                    label, lam, self._candidate_lists(
                        test_records, corpus, "kg", model(label)), test_qrels)[1]
                    for label, _ in kg_configs}
            finally:
                for proc, conn in children.values():
                    conn.close()
                    if proc.is_alive():
                        proc.terminate()
                    proc.join()

            rows = []
            results = {"shared_lambdas": dataclasses.asdict(lam)}
            for label, _ in kg_configs:
                means = reports[label].means
                rows.append((label, means))
                results[label] = {"metrics": means, "triples": variants[label][1]}
                log.info("ablate %s: %s", label, means)
            results["no-kg"] = {"lambdas": dataclasses.asdict(lam_ref),
                                "metrics": ref_report.means}
            table = ablation_report(rows + [(ref_report.name, ref_report.means)])
            (out / "ablation.txt").write_text(table, encoding="utf-8")
            (out / "ablation.json").write_text(
                json.dumps(results, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        log.info("ablate:\n%s", table)

    # -- end to end ------------------------------------------------------------------------------

    def end_to_end(self) -> None:
        if self.cfg["paths"]["corpus"]:
            self.stage_ingest()
        else:
            self.stage_synth()
        self.stage_index()
        self.stage_splits()
        self.stage_train_dense()
        self.stage_embed()
        self.stage_build_kg()
        self.stage_train_kg()
        if self._with_transe():
            self.stage_train_kg(model="transe")
        self.stage_score()
        self.stage_tune()
        self.stage_eval()
        self.stage_ablate()
