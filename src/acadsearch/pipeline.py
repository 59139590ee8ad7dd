"""The stages and the end-to-end driver.

Each ``Pipeline.stage_*`` body runs inside :meth:`Pipeline._stage` and reads
and writes through the :class:`~acadsearch.stagerun.StageRun` it yields.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import shutil
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
# the command line and perfbench import STAGES and load_config from here
from .config import check_config, load_config  # noqa: F401
from .corpus.io import read_records
from .dense_encoder import (HashedBowEncoder, embed_corpus,
                            load_precomputed_embeddings, train_encoder)
from .errors import ConfigError, DataFormatError, SplitError
from .fusion_eval import (CandidateList, Lambdas, MetricReport, ablation_report,
                          evaluate_run, fuse, metrics_table,
                          significance_test, tune_lambdas, write_run)
from .graph_baselines import (CitationGraph, pagerank_by_ordinal,
                              popularity_by_ordinal)
from .kg_builder import (EntityCatalog, KGConfig, build_catalog, build_kg,
                         kg_stats, load_triples, save_triples)
from .kg_embed import (KGEmbeddings, KGTrainConfig, load_kg_embeddings,
                       save_kg_embeddings, train_kg)
from .lexical_index import (BM25Params, build_index, load_index, retrieve_topk,
                            save_index, tokenize)
from .stagerun import (STAGES, StageRun, _memoized,  # noqa: F401
                       _read_json_object, run_in_child)
from .user_models import (AggregationMode, ChannelInputs, build_user_contexts,
                          user_column)

log = logging.getLogger(__name__)

CORPUS_FILES = ("corpus/corpus.jsonl", "corpus/authors.jsonl")


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


def _train_variant(corpus, cutoff_year: int, kg_config: KGConfig, store,
                   config: KGTrainConfig, out: Path) -> tuple[KGEmbeddings, int]:
    """One ablation variant built and trained into ``out`` by the code of
    `build-kg` and `train-kg`: (its model, its number of triples)."""
    out.mkdir()
    triples, catalog = _build_kg(corpus, cutoff_year, kg_config, out)
    return _train_kg(triples, catalog, store, config, out), len(triples)


def _corpus_key(run: StageRun) -> tuple[str, ...]:
    """Digests of the corpus files, each read through ``run``."""
    for rel in CORPUS_FILES:
        run.input(rel)
    return tuple(run.digest(rel) for rel in CORPUS_FILES)


def _load_corpus(run: StageRun):
    """The workdir corpus, parsed once per process for each content."""
    return _memoized("corpus", _corpus_key(run), lambda: corpus_mod.load_corpus(
        *(run.workdir / rel for rel in CORPUS_FILES))[0])


def _cutoff_year(run: StageRun) -> int:
    split_file = run.input("splits/split.json")
    split = _read_json_object(split_file, "split record")
    try:
        return int(split["cutoff_year"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise DataFormatError(
            f"{split_file}: missing or non-integer cutoff_year") from None


def _doc_embeddings(run: StageRun, corpus):
    return load_precomputed_embeddings(
        run.input("embed/doc_embeddings.bin"), expect_count=len(corpus))


def _corpus_and_candidates(run: StageRun, split: str):
    """The corpus and ``split``'s candidate records, each parsed once per
    process for each content of the files they come from."""
    rel = f"score/{split}_candidates.jsonl"
    path = run.input(rel)
    corpus = _load_corpus(run)
    records = _memoized(rel, (run.digest(rel), _corpus_key(run)),
                        lambda: _load_candidates(path, corpus))
    return corpus, records


class Pipeline:
    """Executes stages against one workdir. The helpers a stage body calls
    take its StageRun, so a Pipeline holds only cfg, force and workdir."""

    def __init__(self, cfg: dict, threads: int = 1, force: bool = False):
        # only perfbench/workloads.py passes it; the next benchmark change deletes it
        if threads != 1:
            raise ConfigError(f"threads must be 1, got {threads!r}")
        check_config(cfg)
        self.cfg = cfg
        self.force = force
        self.workdir = Path(cfg["paths"]["workdir"])

    @contextlib.contextmanager
    def _stage(self, name: str, subdir: str = ""):
        """Yield the call's StageRun and commit it once the body succeeds; if
        the body or the commit fails, remove the outermost directory the
        call created."""
        run = StageRun(self.cfg, self.workdir, self.force, name, subdir)
        try:
            yield run
            run.commit()
        except BaseException:
            shutil.rmtree(run.made, ignore_errors=True)
            raise

    # -- corpus stages ----------------------------------------------------------

    def stage_synth(self) -> None:
        with self._stage("synth") as run:
            synth_kwargs = {k: (tuple(v) if isinstance(v, list) else v)
                            for k, v in self.cfg["synth"].items()}
            synth_cfg = corpus_mod.SynthConfig(**synth_kwargs)
            corpus, authors = corpus_mod.generate_synthetic(synth_cfg, self.cfg["seed"])
            corpus_mod.save_corpus(corpus, run.out / "corpus.jsonl")
            corpus_mod.save_authors(authors, run.out / "authors.jsonl")
        log.info("synth: %d documents, %d authors", len(corpus), len(authors))

    def stage_ingest(self) -> None:
        src = self.cfg["paths"]["corpus"]
        if not src:
            raise ConfigError("ingest requires paths.corpus")
        with self._stage("ingest") as run:
            corpus, report = corpus_mod.load_corpus(src, self.cfg["paths"]["authors"])
            corpus_mod.save_corpus(corpus, run.out / "corpus.jsonl")
            corpus_mod.save_authors(sorted(corpus.authors.values(),
                                           key=lambda a: a.author_id),
                                    run.out / "authors.jsonl")
        log.info("ingest: %d documents (%d self-refs, %d dangling refs dropped)",
                 report.documents, report.self_references_dropped,
                 report.dangling_references_dropped)

    # -- index -------------------------------------------------------------------

    def stage_index(self) -> None:
        with self._stage("index") as run:
            corpus = _load_corpus(run)
            index = build_index(corpus)
            save_index(index, run.out / "index.bin")
        log.info("index: %d documents, %d terms", index.doc_count,
                 len(index.postings))

    # -- splits --------------------------------------------------------------------

    def _bm25_params(self) -> BM25Params:
        return BM25Params(self.cfg["bm25"]["k1"], self.cfg["bm25"]["b"])

    def stage_splits(self) -> None:
        scfg = self.cfg["split"]
        with self._stage("splits") as run:
            corpus = _load_corpus(run)
            index = load_index(run.input("index/index.bin"))
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
            out = run.out
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

    # -- dense encoder ---------------------------------------------------------------

    def stage_train_dense(self) -> None:
        with self._stage("train-dense") as run:
            corpus = _load_corpus(run)
            ecfg = self.cfg["encoder"]
            queries = corpus_mod.load_queries(
                run.input("splits/train_queries.jsonl"))
            qrels = corpus_mod.load_qrels(run.input("splits/train_qrels.txt"))
            year_cap = _cutoff_year(run) - ecfg["train_year_gap"]
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
            encoder.save(run.out / "encoder.bin")
            _write_train_log(run.out / "train_log.txt", losses)
        log.info("train-dense: %d pairs, epoch losses %s", len(pairs),
                 [round(x, 4) for x in losses])

    def stage_embed(self) -> None:
        with self._stage("embed") as run:
            corpus = _load_corpus(run)
            encoder = HashedBowEncoder.load(run.input("dense/encoder.bin"))
            store = embed_corpus(encoder, corpus.docs)
            store.save(run.out / "doc_embeddings.bin")
        log.info("embed: %d rows, %d empty", store.count,
                 int(store.empty_mask.sum()))

    # -- knowledge graph ---------------------------------------------------------------

    def stage_build_kg(self) -> None:
        with self._stage("build-kg") as run:
            triples, _ = _build_kg(_load_corpus(run), _cutoff_year(run),
                                   KGConfig(**self.cfg["kg"]), run.out)
        log.info("build-kg: %d triples", len(triples))

    def _kg_catalog(self, run: StageRun, corpus) -> EntityCatalog:
        """The configured KG's entity catalog, built once per process for
        each content of the corpus and each kg section."""
        kg = self.cfg["kg"]
        return _memoized("catalog", (_corpus_key(run), tuple(kg.items())),
                         lambda: build_catalog(corpus, list(corpus.authors.values()),
                                               KGConfig(**kg)))

    def _kg_train_config(self, model: str | None = None) -> KGTrainConfig:
        kcfg = dict(self.cfg["kg_train"])
        if model is not None:
            kcfg["model"] = model
        return KGTrainConfig(seed=self.cfg["seed"], **kcfg)

    def stage_train_kg(self, model: str | None = None) -> None:
        config = self._kg_train_config(model)
        with self._stage("train-kg", config.model) as run:
            corpus = _load_corpus(run)
            catalog = self._kg_catalog(run, corpus)
            triples = load_triples(run.input("kg/triples.tsv"), catalog)
            emb = _train_kg(triples, catalog, _doc_embeddings(run, corpus),
                            config, run.out)
        log.info("train-kg(%s): %d entities, final loss %.6f", config.model,
                 catalog.total, emb.epoch_losses[-1] if emb.epoch_losses else 0.0)

    def _load_kg_embeddings(self, run: StageRun, model: str, corpus) -> KGEmbeddings:
        return load_kg_embeddings(
            run.input(f"kg_embed/{model}/entities.bin"),
            run.input(f"kg_embed/{model}/entities.manifest.txt"),
            self._kg_catalog(run, corpus))

    # -- scoring -----------------------------------------------------------------------

    def stage_score(self) -> None:
        with self._stage("score") as run:
            corpus = _load_corpus(run)
            index = load_index(run.input("index/index.bin"))
            encoder = HashedBowEncoder.load(run.input("dense/encoder.bin"))
            store = _doc_embeddings(run, corpus)
            params = self._bm25_params()
            depth = self.cfg["bm25"]["depth"]
            years = np.asarray([corpus.get(d).year for d in index.doc_ids])
            # both splits are read before either file is written
            by_split = {split: corpus_mod.load_queries(
                run.input(f"splits/{split}_queries.jsonl"))
                for split in ("val", "test")}
            for split, queries in by_split.items():
                with open(run.out / f"{split}_candidates.jsonl", "w",
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

    # -- user channels ------------------------------------------------------------------

    def _candidate_lists(self, run: StageRun, records: list[dict], corpus,
                         channel: str, kg: KGEmbeddings | None = None
                         ) -> list[CandidateList]:
        """Each record's bm25, dense and ``channel`` user scores, loading what
        the channel reads through ``run``; the ``kg`` channel scores with ``kg``."""
        fusion = self.cfg["fusion"]
        inputs = ChannelInputs(corpus, AggregationMode(fusion["aggregation"]),
                               fusion["user_metric"], kg=kg)
        if channel in ("mean", "attention", "selfcite"):
            inputs.contexts = build_user_contexts(corpus, _cutoff_year(run))
            if channel != "selfcite":
                inputs.store = _doc_embeddings(run, corpus)
            if channel == "attention":
                inputs.encoder = HashedBowEncoder.load(
                    run.input("dense/encoder.bin"))
        elif channel in ("pagerank", "pop"):
            graph = CitationGraph.from_corpus(corpus, _cutoff_year(run))
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

    def _systems(self, run: StageRun, records: list[dict], corpus
                 ) -> list[tuple[str, str, list[CandidateList]]]:
        """(system name, user channel, candidate lists) to tune and evaluate.
        Every list is built, and so every input read, before any is used."""
        systems = [("two_stage", "none",
                    self._candidate_lists(run, records, corpus, "none"))]
        channel = self.cfg["fusion"]["user_channel"]
        if channel == "kg":
            models = ([self.cfg["kg_train"]["model"]]
                      + (["transe"] if self._with_transe() else []))
            systems += [(f"fused_{m}", "kg", self._candidate_lists(
                run, records, corpus, "kg", self._load_kg_embeddings(run, m, corpus)))
                for m in models]
        elif channel != "none":
            systems.append((f"fused_{channel}", channel,
                            self._candidate_lists(run, records, corpus, channel)))
        return systems

    def stage_tune(self) -> None:
        with self._stage("tune") as run:
            corpus, records = _corpus_and_candidates(run, "val")
            qrels = corpus_mod.load_qrels(run.input("splits/val_qrels.txt"))
            step = self.cfg["fusion"]["grid_step"]
            lambdas: dict[str, dict] = {}
            for name, channel, lists in self._systems(run, records, corpus):
                lam, grid_text = tune_lambdas(
                    lists, qrels, step, fix_user_zero=(channel == "none"))
                lambdas[name] = dataclasses.asdict(lam)
                (run.out / f"grid_{name}.txt").write_text(grid_text, encoding="utf-8")
                log.info("tune %s: %s", name, lambdas[name])
            (run.out / "lambdas.json").write_text(
                json.dumps(lambdas, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def stage_eval(self) -> None:
        with self._stage("eval") as run:
            corpus, records = _corpus_and_candidates(run, "test")
            lambdas_path = run.input("tune/lambdas.json")
            qrels = corpus_mod.load_qrels(run.input("splits/test_qrels.txt"))
            lambdas = _read_json_object(lambdas_path, "fusion weights file")
            tuned = {}
            for name, weights in lambdas.items():
                try:
                    tuned[name] = Lambdas(**weights)
                except (TypeError, ConfigError) as exc:
                    raise DataFormatError(f"{lambdas_path}: bad fusion weights "
                                          f"for {name!r}: {exc}") from None
            systems = self._systems(run, records, corpus)
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
                write_run(name, fused, run.out / f"run_{name}.txt")
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
            (run.out / "report.txt").write_text("\n".join(report_lines) + "\n",
                                                encoding="utf-8")
            (run.out / "metrics.json").write_text(json.dumps({
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
        with self._stage("ablate") as run, contextlib.ExitStack() as children:
            corpus, val_records = _corpus_and_candidates(run, "val")
            _, test_records = _corpus_and_candidates(run, "test")
            store = _doc_embeddings(run, corpus)
            val_qrels = corpus_mod.load_qrels(run.input("splits/val_qrels.txt"))
            test_qrels = corpus_mod.load_qrels(run.input("splits/test_qrels.txt"))
            cutoff = _cutoff_year(run)
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
            reused = {label: (self._load_kg_embeddings(run, config.model, corpus),
                              None)
                      for label, kg in kg_configs if kg == main_kg}
            # Every input is read above, so no read is made in a child, where
            # the manifest would miss it. Each training is seeded from its own
            # config, so running them side by side changes no byte; each child
            # is joined the first time its model is needed.
            trained = {label: children.enter_context(run_in_child(
                f"ablate variant {label!r}", _train_variant, corpus, cutoff, kg,
                store, config, run.out / label.replace("+", "plus_")))
                for label, kg in kg_configs if kg != main_kg}

            def variant(label: str) -> tuple[KGEmbeddings, int | None]:
                return reused[label] if label in reused else trained[label]()

            lam, _ = tune_lambdas(self._candidate_lists(
                run, val_records, corpus, "kg", variant(kg_configs[-1][0])[0]),
                val_qrels, step)
            lam_ref, _ = tune_lambdas(
                self._candidate_lists(run, val_records, corpus, "none"),
                val_qrels, step, fix_user_zero=True)
            _, ref_report = _fuse_and_evaluate(
                "no-kg (two-stage)", lam_ref,
                self._candidate_lists(run, test_records, corpus, "none"), test_qrels)
            reports = {label: _fuse_and_evaluate(
                label, lam, self._candidate_lists(
                    run, test_records, corpus, "kg", variant(label)[0]), test_qrels)[1]
                for label, _ in kg_configs}

            rows = []
            results = {"shared_lambdas": dataclasses.asdict(lam)}
            for label, _ in kg_configs:
                means = reports[label].means
                rows.append((label, means))
                results[label] = {"metrics": means, "triples": variant(label)[1]}
                log.info("ablate %s: %s", label, means)
            results["no-kg"] = {"lambdas": dataclasses.asdict(lam_ref),
                                "metrics": ref_report.means}
            table = ablation_report(rows + [(ref_report.name, ref_report.means)])
            (run.out / "ablation.txt").write_text(table, encoding="utf-8")
            (run.out / "ablation.json").write_text(
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
