"""User scoring: KG-embedding similarity plus the classic user-model baselines.

:func:`user_column` scores a query's candidates under each of USER_CHANNELS.
KG candidates whose authors are unknown receive the per-query minimum so
that min-max normalization maps them to zero; an unknown query user makes
the whole channel constant, which fusion then ignores.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus.model import Corpus
from .dense_encoder import DocEmbeddingStore, HashedBowEncoder
from .kg_builder import EntityKind
from .kg_embed import KGEmbeddings

USER_CHANNELS = ("kg", "mean", "attention", "selfcite", "pagerank", "pop", "none")

KG_METRICS = ("cosine", "neg_l2")


class AggregationMode(str, Enum):
    """How scores over a candidate's authors collapse to one value."""
    MAX = "max"
    MEAN = "mean"


@dataclass
class UserContext:
    user_id: str
    authored: list[int]          # pre-cutoff doc ordinals
    coauthors: frozenset[str]    # pre-cutoff co-authors, excluding the user


def build_user_contexts(corpus: Corpus, cutoff_year: int) -> dict[str, UserContext]:
    authored: dict[str, list[int]] = {}
    coauthors: dict[str, set[str]] = {}
    for i, doc in corpus.before(cutoff_year).items():
        for u in doc.author_ids:
            authored.setdefault(u, []).append(i)
            others = coauthors.setdefault(u, set())
            others.update(a for a in doc.author_ids if a != u)
    return {u: UserContext(u, docs, frozenset(coauthors.get(u, ())))
            for u, docs in authored.items()}


def kg_user_scores(embeddings: KGEmbeddings, query_user_id: str,
                   candidates_author_ids: list[list[str]],
                   mode: AggregationMode = AggregationMode.MAX,
                   metric: str = "cosine") -> tuple[list[float | None], bool]:
    """Similarity between the query user's entity vector and each candidate's authors.

    Returns (scores, known). An unknown query user yields all zeros and
    False; a candidate with no catalogued authors scores None and the caller
    substitutes the per-query floor. ``metric`` is cosine by default, with
    negative euclidean distance as the alternative. Each author is scored
    once per query.
    """
    if metric not in KG_METRICS:
        raise ValueError(f"unknown user-score metric {metric!r}")
    catalog = embeddings.catalog
    if (EntityKind.USER, query_user_id) not in catalog:
        return [0.0] * len(candidates_author_ids), False
    q_vec = embeddings.entities[catalog.ordinal(EntityKind.USER, query_user_id)]
    q_norm = np.linalg.norm(q_vec)
    author_sims: dict[str, float | None] = {}

    def similarity(author: str) -> float | None:
        if author in author_sims:
            return author_sims[author]
        sim = None
        if (EntityKind.USER, author) in catalog:
            a_vec = embeddings.entities[catalog.ordinal(EntityKind.USER, author)]
            if metric == "neg_l2":
                sim = -float(np.linalg.norm(q_vec - a_vec))
            else:
                a_norm = np.linalg.norm(a_vec)
                sim = (0.0 if q_norm < 1e-12 or a_norm < 1e-12
                       else float(np.dot(q_vec, a_vec) / (q_norm * a_norm)))
        author_sims[author] = sim
        return sim

    scores: list[float | None] = []
    for author_ids in candidates_author_ids:
        sims = [s for s in map(similarity, author_ids) if s is not None]
        if not sims:
            scores.append(None)
        elif mode == AggregationMode.MAX:
            scores.append(max(sims))
        else:
            scores.append(float(np.mean(sims)))
    return scores, True


def kg_user_score(embeddings: KGEmbeddings, query_user_id: str,
                  candidate_author_ids: list[str],
                  mode: AggregationMode = AggregationMode.MAX,
                  metric: str = "cosine") -> tuple[float | None, bool]:
    """``kg_user_scores`` for a single candidate: (score, known)."""
    scores, known = kg_user_scores(embeddings, query_user_id,
                                   [candidate_author_ids], mode, metric)
    return scores[0], known


def mean_user_vector(doc_store: DocEmbeddingStore, context: UserContext
                     ) -> np.ndarray | None:
    """Normalized mean of the user's authored-document rows; None if undefined."""
    if not context.authored:
        return None
    mean = doc_store.vectors[context.authored].mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-12:
        return None
    return mean / norm


def attention_user_score(q_vec: np.ndarray, context: UserContext,
                         doc_store: DocEmbeddingStore,
                         candidate_ordinals: list[int]) -> list[float]:
    """Query-aware profile: softmax((q . d_i)/sqrt(dim)) over authored docs.

    The profile is built once per query; each candidate scores its cosine
    with it, and every candidate scores 0.0 when the profile is undefined.
    """
    weights = attention_weights(q_vec, context, doc_store)
    if weights is None:
        return [0.0] * len(candidate_ordinals)
    profile = weights @ doc_store.vectors[context.authored]
    norm = np.linalg.norm(profile)
    if norm < 1e-12:
        return [0.0] * len(candidate_ordinals)
    unit = profile / norm
    return [float(np.dot(unit, doc_store.vectors[o])) for o in candidate_ordinals]


def attention_weights(q_vec: np.ndarray, context: UserContext,
                      doc_store: DocEmbeddingStore) -> np.ndarray | None:
    if not context.authored:
        return None
    logits = doc_store.vectors[context.authored] @ q_vec / np.sqrt(doc_store.dim)
    logits -= logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def self_citation_score(context: UserContext,
                        candidates_author_ids: list[list[str]]) -> np.ndarray:
    """1.0 for each candidate sharing an author with the user or a co-author."""
    boost_set = {context.user_id} | context.coauthors
    return np.array([1.0 if boost_set.intersection(author_ids) else 0.0
                     for author_ids in candidates_author_ids])


@dataclass
class ChannelInputs:
    """What the channels read: ``kg`` reads kg, mode and metric; ``mean``
    and ``attention`` contexts and store (attention also encoder);
    ``selfcite`` contexts; ``pagerank`` and ``pop`` by_ordinal."""
    corpus: Corpus                  # the candidates' authors
    mode: AggregationMode
    metric: str
    kg: KGEmbeddings | None = None
    contexts: dict[str, UserContext] = field(default_factory=dict)
    store: DocEmbeddingStore | None = None
    encoder: HashedBowEncoder | None = None
    by_ordinal: np.ndarray | None = None   # one value per document ordinal


def user_column(channel: str, inputs: ChannelInputs, record: dict) -> np.ndarray:
    """The ``channel`` score of each candidate in a candidate record, which
    holds the query's ``user_id`` and ``text`` and the candidates' corpus
    ``ordinals``. Under ``mean``, ``attention`` and ``selfcite`` a user
    without pre-cutoff papers is unknown."""
    if channel not in USER_CHANNELS:
        raise ValueError(f"unknown user channel {channel!r}")
    ordinals = record["ordinals"]
    if channel in ("pagerank", "pop"):
        return inputs.by_ordinal[ordinals]
    context = inputs.contexts.get(record["user_id"])
    if channel == "none" or (context is None and channel != "kg"):
        return np.zeros(len(ordinals))
    store = inputs.store
    if channel == "mean":
        mean = mean_user_vector(store, context)
        return np.zeros(len(ordinals)) if mean is None else np.array(
            [float(np.dot(mean, store.row(o))) for o in ordinals])
    if channel == "attention":
        q_vec = inputs.encoder.encode(record["text"])
        return np.array(attention_user_score(q_vec, context, store, ordinals))
    authors = [inputs.corpus.docs[o].author_ids for o in ordinals]
    if channel == "selfcite":
        return self_citation_score(context, authors)
    scores, _ = kg_user_scores(inputs.kg, record["user_id"], authors,
                               inputs.mode, inputs.metric)
    floor = min((s for s in scores if s is not None), default=0.0)
    return np.array([floor if s is None else s for s in scores])
