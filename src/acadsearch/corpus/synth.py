"""Deterministic synthetic academic corpus generator.

The generator plants three distinct, partially overlapping signals so that
every pipeline stage has something real to learn:

* lexical/topical: vocabulary is partitioned into topic blocks, each split
  further into subtopic blocks. A document writes mostly in its subtopic
  and topic vocabulary, and its title borrows words from the titles of the
  papers it cites, so cited work is lexically reachable from a title query;
* graph: references prefer earlier documents of the same topic/subtopic and
  occasionally copy a citation of a cited paper, skewing in-degree;
* social: authors cluster by affiliation, affiliations carry topics and
  sticky subtopics, and a configurable fraction of references points at
  documents written by the team or by affiliation colleagues. Which cluster
  a paper belongs to is invisible in its text, so this signal is only
  reachable through authorship metadata.

Everything is a pure function of (config, seed): the generator is called
in one fixed order with fixed arguments, so any edit that adds, drops,
reorders or re-batches a draw changes the corpus. ``tests/test_synth.py``
pins the output bytes with golden digests. The hot loops therefore speed up
only around the draws: ``bisect_left`` on list copies of the cumulative
weights returns what ``np.searchsorted`` returns for a float, and
increasing ordinal lists are cut by bisection instead of being filtered.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import Author, Corpus, Document

# Pseudoword syllables: consonant+vowel only, so generated words never end in
# s/ed/ing and are fixed points of the query stemmer.
_CONSONANTS = "bcdfghjklmnprtvz"
_SYLLABLES = [c + v for c in _CONSONANTS for v in "aeiou"]

_TITLE_STOPWORDS = ("the", "of", "and", "for", "with", "on", "in", "a")


@dataclass
class SynthConfig:
    n_docs: int = 20000
    n_authors: int = 2000
    n_venues: int = 50
    n_affiliations: int = 200
    n_topics: int = 25
    vocab_size: int = 5000
    year_min: int = 2000
    year_max: int = 2019
    n_subtopics: int = 8
    title_len: tuple[int, int] = (5, 12)
    abstract_len: tuple[int, int] = (50, 150)
    refs_mean: float = 8.0
    refs_max: int = 30
    shared_vocab_frac: float = 0.2
    stopword_prob: float = 0.12
    social_cite_prob: float = 0.7
    subtopic_cite_prob: float = 0.2
    copy_cite_prob: float = 0.35
    coauthor_same_affiliation_prob: float = 0.55
    coauthor_same_topic_prob: float = 0.35
    subtopic_sticky_prob: float = 0.35
    # junior member goes first on the byline; query writers are then often
    # users with a thin publication history whose embeddings lean on
    # metadata edges
    junior_first_prob: float = 0.6
    junior_coauthor_prob: float = 0.35
    authorless_prob: float = 0.01


def _make_vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n_syl = int(rng.integers(2, 5))
        word = "".join(_SYLLABLES[int(rng.integers(len(_SYLLABLES)))]
                       for _ in range(n_syl))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_cdf(n: int, s: float = 1.1) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


class _Vocab:
    """Topic blocks, each split into subtopic blocks, plus a shared pool.

    Within a subtopic, consecutive words form synonym pairs: one underlying
    concept surfaces as either form with equal probability. Exact-match
    retrieval cannot bridge the forms; an encoder trained on co-occurrence
    can, which is the transferable edge the dense channel is supposed to add.
    """

    def __init__(self, rng: np.random.Generator, cfg: SynthConfig):
        vocab = _make_vocabulary(rng, cfg.vocab_size)
        n_shared = max(1, int(cfg.vocab_size * cfg.shared_vocab_frac))
        self.shared = vocab[:n_shared]
        per_topic = (cfg.vocab_size - n_shared) // cfg.n_topics
        per_sub = per_topic // cfg.n_subtopics
        n_concepts = max(1, per_sub // 2)
        self.topic_words: list[list[str]] = []
        # sub_forms[topic][sub][dialect][concept]: the concept's word of its
        # synonym pair in that dialect (the block's last word when the pair
        # is cut short)
        self.sub_forms: list[list[list[list[str]]]] = []
        for t in range(cfg.n_topics):
            base = n_shared + t * per_topic
            block = vocab[base: base + per_topic]
            self.topic_words.append(block)
            subs = [block[s * per_sub: (s + 1) * per_sub]
                    for s in range(cfg.n_subtopics)]
            self.sub_forms.append(
                [[[sb[min(2 * c + dialect, len(sb) - 1)]
                   for c in range(n_concepts)] for dialect in (0, 1)]
                 for sb in subs])
        # Python lists: bisect_left on one returns the first i with
        # cdf[i] >= u, as np.searchsorted does, without numpy's per-call
        # cost. generate_synthetic's text_tokens makes the draws.
        self.shared_cdf = _zipf_cdf(len(self.shared)).tolist()
        self.topic_cdf = _zipf_cdf(per_topic).tolist()
        self.concept_cdf = _zipf_cdf(n_concepts).tolist()


def generate_synthetic(cfg: SynthConfig, seed: int) -> tuple[Corpus, list[Author]]:
    """Generate a corpus plus author records; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    vocab = _Vocab(rng, cfg)

    # Affiliations carry topics; authors inherit their affiliation's topic as
    # their first affinity, which is what makes the affiliation node useful.
    aff_topic = np.arange(cfg.n_affiliations) % cfg.n_topics
    author_aff = rng.integers(0, cfg.n_affiliations, size=cfg.n_authors).tolist()
    author_topics: list[list[int]] = []
    for a in range(cfg.n_authors):
        affin = [int(aff_topic[author_aff[a]])]
        for _ in range(2):
            if rng.random() < 0.3:
                extra = int(rng.integers(cfg.n_topics))
                if extra not in affin:
                    affin.append(extra)
        author_topics.append(affin)
    topic_authors: list[list[int]] = [[] for _ in range(cfg.n_topics)]
    for a, affin in enumerate(author_topics):
        for t in affin:
            topic_authors[t].append(a)
    aff_authors: list[list[int]] = [[] for _ in range(cfg.n_affiliations)]
    for a in range(cfg.n_authors):
        aff_authors[author_aff[a]].append(a)

    venue_topic = np.arange(cfg.n_venues) % cfg.n_topics
    venues_by_topic: list[list[int]] = [[] for _ in range(cfg.n_topics)]
    for v in range(cfg.n_venues):
        venues_by_topic[venue_topic[v]].append(v)

    # Seniority model: author index doubles as a seniority rank. Low-index
    # authors entered the field early and lead/co-author prolifically
    # (Zipf); high-index authors activate late, publish little, and appear
    # on bylines as junior first authors. Their embeddings are the ones
    # that must lean on metadata edges.
    span = max(1, cfg.year_max - cfg.year_min)
    frac = np.arange(cfg.n_authors) / max(1, cfg.n_authors - 1)
    activation = (cfg.year_min
                  + (frac ** 0.7) * span * 0.95).astype(np.int64).tolist()
    zipf_w = 1.0 / np.arange(1, cfg.n_authors + 1, dtype=np.float64) ** 0.9
    lead_cdf_by_year: dict[int, tuple[list[int], list[float]]] = {}
    for y in range(cfg.year_min, cfg.year_max + 1):
        active = [a for a, start in enumerate(activation) if start <= y]
        cdf = np.cumsum(zipf_w[active])
        lead_cdf_by_year[y] = (active, (cdf / cdf[-1]).tolist())

    def pick_coauthor(pool, year):
        """Seniors by productivity most of the time, a recent junior otherwise."""
        if rng.random() < cfg.junior_coauthor_prob:
            for _ in range(6):
                cand = pool[int(rng.integers(len(pool)))]
                if year - 3 <= activation[cand] <= year:
                    return cand
        for _ in range(6):
            cand = pool[int(len(pool) * rng.random() ** 2.2)]
            if activation[cand] <= year:
                return cand
        return None

    # Publication volume grows over time, so an 80th-percentile cutoff leaves
    # a healthy test partition.
    years_range = np.arange(cfg.year_min, cfg.year_max + 1)
    year_weights = np.linspace(1.0, 2.0, len(years_range))
    year_weights /= year_weights.sum()
    years = np.sort(rng.choice(years_range, size=cfg.n_docs,
                               p=year_weights)).tolist()

    all_authors = list(range(cfg.n_authors))
    # Ordinals are appended in increasing order, so each of these lists is
    # sorted and its part below a bound is a prefix found by bisection.
    author_docs: list[list[int]] = [[] for _ in range(cfg.n_authors)]
    aff_docs: list[list[int]] = [[] for _ in range(cfg.n_affiliations)]
    sub_docs: dict[tuple[int, int], list[int]] = {}
    aff_subtopic: dict[tuple[int, int], int] = {}
    doc_refs: list[list[int]] = []
    doc_topic: list[int] = []
    doc_sub: list[int] = []
    # each document's title without stopwords: what its citers borrow
    title_words_by_doc: list[list[str]] = []
    docs: list[Document] = []

    random, integers = rng.random, rng.integers
    stopword_prob = cfg.stopword_prob
    n_stop = len(_TITLE_STOPWORDS)
    shared, shared_cdf = vocab.shared, vocab.shared_cdf
    topic_words, topic_cdf = vocab.topic_words, vocab.topic_cdf
    concept_cdf = vocab.concept_cdf

    def text_tokens(n, primary, sub, dialect, secondary, ref_pool, mix):
        """mix = (p_sub, p_ref, p_topic); remainder goes to the shared pool.

        Subtopic concepts are drawn by Zipf and surface in the document's
        dialect; topic and shared words are drawn by Zipf over their block.
        """
        out = []
        append = out.append
        p_sub, p_ref, p_topic = mix
        p_ref_sub = p_ref + p_sub
        p_ref_sub_topic = p_ref_sub + p_topic
        forms = vocab.sub_forms[primary][sub][dialect]
        for _ in range(n):
            if random() < stopword_prob:
                append(_TITLE_STOPWORDS[int(random() * n_stop)])
                continue
            u = random()
            if u < p_ref and ref_pool:
                append(ref_pool[int(integers(len(ref_pool)))])
            elif u < p_ref_sub:
                append(forms[bisect_left(concept_cdf, random())])
            elif u < p_ref_sub_topic:
                topic = primary
                if secondary is not None and random() < 0.25:
                    topic = secondary
                append(topic_words[topic][bisect_left(topic_cdf, random())])
            else:
                append(shared[bisect_left(shared_cdf, random())])
        return out

    for i in range(cfg.n_docs):
        year = years[i]
        elig_end = bisect_left(years, year)

        if rng.random() < cfg.authorless_prob:
            team: list[int] = []
            primary = int(rng.integers(cfg.n_topics))
            aff_of_lead = None
        else:
            active, lead_cdf = lead_cdf_by_year[year]
            lead = active[bisect_left(lead_cdf, rng.random())]
            team = [lead]
            team_size = int(rng.integers(1, 4))
            attempts = 0
            while len(team) < team_size and attempts < 20:
                attempts += 1
                u = rng.random()
                if u < cfg.coauthor_same_affiliation_prob:
                    pool = aff_authors[author_aff[lead]]
                elif u < (cfg.coauthor_same_affiliation_prob
                          + cfg.coauthor_same_topic_prob):
                    pool = topic_authors[author_topics[lead][0]]
                else:
                    pool = all_authors
                cand = pick_coauthor(pool, year)
                if cand is not None and cand not in team:
                    team.append(int(cand))
            primary = author_topics[lead][int(rng.integers(
                len(author_topics[lead])))]
            aff_of_lead = author_aff[lead]
        team_affs = {author_aff[a] for a in team}
        # Affiliations keep working on the same subtopic most of the time,
        # which concentrates each social cluster in a lexical neighborhood.
        key = (aff_of_lead, primary) if aff_of_lead is not None else None
        if key is not None and key in aff_subtopic \
                and rng.random() < cfg.subtopic_sticky_prob:
            sub = aff_subtopic[key]
        else:
            sub = int(rng.integers(cfg.n_subtopics))
            if key is not None:
                aff_subtopic[key] = sub
        secondary = int(rng.integers(cfg.n_topics)) if rng.random() < 0.5 else None
        # Every document writes all its subtopic terms in one of two synonym
        # dialects; exact matching sees only half the neighborhood.
        dialect = 1 if rng.random() < 0.5 else 0
        doc_topic.append(primary)
        doc_sub.append(sub)

        # References: social pool first, then same-subtopic, then anything
        # earlier. Copying a cited paper's reference skews in-degree.
        refs: list[int] = []
        if elig_end > 0:
            social: list[int] = []
            for lst in ([author_docs[a] for a in team]
                        + [aff_docs[aff] for aff in team_affs]):
                social.extend(lst[:bisect_left(lst, elig_end)])
            same_sub = sub_docs.get((primary, sub), [])
            same_sub = same_sub[:bisect_left(same_sub, elig_end)]
            n_refs = min(int(rng.poisson(cfg.refs_mean)), cfg.refs_max, elig_end)
            chosen: set[int] = set()
            for _ in range(n_refs):
                for _attempt in range(8):
                    u = rng.random()
                    if u < cfg.social_cite_prob and social:
                        # colleagues' work on the citing paper's own topic first
                        for _retry in range(3):
                            cand = social[int(rng.integers(len(social)))]
                            if doc_topic[cand] == primary:
                                break
                    elif u < cfg.social_cite_prob + cfg.subtopic_cite_prob \
                            and same_sub:
                        cand = same_sub[int(rng.integers(len(same_sub)))]
                        if rng.random() < cfg.copy_cite_prob and doc_refs[cand]:
                            copied = doc_refs[cand][int(rng.integers(
                                len(doc_refs[cand])))]
                            if copied < elig_end:
                                cand = copied
                    else:
                        cand = int(rng.integers(elig_end))
                    if cand != i and cand not in chosen:
                        chosen.add(cand)
                        refs.append(cand)
                        break
        doc_refs.append(refs)

        # Words this paper borrows from the titles of what it cites.
        ref_pool: list[str] = []
        for r in refs:
            ref_pool.extend(title_words_by_doc[r])

        title_tokens = text_tokens(
            int(rng.integers(cfg.title_len[0], cfg.title_len[1] + 1)),
            primary, sub, dialect, secondary, ref_pool, mix=(0.50, 0.25, 0.15))
        abstract_tokens = text_tokens(
            int(rng.integers(cfg.abstract_len[0], cfg.abstract_len[1] + 1)),
            primary, sub, dialect, secondary, ref_pool, mix=(0.42, 0.18, 0.25))

        # Venue tracks topic and loosely subtopic; the social cluster itself
        # is carried by affiliations, keeping the two node types distinct.
        topic_venues = venues_by_topic[primary]
        u = rng.random()
        if u < 0.7 and topic_venues:
            venue = topic_venues[sub % len(topic_venues)]
        elif u < 0.9 and topic_venues:
            venue = topic_venues[int(rng.integers(len(topic_venues)))]
        else:
            venue = int(rng.integers(cfg.n_venues))

        for a in team:
            author_docs[a].append(i)
        for aff in team_affs:
            aff_docs[aff].append(i)
        sub_docs.setdefault((primary, sub), []).append(i)
        title_words_by_doc.append([w for w in title_tokens
                                   if w not in _TITLE_STOPWORDS])
        byline = list(team)
        if len(byline) > 1 and rng.random() < cfg.junior_first_prob:
            junior = max(byline, key=lambda a: (activation[a], a))
            byline.remove(junior)
            byline.insert(0, junior)
        docs.append(Document(
            doc_id=f"d{i:05d}",
            title=" ".join(title_tokens),
            abstract=" ".join(abstract_tokens),
            author_ids=[f"u{a:04d}" for a in byline],
            venue_id=f"v{venue:03d}",
            year=year,
            references=[f"d{r:05d}" for r in refs],
        ))

    authors = [Author(f"u{a:04d}", f"a{author_aff[a]:03d}")
               for a in range(cfg.n_authors)]
    extras = {
        "doc_topics": doc_topic,
        "doc_subtopics": doc_sub,
        "author_topics": {f"u{a:04d}": author_topics[a]
                          for a in range(cfg.n_authors)},
        "affiliation_topics": {f"a{k:03d}": int(aff_topic[k])
                               for k in range(cfg.n_affiliations)},
    }
    corpus = Corpus(docs, authors, extras=extras)
    return corpus, authors
