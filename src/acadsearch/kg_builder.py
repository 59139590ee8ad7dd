"""Academic knowledge graph construction from the citation graph.

Four node kinds (user, document, venue, affiliation) and five relation
types. All relations are user-centric: wrote and cited point from a user to
documents, in_venue to venues, affiliated to affiliations, and co_author
(the only symmetric relation, materialized in both directions) to other
users. Only pre-cutoff documents contribute triples so the graph never
leaks test-time information; the triple set is deduplicated and treated
under the closed-world assumption by the downstream negative sampler.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .corpus.io import read_fields
from .corpus.model import Author, Corpus, CorpusView
from .errors import DataFormatError

log = logging.getLogger(__name__)


class EntityKind(str, Enum):
    USER = "user"
    DOCUMENT = "document"
    VENUE = "venue"
    AFFILIATION = "affiliation"


class RelationType(str, Enum):
    WROTE = "wrote"
    CITED = "cited"
    IN_VENUE = "in_venue"
    AFFILIATED = "affiliated"
    CO_AUTHOR = "co_author"


# head kind -> tail kind per relation; heads are always users.
RELATION_SIGNATURE: dict[RelationType, tuple[EntityKind, EntityKind]] = {
    RelationType.WROTE: (EntityKind.USER, EntityKind.DOCUMENT),
    RelationType.CITED: (EntityKind.USER, EntityKind.DOCUMENT),
    RelationType.IN_VENUE: (EntityKind.USER, EntityKind.VENUE),
    RelationType.AFFILIATED: (EntityKind.USER, EntityKind.AFFILIATION),
    RelationType.CO_AUTHOR: (EntityKind.USER, EntityKind.USER),
}

RELATION_ORDER = tuple(RelationType)

# value -> member, for parsing without an Enum call per field
_KIND_BY_VALUE = {kind.value: kind for kind in EntityKind}
_RELATION_BY_VALUE = {rel.value: rel for rel in RelationType}


class Triple(NamedTuple):
    head: int
    relation: RelationType
    tail: int


@dataclass(frozen=True)
class KGConfig:
    include_venue: bool = True
    include_affiliation: bool = True
    # Self-citations (user cites a document they also wrote) are excluded by
    # default to keep wrote/cited as disjoint signal channels.
    include_self_citations: bool = False


class EntityCatalog:
    """Contiguous entity ordinals; kind blocks in fixed order, each sorted by id.

    Documents come last, so the embedding trainer's trainable rows (users,
    venues, affiliations) are one prefix and the frozen document rows the
    tail.
    """

    _KIND_ORDER = (EntityKind.USER, EntityKind.VENUE, EntityKind.AFFILIATION,
                   EntityKind.DOCUMENT)

    def __init__(self, ids_by_kind: dict[EntityKind, list[str]]):
        self._ids: dict[EntityKind, list[str]] = {}
        self._offset: dict[EntityKind, int] = {}
        self._lookup: dict[tuple[EntityKind, str], int] = {}
        offset = 0
        for kind in self._KIND_ORDER:
            ids = sorted(ids_by_kind.get(kind, ()))
            self._ids[kind] = ids
            self._offset[kind] = offset
            for i, ext in enumerate(ids):
                self._lookup[(kind, ext)] = offset + i
            offset += len(ids)
        self.total = offset

    def ordinal(self, kind: EntityKind, external_id: str) -> int:
        try:
            return self._lookup[(kind, external_id)]
        except KeyError:
            raise KeyError(f"unknown entity ({kind.value}, {external_id!r})") from None

    def __contains__(self, key: tuple[EntityKind, str]) -> bool:
        return key in self._lookup

    def entity(self, ordinal: int) -> tuple[EntityKind, str]:
        for kind in self._KIND_ORDER:
            lo = self._offset[kind]
            if lo <= ordinal < lo + len(self._ids[kind]):
                return kind, self._ids[kind][ordinal - lo]
        raise KeyError(f"ordinal {ordinal} out of range")

    def count(self, kind: EntityKind) -> int:
        return len(self._ids[kind])

    def kind_range(self, kind: EntityKind) -> tuple[int, int]:
        lo = self._offset[kind]
        return lo, lo + len(self._ids[kind])

    def kinds(self) -> tuple[EntityKind, ...]:
        return self._KIND_ORDER


def build_catalog(corpus: Corpus, authors: list[Author], config: KGConfig
                  ) -> EntityCatalog:
    """Catalog all documents and authors; venues/affiliations only if enabled."""
    ids: dict[EntityKind, list[str]] = {
        EntityKind.USER: sorted({a.author_id for a in authors}
                                | {u for d in corpus for u in d.author_ids}),
        EntityKind.DOCUMENT: [d.doc_id for d in corpus],
    }
    if config.include_venue:
        ids[EntityKind.VENUE] = sorted({d.venue_id for d in corpus
                                        if d.venue_id is not None})
    if config.include_affiliation:
        ids[EntityKind.AFFILIATION] = sorted({a.affiliation_id for a in authors
                                              if a.affiliation_id is not None})
    return EntityCatalog(ids)


def build_kg(train_view: CorpusView, authors: list[Author], catalog: EntityCatalog,
             config: KGConfig) -> list[Triple]:
    """Extract the deduplicated triple set from pre-cutoff documents."""
    corpus = train_view.corpus
    affiliation_of = {a.author_id: a.affiliation_id for a in authors}
    triples: set[Triple] = set()

    def resolve(kind: EntityKind, ext_id: str) -> int:
        if (kind, ext_id) not in catalog:
            raise DataFormatError(
                f"entity ({kind.value}, {ext_id!r}) missing from catalog; "
                f"catalog and corpus/config are out of sync")
        return catalog.ordinal(kind, ext_id)

    written_by: dict[str, set[str]] = {}
    for doc in train_view:
        for u in doc.author_ids:
            written_by.setdefault(u, set()).add(doc.doc_id)

    for doc in train_view:
        doc_ord = resolve(EntityKind.DOCUMENT, doc.doc_id)
        user_ords = [(u, resolve(EntityKind.USER, u)) for u in doc.author_ids]
        for u, u_ord in user_ords:
            triples.add(Triple(u_ord, RelationType.WROTE, doc_ord))
            for ref in doc.references:
                if ref not in corpus:
                    continue
                if not config.include_self_citations and ref in written_by.get(u, ()):
                    continue
                triples.add(Triple(u_ord, RelationType.CITED,
                                   resolve(EntityKind.DOCUMENT, ref)))
            if config.include_venue and doc.venue_id is not None:
                triples.add(Triple(u_ord, RelationType.IN_VENUE,
                                   resolve(EntityKind.VENUE, doc.venue_id)))
        for i, (u1, o1) in enumerate(user_ords):
            for u2, o2 in user_ords[i + 1:]:
                if o1 == o2:
                    continue
                triples.add(Triple(o1, RelationType.CO_AUTHOR, o2))
                triples.add(Triple(o2, RelationType.CO_AUTHOR, o1))

    if config.include_affiliation:
        # Only users with pre-cutoff output get their affiliation edge;
        # edges from entirely untrained users would drag the affiliation
        # anchors toward random vectors and poison them for everyone else.
        for u in sorted(written_by):
            aff = affiliation_of.get(u)
            if aff is not None:
                triples.add(Triple(resolve(EntityKind.USER, u),
                                   RelationType.AFFILIATED,
                                   resolve(EntityKind.AFFILIATION, aff)))
    return sorted(triples)


def kg_stats(triples: list[Triple], catalog: EntityCatalog) -> str:
    """Plain-text summary: counts per relation and kind, degree distribution."""
    rel_counts = Counter(t.relation for t in triples)
    degree = Counter()
    for t in triples:
        degree[t.head] += 1
        degree[t.tail] += 1
    lines = ["knowledge graph summary", ""]
    lines.append(f"{'entity kind':<14} {'count':>8}")
    for kind in catalog.kinds():
        lines.append(f"{kind.value:<14} {catalog.count(kind):>8}")
    lines.append("")
    lines.append(f"{'relation':<14} {'triples':>8}")
    for rel in RELATION_ORDER:
        lines.append(f"{rel.value:<14} {rel_counts.get(rel, 0):>8}")
    lines.append("")
    lines.append(f"total triples  {len(triples):>8}")
    if degree:
        degs = sorted(degree.values())
        mean = sum(degs) / len(degs)
        lines.append(f"degree: min {degs[0]}, median {degs[len(degs) // 2]}, "
                     f"mean {mean:.2f}, max {degs[-1]}")
    else:
        lines.append("degree: empty graph")
    return "\n".join(lines) + "\n"


def save_triples(triples: list[Triple], catalog: EntityCatalog,
                 path: str | Path) -> None:
    """One triple per line: head_kind:head_id<TAB>relation<TAB>tail_kind:tail_id."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in triples:
            hk, hid = catalog.entity(t.head)
            tk, tid = catalog.entity(t.tail)
            fh.write(f"{hk.value}:{hid}\t{t.relation.value}\t{tk.value}:{tid}\n")


def _parse(members: dict, value: str, what: str):
    try:
        return members[value]
    except KeyError:
        raise ValueError(f"unknown {what} {value!r}") from None


def load_triples(path: str | Path, catalog: EntityCatalog) -> list[Triple]:
    """Each distinct entity field is resolved once: only a line with a new
    field or a bad relation takes the full parse, which raises on faults."""
    ordinals: dict[str, int] = {}
    triples: list[Triple] = []
    for lineno, (h, r, t) in read_fields(path, 3, "\t"):
        head, tail = ordinals.get(h), ordinals.get(t)
        relation = _RELATION_BY_VALUE.get(r)
        if head is None or relation is None or tail is None:
            try:
                hk, hid = h.split(":", 1)
                tk, tid = t.split(":", 1)
                head = catalog.ordinal(_parse(_KIND_BY_VALUE, hk, "entity kind"), hid)
                relation = _parse(_RELATION_BY_VALUE, r, "relation")
                tail = catalog.ordinal(_parse(_KIND_BY_VALUE, tk, "entity kind"), tid)
            except (ValueError, KeyError) as exc:
                raise DataFormatError(f"{path}: bad triple on line {lineno}: {exc}") from None
            ordinals[h], ordinals[t] = head, tail
        triples.append(Triple(head, relation, tail))
    return triples
