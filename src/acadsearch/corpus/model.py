"""Corpus data model: documents, authors, queries, relevance judgments."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import DataFormatError


@dataclass
class Document:
    doc_id: str
    title: str
    abstract: str
    author_ids: list[str] = field(default_factory=list)
    venue_id: str | None = None
    year: int = 0
    references: list[str] = field(default_factory=list)

    def text(self) -> str:
        """Indexed text: title concatenated with abstract."""
        return f"{self.title} {self.abstract}".strip()


@dataclass
class Author:
    author_id: str
    affiliation_id: str | None = None


@dataclass
class Query:
    query_id: str
    user_id: str | None
    text: str
    year: int
    source_doc_id: str | None = None


class QrelSet:
    """Binary relevance judgments: query_id -> set of relevant doc_ids."""

    def __init__(self, judgments: dict[str, set[str]] | None = None):
        self._rel: dict[str, set[str]] = {}
        if judgments:
            for qid, docs in judgments.items():
                self._rel[qid] = set(docs)

    def add(self, query_id: str, doc_id: str) -> None:
        self._rel.setdefault(query_id, set()).add(doc_id)

    def relevant(self, query_id: str) -> frozenset[str]:
        return frozenset(self._rel.get(query_id, ()))

    def query_ids(self) -> list[str]:
        return sorted(self._rel)

    def items(self) -> Iterator[tuple[str, frozenset[str]]]:
        for qid in self.query_ids():
            yield qid, frozenset(self._rel[qid])

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._rel

    def __len__(self) -> int:
        return len(self._rel)


class Corpus:
    """Immutable-by-convention container; document ordinals follow insertion order."""

    def __init__(self, documents: list[Document], authors: list[Author] | None = None,
                 extras: dict | None = None):
        self.docs: list[Document] = list(documents)
        self._ordinal: dict[str, int] = {}
        for i, doc in enumerate(self.docs):
            if doc.doc_id in self._ordinal:
                raise DataFormatError(f"duplicate doc_id {doc.doc_id!r}")
            self._ordinal[doc.doc_id] = i
        self.authors: dict[str, Author] = {}
        for a in authors or []:
            if a.author_id in self.authors:
                raise DataFormatError(f"duplicate author_id {a.author_id!r}")
            self.authors[a.author_id] = a
        # Generator metadata (latent topics etc.); never serialized.
        self.extras: dict = extras or {}

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._ordinal

    def ordinal(self, doc_id: str) -> int:
        return self._ordinal[doc_id]

    def doc(self, ordinal: int) -> Document:
        return self.docs[ordinal]

    def get(self, doc_id: str) -> Document:
        return self.docs[self._ordinal[doc_id]]

    def years(self) -> list[int]:
        return [d.year for d in self.docs]

    def view(self, ordinals: list[int]) -> "CorpusView":
        return CorpusView(self, tuple(ordinals))

    def before(self, year: int) -> "CorpusView":
        """The documents published before ``year``, in ordinal order."""
        return self.view([i for i, d in enumerate(self.docs) if d.year < year])


@dataclass(frozen=True)
class CorpusView:
    """Read-only subset of a corpus; ordinals refer to the parent corpus."""

    corpus: Corpus
    ordinals: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ordinals)

    def __iter__(self) -> Iterator[Document]:
        for i in self.ordinals:
            yield self.corpus.docs[i]

    def items(self) -> Iterator[tuple[int, Document]]:
        for i in self.ordinals:
            yield i, self.corpus.docs[i]
