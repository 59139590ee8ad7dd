"""Corpus interchange: line-delimited JSON records plus TREC-style qrels.

One document per line with fields doc_id, title, abstract, author_ids,
venue_id, year, references; authors files carry author_id and
affiliation_id. Ingestion drops self-references and dangling references
and reports the counts.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..errors import DataFormatError
from .model import Author, Corpus, Document, Query, QrelSet

log = logging.getLogger(__name__)

_DOC_FIELDS = ("doc_id", "title", "abstract", "author_ids", "venue_id", "year", "references")


@dataclass
class IngestReport:
    documents: int = 0
    self_references_dropped: int = 0
    dangling_references_dropped: int = 0


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number from 1, line) for each line of a UTF-8 text file.

    Lines keep their newline, translated as text-mode ``open`` does. A byte
    sequence that is not UTF-8 raises DataFormatError naming the file, the
    line and the byte offset.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        raise _utf8_error(Path(path)) from None


def _utf8_error(path: Path) -> DataFormatError:
    # the text decoder reads ahead in chunks, so locate the bad byte anew
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return DataFormatError(f"{path}: invalid UTF-8 on line {line} "
                               f"(byte {exc.start}): {exc.reason}")
    return DataFormatError(f"{path}: invalid UTF-8")


def _parse_line(line: str, lineno: int, path) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: malformed record on line {lineno}: {exc}") from None
    if not isinstance(record, dict):
        raise DataFormatError(f"{path}: record on line {lineno} is not an object")
    return record


def load_corpus(path: str | Path, authors_path: str | Path | None = None
                ) -> tuple[Corpus, IngestReport]:
    """Load a line-delimited corpus file, enforcing reference hygiene."""
    path = Path(path)
    docs: list[Document] = []
    seen: dict[str, int] = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        record = _parse_line(line, lineno, path)
        missing = [f for f in ("doc_id", "title", "year") if f not in record]
        if missing:
            raise DataFormatError(
                f"{path}: record on line {lineno} missing fields {missing}")
        doc_id = str(record["doc_id"])
        if doc_id in seen:
            raise DataFormatError(
                f"{path}: duplicate doc_id {doc_id!r} on line {lineno} "
                f"(first seen on line {seen[doc_id]})")
        seen[doc_id] = lineno
        try:
            year = int(record["year"])
        except (TypeError, ValueError):
            raise DataFormatError(
                f"{path}: non-integer year on line {lineno}") from None
        docs.append(Document(
            doc_id=doc_id,
            title=str(record["title"]),
            abstract=str(record.get("abstract", "")),
            author_ids=[str(a) for a in record.get("author_ids", [])],
            venue_id=(str(record["venue_id"])
                      if record.get("venue_id") is not None else None),
            year=year,
            references=[str(r) for r in record.get("references", [])],
        ))
    report = IngestReport(documents=len(docs))
    known = set(seen)
    for doc in docs:
        cleaned = []
        for ref in doc.references:
            if ref == doc.doc_id:
                report.self_references_dropped += 1
            elif ref not in known:
                report.dangling_references_dropped += 1
            else:
                cleaned.append(ref)
        doc.references = cleaned
    authors = load_authors(authors_path) if authors_path else []
    corpus = Corpus(docs, authors)
    if report.self_references_dropped or report.dangling_references_dropped:
        log.warning("ingest %s: dropped %d self-references, %d dangling references",
                    path.name, report.self_references_dropped,
                    report.dangling_references_dropped)
    return corpus, report


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus:
            record = {
                "doc_id": doc.doc_id,
                "title": doc.title,
                "abstract": doc.abstract,
                "author_ids": doc.author_ids,
                "venue_id": doc.venue_id,
                "year": doc.year,
                "references": doc.references,
            }
            fh.write(json.dumps(record, sort_keys=False) + "\n")


def load_authors(path: str | Path) -> list[Author]:
    path = Path(path)
    authors: list[Author] = []
    seen: set[str] = set()
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        record = _parse_line(line, lineno, path)
        if "author_id" not in record:
            raise DataFormatError(f"{path}: author record on line {lineno} "
                                  f"missing author_id")
        author_id = str(record["author_id"])
        if author_id in seen:
            raise DataFormatError(f"{path}: duplicate author_id {author_id!r} "
                                  f"on line {lineno}")
        seen.add(author_id)
        aff = record.get("affiliation_id")
        if isinstance(aff, list):
            # Single affiliation per author; extra entries are ignored.
            aff = aff[0] if aff else None
        authors.append(Author(author_id, str(aff) if aff is not None else None))
    return authors


def save_authors(authors: list[Author], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a in authors:
            fh.write(json.dumps({"author_id": a.author_id,
                                 "affiliation_id": a.affiliation_id}) + "\n")


def save_queries(queries: list[Query], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(json.dumps({
                "query_id": q.query_id, "user_id": q.user_id, "text": q.text,
                "year": q.year, "source_doc_id": q.source_doc_id}) + "\n")


def load_queries(path: str | Path) -> list[Query]:
    path = Path(path)
    queries = []
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        record = _parse_line(line, lineno, path)
        missing = [f for f in ("query_id", "text", "year") if f not in record]
        if missing:
            raise DataFormatError(
                f"{path}: query record on line {lineno} missing fields {missing}")
        try:
            year = int(record["year"])
        except (TypeError, ValueError):
            raise DataFormatError(
                f"{path}: non-integer year on line {lineno}") from None
        queries.append(Query(
            query_id=str(record["query_id"]),
            user_id=(str(record["user_id"])
                     if record.get("user_id") is not None else None),
            text=str(record["text"]),
            year=year,
            source_doc_id=(str(record["source_doc_id"])
                           if record.get("source_doc_id") is not None else None),
        ))
    return queries


def save_qrels(qrels: QrelSet, path: str | Path) -> None:
    """TREC qrels format: `query_id 0 doc_id relevance`, binary relevance."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, docs in qrels.items():
            for doc_id in sorted(docs):
                fh.write(f"{qid} 0 {doc_id} 1\n")


def load_qrels(path: str | Path) -> QrelSet:
    path = Path(path)
    qrels = QrelSet()
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise DataFormatError(f"{path}: expected 4 fields on line {lineno}, "
                                  f"got {len(parts)}")
        qid, _, doc_id, rel = parts
        if rel not in ("0", "1"):
            raise DataFormatError(f"{path}: non-binary relevance {rel!r} "
                                  f"on line {lineno}")
        if rel == "1":
            qrels.add(qid, doc_id)
    return qrels
