"""Corpus interchange: line-delimited JSON records plus TREC-style qrels.

One document per line with fields doc_id, title, abstract, author_ids,
venue_id, year, references; authors files carry author_id and
affiliation_id. Ingestion drops self-references and dangling references
and reports the counts.
"""
from __future__ import annotations

import contextlib
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


def read_records(path: str | Path, required: tuple[str, ...], what: str
                 ) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) for each non-blank line of a JSON-lines
    file; a line that is not an object holding every ``required`` key raises
    DataFormatError naming the file and the line."""
    for lineno, line in read_lines(path):
        if not (line := line.strip()):
            continue
        try:
            record = json.loads(line)
            if type(record) is not dict:
                raise ValueError("not a JSON object")
            if missing := [f for f in required if f not in record]:
                raise ValueError(f"missing fields {missing}")
        except ValueError as exc:
            raise DataFormatError(
                f"{path}: bad {what} on line {lineno}: {exc}") from None
        yield lineno, record


def read_fields(path: str | Path, count: int, sep: str | None = None
                ) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each non-blank line of a field file: exactly
    ``count`` fields split on ``sep`` (on whitespace if None), and a newline
    at the end. The writers end every line, so a last one without is cut."""
    for lineno, line in read_lines(path):
        if line[-1] != "\n":
            raise DataFormatError(f"{path}: truncated file (no newline at "
                                  f"the end of line {lineno})")
        fields = line.split() if sep is None else line[:-1].split(sep)
        if len(fields) == count:
            yield lineno, fields
        elif fields not in ([], [""]):   # not a blank line
            raise DataFormatError(f"{path}: expected {count} fields on line "
                                  f"{lineno}, got {len(fields)}")


def _id(value, path: Path, lineno: int, field: str,
        optional: bool = False) -> str | None:
    """A string or integer id as a string; null too, if ``optional``."""
    if type(value) is str or value is None and optional:
        return value
    if type(value) is not int:
        raise DataFormatError(f"{path}: {field} on line {lineno} is not a "
                              f"string or an integer")
    return str(value)


def _text(value, path: Path, lineno: int, field: str,
          optional: bool = False) -> str:
    """A string; null, as an absent field gives, is "" if ``optional``."""
    if type(value) is str:
        return value
    if value is None and optional:
        return ""
    raise DataFormatError(f"{path}: {field} on line {lineno} is not a string")


def _ids(value, path: Path, lineno: int, field: str) -> list[str]:
    if type(value) is not list:
        raise DataFormatError(f"{path}: {field} on line {lineno} is not a list")
    return [v if type(v) is str else _id(v, path, lineno, field) for v in value]


def _year(value, path: Path, lineno: int) -> int:
    """An integer, an integral float or an integer string, as an int."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    if type(value) is str:
        with contextlib.suppress(ValueError):
            return int(value)
    raise DataFormatError(f"{path}: non-integer year on line {lineno}")


def load_corpus(path: str | Path, authors_path: str | Path | None = None
                ) -> tuple[Corpus, IngestReport]:
    """Load a line-delimited corpus file, enforcing reference hygiene."""
    path = Path(path)
    docs: list[Document] = []
    seen: dict[str, int] = {}
    for lineno, record in read_records(path, ("doc_id", "title", "year"),
                                       "document record"):
        doc_id = _id(record["doc_id"], path, lineno, "doc_id")
        if doc_id in seen:
            raise DataFormatError(
                f"{path}: duplicate doc_id {doc_id!r} on line {lineno} "
                f"(first seen on line {seen[doc_id]})")
        seen[doc_id] = lineno
        docs.append(Document(
            doc_id=doc_id,
            title=_text(record["title"], path, lineno, "title"),
            abstract=_text(record.get("abstract"), path, lineno, "abstract",
                           optional=True),
            author_ids=_ids(record.get("author_ids", []), path, lineno,
                            "author_ids"),
            venue_id=_id(record.get("venue_id"), path, lineno, "venue_id",
                         optional=True),
            year=_year(record["year"], path, lineno),
            references=_ids(record.get("references", []), path, lineno,
                            "references"),
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
    for lineno, record in read_records(path, ("author_id",), "author record"):
        author_id = _id(record["author_id"], path, lineno, "author_id")
        if author_id in seen:
            raise DataFormatError(f"{path}: duplicate author_id {author_id!r} "
                                  f"on line {lineno}")
        seen.add(author_id)
        aff = record.get("affiliation_id")
        if isinstance(aff, list):
            # Single affiliation per author; extra entries are ignored.
            aff = aff[0] if aff else None
        authors.append(Author(author_id, _id(aff, path, lineno,
                                             "affiliation_id", optional=True)))
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
    for lineno, record in read_records(path, ("query_id", "text", "year"),
                                       "query record"):
        queries.append(Query(
            query_id=_id(record["query_id"], path, lineno, "query_id"),
            user_id=_id(record.get("user_id"), path, lineno, "user_id",
                        optional=True),
            text=_text(record["text"], path, lineno, "text"),
            year=_year(record["year"], path, lineno),
            source_doc_id=_id(record.get("source_doc_id"), path, lineno,
                              "source_doc_id", optional=True),
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
    for lineno, (qid, _, doc_id, rel) in read_fields(path, 4):
        if rel not in ("0", "1"):
            raise DataFormatError(f"{path}: non-binary relevance {rel!r} "
                                  f"on line {lineno}")
        if rel == "1":
            qrels.add(qid, doc_id)
    return qrels
