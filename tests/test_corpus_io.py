import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from acadsearch.cli import main
from acadsearch.corpus import (QrelSet, load_authors, load_corpus, load_qrels,
                               load_queries, save_authors, save_corpus,
                               save_qrels, save_queries)
from acadsearch.corpus.model import Author, Corpus, Document, Query
from acadsearch.errors import DataFormatError
from acadsearch.fusion_eval import read_run
from acadsearch.kg_builder import EntityCatalog, EntityKind, load_triples
from acadsearch.pipeline import _load_candidates


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def doc_record(doc_id, refs=(), year=2010, **kw):
    rec = {"doc_id": doc_id, "title": f"title {doc_id}", "abstract": "words here",
           "author_ids": ["u1"], "venue_id": "v1", "year": year,
           "references": list(refs)}
    rec.update(kw)
    return rec


def test_load_corpus_well_formed(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [doc_record("d1"), doc_record("d2"), doc_record("d3")])
    corpus, report = load_corpus(path)
    assert len(corpus) == 3
    assert report.self_references_dropped == 0
    assert report.dangling_references_dropped == 0


def test_load_corpus_drops_self_reference(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [doc_record("d1", refs=["d1", "d2"]), doc_record("d2")])
    corpus, report = load_corpus(path)
    assert corpus.get("d1").references == ["d2"]
    assert report.self_references_dropped == 1


def test_load_corpus_drops_dangling_reference(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [doc_record("d1", refs=["nope"]), doc_record("d2")])
    corpus, report = load_corpus(path)
    assert corpus.get("d1").references == []
    assert report.dangling_references_dropped == 1


def test_load_corpus_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(doc_record("d1")) + "\n{broken\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_corpus(path)


def test_load_corpus_duplicate_doc_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [doc_record("d1"), doc_record("d1")])
    with pytest.raises(DataFormatError, match="duplicate doc_id"):
        load_corpus(path)


def test_load_corpus_field_validation(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"doc_id": "d1", "title": "t"}])
    with pytest.raises(DataFormatError, match="missing fields"):
        load_corpus(path)
    write_jsonl(path, [doc_record("d1", year="two thousand")])
    with pytest.raises(DataFormatError, match="non-integer year"):
        load_corpus(path)


def test_corpus_roundtrip(tmp_path, small_synth):
    _, corpus, authors = small_synth
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    loaded, report = load_corpus(path)
    assert len(loaded) == len(corpus)
    assert report.dangling_references_dropped == 0
    for a, b in zip(corpus.docs, loaded.docs):
        assert (a.doc_id, a.title, a.abstract, a.author_ids, a.venue_id,
                a.year, a.references) == \
               (b.doc_id, b.title, b.abstract, b.author_ids, b.venue_id,
                b.year, b.references)
    # a second save is byte-identical
    path2 = tmp_path / "c2.jsonl"
    save_corpus(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_authors_roundtrip_and_first_affiliation(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [
        {"author_id": "u1", "affiliation_id": "x"},
        {"author_id": "u2", "affiliation_id": ["y", "z"]},
        {"author_id": "u3"},
    ])
    authors = load_authors(path)
    assert [a.affiliation_id for a in authors] == ["x", "y", None]
    out = tmp_path / "b.jsonl"
    save_authors(authors, out)
    assert [a.affiliation_id for a in load_authors(out)] == ["x", "y", None]


def test_duplicate_author_rejected(tmp_path):
    path = tmp_path / "a.jsonl"
    write_jsonl(path, [{"author_id": "u1"}, {"author_id": "u1"}])
    with pytest.raises(DataFormatError, match="duplicate author_id"):
        load_authors(path)


def test_qrels_trec_roundtrip(tmp_path):
    qrels = QrelSet({"q1": {"d1", "d2"}, "q2": {"d3"}})
    path = tmp_path / "qrels.txt"
    save_qrels(qrels, path)
    lines = path.read_text().splitlines()
    assert lines[0].split() == ["q1", "0", "d1", "1"]
    loaded = load_qrels(path)
    assert loaded.relevant("q1") == frozenset({"d1", "d2"})
    assert loaded.relevant("q2") == frozenset({"d3"})


def test_qrels_bad_line(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\nq2 d3 1\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_qrels(path)


def test_queries_roundtrip(tmp_path):
    qs = [Query("q1", "u1", "hello world", 2015, "d1"),
          Query("q2", None, "vector", 2016, None)]
    path = tmp_path / "q.jsonl"
    save_queries(qs, path)
    loaded = load_queries(path)
    assert loaded[0].user_id == "u1" and loaded[0].source_doc_id == "d1"
    assert loaded[1].user_id is None and loaded[1].year == 2016


def test_corpus_constructor_rejects_duplicates():
    with pytest.raises(DataFormatError):
        Corpus([Document("d1", "t", "a"), Document("d1", "t", "a")])


def test_corpus_lookup():
    c = Corpus([Document("d1", "t", "a", year=2000),
                Document("d2", "t", "a", year=2001)],
               [Author("u1", "a1")])
    assert c.ordinal("d2") == 1
    assert c.doc(0).doc_id == "d1"
    assert "d1" in c and "dx" not in c
    assert c.years() == [2000, 2001]


def _candidates(path):
    corpus = Corpus([Document(d, "t", "", [], None, 2010, [])
                     for d in ("d1", "d12", "dé1")])
    return _load_candidates(path, corpus)


def _triples(path):
    return load_triples(path, EntityCatalog({
        EntityKind.USER: ["u1", "u12"],
        EntityKind.DOCUMENT: ["d1", "d12", "dé1"]}))


@pytest.mark.parametrize("name, line, load", [
    pytest.param("corpus.jsonl", json.dumps(doc_record("d1")), load_corpus,
                 id="corpus"),
    pytest.param("authors.jsonl", '{"author_id": "u1"}', load_authors,
                 id="authors"),
    pytest.param("queries.jsonl", '{"query_id": "q1", "text": "t", "year": 2010}',
                 load_queries, id="queries"),
    pytest.param("qrels.txt", "q1 0 d1 1", load_qrels, id="qrels"),
    pytest.param("triples.tsv", "user:u1\twrote\tdocument:d1", _triples,
                 id="triples"),
    pytest.param("run.txt", "q1 Q0 d1 1 0.5 run", read_run, id="run"),
    pytest.param("score/val_candidates.jsonl", json.dumps(
        {"query_id": "q1", "user_id": "u1", "text": "t", "doc_ids": ["d1"],
         "bm25": [1.5], "dense": [0.5]}), _candidates, id="candidates"),
])
def test_invalid_utf8_names_file_and_line(tmp_path, name, line, load):
    """A stray non-UTF-8 byte raises DataFormatError naming the file and
    its line, also past the decoder's first read-ahead chunk."""
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    good = (line + "\n").encode("utf-8")
    path.write_bytes(good)
    load(path)                                        # the good line loads
    path.write_bytes(good + b"\n" * 20000 + b"\xff" + good)
    with pytest.raises(DataFormatError,
                       match=f"{path}: invalid UTF-8 on line 20002 "):
        load(path)


def _lines(*records):
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


# each document cites only earlier ones, so every prefix keeps its references
_PREFIX_CORPUS = _lines(doc_record("d1"), doc_record("d12", refs=["d1"]),
                        doc_record("dé1", refs=["d12", "d1"]))
_PREFIX_AUTHORS = _lines({"author_id": "u1", "affiliation_id": "a1"},
                         {"author_id": "u12", "affiliation_id": None},
                         {"author_id": "ué1", "affiliation_id": "a12"})
_PREFIX_QUERIES = _lines(
    {"query_id": "q1", "user_id": "u1", "text": "a b", "year": 2011,
     "source_doc_id": "d1"},
    {"query_id": "q12", "user_id": None, "text": "c", "year": 2012,
     "source_doc_id": None},
    {"query_id": "qü1", "user_id": "u12", "text": "é", "year": 2013,
     "source_doc_id": "dé1"})
_PREFIX_CANDIDATES = _lines(
    {"query_id": "q1", "user_id": "u1", "text": "t", "doc_ids": ["d1", "d12"],
     "bm25": [2.5, 1.25], "dense": [0.5, -0.5]},
    {"query_id": "q12", "user_id": None, "text": "t", "doc_ids": ["dé1"],
     "bm25": [1.5], "dense": [0.25]})


@pytest.mark.parametrize("name, text, load, facts", [
    pytest.param("qrels.txt", "q1 0 dé1 1\nq1 0 d2 1\nqü2 0 d3 0\n",
                 load_qrels, lambda qrels: {(q, d) for q, docs in qrels.items()
                                            for d in docs}, id="qrels"),
    pytest.param("run.txt", "q1 Q0 dé1 1 0.9 fused\nq1 Q0 d2 2 0.5 fused\n"
                 "qü2 Q0 d3 1 1.5e-05 fused\n", read_run,
                 lambda run: {(q,) + entry for q, entries in run.rankings.items()
                              for entry in entries}, id="run"),
    pytest.param("triples.tsv", "user:u12\twrote\tdocument:d12\n"
                 "user:u1\twrote\tdocument:dé1\nuser:u1\twrote\tdocument:d12\n",
                 _triples, set, id="triples"),
    pytest.param("corpus.jsonl", _PREFIX_CORPUS, load_corpus,
                 lambda loaded: {(d.doc_id, d.title, d.abstract,
                                  tuple(d.author_ids), d.venue_id, d.year,
                                  tuple(d.references)) for d in loaded[0].docs},
                 id="corpus"),
    pytest.param("authors.jsonl", _PREFIX_AUTHORS, load_authors,
                 lambda authors: {(a.author_id, a.affiliation_id)
                                  for a in authors}, id="authors"),
    pytest.param("queries.jsonl", _PREFIX_QUERIES, load_queries,
                 lambda queries: {(q.query_id, q.user_id, q.text, q.year,
                                   q.source_doc_id) for q in queries},
                 id="queries"),
    pytest.param("candidates.jsonl", _PREFIX_CANDIDATES, _candidates,
                 lambda records: {(r["query_id"], r["user_id"],
                                   tuple(r["doc_ids"]), tuple(r["bm25"]),
                                   tuple(r["dense"])) for r in records},
                 id="candidates"),
])
def test_every_prefix_loads_or_names_the_file(tmp_path, name, text, load, facts):
    """A file cut at any byte, also inside a multi-byte character, either
    loads no fact the whole file does not hold or raises DataFormatError
    naming the file; nothing else escapes."""
    data = text.encode("utf-8")
    path = tmp_path / name
    path.write_bytes(data)
    whole = facts(load(path))
    outcomes = set()
    for n in range(len(data) + 1):
        path.write_bytes(data[:n])
        try:
            loaded = load(path)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{path}: "), (n, str(exc))
            outcomes.add("rejected")
        else:
            assert facts(loaded) <= whole, n
            outcomes.add("loaded")
    assert outcomes == {"loaded", "rejected"}
    path.write_bytes(data[:data.index("é".encode()) + 1])
    with pytest.raises(DataFormatError, match=f"{path}: invalid UTF-8"):
        load(path)


def _with_value(record, field, raw):
    """``record`` as one JSON line whose ``field`` holds the JSON text ``raw``."""
    return json.dumps({**record, field: "@"}).replace('"@"', raw, 1)


_QUERY = {"query_id": "q2", "user_id": "u1", "text": "t", "year": 2010}


@pytest.mark.parametrize("name, load, first, record, field, raw", [
    ("corpus.jsonl", load_corpus, doc_record("d1"), doc_record("d2"),
     "author_ids", "5"),
    ("corpus.jsonl", load_corpus, doc_record("d1"), doc_record("d2"),
     "references", "7"),
    ("corpus.jsonl", load_corpus, doc_record("d1"), doc_record("d3"),
     "references", '"d1"'),
    ("corpus.jsonl", load_corpus, doc_record("d1"), doc_record("d2"),
     "year", "1e999"),
    ("corpus.jsonl", load_corpus, doc_record("d1"), doc_record("d2"),
     "year", "true"),
    ("corpus.jsonl", load_corpus, doc_record("d1"), doc_record("d2"),
     "year", "2000.7"),
    ("corpus.jsonl", load_corpus, doc_record("d1"), doc_record("d2"),
     "doc_id", "null"),
    ("queries.jsonl", load_queries, {**_QUERY, "query_id": "q1"}, _QUERY,
     "year", "1e999"),
    ("authors.jsonl", load_authors, {"author_id": "u1"}, {"author_id": "u2"},
     "author_id", "null"),
    ("corpus.jsonl", load_corpus, doc_record("d1"), doc_record("d2"),
     "title", "null"),
    ("corpus.jsonl", load_corpus, doc_record("d1"), doc_record("d2"),
     "title", "5"),
    ("corpus.jsonl", load_corpus, doc_record("d1"), doc_record("d2"),
     "abstract", '{"a": 1}'),
    ("queries.jsonl", load_queries, {**_QUERY, "query_id": "q1"}, _QUERY,
     "text", '["x"]'),
], ids=["author_ids-5", "references-7", "references-string", "year-1e999",
        "year-true", "year-2000.7", "doc_id-null", "query-year-1e999",
        "author_id-null", "title-null", "title-5", "abstract-object",
        "query-text-list"])
def test_wrong_field_type_names_file_and_line(tmp_path, name, load, first,
                                              record, field, raw):
    """A field of the wrong JSON type raises DataFormatError naming the file
    and the line, where the loader used to coerce it or raise a raw error."""
    path = tmp_path / name
    path.write_text(json.dumps(first) + "\n" + _with_value(record, field, raw)
                    + "\n")
    with pytest.raises(DataFormatError,
                       match=re.escape(f"{path}: ") + ".*line 2"):
        load(path)


def test_cli_ingest_of_a_string_reference_list_exits_3(tmp_path, capsys):
    """A reference list written as one string is not split into characters
    and dropped as dangling: ingest exits 3 naming the file and line."""
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [doc_record("d1"), doc_record("d2")])
    path.write_text(path.read_text()
                    + _with_value(doc_record("d3"), "references", '"d2"') + "\n")
    capsys.readouterr()
    assert main(["--workdir", str(tmp_path / "w"), "--quiet",
                 "--set", f"paths.corpus={path}", "ingest"]) == 3
    err = capsys.readouterr().err
    assert f"{path}: references on line 3" in err
    assert "Traceback" not in err


def test_integer_ids_and_integral_years_still_load(tmp_path):
    """Ids may be integers and a year an integral float or an integer
    string; each loads as it did before the type checks. A null abstract
    loads as an empty one."""
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [doc_record(1, year="2001", abstract=None),
                       doc_record("d2", refs=[1], year=2002.0, author_ids=[7],
                                  venue_id=3)])
    corpus, _ = load_corpus(path)
    assert [(d.doc_id, d.year) for d in corpus.docs] == [("1", 2001),
                                                          ("d2", 2002)]
    assert corpus.get("1").abstract == ""
    d2 = corpus.get("d2")
    assert (d2.references, d2.author_ids, d2.venue_id) == (["1"], ["7"], "3")
    write_jsonl(path, [{"author_id": 4, "affiliation_id": [9, 10]}])
    assert load_authors(path) == [Author("4", "9")]
    write_jsonl(path, [{"query_id": 8, "user_id": 4, "text": "t",
                        "year": " 2003 ", "source_doc_id": 1}])
    assert load_queries(path) == [Query("8", "4", "t", 2003, "1")]


def test_field_files_must_end_every_line(tmp_path):
    """qrels, runs and triples lose their last line when cut short, so a
    last line without a newline is rejected in all three."""
    for name, text, load in (("qrels.txt", "q1 0 d1 1", load_qrels),
                             ("run.txt", "q1 Q0 d1 1 0.5 run", read_run),
                             ("triples.tsv", "user:u1\twrote\tdocument:d1",
                              _triples)):
        path = tmp_path / name
        path.write_text(text + "\n\n")
        load(path)
        path.write_text(text)
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{path}: truncated file")):
            load(path)


# every line-file format: file name, a well-formed text, and its loader
_FORMATS = [
    ("corpus.jsonl", _PREFIX_CORPUS, load_corpus),
    ("authors.jsonl", _PREFIX_AUTHORS, load_authors),
    ("queries.jsonl", _PREFIX_QUERIES, load_queries),
    ("qrels.txt", "q1 0 dé1 1\nq1 0 d12 1\nq12 0 d1 0\n", load_qrels),
    ("triples.tsv", "user:u12\twrote\tdocument:d12\nuser:u1\tcited\t"
     "document:dé1\n", _triples),
    ("run.txt", "q1 Q0 dé1 1 0.9 fused\nq1 Q0 d12 2 0.5 fused\n", read_run),
    ("candidates.jsonl", _PREFIX_CANDIDATES, _candidates),
]


@pytest.mark.parametrize("name, text, load", _FORMATS,
                         ids=[f[0].split(".")[0] for f in _FORMATS])
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_byte_flips_load_or_name_the_file(tmp_path, name, text, load, flips):
    """A file with a few bytes flipped either loads or raises
    DataFormatError starting with its path; nothing else escapes."""
    data = bytearray(text.encode("utf-8"))
    for at, mask in flips:
        data[at % len(data)] ^= mask
    path = tmp_path / name
    path.write_bytes(bytes(data))
    try:
        load(path)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)


class _Referrers(ast.NodeVisitor):
    """The functions (or ``<module>``) that refer to a name."""

    def __init__(self, name):
        self.name, self.scopes, self.found = name, ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Name(self, node):
        if node.id == self.name:
            self.found.add(self.scopes[-1])

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self.found.add(self.scopes[-1])
        self.generic_visit(node)


def test_read_lines_is_called_only_by_the_line_readers():
    """Every line file is read through read_records or read_fields; only
    the KG embedding manifest, whose tagged lines vary in length, keeps a
    parser of its own."""
    referrers = _Referrers("read_lines")
    src = Path(__file__).resolve().parent.parent / "src" / "acadsearch"
    for path in sorted(src.rglob("*.py")):
        referrers.visit(ast.parse(path.read_text(encoding="utf-8")))
    assert referrers.found == {"read_records", "read_fields",
                               "load_kg_embeddings"}
