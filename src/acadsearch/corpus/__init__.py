"""Corpus data model, ingestion, synthetic generation, and split protocol."""

from .io import (IngestReport, load_authors, load_corpus, load_qrels, load_queries,
                 save_authors, save_corpus, save_qrels, save_queries)
from .model import Author, Corpus, CorpusView, Document, Query, QrelSet
from .qrels import build_qrels, chronological_split, make_queries, query_from_doc
from .synth import SynthConfig, generate_synthetic
from .text import STOPWORDS, make_query, stem_token

__all__ = [
    "Author", "Corpus", "CorpusView", "Document", "IngestReport", "Query",
    "QrelSet", "STOPWORDS", "SynthConfig", "build_qrels",
    "chronological_split", "generate_synthetic", "load_authors", "load_corpus",
    "load_qrels", "load_queries", "make_queries", "make_query", "query_from_doc",
    "save_authors", "save_corpus", "save_qrels", "save_queries", "stem_token",
]
