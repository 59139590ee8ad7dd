import string

import pytest
from hypothesis import example, given, strategies as st

from acadsearch.corpus.text import STOPWORDS, make_query, stem_token
from acadsearch.lexical_index import tokenize


def test_stopword_list_is_fixed_size():
    assert len(STOPWORDS) == 120
    assert "the" in STOPWORDS and "of" in STOPWORDS


def test_make_query_spec_examples():
    assert make_query("The Retrieval of Documents") == "retrieval document"
    assert make_query("the of and") == ""
    assert make_query("parsing") == "parse"


@pytest.mark.parametrize("word,stem", [
    ("documents", "document"),
    ("queries", "query"),
    ("boxes", "box"),
    ("classes", "class"),
    ("running", "run"),
    ("falling", "fall"),
    ("hoping", "hope"),
    ("making", "make"),
    ("using", "use"),
    ("dancing", "dance"),
    ("arguing", "argue"),
    ("parsing", "parse"),
    ("tested", "test"),
    ("scored", "score"),
    ("hopped", "hop"),
    ("dressed", "dress"),
    ("visited", "visit"),
    ("opening", "open"),
    ("ringing", "ring"),      # no vowel-stem damage, no bogus e
    ("swinging", "swing"),
    ("indexed", "index"),
    ("seeing", "see"),
    ("parses", "parse"),
    ("uses", "use"),
    ("dishes", "dish"),
    ("meanings", "mean"),      # plural strips before -ing
    ("need", "need"),          # -eed words are left alone
    ("analysis", "analysis"),  # -is plural exception
    ("corpus", "corpus"),      # -us plural exception
    ("retrieval", "retrieval"),
])
def test_stemmer_rule_table(word, stem):
    assert stem_token(word) == stem


def test_stemmer_is_idempotent_on_rule_table_outputs():
    for word in ["documents", "running", "parsing", "swinging", "queries",
                 "classes", "used", "making", "indexes", "hamstring"]:
        once = stem_token(word)
        assert stem_token(once) == once


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12))
@example("aaeding")
def test_stemmer_idempotent_property(word):
    assert stem_token(stem_token(word)) == stem_token(word)


@given(st.lists(st.text(alphabet=string.ascii_lowercase + " ",
                        min_size=0, max_size=8), max_size=8))
def test_make_query_idempotent(parts):
    title = " ".join(parts)
    processed = make_query(title)
    assert make_query(processed) == processed


def test_make_query_strips_and_lowercases():
    out = make_query("BM25, Okapi! And Retrieval?")
    assert out == "bm25 okapi retrieval"
    assert all(t not in STOPWORDS for t in tokenize(out))
