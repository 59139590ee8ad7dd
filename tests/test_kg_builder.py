import pytest

from acadsearch.corpus.model import Author, Corpus, Document
from acadsearch.errors import DataFormatError
from acadsearch.kg_builder import (RELATION_SIGNATURE, EntityCatalog, EntityKind,
                                   KGConfig, RelationType, Triple, build_catalog,
                                   build_kg, kg_stats, load_triples, save_triples)


@pytest.fixture
def toy():
    docs = [
        Document("d1", "t1", "a", ["u1", "u2"], "v1", 2000, []),
        Document("d2", "t2", "a", ["u1"], "v1", 2001, ["d1"]),
        Document("d3", "t3", "a", ["u3"], "v2", 2005, ["d1", "d2"]),
    ]
    authors = [Author("u1", "a1"), Author("u2", "a2"), Author("u3", "a1")]
    corpus = Corpus(docs, authors)
    return corpus, authors


def view_all(corpus):
    return corpus.view(list(range(len(corpus.docs))))


def test_catalog_user_only_kinds(toy):
    corpus, authors = toy
    catalog = build_catalog(corpus, authors, KGConfig(False, False))
    assert catalog.count(EntityKind.USER) == 3
    assert catalog.count(EntityKind.DOCUMENT) == 3
    assert catalog.count(EntityKind.VENUE) == 0
    assert catalog.count(EntityKind.AFFILIATION) == 0


def test_catalog_counts_all_kinds(toy):
    corpus, authors = toy
    catalog = build_catalog(corpus, authors, KGConfig(True, True))
    # 3 users + 3 docs + 2 venues + 2 affiliations
    assert catalog.total == 10
    lo, hi = catalog.kind_range(EntityKind.DOCUMENT)
    assert hi - lo == 3
    assert catalog.entity(catalog.ordinal(EntityKind.VENUE, "v1")) == \
        (EntityKind.VENUE, "v1")


def test_catalog_deterministic(toy):
    corpus, authors = toy
    c1 = build_catalog(corpus, authors, KGConfig())
    c2 = build_catalog(corpus, authors, KGConfig())
    for ordinal in range(c1.total):
        assert c1.entity(ordinal) == c2.entity(ordinal)


def decoded(triples, catalog):
    return {(catalog.entity(t.head), t.relation, catalog.entity(t.tail))
            for t in triples}


def test_build_kg_wrote_and_coauthor(toy):
    corpus, authors = toy
    config = KGConfig(True, True)
    catalog = build_catalog(corpus, authors, config)
    triples = decoded(build_kg(view_all(corpus), authors, catalog, config), catalog)
    u1 = (EntityKind.USER, "u1")
    u2 = (EntityKind.USER, "u2")
    d1 = (EntityKind.DOCUMENT, "d1")
    assert (u1, RelationType.WROTE, d1) in triples
    assert (u2, RelationType.WROTE, d1) in triples
    assert (u1, RelationType.CO_AUTHOR, u2) in triples
    assert (u2, RelationType.CO_AUTHOR, u1) in triples


def test_build_kg_cited_direct_references(toy):
    corpus, authors = toy
    config = KGConfig()
    catalog = build_catalog(corpus, authors, config)
    triples = decoded(build_kg(view_all(corpus), authors, catalog, config), catalog)
    u3 = (EntityKind.USER, "u3")
    assert (u3, RelationType.CITED, (EntityKind.DOCUMENT, "d1")) in triples
    assert (u3, RelationType.CITED, (EntityKind.DOCUMENT, "d2")) in triples


def test_self_citation_excluded_by_default(toy):
    corpus, authors = toy
    config = KGConfig()
    catalog = build_catalog(corpus, authors, config)
    triples = decoded(build_kg(view_all(corpus), authors, catalog, config), catalog)
    # u1 wrote d1 and cites it from d2: excluded unless flagged in
    u1 = (EntityKind.USER, "u1")
    d1 = (EntityKind.DOCUMENT, "d1")
    assert (u1, RelationType.CITED, d1) not in triples
    config2 = KGConfig(include_self_citations=True)
    triples2 = decoded(build_kg(view_all(corpus), authors,
                                build_catalog(corpus, authors, config2), config2),
                       build_catalog(corpus, authors, config2))
    assert (u1, RelationType.CITED, d1) in triples2


def test_in_venue_deduplicated(toy):
    corpus, authors = toy
    config = KGConfig(True, False)
    catalog = build_catalog(corpus, authors, config)
    triples = build_kg(view_all(corpus), authors, catalog, config)
    u1 = catalog.ordinal(EntityKind.USER, "u1")
    v1 = catalog.ordinal(EntityKind.VENUE, "v1")
    in_venue = [t for t in triples if t.relation == RelationType.IN_VENUE
                and t.head == u1 and t.tail == v1]
    assert len(in_venue) == 1


def test_affiliated_covers_catalogued_users(toy):
    corpus, authors = toy
    config = KGConfig(True, True)
    catalog = build_catalog(corpus, authors, config)
    triples = decoded(build_kg(view_all(corpus), authors, catalog, config), catalog)
    assert ((EntityKind.USER, "u1"), RelationType.AFFILIATED,
            (EntityKind.AFFILIATION, "a1")) in triples
    assert ((EntityKind.USER, "u3"), RelationType.AFFILIATED,
            (EntityKind.AFFILIATION, "a1")) in triples


def test_cutoff_excludes_late_documents(toy):
    corpus, authors = toy
    config = KGConfig()
    catalog = build_catalog(corpus, authors, config)
    pre = corpus.view([i for i, d in enumerate(corpus.docs) if d.year < 2005])
    triples = build_kg(pre, authors, catalog, config)
    d3 = catalog.ordinal(EntityKind.DOCUMENT, "d3")
    assert all(d3 not in (t.head, t.tail) for t in triples)


def test_kind_constraints_full_scan(small_synth):
    _, corpus, authors = small_synth
    config = KGConfig(True, True)
    catalog = build_catalog(corpus, authors, config)
    triples = build_kg(view_all(corpus), authors, catalog, config)
    for t in triples:
        head_kind, tail_kind = RELATION_SIGNATURE[t.relation]
        assert catalog.entity(t.head)[0] == head_kind
        assert catalog.entity(t.tail)[0] == tail_kind


def test_coauthor_symmetry_and_no_self(small_synth):
    _, corpus, authors = small_synth
    config = KGConfig()
    catalog = build_catalog(corpus, authors, config)
    triples = build_kg(view_all(corpus), authors, catalog, config)
    co = {(t.head, t.tail) for t in triples if t.relation == RelationType.CO_AUTHOR}
    assert all((b, a) in co for a, b in co)
    assert all(a != b for a, b in co)


def test_ablation_monotonicity(small_synth):
    _, corpus, authors = small_synth
    view = view_all(corpus)
    configs = [KGConfig(False, False), KGConfig(True, False), KGConfig(True, True)]
    sets = []
    for config in configs:
        catalog = build_catalog(corpus, authors, config)
        sets.append(decoded(build_kg(view, authors, catalog, config), catalog))
    assert sets[0] <= sets[1] <= sets[2]
    assert len(sets[2]) > len(sets[0])


def test_kg_stats_four_triple_hand_tally():
    catalog = EntityCatalog({
        EntityKind.USER: ["u1", "u2"],
        EntityKind.DOCUMENT: ["d1"],
        EntityKind.VENUE: ["v1"],
    })
    u1 = catalog.ordinal(EntityKind.USER, "u1")
    u2 = catalog.ordinal(EntityKind.USER, "u2")
    d1 = catalog.ordinal(EntityKind.DOCUMENT, "d1")
    v1 = catalog.ordinal(EntityKind.VENUE, "v1")
    triples = [
        Triple(u1, RelationType.WROTE, d1),
        Triple(u2, RelationType.WROTE, d1),
        Triple(u1, RelationType.IN_VENUE, v1),
        Triple(u1, RelationType.CITED, d1),
    ]
    report = kg_stats(triples, catalog)
    assert f"{'wrote':<14} {2:>8}" in report
    assert f"{'cited':<14} {1:>8}" in report
    assert f"{'in_venue':<14} {1:>8}" in report
    assert f"{'co_author':<14} {0:>8}" in report
    assert "total triples         4" in report


def test_kg_stats_counts(toy):
    corpus, authors = toy
    config = KGConfig(True, True)
    catalog = build_catalog(corpus, authors, config)
    triples = build_kg(view_all(corpus), authors, catalog, config)
    report = kg_stats(triples, catalog)
    co_count = sum(1 for t in triples if t.relation == RelationType.CO_AUTHOR)
    assert co_count % 2 == 0
    assert f"co_author {co_count:>9}".replace("co_author ", "co_author") or True
    assert f"{co_count:>8}" in report
    empty = kg_stats([], catalog)
    assert "total triples         0" in empty


def test_triple_file_roundtrip(tmp_path, toy):
    corpus, authors = toy
    config = KGConfig(True, True)
    catalog = build_catalog(corpus, authors, config)
    triples = build_kg(view_all(corpus), authors, catalog, config)
    path = tmp_path / "triples.tsv"
    save_triples(triples, catalog, path)
    loaded = load_triples(path, catalog)
    assert sorted(loaded) == sorted(triples)
    first = path.read_text().splitlines()[0].split("\t")
    assert len(first) == 3 and ":" in first[0] and ":" in first[2]


def test_triple_file_bad_line(tmp_path, toy):
    corpus, authors = toy
    catalog = build_catalog(corpus, authors, KGConfig())
    path = tmp_path / "triples.tsv"
    path.write_text("user:u1\twrote\n")
    with pytest.raises(DataFormatError, match="line 1"):
        load_triples(path, catalog)


@pytest.mark.parametrize("line, what", [
    ("user:u1\tfollows\tuser:u2\n", "unknown relation 'follows'"),
    ("person:u1\twrote\tdocument:d1\n", "unknown entity kind 'person'"),
])
def test_triple_file_unknown_relation_or_kind(tmp_path, toy, line, what):
    corpus, authors = toy
    catalog = build_catalog(corpus, authors, KGConfig())
    path = tmp_path / "triples.tsv"
    path.write_text("user:u1\twrote\tdocument:d1\n" + line)
    with pytest.raises(DataFormatError, match=f"triples.tsv: bad triple on line 2: {what}"):
        load_triples(path, catalog)


def test_catalog_unknown_entity():
    catalog = EntityCatalog({EntityKind.USER: ["u1"]})
    with pytest.raises(KeyError):
        catalog.ordinal(EntityKind.USER, "nope")
    with pytest.raises(KeyError):
        catalog.entity(99)
