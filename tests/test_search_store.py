"""What search returns, and that a hit's SC belongs to its query alone.

The paper computes QIC "every time the search engine receives a
searching query" (§3.2–3.3): a query's measure is part of that query's
hit.  These tests pin the ranked ids, scores, snippets and sizes the
seeded corpus gives through the prototype's ``SearchService`` and a
standalone ``SearchEngine``, and check that a later search leaves an
earlier hit's annotation alone.
"""

import hashlib
import json

from repro.prototype import DatabaseGateway, SearchService
from repro.search.engine import SearchEngine
from repro.search.snippets import make_snippet
from repro.simulation.textgen import CorpusGenerator
from repro.xmlkit.parser import parse_xml

#: Documents of the seed-1 corpus the pin indexes (five per topic).
PIN_DOCUMENTS = 40


def seeded_corpus(count=PIN_DOCUMENTS, seed=1):
    """({document id: xml}, [topic query per topic]) of a seeded corpus."""
    generator = CorpusGenerator(seed=seed)
    documents = {name: xml for name, (xml, _topic) in generator.corpus(count).items()}
    return documents, generator


def plain_queries(generator):
    return [generator.topic_query(topic) for topic in range(len(generator.topics))]


def boolean_queries(generator):
    """Per topic: an OR, an AND NOT against the next topic, and a phrase."""
    queries = []
    for topic, words in enumerate(generator.topics):
        other = generator.topics[(topic + 1) % len(generator.topics)]
        queries.append(f"{words[0]} OR {other[1]}")
        queries.append(f"({words[0]} OR {words[1]}) AND NOT {other[0]}")
        queries.append(f'"{words[0]} {words[2]}"')
    return queries


def digest(rows):
    """sha256 over result rows, scores to 12 significant digits.

    A score's last bits follow the string hash seed: ``_score`` sums a
    document's terms in the order of the query's keyword set.
    """
    text = json.dumps([[*row[:1], f"{row[1]:.12g}", *row[2:]] for row in rows])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def service_rows(documents, generator, limit=5):
    gateway = DatabaseGateway()
    service = SearchService(gateway)
    for name, xml in documents.items():
        gateway.put(name, xml)
        service.index(name)
    rows = []
    for query in plain_queries(generator):
        rows += [("plain", query, *result) for result in service.search(query, limit=limit)]
    for query in boolean_queries(generator):
        rows += [
            ("boolean", query, *result) for result in service.search_boolean(query, limit=limit)
        ]
    return [(f"{kind} {query} {row[0]}", *row[1:]) for kind, query, *row in rows]


def engine_rows(documents, generator, limit=5):
    engine = SearchEngine()
    for name, xml in documents.items():
        engine.add_document(name, parse_xml(xml))
    rows = []
    for query in plain_queries(generator):
        parsed = engine.parse_query(query)
        for hit in engine.search(query, limit=limit):
            rows.append(
                (
                    f"plain {query} {hit.document_id}",
                    hit.score,
                    make_snippet(hit.sc, query=parsed, width=140),
                    hit.sc.size_bytes(),
                )
            )
    for query in boolean_queries(generator):
        for hit in engine.search_boolean(query, limit=limit):
            rows.append(
                (
                    f"boolean {query} {hit.document_id}",
                    hit.score,
                    make_snippet(hit.sc, width=140),
                    hit.sc.size_bytes(),
                )
            )
    return rows


class TestSearchPinned:
    """Ranked ids, scores, snippets and sizes over the seeded corpus."""

    #: Both paths give the same rows: the service's snippets and sizes
    #: are the engine hit's.
    SHA256 = "1f7f82eec07df28469e289e82d20451caecb114d22051e1c47e1ac82b5b6c0ed"

    def test_search_service(self):
        documents, generator = seeded_corpus()
        rows = service_rows(documents, generator)
        assert len({row[0].split()[0] for row in rows}) == 2  # plain and boolean hits
        assert digest(rows) == self.SHA256

    def test_standalone_engine(self):
        documents, generator = seeded_corpus()
        assert digest(engine_rows(documents, generator)) == self.SHA256


PRIVACY_CORPUS = {
    "browsing": (
        "<paper><title>Mobile Browsing</title><section><title>Main</title>"
        "<paragraph>Mobile web browsing with caching of pages.</paragraph>"
        "<paragraph>Battery life limits how long a client browses.</paragraph>"
        "</section></paper>"
    ),
    "databases": (
        "<paper><title>Database Caching</title><section><title>Main</title>"
        "<paragraph>Database caching for disconnected operation.</paragraph>"
        "<paragraph>Battery powered clients hoard the hot items.</paragraph>"
        "</section></paper>"
    ),
    "energy": (
        "<paper><title>Energy</title><section><title>Main</title>"
        "<paragraph>Battery energy and disk spin-down policies.</paragraph>"
        "</section></paper>"
    ),
}


def annotations(sc):
    return [(unit.label, dict(unit.content), dict(unit.own_content)) for unit in sc.root.walk()]


def assert_hits_private(search):
    """*search* ``"caching"`` then ``"battery"``: the first hits keep
    their annotation and no two hits share an SC object."""
    first = search("caching")
    before = [annotations(hit.sc) for hit in first]
    second = search("battery")
    assert {hit.document_id for hit in first} & {hit.document_id for hit in second}
    assert [annotations(hit.sc) for hit in first] == before
    scs = [hit.sc for hit in first + second]
    assert len({id(sc) for sc in scs}) == len(scs)


class TestHitsArePrivate:
    """A hit's SC is annotated for its own query, and no later search
    writes into it."""

    def test_standalone_engine(self):
        engine = SearchEngine()
        for name, xml in PRIVACY_CORPUS.items():
            engine.add_document(name, parse_xml(xml))
        assert_hits_private(engine.search)

    def test_standalone_engine_boolean(self):
        engine = SearchEngine()
        for name, xml in PRIVACY_CORPUS.items():
            engine.add_document(name, parse_xml(xml))
        assert_hits_private(engine.search_boolean)

    def test_prototype_searches_leave_the_gateway_unannotated(self):
        gateway = DatabaseGateway()
        service = SearchService(gateway)
        for name, xml in PRIVACY_CORPUS.items():
            gateway.put(name, xml)
            service.index(name)
        assert service.search("caching") and service.search_boolean("battery")
        for name in PRIVACY_CORPUS:
            assert all(not content for _label, content, _own in annotations(gateway.sc(name)))
