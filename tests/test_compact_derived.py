"""The compact SC's derived fields equal the stored forms they replace.

A :class:`~repro.core.compact.CompactSC` stores its unit text
compressed and keeps no subtree aggregate and no keyword weight: each
is derived when read.  Over random unit trees (keyword-less ones and
vectors that lack some of the units' keywords included), the derived
aggregates must equal :func:`~repro.core.compact._aggregates` pair for
pair, the weights must equal :meth:`OccurrenceVector.weights` bit for
bit, with 0.0 for each keyword the vector lacks, and the payload must
equal the units' payloads joined in document order.
"""

from array import array

from hypothesis import given, settings, strategies as st

from repro.core.compact import CompactSC, _aggregates, _flatten, subtree_ends
from repro.core.lod import LOD
from repro.core.structure import OrganizationalUnit
from repro.text.vector import OccurrenceVector

KEYWORDS = ["mobile", "cache", "packet", "weak", "link", "query", "unit"]
counts = st.dictionaries(st.sampled_from(KEYWORDS), st.integers(1, 300), max_size=5)
texts = st.sampled_from(["", "1", "1.1", "2.0", "Introduction", "Caching"])


@st.composite
def trees(draw, lod=LOD.DOCUMENT):
    """A unit tree: each unit's children sit at finer LODs."""
    unit = OrganizationalUnit(
        lod,
        label=draw(texts),
        title=draw(texts),
        own_counts=draw(counts),
        payload=draw(st.binary(max_size=48)),
        virtual=draw(st.booleans()),
    )
    if lod < LOD.PARAGRAPH:
        for _ in range(draw(st.integers(0, 3))):
            child_lod = LOD(draw(st.integers(lod + 1, LOD.PARAGRAPH)))
            unit.add_child(draw(trees(child_lod)))
    return unit


@st.composite
def vectors(draw, root):
    """The root's aggregate, or one that lacks some of its keywords
    (and may hold one no unit has), under any norm."""
    total = root.counts()
    kept = {
        keyword: count for keyword, count in total.items() if draw(st.booleans())
    }
    if draw(st.booleans()):
        kept = total
    if draw(st.booleans()):
        kept["elsewhere"] = draw(st.integers(1, 50))
    return OccurrenceVector(kept, norm=draw(st.sampled_from(["infinity", "l1", "l2"])))


def expected_weights(vector, keywords):
    weights = vector.weights()
    return array("d", [weights.get(keyword, 0.0) for keyword in keywords])


def assert_derived_fields(compact, units, vector):
    table = compact.table
    ids = table.index()
    owns = [unit.own_counts for unit in units]
    # The aggregates as the compact SC stored them before they were derived.
    aggregate, starts = _flatten(_aggregates(owns, subtree_ends(units)), ids)
    assert (compact.aggregate.typecode, compact.aggregate) == (aggregate.typecode, aggregate)
    assert (compact.aggregate_starts.typecode, compact.aggregate_starts) == (
        starts.typecode,
        starts,
    )
    for position, unit in enumerate(units):
        tree_pairs = [(ids[keyword], count) for keyword, count in unit.counts().items()]
        assert list(compact.subtree_pairs(position)) == tree_pairs
    assert list(table.keywords[: len(vector)]) == list(vector)
    assert table.weights.tobytes() == expected_weights(vector, table.keywords).tobytes()
    assert compact.payload == b"".join(unit.payload for unit in units)
    assert compact.payload_size == len(compact.payload)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_from_tree_derives_the_stored_fields(data):
    root = data.draw(trees())
    vector = data.draw(vectors(root))
    compact = CompactSC.from_tree(root, vector)
    assert_derived_fields(compact, list(root.walk()), vector)


@settings(max_examples=100, deadline=None)
@given(root=trees())
def test_a_pipeline_style_build_derives_the_stored_fields(root):
    """Without a vector the document's is the root's aggregate, or the
    placeholder ``{"_": 1}`` when no unit has a keyword."""
    units = list(root.walk())
    compact = CompactSC(
        units,
        subtree_ends(units),
        [unit.payload for unit in units],
        [unit.own_counts for unit in units],
    )
    vector = OccurrenceVector(root.counts() or {"_": 1})
    assert_derived_fields(compact, units, vector)


def test_a_keyword_less_document():
    root = OrganizationalUnit(LOD.DOCUMENT, "D", title="Empty", payload=b"Empty")
    section = root.add_child(OrganizationalUnit(LOD.SECTION, "1", payload=b"a"))
    section.add_child(OrganizationalUnit(LOD.PARAGRAPH, "1.1", payload=b"bc"))
    vector = OccurrenceVector({})
    compact = CompactSC.from_tree(root, vector)
    assert compact.table.keywords == ()
    assert len(compact.table.weights) == 0
    assert_derived_fields(compact, list(root.walk()), vector)
    assert list(compact.aggregate_starts) == [0, 0, 0, 0]
