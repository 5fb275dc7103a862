"""Tests for organizational units and the SC tree."""

import pytest

from repro.core.information import annotate_sc
from repro.core.lod import LOD
from repro.core.structure import OrganizationalUnit, StructuralCharacteristic
from repro.text.vector import OccurrenceVector


def build_tree():
    """paper -> 2 sections -> (2, 1) subsections -> paragraphs."""
    root = OrganizationalUnit(LOD.DOCUMENT, "D", title="T", payload=b"T")
    s1 = root.add_child(
        OrganizationalUnit(LOD.SECTION, "1", title="S1", own_counts={"web": 1}, payload=b"S1")
    )
    s2 = root.add_child(OrganizationalUnit(LOD.SECTION, "2", title="S2"))
    ss11 = s1.add_child(OrganizationalUnit(LOD.SUBSECTION, "1.1"))
    ss12 = s1.add_child(OrganizationalUnit(LOD.SUBSECTION, "1.2"))
    ss21 = s2.add_child(OrganizationalUnit(LOD.SUBSECTION, "2.1"))
    ss11.add_child(
        OrganizationalUnit(LOD.PARAGRAPH, "1.1.1", own_counts={"web": 2, "mobile": 1}, payload=b"p111")
    )
    ss12.add_child(
        OrganizationalUnit(LOD.PARAGRAPH, "1.2.1", own_counts={"mobile": 3}, payload=b"p121")
    )
    ss21.add_child(
        OrganizationalUnit(LOD.PARAGRAPH, "2.1.1", own_counts={"cache": 5}, payload=b"p211")
    )
    return root


class TestTreeConstruction:
    def test_child_lod_must_be_finer(self):
        root = OrganizationalUnit(LOD.SECTION, "1")
        with pytest.raises(ValueError):
            root.add_child(OrganizationalUnit(LOD.SECTION, "2"))
        with pytest.raises(ValueError):
            root.add_child(OrganizationalUnit(LOD.DOCUMENT, "D"))

    def test_parent_pointers(self):
        root = build_tree()
        for unit in root.walk():
            for child in unit.children:
                assert child.parent is unit


class TestAggregation:
    def test_counts_aggregate_subtree(self):
        root = build_tree()
        counts = root.counts()
        assert counts == {"web": 3, "mobile": 4, "cache": 5}

    def test_counts_cache_invalidated_on_mutation(self):
        root = build_tree()
        _ = root.counts()
        section = root.children[0]
        section.add_child(
            OrganizationalUnit(LOD.PARAGRAPH, "1.9", own_counts={"new": 7})
        )
        assert root.counts()["new"] == 7

    def test_counts_returns_a_copy(self):
        root = build_tree()
        counts = root.counts()
        counts["web"] = 99
        counts["extra"] = 1
        assert root.counts() == {"web": 3, "mobile": 4, "cache": 5}
        assert root.children[0].counts() is not root.children[0].counts()

    def test_size_bytes(self):
        root = build_tree()
        assert root.size_bytes() == len(b"T" + b"S1" + b"p111" + b"p121" + b"p211")

    def test_subtree_payload_document_order(self):
        root = build_tree()
        assert root.subtree_payload() == b"TS1p111p121p211"


class TestUnitsAt:
    def test_document_lod_is_root(self):
        root = build_tree()
        assert root.units_at(LOD.DOCUMENT) == [root]

    def test_section_lod(self):
        root = build_tree()
        units = root.units_at(LOD.SECTION)
        # Root's own title text surfaces as an intrinsic leaf view.
        labels = [u.label for u in units]
        assert "1" in labels and "2" in labels
        assert any("(title)" in label for label in labels)

    def test_paragraph_lod_reaches_leaves(self):
        root = build_tree()
        labels = {u.label for u in root.units_at(LOD.PARAGRAPH)}
        assert {"1.1.1", "1.2.1", "2.1.1"} <= labels

    def test_childless_coarse_unit_stands_for_itself(self):
        root = OrganizationalUnit(LOD.DOCUMENT, "D")
        section = root.add_child(OrganizationalUnit(LOD.SECTION, "1", payload=b"x"))
        units = root.units_at(LOD.PARAGRAPH)
        assert units == [section]

    def test_intrinsic_view_shares_payload_and_counts(self):
        root = build_tree()
        views = [u for u in root.units_at(LOD.PARAGRAPH) if "(title)" in u.label]
        by_label = {v.label: v for v in views}
        s1_view = by_label["1(title)"]
        assert s1_view.payload == b"S1"
        assert s1_view.own_counts == {"web": 1}
        assert not s1_view.children


class TestStructuralCharacteristic:
    def make_sc(self):
        root = build_tree()
        return StructuralCharacteristic(root, OccurrenceVector(root.counts()))

    def test_root_must_be_document(self):
        unit = OrganizationalUnit(LOD.SECTION, "1")
        with pytest.raises(ValueError):
            StructuralCharacteristic(unit, OccurrenceVector({"a": 1}))

    def test_unit_lookup(self):
        sc = self.make_sc()
        assert sc.unit("1.2.1") is not None
        assert sc.unit("9.9") is None

    def test_paragraphs(self):
        sc = self.make_sc()
        assert len(sc.paragraphs()) == 3

    def test_annotate_and_table(self):
        sc = self.make_sc()
        sc.annotate("const", lambda unit: 0.5)
        table = sc.content_table("const")
        assert all(value == 0.5 for _label, value in table)
        assert len(table) == sum(1 for _ in sc.root.walk())

    def test_annotate_own_default(self):
        sc = self.make_sc()
        sc.annotate("m", lambda unit: 1.0)
        leaf = sc.unit("1.1.1")
        inner = sc.unit("1")
        assert leaf.own_content["m"] == 1.0   # leaves copy
        assert inner.own_content["m"] == 0.0  # inner units default to 0

    def test_leaf_aggregate_is_own_counts(self):
        sc = self.make_sc()
        leaf = sc.unit("1.1.1")
        assert leaf._aggregate() is leaf.own_counts
        assert leaf.counts() == leaf.own_counts
        assert leaf.counts() is not leaf.own_counts

    def test_compact_round_trip_rebuilds_an_equal_unannotated_tree(self):
        sc = self.make_sc()
        annotate_sc(sc)
        rebuilt = StructuralCharacteristic.from_compact(sc.compact())
        pairs = list(zip(sc.root.walk(), rebuilt.root.walk()))
        assert len(pairs) == sum(1 for _ in sc.root.walk())
        for original, copy in pairs:
            assert (copy.lod, copy.label, copy.title, copy.virtual) == (
                original.lod,
                original.label,
                original.title,
                original.virtual,
            )
            assert list(copy.own_counts.items()) == list(original.own_counts.items())
            assert copy.payload == original.payload
            assert [c.label for c in copy.children] == [c.label for c in original.children]
            assert copy.content == {} and copy.own_content == {}
        assert list(rebuilt.vector.items()) == list(sc.vector.items())
        assert rebuilt.vector._weights == {}
        # The compacted tree keeps its annotation.
        assert sc.content_table("ic")
