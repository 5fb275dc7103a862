"""Where a registered document's source text lives.

A document registered by path is held as its path and digest once its
SC is built; a later SC build re-reads the file and checks it still
hashes to the registered digest.  An edited file is reloaded by
``invalidate()``; without it the build raises ``DocumentError``.  Text
registered with ``add_document`` has no other copy and is kept.
"""

import gc
import inspect
import pathlib
import tracemalloc

import pytest

from repro.prep import PrepRequest, PreparationService
from repro.simulation.textgen import CorpusGenerator
from repro.util.validation import DocumentError

from tests import test_prep_service
from tests.test_prep_service import OTHER, PAPER, make_service


def compact_fields(compact):
    return list(test_prep_service.TestCompactSCPinned.fields(compact))


def path_service(tmp_path, source=PAPER, **kwargs):
    target = tmp_path / "paper.xml"
    target.write_text(source, encoding="utf-8")
    service, pipeline = make_service(**kwargs)
    return service, pipeline, service.add_path(target), target


class TestPathSources:
    def test_text_dropped_once_the_sc_is_built(self, tmp_path):
        service, _, document, _ = path_service(tmp_path)
        assert service._records[document].source == PAPER
        service.prepare(document)
        assert service._records[document].source is None

    def test_readding_unchanged_file_keeps_no_text(self, tmp_path):
        service, pipeline, document, target = path_service(tmp_path)
        service.prepare(document)
        service.add_path(target)
        assert service._records[document].source is None
        service.prepare(document, PrepRequest(lod="section"))
        assert pipeline.runs == 1

    def test_rebuild_after_sc_eviction_rereads_the_file(self, tmp_path):
        service, pipeline, document, _ = path_service(tmp_path, sc_budget_bytes=1)
        record = service._records[document]
        first = service._compact_sc(record)
        assert record.source is None
        again = service._compact_sc(record)
        assert again is not first
        assert pipeline.runs == 2
        assert compact_fields(again) == compact_fields(first)
        assert service.sc_for(document).compact().payload == first.payload

    def test_file_edited_without_invalidate_is_a_document_error(self, tmp_path):
        service, _, document, target = path_service(tmp_path, sc_budget_bytes=1)
        service.prepare(document)
        target.write_text(OTHER, encoding="utf-8")
        with pytest.raises(DocumentError, match="changed on disk"):
            service.prepare(document, PrepRequest(lod="section"))
        with pytest.raises(DocumentError, match="changed on disk"):
            service.sc_for(document)
        # The cooked tier still serves what it holds.
        assert service.prepare(document).frames()

    def test_unreadable_file_is_a_document_error(self, tmp_path):
        service, _, document, target = path_service(tmp_path, sc_budget_bytes=1)
        service.prepare(document)
        target.unlink()
        with pytest.raises(DocumentError, match="cannot re-read"):
            service.sc_for(document)

    def test_invalidate_picks_up_the_edit(self, tmp_path):
        service, _, document, target = path_service(tmp_path, sc_budget_bytes=1)
        before = service.prepare(document)
        target.write_text(OTHER, encoding="utf-8")
        service.invalidate(document)
        after = service.prepare(document)
        assert after.frames() != before.frames()
        expected, _ = make_service()
        expected.add_document("other", OTHER)
        assert after.frames() == expected.prepare("other").frames()


def test_add_document_text_is_kept():
    service, _ = make_service(sc_budget_bytes=1)
    service.add_document("doc", PAPER)
    service.prepare("doc")
    assert service._records["doc"].source == PAPER
    service.prepare("doc", PrepRequest(lod="section"))  # rebuilds from the held text


def read_call_site():
    """(file, line) of the ``f.read()`` call in ``Path.read_text``."""
    lines, start = inspect.getsourcelines(pathlib.Path.read_text)
    return pathlib.__file__, start + next(
        offset for offset, line in enumerate(lines) if ".read()" in line
    )


def test_warm_service_retains_no_path_backed_source(tmp_path):
    """tracemalloc: no text ``read_text`` decoded outlives a 200-document warm-up."""
    generator = CorpusGenerator(seed=1)
    paths = []
    for name, (xml, _topic) in generator.corpus(200).items():
        path = tmp_path / f"{name}.xml"
        path.write_text(xml, encoding="utf-8")
        paths.append(path)
    site = read_call_site()
    service = PreparationService()
    gc.collect()
    tracemalloc.start(2)  # the decoder, and the read_text line that called it
    try:
        for path in paths:
            service.add_path(path)
        service.warmup()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = [
        trace.size
        for trace in snapshot.traces
        if any((frame.filename, frame.lineno) == site for frame in trace.traceback)
    ]
    assert service.cache_info()["cooked"]["entries"] == 200
    assert sum(held) == 0, held
