"""Crash-safety of the disk-backed cooked-bundle tier.

Tier-1 (socket-free): torn writes never surface a visible bundle,
any corrupted byte is checksum-rejected into quarantine and re-cooked,
and a warm restart on the same cache root serves byte-identical wire
frames without re-running the pipeline (``cooked_misses == 0``).
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.backend import BACKEND_ENV
from repro.data import draft_paper_path
from repro.net.wire import MSG_FRAME, encode_message
from repro.prep import PrepRequest, PreparationService
from repro.prep.diskstore import ALIAS_RECORD_BYTES, BUNDLE_MAGIC, QUARANTINE_DIR, key_digest

from tests.test_prep_service import PAPER, make_service

REQUEST = PrepRequest(query="mobile web", packet_size=64)


def make_disk_service(root, **kwargs):
    service, pipeline = make_service(disk_path=root, **kwargs)
    service.add_document("doc", PAPER)
    return service, pipeline


def wire_bytes(prepared):
    return b"".join(bytes(view) for view in prepared.wire_frames())


def sole_bundle(store):
    bundles = list(store.root.glob("*/*.bundle"))
    assert len(bundles) == 1, bundles
    return bundles[0]


class TestRoundTrip:
    def test_cold_build_writes_one_verified_bundle(self, tmp_path):
        service, pipeline = make_disk_service(tmp_path)
        prepared = service.prepare("doc", REQUEST)
        store = service.disk_store
        assert pipeline.runs == 1
        assert store.stats["writes"] == 1
        assert store.stats["misses"] == 1  # the cold probe
        path = sole_bundle(store)
        assert path.read_bytes()[:4] == BUNDLE_MAGIC
        # The same process never re-reads disk: the in-memory tier wins.
        again = service.prepare("doc", REQUEST)
        assert wire_bytes(again) == wire_bytes(prepared)
        assert store.stats["hits"] == 0

    def test_store_get_rebuilds_byte_identical_frames(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        prepared = service.prepare("doc", REQUEST)
        assert sole_bundle(service.disk_store).parent.name == service.digest(
            "doc"
        )
        # Probe through a second service on the same root rather than
        # reverse-engineering the key tuple: it must load this bundle.
        sibling, pipeline = make_disk_service(tmp_path)
        warm = sibling.prepare("doc", REQUEST)
        assert pipeline.runs == 0
        assert sibling.disk_store.stats["hits"] == 1
        assert wire_bytes(warm) == wire_bytes(prepared)
        assert warm.m == prepared.m and warm.n == prepared.n
        assert warm.content_profile == pytest.approx(prepared.content_profile)
        assert warm.measure == prepared.measure


class TestWarmRestart:
    def test_restart_serves_without_recook(self, tmp_path):
        cold, cold_pipeline = make_disk_service(tmp_path)
        reference = wire_bytes(cold.prepare("doc", REQUEST))
        assert cold_pipeline.runs == 1
        assert cold.stats["cooked_misses"] == 1

        # "Restart": a brand-new service (empty memory tiers), same root.
        warm, warm_pipeline = make_disk_service(tmp_path)
        served = wire_bytes(warm.prepare("doc", REQUEST))
        assert served == reference
        assert warm_pipeline.runs == 0
        # A verified disk load is a cooked-tier HIT, never a miss —
        # the acceptance criterion for prep.misses{cooked} == 0.
        assert warm.stats["cooked_misses"] == 0
        assert warm.stats["cooked_hits"] >= 1
        assert warm.stats["disk_hits"] == 1
        assert warm.stats["disk_misses"] == 0

    def test_restart_with_changed_pipeline_recooks(self, tmp_path):
        cold, _ = make_disk_service(tmp_path)
        cold.prepare("doc", REQUEST)

        # The disk key carries the pipeline token: a different module
        # roster must not serve the stale bundle.
        warm, warm_pipeline = make_disk_service(tmp_path)
        warm._pipeline_token = lambda: ("other-pipeline",)
        warm.prepare("doc", REQUEST)
        assert warm_pipeline.runs == 1
        assert warm.stats["disk_misses"] == 1


class TestTornWrites:
    def test_killed_writer_leaves_no_visible_bundle(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        service.prepare("doc", REQUEST)
        store = service.disk_store
        path = sole_bundle(store)

        # Simulate a writer killed mid-bundle: a half-written tmp file
        # exists, the real name does not.
        data = path.read_bytes()
        path.unlink()
        tmp = path.parent / f"{path.name}.tmp.99999"
        tmp.write_bytes(data[: len(data) // 2])

        warm, pipeline = make_disk_service(tmp_path)
        assert warm.prepare("doc", REQUEST) is not None
        assert pipeline.runs == 1  # tmp file is invisible → re-cook
        assert sole_bundle(store)  # the re-cook republished the slot
        assert warm.disk_store.sweep_tmp() == 1  # orphan cleaned up
        assert not list(store.root.glob("*/*.tmp.*"))

    def test_truncated_bundle_is_rejected_and_quarantined(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        service.prepare("doc", REQUEST)
        store = service.disk_store
        path = sole_bundle(store)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # lose the checksum tail

        warm, pipeline = make_disk_service(tmp_path)
        served = warm.prepare("doc", REQUEST)
        assert served is not None
        assert pipeline.runs == 1
        assert warm.disk_store.stats["rejected"] == 1
        quarantined = list((tmp_path / QUARANTINE_DIR).iterdir())
        assert len(quarantined) == 1
        # The re-cook overwrote the slot: a third restart hits clean.
        third, third_pipeline = make_disk_service(tmp_path)
        assert third.prepare("doc", REQUEST) is not None
        assert third_pipeline.runs == 0

    def test_quarantined_bundle_is_not_counted_pruned_or_cleared(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        service.prepare("doc", REQUEST)
        path = sole_bundle(service.disk_store)
        path.write_bytes(path.read_bytes()[:-7])

        warm, _ = make_disk_service(tmp_path)
        warm.prepare("doc", REQUEST)
        store = warm.disk_store
        info = store.info()
        assert info["bundles"] == 1
        assert info["quarantined"] == 1
        quarantined = list((tmp_path / QUARANTINE_DIR).iterdir())
        store.max_bytes = 1
        store._prune()
        assert store.stats["pruned"] == 1
        assert store.clear() == 0
        assert list((tmp_path / QUARANTINE_DIR).iterdir()) == quarantined
        assert store.info()["quarantined"] == 1

    def test_empty_file_is_treated_as_torn(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        service.prepare("doc", REQUEST)
        path = sole_bundle(service.disk_store)
        path.write_bytes(b"")
        warm, pipeline = make_disk_service(tmp_path)
        assert warm.prepare("doc", REQUEST) is not None
        assert pipeline.runs == 1


class TestBitFlips:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_flipped_byte_is_rejected_then_recooked(
        self, tmp_path_factory, data
    ):
        tmp_path = tmp_path_factory.mktemp("flip")
        service, _ = make_disk_service(tmp_path)
        reference = wire_bytes(service.prepare("doc", REQUEST))
        store = service.disk_store
        path = sole_bundle(store)
        raw = bytearray(path.read_bytes())
        index = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        raw[index] ^= flip
        path.write_bytes(bytes(raw))

        warm, pipeline = make_disk_service(tmp_path)
        served = wire_bytes(warm.prepare("doc", REQUEST))
        # Never serve corrupt bytes: either the checksum rejected the
        # bundle (re-cook) — and the decode is byte-identical anyway.
        assert served == reference
        assert pipeline.runs == 1
        assert warm.disk_store.stats["rejected"] == 1
        assert any((tmp_path / QUARANTINE_DIR).iterdir())

    def test_wrong_magic_is_rejected(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        service.prepare("doc", REQUEST)
        path = sole_bundle(service.disk_store)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        warm, pipeline = make_disk_service(tmp_path)
        assert warm.prepare("doc", REQUEST) is not None
        assert pipeline.runs == 1
        assert warm.disk_store.stats["rejected"] == 1


def reseal(path, edit_header=None, edit_frames=None, extra=b""):
    """Rewrite a bundle with edited contents and a *valid* checksum.

    Only the structural checks can then reject it.  *edit_frames*
    rewrites the list of frames the envelopes are rebuilt from.
    """
    data = path.read_bytes()
    header_len = int.from_bytes(data[4:8], "big")
    header = json.loads(data[8 : 8 + header_len])
    arena = data[8 + header_len : -32]
    if edit_frames is not None:
        stride = header["packet_size"] + 9
        frames = [arena[start + 5 : start + stride] for start in range(0, len(arena), stride)]
        edit_frames(frames)
        arena = b"".join(encode_message(MSG_FRAME, frame) for frame in frames)
    arena += extra
    header["arena_bytes"] = len(arena)
    if edit_header is not None:
        edit_header(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = BUNDLE_MAGIC + len(header_bytes).to_bytes(4, "big") + header_bytes + arena
    path.write_bytes(body + hashlib.sha256(body).digest())


def _unequal_lengths(frames):
    # Same total size, same count: only the per-envelope lengths differ.
    frames[0] = frames[0][:-1]
    frames[1] = frames[1] + b"\x00"


def _short_frame(frames):
    frames[-1] = frames[-1] + frames[0][3:]
    frames[0] = frames[0][:3]


class TestStructuralChecks:
    """Checksum-valid bundles whose structure is wrong are misses too."""

    @pytest.mark.parametrize(
        "case, reseal_kwargs",
        [
            ("frame_count", {"edit_header": lambda h: h.update(frame_count=h["n"] - 1)}),
            ("arena_bytes", {"edit_header": lambda h: h.update(arena_bytes=h["arena_bytes"] + 1)}),
            ("trailing", {"extra": b"\x00" * 3}),
            ("short_frame", {"edit_frames": _short_frame}),
            ("unequal_lengths", {"edit_frames": _unequal_lengths}),
            ("packet_size", {"edit_header": lambda h: h.update(packet_size=h["packet_size"] - 1)}),
        ],
    )
    def test_malformed_bundle_is_quarantined_as_a_miss(
        self, tmp_path, case, reseal_kwargs
    ):
        service, _ = make_disk_service(tmp_path)
        reference = wire_bytes(service.prepare("doc", REQUEST))
        reseal(sole_bundle(service.disk_store), **reseal_kwargs)

        warm, pipeline = make_disk_service(tmp_path)
        assert wire_bytes(warm.prepare("doc", REQUEST)) == reference
        assert pipeline.runs == 1, case
        assert warm.disk_store.stats["rejected"] == 1
        assert warm.disk_store.stats["hits"] == 0
        assert len(list((tmp_path / QUARANTINE_DIR).iterdir())) == 1

    def test_resealed_bundle_is_accepted_unchanged(self, tmp_path):
        # The control for the cases above: resealing alone breaks nothing.
        service, _ = make_disk_service(tmp_path)
        reference = wire_bytes(service.prepare("doc", REQUEST))
        reseal(sole_bundle(service.disk_store))
        warm, pipeline = make_disk_service(tmp_path)
        assert wire_bytes(warm.prepare("doc", REQUEST)) == reference
        assert pipeline.runs == 0

    def test_foreign_message_type_is_rejected(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        service.prepare("doc", REQUEST)
        path = sole_bundle(service.disk_store)
        data = bytearray(path.read_bytes())
        header_len = int.from_bytes(data[4:8], "big")
        data[8 + header_len + 4] = 0x7F  # first envelope's type byte
        body = bytes(data[:-32])
        path.write_bytes(body + hashlib.sha256(body).digest())
        warm, pipeline = make_disk_service(tmp_path)
        assert warm.prepare("doc", REQUEST) is not None
        assert pipeline.runs == 1
        assert warm.disk_store.stats["rejected"] == 1


class TestStoreMaintenance:
    def test_drop_digest_removes_the_directory(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        service.prepare("doc", REQUEST)
        store = service.disk_store
        digest = service.digest("doc")
        assert store.drop_digest(digest) == 1
        assert not (tmp_path / digest).exists()
        assert store.info()["bundles"] == 0

    def test_invalidate_reaches_the_disk_tier(self, tmp_path):
        cache_root = tmp_path / "cache"
        target = tmp_path / "paper.xml"
        target.write_text(PAPER, encoding="utf-8")
        service, pipeline = make_service(disk_path=cache_root)
        document_id = service.add_path(target)
        old_digest = service.digest(document_id)
        service.prepare(document_id, REQUEST)
        assert (cache_root / old_digest).exists()
        target.write_text(PAPER.replace("Coding", "Recoding"), "utf-8")
        service.invalidate(document_id)
        assert not (cache_root / old_digest).exists()
        # Next prepare re-cooks and persists under the new digest.
        service.prepare(document_id, REQUEST)
        assert pipeline.runs == 2
        assert (cache_root / service.digest(document_id)).exists()

    def test_budget_prunes_oldest_first(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        first = service.prepare("doc", REQUEST)
        store = service.disk_store
        bundle_size = sole_bundle(store).stat().st_size
        # Re-budget so only ~one bundle fits, then cook two more.
        store.max_bytes = int(bundle_size * 1.5)
        old = sole_bundle(store)
        os.utime(old, (1, 1))  # force it oldest
        service.prepare("doc", PrepRequest(query="caching", packet_size=64))
        assert store.stats["pruned"] >= 1
        assert not old.exists()

    def test_key_digest_is_stable(self):
        key = ("digest", 2, "", "q", 64, 1.5, "", True, ("token",))
        assert key_digest(key) == key_digest(tuple(key))
        assert key_digest(key) != key_digest(key[:-1])

    def test_clear_empties_the_store(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        service.prepare("doc", REQUEST)
        store = service.disk_store
        assert store.clear() == 1
        assert store.info()["bundles"] == 0

    def test_clear_removes_every_lock_file(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        packet_sizes = (48, 64, 96, 128)
        for packet_size in packet_sizes:
            service.prepare("doc", PrepRequest(query="mobile web", packet_size=packet_size))
        store = service.disk_store
        assert len(list(store.root.glob("*/*.lock"))) == len(packet_sizes)
        assert store.clear() == len(packet_sizes)
        locks = [
            path for path in store.root.glob("*/*.lock") if path.parent.name != QUARANTINE_DIR
        ]
        assert locks == []

    def test_failed_persist_leaves_no_lock_file(self, tmp_path, monkeypatch):
        service, _ = make_disk_service(tmp_path)
        store = service.disk_store

        def full_disk(key, prepared):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store, "put", full_disk)
        prepared = service.prepare("doc", REQUEST)
        assert prepared.m > 0  # the request is still served
        assert service.stats["disk_errors"] == 1
        assert service.stats["disk_writes"] == 0
        assert list(store.root.glob("*/*.lock")) == []


#: A query none of whose words the paper holds: its MQIC cook shares
#: the static cook, and the disk tier keeps an alias record for it.
OFF_VOCABULARY = PrepRequest(query="quokka zeppelin", packet_size=64)


def sole_alias(store):
    aliases = [
        path for path in store.root.glob("*/*.alias") if path.parent.name != QUARANTINE_DIR
    ]
    assert len(aliases) == 1, aliases
    return aliases[0]


class TestAliasRecords:
    def test_a_shared_cook_writes_an_alias_not_a_bundle(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        service.prepare("doc", OFF_VOCABULARY)
        store = service.disk_store
        assert store.info()["bundles"] == 1
        assert sole_alias(store).read_bytes() == b"RPA1mqic"

    def test_restart_serves_the_alias_without_a_pipeline_run(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        expected = wire_bytes(service.prepare("doc", OFF_VOCABULARY))
        restarted, pipeline = make_disk_service(tmp_path)
        prepared = restarted.prepare("doc", OFF_VOCABULARY)
        assert wire_bytes(prepared) == expected
        assert prepared.measure == "mqic"
        assert pipeline.runs == 0
        assert restarted.disk_store.stats["alias_hits"] == 1

    @pytest.mark.parametrize(
        "record", [b"", b"RPA1", b"RPB1mqic", b"RPA1mq ic", b"RPA1\xffic", b"RPA1" + b"m" * 40]
    )
    def test_a_bad_alias_is_quarantined_and_recooked(self, tmp_path, record):
        service, _ = make_disk_service(tmp_path)
        expected = wire_bytes(service.prepare("doc", OFF_VOCABULARY))
        sole_alias(service.disk_store).write_bytes(record)
        restarted, pipeline = make_disk_service(tmp_path)
        assert wire_bytes(restarted.prepare("doc", OFF_VOCABULARY)) == expected
        assert pipeline.runs == 1
        assert restarted.disk_store.stats["quarantined"] == 1
        assert sole_alias(restarted.disk_store).read_bytes() == b"RPA1mqic"

    def test_drop_digest_and_clear_remove_aliases(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        service.prepare("doc", OFF_VOCABULARY)
        store = service.disk_store
        assert store.clear() == 1
        assert store.info()["aliases"] == 0
        service.invalidate("doc")
        service.prepare("doc", OFF_VOCABULARY)
        assert store.info()["aliases"] == 1
        assert store.drop_digest(service.digest("doc")) == 1
        assert store.info()["aliases"] == 0

    def test_distinct_queries_keep_the_store_within_its_budget(self, tmp_path):
        """500 distinct off-vocabulary MQIC queries against the bundled
        paper at a 64 KiB budget: each shares the static cook and writes
        an alias record, and the records are charged and pruned."""
        budget = 64 * 1024
        service = PreparationService(disk_path=tmp_path, disk_budget_bytes=budget)
        document = service.add_path(draft_paper_path())
        consonants = "bcdfghjklmnpqrstvwxz"
        for index in range(500):
            word = "quokka" + "".join(consonants[int(digit)] for digit in f"{index:03d}")
            service.prepare(document, PrepRequest(query=word, measure="mqic"))
        store = service.disk_store
        assert service.stats["shared_cooks"] == store.stats["alias_writes"] == 500
        live = [path for path in tmp_path.glob("*/*") if path.parent.name != QUARANTINE_DIR]
        by_suffix = {
            suffix: [path for path in live if path.suffix == suffix]
            for suffix in (".bundle", ".alias", ".lock")
        }
        assert len(live) == sum(map(len, by_suffix.values()))
        charged = sum(path.stat().st_size for path in by_suffix[".bundle"]) + (
            ALIAS_RECORD_BYTES * len(by_suffix[".alias"])
        )
        assert charged <= budget
        assert store.info()["bytes"] == charged
        assert store.info()["aliases"] == len(by_suffix[".alias"]) <= budget // ALIAS_RECORD_BYTES
        # A pruned record takes its lock file with it.
        assert {path.stem for path in by_suffix[".lock"]} <= {
            path.stem for path in by_suffix[".bundle"] + by_suffix[".alias"]
        }


#: Loads the bundle under argv[1] for the document on stdin and
#: REQUEST in a fresh interpreter, optionally with numpy made
#: unimportable, and reports what the load did.
_READER = """
import hashlib, json, sys
if sys.argv[2] == "block-numpy":
    sys.modules["numpy"] = None
from repro.prep import PrepRequest, PreparationService
service = PreparationService(disk_path=sys.argv[1])
service.add_document("doc", sys.stdin.read())
prepared = service.prepare("doc", PrepRequest(query="mobile web", packet_size=64))
print(json.dumps({
    "sha256": hashlib.sha256(
        b"".join(bytes(view) for view in prepared.wire_frames())
    ).hexdigest(),
    "disk_hits": service.stats["disk_hits"],
    "cooked_misses": service.stats["cooked_misses"],
    "kernel": prepared.cooked.codec.backend.name,
    "numpy_imported": "numpy" in sys.modules,
}))
"""


def load_in_fresh_process(root, mode, backend="auto"):
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    env[BACKEND_ENV] = backend
    proc = subprocess.run(
        [sys.executable, "-c", _READER, str(root), mode],
        input=PAPER,
        capture_output=True,
        text=True,
        env=env,
        cwd=repo,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestWriterKernelIsProvenance:
    """The header's ``backend`` records the writer's kernel; the reader
    rebuilds the codec with the kernel its own key asks for."""

    def _numpy_bundle(self, tmp_path):
        service, _ = make_disk_service(tmp_path)
        reference = wire_bytes(service.prepare("doc", REQUEST))
        reseal(
            sole_bundle(service.disk_store),
            edit_header=lambda header: header.update(backend="numpy"),
        )
        return hashlib.sha256(reference).hexdigest()

    def test_numpy_bundle_loads_with_numpy_blocked(self, tmp_path):
        reference = self._numpy_bundle(tmp_path)
        loaded = load_in_fresh_process(tmp_path, "block-numpy")
        assert loaded["disk_hits"] == 1
        assert loaded["cooked_misses"] == 0
        assert loaded["sha256"] == reference
        assert loaded["kernel"] != "numpy"

    @pytest.mark.parametrize("backend", ["fused", "auto"])
    def test_numpy_bundle_load_does_not_import_numpy(self, tmp_path, backend):
        if importlib.util.find_spec("numpy") is None:
            pytest.skip("numpy is not installed")
        reference = self._numpy_bundle(tmp_path)
        loaded = load_in_fresh_process(tmp_path, "plain", backend)
        assert loaded["disk_hits"] == 1
        assert loaded["sha256"] == reference
        assert not loaded["numpy_imported"]
