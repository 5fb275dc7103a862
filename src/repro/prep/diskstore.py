"""Disk-backed cooked-bundle store: the third preparation-cache tier.

The two in-memory tiers of the
:class:`~repro.prep.service.PreparationService` die with the process.
:class:`DiskCookedStore` persists the *cooked* tier below them so that
restarts — and sibling worker processes sharing one cache root — serve
previously-cooked content without re-running the pipeline or the
encode.  The unit of storage is a **bundle**: the complete wire image
of one prepared document, i.e. exactly the ``MSG_FRAME`` envelope
arena a :class:`~repro.coding.packets.CookedDocument` stores and
:meth:`~repro.prep.prepare.PreparedDocument.wire_frames` serves, plus
a JSON header carrying everything needed to rebuild the
:class:`~repro.prep.prepare.PreparedDocument` around it.

Bundle file format (version ``RPB1``, all integers big-endian)::

    offset 0   magic        4 bytes   b"RPB1"
    offset 4   header_len   4 bytes   uint32
    offset 8   header       JSON (UTF-8): document_id, digest, m, n,
                            packet_size, original_size, systematic,
                            measure, backend (the writer's kernel,
                            provenance only), content_profile,
                            frame_count, arena_bytes
    ...        arena        frame_count MSG_FRAME wire envelopes,
                            back to back (the zero-copy serving arena);
                            every envelope is exactly
                            stride = packet_size + 9 bytes (4 length,
                            1 type, 2 seq, payload, 2 CRC), so
                            arena_bytes = n · stride
    last 32    checksum     SHA-256 over every preceding byte

Safety discipline:

* **atomic visibility** — bundles are written to a same-directory
  temporary file, flushed, fsynced, and ``os.replace``d into place; a
  writer killed mid-bundle leaves only an invisible ``*.tmp.*`` file
  (swept lazily), never a half-written bundle under the real name;
* **whole-file checksum** — :meth:`get` verifies the SHA-256 trailer
  before trusting a byte; a failed check (torn rename-less write,
  bit rot, truncation) **quarantines** the file under
  ``<root>/quarantine/`` and reports a miss, so the caller re-cooks;
* **structural checks** — a bundle whose frame count is not ``n``,
  whose arena size disagrees with its header, or whose envelopes are
  truncated, mistyped, shorter than the frame overhead, of a length
  other than the stride, or followed by trailing bytes is rejected
  like a checksum failure;
* **zero-copy reads** — a verified bundle is ``mmap``-ed and the
  read-only mapping becomes the document's arena through the same
  :class:`~repro.coding.packets.CookedDocument` constructor a fresh
  cook uses, so disk hits and in-memory hits share one code path;
* **cross-process single-flight** — :meth:`lock` takes an exclusive
  ``flock`` on a per-bundle lock file, so N workers missing the same
  key cook it exactly once cluster-wide (the losers block, then find
  the winner's bundle).  Locks die with their holder, so a crashed
  cook never wedges the tier.

Layout on disk: ``<root>/<digest>/<keyhash>.bundle`` — one directory
per content digest, so digest invalidation is a directory removal.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.coding.packets import (
    _ENVELOPE_OVERHEAD,
    _FRAME_MSG_TYPE,
    FRAME_OVERHEAD,
    CookedDocument,
    envelope_stride,
)
from repro.coding.rs import codec_for
from repro.obs.runtime import OBS
from repro.prep.prepare import PreparedDocument

#: Bundle format magic + version (bump on any layout change).
BUNDLE_MAGIC = b"RPB1"

#: SHA-256 trailer length.
_CHECKSUM_BYTES = 32

#: magic + header_len prefix.
_PREFIX_BYTES = 8

#: Subdirectory for checksum-rejected bundles awaiting inspection.
QUARANTINE_DIR = "quarantine"

try:  # POSIX advisory locks back the cross-process single-flight.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]


def key_digest(key: Tuple) -> str:
    """Stable filename hash of a canonical cooked-tier cache key.

    The key is a flat tuple of primitives (digest, lod, measure,
    query, packet size, gamma, systematic, delivery, pipeline token),
    so its ``repr`` is deterministic across processes and restarts.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class DiskCookedStore:
    """Persistent cooked-bundle tier below the in-memory LRUs.

    Parameters
    ----------
    root:
        Cache directory (created on first use).  Safe to share across
        processes; every write is atomic and every read verified.
    max_bytes:
        Soft budget for the sum of bundle sizes; exceeded space is
        reclaimed oldest-access-first after each write.  ``None``
        disables pruning.
    """

    def __init__(self, root, *, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        #: Always-on counters (mirrored into ``prep.disk.*`` when
        #: telemetry is enabled).
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "rejected": 0,
            "quarantined": 0,
            "pruned": 0,
        }

    # -- paths -------------------------------------------------------------

    def bundle_path(self, key: Tuple) -> Path:
        """Where the bundle for *key* lives (``<root>/<digest>/<hash>.bundle``)."""
        digest = str(key[0])
        return self.root / digest / f"{key_digest(key)}.bundle"

    def _quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    # -- cross-process single-flight ---------------------------------------

    @contextmanager
    def lock(self, key: Tuple) -> Iterator[None]:
        """Exclusive cross-process lock for one bundle's cook.

        Blocks until the current holder releases (or dies — ``flock``
        locks evaporate with their process).  On platforms without
        ``fcntl`` the lock degrades to a no-op: atomic rename plus the
        checksum still keep readers safe, only duplicate cooks are
        possible.
        """
        path = self.bundle_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = path.with_suffix(".lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    # -- write path --------------------------------------------------------

    def put(self, key: Tuple, prepared: PreparedDocument) -> Path:
        """Persist *prepared* as the bundle for *key* (atomic, fsynced)."""
        cooked = prepared.cooked
        arena = cooked.arena
        header = {
            "version": 1,
            "document_id": prepared.document_id,
            "digest": str(key[0]),
            "m": prepared.m,
            "n": prepared.n,
            "packet_size": cooked.packet_size,
            "original_size": cooked.original_size,
            "systematic": cooked.codec.systematic,
            "measure": prepared.measure,
            "backend": cooked.codec.backend.name,
            "content_profile": list(prepared.content_profile),
            "frame_count": prepared.n,
            "arena_bytes": len(arena),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        path = self.bundle_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
        hasher = hashlib.sha256()
        try:
            with open(tmp, "wb") as handle:
                for chunk in (
                    BUNDLE_MAGIC,
                    len(header_bytes).to_bytes(4, "big"),
                    header_bytes,
                ):
                    hasher.update(chunk)
                    handle.write(chunk)
                hasher.update(arena)
                handle.write(arena)
                handle.write(hasher.digest())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            # A failed (or killed-then-resumed) write must never leave
            # a visible bundle; the tmp file is invisible to readers.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        self.stats["writes"] += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "prep.disk.writes", "cooked bundles persisted to disk"
            ).inc()
        if self.max_bytes is not None:
            self._prune(keep=path)
        return path

    # -- read path ---------------------------------------------------------

    def get(self, key: Tuple) -> Optional[PreparedDocument]:
        """The verified bundle for *key*, or None (absent or rejected).

        A bundle that fails any structural or checksum test is moved
        to the quarantine directory and reported as a miss — the
        caller re-cooks and overwrites.
        """
        path = self.bundle_path(key)
        try:
            handle = open(path, "rb")
        except OSError:
            self.stats["misses"] += 1
            return None
        try:
            with handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            # Empty or vanished file: treat as a torn write.
            self._reject(path)
            return None
        prepared = self._parse(mapped, path)
        if prepared is None:
            return None
        self.stats["hits"] += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "prep.disk.hits", "cooked bundles served from disk"
            ).inc()
        return prepared

    def _parse(self, mapped: mmap.mmap, path: Path) -> Optional[PreparedDocument]:
        window = memoryview(mapped)
        size = len(window)
        if size < _PREFIX_BYTES + _CHECKSUM_BYTES:
            self._reject(path, window)
            return None
        if bytes(window[:4]) != BUNDLE_MAGIC:
            self._reject(path, window)
            return None
        expected = bytes(window[size - _CHECKSUM_BYTES :])
        actual = hashlib.sha256(window[: size - _CHECKSUM_BYTES]).digest()
        if actual != expected:
            self._reject(path, window)
            return None
        header_len = int.from_bytes(window[4:8], "big")
        arena_start = _PREFIX_BYTES + header_len
        arena_end = size - _CHECKSUM_BYTES
        if arena_start > arena_end:
            self._reject(path, window)
            return None
        try:
            header = json.loads(bytes(window[_PREFIX_BYTES:arena_start]))
            prepared = self._rebuild(header, window[arena_start:arena_end])
        except (ValueError, KeyError, TypeError):
            self._reject(path, window)
            return None
        # The arena view references the mapping, so the served slices
        # stay valid for as long as the entry is cached.
        return prepared

    @staticmethod
    def _rebuild(header: Dict[str, Any], arena: memoryview) -> PreparedDocument:
        """A PreparedDocument whose arena is the mapped bundle bytes.

        Walks the envelopes once to check the structure, then hands
        the mapping to the same :class:`CookedDocument` constructor a
        fresh cook uses.  Raises ``ValueError`` on any structural
        inconsistency — the caller folds that into the quarantine path.

        The codec runs on the reader's process kernel.  The header's
        ``backend`` is the writer's, provenance only: every kernel
        cooks the same bytes, and pinning the writer's would make the
        reader load a kernel it may not have (or want).
        """
        m = int(header["m"])
        n = int(header["n"])
        frame_count = int(header["frame_count"])
        stride = envelope_stride(int(header["packet_size"]))
        if frame_count != n:
            raise ValueError("frame count does not match n")
        if len(arena) != int(header["arena_bytes"]):
            raise ValueError("arena size mismatch")
        offset = 0
        for _ in range(frame_count):
            if offset + _ENVELOPE_OVERHEAD > len(arena):
                raise ValueError("truncated envelope")
            length = int.from_bytes(arena[offset : offset + 4], "big")
            total = 4 + length
            if arena[offset + 4] != _FRAME_MSG_TYPE or offset + total > len(arena):
                raise ValueError("malformed envelope")
            # frame = seq(2) + payload + crc(2); see repro.coding.packets.
            if length - 1 < FRAME_OVERHEAD:
                raise ValueError("frame shorter than its overhead")
            if total != stride:
                raise ValueError("envelope length differs from the stride")
            offset += total
        if offset != len(arena):
            raise ValueError("trailing bytes after the last envelope")
        cooked = CookedDocument(
            original_size=int(header["original_size"]),
            packet_size=int(header["packet_size"]),
            codec=codec_for(m, n, bool(header.get("systematic", True))),
            arena=arena,
        )
        return PreparedDocument(
            str(header["document_id"]),
            cooked,
            [float(value) for value in header["content_profile"]],
            measure=str(header.get("measure", "")),
        )

    def _reject(self, path: Path, window: Optional[memoryview] = None) -> None:
        """Quarantine a bundle that failed verification."""
        if window is not None:
            window.release()
        self.stats["misses"] += 1
        self.stats["rejected"] += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "prep.disk.rejected", "bundles that failed verification"
            ).inc()
        quarantine = self._quarantine_dir()
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / f"{path.parent.name}-{path.name}")
            self.stats["quarantined"] += 1
        except OSError:
            # Another process may have quarantined (or replaced) it
            # first; either way the bad bytes are out of the read path.
            pass

    # -- invalidation ------------------------------------------------------

    def drop_digest(self, digest: str) -> int:
        """Remove every bundle derived from *digest*; returns the count."""
        directory = self.root / str(digest)
        removed = 0
        try:
            entries = list(directory.iterdir())
        except OSError:
            return 0
        for entry in entries:
            try:
                entry.unlink()
            except OSError:
                continue
            if entry.suffix == ".bundle":
                removed += 1
        try:
            directory.rmdir()
        except OSError:
            pass
        return removed

    def clear(self) -> int:
        """Drop every bundle in the store; returns the count removed."""
        removed = 0
        for path in self.root.glob("*/*.bundle"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    # -- budget ------------------------------------------------------------

    def _prune(self, keep: Optional[Path] = None) -> None:
        """Reclaim space oldest-access-first once over ``max_bytes``."""
        bundles: List[Tuple[float, int, Path]] = []
        total = 0
        for path in self.root.glob("*/*.bundle"):
            try:
                stat = path.stat()
            except OSError:
                continue
            bundles.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if self.max_bytes is None or total <= self.max_bytes:
            return
        bundles.sort()
        for _mtime, size, path in bundles:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.stats["pruned"] += 1

    # -- housekeeping ------------------------------------------------------

    def sweep_tmp(self) -> int:
        """Remove leftover ``*.tmp.*`` files from killed writers."""
        removed = 0
        for path in self.root.glob("*/*.tmp.*"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def info(self) -> Dict[str, Any]:
        """Snapshot: bundle count, byte total, budget, counters."""
        count = 0
        total = 0
        for path in self.root.glob("*/*.bundle"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            count += 1
        return {
            "root": str(self.root),
            "bundles": count,
            "bytes": total,
            "max_bytes": self.max_bytes,
            "stats": dict(self.stats),
        }
