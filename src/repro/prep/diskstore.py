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

A key whose cook shares another key's bytes (an MQIC request that
ranks like the static IC) is stored as an **alias record** instead of
a second bundle: ``<keyhash>.alias`` beside the bundles, holding
``b"RPA1"`` and the ASCII measure name the alias serves under.  The
owner's key is the caller's to derive; the record only says "shared".
Its bytes are few, but it holds an inode and a filesystem block, so the
budget charges it a fixed :data:`ALIAS_RECORD_BYTES` and prunes it with
the bundles, oldest first.

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

import json
import mmap
import os
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.coding.packets import (
    _ENVELOPE_OVERHEAD,
    _FRAME_MSG_TYPE,
    FRAME_OVERHEAD,
    CookedDocument,
    envelope_stride,
)
from repro.coding.rs import codec_for
from repro.prep.prepare import PreparedDocument
from repro.util.nossl import sha256

#: Bundle format magic + version (bump on any layout change).
BUNDLE_MAGIC = b"RPB1"

#: Alias record magic + version.
ALIAS_MAGIC = b"RPA1"

#: Budget charge of one alias record: a filesystem block and an inode.
ALIAS_RECORD_BYTES = 4096 + 256

#: Longest measure name an alias record may carry.
_ALIAS_MEASURE_MAX = 32

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
    return sha256(repr(key).encode("utf-8")).hexdigest()


class DiskCookedStore:
    """Persistent cooked-bundle tier below the in-memory LRUs.

    Parameters
    ----------
    root:
        Cache directory (created on first use).  Safe to share across
        processes; every write is atomic and every read verified.
    max_bytes:
        Soft budget for the bundle sizes plus
        :data:`ALIAS_RECORD_BYTES` per alias record; exceeded space is
        reclaimed oldest-access-first after each write.  ``None``
        disables pruning.
    """

    def __init__(self, root, *, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        #: Always-on counters, reported by :meth:`info`.
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "rejected": 0,
            "quarantined": 0,
            "pruned": 0,
            "alias_hits": 0,
            "alias_writes": 0,
        }

    # -- paths -------------------------------------------------------------

    def bundle_path(self, key: Tuple) -> Path:
        """Where the bundle for *key* lives (``<root>/<digest>/<hash>.bundle``)."""
        digest = str(key[0])
        return self.root / digest / f"{key_digest(key)}.bundle"

    def alias_path(self, key: Tuple) -> Path:
        """Where the alias record for *key* lives, beside its bundle's name."""
        return self.bundle_path(key).with_suffix(".alias")

    def _quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def _live(self, pattern: str) -> Iterator[Path]:
        """Files matching *pattern* in the digest directories.

        Quarantined files keep their suffix, so a glob from the root
        would count, prune and clear them with the live ones.
        """
        try:
            directories = [
                entry for entry in self.root.iterdir() if entry.name != QUARANTINE_DIR
            ]
        except OSError:
            return
        for directory in directories:
            yield from directory.glob(pattern)

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

    def discard_lock(self, key: Tuple) -> None:
        """Remove *key*'s lock file, for a persist that failed: it left
        no entry for :meth:`_prune` or :meth:`clear` to take it with."""
        try:
            self.bundle_path(key).with_suffix(".lock").unlink()
        except OSError:
            pass

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
        chunks = [BUNDLE_MAGIC, len(header_bytes).to_bytes(4, "big"), header_bytes, arena]
        hasher = sha256()
        for chunk in chunks:
            hasher.update(chunk)
        path = self.bundle_path(key)
        self._write_atomic(path, chunks + [hasher.digest()])
        self.stats["writes"] += 1
        if self.max_bytes is not None:
            self._prune(keep=path)
        return path

    def put_alias(self, key: Tuple, measure: str) -> Path:
        """Record that *key* shares another key's bundle, served as *measure*."""
        path = self.alias_path(key)
        self._write_atomic(path, (ALIAS_MAGIC, measure.encode("ascii")))
        self.stats["alias_writes"] += 1
        if self.max_bytes is not None:
            self._prune(keep=path)
        return path

    @staticmethod
    def _write_atomic(path: Path, chunks: Iterable) -> None:
        """Write *chunks* to *path* through a fsynced same-directory
        temporary file and ``os.replace``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            # A failed (or killed-then-resumed) write must never leave
            # a visible file; the tmp file is invisible to readers.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    # -- read path ---------------------------------------------------------

    def get_alias(self, key: Tuple) -> Optional[str]:
        """The measure name of *key*'s alias record, or None.

        A record that is not ``RPA1`` and a short ASCII identifier is
        quarantined like a bad bundle.
        """
        path = self.alias_path(key)
        try:
            record = path.read_bytes()
        except OSError:
            return None
        name = record[len(ALIAS_MAGIC) :]
        if (
            not record.startswith(ALIAS_MAGIC)
            or len(name) > _ALIAS_MEASURE_MAX
            or not name.isascii()
            or not name.decode("ascii").isidentifier()
        ):
            self._reject(path)
            return None
        self.stats["alias_hits"] += 1
        return name.decode("ascii")

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
        actual = sha256(window[: size - _CHECKSUM_BYTES]).digest()
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
        """Drop every bundle and alias record with its lock file; returns
        the bundle count removed.  A cook holding a removed lock is at
        worst repeated."""
        removed = 0
        for path in chain(self._live("*.bundle"), self._live("*.alias")):
            if self._unlink_entry(path):
                removed += path.suffix == ".bundle"
        return removed

    @staticmethod
    def _unlink_entry(path: Path) -> bool:
        """Remove a bundle or alias record and its key's lock file;
        False when the entry itself could not be removed."""
        try:
            path.unlink()
        except OSError:
            return False
        try:
            path.with_suffix(".lock").unlink()
        except OSError:
            pass
        return True

    # -- budget ------------------------------------------------------------

    def _charged(self) -> List[Tuple[float, int, Path]]:
        """``(mtime, charge, path)`` of every live bundle and alias record:
        a bundle is charged its size, an alias :data:`ALIAS_RECORD_BYTES`."""
        entries: List[Tuple[float, int, Path]] = []
        for path in chain(self._live("*.bundle"), self._live("*.alias")):
            try:
                stat = path.stat()
            except OSError:
                continue
            charge = stat.st_size if path.suffix == ".bundle" else ALIAS_RECORD_BYTES
            entries.append((stat.st_mtime, charge, path))
        return entries

    def _prune(self, keep: Optional[Path] = None) -> None:
        """Reclaim space oldest-access-first once over ``max_bytes``.

        A pruned bundle or alias takes its lock file with it; a cook of
        that key holding the lock meanwhile is at worst repeated.
        """
        entries = self._charged()
        total = sum(charge for _mtime, charge, _path in entries)
        if self.max_bytes is None or total <= self.max_bytes:
            return
        entries.sort()
        for _mtime, charge, path in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            if not self._unlink_entry(path):
                continue
            total -= charge
            self.stats["pruned"] += 1

    # -- housekeeping ------------------------------------------------------

    def sweep_tmp(self) -> int:
        """Remove leftover ``*.tmp.*`` files from killed writers."""
        removed = 0
        for path in self._live("*.tmp.*"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def info(self) -> Dict[str, Any]:
        """Snapshot: live bundle, alias and quarantined file counts, the
        bytes charged against the budget, budget, counters."""
        entries = self._charged()
        bundles = sum(path.suffix == ".bundle" for _mtime, _charge, path in entries)
        return {
            "root": str(self.root),
            "bundles": bundles,
            "aliases": len(entries) - bundles,
            "quarantined": sum(1 for _ in self._quarantine_dir().glob("*")),
            "bytes": sum(charge for _mtime, charge, _path in entries),
            "max_bytes": self.max_bytes,
            "stats": dict(self.stats),
        }
