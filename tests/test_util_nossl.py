"""The builtin SHA-256 gives ``hashlib``'s digests wherever one is kept.

:mod:`repro.util.nossl` replaced ``hashlib.sha256`` at every digest
site, so the names and checksums written before it must still match:
document content digests, bundle file names, the RPB1 trailer and the
native kernel's cache name.
"""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import _native
from repro.data import draft_paper_path
from repro.prep.diskstore import key_digest
from repro.prep.service import content_digest
from repro.util.nossl import sha256

from tests.test_prep_diskstore import REQUEST, make_disk_service, sole_bundle, wire_bytes

PAPER = Path(draft_paper_path()).read_text(encoding="utf-8")


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=5000), split=st.integers(min_value=0, max_value=5000))
def test_digests_equal_hashlib(data, split):
    expected = hashlib.sha256(data)
    assert sha256(data).digest() == expected.digest()
    assert sha256(memoryview(data)).hexdigest() == expected.hexdigest()
    hasher = sha256(data[:split])
    hasher.update(data[split:])
    assert hasher.hexdigest() == expected.hexdigest()


def test_content_digest_of_the_bundled_paper_is_pinned():
    assert content_digest(PAPER) == (
        "ac59ce27c468963d8c3019af0d596c43600fb812dbb4d366e1000933dc5f85f3"
    )
    assert content_digest(PAPER, html=True) == (
        "41492cff28d0527066a1d40a830891b9bc63bbf9dec6a51c7fe4a7c815adef7c"
    )


def test_bundle_name_is_pinned():
    key = REQUEST.cache_key(content_digest(PAPER))
    assert key_digest(key) == (
        "ec04bb69af00a2aed20aea1509eed3645017ecf5d614b68f863f68f6f0a0d6fa"
    )
    assert key_digest(key) == hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def test_a_bundle_sealed_with_hashlib_loads(tmp_path):
    service, _ = make_disk_service(tmp_path)
    reference = wire_bytes(service.prepare("doc", REQUEST))
    path = sole_bundle(service.disk_store)
    data = path.read_bytes()
    body, trailer = data[:-32], data[-32:]
    assert trailer == hashlib.sha256(body).digest()
    path.write_bytes(body + hashlib.sha256(body).digest())
    warm, pipeline = make_disk_service(tmp_path)
    assert wire_bytes(warm.prepare("doc", REQUEST)) == reference
    assert pipeline.runs == 0
    assert warm.disk_store.stats["hits"] == 1


def test_native_kernel_cache_name_is_unchanged():
    kernel = _native.load()
    if kernel is None:
        pytest.skip("the native GF(2^8) kernel is unavailable on this host")
    digest = hashlib.sha256(_native.KERNEL_SOURCE.encode("utf-8")).hexdigest()[:16]
    assert Path(kernel._lib._name).name.startswith(f"gf256-{digest}-f")
