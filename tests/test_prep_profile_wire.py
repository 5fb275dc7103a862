"""The content profile's wire form: packed binary64 in base64 (tier-1).

The MANIFEST and every air-index entry carry a document's content
profile as :func:`repro.prep.prepare.encode_profile` writes it.  These
tests pin the codec's bit-exact round trip, that a prepared document
encodes it once for every way it is built, and the bytes a clean
unicast fetch puts on the air, so control traffic cannot regrow
unnoticed.  The strict decode is driven through both of its consumers
in ``tests/test_net_client_fuzz.py``.  Socket-free.
"""

import hashlib
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.broadcast import AirIndex, CarouselEntry
from repro.coding.packets import Packetizer
from repro.data import draft_paper_path
from repro.net.server import encode_manifest
from repro.net.wire import MSG_MANIFEST, MSG_ROUND_END, decode_json, encode_json
from repro.prep import PreparationService, PrepRequest
from repro.prep.diskstore import DiskCookedStore
from repro.prep.prepare import DocumentSender, decode_profile, encode_profile
from repro.prep.service import _cooked_size

EDGES = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308, 1e-310, 0.1, 1 / 3]


def hexes(values):
    return [value.hex() for value in values]


class TestCodec:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=255))
    @example(EDGES)
    @example([-0.0])
    @example([5e-324, 1.7976931348623157e308])
    @settings(max_examples=300, deadline=None)
    def test_round_trip_is_bit_exact(self, profile):
        text = encode_profile(profile)
        assert text.isascii() and len(text) == 4 * -(-8 * len(profile) // 3)
        assert hexes(decode_profile(text, len(profile))) == hexes(profile)

    def test_wire_form_is_little_endian_binary64(self):
        assert encode_profile([1.0]) == "AAAAAAAA8D8="
        assert encode_profile([-0.0]) == "AAAAAAAAAIA="


class TestEncodedOncePerDocument:
    def test_cook_raw_alias_and_disk_load_carry_the_wire_form(self, tmp_path):
        service = PreparationService()
        document = service.add_path(draft_paper_path())
        cooked = service.prepare(document, PrepRequest(query="mobile caching"))
        raw = DocumentSender(Packetizer(64)).prepare_raw("raw", b"x" * 1000)
        alias = PreparationService._with_id(cooked, "alias")
        store = DiskCookedStore(tmp_path)
        store.put(("key",), cooked)
        loaded = store.get(("key",))
        for prepared in (cooked, raw, alias, loaded):
            assert prepared.profile_wire == encode_profile(prepared.content_profile)
            assert hexes(decode_profile(prepared.profile_wire, prepared.m)) == hexes(
                prepared.content_profile
            )
        assert alias.profile_wire is cooked.profile_wire
        assert alias.document_id == "alias" and cooked.document_id == document

    def test_cooked_weight_counts_the_wire_string(self):
        service = PreparationService()
        prepared = service.prepare(service.add_path(draft_paper_path()), PrepRequest())
        without = _cooked_size(prepared)
        prepared.profile_wire += "A" * 1000
        assert _cooked_size(prepared) - without == 1000
        assert sys.getsizeof(prepared.profile_wire) > 1000

    def test_air_index_entry_round_trips_the_profile(self):
        service = PreparationService()
        prepared = service.prepare(service.add_path(draft_paper_path()), PrepRequest())
        entry = CarouselEntry(
            document_id="doc", tag=0, m=prepared.m, n=prepared.n,
            packet_size=prepared.cooked.packet_size,
            original_size=prepared.cooked.original_size,
            profile=tuple(prepared.content_profile),
        )
        assert entry.to_wire()["profile"] == prepared.profile_wire
        index = AirIndex(cycle=0, schedule="flat", entries=(entry,), layout=((0, prepared.n),))
        parsed = AirIndex.from_wire(decode_json(index.encode()[5:]))
        assert hexes(parsed.entries[0].profile) == hexes(prepared.content_profile)


class TestBytesOnAirPinned:
    """What the server sends on a clean fetch of the bundled paper.

    One MANIFEST, every cooked frame, one ROUND_END.  The ratio is the
    benchmark's ``wire_bytes_per_payload_byte`` for a fetch that needs
    one round; a change that regrows the control traffic moves it.
    """

    PINS = {
        64: (1.89966, 1509, "c368f167b4afc5f046241dc700faba4a251b2e98420d6c2e4ff537dff7e886b1"),
        256: (1.65599, 472, "5fc36fb88acf1cc32a883d4394b3bdd92b31f5b162d2d7e7d8282a0206fa668b"),
    }

    @pytest.mark.parametrize("packet_size", sorted(PINS))
    def test_clean_fetch_bytes(self, packet_size):
        ratio, manifest_bytes, digest = self.PINS[packet_size]
        service = PreparationService()
        document = service.add_path(draft_paper_path())
        prepared = service.prepare(document, PrepRequest(packet_size=packet_size))
        manifest = encode_manifest(document, prepared, set())
        round_end = encode_json(MSG_ROUND_END, {"round": 1, "sent": prepared.n})
        frames = sum(len(envelope) for envelope in prepared.wire_frames())
        assert manifest[4] == MSG_MANIFEST
        assert len(manifest) == manifest_bytes
        assert hashlib.sha256(manifest).hexdigest() == digest
        on_air = len(manifest) + frames + len(round_end)
        assert round(on_air / prepared.cooked.original_size, 5) == ratio
