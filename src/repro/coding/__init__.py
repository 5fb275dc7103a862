"""Fault-tolerating encoding substrate (paper §4.1).

GF(2^8) arithmetic, matrices, the Rabin-dispersal / systematic
Reed–Solomon erasure codecs, CRC error detection, and packet framing.
"""

from repro.coding.backend import (
    BACKEND_ENV,
    BaselineBackend,
    CodingBackend,
    CodingBackendError,
    FusedBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
)
from repro.coding.gf256 import (
    FIELD_SIZE,
    PRIMITIVE_POLY,
    gf_add,
    gf_div,
    gf_dot,
    gf_inv,
    gf_mul,
    gf_mul_bytes,
    gf_pow,
    gf_sub,
)
from repro.coding.matrix import GFMatrix
from repro.coding.rs import (
    MAX_COOKED,
    CodecError,
    RabinDispersal,
    SystematicRSCodec,
    codec_for,
)
from repro.coding.crc import crc16, crc32, verify_crc16, verify_crc32
from repro.coding.packets import (
    FRAME_OVERHEAD,
    CookedDocument,
    Frame,
    Packetizer,
    decode_frame,
    encode_frame,
)

__all__ = [
    "BACKEND_ENV",
    "BaselineBackend",
    "CodingBackend",
    "CodingBackendError",
    "FusedBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "FIELD_SIZE",
    "PRIMITIVE_POLY",
    "gf_add",
    "gf_sub",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "gf_dot",
    "gf_mul_bytes",
    "GFMatrix",
    "CodecError",
    "RabinDispersal",
    "SystematicRSCodec",
    "codec_for",
    "MAX_COOKED",
    "crc16",
    "crc32",
    "verify_crc16",
    "verify_crc32",
    "FRAME_OVERHEAD",
    "Frame",
    "encode_frame",
    "decode_frame",
    "Packetizer",
    "CookedDocument",
]
