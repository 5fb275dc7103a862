"""Scaling benches for the erasure codec across the paper's M range.

Figure 2 spans M = 10..100; these benches document how encode,
decode and generator construction costs grow over that range, so
capacity planning for a real deployment has numbers.
"""

import random

import pytest

from repro.coding.matrix import GFMatrix
from repro.coding.rs import SystematicRSCodec, _decode_rows, _generator_matrix


def _setup(m, gamma=1.5, size=256, seed=0):
    rng = random.Random(seed)
    codec = SystematicRSCodec(m, int(m * gamma))
    raw = [bytes(rng.randrange(256) for _ in range(size)) for _ in range(m)]
    cooked = codec.encode(raw)
    return codec, raw, cooked


@pytest.mark.parametrize("m", [10, 40, 100])
def test_encode_scaling(benchmark, m):
    codec, raw, _cooked = _setup(m)
    benchmark(codec.encode, raw)


@pytest.mark.parametrize("m", [10, 40, 100])
def test_batch_decode_worst_case(benchmark, m):
    """All clear packets lost: closed-form rows for every raw packet."""
    codec, raw, cooked = _setup(m, gamma=2.0)
    received = {i: cooked[i] for i in range(m, 2 * m)}

    def decode():
        _decode_rows.cache_clear()  # charge the row construction every time
        return codec.decode(received)

    result = benchmark(decode)
    assert result == raw


@pytest.mark.parametrize("m", [33, 130, 170])
def test_generator_construction(benchmark, m):
    """Systematic generator build at γ = 1.5, the per-(m, n) cook start-up.

    m = 33 and m = 130 are the bundled paper at 256- and 64-byte
    packets; m = 170 reaches the GF(2^8) limit n = 255.  The LRU cache
    is bypassed so every round pays the construction.
    """
    n = int(m * 1.5)
    generator = benchmark(_generator_matrix.__wrapped__, m, n, True)
    assert generator.nrows == n
    assert GFMatrix(generator.rows()[:m]).is_identity()
