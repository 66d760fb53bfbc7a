"""The array codecs of envelope.py against per-value reference decoders.

ref_ints_at and ref_sparse_from decode one value at a time, as the format
was first read: slow, but plainly right. On well-formed payloads and on
every single-byte mutation of them, the array decoders must return the
same values, or raise the same exception with the same message.
"""

import random
import struct

import pytest

from srindex.envelope import (FormatError, _ef_shape, _ints_at,
                              _sparse_bytes, _sparse_from, pack_ints)
from srindex.succinct import SparseBitvector


def ref_ints_at(blob, off):
    """_ints_at, one string slice and base-2 parse per value."""
    width, count = struct.unpack_from("<BQ", blob, off)
    nbits = width * count
    end = off + 9 + (nbits + 7) // 8
    if not width or end > len(blob):
        raise ValueError(f"{count} packed ints of {width} bits run past "
                         "their section")
    acc = int.from_bytes(blob[off + 9:end], "little")
    if acc >> nbits:
        raise ValueError("packed ints have stray bits past their last value")
    bits = format(acc, f"0{nbits}b")
    values = [int(bits[j - width:j], 2) for j in range(nbits, 0, -width)]
    if width != max(max(values, default=0).bit_length(), 1):
        raise ValueError("packed ints are wider than their largest value")
    return values, end


def ref_sparse_from(blob):
    """_sparse_from, one loop step per one of the high part."""
    n, ones, low_bits = struct.unpack_from("<QQB", blob, 0)
    lows, off = ref_ints_at(blob, 17)
    (high_n,) = struct.unpack_from("<Q", blob, off)
    high = blob[off + 8:]
    if ((low_bits, high_n) != _ef_shape(n, ones)
            or len(high) != 8 * -(-high_n // 64)):
        raise FormatError("sparse bitvector parts do not fit its length")
    if len(lows) != ones or int.from_bytes(high, "little").bit_count() != ones:
        raise FormatError("sparse bitvector cardinality mismatch")
    positions = []
    k = prev = 0
    for q in range(0, len(high), 8):
        w = int.from_bytes(high[q:q + 8], "little")
        while w:
            b = w & -w
            p = ((8 * q + b.bit_length() - 1 - k) << low_bits | lows[k]) + 1
            if p <= prev:
                raise FormatError("sparse bitvector positions not increasing")
            positions.append(p)
            prev = p
            k += 1
            w ^= b
    if prev > n:
        raise FormatError("sparse bitvector position beyond its length")
    return positions, n


def sparse_parts(blob):
    """_sparse_from(blob) as ref_sparse_from returns it."""
    bv = _sparse_from(blob)
    return bv.positions, bv.n


def outcome(decode, blob):
    """decode(blob), or the class and message of what it raised."""
    try:
        return decode(blob)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def lows_past_low_bits(blob):
    """True when blob's lows decode, but one holds a bit at or above
    low_bits, which _sparse_bytes masks off."""
    try:
        lows = ref_ints_at(blob, 17)[0]
    except (ValueError, struct.error):
        return False
    return max(lows, default=0) >> blob[16] > 0


def mutations(rng, blob, k):
    """k copies of blob, each with one byte set to another value."""
    for _ in range(k):
        i = rng.randrange(len(blob))
        yield blob[:i] + bytes([blob[i] ^ rng.randrange(1, 256)]) + blob[i + 1:]


def ints_payloads(rng):
    """(offset, bytes): pack_ints payloads at offset 0 to 2, for every
    width 1-64, with counts that end inside, at and just past a 64-bit
    word."""
    for width in range(1, 65):
        for count in (0, 1, 2, 63, 64, 65, -(-128 // width),
                      128 // width + 1, rng.randrange(300)):
            values = [rng.getrandbits(width) for _ in range(count)]
            if values:
                values[rng.randrange(count)] |= 1 << (width - 1)
            off = rng.randrange(3)
            yield off, bytes(off) + pack_ints(values)


def sparse_payloads(rng):
    """_sparse_bytes payloads: empty, full (low_bits 0) and random."""
    for _ in range(150):
        n = rng.randrange(1, 3000)
        ones = rng.choice([0, n, 1, rng.randrange(n + 1),
                           rng.randrange(max(1, n // 50) + 1)])
        positions = sorted(rng.sample(range(1, n + 1), ones))
        yield _sparse_bytes(SparseBitvector(positions, n))


class TestAgainstReference:
    def test_packed_ints(self):
        rng = random.Random(70)
        for off, blob in ints_payloads(rng):
            for b in [blob, *mutations(rng, blob, 4)]:
                want = outcome(lambda x: ref_ints_at(x, off), b)
                got = outcome(lambda x: _ints_at(x, off), b)
                assert got == want, (b.hex(), off)
                if isinstance(got[0], list):
                    assert all(type(v) is int for v in got[0])

    def test_elias_fano(self):
        rng = random.Random(71)
        wider = 0
        for blob in sparse_payloads(rng):
            for b in [blob, *mutations(rng, blob, 12)]:
                want = outcome(ref_sparse_from, b)
                got = outcome(sparse_parts, b)
                if got != want and lows_past_low_bits(b):
                    # the one check the reference lacks; where it accepts
                    # such bytes, its positions code back to other bytes
                    assert got == (FormatError, "sparse bitvector parts do "
                                   "not fit its length"), b.hex()
                    if isinstance(want[0], list):
                        assert _sparse_bytes(SparseBitvector(*want)) != b
                    wider += 1
                    continue
                assert got == want, b.hex()
        assert wider   # a flipped low bit at low_bits 0 makes one


class TestEdges:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000])
    def test_empty_and_full_roundtrip(self, n):
        for positions in ([], list(range(1, n + 1))):
            blob = _sparse_bytes(SparseBitvector(positions, n))
            bv = _sparse_from(blob)
            assert (bv.positions, bv.n) == (positions, n)
            assert _sparse_bytes(bv) == blob

    def test_one_past_high_n_rejected(self):
        # the last one moved into the unused tail of the high part's last
        # word: the count still fits, the position lies past n
        positions, n = [3, 40, 41, 77, 90], 100
        blob = bytearray(_sparse_bytes(SparseBitvector(positions, n)))
        low_bits, high_n = _ef_shape(n, len(positions))
        assert high_n % 64
        high = len(blob) - 8 * -(-high_n // 64)
        last = ((positions[-1] - 1) >> low_bits) + len(positions) - 1
        blob[high + last // 8] ^= 1 << last % 8
        blob[high + high_n // 8] |= 1 << high_n % 8
        for decode in (_sparse_from, ref_sparse_from):
            with pytest.raises(FormatError, match="beyond its length"):
                decode(bytes(blob))

    def test_lows_wider_than_low_bits_rejected(self):
        # a low part with a bit at low_bits, which the encoder masks off:
        # the per-value decoder ORs it into the high part, so it took the
        # first position as 19, not 3, and that codes back to other bytes
        positions, n = [3, 40, 41, 77, 90], 100
        blob = _sparse_bytes(SparseBitvector(positions, n))
        low_bits = blob[16]
        lows, off = _ints_at(blob, 17)
        wide = pack_ints([lows[0] | 1 << low_bits] + lows[1:])
        bad = blob[:17] + wide + blob[off:]
        took = ref_sparse_from(bad)
        assert took == ([19] + positions[1:], n)
        assert _sparse_bytes(SparseBitvector(*took)) != bad
        with pytest.raises(FormatError, match="parts do not fit"):
            _sparse_from(bad)
