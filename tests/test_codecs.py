"""The array codecs of envelope.py against per-value reference codecs.

ref_ints_at and ref_sparse_from decode one value at a time, as the format
was first read: slow, but plainly right. On well-formed payloads and on
every single-byte mutation of them, the array decoders must return the
same values, or raise the same exception with the same message.

ref_delta_bytes and ref_delta_from code one Elias-delta gap at a time,
with delta_append and succinct.delta_read. The array delta codec must
write the same bytes, and read the same values from them; a mutated
stream it must reject, or read as the reference does.

Both reject what does not fit 64 bits: a packed int, a delta code, or a
value summed from its gaps.
"""

import random
import struct
from itertools import accumulate

import numpy as np
import pytest

from srindex.envelope import (GAP_LIMIT, FormatError, _delta_bytes,
                              _delta_from, _ef_shape, _ints_at, _sparse_bytes,
                              _sparse_from, pack_ints)
from srindex.succinct import SparseBitvector, delta_read


def ref_ints_at(blob, off):
    """_ints_at, one string slice and base-2 parse per value."""
    width, count = struct.unpack_from("<BQ", blob, off)
    if not 1 <= width <= 64:
        raise ValueError(f"packed ints of {width} bits, not 1 to 64")
    nbits = width * count
    end = off + 9 + (nbits + 7) // 8
    if end > len(blob):
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


def delta_append(stream, nbits, value):
    """Append the Elias-delta code of value >= 1 to stream (LSB-first int).

    Returns (stream, nbits). Code: with L = bitlen(value) and LL = bitlen(L),
    write LL-1 zeros, a one, the low LL-1 bits of L, then the low L-1 bits
    of value. Any value: the reference writer's codes may be longer than
    the 64 bits the format allows.
    """
    length = value.bit_length()
    ll = length.bit_length()
    nbits += ll - 1                       # zeros are implicit
    stream |= 1 << nbits
    nbits += 1
    if ll > 1:
        stream |= (length & ((1 << (ll - 1)) - 1)) << nbits
        nbits += ll - 1
    if length > 1:
        stream |= (value & ((1 << (length - 1)) - 1)) << nbits
        nbits += length - 1
    return stream, nbits


def ref_delta_bytes(values, block):
    """_delta_bytes, one delta_append and one base-2 string per code."""
    codes = []
    nbits = 0
    for i in range(1, len(values)):
        if i % block:
            code, width = delta_append(0, 0, values[i] - values[i - 1])
            codes.append(format(code, f"0{width}b"))
            nbits += width
    stream = int("0" + "".join(reversed(codes)), 2).to_bytes(
        (nbits + 7) // 8, "little")
    return (struct.pack("<QQQ", len(values), block, nbits)
            + pack_ints(values[::block]) + stream)


def ref_delta_from(blob, block):
    """_delta_from, one delta_read per code, in Python ints: a value past
    64 bits is rejected as the uint64 sum that wraps there is."""
    m, B, nbits = struct.unpack_from("<QQQ", blob, 0)
    if B != block:
        raise ValueError(f"delta block size {B} is not the header's {block}")
    anchors, off = ref_ints_at(blob, 24)
    stream = bytes(blob[off:])
    if len(anchors) != -(-m // B):
        raise ValueError("delta anchors do not match length and block")
    if (len(stream) != (nbits + 7) // 8
            or int.from_bytes(stream, "little") >> nbits):
        raise ValueError("delta stream length does not match its bits")
    values = []
    pos = 0
    for k, v in enumerate(anchors):
        values.append(v)
        for _ in range(min(B, m - k * B) - 1):
            g, pos = delta_read(stream, pos)
            v += g
            values.append(v)
        if v >> 64 or k + 1 < len(anchors) and v >= anchors[k + 1]:
            raise ValueError("delta values do not increase within 64 bits")
    if pos != nbits:
        raise ValueError("delta codes of at most 64 bits do not end at the "
                         "stream's end")
    return values


def code_bits(gap):
    """The length of gap's Elias-delta code."""
    return 2 * gap.bit_length().bit_length() - 2 + gap.bit_length()


def delta_values(rng, m, top):
    """m increasing values from a random start, with gaps of every code
    length up to that of top: single bits, short, and up to top."""
    gaps = [rng.choice([1, 2, 3, rng.randrange(1, 1 << 20),
                        rng.randrange(1, top + 1),
                        1 << rng.randrange(top.bit_length())])
            for _ in range(m - 1)]
    return list(accumulate(gaps, initial=rng.randrange(1 << 30)))


def delta_payloads(rng):
    """(block, _delta_bytes payload, values) for B in 1, 2, 4, 64 and past
    m, m in 1, B and B + 1 and more; gaps below 2**54, whose codes take up
    to 64 bits, and below 2**40."""
    for B in (1, 2, 4, 64, 1000):
        for m in (1, 2, B, B + 1, 2 * B + 3, rng.randrange(1, 400)):
            for top in (2**40, GAP_LIMIT - 1):
                if B == 1000 and m > 400:
                    continue
                vals = delta_values(rng, m, top)
                yield B, _delta_bytes(vals, B), vals


def ints_parts(blob, off):
    """_ints_at(blob, off) as ref_ints_at returns it."""
    values, end = _ints_at(blob, off)
    return values.tolist(), end


def sparse_parts(blob):
    """_sparse_from(blob) as ref_sparse_from returns it."""
    bv = _sparse_from(blob)
    return list(bv.positions), bv.n


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
                got = outcome(lambda x: ints_parts(x, off), b)
                assert got == want, (b.hex(), off)

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


class TestDeltaAgainstReference:
    def test_same_bytes_and_values(self):
        rng = random.Random(72)
        longest = straddled = 0
        for B, blob, vals in delta_payloads(rng):
            assert blob == ref_delta_bytes(vals, B)
            got = _delta_from(blob, B)
            assert got.tolist() == vals == ref_delta_from(blob, B)
            assert got.dtype == np.uint64
            at = 0
            for i in range(1, len(vals)):
                if i % B:
                    bits = code_bits(vals[i] - vals[i - 1])
                    longest = max(longest, bits)
                    straddled += at // 64 != (at + bits - 1) // 64
                    at += bits
        assert longest == 64 and straddled

    def test_mutations_rejected_or_read_alike(self):
        rng = random.Random(73)
        read = 0
        for B, blob, _ in delta_payloads(rng):
            for b in mutations(rng, blob, 6):
                want = outcome(lambda x: ref_delta_from(x, B), b)
                got = outcome(lambda x: _delta_from(x, B).tolist(), b)
                if isinstance(got, tuple):
                    assert issubclass(got[0], (ValueError, struct.error))
                assert isinstance(got, list) == isinstance(want, list)
                if isinstance(got, list):
                    assert got == want, b.hex()
                    read += 1
        assert read     # some mutations still make a valid stream

    def test_wrapped_block_rejected(self):
        # an anchor that fits 64 bits, with gaps that run its block past
        # 2**64: the uint64 running sums wrap inside the block
        vals = [2**64 - 5, 2**64 - 1, 2**64 + 7, 2**64 + 8]
        for B in (4, 64):
            with pytest.raises(ValueError, match="fit 64 bits"):
                _delta_bytes(vals, B)
            blob = ref_delta_bytes(vals, B)
            want = outcome(lambda x: ref_delta_from(x, B), blob)
            assert want == (ValueError, "delta values do not increase "
                            "within 64 bits")
            assert outcome(lambda x: _delta_from(x, B).tolist(), blob) == want

    def test_longest_code_roundtrip(self):
        # a gap of 2**54 - 1, whose code takes all 64 bits, after start
        # one-bit codes, so that it starts at every offset in a word
        assert code_bits(GAP_LIMIT - 1) == 64
        for start in range(64):
            vals = list(accumulate([1] * start + [GAP_LIMIT - 1, 1],
                                   initial=5))
            blob = _delta_bytes(vals, 1000)
            assert blob == ref_delta_bytes(vals, 1000)
            assert _delta_from(blob, 1000).tolist() == vals == \
                ref_delta_from(blob, 1000)

    def test_gap_past_64_bit_codes_rejected(self):
        # a gap of 2**54 takes a 65-bit code: the writer refuses it, and
        # the reader refuses the code that delta_append writes for it
        assert code_bits(GAP_LIMIT) == 65
        for start in range(64):
            vals = list(accumulate([1] * start + [GAP_LIMIT, 1], initial=5))
            with pytest.raises(ValueError, match="2\\*\\*54"):
                _delta_bytes(vals, 1000)
            blob = ref_delta_bytes(vals, 1000)
            for decode in (_delta_from, ref_delta_from):
                with pytest.raises(ValueError, match="at most 64 bits"):
                    decode(blob, 1000)


class TestEdges:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000])
    def test_empty_and_full_roundtrip(self, n):
        for positions in ([], list(range(1, n + 1))):
            blob = _sparse_bytes(SparseBitvector(positions, n))
            bv = _sparse_from(blob)
            assert (list(bv.positions), bv.n) == (positions, n)
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
        lows = lows.tolist()
        wide = pack_ints([lows[0] | 1 << low_bits] + lows[1:])
        bad = blob[:17] + wide + blob[off:]
        took = ref_sparse_from(bad)
        assert took == ([19] + positions[1:], n)
        assert _sparse_bytes(SparseBitvector(*took)) != bad
        with pytest.raises(FormatError, match="parts do not fit"):
            _sparse_from(bad)

    def test_width_past_64_rejected(self):
        # a value of 65 bits: not written, and not read from bytes that
        # pack it at that width
        with pytest.raises(ValueError, match="fit 64 bits"):
            pack_ints([1, 2**64])
        blob = struct.pack("<BQ", 65, 1) + (2**64).to_bytes(9, "little")
        for decode in (_ints_at, ref_ints_at):
            with pytest.raises(ValueError, match="65 bits, not 1 to 64"):
                decode(blob, 0)
