import random
import struct
from array import array
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from conftest import naive_occurrences, random_text, sample_patterns
from test_codecs import delta_append, ref_delta_bytes, ref_delta_from
from srindex import envelope
from srindex.envelope import (GAP_LIMIT, FormatError, _delta_bytes,
                              _delta_from, _ints_at, _sparse_bytes,
                              _sparse_from, pack_ints)
from srindex import succinct, toolkit
from srindex.succinct import (DELTA_WINDOW, BlockedDeltaSeq, DenseBitvector,
                              SparseBitvector, SymbolSequence, delta_read)


def naive_rank1(bits, i):
    return sum(bits[:i])


def check_bitvector(bv, bits, positions=None):
    n = len(bits)
    assert len(bv) == n
    idx = positions if positions is not None else range(1, n + 1)
    for i in idx:
        assert bv.rank1(i) == naive_rank1(bits, i)
        if isinstance(bv, SparseBitvector):
            succ = bv.successor1(i)
            want = next((p for p in range(i, n + 1) if bits[p - 1]), None)
            assert succ == want


def random_bits(rng, n, density):
    return [1 if rng.random() < density else 0 for _ in range(n)]


class TestDenseBitvector:
    def test_small_exhaustive(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(1, 200)
            bits = random_bits(rng, n, rng.uniform(0.01, 0.5))
            check_bitvector(DenseBitvector(bits), bits)

    def test_large_sampled(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randrange(1000, 4097)
            bits = random_bits(rng, n, rng.uniform(0.01, 0.5))
            bv = DenseBitvector(bits)
            sampled = sorted(rng.sample(range(1, n + 1), 80))
            check_bitvector(bv, bits, positions=sampled)

    def test_words_held_as_an_array(self):
        # built or decoded from words, the bitvector holds them as the one
        # uint64 array bits() and the envelope read, with no list copy
        rng = random.Random(3)
        bits = random_bits(rng, 300, 0.3)
        for bv in (DenseBitvector(bits),
                   DenseBitvector.from_words(DenseBitvector(bits).words,
                                             300)):
            assert isinstance(bv.words, np.ndarray)
            assert bv.words.dtype == np.dtype("<u8")
            assert bv.bits().tolist() == bits
            check_bitvector(bv, bits)


class TestSparseBitvector:
    def test_against_naive(self):
        rng = random.Random(4)
        for _ in range(150):
            n = rng.randrange(1, 500)
            bits = random_bits(rng, n, rng.uniform(0.01, 0.3))
            if not sum(bits):
                bits[rng.randrange(n)] = 1
            pos = [i for i in range(1, n + 1) if bits[i - 1]]
            check_bitvector(SparseBitvector(pos, n), bits)

    def test_ef_split_roundtrip(self):
        rng = random.Random(5)
        cases = [([], 1), ([1], 1), ([], 300), ([300], 300)]
        for _ in range(100):
            n = rng.randrange(1, 5000)
            ones = rng.randrange(1, max(2, n // 10 + 1))
            cases.append((sorted(rng.sample(range(1, n + 1), min(ones, n))),
                          n))
        for pos, n in cases:
            bv = _sparse_from(_sparse_bytes(SparseBitvector(pos, n)))
            assert list(bv.positions) == pos and bv.n == n
            # in memory the bitvector is its positions, in a narrow array,
            # and their bucket table, the code's high parts
            assert set(vars(bv)) == {"n", "ones", "positions", "shift",
                                     "bucket"}
            # the narrowest item type that holds n
            size = bv.positions.itemsize
            assert isinstance(bv.positions, array)
            assert n < 1 << 8 * size and (size == 1 or n >= 1 << 4 * size)

    def test_space_shape(self):
        # the low array width tracks log(n/x); the unary high part holds
        # one bit per one plus one per high bucket
        blob = _sparse_bytes(
            SparseBitvector(list(range(10, 100_000, 1000)), 100_000))
        n, ones, low_bits = struct.unpack_from("<QQB", blob, 0)
        assert ones == 100 and low_bits <= 11
        _, off = _ints_at(blob, 17)
        (high_n,) = struct.unpack_from("<Q", blob, off)
        assert high_n <= 2 * ones + (1 << 11)

    @pytest.mark.parametrize("n,ones,low_bits,lows,high_bits", [
        (16, 2, 1, [1, 1], [2, 3]),      # one position twice
        (8, 1, 0, [0], [9]),             # position beyond n
        (8, 1, 0, [0], [0, 1]),          # more high ones than ones
        (8, 2, 0, [0, 1], [0]),          # fewer high ones than ones
    ])
    def test_crafted_payload_rejected(self, n, ones, low_bits, lows,
                                      high_bits):
        high = sum(1 << i for i in high_bits)
        blob = (struct.pack("<QQB", n, ones, low_bits) + pack_ints(lows)
                + struct.pack("<Q", high.bit_length())
                + high.to_bytes(8, "little"))
        with pytest.raises(FormatError):
            _sparse_from(blob)


class TestUintArray:
    def test_list_outside_bound_rejected(self):
        # a list used to raise OverflowError, which the loader does not
        # report as a FormatError
        for values in ([300, 1], [1, -1], [2**64], [2**64 - 1, -1]):
            with pytest.raises(ValueError, match="outside 0..255"):
                succinct.uint_array(255, values)
        # within the type but past the bound
        with pytest.raises(ValueError, match="outside 0..100"):
            succinct.uint_array(100, [101])

    def test_numpy_outside_bound_rejected(self):
        # numpy input used to wrap silently: [300, -1] came back as
        # array('B', [44, 255])
        for values in (np.array([300, -1]), np.array([300], dtype=np.uint64),
                       np.array([-1], dtype=np.int8)):
            with pytest.raises(ValueError, match="outside 0..255"):
                succinct.uint_array(255, values)

    def test_narrowest_type(self):
        for bound, code in ((0, "B"), (255, "B"), (256, "H"), (2**16, "I"),
                            (2**32 - 1, "I"), (2**32, "Q"), (2**64 - 1, "Q")):
            got = succinct.uint_array(bound, np.array([0, bound],
                                                      dtype=np.uint64))
            assert got.typecode == code and list(got) == [0, bound]
        assert list(succinct.uint_array(9, [])) == []


def bucketed_rank(values, shift, bucket, x):
    """The search every query makes: bisect_right(values, x) among the
    values of x's bucket."""
    b = x >> shift
    return bisect_right(values, x, bucket[b], bucket[b + 1])


def check_buckets(values, n):
    """A bucket table of values within 0..n + 1 answers like
    bisect_right for every x in 0..n + 1, and costs O(len(values))."""
    shift, bucket = succinct.buckets(values, n)
    assert shift == succinct.low_bits(n, max(len(values), 1))
    assert len(bucket) < 2 * max(len(values), 1) + 4
    for x in range(n + 2):
        assert bucketed_rank(values, shift, bucket, x) == \
            bisect_right(values, x), (list(values), n, x)


class TestBuckets:
    def test_against_bisect(self):
        rng = random.Random(91)
        for _ in range(300):
            n = rng.randrange(1, 600)
            m = rng.randrange(0, n + 1)
            if rng.random() < 0.3:
                # clustered, so most buckets are empty
                lo = rng.randrange(1, n + 1)
                pool = range(lo, min(n, lo + m + 3) + 1)
            else:
                pool = range(1, n + 1)
            vals = sorted(rng.sample(pool, min(m, len(pool))))
            check_buckets(succinct.uint_array(n + 1, vals), n)
            # the run tables' form: an n + 1 sentinel after the values
            check_buckets(succinct.uint_array(n + 1, vals + [n + 1]), n)

    def test_edges(self):
        for n in (1, 2, 3, 63, 64, 65, 1000):
            for vals in ([], [1], [n], [1, n], list(range(1, n + 1)),
                         [n // 2 or 1]):
                check_buckets(succinct.uint_array(n + 1, sorted(set(vals))),
                              n)

    def test_sparse_rank(self):
        # rank1 searches one bucket, and clamps outside 1..n
        rng = random.Random(92)
        for _ in range(100):
            n = rng.randrange(1, 400)
            pos = sorted(rng.sample(range(1, n + 1), rng.randrange(0, n + 1)))
            bv = SparseBitvector(pos, n)
            for x in range(-2, n + 4):
                assert bv.rank1(x) == bisect_right(pos, x)

    def test_huge_universe(self):
        # few values over a 64-bit universe: a few buckets, not 2**64
        bv = SparseBitvector([3, 2**40, 2**64 - 2], 2**64 - 1)
        assert len(bv.bucket) < 10
        for x in (0, 3, 4, 2**40 - 1, 2**40, 2**64 - 2, 2**64 - 1):
            assert bv.rank1(x) == bisect_right(bv.positions, x)


class TestSymbolSequence:
    def test_against_naive(self):
        rng = random.Random(6)
        for _ in range(100):
            seq = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 60))]
            ss = SymbolSequence(seq)
            for c in range(1, 7):
                for i in range(len(seq) + 1):
                    assert ss.rank(c, i) == seq[:i].count(c)


def delta_bytes(vals, start=0):
    """The delta codes of vals written from bit offset start, as stream
    bytes; returns (bytes, [(offset, value, code bits)], end offset)."""
    s, nb = 0, start
    codes = []
    for v in vals:
        s, end = delta_append(s, nb, v)
        codes.append((nb, v, end - nb))
        nb = end
    return s.to_bytes((nb + 7) // 8, "little"), codes, nb


# values whose codes are longer than 64 bits
WIDE = (2**57, 2**63 - 1, 2**64, 2**80 + 1, 2**200, 3**300)


@pytest.fixture(scope="module")
def long_seq():
    """100,001 increasing values whose gaps run from 1 to 2**54 - 1, the
    longest gap whose code fits 64 bits."""
    rng = random.Random(10)
    gaps = [rng.choice((1, 2, 3)) if rng.random() < 0.3 else
            rng.randrange(1, 1 << rng.randrange(1, 40))
            for _ in range(99_990)] + [2**40, 2**53, GAP_LIMIT - 1, 1, 2, 3, 4]
    rng.shuffle(gaps)
    return list(accumulate(gaps, initial=0))


class BytesLog:
    """Stream bytes that record how many bytes each slice took."""

    def __init__(self, data):
        self.data = data
        self.taken = []

    def __len__(self):
        return len(self.data)

    def __getitem__(self, key):
        out = self.data[key]
        self.taken.append(len(out))
        return out


class TestDeltaCoding:
    def test_known_codewords(self):
        # delta(1) = "1" (1 bit), delta(2) = "0100" read LSB-first
        s, nb = delta_append(0, 0, 1)
        assert (s, nb) == (1, 1)
        s, nb = delta_append(0, 0, 2)
        assert nb == 4 and s == 0b0010
        for v in (1, 2, 3, 17, 1000, 12345678):
            s, nb = delta_append(0, 0, v)
            got, pos = delta_read(s.to_bytes((nb + 7) // 8, "little"), 0)
            assert got == v and pos == nb

    def test_stream_roundtrip(self):
        rng = random.Random(7)
        vals = [rng.randrange(1, 10_000) for _ in range(500)]
        s, nb = 0, 0
        for v in vals:
            s, nb = delta_append(s, nb, v)
        buf = s.to_bytes((nb + 7) // 8, "little")
        pos = 0
        for v in vals:
            got, pos = delta_read(buf, pos)
            assert got == v
        assert pos == nb

    @pytest.mark.parametrize("value", WIDE)
    def test_wide_values_roundtrip(self, value):
        # codes longer than 64 bits, at every bit offset in a byte and
        # between short codes: the short code before one reads, the long
        # one is rejected
        for start in range(8):
            buf, codes, end = delta_bytes([5, value, 1, value, 2], start)
            assert codes[1][2] > 64
            got, pos = delta_read(buf, start)
            assert (got, pos) == (5, codes[1][0])
            with pytest.raises(ValueError, match="at most 64 bits"):
                delta_read(buf, pos)

    def test_codes_straddle_bytes(self):
        values = [1, 2, 3, 7, 8, 17, 255, 256, 1000, 2**20 + 1, 2**40 - 1]
        for start in range(17):
            for v in values:
                buf, [(_, _, bits)], end = delta_bytes([v], start)
                assert delta_read(buf, start) == (v, end)
                # the same code followed by others, and right at the end
                buf, _, end = delta_bytes([v, 1, v], start)
                got, pos = delta_read(buf, start)
                got2, pos = delta_read(buf, pos)
                assert (got, got2, delta_read(buf, pos)) == (v, 1, (v, end))
            assert any((start + bits - 1) // 8 > start // 8
                       for v in values
                       for _, _, bits in delta_bytes([v], start)[1])

    def test_read_past_end_raises(self):
        for buf, pos in [(b"", 0), (b"\x01", 8), (b"\x00" * 20, 0),
                         (b"\x00" * 20, 37)]:
            with pytest.raises(ValueError):
                delta_read(buf, pos)
        for v in (2, 17, 1000, 2**40, GAP_LIMIT - 1, GAP_LIMIT, 2**64,
                  2**200):
            for start in (0, 3, 7):
                buf, _, end = delta_bytes([v], start)
                with pytest.raises(ValueError):
                    delta_read(buf[:-1], start)
                # whole, a code of at most 64 bits decodes, also with a
                # byte after it; a longer one is rejected
                if v < GAP_LIMIT:
                    assert delta_read(buf + b"\x00", start) == (v, end)
                else:
                    with pytest.raises(ValueError, match="at most 64 bits"):
                        delta_read(buf + b"\x00", start)

    def test_length_past_the_end_raises(self):
        # a length field of 2**40 - 1 bits in a 10-byte buffer: rejected
        # as a code longer than 64 bits, with nothing of that length read
        buf = ((2**39 - 1) << 40 | 1 << 39).to_bytes(10, "little")
        with pytest.raises(ValueError, match="at most 64 bits"):
            delta_read(buf, 0)

    def test_reads_only_the_bytes_of_its_code(self, long_seq):
        # one window of at most 9 bytes a code, wherever it lies in a
        # 100,000-code stream, for codes of up to 64 bits
        gaps = [b - a for a, b in zip(long_seq, long_seq[1:])]
        buf, codes, end = delta_bytes(gaps)
        log = BytesLog(buf)
        pos = 0
        for off, v, bits in codes:
            log.taken.clear()
            got, pos = delta_read(log, pos)
            assert (got, off + bits) == (v, pos)
            assert sum(log.taken) <= DELTA_WINDOW == 9
        assert pos == end and max(bits for *_, bits in codes) == 64

    def test_roundtrip_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(st.integers(1, GAP_LIMIT - 1),
                                   max_size=40),
                          st.integers(0, 70))
        def roundtrip(vals, start):
            buf, codes, end = delta_bytes(vals, start)
            pos = start
            for _, v, _ in codes:
                got, pos = delta_read(buf, pos)
                assert got == v
            assert pos == end

        roundtrip()


def delta_parts(blob):
    """_delta_bytes output -> (m, B, nbits, anchors, stream)."""
    m, B, nbits = struct.unpack_from("<QQQ", blob, 0)
    anchors, off = _ints_at(blob, 24)
    return m, B, nbits, anchors.tolist(), blob[off:]


def delta_blob(m, B, nbits, anchors, stream):
    return struct.pack("<QQQ", m, B, nbits) + pack_ints(anchors) + stream


def counting_reads(monkeypatch):
    """Patch succinct.delta_read to log the bit offset of every call."""
    calls = []
    read = succinct.delta_read

    def counted(buf, pos):
        calls.append(pos)
        return read(buf, pos)

    monkeypatch.setattr(succinct, "delta_read", counted)
    return calls


class TestBlockedDeltaSeq:
    @pytest.mark.parametrize("block", [1, 2, 3, 64, 10_000])
    def test_access_and_pred(self, block):
        rng = random.Random(8)
        for _ in range(40):
            m = rng.randrange(0, 80)
            vals = sorted(rng.sample(range(0, 5000), m))
            blob = _delta_bytes(vals, block)
            assert _delta_from(blob, block).tolist() == vals
            seq = BlockedDeltaSeq(vals, 5000)
            assert list(seq.values) == vals
            for i, v in enumerate(vals, 1):
                assert seq.access(i) == v
            for x in [-1, 0, 2500, 4999, 6000] + \
                    [rng.randrange(5200) for _ in range(20)]:
                want = None
                for i, v in enumerate(vals, 1):
                    if v <= x:
                        want = (v, i)
                assert seq.pred(x) == want

    def test_codec_roundtrip(self):
        rng = random.Random(9)
        for block in (1, 4, 64):
            vals = sorted(rng.sample(range(100_000), 300))
            blob = _delta_bytes(array("I", vals), block)
            assert _delta_bytes(vals, block) == blob
            assert _delta_from(blob, block).tolist() == vals
            m, B, nbits, anchors, stream = delta_parts(blob)
            assert (m, B, anchors) == (300, block, vals[::block])
            assert len(stream) == (nbits + 7) // 8

    def test_item_size_fits_n(self):
        assert BlockedDeltaSeq([1, 2**32 - 1], 2**32 - 1).values.itemsize == 4
        seq = BlockedDeltaSeq([1, 2**32, 2**40], 2**40)
        assert seq.values.itemsize == 8 and seq.access(3) == 2**40

    def test_stream_is_delta_append_fold(self):
        # the stream holds exactly the codes delta_append writes, one after
        # another: the in-block gaps, with every block's anchor left out
        rng = random.Random(10)
        for _ in range(60):
            block = rng.choice([1, 2, 3, 7, 64, 1000])
            top = rng.choice([1, 50, 10**4, GAP_LIMIT - 1, 2**70])
            vals = list(accumulate(rng.randint(1, top)
                                   for _ in range(rng.randrange(300))))
            gaps = [v - vals[i - 1] for i, v in enumerate(vals) if i % block]
            if max(vals, default=0) >> 64 or max(gaps, default=0) >> 54:
                # a value or a code past 64 bits
                with pytest.raises(ValueError):
                    _delta_bytes(vals, block)
                continue
            stream = nbits = 0
            for i, v in enumerate(vals):
                if i % block:
                    stream, nbits = delta_append(stream, nbits,
                                                 v - vals[i - 1])
            blob = _delta_bytes(vals, block)
            assert delta_parts(blob) == (
                len(vals), block, nbits, vals[::block],
                stream.to_bytes((nbits + 7) // 8, "little"))
            assert _delta_from(blob, block).tolist() == vals

    def test_decoder_rejects_misfits(self):
        vals = list(range(0, 300, 3))
        parts = delta_parts(_delta_bytes(vals, 8))
        m, B, nbits, samples, stream = parts
        for bad in [
            (m, 0, nbits, samples, stream),                # block below 1
            (m, 4, nbits, samples, stream),                # not the header's
            (m + 8, B, nbits, samples, stream),            # too few anchors
            (m, B, nbits, samples[:-1], stream),
            (m, B, nbits, samples[::-1], stream),          # not increasing
            # anchors increase, but block 0 (0 .. 21) reaches the next one
            (m, B, nbits, samples[:1] + [21] + samples[2:], stream),
            (m, B, nbits, [0] * len(samples), stream),
            (m, B, nbits, samples, stream + b"\x00"),     # length mismatch
            (m, B, nbits, samples, stream[:-1]),
            (m, B, nbits - 8, samples, stream[:-1]),       # codes past nbits
            (m, B, nbits - 1, samples, stream),
            (m, B, nbits, samples, bytes(len(stream))),    # no codes at all
            (m + 1, B, nbits, samples, stream),            # codes run out
        ]:
            with pytest.raises(ValueError):
                _delta_from(delta_blob(*bad), 8)
        assert _delta_from(delta_blob(*parts), 8).tolist() == vals
        # the same values at B = 4 decode only against a header B of 4
        blob = _delta_bytes(vals, 4)
        assert _delta_from(blob, 4).tolist() == vals
        with pytest.raises(ValueError):
            _delta_from(blob, 8)

    @pytest.mark.parametrize("m", [1_000, 100_000])
    def test_decode_reads_only_long_codes(self, m, long_seq, monkeypatch):
        # the decoder reads every code from arrays, and calls delta_read
        # for none; a gap of 2**54, whose code is longer, is refused
        vals = long_seq[:m]
        blob = _delta_bytes(vals, 64)
        calls = counting_reads(monkeypatch)
        assert _delta_from(blob, 64).tolist() == vals == ref_delta_from(
            blob, 64)
        assert calls == []
        # the last value is not an anchor: raised to a gap of 2**54
        assert (m - 1) % 64
        wide = vals[:-1] + [vals[-2] + GAP_LIMIT]
        with pytest.raises(ValueError, match="2\\*\\*54"):
            _delta_bytes(wide, 64)
        with pytest.raises(ValueError, match="at most 64 bits"):
            _delta_from(ref_delta_bytes(wide, 64), 64)
        assert calls == []

    def test_load_reads_only_long_codes(self, monkeypatch):
        # an index's Psi values lie within its text, so no code is long
        data = b"abracadabra" * 20 + b"cadabra" * 7
        blob = toolkit.build_index(data, "r-csa", block=4).serialize()
        calls = counting_reads(monkeypatch)
        runs = toolkit.load_index(blob).ix.runs
        assert calls == []
        for name, want in (("psi_heads", runs.heads), ("psi_tails",
                                                       runs.tails)):
            payload = envelope._open(blob)[2][name]
            (count,) = struct.unpack_from("<I", payload, 0)
            off, got = 4, {}
            for c in range(1, count + 1):
                (ln,) = struct.unpack_from("<Q", payload, off)
                got[c] = ref_delta_from(payload[off + 8:off + 8 + ln], 4)
                off += 8 + ln
            assert got == {c: list(v) for c, v in want.items()}

    @pytest.mark.parametrize("kind,s,variant", [
        ("r-csa", None, 0), ("sr-csa", 4, 0), ("sr-csa", 4, 1),
        ("sr-csa", 4, 2)])
    def test_queries_read_no_code(self, kind, s, variant, monkeypatch):
        rng = random.Random(13)
        data = random_text(rng, 300, 4)
        bi = toolkit.load_index(toolkit.build_index(
            data, kind, s=s, variant=variant, block=4).serialize())
        calls = counting_reads(monkeypatch)
        for pat in sample_patterns(rng, data, 30):
            want = naive_occurrences(data, pat)
            assert bi.count(pat) == len(want)
            assert sorted(bi.locate(pat)) == want
        assert calls == []

    def test_zero_first_value(self):
        blob = _delta_bytes([0, 1, 5], 8)
        assert _delta_from(blob, 8).tolist() == [0, 1, 5]
        seq = BlockedDeltaSeq([0, 1, 5], 5)
        assert list(seq.values) == [0, 1, 5]
        assert seq.pred(0) == (0, 1)
