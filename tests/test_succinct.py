import random
import struct

import pytest

from srindex.envelope import (FormatError, _ints_at, _sparse_bytes,
                              _sparse_from, pack_ints)
from srindex.succinct import (BlockedDeltaSeq, DenseBitvector,
                              SparseBitvector, SymbolSequence, delta_append,
                              delta_read)


def naive_rank1(bits, i):
    return sum(bits[:i])


def naive_select1(bits, j):
    seen = 0
    for p, b in enumerate(bits, 1):
        seen += b
        if b and seen == j:
            return p
    raise IndexError


def check_bitvector(bv, bits, positions=None):
    n = len(bits)
    ones = sum(bits)
    assert len(bv) == n
    idx = positions if positions is not None else range(1, n + 1)
    for i in idx:
        assert bv.get(i) == bits[i - 1]
        assert bv.rank1(i) == naive_rank1(bits, i)
        assert bv.rank0(i) == i - naive_rank1(bits, i)
        if isinstance(bv, SparseBitvector):
            pred = bv.predecessor1(i)
            want = max((p for p in range(1, i + 1) if bits[p - 1]),
                       default=None)
            assert pred == want
            succ = bv.successor1(i)
            want = next((p for p in range(i, n + 1) if bits[p - 1]), None)
            assert succ == want
    for j in range(1, ones + 1):
        assert bv.select1(j) == naive_select1(bits, j)


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
            for j in rng.sample(range(1, sum(bits) + 1), min(40, sum(bits))):
                assert bv.rank1(bv.select1(j)) == j

    def test_select_errors(self):
        bv = DenseBitvector([1, 0, 1])
        with pytest.raises(IndexError):
            bv.select1(3)


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
            assert bv.positions == pos and bv.n == n
            # in memory the bitvector is its positions and nothing else
            assert set(vars(bv)) == {"n", "ones", "positions"}

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


class TestSymbolSequence:
    def test_against_naive(self):
        rng = random.Random(6)
        for _ in range(100):
            seq = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 60))]
            ss = SymbolSequence(seq)
            for c in range(1, 7):
                for i in range(len(seq) + 1):
                    assert ss.rank(c, i) == seq[:i].count(c)
                for k in range(1, seq.count(c) + 1):
                    p = ss.select(c, k)
                    assert seq[p - 1] == c and seq[:p].count(c) == k


class TestDeltaCoding:
    def test_known_codewords(self):
        # delta(1) = "1" (1 bit), delta(2) = "0100" read LSB-first
        s, nb = delta_append(0, 0, 1)
        assert (s, nb) == (1, 1)
        s, nb = delta_append(0, 0, 2)
        assert nb == 4 and s == 0b0010
        for v in (1, 2, 3, 17, 1000, 12345678):
            s, nb = delta_append(0, 0, v)
            got, pos = delta_read(s, 0)
            assert got == v and pos == nb

    def test_stream_roundtrip(self):
        rng = random.Random(7)
        vals = [rng.randrange(1, 10_000) for _ in range(500)]
        s, nb = 0, 0
        for v in vals:
            s, nb = delta_append(s, nb, v)
        pos = 0
        for v in vals:
            got, pos = delta_read(s, pos)
            assert got == v
        assert pos == nb


class TestBlockedDeltaSeq:
    @pytest.mark.parametrize("block", [1, 2, 3, 64, 10_000])
    def test_access_and_pred(self, block):
        rng = random.Random(8)
        for _ in range(40):
            m = rng.randrange(0, 80)
            vals = sorted(rng.sample(range(0, 5000), m))
            seq = BlockedDeltaSeq(vals, block)
            assert seq.to_list() == vals
            for i, v in enumerate(vals, 1):
                assert seq.access(i) == v
            for x in [-1, 0, 2500, 4999, 6000] + \
                    [rng.randrange(5200) for _ in range(20)]:
                want = None
                for i, v in enumerate(vals, 1):
                    if v <= x:
                        want = (v, i)
                assert seq.pred(x) == want

    def test_from_parts(self):
        rng = random.Random(9)
        for block in (1, 4, 64):
            vals = sorted(rng.sample(range(100_000), 300))
            seq = BlockedDeltaSeq(vals, block)
            rebuilt = BlockedDeltaSeq.from_parts(
                seq.m, seq.B, seq.samples, seq.stream, seq.nbits)
            assert rebuilt.to_list() == vals
            assert rebuilt.offsets == seq.offsets

    def test_zero_first_value(self):
        seq = BlockedDeltaSeq([0, 1, 5], 8)
        assert seq.to_list() == [0, 1, 5]
        assert seq.pred(0) == (0, 1)
