"""Succinct building blocks: bitvectors with rank, a sparse bitvector
(Elias-Fano coded on disk), the Elias-delta code, the narrow integer
arrays the indexes hold their per-run tables in, and the bucket tables
that narrow a predecessor search in one of them.

No index holds a DenseBitvector: it is the DENSE codec's value, which the
loader decodes and the index turns into its own tables (the subsampled
indexes' validity bits and `removed`). SymbolSequence, BlockedDeltaSeq
and delta_read serve no index either; they stay only because the
benchmark's tracer wraps them.

Positions are 1-based throughout: rank1(i) counts ones among positions
1..i.
"""

from array import array
from bisect import bisect_right
from itertools import accumulate

import numpy as np

WORD = 64
DEFAULT_BLOCK = 64  # values per block of an Elias-delta stream on disk


def _narrowest(codes, bound):
    """The first array typecode of codes (unsigned, or signed with the sign
    bit spared) whose items hold bound."""
    signed = codes.islower()
    return next(c for c in codes
                if bound >> 8 * array(c).itemsize - signed == 0)


def _zeros(code, size):
    """size zeros as an array of typecode code, allocated to fit: an array
    made from bytes reserves a sixteenth more than it holds."""
    return array(code, [0]) * size


def _filled(code, values):
    """The items of a numpy array as an array of typecode code, which
    holds them, allocated to fit."""
    table = _zeros(code, len(values))
    np.frombuffer(table, dtype=code)[:] = values
    return table


def uint_array(bound, values):
    """values, integers in 0..bound (a sequence or a numpy array), as an
    array of the narrowest unsigned item type that holds bound: 1 to 8
    bytes an item, where a list of ints costs about 36. Raises ValueError
    for a value outside 0..bound."""
    code = _narrowest("BHIQ", bound)
    vals = np.asarray(values)
    if vals.dtype.kind not in "biu":
        # ints past int64 (which numpy takes as floats), or no values
        vals = np.asarray(values, dtype=object)
    if vals.size and not 0 <= vals.min() <= vals.max() <= bound:
        raise ValueError(f"values outside 0..{bound}")
    return _filled(code, vals)


def int_array(bound, values):
    """values, a numpy integer array, as an array of the narrowest signed
    item type that holds +-bound. Raises ValueError for a value past the
    type's largest value, or its negative."""
    code = _narrowest("bhiq", bound)
    end = int(np.iinfo(code).max)
    if values.size and not -end <= values.min() <= values.max() <= end:
        raise ValueError(f"values outside -{end}..{end}")
    return _filled(code, values)


def cumulative(counts, total):
    """0 and the running sums of counts, which end at total, as an array of
    the narrowest unsigned item type that holds total: the form of every
    bucket table."""
    code = _narrowest("BHIQ", total)
    table = _zeros(code, len(counts) + 1)
    np.cumsum(counts, dtype=code, out=np.frombuffer(table, dtype=code)[1:])
    return table


def view(table):
    """A typed array as a read-only numpy array of its items, no copy."""
    return np.frombuffer(table, dtype=table.typecode)


def low_bits(n, m):
    """Elias-Fano's low part width for m values within 1..n: the bits of
    n // m below its top one (0 when there are no values)."""
    return max(0, (n // m).bit_length() - 1) if m else 0


def buckets(values, n):
    """The bucket table of a sorted typed array of values within
    0..n + 1: (shift, table), where table[b] is the index of the first
    value v with v >> shift >= b, for b = 0..((n + 1) >> shift) + 1.

    So bisect_right(values, x) for any x in 0..n + 1 is bisect_right(
    values, x, table[b], table[b + 1]) with b = x >> shift, a search
    among the values of x's bucket only. shift is Elias-Fano's low_bits
    for these values (at least one) over n, so v >> shift is v's high
    part in that code, the table has fewer than 2 * max(len(values), 1)
    + 4 entries, and a bucket holds about one value."""
    shift = low_bits(n, max(len(values), 1))
    counts = np.bincount((view(values) >> shift).astype(np.intp),
                         minlength=((n + 1) >> shift) + 1)
    return shift, cumulative(counts, len(values))


class DenseBitvector:
    """Plain bitvector: 64-bit words, their popcount, and the per-word
    cumulative popcount that rank1 reads, built on its first call."""

    def __init__(self, bits):
        # bits: a sequence of 0/1 or a numpy array; bit 1 is the lowest
        # bit of the first word
        bits = np.asarray(bits, dtype=bool)
        packed = np.packbits(bits, bitorder="little")
        words = np.zeros(-(-bits.size // WORD), dtype="<u8")
        words.view(np.uint8)[:packed.size] = packed
        self._hold(words, bits.size)

    @classmethod
    def from_words(cls, words, length):
        bv = cls.__new__(cls)
        bv._hold(np.asarray(words, dtype="<u8"), length)
        return bv

    def _hold(self, words, n):
        """Hold n bits from a uint64 array of their words."""
        self.n = n
        self.words = words.tolist()
        self.ones = int(np.bitwise_count(words).sum())
        self.cum = None

    def bits(self):
        """All n bits, bit 1 first, as a numpy array of 0/1."""
        return np.unpackbits(np.array(self.words, dtype="<u8").view(np.uint8),
                             count=self.n, bitorder="little")

    def rank1(self, i):
        """Number of ones in positions 1..i (i may be 0)."""
        if i <= 0:
            return 0
        if i >= self.n:
            return self.ones
        if self.cum is None:
            self.cum = [0, *accumulate(w.bit_count() for w in self.words)]
        q, rm = divmod(i, WORD)
        c = self.cum[q]
        if rm:
            c += (self.words[q] & ((1 << rm) - 1)).bit_count()
        return c

    def __len__(self):
        return self.n


class SparseBitvector:
    """Bitvector for few ones over a large universe, held as the sorted
    positions of its ones in a narrow array, and their bucket table;
    rank bisects the positions in one bucket. On disk it is Elias-Fano
    coded (the SPARSE codec in envelope.py), whose high parts the buckets
    are."""

    def __init__(self, positions, length):
        # positions: sorted distinct 1-based positions of set bits
        self.n = length
        self.positions = uint_array(length, positions)
        self.ones = len(self.positions)
        self.shift, self.bucket = buckets(self.positions, length)

    def buckets_to_end(self):
        """(shift, table): the bucket table of the positions and n + 1, as
        buckets() makes it but at this bitvector's shift. It is this
        bitvector's own table with n + 1 counted in the last bucket, the
        only one whose end lies past it."""
        table = array(_narrowest("BHIQ", self.ones + 1), self.bucket)
        table[-1] += 1
        return self.shift, table

    def rank1(self, i):
        if i < 1:
            return 0
        if i > self.n:
            return self.ones
        b = i >> self.shift
        return bisect_right(self.positions, i, self.bucket[b],
                            self.bucket[b + 1])

    def successor1(self, i):
        k = self.rank1(i - 1)
        return self.positions[k] if k < self.ones else None

    def __len__(self):
        return self.n


class SymbolSequence:
    """rank over a short sequence of small integer symbols, kept as
    per-symbol sorted position lists. No index holds one."""

    def __init__(self, seq):
        self.occ = {}
        for i, c in enumerate(seq, 1):
            self.occ.setdefault(c, []).append(i)

    def rank(self, c, i):
        """Occurrences of c in positions 1..i."""
        pos = self.occ.get(c)
        return bisect_right(pos, i) if pos else 0


DELTA_WINDOW = 9  # bytes that hold a code of 64 bits at any bit offset


def delta_read(buf, pos):
    """Decode one Elias-delta code of at most 64 bits at bit offset pos of
    buf, the bytes of an LSB-first stream. Returns (value, pos after the
    code).

    The code of value v, with L = bitlen(v) and LL = bitlen(L), is LL - 1
    zeros, a one, the low LL - 1 bits of L, then the low L - 1 bits of v.
    Reads DELTA_WINDOW bytes, so the cost depends neither on pos nor on
    the length of buf. Raises ValueError for a longer code, or one that
    runs past the end. No load or query calls this: the envelope's delta
    decoder reads a stream's codes as arrays.
    """
    q = pos >> 3
    x = int.from_bytes(buf[q:q + DELTA_WINDOW], "little") >> (pos & 7)
    low = x & -x                          # the code's first one
    z = low.bit_length()                  # zeros before it, plus one
    length = low | (x >> z) & (low - 1)
    end = pos + 2 * z - 2 + length
    if not x or end - pos > 64 or end > 8 * len(buf):
        raise ValueError(f"no delta code of at most 64 bits at bit {pos} "
                         "within the bytes")
    top = 1 << (length - 1)
    return top | (x >> (2 * z - 1)) & (top - 1), end


class BlockedDeltaSeq:
    """Strictly increasing non-negative integers, held decoded in an
    array whose items fit a text of length n. No index holds one: the Psi
    runs' heads are the run table pair's flat lex_starts
    (rlbwt.BackwardSearch), which both sides share."""

    def __init__(self, values, n):
        self.values = array("I" if n < 1 << 32 else "Q", values)

    def access(self, i):
        """Value at 1-based index i."""
        if not 1 <= i <= len(self.values):
            raise IndexError("access out of range")
        return self.values[i - 1]

    def pred(self, x):
        """Largest value <= x with its 1-based index, or None."""
        k = bisect_right(self.values, x)
        return (self.values[k - 1], k) if k else None
