"""Succinct building blocks: bitvectors with rank, a sparse bitvector
(Elias-Fano coded on disk), the Elias-delta code, the narrow integer
arrays the indexes hold their per-run tables in, and the bucket tables
that narrow a predecessor search in one of them.

No index holds a DenseBitvector: it is the DENSE codec's value, which the
loader decodes and the index turns into its own tables (the subsampled
indexes' validity bits and `removed`). SymbolSequence and
BlockedDeltaSeq are held by no index either; they stay only because the
benchmark's tracer wraps their methods.

Positions are 1-based throughout: rank1(i) counts ones among positions
1..i.
"""

from array import array
from bisect import bisect_left, bisect_right

import numpy as np

WORD = 64
DEFAULT_BLOCK = 64  # values per block of an Elias-delta stream on disk


def uint_array(bound, values):
    """values, integers in 0..bound (a sequence or a numpy array), as an
    array of the narrowest unsigned item type that holds bound: 1 to 8
    bytes an item, where a list of ints costs about 36. Raises ValueError
    for a value outside 0..bound."""
    code = next(c for c in "BHIQ" if bound >> 8 * array(c).itemsize == 0)
    vals = np.asarray(values)
    if vals.dtype.kind not in "biu":
        # ints past int64 (which numpy takes as floats), or no values
        vals = np.asarray(values, dtype=object)
    if vals.size and not 0 <= vals.min() <= vals.max() <= bound:
        raise ValueError(f"values outside 0..{bound}")
    return array(code, vals.astype(code).tobytes())


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
    high = view(values).astype(np.uint64) >> np.uint64(shift)
    counts = np.bincount(high.astype(np.intp),
                         minlength=((n + 1) >> shift) + 1)
    return shift, uint_array(len(values),
                             np.concatenate(([0], np.cumsum(counts))))


class DenseBitvector:
    """Plain bitvector: 64-bit words plus a per-word cumulative popcount."""

    def __init__(self, bits):
        # bits: a sequence of 0/1 or a numpy array; bit 1 is the lowest
        # bit of the first word
        bits = np.asarray(bits, dtype=bool)
        packed = np.packbits(bits, bitorder="little")
        words = np.zeros(-(-bits.size // WORD), dtype="<u8")
        words.view(np.uint8)[:packed.size] = packed
        self.n = bits.size
        self.words = words.tolist()
        self._build_rank()

    @classmethod
    def from_words(cls, words, length):
        bv = cls.__new__(cls)
        bv.n = length
        bv.words = list(words)
        bv._build_rank()
        return bv

    def _build_rank(self):
        self.cum = [0] * (len(self.words) + 1)
        c = 0
        for i, w in enumerate(self.words):
            c += w.bit_count()
            self.cum[i + 1] = c
        self.ones = c

    def bits(self):
        """All n bits, bit 1 first, as a numpy array of 0/1."""
        return np.unpackbits(np.array(self.words, dtype="<u8").view(np.uint8),
                             count=self.n, bitorder="little")

    def get(self, i):
        """Bit at 1-based position i."""
        i -= 1
        return (self.words[i // WORD] >> (i % WORD)) & 1

    def rank1(self, i):
        """Number of ones in positions 1..i (i may be 0)."""
        if i <= 0:
            return 0
        if i >= self.n:
            return self.ones
        q, rm = divmod(i, WORD)
        c = self.cum[q]
        if rm:
            c += (self.words[q] & ((1 << rm) - 1)).bit_count()
        return c

    def rank0(self, i):
        if i <= 0:
            return 0
        i = min(i, self.n)
        return i - self.rank1(i)

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

    def get(self, i):
        k = bisect_left(self.positions, i)
        return 1 if k < self.ones and self.positions[k] == i else 0

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
    """rank/select over a short sequence of small integer symbols, kept as
    per-symbol sorted position lists. No index holds one."""

    def __init__(self, seq):
        self.occ = {}
        for i, c in enumerate(seq, 1):
            self.occ.setdefault(c, []).append(i)

    def rank(self, c, i):
        """Occurrences of c in positions 1..i."""
        pos = self.occ.get(c)
        return bisect_right(pos, i) if pos else 0

    def select(self, c, k):
        """1-based position of the k-th occurrence of c."""
        pos = self.occ.get(c)
        if not pos or not 1 <= k <= len(pos):
            raise IndexError("select out of range")
        return pos[k - 1]


def delta_append(stream, nbits, value):
    """Append the Elias-delta code of value >= 1 to stream (LSB-first int).

    Returns (stream, nbits). Code: with L = bitlen(value) and LL = bitlen(L),
    write LL-1 zeros, a one, the low LL-1 bits of L, then the low L-1 bits
    of value.
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


DELTA_WINDOW = 8  # bytes delta_read reads first; only longer codes read more
_from_bytes = int.from_bytes  # one attribute lookup less per decoded code


def delta_read(buf, pos):
    """Decode one Elias-delta code at bit offset pos of buf, the bytes of
    an LSB-first stream. Returns (value, pos after the code).

    Reads DELTA_WINDOW bytes, and after them only the bytes of a code too
    long for that window, so the cost depends neither on pos nor on the
    length of buf. Raises ValueError for a code that runs past the end.
    The envelope's delta decoder reads codes of up to 64 bits as arrays,
    and calls this only for longer ones.
    """
    q = pos >> 3
    x = _from_bytes(buf[q:q + DELTA_WINDOW], "little") >> (pos & 7)
    low = x & -x                          # the code's first one
    z = low.bit_length()                  # zeros before it, plus one
    length = low | (x >> z) & (low - 1)
    end = pos + 2 * z - 2 + length
    if end > 8 * (q + DELTA_WINDOW) or end > 8 * len(buf) or not x:
        return _delta_read_long(buf, pos, x, z)
    top = 1 << (length - 1)
    return top | (x >> (2 * z - 1)) & (top - 1), end


def _delta_read_long(buf, pos, x, z):
    """delta_read for a code that does not fit its window or runs past the
    end of buf; x and z are what delta_read took from the window."""
    if not x:
        # no one in the window: past the end, or a value of 2**57+ bits
        raise ValueError(f"no delta code at bit {pos}")
    if 2 * z - 1 > 8 * DELTA_WINDOW - (pos & 7):
        x = _bits(buf, pos, 2 * z - 1)
    length = 1 << (z - 1) | (x >> z) & ((1 << (z - 1)) - 1)
    n = 2 * z - 2 + length
    # the bits first: a length that the bytes cannot back raises here,
    # before anything of that length is allocated
    bits = _bits(buf, pos, n)
    top = 1 << (length - 1)
    return top | (bits >> (2 * z - 1)) & (top - 1), pos + n


def _bits(buf, pos, count):
    """Bits pos .. pos + count - 1 of buf as the low bits of an int."""
    if pos + count > 8 * len(buf):
        raise ValueError(f"delta code at bit {pos} runs past the end")
    return int.from_bytes(buf[pos >> 3:(pos + count + 7) >> 3],
                          "little") >> (pos & 7)


class BlockedDeltaSeq:
    """Strictly increasing non-negative integers, held decoded in an
    array whose items fit a text of length n. No index holds one: the Psi
    runs keep their heads in one flat table (rcsa.PsiRuns.img)."""

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
