"""Succinct building blocks: bitvectors with rank/select, a sparse
bitvector (Elias-Fano coded on disk), per-symbol rank/select over short
sequences, and blocked delta-coded increasing integer sequences.

Positions are 1-based throughout: rank1(i) counts ones among positions
1..i, select1(j) returns the position of the j-th one.
"""

from bisect import bisect_left, bisect_right

WORD = 64


class DenseBitvector:
    """Plain bitvector: 64-bit words plus a per-word cumulative popcount."""

    def __init__(self, bits):
        # bits: iterable of 0/1
        self.n = 0
        self.words = []
        w = 0
        for b in bits:
            if b:
                w |= 1 << (self.n % WORD)
            self.n += 1
            if self.n % WORD == 0:
                self.words.append(w)
                w = 0
        if self.n % WORD:
            self.words.append(w)
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

    def select1(self, j):
        """1-based position of the j-th one, 1 <= j <= ones."""
        if not 1 <= j <= self.ones:
            raise IndexError("select1 out of range")
        q = bisect_left(self.cum, j) - 1
        w = self.words[q]
        k = j - self.cum[q]
        pos = q * WORD
        while True:
            if w & 1:
                k -= 1
                if k == 0:
                    return pos + 1
            w >>= 1
            pos += 1

    def __len__(self):
        return self.n


class SparseBitvector:
    """Bitvector for few ones over a large universe, held as the sorted
    positions of its ones; rank and select bisect them. On disk it is
    Elias-Fano coded (the SPARSE codec in envelope.py)."""

    def __init__(self, positions, length):
        # positions: sorted distinct 1-based positions of set bits
        self.n = length
        self.positions = list(positions)
        self.ones = len(self.positions)

    def get(self, i):
        k = bisect_left(self.positions, i)
        return 1 if k < self.ones and self.positions[k] == i else 0

    def rank1(self, i):
        return bisect_right(self.positions, i)

    def rank0(self, i):
        if i <= 0:
            return 0
        return min(i, self.n) - self.rank1(i)

    def select1(self, j):
        if not 1 <= j <= self.ones:
            raise IndexError("select1 out of range")
        return self.positions[j - 1]

    def predecessor1(self, i):
        k = self.rank1(i)
        return self.positions[k - 1] if k else None

    def successor1(self, i):
        k = self.rank1(i - 1)
        return self.positions[k] if k < self.ones else None

    def __len__(self):
        return self.n


class SymbolSequence:
    """rank/select over a short sequence of small integer symbols, kept as
    per-symbol sorted position lists."""

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


def delta_read(stream, pos):
    """Decode one Elias-delta code at bit offset pos. Returns (value, pos)."""
    z = 0
    while not (stream >> pos) & 1:
        z += 1
        pos += 1
    pos += 1
    length = 1 << z
    if z:
        length |= (stream >> pos) & ((1 << z) - 1)
        pos += z
    value = 1 << (length - 1)
    if length > 1:
        value |= (stream >> pos) & ((1 << (length - 1)) - 1)
        pos += length - 1
    return value, pos


class BlockedDeltaSeq:
    """Strictly increasing non-negative integers, gap-coded with Elias-delta.

    Every block_size-th value is kept verbatim as a block anchor; the rest
    are coded as gaps to their left neighbor. Access decodes at most
    block_size - 1 codes after a binary search on the anchors.
    """

    def __init__(self, values, block_size=64):
        self.m = len(values)
        self.B = max(1, block_size)
        self.samples = []
        self.offsets = []
        stream, nbits = 0, 0
        prev = 0
        for i, v in enumerate(values):
            if i % self.B == 0:
                self.samples.append(v)
                self.offsets.append(nbits)
            else:
                stream, nbits = delta_append(stream, nbits, v - prev)
            prev = v
        self.stream = stream
        self.nbits = nbits

    @classmethod
    def from_parts(cls, m, block_size, samples, stream, nbits):
        """Rebuild from serialized parts; block offsets recovered by a scan."""
        seq = cls.__new__(cls)
        seq.m = m
        seq.B = block_size
        seq.samples = list(samples)
        seq.stream = stream
        seq.nbits = nbits
        seq.offsets = []
        pos = 0
        for k in range(len(seq.samples)):
            seq.offsets.append(pos)
            in_block = min(seq.B, m - k * seq.B) - 1
            for _ in range(in_block):
                _, pos = delta_read(stream, pos)
        return seq

    def __len__(self):
        return self.m

    def access(self, i):
        """Value at 1-based index i."""
        if not 1 <= i <= self.m:
            raise IndexError("access out of range")
        k, off = divmod(i - 1, self.B)
        v = self.samples[k]
        pos = self.offsets[k]
        for _ in range(off):
            g, pos = delta_read(self.stream, pos)
            v += g
        return v

    def pred(self, x):
        """Largest value <= x with its 1-based index, or None."""
        k = bisect_right(self.samples, x) - 1
        if k < 0:
            return None
        v = self.samples[k]
        idx = k * self.B + 1
        pos = self.offsets[k]
        in_block = min(self.B, self.m - k * self.B) - 1
        for _ in range(in_block):
            g, pos = delta_read(self.stream, pos)
            if v + g > x:
                break
            v += g
            idx += 1
        return v, idx

    def to_list(self):
        out = []
        pos = 0
        v = 0
        for i in range(self.m):
            if i % self.B == 0:
                v = self.samples[i // self.B]
            else:
                g, pos = delta_read(self.stream, pos)
                v += g
            out.append(v)
        return out
