"""Text ingestion and the suffix-array bundle every index is built from.

Symbols are remapped to a compact alphabet [1..sigma] preserving byte
order, with symbol 1 reserved for the terminator (appended if missing).
The bundle keeps sa and bwt, 0-indexed numpy arrays holding 1-based
values: sa[i-1] = SA[i] is the start of the i-th smallest suffix, and
BWT[i] = T[SA[i]-1] with T[0] wrapping to the terminator. ISA and
Psi(i) = ISA[(SA[i] mod n) + 1] are computed when read; no builder reads
them. The suffix array comes from prefix doubling that re-sorts only the
groups of suffixes not yet told apart.

The write path holds its n-sized arrays in the narrowest index type,
int32 while every value it computes (up to n + 1) fits, else int64
(index_dtype). The text's symbols and the bwt hold one byte a symbol, or
two at sigma = 256; only the suffix sort's first sort holds n-sized int64
arrays.
"""

import numpy as np

TERMINATOR = 0  # byte value reserved for the end marker


class Text:
    def __init__(self, symbols, alphabet):
        # values in [1..sigma], in the narrowest unsigned type holding sigma
        self.symbols = symbols
        self.n = len(symbols)
        self.alphabet = alphabet          # alphabet[sym-1] = original byte
        self.sigma = len(alphabet)
        self.codes = symbol_codes(alphabet)  # byte -> symbol

    def map_pattern(self, pattern):
        return pattern_symbols(self.codes, pattern)


def symbol_codes(alphabet):
    """byte -> symbol for each byte a pattern may hold: the whole alphabet
    but its first entry, the terminator."""
    return {b: c for c, b in enumerate(alphabet[1:], 2)}


def pattern_symbols(codes, pattern):
    """bytes -> symbol list, or None if the pattern is empty or holds a
    byte outside codes; either way it cannot occur in the text."""
    syms = [codes.get(b) for b in pattern]
    return syms if syms and None not in syms else None


def flatten_fasta(data):
    """Strip FASTA headers and newlines, concatenating all records."""
    out = bytearray()
    for line in data.split(b"\n"):
        if line.startswith(b">") or line.startswith(b";"):
            continue
        out.extend(line.strip())
    return bytes(out)


def ingest(data, fasta=False):
    """bytes -> Text. Rejects empty input and interior terminator bytes.
    The symbols are one array of the narrowest unsigned type that holds
    sigma (uint8, or uint16 at sigma = 256): the bytes mapped through a
    256-entry lookup table, then the terminator. Neither step makes an
    n-sized temporary wider than a symbol: np.add.at and the table lookup
    cast the bytes to indices a buffer at a time (np.bincount and np.take
    would cast them all, 8 bytes a symbol)."""
    if fasta:
        data = flatten_fasta(data)
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size and raw[-1] == TERMINATOR:
        raw = raw[:-1]
    if not raw.size:
        raise ValueError("empty input")
    counts = np.zeros(256, dtype=np.int64)
    np.add.at(counts, raw, 1)
    present = np.flatnonzero(counts)
    if present[0] == TERMINATOR:
        raise ValueError("terminator byte 0x00 inside the text")
    code = np.zeros(256, dtype=np.min_scalar_type(present.size + 1))
    code[present] = np.arange(2, present.size + 2)
    symbols = np.empty(raw.size + 1, dtype=code.dtype)
    symbols[:-1] = code[raw]
    symbols[-1] = 1
    return Text(symbols, [TERMINATOR] + present.tolist())


# the largest value an int32 index array may hold; the write path holds
# its n-sized arrays in int32 while every value it computes, up to n + 1,
# stays within it
INT32_MAX = 2**31 - 1


def index_dtype(n):
    """The integer type of the write path's n-sized arrays for a text of
    n symbols: int32 when n + 1 fits INT32_MAX, else int64."""
    return np.int32 if n + 1 <= INT32_MAX else np.int64


# the fewest unfinished slots one piece of a doubling round sorts at once
CHUNK = 2**16


def _suffix_array(symbols):
    """Suffix array by prefix doubling that re-sorts only unfinished groups
    (Larsson and Sadakane, Faster suffix sorting, TCS 2007); returns the
    0-based suffix starts as an array of index_dtype(n).

    symbols must end with a unique smallest symbol, the terminator, so a
    suffix whose sorted prefix reaches it is alone in its group. Ranks
    start from the first K symbols packed into one int64 (zero-padded past
    the end); each round doubles the sorted prefix length h by sorting the
    members of unfinished groups on (group head, rank of the suffix h
    further on). A group head is the group's first slot in the order, so a
    rank is final once its group is a singleton.

    Only the first sort holds n-sized int64 arrays: the packed keys and
    argsort's permutation. It need not be stable: its keys tie only where
    the suffixes' groups tie, and later rounds order each group's members
    by their own keys. The first grouping and every round then run in
    pieces, each a run of whole groups of at least CHUNK slots, with their
    own keys, sort and regroup. A group larger than CHUNK is one piece, so
    on a text of one repeated symbol, whose groups hold nearly every slot,
    a round peaks as an unpieced one would. A piece may read ranks that
    earlier pieces of the same round refined. That is sound: a refined
    rank is a head within the old group, so it orders suffixes as the old
    rank did and only splits its ties, by a longer sorted prefix.
    """
    a = np.asarray(symbols)
    n = a.size
    dt = index_dtype(n)
    bits = int(a.max()).bit_length()
    h = 62 // bits
    # Horner: shift the key one symbol left, then OR in the next symbol
    key = np.zeros(n, dtype=np.int64)
    for j in range(h):
        key <<= bits
        if j < n:
            key[:n - j] |= a[j:]
    order = np.argsort(key).astype(dt)
    key.sort()
    new = _group_starts(key)
    del key
    rank = np.empty(n, dtype=dt)
    # the unfinished slots and their heads, compacted into the front
    todo = np.empty(n, dtype=dt)
    heads = np.empty(n, dtype=dt)
    m = lo = 0
    while lo < n:
        hi = min(lo + CHUNK, n)
        hi += int(new[hi:].argmax())
        m = _regroup(np.arange(lo, hi, dtype=dt), new[lo:hi + 1],
                     order[lo:hi], rank, todo, heads, m)
        lo = hi
    del new
    while m:
        kept = lo = 0
        while lo < m:
            last = heads[min(lo + CHUNK, m) - 1]
            hi = lo + int(np.searchsorted(heads[lo:m], last, "right"))
            slots = todo[lo:hi]
            idx = order[slots]
            # an unfinished suffix does not reach the terminator: idx + h < n
            later = rank[idx + h]
            key = np.multiply(heads[lo:hi], n + 1, dtype=np.int64)
            key += later
            perm = np.argsort(key, kind="stable")
            del key
            idx = idx[perm]
            # the sort moves suffixes only within their groups
            new = _group_starts(heads[lo:hi], later[perm])
            del perm, later
            order[slots] = idx
            kept = _regroup(slots, new, idx, rank, todo, heads, kept)
            lo = hi
        m = kept
        h *= 2
    return order


def _group_starts(*keys):
    """Sorted key columns -> m + 1 flags: where a run of equal key tuples
    starts, and a last one past the end."""
    m = keys[0].size
    new = np.zeros(m + 1, dtype=bool)
    new[0] = new[m] = True
    for k in keys:
        new[1:m] |= k[1:] != k[:-1]
    return new


def _regroup(slots, new, idx, rank, todo, heads, kept):
    """Split whole unfinished groups, whose sorted members sit at slots of
    the order (increasing), where new flags a group start: each suffix idx
    gets its new group's head as rank. The slots still in groups of two or
    more, and their heads, go to todo and heads from position kept on;
    returns the position after them. slots may be a view of todo: the
    kept slots are copied out before they are written."""
    m = slots.size
    # slots increase, so a slot's head is the largest new-group slot so far
    hd = np.where(new[:m], slots, 0)
    np.maximum.accumulate(hd, out=hd)
    rank[idx] = hd
    # a singleton starts a group and the next slot starts another
    keep = ~(new[:m] & new[1:])
    stay = slots[keep]
    end = kept + stay.size
    todo[kept:end] = stay
    heads[kept:end] = hd[keep]
    return end


class SuffixBundle:
    """sa/bwt as 0-indexed numpy arrays holding 1-based values: sa of
    index_dtype(n), bwt of the narrowest unsigned type that holds sigma.
    isa and psi are computed from sa when read, in its type; the builders
    do not read them. The builders cut their run tables from these arrays
    and keep only r-sized results."""

    def __init__(self, text, sa, bwt):
        self.text = text
        self.n = text.n
        self.sa = sa
        self.bwt = bwt

    @property
    def isa(self):
        """ISA as a 0-indexed array of 1-based values: isa[SA[i] - 1] = i."""
        isa = np.empty(self.n, dtype=self.sa.dtype)
        isa[self.sa - 1] = np.arange(1, self.n + 1, dtype=self.sa.dtype)
        return isa

    @property
    def psi(self):
        """Psi as a 0-indexed array of 1-based values: psi[i - 1] =
        ISA[(SA[i] mod n) + 1]."""
        return self.isa[self.sa % self.n]


def build_bundle(text):
    sa = _suffix_array(text.symbols)
    # the bwt is T[k - 1] cyclically (0-based k) at each k = sa
    bwt = np.roll(text.symbols, 1)[sa]
    sa += 1
    return SuffixBundle(text, sa, bwt)


def oracle_search(text, pattern):
    """Naive scan. pattern is bytes; returns (occ, sorted 1-based starts)."""
    syms = text.map_pattern(pattern)
    if syms is None:
        return 0, []
    # symbols fit in a byte after the -1 shift (sigma <= 256)
    hay = (text.symbols[:-1] - 1).astype(np.uint8, copy=False).tobytes()
    needle = bytes(v - 1 for v in syms)
    out = []
    start = hay.find(needle)
    while start != -1:
        out.append(start + 1)
        start = hay.find(needle, start + 1)
    return len(out), out
