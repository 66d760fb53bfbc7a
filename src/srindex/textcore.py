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
(index_dtype); only the text's symbols and the suffix sort's packed keys
are int64, and the bwt holds one or two bytes a symbol.
"""

import numpy as np

TERMINATOR = 0  # byte value reserved for the end marker


class Text:
    def __init__(self, symbols, alphabet):
        self.symbols = symbols            # int64 array, values in [1..sigma]
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
    The symbols are one int64 array: the bytes mapped through a 256-entry
    lookup table, then the terminator. Neither step makes an n-sized
    temporary wider than a byte: np.add.at and the table lookup cast the
    bytes to indices a buffer at a time (np.bincount and np.take would
    cast them all, 8 bytes a symbol), and the table holds symbol - 1,
    which fits a byte."""
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
    code = np.zeros(256, dtype=np.uint8)
    code[present] = np.arange(1, present.size + 1)
    symbols = np.empty(raw.size + 1, dtype=np.int64)
    np.add(code[raw], 1, out=symbols[:-1], dtype=np.int64)
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

    Only the packed sort keys are int64; the order, the ranks, the
    unfinished slots and their heads are index_dtype(n). The first sort
    need not be stable: its keys tie only where the suffixes' groups
    tie, and later rounds order each group's members by their own keys.
    """
    a = np.asarray(symbols, dtype=np.int64)
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
    key = key[order]
    rank = np.empty(n, dtype=dt)
    todo, heads = _regroup(np.arange(n, dtype=dt), key, order, rank)
    del key
    while todo.size:
        idx = order[todo]
        # an unfinished suffix does not reach the terminator: idx + h < n
        key = np.multiply(heads, n + 1, dtype=np.int64)
        del heads
        key += rank[idx + h]
        perm = np.argsort(key, kind="stable")
        idx = idx[perm]
        key = key[perm]
        del perm
        order[todo] = idx
        todo, heads = _regroup(todo, key, idx, rank)
        del key, idx
        h *= 2
    return order


def _regroup(slots, keys, idx, rank):
    """Split the sorted members of unfinished groups, which sit at slots
    of the order (increasing), by their sorted keys: each suffix idx gets
    its new group's head as rank. Returns the slots still in groups of two
    or more, and their heads."""
    m = slots.size
    new = np.empty(m + 1, dtype=bool)
    new[0] = new[m] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:m])
    # slots increase, so a slot's head is the largest new-group slot so far
    heads = np.where(new[:m], slots, 0)
    np.maximum.accumulate(heads, out=heads)
    rank[idx] = heads
    # a singleton starts a group and the next slot starts another
    keep = ~(new[:m] & new[1:])
    return slots[keep], heads[keep]


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
    n = text.n
    symbols = text.symbols
    sa = _suffix_array(symbols)
    # prev[k] = T[k - 1] cyclically (0-based k), so the bwt is prev[sa]
    prev = np.empty(n, dtype=np.min_scalar_type(text.sigma))
    prev[0] = symbols[-1]
    prev[1:] = symbols[:-1]
    bwt = prev[sa]
    del prev
    sa += 1
    return SuffixBundle(text, sa, bwt)


def oracle_search(text, pattern):
    """Naive scan. pattern is bytes; returns (occ, sorted 1-based starts)."""
    syms = text.map_pattern(pattern)
    if syms is None:
        return 0, []
    # symbols fit in a byte after the -1 shift (sigma <= 256)
    hay = (text.symbols[:-1] - 1).astype(np.uint8).tobytes()
    needle = bytes(v - 1 for v in syms)
    out = []
    start = hay.find(needle)
    while start != -1:
        out.append(start + 1)
        start = hay.find(needle, start + 1)
    return len(out), out
