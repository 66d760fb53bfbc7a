"""Text ingestion and the suffix-array bundle every index is built from.

Symbols are remapped to a compact alphabet [1..sigma] preserving byte
order, with symbol 1 reserved for the terminator (appended if missing).
The bundle's sa, isa, bwt and psi are 0-indexed int64 numpy arrays holding
1-based values: sa[i-1] = SA[i] is the start of the i-th smallest suffix.
BWT[i] = T[SA[i]-1] with T[0] wrapping to the terminator, and
Psi(i) = ISA[(SA[i] mod n) + 1]. The suffix array comes from prefix
doubling that re-sorts only the groups of suffixes not yet told apart.
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
    lookup table, then the terminator."""
    if fasta:
        data = flatten_fasta(data)
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size and raw[-1] == TERMINATOR:
        raw = raw[:-1]
    if not raw.size:
        raise ValueError("empty input")
    present = np.flatnonzero(np.bincount(raw, minlength=256))
    if present[0] == TERMINATOR:
        raise ValueError("terminator byte 0x00 inside the text")
    code = np.zeros(256, dtype=np.int64)
    code[present] = np.arange(2, present.size + 2)
    symbols = np.empty(raw.size + 1, dtype=np.int64)
    np.take(code, raw, out=symbols[:-1])
    symbols[-1] = 1
    return Text(symbols, [TERMINATOR] + present.tolist())


def _suffix_array(symbols):
    """Suffix array by prefix doubling that re-sorts only unfinished groups
    (Larsson and Sadakane, Faster suffix sorting, TCS 2007); returns the
    0-based suffix starts as an int64 array.

    symbols must end with a unique smallest symbol, the terminator, so a
    suffix whose sorted prefix reaches it is alone in its group. Ranks
    start from the first K symbols packed into one int64 (zero-padded past
    the end); each round doubles the sorted prefix length h by sorting the
    members of unfinished groups on (group head, rank of the suffix h
    further on). A group head is the group's first slot in the order, so a
    rank is final once its group is a singleton.
    """
    a = np.asarray(symbols, dtype=np.int64)
    n = a.size
    bits = int(a.max()).bit_length()
    h = 62 // bits
    key = np.zeros(n, dtype=np.int64)
    for j in range(min(h, n)):
        key[:n - j] |= a[j:] << (bits * (h - 1 - j))
    order = np.argsort(key, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    todo = _regroup(np.arange(n), key[order], order, rank)
    while todo.size:
        idx = order[todo]
        # an unfinished suffix does not reach the terminator: idx + h < n
        key = rank[idx] * (n + 1) + rank[idx + h] + 1
        perm = np.argsort(key, kind="stable")
        idx = idx[perm]
        order[todo] = idx
        todo = _regroup(todo, key[perm], idx, rank)
        h *= 2
    return order


def _regroup(slots, keys, idx, rank):
    """Split the sorted members of unfinished groups, which sit at slots
    of the order, by their sorted keys: each suffix idx gets its new
    group's head as rank. Returns the slots still in groups of two or
    more."""
    m = slots.size
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=m)
    rank[idx] = np.repeat(slots[starts], sizes)
    return slots[np.repeat(sizes > 1, sizes)]


class SuffixBundle:
    """sa/isa/bwt/psi as 0-indexed int64 numpy arrays holding 1-based
    values. The builders cut their run tables from these arrays and keep
    only r-sized results, as Python ints."""

    def __init__(self, text, sa, isa, bwt, psi):
        self.text = text
        self.n = text.n
        self.sa = sa
        self.isa = isa
        self.bwt = bwt
        self.psi = psi


def build_bundle(text):
    n = text.n
    symbols = text.symbols
    sa = _suffix_array(symbols)
    isa = np.empty(n, dtype=np.int64)
    isa[sa] = np.arange(1, n + 1, dtype=np.int64)
    # sa - 1 is -1 for the suffix at 0: it wraps to the terminator
    bwt = symbols[sa - 1]
    psi = isa[(sa + 1) % n]
    sa += 1
    return SuffixBundle(text, sa, isa, bwt, psi)


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
