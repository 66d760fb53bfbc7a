"""Text ingestion and the suffix-array bundle every index is built from.

Symbols are remapped to a compact alphabet [1..sigma] preserving byte
order, with symbol 1 reserved for the terminator (appended if missing).
Suffix arrays are 1-based: sa[i-1] = SA[i] is the start of the i-th
smallest suffix. BWT[i] = T[SA[i]-1] with T[0] wrapping to the terminator,
and Psi(i) = ISA[(SA[i] mod n) + 1].
"""

import numpy as np

TERMINATOR = 0  # byte value reserved for the end marker


class Text:
    def __init__(self, symbols, alphabet):
        self.symbols = symbols            # list[int], values in [1..sigma]
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
    """bytes -> Text. Rejects empty input and interior terminator bytes."""
    if fasta:
        data = flatten_fasta(data)
    if not data:
        raise ValueError("empty input")
    body = data[:-1] if data[-1] == TERMINATOR else data
    if TERMINATOR in body:
        raise ValueError("terminator byte 0x00 inside the text")
    if not body:
        raise ValueError("empty input")
    alphabet = [TERMINATOR] + sorted(set(body))
    remap = {b: i + 1 for i, b in enumerate(alphabet)}
    symbols = [remap[b] for b in body]
    symbols.append(1)
    return Text(symbols, alphabet)


def _suffix_array(symbols):
    """Prefix-doubling suffix array; returns 0-based suffix starts."""
    a = np.asarray(symbols, dtype=np.int64)
    n = a.size
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    rank = a
    k = 1
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r_ord = rank[order]
        k_ord = key2[order]
        changed = (r_ord[1:] != r_ord[:-1]) | (k_ord[1:] != k_ord[:-1])
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = np.concatenate(([0], np.cumsum(changed)))
        rank = new_rank
        if rank[order[-1]] == n - 1:
            return order
        k <<= 1


class SuffixBundle:
    """sa/isa/bwt/psi as 0-indexed lists holding 1-based values."""

    def __init__(self, text, sa, isa, bwt, psi):
        self.text = text
        self.n = text.n
        self.sa = sa
        self.isa = isa
        self.bwt = bwt
        self.psi = psi


def build_bundle(text):
    n = text.n
    sa0 = _suffix_array(text.symbols)
    isa0 = np.empty(n, dtype=np.int64)
    isa0[sa0] = np.arange(n, dtype=np.int64)
    sym = np.asarray(text.symbols, dtype=np.int64)
    bwt = sym[(sa0 - 1) % n]
    psi = isa0[(sa0 + 1) % n] + 1
    return SuffixBundle(
        text,
        (sa0 + 1).tolist(),
        (isa0 + 1).tolist(),
        bwt.tolist(),
        psi.tolist(),
    )


def oracle_search(text, pattern):
    """Naive scan. pattern is bytes; returns (occ, sorted 1-based starts)."""
    syms = text.map_pattern(pattern)
    if syms is None:
        return 0, []
    # symbols fit in a byte after the -1 shift (sigma <= 256)
    hay = bytes(v - 1 for v in text.symbols[:-1])
    needle = bytes(v - 1 for v in syms)
    out = []
    start = hay.find(needle)
    while start != -1:
        out.append(start + 1)
        start = hay.find(needle, start + 1)
    return len(out), out
