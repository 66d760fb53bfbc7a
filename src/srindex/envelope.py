"""On-disk index format.

Layout: a fixed header (magic, format version, kind, variant, n, sigma, r,
s, B), a section table (name, offset, length), the section payloads, and a
trailing crc32 over everything before it. All integers little-endian.

One table, FORMAT, says what every kind stores: its classes, the header
fields their constructors take, and (section, attribute, codec) rows, with
the run-length BWT and Psi-run groups shared. serialize and deserialize
only walk it. Sparse bitvectors are Elias-Fano coded here, and the Psi-run
heads and tails blocked Elias-delta coded, and only here. Rank
directories and derived tables are rebuilt on load: the locating kinds
turn mark_map (first_to_run), valid and valid_area into their per-gap
phi tables and `removed` into their per-run sample slots, and keep no
copy of them; the run-length BWT turns `start` and `letters` into its
per-run starts and LF images, in run order and in symbol order; the Psi
runs lay the per-symbol heads end to end and drop their tails. Those
sections are derived again on write, as attributes of the same names
(mark_map, first_to_run and i_psi as numpy arrays, under the name plus
"_array"). A sparse bitvector decodes straight to the narrow array its
positions are held in, and is written from a numpy view of it.

The codecs are array work, in both directions. Packed ints (INTS, the
Elias-Fano low parts, the delta anchors) are one gather of 64-bit words
with a shift and a mask per value, and one OR-reduce per word on write;
an Elias-Fano high part is unpacked to bits and its ones found with
flatnonzero; a dense bitvector is its words read in one go. An
Elias-delta stream (DELTAS) is written as two bit fields per code, placed
like packed ints of varying width; it is read by one table lookup at
every bit, which gives where a code starting there would end, one walk
along those ends (the only step per code, a list index), and one gather
of the gaps, summed per block from its anchor. INTS and DELTAS decode to
uint64 arrays, which CHECKS compares as a whole. Every packed int fits 64
bits and every delta code takes at most 64: the header's n lies below
2**54, so every gap does too. The codecs reject anything wider, in both
directions.

The load path checks the checksum, that the header fits the kind, that
the sections are exactly the ones the table names for the kind and
variant and tile the body, that each codec reads its whole section and
finds the bytes its encoder would write, the invariants in CHECKS, and
the ones the constructors check (a Psi run's tail against its head and
length). So an index has exactly one envelope.
"""

import struct
import time
import zlib
from functools import partial
from itertools import accumulate

import numpy as np

from .rcsa import PsiRuns, RCsa
from .rindex import RIndex
from .rlbwt import RunLengthBWT
from .srcsa import SrCsa
from .srindex import SrIndex
from . import succinct
from .succinct import WORD, DenseBitvector, SparseBitvector, view

WORDS = np.dtype("<u8")  # the payload words of packed ints and bitvectors

MAGIC = b"SRIX"
FORMAT_VERSION = 1
# the first gap whose Elias-delta code is longer than 64 bits; the header's
# n lies below it, so every gap of a text position does too
GAP_LIMIT = 1 << 54


class FormatError(ValueError):
    pass


def _uint64(values):
    """values, ints or a numpy array, as a uint64 array. Raises ValueError
    for an int that does not fit 64 bits."""
    try:
        return np.asarray(values, dtype=np.uint64)
    except OverflowError:
        raise ValueError("values do not fit 64 bits") from None


def pack_ints(values):
    """Fixed-width bit packing; returns bytes (width, count, payload).
    values is any sequence of ints within 0..2**64 - 1, or a numpy array.
    Raises ValueError for a value past 64 bits."""
    vals = _uint64(values)
    count = len(vals)
    width = max(int(vals.max()).bit_length(), 1) if count else 1
    # value i is bits [i * width, (i + 1) * width) of the payload
    return (struct.pack("<BQ", width, count)
            + _or_bits(vals, _offsets(count, width), width, width * count))


def _offsets(count, width):
    """The bit offsets of values 0..count-1 of width bits packed end to
    end, as a uint64 array."""
    return np.arange(count, dtype=np.uint64) * np.uint64(width)


def _or_bits(vals, at, width, nbits):
    """nbits bits, LSB first, as bytes: value vals[i] (a uint64 array)
    of width[i] <= 64 bits at bit at[i], the offsets increasing. Each
    value ORs into the word it starts in, and spills into the next one
    when it crosses that word's end."""
    q = (at >> np.uint64(6)).astype(np.intp)
    sh = at & np.uint64(63)
    words = np.zeros(nbits // 64 + 2, dtype=WORDS)
    if len(vals):
        first = np.flatnonzero(np.diff(q, prepend=-1))  # first one per word
        words[q[first]] = np.bitwise_or.reduceat(vals << sh, first)
        cross = sh + width > 64                     # at most one per word
        words[q[cross] + 1] |= vals[cross] >> (64 - sh[cross])
    return words.view(np.uint8)[:(nbits + 7) // 8].tobytes()


def _words(blob, off, nbytes):
    """nbytes bytes of blob from off as 64-bit words, with two zero words
    after them, so a 64-bit window can be read at any of their bits."""
    words = np.zeros(nbytes // 8 + 2, dtype=WORDS)
    words.view(np.uint8)[:nbytes] = np.frombuffer(blob, np.uint8, nbytes, off)
    return words


def _windows(words, at):
    """The 64 bits of words from each bit offset in at (uint64), one
    gather: the word each starts in and the next."""
    q = (at >> np.uint64(6)).astype(np.intp)
    sh = at & np.uint64(63)
    return words[q] >> sh | words[q + 1] << (64 - sh)


def _ints_array(blob):
    """The INTS codec's decoder: pack_ints bytes that fill blob -> array."""
    values, end = _ints_at(blob, 0)
    if end != len(blob):
        raise ValueError("packed ints do not end at their section's end")
    return values


def _ints_at(blob, off):
    """pack_ints payload at offset off -> (values as a uint64 array,
    offset after it). Raises ValueError on a width outside 1..64, on a
    count the bytes cannot hold, and on bytes pack_ints would not write:
    stray bits past the last value, or a width wider than the largest
    value needs. The width and count are checked before anything of that
    count is allocated."""
    width, count = struct.unpack_from("<BQ", blob, off)
    if not 1 <= width <= 64:
        raise ValueError(f"packed ints of {width} bits, not 1 to 64")
    nbits = width * count
    nbytes = (nbits + 7) // 8
    end = off + 9 + nbytes
    if end > len(blob):
        raise ValueError(f"{count} packed ints of {width} bits run past "
                         "their section")
    if nbits % 8 and blob[end - 1] >> nbits % 8:
        raise ValueError("packed ints have stray bits past their last value")
    values = (_windows(_words(blob, off + 9, nbytes), _offsets(count, width))
              & np.uint64((1 << width) - 1))
    if width != max(int(values.max()).bit_length() if count else 0, 1):
        raise ValueError("packed ints are wider than their largest value")
    return values, end


def _dense_bytes(bv):
    return struct.pack("<Q", bv.n) + bv.words.tobytes()


def _dense_from(blob):
    (n,) = struct.unpack_from("<Q", blob, 0)
    words = np.frombuffer(blob, WORDS, (len(blob) - 8) // 8, 8)
    if (len(blob) != 8 + 8 * -(-n // WORD)
            or n % WORD and words[-1] >> np.uint64(n % WORD)):
        raise FormatError("dense bitvector length mismatch")
    return DenseBitvector.from_words(words, n)


def _sparse_bytes(bv):
    """Elias-Fano code (Okanohara and Sadakane, ALENEX 2007) of the sorted
    positions: n, ones, low_bits, the low low_bits bits of each position
    minus one as packed ints, then the rest of it in unary, as a dense
    bitvector where the k-th one (from 0) sits at bit high_k + k."""
    n, ones = bv.n, bv.ones
    low_bits, high_n = _ef_shape(n, ones)
    pos = view(bv.positions).astype(np.uint64) - np.uint64(1)
    high = np.zeros(WORD * -(-high_n // WORD), dtype=np.uint8)
    high[(pos >> np.uint64(low_bits)).astype(np.intp) + np.arange(ones)] = 1
    return (struct.pack("<QQB", n, ones, low_bits)
            + pack_ints(pos & np.uint64((1 << low_bits) - 1))
            + struct.pack("<Q", high_n)
            + np.packbits(high, bitorder="little").tobytes())


def _ef_shape(n, ones):
    """Elias-Fano (low_bits, high_n) of ones positions within 1..n: the
    bits kept per low part and the bit count of the high part."""
    low = succinct.low_bits(n, ones)
    return low, ones + ((n - 1) >> low if n else 0)


def _sparse_from(blob):
    """Decode _sparse_bytes: the k-th one of the high part, at bit i,
    gives position ((i - k) << low_bits | lows[k]) + 1."""
    n, ones, low_bits = struct.unpack_from("<QQB", blob, 0)
    lows, off = _ints_at(blob, 17)
    (high_n,) = struct.unpack_from("<Q", blob, off)
    high = np.frombuffer(blob, np.uint8, offset=off + 8)
    if ((low_bits, high_n) != _ef_shape(n, ones)
            or len(high) != 8 * -(-high_n // WORD)
            or len(lows) and int(lows.max()) >> low_bits):
        raise FormatError("sparse bitvector parts do not fit its length")
    at = np.flatnonzero(np.unpackbits(high, bitorder="little"))
    if len(lows) != ones or len(at) != ones:
        raise FormatError("sparse bitvector cardinality mismatch")
    # high parts never decrease, so the positions increase where the high
    # parts do, or else the low parts
    hi = (at - np.arange(ones)).astype(np.uint64)
    if ((hi[1:] == hi[:-1]) & (lows[1:] <= lows[:-1])).any():
        raise FormatError("sparse bitvector positions not increasing")
    # the last position bounds them all; checked in Python ints, as a one
    # past high_n gives a high part whose shift would not fit 64 bits
    if ones and int(hi[-1]) << low_bits | int(lows[-1]) >= n:
        raise FormatError("sparse bitvector position beyond its length")
    return SparseBitvector((hi << np.uint64(low_bits) | lows) + np.uint64(1),
                           n)


def _bit_length(a):
    """The bit length of each value of a uint64 array, exact for all of
    them: the bits below the top one are filled in, then counted."""
    a = a.copy()
    for sh in (1, 2, 4, 8, 16, 32):
        a |= a >> np.uint64(sh)
    return np.bitwise_count(a).astype(np.uint64)


def _delta_bytes(values, block):
    """One strictly increasing sequence: its length m, the block size B
    and the bit count of its stream, every B-th value verbatim as an
    anchor (packed ints), then the stream: the gap from each other value
    to its left neighbour as an Elias-delta code, the codes end to end.
    Raises ValueError for a value past 64 bits, or a gap of GAP_LIMIT or
    more, whose code would be longer than 64 bits."""
    vals = _uint64(values)
    one = np.uint64(1)
    row = max(min(block, len(vals)), 1)   # the values of a block in vals
    gaps = np.diff(vals)[np.arange(1, len(vals)) % row != 0]
    if len(gaps) and gaps.max() >= GAP_LIMIT:
        raise ValueError("delta gaps reach 2**54")
    L = _bit_length(gaps)
    LL = _bit_length(L)
    # each code as two fields of at most 64 bits: LL - 1 zeros, a one and
    # the low LL - 1 bits of L, then the low L - 1 bits of the gap (each
    # number without its top bit)
    low_L = L ^ (one << (LL - one))
    fields = np.stack((((low_L << one) | one) << (LL - one),
                       gaps ^ (one << (L - one))), axis=1).ravel()
    widths = np.stack((2 * LL - one, L - one), axis=1).ravel()
    nbits = int(widths.sum())
    return (struct.pack("<QQQ", len(vals), block, nbits)
            + pack_ints(vals[::row])
            + _or_bits(fields, np.cumsum(widths) - widths, widths, nbits))


def _delta_shape(x):
    """For 64-bit windows x of a delta stream, each read as the start of
    a code: z, the code's zeros plus one, and L, the bit length of its
    gap. The code then takes 2z - 2 + L bits."""
    one = np.uint64(1)
    z = np.bitwise_count(x ^ (x - one)).astype(np.uint64)
    top = one << (z - one)
    return z, top | (x >> z) & (top - one)


def _lead_widths():
    """A code of at most 64 bits has z <= 6, so its first LEAD bits hold
    its zeros, its one and L: this table maps them to its width, or to 0
    for a code that is longer or has no one there."""
    z, L = _delta_shape(np.arange(1 << LEAD, dtype=np.uint64))
    width = 2 * z - 2 + L
    return np.where(width <= 64, width, 0).astype(np.uint8)


LEAD = 11
LEAD_WIDTH = _lead_widths()


def _delta_from(blob, block):
    """Decode _delta_bytes to a uint64 array. Raises ValueError on parts
    that do not fit, on a block size other than block, on a code longer
    than 64 bits, or on values that are not strictly increasing.

    The width of a code of at most 64 bits follows from its first LEAD
    bits, so one table lookup at every bit of the stream gives the end of
    a code that would start there; one walk from bit 0 along those ends
    finds the codes, and their gaps are read from 64-bit windows in one
    go."""
    m, B, nbits = struct.unpack_from("<QQQ", blob, 0)
    if B != block:
        raise ValueError(f"delta block size {B} is not the header's {block}")
    anchors, off = _ints_at(blob, 24)
    nbytes = len(blob) - off
    if len(anchors) != -(-m // B):
        raise ValueError("delta anchors do not match length and block")
    if nbytes != (nbits + 7) // 8 or nbits % 8 and blob[-1] >> nbits % 8:
        raise ValueError("delta stream length does not match its bits")
    codes = m - len(anchors)
    if codes > nbits:
        # checked before anything of that count is allocated: a code
        # takes one bit at least
        raise ValueError(f"{codes} delta codes do not fit {nbits} bits")
    words = _words(blob, off, nbytes)
    # the width of a code at each bit p up to nbits, by its first LEAD
    # bits, which lie in the three bytes from p's
    u = words.view(np.uint8)[:nbytes + 3].astype(np.uint32)
    width = LEAD_WIDTH.take((u[:-2] | u[1:-1] << 8 | u[2:] << 16)[:, None]
                            >> np.arange(8, dtype=np.uint32)
                            & (1 << LEAD) - 1).ravel()[:nbits + 1]
    # the end of the code at each bit, and a sink, nbits + 1, that leads
    # to itself: a walk that meets a bit where no code of at most 64 bits
    # starts, or one that would end past nbits, cannot end at nbits
    sink = nbits + 1
    end = np.arange(sink + 1, dtype=np.int64)
    end[:-1] += width
    end[:-1][width == 0] = sink
    tail = end[-65:]            # the codes that can end past nbits
    tail[tail > nbits] = sink
    nxt = memoryview(end)
    starts = [0] * codes
    p = 0
    for k in range(codes):
        starts[k] = p
        p = nxt[p]
    if p != nbits:
        raise ValueError("delta codes of at most 64 bits do not end at the "
                         "stream's end")
    x = _windows(words, np.fromiter(starts, np.uint64, codes))
    z, L = _delta_shape(x)
    one = np.uint64(1)
    top = one << (L - one)
    # each block is its anchor plus the running sum of its gaps, one row
    # of row values per block
    row = max(min(B, m), 1)
    steps = np.zeros(len(anchors) * row, dtype=np.uint64)
    steps[::row] = anchors
    steps[:m][np.arange(m) % row != 0] = top | (x >> (2 * z - one)) & (
        top - one)
    values = np.cumsum(steps.reshape(-1, row), axis=1).ravel()[:m]
    # gaps are at least 1, so a value that does not rise is a block that
    # reaches the next anchor, or a uint64 sum that wrapped past 2**64
    if (values[1:] <= values[:-1]).any():
        raise ValueError("delta values do not increase within 64 bits")
    return values


def _deltas_bytes(seqs, head):
    """Per-symbol delta streams (dict c -> increasing values, c =
    1..sigma), in order, at the header's block size."""
    out = [struct.pack("<I", len(seqs))]
    for c in sorted(seqs):
        b = _delta_bytes(seqs[c], head["block"])
        out.append(struct.pack("<Q", len(b)))
        out.append(b)
    return b"".join(out)


def _deltas_from(blob, head):
    """Decode _deltas_bytes to dict c -> array of values."""
    (count,) = struct.unpack_from("<I", blob, 0)
    off = 4
    out = {}
    for c in range(1, count + 1):
        (ln,) = struct.unpack_from("<Q", blob, off)
        off += 8
        out[c] = _delta_from(blob[off:off + ln], head["block"])
        off += ln
    if off != len(blob):
        raise ValueError("delta streams do not end at their section's end")
    return out


def _plain(encode, decode):
    """A codec whose bytes do not depend on the header."""
    return (lambda value, head: encode(value), lambda blob, head: decode(blob))


# -- the format table -----------------------------------------------------

# codecs: (encode(value, header), decode(bytes, header))
INTS = _plain(pack_ints, _ints_array)
DENSE = _plain(_dense_bytes, _dense_from)
SPARSE = _plain(_sparse_bytes, _sparse_from)
U64 = _plain(lambda v: struct.pack("<Q", v),
             lambda b: struct.unpack("<Q", b)[0])
DELTAS = (_deltas_bytes, _deltas_from)

# A layer is (class, the argument name the next layer gets it under,
# header fields its constructor takes, rows); a row is (section, attribute
# and constructor argument, codec). The counting layers are shared. A
# class that derives a section's table as a numpy array gives it as the
# attribute plus "_array" (mark_map, first_to_run, i_psi), which the
# writer reads instead of the list-valued attribute.
RLBWT = (RunLengthBWT, "rl", ("n", "sigma"), [
    ("start", "start", SPARSE),
    ("letters", "letters", INTS),
])
PSI_RUNS = (PsiRuns, "runs", ("n", "sigma", "block"), [
    ("c_table", "C", INTS),
    ("i_psi", "i_psi", INTS),
    ("psi_heads", "heads", DELTAS),
    ("psi_tails", "tails", DELTAS),
])
SUBSAMPLED = [
    ("removed", "removed", DENSE),
    ("samples_sub", "samples_sub", INTS),
    ("mark_map", "mark_map", INTS),
    ("valid", "valid", DENSE),
    ("valid_area", "valid_area", INTS),
]
# sections stored only from this variant on; all others are always stored
SINCE_VARIANT = {"valid": 1, "valid_area": 2}

# kind -> its layers, innermost first; the header stores a kind as its
# position in this table
FORMAT = {
    "rlbwt": [RLBWT],
    "r-index": [RLBWT, (RIndex, None, (), [
        ("first", "first", SPARSE),
        ("first_to_run", "first_to_run", INTS),
        ("samples", "samples", INTS),
    ])],
    "sr-index": [RLBWT, (SrIndex, None, ("s", "variant"), [
        ("marks", "marks", SPARSE),
        ("sa_last", "sa_last", U64),
    ] + SUBSAMPLED)],
    "r-csa": [PSI_RUNS, (RCsa, None, (), [
        ("f_sa", "f_sa", INTS),
        ("marks_l", "marks_l", SPARSE),
        ("mark_map", "mark_map", INTS),
    ])],
    "sr-csa": [PSI_RUNS, (SrCsa, None, ("s", "variant"), [
        ("marks_l", "marks_l", SPARSE),
    ] + SUBSAMPLED)],
}
KINDS = list(FORMAT)
# the exact class -> its kind; RIndex is an SrIndex and RCsa an SrCsa, so
# an isinstance test would not tell them apart
KIND_OF = {layers[-1][0]: kind for kind, layers in FORMAT.items()}

# sections holding locating (as opposed to counting) structures
LOCATING_SECTIONS = {
    row[0] for layers in FORMAT.values() if len(layers) > 1
    for row in layers[-1][3]}


def _within(vals, lo, hi):
    """True when every value of the array vals lies in lo..hi."""
    return not len(vals) or lo <= vals.min() and vals.max() <= hi


def _maps_marks(table, marks, samples):
    """Check row: table has one entry per mark, each a 1-based index into
    samples."""
    return ((table, marks, samples), lambda v, h:
            len(v[table]) == v[marks].ones
            and _within(v[table], 1, len(v[samples])),
            f"{table} does not map {marks} into {samples}")


def _runs_per_symbol(v, h):
    """Check: per symbol, the head and tail streams hold one value per Psi
    run that starts in the symbol's block of C, and there are r runs."""
    C, starts = v["c_table"], v["i_psi"]
    want = np.diff(np.searchsorted(starts, C[1:], side="right")).tolist()
    return len(starts) == h["r"] == sum(want) and all(
        [len(seq) for seq in v[name].values()] == want
        for name in ("psi_heads", "psi_tails"))


def _spans_text(marks):
    """Check row: the sparse bitvector marks ranges over the header's n
    text positions, so no mark lies past the text."""
    return ((marks,), lambda v, h: v[marks].n == h["n"],
            f"{marks} does not match header")


def _sa_values(table, shift, *kind):
    """Check row: table holds SA values minus shift, each within the text;
    kind names a section that tells which index the table belongs to."""
    return ((table, *kind), lambda v, h: _within(v[table], 1 - shift,
                                                 h["n"] - shift),
            f"{table} holds positions outside the text")


def _distinct(table):
    """Check row: table's SA samples are distinct, as SA values are; the
    index finds a mark's sample slot again by its value on write."""
    def ok(v, h):
        vals = np.sort(v[table])
        return not (vals[1:] == vals[:-1]).any()
    return (table,), ok, f"{table} repeats a position"


def _areas_fit(marks):
    """Check row: each validity area lies inside its mark's gap, as the
    build's sweep measures them: 1 <= area < the distance to the next
    mark on the BWT side (marks), or from the previous one on the Psi
    side (marks_l), where the wrap gap across n is the first mark's."""
    def ok(v, h):
        area = v["valid_area"]
        if not len(area):
            return True
        pos = view(v[marks].positions).astype(np.int64)
        wrap = [pos[0] + h["n"] - pos[-1]]
        gaps = np.concatenate((wrap, np.diff(pos)) if marks == "marks_l"
                              else (np.diff(pos), wrap))
        return area.min() >= 1 and (
            area < gaps[v["valid"].bits() == 0].astype(np.uint64)).all()
    return ((marks, "valid", "valid_area"), ok,
            "validity areas reach past their gaps")


# Structural invariants the loader checks before building anything, each
# when all the sections it reads are present: (sections, test over the
# decoded sections v and the header h, message). A section's own range
# checks come before the rows that combine it with others.
CHECKS = [
    # the tables hold per-symbol entries, so sigma must be as small as the
    # alphabet section says, not a header field the bytes cannot back
    (("alphabet",), lambda v, h: len(v["alphabet"]) == h["sigma"],
     "alphabet does not match header"),
    # the terminator, then the text's bytes in increasing order: symbol c
    # is byte alphabet[c - 1], so any other order answers for other bytes
    (("alphabet",), lambda v, h: len(v["alphabet"]) and v["alphabet"][0] == 0
     and (v["alphabet"][1:] > v["alphabet"][:-1]).all()
     and v["alphabet"][-1] <= 255,
     "alphabet is not the terminator and increasing bytes"),
    (("start", "letters"), lambda v, h: v["start"].n == h["n"]
     and v["start"].ones == len(v["letters"]) == h["r"],
     "run table does not match header"),
    # a BWT holds the terminator once, so one run of it, one long, and its
    # runs are maximal: no two side by side share a letter
    (("start", "letters"), lambda v, h: np.diff(
        view(v["start"].positions).astype(np.int64), append=h["n"] + 1)[
        v["letters"] == 1].tolist() == [1]
     and not (v["letters"][1:] == v["letters"][:-1]).any(),
     "runs are not those of a BWT"),
    _spans_text("first"),
    _spans_text("marks"),
    _spans_text("marks_l"),
    (("letters",), lambda v, h: _within(v["letters"], 1, h["sigma"]),
     "letters exceed declared alphabet"),
    # C counts symbols, so it starts at 0, never falls and ends at n
    (("c_table",), lambda v, h: len(v["c_table"]) == h["sigma"] + 2
     and v["c_table"][0] == 0 and v["c_table"][-1] == h["n"]
     and (v["c_table"][1:] >= v["c_table"][:-1]).all(),
     "C table does not match header"),
    (("i_psi",), lambda v, h: len(v["i_psi"]) and v["i_psi"][0] == 1
     and (v["i_psi"][1:] > v["i_psi"][:-1]).all()
     and v["i_psi"][-1] <= h["n"],
     "i_psi is not increasing from 1 within the text"),
    # Psi runs never cross a block, so each block's first position starts one
    (("c_table", "i_psi"), lambda v, h: np.array_equal(v["i_psi"].take(
        np.searchsorted(v["i_psi"], v["c_table"][1:-1] + 1), mode="clip"),
        v["c_table"][1:-1] + 1),
     "a symbol's block does not start a Psi run"),
    (("c_table", "i_psi", "psi_heads", "psi_tails"), _runs_per_symbol,
     "psi run streams do not match run count"),
    # each delta stream is strictly increasing (its decoder checks it), so
    # its first and last values bound all of it
    (("psi_heads", "psi_tails"), lambda v, h: all(
        not len(vals) or vals[0] >= 1 and vals[-1] <= h["n"]
        for name in ("psi_heads", "psi_tails") for vals in v[name].values()),
     "psi run values outside the text"),
    (("samples", "first_to_run"), lambda v, h:
     len(v["samples"]) == len(v["first_to_run"]) == h["r"],
     "sample tables do not match run count"),
    (("f_sa",), lambda v, h: len(v["f_sa"]) == h["r"],
     "sample tables do not match run count"),
    (("removed", "samples_sub"), lambda v, h: v["removed"].n == h["r"]
     and len(v["samples_sub"]) == h["r"] - v["removed"].ones,
     "subsample tables do not match run count"),
    _sa_values("samples", 1),
    _sa_values("f_sa", 0),
    _sa_values("samples_sub", 1, "marks"),
    _sa_values("samples_sub", 0, "marks_l"),
    _distinct("samples"),
    _distinct("f_sa"),
    _distinct("samples_sub"),
    (("sa_last",), lambda v, h: 1 <= v["sa_last"] <= h["n"],
     "sa_last holds a position outside the text"),
    _maps_marks("first_to_run", "first", "samples"),
    _maps_marks("mark_map", "marks", "samples_sub"),
    _maps_marks("mark_map", "marks_l", "samples_sub"),
    _maps_marks("mark_map", "marks_l", "f_sa"),
    (("valid", "marks"), lambda v, h: v["valid"].n == v["marks"].ones,
     "validity bits do not match marks"),
    (("valid", "marks_l"), lambda v, h: v["valid"].n == v["marks_l"].ones,
     "validity bits do not match marks"),
    (("valid", "valid_area"), lambda v, h:
     len(v["valid_area"]) == v["valid"].n - v["valid"].ones,
     "validity areas do not match invalid marks"),
    _areas_fit("marks"),
    _areas_fit("marks_l"),
]


def _kind_of(ix):
    if type(ix) not in KIND_OF:
        raise TypeError(f"not an index: {type(ix)!r}")
    return KIND_OF[type(ix)]


def _rows(kind, variant):
    """Sections stored for a kind and variant: [(name, attribute, codec)],
    one list per layer."""
    return [[row for row in layer[3]
             if variant >= SINCE_VARIANT.get(row[0], 0)]
            for layer in FORMAT[kind]]


# -- envelope -------------------------------------------------------------


def serialize(ix, alphabet, times=None):
    """Index object + alphabet list -> envelope bytes. A dict passed as
    times gets the seconds each section took to encode, by name, the
    derivation of a derived section included."""
    kind = _kind_of(ix)
    layers = FORMAT[kind]
    objs = [getattr(ix, layer[1]) for layer in layers[:-1]] + [ix]
    head = {"s": 0, "block": 0, "variant": 0}
    for obj, layer in zip(objs, layers):
        head.update((f, getattr(obj, f)) for f in layer[2])
    # (section, its value when called, encoder)
    todo = [("alphabet", lambda: list(alphabet), INTS[0])] + [
        (name, partial(getattr, obj, attr + "_array"
                       if hasattr(type(obj), attr + "_array") else attr),
         encode)
        for obj, rows in zip(objs, _rows(kind, head["variant"]))
        for name, attr, (encode, _) in rows]
    sections = {}
    for name, value, encode in todo:
        t0 = time.perf_counter()
        sections[name] = encode(value(), head)
        if times is not None:
            times[name] = time.perf_counter() - t0
    names = sorted(sections)
    header = MAGIC + struct.pack(
        "<IBBHQQQQQI", FORMAT_VERSION, KINDS.index(kind), head["variant"], 0,
        head["n"], head["sigma"], objs[0].r, head["s"], head["block"],
        len(names))
    table = bytearray()
    body = bytearray()
    offset = 0
    for name in names:
        blob = sections[name]
        nb = name.encode()
        table += struct.pack("<16sQQ", nb, offset, len(blob))
        body += blob
        offset += len(blob)
    data = header + bytes(table) + bytes(body)
    return data + struct.pack("<I", zlib.crc32(data))


def section_sizes(data):
    """Envelope bytes -> {section name: length in bytes}."""
    return {name: len(blob) for name, blob in _open(data)[2].items()}


def read_params(data):
    kind, head, _ = _open(data)
    return {"kind": kind, **head}


def _open(data):
    """Checked envelope bytes -> (kind, header fields, {section: bytes}).
    Past the checksum and the header, the sections must be exactly the
    ones the kind and variant store, listed in name order, and their
    payloads must tile the body from its start to the checksum, as
    serialize writes them."""
    if len(data) < 60:
        raise FormatError("truncated envelope")
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != crc:
        raise FormatError("checksum mismatch")
    if data[:4] != MAGIC:
        raise FormatError("bad magic")
    version, kind_id, variant, reserved, n, sigma, r, s, block, count = (
        struct.unpack_from("<IBBHQQQQQI", data, 4))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if kind_id >= len(KINDS):
        raise FormatError("unknown index kind")
    kind = KINDS[kind_id]
    head = {"variant": variant, "n": n, "sigma": sigma, "r": r, "s": s,
            "block": block}
    taken = {f for layer in FORMAT[kind] for f in layer[2]}
    if reserved or variant > 2 or any(
            f in taken and head[f] < 1 for f in ("s", "block")) or any(
            head[f] for f in ("s", "block", "variant") if f not in taken):
        raise FormatError(f"header parameters do not fit {kind}")
    if n >= GAP_LIMIT:
        # 2**54 is the first gap whose Elias-delta code is longer than 64
        # bits; below it, the run and phi tables' int64 arithmetic on
        # positions up to 2n, and lim's sentinels beyond them, fit too
        raise FormatError("header n is 2**54 or more: its gaps need "
                          "delta codes past 64-bit words")
    body_off = 56 + 32 * count
    if body_off > len(data) - 4:
        raise FormatError("section table runs past the envelope")
    table = [struct.unpack_from("<16sQQ", data, at)
             for at in range(56, body_off, 32)]
    names = [nb.rstrip(b"\x00").decode(errors="replace") for nb, _, _ in table]
    want = ["alphabet"] + [name for layer in _rows(kind, variant)
                           for name, _, _ in layer]
    if sorted(names) != sorted(want):
        raise FormatError(f"{kind} variant {variant} needs sections "
                          f"{sorted(want)}, found {sorted(names)}")
    ends = list(accumulate(ln for _, _, ln in table))
    if (names != sorted(names)
            or [off for _, off, _ in table] != [0] + ends[:-1]
            or body_off + ends[-1] != len(data) - 4):
        raise FormatError("section payloads do not tile the body in name "
                          "order")
    return kind, head, {name: data[body_off + off:body_off + off + ln]
                        for name, (_, off, ln) in zip(names, table)}


def deserialize(data, times=None):
    """Envelope bytes -> (index object, kind, alphabet). A dict passed as
    times gets the seconds each section took to decode, by name."""
    kind, head, blobs = _open(data)
    layers = FORMAT[kind]
    rows = _rows(kind, head["variant"])
    values = {}
    for name, _, (_, decode) in [("alphabet", None, INTS)] + sum(rows, []):
        t0 = time.perf_counter()
        try:
            values[name] = decode(blobs[name], head)
        except (struct.error, ValueError, IndexError) as exc:
            raise FormatError(f"section {name}: {exc}") from exc
        if times is not None:
            times[name] = time.perf_counter() - t0
    for names, ok, message in CHECKS:
        if all(name in values for name in names) and not ok(values, head):
            raise FormatError(message)
    ix = None
    for (cls, attr, fields, _), layer_rows in zip(layers, rows):
        args = {f: head[f] for f in fields}
        args.update((a, values[name]) for name, a, _ in layer_rows)
        if ix is not None:
            args[inner] = ix
        try:
            ix, inner = cls(**args), attr
        except ValueError as exc:     # a constructor's own check
            raise FormatError(str(exc)) from exc
    return ix, kind, values["alphabet"].tolist()


def locating_bits(data):
    """Total serialized size in bits of the locating sections."""
    return 8 * sum(
        ln for name, ln in section_sizes(data).items()
        if name in LOCATING_SECTIONS)


def counting_bits(data):
    return 8 * sum(section_sizes(data).values()) - locating_bits(data)
