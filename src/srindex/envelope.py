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
per-run starts and LF images; the Psi runs lay the per-symbol heads end
to end and drop their tails. Those sections are derived again on write,
as attributes of the same names. The load path checks
the checksum, that the header fits the kind, that the sections are
exactly the ones the table names for the kind and variant and tile the
body, that each codec reads its whole section and finds the bytes its
encoder would write, the invariants in CHECKS, and the ones the
constructors check (a Psi run's tail against its head and length). So an
index has exactly one envelope.
"""

import struct
import zlib
from bisect import bisect_right
from itertools import accumulate

from .rcsa import PsiRuns, RCsa
from .rindex import RIndex
from .rlbwt import RunLengthBWT
from .srcsa import SrCsa
from .srindex import SrIndex
from . import succinct
from .succinct import WORD, DenseBitvector, SparseBitvector, delta_append

MAGIC = b"SRIX"
FORMAT_VERSION = 1


class FormatError(ValueError):
    pass


def pack_ints(values):
    """Fixed-width bit packing; returns bytes (width, count, payload)."""
    width = max((v.bit_length() for v in values), default=0)
    width = max(width, 1)
    fmt = f"0{width}b"
    # one join and one base-2 parse, linear in the payload; OR-ing each
    # value into one growing int would copy the int once per value
    bits = "".join(format(v, fmt) for v in reversed(values))
    payload = int("0" + bits, 2).to_bytes((len(bits) + 7) // 8, "little")
    return struct.pack("<BQ", width, len(values)) + payload


def unpack_ints(blob):
    values, end = _ints_at(blob, 0)
    if end != len(blob):
        raise ValueError("packed ints do not end at their section's end")
    return values


def _ints_at(blob, off):
    """pack_ints payload at offset off -> (values, offset after it). Raises
    ValueError on a count the bytes cannot hold, and on bytes pack_ints
    would not write: stray bits past the last value, or a width wider
    than the largest value needs."""
    width, count = struct.unpack_from("<BQ", blob, off)
    nbits = width * count
    end = off + 9 + (nbits + 7) // 8
    if not width or end > len(blob):
        # a count the bytes cannot hold would decode as zeros, slowly
        raise ValueError(f"{count} packed ints of {width} bits run past "
                         "their section")
    acc = int.from_bytes(blob[off + 9:end], "little")
    if acc >> nbits:
        raise ValueError("packed ints have stray bits past their last value")
    # value i is bits [i * width, (i + 1) * width) of acc, so it counts
    # back from the end of acc's base-2 string
    bits = format(acc, f"0{nbits}b")
    values = [int(bits[j - width:j], 2) for j in range(nbits, 0, -width)]
    if width != max(max(values, default=0).bit_length(), 1):
        raise ValueError("packed ints are wider than their largest value")
    return values, end


def _dense_bytes(bv):
    return struct.pack("<Q", bv.n) + b"".join(
        w.to_bytes(8, "little") for w in bv.words)


def _dense_from(blob):
    (n,) = struct.unpack_from("<Q", blob, 0)
    raw = blob[8:]
    if len(raw) != 8 * -(-n // WORD) or int.from_bytes(raw, "little") >> n:
        raise FormatError("dense bitvector length mismatch")
    words = [
        int.from_bytes(raw[i:i + 8], "little") for i in range(0, len(raw), 8)
    ]
    return DenseBitvector.from_words(words, n)


def _sparse_bytes(bv):
    """Elias-Fano code (Okanohara and Sadakane, ALENEX 2007) of the sorted
    positions: n, ones, low_bits, the low low_bits bits of each position
    minus one as packed ints, then the rest of it in unary, as a dense
    bitvector where the k-th one (from 0) sits at bit high_k + k."""
    n, ones = bv.n, bv.ones
    low_bits, high_n = _ef_shape(n, ones)
    mask = (1 << low_bits) - 1
    high = bytearray(8 * -(-high_n // WORD))  # 64-bit little-endian words
    for k, p in enumerate(bv.positions):
        i = ((p - 1) >> low_bits) + k
        high[i >> 3] |= 1 << (i & 7)
    return (struct.pack("<QQB", n, ones, low_bits)
            + pack_ints([(p - 1) & mask for p in bv.positions])
            + struct.pack("<Q", high_n) + bytes(high))


def _ef_shape(n, ones):
    """Elias-Fano (low_bits, high_n) of ones positions within 1..n: the
    bits kept per low part and the bit count of the high part."""
    low_bits = max(0, (n // ones).bit_length() - 1) if ones else 0
    return low_bits, ones + ((n - 1) >> low_bits if n else 0)


def _sparse_from(blob):
    """Decode _sparse_bytes in one pass over the high words."""
    n, ones, low_bits = struct.unpack_from("<QQB", blob, 0)
    lows, off = _ints_at(blob, 17)
    (high_n,) = struct.unpack_from("<Q", blob, off)
    high = blob[off + 8:]
    if ((low_bits, high_n) != _ef_shape(n, ones)
            or len(high) != 8 * -(-high_n // WORD)):
        raise FormatError("sparse bitvector parts do not fit its length")
    if len(lows) != ones or int.from_bytes(high, "little").bit_count() != ones:
        raise FormatError("sparse bitvector cardinality mismatch")
    positions = []
    k = prev = 0
    for q in range(0, len(high), 8):
        w = int.from_bytes(high[q:q + 8], "little")
        while w:
            b = w & -w
            p = ((8 * q + b.bit_length() - 1 - k) << low_bits | lows[k]) + 1
            if p <= prev:
                raise FormatError("sparse bitvector positions not increasing")
            positions.append(p)
            prev = p
            k += 1
            w ^= b
    if prev > n:
        raise FormatError("sparse bitvector position beyond its length")
    return SparseBitvector(positions, n)


def _delta_bytes(values, block):
    """One strictly increasing sequence: its length m, the block size B
    and the bit count of its stream, every B-th value verbatim as an
    anchor (packed ints), then the stream: the gap from each other value
    to its left neighbour as an Elias-delta code."""
    codes = []                        # each code's bits, high bit first
    nbits = 0
    for i in range(1, len(values)):
        if i % block:
            code, width = delta_append(0, 0, values[i] - values[i - 1])
            codes.append(format(code, f"0{width}b"))
            nbits += width
    # one join and one base-2 parse: linear in the stream, where OR-ing
    # each code into a growing int copied the int once per code
    stream = int("0" + "".join(reversed(codes)), 2).to_bytes(
        (nbits + 7) // 8, "little")
    return (struct.pack("<QQQ", len(values), block, nbits)
            + pack_ints(values[::block]) + stream)


def _delta_from(blob, block):
    """Decode _delta_bytes in one pass, one delta_read per code. Raises
    ValueError on parts that do not fit, on a block size other than
    block, or on values that are not strictly increasing."""
    m, B, nbits = struct.unpack_from("<QQQ", blob, 0)
    if B != block:
        raise ValueError(f"delta block size {B} is not the header's {block}")
    anchors, off = _ints_at(blob, 24)
    stream = bytes(blob[off:])
    if len(anchors) != -(-m // B):
        raise ValueError("delta anchors do not match length and block")
    if (len(stream) != (nbits + 7) // 8
            or int.from_bytes(stream, "little") >> nbits):
        raise ValueError("delta stream length does not match its bits")
    read = succinct.delta_read        # looked up where a tracer wraps it
    values = []
    pos = 0
    for k, v in enumerate(anchors):
        values.append(v)
        for _ in range(min(B, m - k * B) - 1):
            g, pos = read(stream, pos)
            v += g
            values.append(v)
        # gaps are at least 1, so this keeps the whole sequence
        # strictly increasing, anchors included
        if k + 1 < len(anchors) and v >= anchors[k + 1]:
            raise ValueError("delta block reaches the next anchor")
    if pos != nbits:
        raise ValueError("delta codes do not end at the stream's end")
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
    """Decode _deltas_bytes to dict c -> list of values."""
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
INTS = _plain(pack_ints, unpack_ints)
DENSE = _plain(_dense_bytes, _dense_from)
SPARSE = _plain(_sparse_bytes, _sparse_from)
U64 = _plain(lambda v: struct.pack("<Q", v),
             lambda b: struct.unpack("<Q", b)[0])
DELTAS = (_deltas_bytes, _deltas_from)

# A layer is (class, the argument name the next layer gets it under,
# header fields its constructor takes, rows); a row is (section, attribute
# and constructor argument, codec). The counting layers are shared.
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


def _maps_marks(table, marks, samples):
    """Check row: table has one entry per mark, each a 1-based index into
    samples."""
    return ((table, marks, samples), lambda v, h:
            len(v[table]) == v[marks].ones
            and all(1 <= x <= len(v[samples]) for x in v[table]),
            f"{table} does not map {marks} into {samples}")


def _runs_per_symbol(v, h):
    """Check: per symbol, the head and tail streams hold one value per Psi
    run that starts in the symbol's block of C, and there are r runs."""
    C, starts = v["c_table"], v["i_psi"]
    want = {c: bisect_right(starts, C[c + 1]) - bisect_right(starts, C[c])
            for c in range(1, h["sigma"] + 1)}
    return len(starts) == h["r"] == sum(want.values()) and all(
        {c: len(seq) for c, seq in v[name].items()} == want
        for name in ("psi_heads", "psi_tails"))


def _spans_text(marks):
    """Check row: the sparse bitvector marks ranges over the header's n
    text positions, so no mark lies past the text."""
    return ((marks,), lambda v, h: v[marks].n == h["n"],
            f"{marks} does not match header")


def _sa_values(table, shift, *kind):
    """Check row: table holds SA values minus shift, each within the text;
    kind names a section that tells which index the table belongs to."""
    def ok(v, h):
        vals = v[table]
        return not vals or (min(vals) >= 1 - shift
                            and max(vals) <= h["n"] - shift)
    return (table, *kind), ok, f"{table} holds positions outside the text"


def _distinct(table):
    """Check row: table's SA samples are distinct, as SA values are; the
    index finds a mark's sample slot again by its value on write."""
    return ((table,), lambda v, h: len(set(v[table])) == len(v[table]),
            f"{table} repeats a position")


# Structural invariants the loader checks before building anything, each
# when all the sections it reads are present: (sections, test over the
# decoded sections v and the header h, message).
CHECKS = [
    # the tables hold per-symbol entries, so sigma must be as small as the
    # alphabet section says, not a header field the bytes cannot back
    (("alphabet",), lambda v, h: len(v["alphabet"]) == h["sigma"],
     "alphabet does not match header"),
    (("start", "letters"), lambda v, h: v["start"].n == h["n"]
     and v["start"].ones == len(v["letters"]) == h["r"],
     "run table does not match header"),
    _spans_text("first"),
    _spans_text("marks"),
    _spans_text("marks_l"),
    (("letters",), lambda v, h: all(1 <= c <= h["sigma"]
                                    for c in v["letters"]),
     "letters exceed declared alphabet"),
    (("c_table",), lambda v, h: len(v["c_table"]) == h["sigma"] + 2
     and v["c_table"][-1] == h["n"],
     "C table does not match header"),
    (("c_table", "i_psi", "psi_heads", "psi_tails"), _runs_per_symbol,
     "psi run streams do not match run count"),
    (("i_psi",), lambda v, h: v["i_psi"][:1] == [1]
     and all(a < b for a, b in zip(v["i_psi"], v["i_psi"][1:]))
     and v["i_psi"][-1] <= h["n"],
     "i_psi is not increasing from 1 within the text"),
    # each delta stream is strictly increasing (its decoder checks it), so
    # its first and last values bound all of it
    (("psi_heads", "psi_tails"), lambda v, h: all(
        not vals or vals[0] >= 1 and vals[-1] <= h["n"]
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


def serialize(ix, alphabet):
    """Index object + alphabet list -> envelope bytes."""
    kind = _kind_of(ix)
    layers = FORMAT[kind]
    objs = [getattr(ix, layer[1]) for layer in layers[:-1]] + [ix]
    head = {"s": 0, "block": 0, "variant": 0}
    for obj, layer in zip(objs, layers):
        head.update((f, getattr(obj, f)) for f in layer[2])
    sections = {"alphabet": pack_ints(list(alphabet))}
    for obj, rows in zip(objs, _rows(kind, head["variant"])):
        for name, attr, (encode, _) in rows:
            sections[name] = encode(getattr(obj, attr), head)
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
    if n >= (1 << 63) - 1:
        # the run tables are built with int64 arithmetic on positions up
        # to n + 1
        raise FormatError("header n does not fit the 64-bit run tables")
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


def deserialize(data):
    """Envelope bytes -> (index object, kind, alphabet)."""
    kind, head, blobs = _open(data)
    layers = FORMAT[kind]
    rows = _rows(kind, head["variant"])
    values = {}
    for name, _, (_, decode) in [("alphabet", None, INTS)] + sum(rows, []):
        try:
            values[name] = decode(blobs[name], head)
        except (struct.error, ValueError, IndexError) as exc:
            raise FormatError(f"section {name}: {exc}") from exc
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
    return ix, kind, values["alphabet"]


def locating_bits(data):
    """Total serialized size in bits of the locating sections."""
    return 8 * sum(
        ln for name, ln in section_sizes(data).items()
        if name in LOCATING_SECTIONS)


def counting_bits(data):
    return 8 * sum(section_sizes(data).values()) - locating_bits(data)
