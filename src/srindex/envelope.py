"""On-disk index format.

Layout: a fixed header (magic, format version, kind, variant, n, sigma, r,
s, B), a section table (name, offset, length), the section payloads, and a
trailing crc32 over everything before it. All integers little-endian.

One table, FORMAT, says what every kind stores: its classes, the header
fields their constructors take, and (section, attribute, codec) rows, with
the run-length BWT and Psi-run groups shared. serialize and deserialize
only walk it. Sparse bitvectors are Elias-Fano coded here, and only here.
Rank directories and derived tables are rebuilt on load; the load path
checks the checksum, that the sections are exactly the ones the table
names for the kind and variant, and the invariants in CHECKS.
"""

import struct
import zlib

from .rcsa import PsiRuns, RCsa
from .rindex import RIndex
from .rlbwt import RunLengthBWT
from .srcsa import SrCsa
from .srindex import SrIndex
from .succinct import WORD, BlockedDeltaSeq, DenseBitvector, SparseBitvector

MAGIC = b"SRIX"
FORMAT_VERSION = 1


class FormatError(ValueError):
    pass


def pack_ints(values):
    """Fixed-width bit packing; returns bytes (width, count, payload)."""
    width = max((v.bit_length() for v in values), default=0)
    width = max(width, 1)
    acc = 0
    pos = 0
    for v in values:
        acc |= v << pos
        pos += width
    payload = acc.to_bytes((pos + 7) // 8, "little")
    return struct.pack("<BQ", width, len(values)) + payload


def unpack_ints(blob):
    return _ints_at(blob, 0)[0]


def _ints_at(blob, off):
    """pack_ints payload at offset off -> (values, offset after it)."""
    width, count = struct.unpack_from("<BQ", blob, off)
    end = off + 9 + (width * count + 7) // 8
    acc = int.from_bytes(blob[off + 9:end], "little")
    mask = (1 << width) - 1
    return [(acc >> (i * width)) & mask for i in range(count)], end


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
    low_bits = max(0, (n // ones).bit_length() - 1) if ones else 0
    mask = (1 << low_bits) - 1
    high_n = ones + ((n - 1) >> low_bits if n else 0)
    high = bytearray(8 * -(-high_n // WORD))  # 64-bit little-endian words
    for k, p in enumerate(bv.positions):
        i = ((p - 1) >> low_bits) + k
        high[i >> 3] |= 1 << (i & 7)
    return (struct.pack("<QQB", n, ones, low_bits)
            + pack_ints([(p - 1) & mask for p in bv.positions])
            + struct.pack("<Q", high_n) + bytes(high))


def _sparse_from(blob):
    """Decode _sparse_bytes in one pass over the high words."""
    n, ones, low_bits = struct.unpack_from("<QQB", blob, 0)
    lows, off = _ints_at(blob, 17)
    high = blob[off + 8:]
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


def _delta_bytes(seq):
    head = struct.pack("<QQQ", seq.m, seq.B, seq.nbits)
    stream = seq.stream.to_bytes((seq.nbits + 7) // 8, "little")
    return head + pack_ints(seq.samples) + stream


def _delta_from(blob):
    m, B, nbits = struct.unpack_from("<QQQ", blob, 0)
    samples, off = _ints_at(blob, 24)
    stream = int.from_bytes(blob[off:], "little")
    return BlockedDeltaSeq.from_parts(m, B, samples, stream, nbits)


def _deltas_bytes(seqs):
    """Per-symbol delta streams (dict c -> seq, c = 1..sigma), in order."""
    out = [struct.pack("<I", len(seqs))]
    for c in sorted(seqs):
        b = _delta_bytes(seqs[c])
        out.append(struct.pack("<Q", len(b)))
        out.append(b)
    return b"".join(out)


def _deltas_from(blob):
    (count,) = struct.unpack_from("<I", blob, 0)
    off = 4
    out = {}
    for c in range(1, count + 1):
        (ln,) = struct.unpack_from("<Q", blob, off)
        off += 8
        out[c] = _delta_from(blob[off:off + ln])
        off += ln
    return out


# -- the format table -----------------------------------------------------

# codecs: (encode, decode)
INTS = (pack_ints, unpack_ints)
DENSE = (_dense_bytes, _dense_from)
SPARSE = (_sparse_bytes, _sparse_from)
U64 = (lambda v: struct.pack("<Q", v), lambda b: struct.unpack("<Q", b)[0])
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


# Structural invariants the loader checks before building anything, each
# when all the sections it reads are present: (sections, test over the
# decoded sections v and the header h, message).
CHECKS = [
    (("start", "letters"), lambda v, h: v["start"].n == h["n"]
     and v["start"].ones == len(v["letters"]) == h["r"],
     "run table does not match header"),
    (("letters",), lambda v, h: all(1 <= c <= h["sigma"]
                                    for c in v["letters"]),
     "letters exceed declared alphabet"),
    (("c_table",), lambda v, h: len(v["c_table"]) == h["sigma"] + 2
     and v["c_table"][-1] == h["n"],
     "C table does not match header"),
    (("i_psi", "psi_heads"), lambda v, h: len(v["i_psi"]) == h["r"]
     == sum(map(len, v["psi_heads"].values())),
     "psi run streams do not match run count"),
    (("samples", "first_to_run"), lambda v, h:
     len(v["samples"]) == len(v["first_to_run"]) == h["r"],
     "sample tables do not match run count"),
    (("f_sa",), lambda v, h: len(v["f_sa"]) == h["r"],
     "sample tables do not match run count"),
    (("removed", "samples_sub"), lambda v, h: v["removed"].n == h["r"]
     and len(v["samples_sub"]) == h["r"] - v["removed"].ones,
     "subsample tables do not match run count"),
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
    for kind, layers in FORMAT.items():
        if isinstance(ix, layers[-1][0]):
            return kind
    raise TypeError(f"not an index: {type(ix)!r}")


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
            sections[name] = encode(getattr(obj, attr))
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
    """Checked envelope bytes -> (kind, header fields, {section: bytes})."""
    if len(data) < 60:
        raise FormatError("truncated envelope")
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != crc:
        raise FormatError("checksum mismatch")
    if data[:4] != MAGIC:
        raise FormatError("bad magic")
    version, kind_id, variant, _, n, sigma, r, s, block, count = (
        struct.unpack_from("<IBBHQQQQQI", data, 4))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if kind_id >= len(KINDS):
        raise FormatError("unknown index kind")
    head = {"variant": variant, "n": n, "sigma": sigma, "r": r, "s": s,
            "block": block}
    body_off = 56 + 32 * count
    sections = {}
    for i in range(count):
        nb, off, ln = struct.unpack_from("<16sQQ", data, 56 + 32 * i)
        name = nb.rstrip(b"\x00").decode(errors="replace")
        sections[name] = data[body_off + off:body_off + off + ln]
    if len(sections) != count:
        raise FormatError("duplicate section name")
    return KINDS[kind_id], head, sections


def deserialize(data):
    """Envelope bytes -> (index object, kind, alphabet)."""
    kind, head, blobs = _open(data)
    layers = FORMAT[kind]
    taken = {f for layer in layers for f in layer[2]}
    if head["variant"] > 2 or ("s" in taken and head["s"] < 1) or any(
            head[f] for f in ("s", "block", "variant") if f not in taken):
        raise FormatError(f"header parameters do not fit {kind}")
    rows = _rows(kind, head["variant"])
    want = ["alphabet"] + [name for layer in rows for name, _, _ in layer]
    if sorted(blobs) != sorted(want):
        raise FormatError(f"{kind} variant {head['variant']} needs sections "
                          f"{sorted(want)}, found {sorted(blobs)}")
    values = {}
    for name, _, (_, decode) in [("alphabet", None, INTS)] + sum(rows, []):
        try:
            values[name] = decode(blobs[name])
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
        ix, inner = cls(**args), attr
    return ix, kind, values["alphabet"]


def locating_bits(data):
    """Total serialized size in bits of the locating sections."""
    return 8 * sum(
        ln for name, ln in section_sizes(data).items()
        if name in LOCATING_SECTIONS)


def counting_bits(data):
    return 8 * sum(section_sizes(data).values()) - locating_bits(data)
