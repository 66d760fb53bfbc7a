import random
import signal
import struct
import tracemalloc
import zlib
from array import array
from bisect import bisect_right
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import naive_occurrences, random_text, sample_patterns
from test_codecs import delta_append
from srindex import envelope, toolkit
from srindex.envelope import DENSE, GAP_LIMIT, INTS, SPARSE
from srindex.succinct import DenseBitvector, SparseBitvector
from srindex.textcore import ingest, oracle_search

ALL_BUILDS = [
    ("rlbwt", None, 0), ("r-index", None, 0), ("r-csa", None, 0),
    ("sr-index", 1, 0), ("sr-index", 4, 1), ("sr-index", 8, 2),
    ("sr-csa", 1, 0), ("sr-csa", 4, 1), ("sr-csa", 8, 2),
]


class TestBuildIndex:
    def test_parameter_validation(self):
        data = b"abracadabra"
        with pytest.raises(ValueError):
            toolkit.build_index(data, "nope")
        with pytest.raises(ValueError):
            toolkit.build_index(data, "sr-index")          # s required
        with pytest.raises(ValueError):
            toolkit.build_index(data, "sr-index", s=0)
        with pytest.raises(ValueError):
            toolkit.build_index(data, "r-index", s=4)      # s forbidden
        with pytest.raises(ValueError):
            toolkit.build_index(data, "r-csa", variant=1)
        with pytest.raises(ValueError):
            toolkit.build_index(data, "sr-csa", s=4, variant=3)

    @pytest.mark.parametrize("kind", ["sr-index", "sr-csa", "r-csa"])
    def test_parameters_fit_the_header(self, kind):
        # s and B are u64 header fields: past them, serialize used to die
        # with struct.error after the whole build
        s = 4 if kind in toolkit.SUBSAMPLED_KINDS else None
        for bad in ({"block": 2**64}, {"block": 2**70}, {"block": 0}) + (
                ({"s": 2**64},) if s else ()):
            with pytest.raises(ValueError, match="1 .. 2"):
                toolkit.build_index(b"abracadabra", kind,
                                    **{"s": s, **bad})
        # the largest values fit, build, load and answer
        top = 2**64 - 1
        bi = toolkit.build_index(b"abracadabra" * 5, kind,
                                 s=top if s else None, block=top)
        blob = bi.serialize()
        loaded = toolkit.load_index(blob)
        assert loaded.serialize() == blob
        assert sorted(loaded.locate(b"abra")) == oracle_search(
            ingest(b"abracadabra" * 5), b"abra")[1]

    def test_query_facade(self):
        rng = random.Random(60)
        data = random_text(rng, 180, 4)
        t = ingest(data)
        for kind, s, v in ALL_BUILDS:
            bi = toolkit.build_index(data, kind, s=s, variant=v, block=4)
            for pat in sample_patterns(rng, data, 10):
                want = naive_occurrences(data, pat)
                assert bi.count(pat) == len(want), (kind, pat)
                if kind != "rlbwt":
                    assert sorted(bi.locate(pat)) == want, (kind, pat)
                    assert bi.locate(pat, sort=True) == want
        with pytest.raises(ValueError):
            toolkit.build_index(data, "rlbwt").locate(b"a")


class TestQueries:
    @pytest.mark.parametrize("kind,s", [("rlbwt", None), ("r-index", None),
                                        ("sr-index", 4), ("r-csa", None),
                                        ("sr-csa", 4)])
    def test_empty_pattern_matches_oracle(self, kind, s):
        bi = toolkit.build_index(b"abracadabra", kind, s=s)
        assert oracle_search(ingest(b"abracadabra"), b"") == (0, [])
        assert bi.map_pattern(b"") is None
        assert bi.count(b"") == 0
        if kind != "rlbwt":
            assert bi.locate(b"") == []

    @pytest.mark.parametrize("kind", toolkit.SUBSAMPLED_KINDS)
    def test_locate_at_s3000(self, kind):
        # walks and range resolution nest up to s - 1 = 2999 levels deep
        data = toolkit.gen_corpus(20_000, 10, 0.001, seed=3)
        bi = toolkit.build_index(data, kind, s=3000)
        pat = data[150_000:150_012]
        want = oracle_search(ingest(data), pat)[1]
        assert len(want) > 1
        assert sorted(bi.locate(pat)) == want


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once seconds have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def reseal(blob, name, payload):
    """blob with the payload of section name replaced, and its section
    table and checksum rewritten to match."""
    sections = envelope._open(blob)[2]
    sections[name] = payload
    table = body = b""
    for nm in sorted(sections):
        table += struct.pack("<16sQQ", nm.encode(), len(body),
                             len(sections[nm]))
        body += sections[nm]
    data = blob[:56] + table + body
    return data + struct.pack("<I", zlib.crc32(data))


def delta_fields(payload):
    """A psi_heads/psi_tails payload -> one [m, B, nbits, anchors, stream]
    list per symbol, in symbol order."""
    (count,) = struct.unpack_from("<I", payload, 0)
    off, out = 4, []
    for _ in range(count):
        (ln,) = struct.unpack_from("<Q", payload, off)
        blob = payload[off + 8:off + 8 + ln]
        samples, at = envelope._ints_at(blob, 24)
        out.append([*struct.unpack_from("<QQQ", blob, 0), samples.tolist(),
                    blob[at:]])
        off += 8 + ln
    return out


def delta_payload(fields):
    out = struct.pack("<I", len(fields))
    for m, B, nbits, samples, stream in fields:
        blob = (struct.pack("<QQQ", m, B, nbits) + envelope.pack_ints(samples)
                + stream)
        out += struct.pack("<Q", len(blob)) + blob
    return out


def gap_codes(*gaps):
    """[bit count, stream bytes] of the Elias-delta codes of gaps."""
    stream = nbits = 0
    for g in gaps:
        stream, nbits = delta_append(stream, nbits, g)
    return [nbits, stream.to_bytes((nbits + 7) // 8, "little")]


def on_bytes(edit):
    """Mark edit as a mutation of the envelope bytes, for sections the
    index derives when it is written: edit(blob) returns the new blob."""
    edit.on_bytes = True
    return edit


def raise_last_head(value):
    """Symbol 2's Psi-run heads [1, 12, 27] become [1, 12, value]."""
    @on_bytes
    def edit(blob):
        fields = delta_fields(envelope._open(blob)[2]["psi_heads"])
        m, B, nbits, anchors, stream = fields[1]
        assert (m, B, anchors, [nbits, stream]) == (3, 4, [1],
                                                    gap_codes(11, 15))
        fields[1][2], fields[1][4] = gap_codes(11, value - 12)
        return reseal(blob, "psi_heads", delta_payload(fields))
    return edit


@on_bytes
def raise_d_tail(blob):
    """The one Psi-run tail of symbol 5 (d) goes from 11 to 12."""
    fields = delta_fields(envelope._open(blob)[2]["psi_tails"])
    assert fields[4] == [1, 4, 0, [11], b""]
    fields[4][3] = [12]
    return reseal(blob, "psi_tails", delta_payload(fields))


@on_bytes
def swap_i_psi(blob):
    i_psi = envelope._ints_array(envelope._open(blob)[2]["i_psi"]).tolist()
    i_psi[1], i_psi[2] = i_psi[2], i_psi[1]
    return reseal(blob, "i_psi", envelope.pack_ints(i_psi))


def relayout(blob, table, body):
    """blob's header with the section table [(name, offset, length)] and
    the body replaced, and its checksum rewritten to match."""
    data = blob[:52] + struct.pack("<I", len(table)) + b"".join(
        struct.pack("<16sQQ", name.encode(), off, ln)
        for name, off, ln in table) + body
    return data + struct.pack("<I", zlib.crc32(data))


def or_fold_pack(values, width=None):
    """pack_ints by OR-ing each value into one growing int: quadratic in
    the count, but plainly right, so the reference for pack_ints."""
    if width is None:
        width = max(max((v.bit_length() for v in values), default=0), 1)
    acc = pos = 0
    for v in values:
        acc |= v << pos
        pos += width
    return (struct.pack("<BQ", width, len(values))
            + acc.to_bytes((pos + 7) // 8, "little"))


# INTS with its values written by the OR-fold, which packs values of any
# width, also past the 64 bits pack_ints takes
WIDE_INTS = (lambda values, head: or_fold_pack(values), INTS[1])
PAST_64_BITS = "71 bits, not 1 to 64"  # the width of 2**70


def ef_payload(positions, n, low_bits, high_n_off=0):
    """The Elias-Fano payload of a sparse bitvector at the given low_bits,
    its high_n field off by high_n_off from the bits it holds."""
    high_n = len(positions) + ((n - 1) >> low_bits)
    high = 0
    for k, p in enumerate(positions):
        high |= 1 << (((p - 1) >> low_bits) + k)
    mask = (1 << low_bits) - 1
    return (struct.pack("<QQB", n, len(positions), low_bits)
            + envelope.pack_ints([(p - 1) & mask for p in positions])
            + struct.pack("<Q", high_n + high_n_off)
            + high.to_bytes(8 * -(-high_n // 64), "little"))


def on_section(name, edit):
    """A blob mutation that replaces section name's payload p by edit(p)."""
    return lambda blob: reseal(blob, name,
                               edit(envelope._open(blob)[2][name]))


def edit_section(name, codec, change):
    """A blob mutation that decodes section name with codec (an envelope
    codec), replaces its value v by change(v, header fields) and codes it
    back. The index derives its mark and validity tables from its phi
    tables on write, so edits of those tables go through the bytes."""
    encode, decode = codec

    def value(payload, head):
        # packed ints decode to an array; change edits them as a list
        v = decode(payload, head)
        return v.tolist() if isinstance(v, np.ndarray) else v

    @on_bytes
    def edit(blob):
        head = envelope.read_params(blob)
        return on_section(name, lambda p: encode(
            change(value(p, head), head), head))(blob)
    return edit


def set_first(value):
    """change for edit_section: the first entry becomes value(table, n)."""
    return lambda table, head: [value(table, head["n"])] + table[1:]


def shift_all(table, head):
    return [x + 10**6 for x in table]


def start_low_bits(change, high_n_off=0):
    """The r-index's run starts re-coded at their low_bits plus change."""
    def edit(payload):
        bv = envelope._sparse_from(payload)
        low_bits = payload[16]
        assert ef_payload(bv.positions, bv.n, low_bits) == payload
        return ef_payload(bv.positions, bv.n, low_bits + change, high_n_off)
    return on_section("start", edit)


def heads_stray_bit(payload):
    """The first head stream that ends inside a byte gains a one past its
    last code."""
    fields = delta_fields(payload)
    f = next(f for f in fields if f[2] % 8)
    stream = bytearray(f[4])
    stream[-1] |= 1 << f[2] % 8
    f[4] = bytes(stream)
    return delta_payload(fields)


def resealed(data):
    """data with its checksum rewritten to match."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[:-4]))


def layout_edits(blob):
    """(what, envelope) pairs: blob's sections laid out as serialize would
    not lay them out, every payload still intact."""
    payloads = envelope._open(blob)[2]
    names = sorted(payloads)

    def laid(order, gap_at=None, stretch=0):
        # sections in order, a junk byte before the gap_at-th one, and the
        # first one's length stretched over the next stretch sections
        table, body = [], b""
        for i, name in enumerate(order):
            if i == gap_at:
                body += b"\x07"
            table.append([name, len(body), len(payloads[name])])
            body += payloads[name]
        if gap_at == len(order):
            body += b"\x07"
        table[0][2] += sum(ln for _, _, ln in table[1:1 + stretch])
        return relayout(blob, table, body)

    assert laid(names) == blob
    for name in names:
        yield f"appended to {name}", reseal(blob, name,
                                            payloads[name] + b"\x07")
    for i in range(1, len(names) + 1):
        yield f"inserted before section {i}", laid(names, gap_at=i)
    yield "overlapping", laid(names, stretch=1)
    yield "reordered", laid(names[1:2] + names[:1] + names[2:])


# one Elias-delta code: (bits as an int, bit count)
GAP_30 = delta_append(0, 0, 30)
# a code whose length field says 2**40 - 1 bits, in a stream of 80
LENGTH_PAST_STREAM = ((2**39 - 1) << 40 | 1 << 39).to_bytes(10, "little")


class TestEnvelope:
    def test_roundtrip_byte_stable(self):
        rng = random.Random(61)
        data = random_text(rng, 150, 2)
        for kind, s, v in ALL_BUILDS:
            bi = toolkit.build_index(data, kind, s=s, variant=v, block=4)
            blob = bi.serialize()
            bi2 = toolkit.load_index(blob)
            assert bi2.kind == kind
            assert bi2.serialize() == blob
            params = envelope.read_params(blob)
            assert params["n"] == bi.ix.n
            assert params["kind"] == kind
            if s is not None:
                assert params["s"] == s and params["variant"] == v

    def test_corruption_detected(self):
        rng = random.Random(62)
        blob = toolkit.build_index(b"mississippi" * 10, "sr-csa",
                                   s=4, block=4).serialize()
        for _ in range(60):
            i = rng.randrange(len(blob) * 8)
            bad = bytearray(blob)
            bad[i // 8] ^= 1 << (i % 8)
            with pytest.raises(Exception):
                toolkit.load_index(bytes(bad))

    def test_truncation_and_magic(self):
        blob = toolkit.build_index(b"banana", "r-index").serialize()
        with pytest.raises(envelope.FormatError):
            envelope.deserialize(blob[:20])
        with pytest.raises(envelope.FormatError):
            envelope.deserialize(b"XXXX" + blob[4:])

    @pytest.mark.parametrize("kind,s,variant,mutate,match", [
        ("r-csa", None, 0, edit_section(
            "mark_map", INTS, set_first(lambda t, n: 10**6)), "mark_map"),
        ("r-csa", None, 0, edit_section(
            "mark_map", INTS, lambda t, h: t[:-1]), "mark_map"),
        ("r-index", None, 0, edit_section(
            "first_to_run", INTS, set_first(lambda t, n: 0)), "first_to_run"),
        ("sr-index", 4, 0, edit_section(
            "mark_map", INTS, set_first(lambda t, n: 0)), "mark_map"),
        # one mark per kept sample: len(t) is the length of samples_sub
        ("sr-csa", 4, 0, edit_section(
            "mark_map", INTS, set_first(lambda t, n: len(t) + 1)),
         "mark_map"),
        ("sr-index", 4, 1, edit_section(
            "valid", DENSE, lambda bv, h: DenseBitvector([1])), "validity"),
        ("sr-csa", 4, 2, edit_section(
            "valid_area", INTS, lambda t, h: t + [1]), "validity"),
        ("sr-index", 4, 1, edit_section(
            "valid", DENSE, lambda bv, h: DenseBitvector.from_words(
                [], bv.n)), "dense"),
        ("sr-index", 4, 0, edit_section(
            "removed", DENSE, lambda bv, h: DenseBitvector.from_words(
                [bv.words[0] | 1 << bv.n], bv.n)), "dense"),
        ("sr-index", 4, 0, edit_section(
            "marks", SPARSE, lambda bv, h: SparseBitvector(
                bv.positions[:1] * 2 + bv.positions[2:], bv.n)),
         "not increasing"),
        # SA samples pointing outside the text
        ("r-index", None, 0, edit_section("samples", INTS, shift_all),
         "outside"),
        ("r-index", None, 0, edit_section(
            "samples", INTS, set_first(lambda t, n: n)), "outside"),
        ("sr-index", 4, 0, edit_section("samples_sub", INTS, shift_all),
         "outside"),
        ("sr-index", 4, 2, edit_section(
            "samples_sub", INTS, lambda t, h: t[:-1] + [h["n"]]), "outside"),
        ("sr-index", 4, 0, lambda ix: setattr(ix, "sa_last", ix.n + 1),
         "outside"),
        ("sr-index", 4, 1, lambda ix: setattr(ix, "sa_last", 0), "outside"),
        ("r-csa", None, 0, edit_section(
            "f_sa", INTS, set_first(lambda t, n: n + 1)), "outside"),
        ("r-csa", None, 0, edit_section(
            "f_sa", INTS, lambda t, h: t[:-1] + [0]), "outside"),
        ("sr-csa", 4, 0, edit_section(
            "samples_sub", INTS, set_first(lambda t, n: 0)), "outside"),
        ("sr-csa", 4, 2, edit_section(
            "samples_sub", INTS, lambda t, h: t[:-1] + [h["n"] + 10**6]),
         "outside"),
        # Psi-run values: loaded, these made count(b"a") return 5 and 24,
        # not 25, and the raised tail count(b"d") 6, not 5; a head of 2**33
        # does not fit the array a text of n < 2**32 holds heads in
        ("r-csa", None, 0, raise_last_head(10**6), "psi run values"),
        ("sr-csa", 4, 1, raise_last_head(10**6), "psi run values"),
        ("r-csa", None, 0, raise_last_head(2**33), "psi run values"),
        ("r-csa", None, 0, swap_i_psi, "i_psi"),
        ("sr-csa", 4, 0, swap_i_psi, "i_psi"),
        ("r-csa", None, 0, raise_d_tail, "tails"),
        ("sr-csa", 4, 2, raise_d_tail, "tails"),
    ], ids=["r-csa-map-range", "r-csa-map-short", "r-index-map-range",
            "sr-index-map-zero", "sr-csa-map-range", "sr-index-valid-len",
            "sr-csa-area-len", "dense-words", "dense-past-n",
            "sparse-dup", "r-index-sa-shifted", "r-index-sa-n",
            "sr-index-sa-shifted", "sr-index-sa-n", "sr-index-last-high",
            "sr-index-last-zero", "r-csa-sa-high", "r-csa-sa-zero",
            "sr-csa-sa-zero", "sr-csa-sa-high", "r-csa-head-past-n",
            "sr-csa-head-past-n", "r-csa-head-2to33", "r-csa-i_psi-swapped",
            "sr-csa-i_psi-swapped", "r-csa-tail-raised",
            "sr-csa-tail-raised"])
    def test_crafted_tables_rejected(self, kind, s, variant, mutate, match):
        # CRC-valid envelopes whose tables would send locate out of range
        bi = toolkit.build_index(b"abracadabra" * 5, kind, s=s,
                                 variant=variant, block=4)
        if getattr(mutate, "on_bytes", False):
            blob = mutate(bi.serialize())
        else:
            mutate(bi.ix)
            blob = bi.serialize()
        with pytest.raises(envelope.FormatError, match=match):
            toolkit.load_index(blob)

    @pytest.mark.parametrize("kind,s,section", [
        ("sr-csa", 4, "marks_l"),
        ("r-index", None, "first"),
        ("sr-index", 4, "marks"),
    ])
    def test_marks_past_text_rejected(self, kind, s, section):
        # a mark bitvector whose last position and length are both raised
        # past the text's n; the sr-csa one used to load and locate 33
        # substrings of its text wrongly
        blob = toolkit.build_index(b"abracadabra" * 5, kind, s=s,
                                   block=4).serialize()
        bv = envelope._sparse_from(envelope._open(blob)[2][section])
        raised = SparseBitvector(
            list(bv.positions[:-1]) + [bv.positions[-1] + 1000], bv.n + 1000)
        bad = reseal(blob, section, envelope._sparse_bytes(raised))
        with pytest.raises(envelope.FormatError,
                           match=f"{section} does not match header"):
            toolkit.load_index(bad)

    @pytest.mark.parametrize("kind,section,c,change", [
        ("r-csa", "psi_heads", 2, {4: b"\x00\x00"}),     # codes zeroed
        ("r-csa", "psi_heads", 2, {2: 8, 4: b"\xe4"}),   # stream cut short
        ("r-csa", "psi_heads", 2, {0: 4}),               # more codes than bits
        ("r-csa", "psi_heads", 2, {2: 15}),              # codes end past nbits
        ("r-csa", "psi_heads", 2, {1: 0}),               # block size 0
        ("r-csa", "psi_heads", 2, {3: []}),              # too few anchors
        ("r-csa", "psi_heads", 2, {3: [1, 9]}),          # too many anchors
        ("r-csa", "psi_heads", 6, {1: 1, 2: 0, 3: [5, 2], 4: b""}),
        ("r-csa", "psi_heads", 2, {4: b"d\xe4\x00"}),    # stream too long
        ("sr-csa", "psi_tails", 2, {4: b"\x00\x00\x00"}),
        ("r-csa", "psi_tails", 2, {0: 2, 2: 5, 4: b"\x06"}),  # a tail short
        # symbol 2's heads [1, 12, 27] at B = 2: anchors 1 and 27, and a
        # gap of 30 takes block 1 to 31, past its next anchor
        ("r-csa", "psi_heads", 2, {1: 2, 2: GAP_30[1], 3: [1, 27],
                                   4: GAP_30[0].to_bytes(2, "little")}),
        ("sr-csa", "psi_heads", 2, {1: 2, 2: GAP_30[1], 3: [1, 27],
                                    4: GAP_30[0].to_bytes(2, "little")}),
        # the same heads, well coded at B = 2, while the header says 4:
        # loaded, they would be written back at B = 4
        ("r-csa", "psi_heads", 2, {1: 2, 2: gap_codes(11)[0], 3: [1, 27],
                                   4: gap_codes(11)[1]}),
        # read, it used to allocate the 2**40-bit value: a MemoryError
        ("r-csa", "psi_heads", 2, {2: 80, 4: LENGTH_PAST_STREAM}),
    ], ids=["zeroed", "cut-short", "codes-run-out", "past-nbits", "block-0",
            "few-anchors", "many-anchors", "anchors-decrease", "long-stream",
            "sr-csa-tails-zeroed", "tails-fewer-than-heads",
            "r-csa-gap-past-anchor", "sr-csa-gap-past-anchor",
            "block-not-header", "length-past-stream"])
    def test_crafted_delta_stream_rejected(self, kind, section, c, change):
        # CRC-valid envelopes whose delta stream does not fit its m and B;
        # a stream with too few codes used to make the loader spin forever
        blob = toolkit.build_index(b"abracadabra" * 5, kind,
                                   s=4 if kind == "sr-csa" else None,
                                   block=4).serialize()
        payload = envelope._open(blob)[2][section]
        fields = delta_fields(payload)
        assert delta_payload(fields) == payload
        assert reseal(blob, section, payload) == blob
        for i, value in change.items():
            fields[c - 1][i] = value
        bad = reseal(blob, section, delta_payload(fields))
        with time_limit(10), pytest.raises(envelope.FormatError):
            toolkit.load_index(bad)

    @pytest.mark.parametrize("section,at", [
        ("alphabet", 0),
        ("psi_heads", 36),   # symbol 1's anchors, past its length, m, B, nbits
        ("marks_l", 17),     # the Elias-Fano lows, past n, ones, low_bits
    ])
    def test_crafted_int_count_rejected(self, section, at):
        # a packed-int count of 2**40 in a section of a few bytes used to
        # decode that many zeros, hanging the loader or filling memory
        blob = toolkit.build_index(b"abracadabra" * 5, "r-csa",
                                   block=4).serialize()
        payload = envelope._open(blob)[2][section]
        assert envelope._ints_at(payload, at)[1] <= len(payload)
        bad = reseal(blob, section, payload[:at + 1]
                     + struct.pack("<Q", 2**40) + payload[at + 9:])
        tracemalloc.start()
        try:
            with time_limit(10), pytest.raises(envelope.FormatError,
                                               match="past their section"):
                toolkit.load_index(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the count is checked before the decoder allocates its arrays
        assert peak < 10**6

    @pytest.mark.parametrize("kind", ["r-csa", "sr-csa"])
    def test_crafted_delta_count_rejected(self, kind):
        # symbol 2's heads [1, 12, 27] claim m = 2**62 values, at a block
        # size of 2**62 in the header and in every stream, so that one
        # anchor fits them: the 2**62 - 1 codes their 16 bits cannot hold
        # must be rejected before anything of that count is allocated
        blob = toolkit.build_index(b"abracadabra" * 5, kind,
                                   s=4 if kind == "sr-csa" else None,
                                   block=4).serialize()
        fields = delta_fields(envelope._open(blob)[2]["psi_heads"])
        assert fields[1][:4] == [3, 4, 16, [1]]
        for f in fields:
            f[1] = 2**62
        fields[1][0] = 2**62
        head = resealed(blob[:44] + struct.pack("<Q", 2**62) + blob[52:])
        bad = reseal(head, "psi_heads", delta_payload(fields))
        assert envelope.read_params(bad)["block"] == 2**62
        tracemalloc.start()
        try:
            with time_limit(10), pytest.raises(envelope.FormatError,
                                               match="codes do not fit"):
                toolkit.load_index(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize("kind", toolkit.SUBSAMPLED_KINDS)
    @pytest.mark.parametrize("area,match", [
        (lambda n: 0, None), (lambda n: n + 1, None),
        (lambda n: 2**62, None), (lambda n: 2**70, PAST_64_BITS),
    ], ids=["zero", "n+1", "2to62", "2to70"])
    def test_validity_areas_past_their_gaps_rejected(self, kind, area,
                                                     match):
        # every variant-2 validity area set past its gap: before the areas
        # were range-checked, the three large values loaded, serialized
        # back to the same bytes and then located 14 (sr-index) or 13
        # (sr-csa) of this text's 91 distinct substrings of length 1, 2,
        # 3, 5 and 8 wrongly; areas of 2**70 are refused by their width
        rng = random.Random(3)
        data = bytes(rng.choice(b"ab") for _ in range(60)) * 3
        blob = toolkit.build_index(data, kind, s=4, variant=2,
                                   block=4).serialize()
        bad = edit_section("valid_area", WIDE_INTS, lambda t, h: [
            area(h["n"])] * len(t))(blob)
        assert bad != blob
        with pytest.raises(envelope.FormatError, match=match
                           or "validity areas reach past their gaps"):
            toolkit.load_index(bad)

    @pytest.mark.parametrize("change", [
        lambda a: [a[0], a[2], a[1]] + a[3:],      # two bytes swapped
        lambda a: [a[0], a[1], a[1]] + a[3:],      # a byte twice
        lambda a: a[:-1] + [300],                  # not a byte
        lambda a: [1] + a[1:],                     # no terminator
    ], ids=["swapped", "repeated", "past-255", "no-terminator"])
    def test_alphabet_out_of_order_rejected(self, change):
        # symbol c stands for byte alphabet[c - 1]: with two bytes swapped
        # an r-index used to load and miscount 30 of its 33 substrings
        blob = toolkit.build_index(b"abracadabra" * 5, "r-index").serialize()
        bad = edit_section("alphabet", INTS,
                           lambda a, h: change(a))(blob)
        with pytest.raises(envelope.FormatError, match="alphabet"):
            toolkit.load_index(bad)

    @pytest.mark.parametrize("change,match", [
        (lambda C: [3] + C[1:], "C table"),                 # C[0] is not 0
        (lambda C: C[:3] + [C[2] - 1] + C[4:], "C table"),  # C falls
        (lambda C: C[:2] + [2**70] + C[3:], PAST_64_BITS),  # 71 bits
    ], ids=["first-not-0", "falls", "2to70"])
    def test_c_table_out_of_order_rejected(self, change, match):
        # C counts the symbols smaller than c: a C[0] of 3 used to load,
        # a second envelope for the same index
        blob = toolkit.build_index(b"abracadabra" * 5, "r-csa",
                                   block=4).serialize()
        bad = edit_section("c_table", WIDE_INTS,
                           lambda C, h: change(C))(blob)
        with pytest.raises(envelope.FormatError, match=match):
            toolkit.load_index(bad)

    # b"abracadabra" has letters [2, 6, 5, 1, 6, 4, 2, 3] and run starts
    # [1, 2, 3, 4, 5, 6, 7, 11] (n = 12)
    @pytest.mark.parametrize("kind", ["rlbwt", "r-index", "sr-index"])
    @pytest.mark.parametrize("edit", [
        edit_section("letters", INTS, lambda t, h: t[:4] + [1] + t[5:]),
        edit_section("letters", INTS, lambda t, h: t[:3] + [3] + t[4:]),
        edit_section("letters", INTS, lambda t, h: t[:5] + [6] + t[6:]),
        # the terminator's run made two long
        edit_section("start", SPARSE, lambda bv, h: SparseBitvector(
            [1, 2, 3, 4, 6, 7, 8, 11], bv.n)),
    ], ids=["two-terminators", "no-terminator", "split-run",
            "long-terminator"])
    def test_runs_not_of_a_bwt_rejected(self, kind, edit):
        # letters with a second terminator run next to the first used to
        # load and answer count(b"abra") = 0, where the text holds 2
        blob = toolkit.build_index(b"abracadabra", kind,
                                   s=2 if kind == "sr-index" else None,
                                   variant=0).serialize()
        with pytest.raises(envelope.FormatError, match="runs are not"):
            toolkit.load_index(edit(blob))

    @pytest.mark.parametrize("kind", ["r-csa", "sr-csa"])
    def test_block_starts_not_psi_runs_rejected(self, kind):
        # C of b"abracadabra" is [0, 0, 1, 6, 8, 9, 10, 12]: with C[3] = 4
        # the r-csa used to load and serialize to the crafted bytes, a
        # second envelope for one index
        blob = toolkit.build_index(b"abracadabra", kind,
                                   s=2 if kind == "sr-csa" else None,
                                   variant=0).serialize()
        bad = edit_section("c_table", INTS,
                           lambda C, h: C[:3] + [4] + C[4:])(blob)
        with pytest.raises(envelope.FormatError, match="block does not"):
            toolkit.load_index(bad)

    @pytest.mark.parametrize("kind", toolkit.KINDS)
    def test_one_envelope_per_index(self, kind):
        # CRC-valid envelopes that lay out a good index's sections in any
        # way but serialize's: appended, inserted or overlapping bytes, or
        # a reordered table, used to load and serialize to other bytes
        bi = toolkit.build_index(b"abracadabra" * 5, kind,
                                 s=4 if kind.startswith("sr") else None,
                                 variant=2 if kind.startswith("sr") else 0,
                                 block=4)
        blob = bi.serialize()
        for what, bad in layout_edits(blob):
            with pytest.raises(envelope.FormatError):
                toolkit.load_index(bad)
                pytest.fail(f"{what}: loaded")

    @pytest.mark.parametrize("kind,edit,match", [
        ("r-index", lambda blob: resealed(blob[:10] + b"\x01" + blob[11:]),
         "header"),
        ("r-index", lambda blob: resealed(
            blob[:52] + struct.pack("<I", 10**6) + blob[56:]),
         "section table"),
        ("r-index", on_section("alphabet", lambda p: p[:-1]
                               + bytes([p[-1] | 0x80])), "stray bits"),
        ("r-csa", on_section("i_psi", lambda p: or_fold_pack(
            envelope._ints_array(p).tolist(), p[0] + 1)), "wider"),
        ("r-index", start_low_bits(-1), "parts do not fit"),
        ("r-index", start_low_bits(0, high_n_off=1), "parts do not fit"),
        ("r-csa", on_section("psi_heads", heads_stray_bit), "its bits"),
    ], ids=["header-reserved", "table-past-end", "ints-stray-bit",
            "ints-too-wide", "sparse-low-bits", "sparse-high-n",
            "delta-stray-bit"])
    def test_bytes_no_encoder_writes_rejected(self, kind, edit, match):
        # the same index in bytes its encoder would never write: loaded,
        # it would serialize to other bytes
        blob = toolkit.build_index(b"abracadabra" * 20, kind,
                                   block=4).serialize()
        with pytest.raises(envelope.FormatError, match=match):
            toolkit.load_index(edit(blob))

    def test_alphabet_larger_than_section_rejected(self):
        # a header sigma of 2**40 over a 4-symbol alphabet section used to
        # make the loader build per-symbol tables for 2**40 symbols
        blob = toolkit.build_index(b"abracadabra", "rlbwt").serialize()
        bad = resealed(blob[:20] + struct.pack("<Q", 1 << 40) + blob[28:])
        with time_limit(10), pytest.raises(envelope.FormatError,
                                           match="alphabet"):
            toolkit.load_index(bad)

    def test_text_too_long_rejected(self):
        # a run table that fits its header, for a text too long for the
        # run tables' int64 arithmetic, which reaches 2n: rejected, not an
        # OverflowError
        blob = toolkit.build_index(b"abracadabra", "rlbwt").serialize()
        for n in (1 << 62, (1 << 63) - 1, (1 << 64) - 1):
            bad = edit_section("start", SPARSE, lambda bv, h: SparseBitvector(
                bv.positions, n))(blob)
            bad = resealed(bad[:12] + struct.pack("<Q", n) + bad[20:])
            with pytest.raises(envelope.FormatError, match="64-bit"):
                toolkit.load_index(bad)

    def test_text_length_cap(self):
        # n = 2**54 is the first text with a gap whose delta code is
        # longer than 64 bits: rejected by the header's cap, while one
        # less passes it
        blob = toolkit.build_index(b"abracadabra", "rlbwt").serialize()
        for n in (GAP_LIMIT, GAP_LIMIT - 1):
            bad = edit_section("start", SPARSE, lambda bv, h: SparseBitvector(
                bv.positions, n))(blob)
            bad = resealed(bad[:12] + struct.pack("<Q", n) + bad[20:])
            try:
                toolkit.load_index(bad)
            except envelope.FormatError as exc:
                assert ("2**54" in str(exc)) == (n == GAP_LIMIT), exc
            else:
                assert n < GAP_LIMIT

    def test_packed_ints_match_or_fold(self):
        rng = random.Random(64)
        for width in range(1, 71):
            for count in (0, 1, 2, 7, 8, 9, 63, 64, 65, rng.randrange(2001),
                          2000):
                values = [rng.getrandbits(width) for _ in range(count)]
                if values:
                    values[rng.randrange(count)] |= 1 << (width - 1)
                if width > 64:
                    # past 64 bits: neither written nor read
                    if values:
                        with pytest.raises(ValueError, match="64 bits"):
                            envelope.pack_ints(values)
                    with pytest.raises(ValueError, match="not 1 to 64"):
                        envelope._ints_array(or_fold_pack(values, width))
                    continue
                blob = envelope.pack_ints(values)
                assert blob == or_fold_pack(values), (width, count)
                assert envelope._ints_array(blob).tolist() == values, (
                    width, count)

    def test_locating_counting_split(self):
        blob = toolkit.build_index(b"abracadabra" * 30, "sr-index",
                                   s=4).serialize()
        loc = envelope.locating_bits(blob)
        cnt = envelope.counting_bits(blob)
        assert loc > 0 and cnt > 0
        assert loc + cnt <= 8 * len(blob)


LOCATING_BUILDS = [("r-index", None, 0), ("r-csa", None, 0)] + [
    (kind, s, v) for kind in ("sr-index", "sr-csa") for s in (1, 4)
    for v in (0, 1, 2)]


class TestOneCopy:
    @pytest.mark.parametrize("kind,s,variant", LOCATING_BUILDS)
    def test_tables_built_once(self, kind, s, variant):
        # every table is built with the index, built or loaded: 50
        # queries add or replace none, grow none and change no per-run
        # table, the format's mark, validity, `removed` and run tables
        # (heads, start, letters) are never held, and loading then writing
        # gives back the same bytes
        data = toolkit.gen_corpus(400, 3, 0.02, seed=5)
        built = toolkit.build_index(data, kind, s=s, variant=variant,
                                    block=4)
        blob = built.serialize()
        loaded = toolkit.load_index(blob)
        assert loaded.serialize() == blob
        rng = random.Random(7)
        for bi in (built, loaded):
            ix = bi.ix
            runs = ix.rl if kind.endswith("index") else ix.runs

            def state():
                return ({k: id(v) for k, v in vars(ix).items()},
                        {k: id(v) for k, v in vars(runs).items()},
                        toolkit.memory_bytes(ix),
                        # the per-run tables' contents
                        [list(t) for t in (ix.slot, ix.samples_sub,
                                           runs.starts, runs.img)])

            before = state()
            assert not {"mark_map", "valid", "valid_area",
                        "removed"} & set(vars(ix))
            assert not {"heads", "tails", "i_psi", "start",
                        "letters"} & set(vars(runs))
            for pat in sample_patterns(rng, data, 25, 1, 10):
                occ, want = oracle_search(ingest(data), pat)
                assert bi.count(pat) == occ
                assert bi.locate(pat, sort=True) == want
            assert state() == before
            assert toolkit.load_index(bi.serialize()).serialize() == blob

    @pytest.mark.parametrize("kind", toolkit.KINDS)
    def test_no_long_lists(self, kind):
        # every r-sized table a query reads is a narrow typed array: built
        # or loaded, no index, run structure or bitvector holds a dict, or
        # a list longer than the C table and first_run (sigma + 2)
        data = toolkit.gen_corpus(2_000, 4, 0.01, seed=6)
        sub = kind.startswith("sr-")
        built = toolkit.build_index(data, kind, s=4 if sub else None,
                                    variant=2 if sub else 0, block=4)
        blob = built.serialize()
        sigma = envelope.read_params(blob)["sigma"]
        for bi in (built, toolkit.load_index(blob)):
            todo, tables = [bi.ix], 0
            while todo:
                for name, value in vars(todo.pop()).items():
                    assert not isinstance(value, dict), name
                    if isinstance(value, list):
                        assert len(value) <= sigma + 2, name
                    elif isinstance(value, array):
                        tables += 1
                    elif hasattr(value, "__dict__"):
                        todo.append(value)
            # starts, its buckets, img (and the BWT side's lex_starts and
            # lex_img), and the locating kinds' samples, slots, marks,
            # their buckets and offs
            assert tables >= (5 if kind == "rlbwt" else 8), tables

    @pytest.mark.parametrize("kind", ["sr-index", "sr-csa"])
    def test_bucketed_searches_match_bisect(self, kind):
        # the held bucket tables of the run starts and of the marks answer
        # every x in 0..n + 1 as bisect_right does, with s up to n, where
        # few marks are left and most buckets are empty
        data = toolkit.gen_corpus(600, 3, 0.02, seed=8)
        n = len(data) + 1
        for s in (1, 4, n // 2, n):
            bi = toolkit.load_index(toolkit.build_index(
                data, kind, s=s, variant=2, block=4).serialize())
            runs = bi.ix._direction()[0]
            for held in (runs, bi.ix.marks):
                values = held.starts if held is runs else held.positions
                for x in range(n + 2):
                    b = x >> held.shift
                    assert bisect_right(values, x, held.bucket[b],
                                        held.bucket[b + 1]) == \
                        bisect_right(values, x), (s, x)
            for i in range(0, len(data) - 6, 37):
                pat = data[i:i + 6]
                assert bi.locate(pat, sort=True) == \
                    naive_occurrences(data, pat)


class TestCorpus:
    def test_deterministic(self):
        a = toolkit.gen_corpus(5000, 3, 0.01, seed=9)
        b = toolkit.gen_corpus(5000, 3, 0.01, seed=9)
        c = toolkit.gen_corpus(5000, 3, 0.01, seed=10)
        assert a == b
        assert a != c
        assert len(a) == 15000
        assert set(a) <= set(b"ACGT")

    def test_is_repetitive(self):
        data = toolkit.gen_corpus(20_000, 5, 0.001, seed=1)
        stats = toolkit.text_stats(data, s_values=(4,))
        assert stats["n_over_r"] > 10

    @pytest.mark.parametrize("alphabet", [b"", b"AC\x00", [0]])
    def test_alphabet_without_terminator_bytes(self, alphabet):
        # an empty alphabet used to raise numpy's "high <= 0", and one
        # holding byte 0 to give a corpus that every build rejects
        with pytest.raises(ValueError, match="alphabet"):
            toolkit.gen_corpus(100, 2, 0.01, seed=1, alphabet=alphabet)


class TestStats:
    def test_text_stats_fields(self):
        data = toolkit.gen_corpus(4000, 4, 0.005, seed=2)
        st = toolkit.text_stats(data, s_values=(1, 4, 8), bins=10)
        assert st["n"] == 16001
        assert st["psi_runs"] == st["r"]
        assert st["kept_samples"][1] == st["r"]
        assert st["kept_samples"][8] <= st["kept_samples"][4]
        assert sum(st["mark_histogram"]) == st["r"]
        assert len(st["mark_histogram"]) == 10
        # the histogram of the marks, as a loop over them counts it
        marks = toolkit.build_rindex(
            toolkit.build_bundle(ingest(data))).first.positions
        hist = [0] * 10
        for p in marks:
            hist[min(9, (p - 1) * 10 // st["n"])] += 1
        assert st["mark_histogram"] == hist

    def test_one_run_length_bwt_per_text(self, monkeypatch):
        # text_stats and verify pass their run-length BWT to the Psi side
        from srindex import rcsa
        calls = []

        def counted(bundle):
            calls.append(bundle)
            return build(bundle)

        build = toolkit.build_rlbwt
        for mod in (toolkit, rcsa):
            monkeypatch.setattr(mod, "build_rlbwt", counted)
        data = b"abracadabra" * 20
        toolkit.text_stats(data, s_values=(4,))
        assert len(calls) == 1
        assert toolkit.verify(data, s_values=(4,))[0]
        assert len(calls) == 2

    def test_text_stats_builds_no_psi_runs(self, monkeypatch):
        # the Psi runs are the BWT runs in LF order: their count is r,
        # reported without building them
        from srindex import rcsa

        def fail(*args, **kwargs):
            raise AssertionError("build_psi_runs called")

        monkeypatch.setattr(rcsa, "build_psi_runs", fail)
        monkeypatch.setattr(toolkit, "build_psi_runs", fail, raising=False)
        st = toolkit.text_stats(b"abracadabra" * 20, s_values=(4,))
        assert st["psi_runs"] == st["r"] == toolkit.build_index(
            b"abracadabra" * 20, "rlbwt").ix.r

    def test_index_stats_fields(self):
        blob = toolkit.build_index(b"abracadabra" * 40, "r-csa",
                                   block=8).serialize()
        st = toolkit.index_stats(blob)
        assert st["kind"] == "r-csa" and st["block"] == 8
        assert st["bits_per_symbol"] > 0
        assert st["counting_bps"] + st["locating_bps"] < st["bits_per_symbol"]
        assert set(st["section_bps"]) >= {"i_psi", "f_sa", "marks_l"}


class TestVerify:
    def test_clean_text_passes(self):
        data = toolkit.gen_corpus(1500, 3, 0.01, seed=3)
        ok, report = toolkit.verify(data, s_values=(2, 4), seed=0)
        assert ok
        assert set(report["kinds"]) == set(toolkit.KINDS)
        for rep in report["kinds"].values():
            assert rep["mismatches"] == 0 and rep["checked"] > 0

    def test_one_scan_per_pattern(self, monkeypatch):
        # the scan answers each pattern once, for every kind, s and variant
        calls = []

        def counted(text, pat):
            calls.append(pat)
            return oracle_search(text, pat)

        monkeypatch.setattr(toolkit, "oracle_search", counted)
        data = toolkit.gen_corpus(1500, 3, 0.01, seed=3)
        ok, report = toolkit.verify(data, s_values=(2, 4), seed=0)
        assert ok and len(calls) == report["patterns"]

    def test_mismatches_counted_per_kind(self, monkeypatch):
        # a wrong answer for one pattern is one mismatch per index built
        def off_by_one(text, pat):
            occ, positions = oracle_search(text, pat)
            return (occ + 1, positions) if pat == b"\xff\xfe" else \
                (occ, positions)

        monkeypatch.setattr(toolkit, "oracle_search", off_by_one)
        ok, report = toolkit.verify(b"abracadabra" * 5, s_values=(2, 4),
                                    kinds=["r-csa", "sr-index"])
        assert not ok
        assert report["kinds"] == {
            "r-csa": {"checked": report["patterns"], "mismatches": 1},
            "sr-index": {"checked": 6 * report["patterns"],
                         "mismatches": 6}}

    def test_size_guard_threshold(self):
        import srindex.toolkit as tk
        old = tk.VERIFY_MAX_N
        tk.VERIFY_MAX_N = 10
        try:
            with pytest.raises(ValueError):
                tk.verify(b"abcdefghijkl")
        finally:
            tk.VERIFY_MAX_N = old


    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="sr-idx"):
            toolkit.verify(b"abracadabra", kinds=["sr-idx"])


class TestArguments:
    @pytest.mark.parametrize("call", [
        lambda: toolkit.gen_corpus(base_size=0),
        lambda: toolkit.gen_corpus(copies=0),
        lambda: toolkit.gen_corpus(mutation=-0.1),
        lambda: toolkit.gen_corpus(mutation=1.5),
        lambda: toolkit.text_stats(b"abracadabra", bins=0),
        lambda: toolkit.bench(toolkit.build_index(b"abracadabra", "r-index"),
                              [b"abra"], reps=0),
    ], ids=["base_size", "copies", "mutation-low", "mutation-high", "bins",
            "reps"])
    def test_out_of_range_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestBench:
    def test_row_schema(self):
        rng = random.Random(63)
        data = random_text(rng, 400, 4)
        bi = toolkit.build_index(data, "sr-index", s=4)
        pats = sample_patterns(rng, data, 8)
        row = toolkit.bench(bi, pats, reps=2)
        assert {"kind", "s", "variant", "bps", "us_per_occ",
                "steps_avg"} <= set(row)
        assert row["kind"] == "sr-index" and row["s"] == 4
        assert row["bps"] > 0
