import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from conftest import naive_occurrences, naive_suffix_array, random_text
from srindex import textcore, toolkit
from srindex.rcsa import build_psi_runs, build_rcsa
from srindex.rindex import build_rindex
from srindex.rlbwt import build_rlbwt
from srindex.textcore import (_suffix_array, build_bundle, flatten_fasta,
                              ingest, oracle_search)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property below is skipped without hypothesis
    given = settings = st = None

T1 = b"abaaba"


def traced(fn, *args):
    """fn(*args) under tracemalloc: (result, peak bytes above the memory
    held before the call, bytes still held after it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, kept - before


@pytest.fixture(params=["int32", "int64"])
def width(request, monkeypatch):
    """Runs a test on both index widths: int64 by lowering the int32
    limit below every text's n + 1."""
    if request.param == "int64":
        monkeypatch.setattr(textcore, "INT32_MAX", 0)
    return np.dtype(request.param)


class TestIngest:
    def test_remap(self):
        t = ingest(T1)
        assert t.n == 7
        assert t.alphabet == [0, ord("a"), ord("b")]
        assert t.symbols.tolist() == [2, 3, 2, 2, 3, 2, 1]
        assert t.symbols.dtype == np.uint8

    def test_trailing_terminator_accepted(self):
        assert (ingest(T1 + b"\x00").symbols.tolist()
                == ingest(T1).symbols.tolist())

    def test_full_byte_alphabet(self):
        # every byte but the terminator: symbols 2..256, order kept
        data = bytes(range(255, 0, -1)) + bytes(range(1, 256))
        t = ingest(data)
        assert t.alphabet == list(range(256)) and t.sigma == 256
        assert t.symbols.tolist() == [b + 1 for b in data] + [1]
        assert ingest(bytearray(data)).symbols.tolist() == \
            t.symbols.tolist()

    def test_narrow_symbols(self):
        # the narrowest unsigned type that holds sigma: one byte a symbol
        # up to 254 distinct bytes, two for all 255
        assert ingest(bytes(range(1, 255))).symbols.dtype == np.uint8
        t = ingest(bytes(range(1, 256)))
        assert t.sigma == 256 and t.symbols.dtype == np.uint16
        assert t.symbols.tolist() == list(range(2, 257)) + [1]

    def test_rejects_empty(self):
        for bad in (b"", b"\x00"):
            with pytest.raises(ValueError):
                ingest(bad)

    def test_rejects_interior_terminator(self):
        with pytest.raises(ValueError):
            ingest(b"ab\x00ba")

    def test_fasta(self):
        data = b">seq1 desc\nACGT\nAC\n>seq2\nGG\n"
        assert flatten_fasta(data) == b"ACGTACGG"
        t = ingest(data, fasta=True)
        assert t.n == 9

    def test_memory(self):
        # the one-byte symbols and one byte a symbol of lookup results:
        # the counting and the lookup cast no n-sized index array
        data = toolkit.gen_corpus(100_000, 4, 0.001, seed=3)
        t, peak, _ = traced(ingest, data)
        assert t.n == len(data) + 1
        assert peak <= 10 * t.n, peak / t.n

    def test_pattern_mapping(self):
        t = ingest(T1)
        assert t.map_pattern(b"ab") == [2, 3]
        assert t.map_pattern(b"az") is None
        assert t.map_pattern(b"\x00") is None


class TestBundle:
    def test_canonical_values(self):
        b = build_bundle(ingest(T1))
        assert b.sa.tolist() == [7, 6, 3, 4, 1, 5, 2]
        assert b.isa.tolist() == [5, 7, 3, 4, 6, 2, 1]
        # bwt letters: a b b a $ a a
        assert b.bwt.tolist() == [2, 3, 3, 2, 1, 2, 2]
        assert b.psi.tolist() == [5, 1, 4, 6, 7, 2, 3]

    def test_against_naive_sa(self, rng):
        for _ in range(60):
            t = ingest(random_text(rng, rng.randrange(1, 200),
                                   rng.choice([1, 2, 4, 26])))
            b = build_bundle(t)
            assert b.sa.tolist() == naive_suffix_array(t.symbols)

    def test_permutation_identities(self, rng):
        for _ in range(40):
            t = ingest(random_text(rng, rng.randrange(1, 300), 3))
            b = build_bundle(t)
            n = t.n
            assert sorted(b.sa) == list(range(1, n + 1))
            for i in range(1, n + 1):
                assert b.isa[b.sa[i - 1] - 1] == i
                # psi advances one text position
                assert b.sa[b.psi[i - 1] - 1] == b.sa[i - 1] % n + 1
                # bwt holds the preceding symbol, cyclically
                prev = (b.sa[i - 1] - 2) % n
                assert b.bwt[i - 1] == t.symbols[prev]

    def test_single_symbol_text(self):
        b = build_bundle(ingest(b"aaaa"))
        assert b.sa.tolist() == [5, 4, 3, 2, 1]

    def test_widths(self, width):
        b = build_bundle(ingest(T1))
        assert b.sa.dtype == b.psi.dtype == b.isa.dtype == width
        assert b.sa.tolist() == [7, 6, 3, 4, 1, 5, 2]
        assert b.isa.tolist() == [5, 7, 3, 4, 6, 2, 1]
        assert b.psi.tolist() == [5, 1, 4, 6, 7, 2, 3]

    def test_bwt_dtype(self):
        # the narrowest unsigned type that holds sigma
        assert build_bundle(ingest(T1)).bwt.dtype == np.uint8
        every = bytes(range(1, 256))
        b = build_bundle(ingest(every))
        assert b.bwt.dtype == np.uint16
        assert sorted(b.bwt.tolist()) == list(range(1, 257))


def suffix_array(data):
    """1-based suffix array of data by _suffix_array, as a list."""
    return (_suffix_array(ingest(data).symbols) + 1).tolist()


def naive_sa(data):
    return naive_suffix_array(ingest(data).symbols)


class TestSuffixArray:
    def test_index_dtype(self, monkeypatch):
        # every value the write path computes, up to n + 1, must fit
        assert textcore.index_dtype(2**31 - 2) == np.int32
        assert textcore.index_dtype(2**31 - 1) == np.int64
        monkeypatch.setattr(textcore, "INT32_MAX", 10)
        assert textcore.index_dtype(9) == np.int32
        assert textcore.index_dtype(10) == np.int64

    def test_both_widths_against_naive(self, width, rng):
        for _ in range(60):
            data = random_text(rng, rng.randrange(1, 300),
                               rng.choice([1, 2, 4, 26]))
            sa = _suffix_array(ingest(data).symbols)
            assert sa.dtype == width
            assert (sa + 1).tolist() == naive_sa(data)

    def test_shortest_texts(self):
        assert _suffix_array([1]).tolist() == [0]
        assert _suffix_array([2, 1]).tolist() == [1, 0]
        assert suffix_array(b"a") == [2, 1]

    def test_unary_and_periodic(self):
        # every suffix but the last shares a long prefix with another, so
        # these need the most doubling rounds
        for k in list(range(1, 65)) + [127, 128, 129, 255, 256, 257, 500]:
            for unit in (b"a", b"ab", b"abc"):
                data = unit * k
                assert suffix_array(data) == naive_sa(data), (unit, k)

    def test_full_byte_alphabet(self):
        # sigma = 256 takes 9 bits a symbol, so 6 symbols seed the ranks
        rng = random.Random(7)
        every = bytes(range(1, 256))
        for data in (every, every * 3, every + every[::-1],
                     bytes(rng.randrange(1, 256) for _ in range(2000))
                     + every):
            assert ingest(data).sigma == 256
            assert suffix_array(data) == naive_sa(data)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_piece_boundaries(self, chunk, width, monkeypatch):
        # pieces of a few slots cut every round at many group boundaries,
        # and a single-symbol text's one group spans every piece
        monkeypatch.setattr(textcore, "CHUNK", chunk)
        rng = random.Random(chunk)
        texts = [b"a" * k for k in (1, 2, 3, 7, 8, 50)]
        for sigma in range(1, 27):
            texts.append(random_text(rng, rng.randrange(1, 120), sigma))
            unit = random_text(rng, rng.randrange(1, 6), sigma)
            texts.append(unit * rng.randrange(1, 40))
        for data in texts:
            sa = _suffix_array(ingest(data).symbols)
            assert sa.dtype == width
            assert (sa + 1).tolist() == naive_sa(data), data

    def test_memory(self):
        # only the first sort holds n-sized int64 arrays: the packed keys,
        # argsort's permutation and the int32 order, 20 bytes a symbol;
        # the rounds sort pieces of whole groups
        text = ingest(toolkit.gen_corpus(100_000, 10, 0.001, seed=1005))
        _, peak, _ = traced(_suffix_array, text.symbols)
        assert peak <= 24 * text.n, peak / text.n

    @pytest.mark.skipif(given is None, reason="needs hypothesis")
    def test_arbitrary_bytes(self):
        @settings(max_examples=300, deadline=None)
        @given(st.lists(st.integers(1, 255), min_size=1,
                        max_size=300).map(bytes))
        def check(data):
            assert suffix_array(data) == naive_sa(data)

        check()


def all_ints(*seqs):
    return all(type(x) is int for seq in seqs for x in seq)


CORPUS = toolkit.gen_corpus(20_000, 4, 0.001, seed=3)

# SHA-256 of each kind's envelope on CORPUS, with the default block size
PINNED = {
    ("rlbwt", None, 0):
        "74d8f1bb47313702a4137c9e5ffd614b1a0b78c190d670621f351aece0a37684",
    ("r-index", None, 0):
        "2ca9ad9031820fe47742e65d957edfa4ba27ab9b8416afb48664988b3d0de394",
    ("r-csa", None, 0):
        "b63a40d84169dad3aa89db44e7630a34836eaaba3ecdc61c235251dc2da0e46f",
    ("sr-index", 8, 0):
        "949536918c7317d3aae1750d4c0cf8eab9c68d2b7f4f406157c4715ac0842f7c",
    ("sr-index", 8, 2):
        "d5133eb83ccbf775245f0e7a85f93d954de471c073077f02e6c95f0a3b83666b",
    ("sr-csa", 8, 0):
        "eb2b456f6ee5ee0747aa15bfab05aaf4d06b2048f84f62e733eeb25adc6846d9",
    ("sr-csa", 8, 2):
        "53007a74dadd61d98f00247da06ab8e1f4f04ba8a6415c85b825e6f9f3bf6dfa",
}


class TestBuilders:
    def test_tables_hold_python_ints(self):
        # numpy scalars would slow every query and break pack_ints
        b = build_bundle(ingest(CORPUS))
        rl = build_rlbwt(b)
        assert all_ints(rl.letters, rl.start.positions, rl.C)
        ri = build_rindex(b, rl)
        assert all_ints(ri.first.positions, ri.samples, ri.first_to_run,
                        ri.mark_map, [ri.sa_last])
        runs = build_psi_runs(b)
        assert all_ints(runs.C, runs.i_psi, runs.first_run,
                        runs.img, *runs.heads.values())
        rc = build_rcsa(b)
        assert all_ints(rc.f_sa, rc.marks_l.positions, rc.mark_map,
                        rc.runs.C, rc.runs.i_psi)

    @pytest.mark.parametrize("kind,s,variant", list(PINNED))
    def test_envelopes_pinned(self, kind, s, variant):
        blob = toolkit.build_index(CORPUS, kind, s=s,
                                   variant=variant).serialize()
        assert hashlib.sha256(blob).hexdigest() == PINNED[kind, s, variant]

    @pytest.mark.parametrize("kind,s,variant", list(PINNED))
    def test_envelopes_pinned_int64(self, kind, s, variant, monkeypatch):
        # the int64 write path, which texts of 2**31 - 2 symbols and more
        # take, builds the same envelopes
        monkeypatch.setattr(textcore, "INT32_MAX", 0)
        assert build_bundle(ingest(T1)).sa.dtype == np.int64
        self.test_envelopes_pinned(kind, s, variant)

    def test_bundle_memory(self):
        # the bundle keeps sa as int32 and the bwt as one byte a symbol:
        # 5 bytes a symbol (psi and isa are computed only when read)
        text = ingest(CORPUS)
        b, _, kept = traced(build_bundle, text)
        assert b.n == text.n
        assert kept <= 6 * text.n, kept / text.n

    def test_build_peak_memory(self):
        # the suffix sort's peak: int32 order and ranks, and one round's
        # int64 keys and permutation with its int32 slots, heads and
        # suffixes
        text = ingest(CORPUS)
        _, peak, _ = traced(build_bundle, text)
        assert peak <= 45 * text.n, peak / text.n


class TestOracleSearch:
    def test_matches_naive(self, rng):
        for _ in range(40):
            data = random_text(rng, rng.randrange(2, 150), 2)
            t = ingest(data)
            for _ in range(15):
                m = rng.randrange(1, 6)
                i = rng.randrange(max(1, len(data) - m))
                pat = data[i:i + m] if rng.random() < 0.7 else \
                    bytes(rng.choice(b"abc") for _ in range(m))
                occ, pos = oracle_search(t, pat)
                assert pos == naive_occurrences(data, pat)
                assert occ == len(pos)

    def test_out_of_alphabet(self):
        t = ingest(T1)
        assert oracle_search(t, b"zz") == (0, [])
        assert oracle_search(t, b"") == (0, [])
        assert oracle_search(t, b"a") == (4, [1, 3, 4, 6])

    def test_two_byte_symbols(self):
        # sigma = 256 holds the symbols in uint16; the scan and verify
        # answer as on one-byte symbols
        rng = random.Random(5)
        data = bytes(range(1, 256)) + bytes(rng.randrange(1, 256)
                                            for _ in range(300))
        t = ingest(data)
        assert t.symbols.dtype == np.uint16
        for pat in (data[:1], data[7:9], data[300:305], b"\x01\x02\x03"):
            assert oracle_search(t, pat)[1] == naive_occurrences(data, pat)
        ok, report = toolkit.verify(data, s_values=(2,), seed=1)
        assert ok, report

    def test_terminator_excluded(self):
        t = ingest(b"aba")
        occ, pos = oracle_search(t, b"a")
        assert (occ, pos) == (2, [1, 3])
