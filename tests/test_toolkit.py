import random

import pytest

from conftest import naive_occurrences, random_text, sample_patterns
from srindex import envelope, toolkit
from srindex.succinct import DenseBitvector
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
        ("r-csa", None, 0, lambda ix: ix.mark_map.__setitem__(0, 10**6),
         "mark_map"),
        ("r-csa", None, 0, lambda ix: ix.mark_map.pop(), "mark_map"),
        ("r-index", None, 0,
         lambda ix: ix.first_to_run.__setitem__(0, 10**6), "first_to_run"),
        ("sr-index", 4, 0, lambda ix: ix.mark_map.__setitem__(0, 0),
         "mark_map"),
        ("sr-csa", 4, 0,
         lambda ix: ix.mark_map.__setitem__(0, len(ix.samples_sub) + 1),
         "mark_map"),
        ("sr-index", 4, 1,
         lambda ix: setattr(ix, "valid", DenseBitvector([1])), "validity"),
        ("sr-csa", 4, 2, lambda ix: ix.valid_area.append(1), "validity"),
        ("sr-index", 4, 1, lambda ix: ix.valid.words.clear(), "dense"),
        ("sr-index", 4, 0, lambda ix: setattr(
            ix, "removed", DenseBitvector.from_words(
                [ix.removed.words[0] | 1 << ix.removed.n], ix.removed.n)),
         "dense"),
        ("sr-index", 4, 0, lambda ix: ix.marks.positions.__setitem__(
            1, ix.marks.positions[0]), "not increasing"),
    ], ids=["r-csa-map-range", "r-csa-map-short", "r-index-map-range",
            "sr-index-map-zero", "sr-csa-map-range", "sr-index-valid-len",
            "sr-csa-area-len", "dense-words", "dense-past-n",
            "sparse-dup"])
    def test_crafted_tables_rejected(self, kind, s, variant, mutate, match):
        # CRC-valid envelopes whose tables would send locate out of range
        bi = toolkit.build_index(b"abracadabra" * 5, kind, s=s,
                                 variant=variant, block=4)
        mutate(bi.ix)
        with pytest.raises(envelope.FormatError, match=match):
            toolkit.load_index(bi.serialize())

    def test_locating_counting_split(self):
        blob = toolkit.build_index(b"abracadabra" * 30, "sr-index",
                                   s=4).serialize()
        loc = envelope.locating_bits(blob)
        cnt = envelope.counting_bits(blob)
        assert loc > 0 and cnt > 0
        assert loc + cnt <= 8 * len(blob)


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
