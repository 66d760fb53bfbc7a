import random

import pytest

from conftest import naive_occurrences, random_text, sample_patterns
from srindex.rcsa import build_rcsa
from srindex.srcsa import build_srcsa, subsample_back, subsample_rcsa
from srindex.srindex import QueryCounters, subsample
from srindex.textcore import build_bundle, ingest

T1 = b"abaaba"


def make(data, block=8):
    t = ingest(data)
    b = build_bundle(t)
    return t, b, build_rcsa(b, block)


class TestSubsampleBack:
    def test_mirror_of_forward_sweep(self):
        # reflecting the values reflects the decision
        rng = random.Random(50)
        for _ in range(60):
            hi = 700
            vals = sorted(rng.sample(range(hi), rng.randrange(2, 50)))
            for s in (2, 3, 4, 8):
                kept_b, removed_b = subsample_back(vals, s)
                mirrored = sorted(hi - v for v in vals)
                kept_f, removed_f = subsample(mirrored, s)
                assert sorted(hi - v for v in kept_f) == kept_b
                assert {hi - v for v in removed_f} == removed_b

    def test_worked_example_mirrored(self):
        kept, removed = subsample_back([0, 3, 4, 5, 6], 4)
        assert kept == [0, 3, 6]
        assert removed == {4, 5}

    def test_endpoints_kept(self):
        rng = random.Random(51)
        for _ in range(40):
            vals = sorted(rng.sample(range(400), rng.randrange(1, 30)))
            kept, removed = subsample_back(vals, 6)
            assert kept[0] == vals[0] and kept[-1] == vals[-1]
            assert set(kept) | removed == set(vals)


class TestDegenerationS1:
    def test_payload_content_identical(self):
        rng = random.Random(52)
        for _ in range(20):
            data = random_text(rng, rng.randrange(2, 200), 2)
            _, _, rc = make(data)
            sc = subsample_rcsa(rc, 1, 0)
            assert sc.removed.ones == 0
            assert sc.samples_sub == rc.f_sa
            assert sc.marks_l.positions == rc.marks_l.positions
            assert sc.mark_map == rc.mark_map
            assert sc.sa_first == rc.sa_first

    def test_traces_identical(self):
        rng = random.Random(53)
        for _ in range(20):
            data = random_text(rng, rng.randrange(4, 200), 2)
            t, _, rc = make(data)
            sc = subsample_rcsa(rc, 1, 0)
            for pat in sample_patterns(rng, data, 12):
                syms = t.map_pattern(pat)
                if syms is None:
                    continue
                c = QueryCounters()
                assert sc.locate(syms, counters=c) == rc.locate(syms)
                assert sc.count_toehold(syms) == rc.count_toehold(syms)
                assert c.max_walk == 0 and c.walk_steps == 0

    def test_only_a_full_index_is_subsampled(self):
        _, _, rc = make(b"abracadabra" * 8)
        direct = subsample_rcsa(rc, 4, 1)
        again = subsample_rcsa(subsample_rcsa(rc, 1, 0), 4, 1)
        assert again.samples_sub == direct.samples_sub
        assert again.mark_map == direct.mark_map
        assert direct.removed.ones
        with pytest.raises(ValueError):
            subsample_rcsa(direct, 2)


class TestQueries:
    def test_locate_vs_oracle_all_variants(self):
        rng = random.Random(54)
        for _ in range(25):
            data = random_text(rng, rng.randrange(2, 220), rng.choice([2, 4]))
            t, _, rc = make(data, 4)
            subs = [(s, v, subsample_rcsa(rc, s, v))
                    for s in (1, 2, 3, 4, 8, 64) for v in (0, 1, 2)]
            for pat in sample_patterns(rng, data, 20):
                syms = t.map_pattern(pat)
                want = naive_occurrences(data, pat)
                for s, v, sc in subs:
                    counters = QueryCounters()
                    got = [] if syms is None else \
                        sorted(sc.locate(syms, counters=counters))
                    assert got == want, (data, pat, s, v)
                    assert counters.max_walk < s, (data, pat, s, v)

    def test_variants_agree_exactly(self):
        rng = random.Random(55)
        for _ in range(15):
            data = random_text(rng, rng.randrange(4, 200), 2)
            t, _, rc = make(data, 4)
            for s in (2, 4, 8):
                ixs = [subsample_rcsa(rc, s, v) for v in (0, 1, 2)]
                for pat in sample_patterns(rng, data, 10):
                    syms = t.map_pattern(pat)
                    if syms is None:
                        continue
                    results = [sorted(ix.locate(syms)) for ix in ixs]
                    assert results[0] == results[1] == results[2]

    def test_toehold_walk_bounded_and_correct(self):
        rng = random.Random(56)
        for _ in range(15):
            data = random_text(rng, rng.randrange(4, 200), 2)
            t, b, rc = make(data, 4)
            for s in (2, 4, 8):
                sc = subsample_rcsa(rc, s, 0)
                for pat in sample_patterns(rng, data, 10):
                    syms = t.map_pattern(pat)
                    if syms is None:
                        continue
                    c = QueryCounters()
                    th = sc.count_toehold(syms, counters=c)
                    assert c.max_walk < s
                    if th is not None:
                        sp, ep, first = th
                        assert first == b.sa[sp - 1], (data, pat, s)


class TestBuild:
    def test_build_from_bundle(self):
        t = ingest(T1)
        b = build_bundle(t)
        sc = build_srcsa(b, 2, 2, block=4)
        assert sc.s == 2 and sc.variant == 2
        assert sorted(sc.locate(t.map_pattern(b"ab"))) == [1, 4]

    def test_largest_sample_survives(self):
        rng = random.Random(57)
        for _ in range(15):
            data = random_text(rng, rng.randrange(2, 150), 2)
            _, b, rc = make(data)
            for s in (2, 8, 10_000):
                sc = subsample_rcsa(rc, s, 0)
                assert sc.samples_sub[0] == b.n  # SA[1] = n is run 1's head
