import random
import sys
from bisect import bisect_right

from conftest import naive_occurrences, random_text, sample_patterns
from srindex import toolkit
from srindex.rlbwt import build_rlbwt
from srindex.textcore import build_bundle, ingest

T1 = b"abaaba"


def make(data):
    t = ingest(data)
    b = build_bundle(t)
    return t, b, build_rlbwt(b)


class TestCanonical:
    def test_run_structure(self):
        _, b, rl = make(T1)
        assert rl.r == 5
        assert list(rl.start.positions) == [1, 2, 4, 5, 6]
        assert rl.letters == [2, 3, 2, 1, 2]   # a b a $ a
        # run q spans starts[q-1] .. starts[q] - 1
        assert list(rl.starts) == [1, 2, 4, 5, 6, 8]
        # in (symbol, position) order, $'s run, a's three, b's one: their
        # first positions, their LF images with the n + 1 sentinel, and
        # where each symbol's stretch starts (1-based)
        assert list(rl.lex_starts) == [5, 1, 4, 6, 2]
        assert list(rl.lex_img) == [1, 2, 3, 4, 6, 8]
        assert rl.first_run == [1, 1, 2, 5, 6]
        # C for $=1, a=2, b=3
        assert rl.C[1:5] == [0, 1, 5, 7]

    def test_access_and_lf(self):
        _, b, rl = make(T1)
        for j in range(1, 8):
            assert rl.letters[bisect_right(rl.starts, j) - 1] == b.bwt[j - 1]
            # definitional LF: SA[LF(j)] = SA[j]-1 (cyclically)
            assert b.sa[rl.lf_step(j) - 1] == (b.sa[j - 1] - 2) % 7 + 1

    def test_backward_search(self):
        t, _, rl = make(T1)
        assert rl.count_range(t.map_pattern(b"a")) == (2, 5)
        assert rl.count_range(t.map_pattern(b"ab")) == (4, 5)
        assert rl.count_range(t.map_pattern(b"bb")) is None
        assert rl.count(t.map_pattern(b"abaaba")) == 1


class TestRandom:
    def test_access_rank_lf(self):
        rng = random.Random(10)
        for _ in range(40):
            data = random_text(rng, rng.randrange(2, 200), rng.choice([2, 4]))
            t, b, rl = make(data)
            n = t.n
            letters = rl.letters
            for j in range(1, n + 1):
                assert letters[bisect_right(rl.starts, j) - 1] == b.bwt[j - 1]
                assert b.sa[rl.lf_step(j) - 1] == (b.sa[j - 1] - 2) % n + 1
            # a step from (1, j) counts c in bwt[1..j]
            for c in range(1, t.sigma + 1):
                for j in range(n + 1):
                    k = b.bwt[:j].tolist().count(c)
                    C = rl.C[c]
                    want = (C + 1, C + k) if k else None
                    step = rl.backward_step(1, j, c)
                    assert (step and step[:2]) == want
            # psi and lf are mutually inverse
            for j in range(1, n + 1):
                assert b.psi[rl.lf_step(j) - 1] == j

    def test_count_vs_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            data = random_text(rng, rng.randrange(2, 250), rng.choice([2, 4]))
            t, _, rl = make(data)
            for pat in sample_patterns(rng, data, 25):
                syms = t.map_pattern(pat)
                want = len(naive_occurrences(data, pat))
                got = 0 if syms is None else rl.count(syms)
                assert got == want, (data, pat)

    def test_run_end_helpers(self):
        rng = random.Random(12)
        data = random_text(rng, 120, 2)
        _, b, rl = make(data)
        # run p ends at starts[p] - 1, and a search of starts finds it there
        for p in range(1, rl.r + 1):
            e = rl.starts[p] - 1
            assert bisect_right(rl.starts, e) == p
            if e < rl.n:
                assert bisect_right(rl.starts, e + 1) == p + 1
                assert b.bwt[e - 1] != b.bwt[e]


class TestPairBuckets:
    def test_canonical_table(self):
        # abaaba: sigma = 3, r = 5, so shift = bitlen(3 * 7 // 5) = 3 and
        # each symbol's section has (8 >> 3) + 1 = 2 buckets; $'s run
        # starts at 5 (bucket 0), a's at 1, 4, 6 (bucket 0), b's at 2
        _, _, rl = make(T1)
        assert (rl.lex_shift, rl.lex_width) == (3, 2)
        assert list(rl.lex_bucket) == [0, 1, 1, 4, 4, 5, 5]

    def test_table_size(self):
        # at most r + sigma + 1 entries, in the narrowest type for r: on
        # the baseline corpus (r = 11,306) 2 bytes a run or less
        data = toolkit.gen_corpus(100_000, 10, 0.001, seed=1005)
        _, _, rl = make(data)
        assert len(rl.lex_bucket) <= rl.r + rl.sigma + 1
        assert rl.lex_bucket.itemsize == 2
        assert sys.getsizeof(rl.lex_bucket) <= 2 * rl.r
