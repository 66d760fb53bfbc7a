import random

from conftest import naive_occurrences, random_text, sample_patterns
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
        assert rl.start.positions == [1, 2, 4, 5, 6]
        assert rl.letters == [2, 3, 2, 1, 2]   # a b a $ a
        assert [rl.run_end(p) - rl.run_start(p) + 1
                for p in range(1, 6)] == [1, 2, 1, 1, 2]
        # C for $=1, a=2, b=3
        assert rl.C[1:5] == [0, 1, 5, 7]

    def test_access_and_lf(self):
        _, b, rl = make(T1)
        for j in range(1, 8):
            assert rl.bwt_access(j) == b.bwt[j - 1]
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
            for j in range(1, n + 1):
                assert rl.bwt_access(j) == b.bwt[j - 1]
                assert b.sa[rl.lf_step(j) - 1] == (b.sa[j - 1] - 2) % n + 1
            for c in range(1, t.sigma + 1):
                for j in range(n + 1):
                    assert rl.rank_symbol(c, j) == b.bwt[:j].count(c)
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
        for p in range(1, rl.r + 1):
            e = rl.run_end(p)
            assert rl.run_of(e) == p
            assert rl.is_run_end(e)
            if e < rl.n:
                assert rl.run_of(e + 1) == p + 1
                if rl.run_end(p + 1) > rl.run_start(p + 1):
                    # a longer run's start is not its end
                    assert not rl.is_run_end(rl.start.positions[p])
