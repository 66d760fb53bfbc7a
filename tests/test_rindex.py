import random

from conftest import naive_occurrences, random_text, sample_patterns
from srindex.rindex import build_rindex
from srindex.textcore import build_bundle, ingest

T1 = b"abaaba"


def make(data):
    t = ingest(data)
    b = build_bundle(t)
    return t, b, build_rindex(b)


class TestCanonical:
    def test_marks_and_samples(self):
        _, _, ri = make(T1)
        assert [p - 1 for p in ri.first.positions] == [0, 3, 4, 5, 6]
        assert list(ri.samples) == [6, 2, 3, 0, 1]
        assert ri.sa_last == 2

    def test_toehold(self):
        t, _, ri = make(T1)
        assert ri.count_toehold(t.map_pattern(b"ab")) == (4, 5, 1)
        assert ri.count_toehold(t.map_pattern(b"a")) == (2, 5, 1)
        assert ri.count_toehold(t.map_pattern(b"bb")) is None

    def test_locate(self):
        t, _, ri = make(T1)
        assert sorted(ri.locate(t.map_pattern(b"a"))) == [1, 3, 4, 6]
        assert sorted(ri.locate(t.map_pattern(b"ab"))) == [1, 4]
        assert ri.locate(t.map_pattern(b"ab"), sort=True) == [1, 4]


class TestPhi:
    def test_definitional(self):
        rng = random.Random(20)
        for _ in range(50):
            data = random_text(rng, rng.randrange(2, 250),
                               rng.choice([2, 4, 26]))
            _, b, ri = make(data)
            for j in range(2, b.n + 1):
                assert ri.phi(b.sa[j - 1] - 1) == b.sa[j - 2], (data, j)

    def test_cyclic_wrap(self):
        # phi(SA[1]-1) wraps to SA[n]
        rng = random.Random(21)
        for _ in range(20):
            data = random_text(rng, rng.randrange(2, 150), 2)
            _, b, ri = make(data)
            assert ri.phi(b.sa[0] - 1) == b.sa[b.n - 1]

    def test_full_cycle_is_permutation(self):
        _, b, ri = make(T1)
        seen = set()
        v = b.sa[0]
        for _ in range(b.n):
            seen.add(v)
            v = ri.phi(v - 1)
        assert seen == set(range(1, b.n + 1))


class TestQueries:
    def test_locate_vs_oracle(self):
        rng = random.Random(22)
        for _ in range(40):
            data = random_text(rng, rng.randrange(2, 250), rng.choice([2, 4]))
            t, _, ri = make(data)
            for pat in sample_patterns(rng, data, 25):
                syms = t.map_pattern(pat)
                want = naive_occurrences(data, pat)
                got = [] if syms is None else sorted(ri.locate(syms))
                assert got == want, (data, pat)

    def test_toehold_tracks_sa_ep(self):
        rng = random.Random(23)
        for _ in range(25):
            data = random_text(rng, rng.randrange(2, 150), 2)
            t, b, ri = make(data)
            for pat in sample_patterns(rng, data, 15):
                syms = t.map_pattern(pat)
                if syms is None:
                    continue
                th = ri.count_toehold(syms)
                if th is not None:
                    sp, ep, last = th
                    assert last == b.sa[ep - 1]
