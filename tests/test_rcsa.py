import random

import pytest

from conftest import naive_occurrences, random_text, sample_patterns
from srindex.rcsa import build_psi_runs, build_rcsa
from srindex.rlbwt import build_rlbwt
from srindex.textcore import build_bundle, ingest

T1 = b"abaaba"


def make(data, block=64):
    t = ingest(data)
    b = build_bundle(t)
    return t, b, build_rcsa(b, block)


class TestCanonical:
    def test_run_structure(self):
        _, _, rc = make(T1)
        runs = rc.runs
        assert runs.r == 5
        assert runs.i_psi == [1, 2, 3, 4, 6]
        assert rc.f_sa == [7, 6, 3, 4, 5]
        assert [runs.head_value(q) for q in range(1, 6)] == [5, 1, 4, 6, 2]
        assert [runs.tail_value(q) for q in range(1, 6)] == [5, 1, 4, 7, 3]

    def test_marks(self):
        _, _, rc = make(T1)
        assert rc.marks_l.positions == [1, 2, 3, 6, 7]
        assert rc.mark_map == [5, 1, 4, 3, 2]

    def test_iphi_values(self):
        _, _, rc = make(T1)
        assert rc.iphi(7) == 6
        assert rc.iphi(6) == 3
        assert rc.iphi(3) == 4
        assert rc.iphi(2) == 7   # wraps: SA[n] -> SA[1]

    def test_toehold_and_locate(self):
        t, _, rc = make(T1)
        assert rc.count_toehold(t.map_pattern(b"ab")) == (4, 5, 4)
        assert sorted(rc.locate(t.map_pattern(b"a"))) == [1, 3, 4, 6]
        assert sorted(rc.locate(t.map_pattern(b"ab"))) == [1, 4]


class TestPsi:
    @pytest.mark.parametrize("block", [1, 8, 64, 100_000])
    def test_psi_apply(self, block):
        rng = random.Random(40)
        for _ in range(15):
            data = random_text(rng, rng.randrange(2, 220),
                               rng.choice([2, 4, 26]))
            _, b, rc = make(data, block)
            for i in range(1, b.n + 1):
                assert rc.runs.psi(i) == b.psi[i - 1], (data, i, block)

    def test_confined_run_count_equals_r(self):
        rng = random.Random(41)
        for _ in range(40):
            data = random_text(rng, rng.randrange(2, 300),
                               rng.choice([2, 4, 26]))
            t = ingest(data)
            b = build_bundle(t)
            runs = build_psi_runs(b)
            rl = build_rlbwt(b)
            assert runs.r == rl.r, data

    def test_backward_step_matches_rlbwt(self):
        rng = random.Random(42)
        for _ in range(20):
            data = random_text(rng, rng.randrange(2, 200), 2)
            t, b, rc = make(data, 4)
            rl = build_rlbwt(b)
            for _ in range(30):
                sp = rng.randrange(1, t.n + 1)
                ep = rng.randrange(sp, t.n + 1)
                c = rng.randrange(1, t.sigma + 1)
                assert rc.runs.backward_step((sp, ep), c) == \
                    rl.backward_step((sp, ep), c)


class TestIphi:
    def test_definitional(self):
        rng = random.Random(43)
        for _ in range(40):
            data = random_text(rng, rng.randrange(2, 250),
                               rng.choice([2, 4, 26]))
            _, b, rc = make(data, 8)
            for i in range(1, b.n):
                assert rc.iphi(b.sa[i - 1]) == b.sa[i], (data, i)
            # the wrap closes the cycle
            assert rc.iphi(b.sa[b.n - 1]) == b.sa[0]

    def test_forward_step_identity(self):
        # SA[i+1] = SA[l+1] - (SA[l] - SA[i]) with l the position of the
        # nearest run-tail mark at or above SA[i]
        rng = random.Random(44)
        for _ in range(30):
            data = random_text(rng, rng.randrange(2, 200), 2)
            _, b, rc = make(data, 8)
            n = b.n
            for i in range(1, n):
                x = b.sa[i - 1]
                m = rc.marks_l.successor1(x)
                assert m is not None
                l = b.isa[m - 1]
                nxt = b.sa[0] if l == n else b.sa[l]
                assert b.sa[i] == nxt - (b.sa[l - 1] - x), (data, i)


class TestQueries:
    @pytest.mark.parametrize("block", [1, 4, 64])
    def test_locate_vs_oracle(self, block):
        rng = random.Random(45)
        for _ in range(20):
            data = random_text(rng, rng.randrange(2, 220), rng.choice([2, 4]))
            t, b, rc = make(data, block)
            for pat in sample_patterns(rng, data, 20):
                syms = t.map_pattern(pat)
                want = naive_occurrences(data, pat)
                got = [] if syms is None else sorted(rc.locate(syms))
                assert got == want, (data, pat)
                assert (0 if syms is None else rc.count(syms)) == len(want)

    def test_toehold_tracks_sa_sp(self):
        rng = random.Random(46)
        for _ in range(20):
            data = random_text(rng, rng.randrange(2, 150), 2)
            t, b, rc = make(data, 4)
            for pat in sample_patterns(rng, data, 12):
                syms = t.map_pattern(pat)
                if syms is None:
                    continue
                th = rc.count_toehold(syms)
                if th is not None:
                    sp, ep, first = th
                    assert first == b.sa[sp - 1], (data, pat)
