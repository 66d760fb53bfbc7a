import importlib
import math
import random

import pytest

from conftest import naive_occurrences, random_text, sample_patterns
from srindex import srindex, toolkit
from srindex.rindex import build_rindex
from srindex.srindex import (QueryCounters, build_srindex, subsample,
                             subsample_rindex)
from srindex.textcore import build_bundle, ingest

T1 = b"abaaba"


def make(data):
    t = ingest(data)
    b = build_bundle(t)
    return t, b, build_rindex(b)


class TestSubsample:
    def test_worked_example(self):
        kept, removed = subsample([0, 1, 2, 3, 6], 4)
        assert kept == [0, 3, 6]
        assert removed == {1, 2}

    def test_endpoints_always_kept(self):
        rng = random.Random(30)
        for _ in range(100):
            vals = sorted(rng.sample(range(500), rng.randrange(1, 40)))
            for s in (1, 2, 4, 8, 64):
                kept, removed = subsample(vals, s)
                assert kept[0] == vals[0] and kept[-1] == vals[-1]
                assert set(kept) | removed == set(vals)
                assert not set(kept) & removed

    def test_s1_removes_nothing(self):
        vals = list(range(0, 40, 2))
        assert subsample(vals, 1) == (vals, set())

    def test_kept_bound(self):
        # |kept| <= min(r, 2*ceil(n/(s+1)))
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(4, 400)
            vals = sorted(rng.sample(range(n), rng.randrange(2, n)))
            for s in (1, 2, 4, 8, 16):
                kept, _ = subsample(vals, s)
                assert len(kept) <= min(len(vals), 2 * math.ceil(n / (s + 1)))

    def test_spacing_around_removed(self):
        rng = random.Random(32)
        for _ in range(60):
            vals = sorted(rng.sample(range(600), rng.randrange(3, 60)))
            for s in (2, 3, 8):
                kept, removed = subsample(vals, s)
                for v in removed:
                    assert any(abs(v - u) <= s for u in kept), (vals, s, v)

    def test_kept_count_nonincreasing_in_s(self):
        rng = random.Random(33)
        for _ in range(40):
            vals = sorted(rng.sample(range(500), rng.randrange(2, 50)))
            counts = [len(subsample(vals, s)[0]) for s in (1, 2, 4, 8, 16, 64)]
            assert counts == sorted(counts, reverse=True)


class TestDegenerationS1:
    def test_payload_content_identical(self):
        rng = random.Random(34)
        for _ in range(20):
            data = random_text(rng, rng.randrange(2, 200), 2)
            _, _, ri = make(data)
            si = subsample_rindex(ri, 1, 0)
            assert si.removed.ones == 0
            assert si.samples_sub == ri.samples
            assert si.marks.positions == ri.first.positions
            r = ri.rl.r
            want_map = [p - 1 if p >= 2 else r for p in ri.first_to_run]
            assert si.mark_map == want_map
            assert si.sa_last == ri.sa_last

    def test_traces_identical(self):
        rng = random.Random(35)
        for _ in range(20):
            data = random_text(rng, rng.randrange(4, 200), 2)
            t, _, ri = make(data)
            si = subsample_rindex(ri, 1, 0)
            for pat in sample_patterns(rng, data, 12):
                syms = t.map_pattern(pat)
                if syms is None:
                    continue
                c = QueryCounters()
                got = si.locate(syms, counters=c)
                assert got == ri.locate(syms)  # same emission order
                assert si.count_toehold(syms) == ri.count_toehold(syms)
                assert c.max_walk == 0 and c.walk_steps == 0

    def test_only_a_full_index_is_subsampled(self):
        # an sr-index at s = 1 is a full index and subsamples like one;
        # one that lost samples would pair its marks with the wrong runs
        data = b"abracadabra" * 8
        t, _, ri = make(data)
        s1 = subsample_rindex(ri, 1, 2)
        again = subsample_rindex(s1, 4, 2)
        direct = subsample_rindex(ri, 4, 2)
        assert again.marks.positions == direct.marks.positions
        assert again.mark_map == direct.mark_map
        assert again.locate(t.map_pattern(b"abra"), sort=True) == \
            naive_occurrences(data, b"abra")
        assert direct.removed.ones
        with pytest.raises(ValueError):
            subsample_rindex(direct, 2)


class TestQueries:
    def test_locate_vs_oracle_all_variants(self):
        rng = random.Random(36)
        for _ in range(25):
            data = random_text(rng, rng.randrange(2, 220), rng.choice([2, 4]))
            t, _, ri = make(data)
            subs = [(s, v, subsample_rindex(ri, s, v))
                    for s in (1, 2, 3, 4, 8, 64) for v in (0, 1, 2)]
            for pat in sample_patterns(rng, data, 20):
                syms = t.map_pattern(pat)
                want = naive_occurrences(data, pat)
                for s, v, si in subs:
                    counters = QueryCounters()
                    got = [] if syms is None else \
                        sorted(si.locate(syms, counters=counters))
                    assert got == want, (data, pat, s, v)
                    assert counters.max_walk < s, (data, pat, s, v)
                    assert si.count(syms or [0]) == len(want)

    def test_variants_agree_exactly(self):
        rng = random.Random(37)
        for _ in range(15):
            data = random_text(rng, rng.randrange(4, 200), 2)
            t, _, ri = make(data)
            for s in (2, 4, 8):
                ixs = [subsample_rindex(ri, s, v) for v in (0, 1, 2)]
                for pat in sample_patterns(rng, data, 10):
                    syms = t.map_pattern(pat)
                    if syms is None:
                        continue
                    results = [sorted(ix.locate(syms)) for ix in ixs]
                    assert results[0] == results[1] == results[2]

    def test_toehold_walk_bounded(self):
        rng = random.Random(38)
        for _ in range(15):
            data = random_text(rng, rng.randrange(4, 200), 2)
            t, b, ri = make(data)
            for s in (2, 4, 8):
                si = subsample_rindex(ri, s, 0)
                for pat in sample_patterns(rng, data, 10):
                    syms = t.map_pattern(pat)
                    if syms is None:
                        continue
                    c = QueryCounters()
                    th = si.count_toehold(syms, counters=c)
                    assert c.max_walk < s
                    if th is not None:
                        sp, ep, last = th
                        assert last == b.sa[ep - 1], (data, pat, s)


class TestBuild:
    def test_build_from_bundle(self):
        t = ingest(T1)
        b = build_bundle(t)
        si = build_srindex(b, 2, 1)
        assert si.s == 2 and si.variant == 1
        assert sorted(si.locate(t.map_pattern(b"ab"))) == [1, 4]

    def test_extreme_s_keeps_two(self):
        rng = random.Random(39)
        data = random_text(rng, 150, 2)
        _, _, ri = make(data)
        si = subsample_rindex(ri, 10_000, 0)
        assert len(si.samples_sub) == 2
        t = ingest(data)
        pat = data[3:7]
        assert sorted(si.locate(t.map_pattern(pat))) == \
            naive_occurrences(data, pat)


class Logged(list):
    """A phi table that logs each read into events."""

    def __init__(self, items, name, events):
        super().__init__(items)
        self.name, self.events = name, events

    def __getitem__(self, g):
        self.events.append((self.name, g))
        return super().__getitem__(g)


@pytest.mark.parametrize("kind,phi,marks", [("sr-index", "phi", "marks"),
                                            ("sr-csa", "iphi", "marks_l")])
@pytest.mark.parametrize("variant", [1, 2])
def test_reused_step_costs_one_mark_rank(kind, phi, marks, variant,
                                         monkeypatch):
    # locate searches the marks once per phi step (iphi on the Psi side)
    # and once per reuse attempt, which reads the gap's lim and, when the
    # reuse is safe, its offs: every search of the marks is followed by a
    # read of lim or offs at the gap it found, and every read follows its
    # own search
    data = toolkit.gen_corpus(2_000, 4, 0.01, seed=3)
    bi = toolkit.build_index(data, kind, s=4, variant=variant, block=4)
    ix = bi.ix
    assert getattr(type(ix), phi) is srindex.Subsampled.phi
    positions = getattr(ix, marks).positions
    events = []
    search = srindex.bisect_right

    def logged_search(seq, x, *bounds):
        g = search(seq, x, *bounds)
        if seq is positions:
            events.append(("search", g))
        return g

    monkeypatch.setattr(srindex, "bisect_right", logged_search)
    ix.offs = Logged(ix.offs, "offs", events)
    ix.lim = Logged(ix.lim, "lim", events)
    for i in range(0, len(data) - 8, 61):
        pat = data[i:i + 8]
        assert sorted(bi.locate(pat)) == naive_occurrences(data, pat)
    steps = {"phi": 0, "reused": 0, "refused": 0}
    at = 0
    while at < len(events):
        (what, g), at = events[at], at + 1
        assert what == "search", events[at - 5:at]
        reads = []
        while at < len(events) and events[at][0] != "search":
            reads.append(events[at])
            at += 1
        assert all(gap == g for _, gap in reads), reads
        kinds = [name for name, _ in reads]
        if kinds == ["offs"]:
            steps["phi"] += 1
        elif kinds == ["lim", "offs"]:
            steps["reused"] += 1
        else:
            assert kinds == ["lim"], kinds
            steps["refused"] += 1
    assert steps["reused"] and steps["phi"] + steps["refused"]


LOCATING = [("r-index", None, 0), ("r-csa", None, 0)] + [
    (kind, s, v) for kind in ("sr-index", "sr-csa") for s in (1, 4)
    for v in (0, 1, 2)]


@pytest.mark.parametrize("kind,s,variant", LOCATING)
def test_resolved_position_costs_one_run_search(kind, s, variant,
                                                monkeypatch):
    # locate and the toehold recovery walk search the run starts once for
    # each position they resolve through its run: the search finds run q,
    # slot[q] is read, and then exactly one of its sample (a position
    # resolved at the run's sampled edge), img[q-1] (a piece or walk step
    # one level deeper) or offs (phi filling a run piece at depth s - 1);
    # and no sample or img is read without its own run search
    data = toolkit.gen_corpus(2_000, 4, 0.01, seed=3)
    bi = toolkit.build_index(data, kind, s=s, variant=variant, block=4)
    ix = bi.ix
    runs = ix._direction()[0]
    starts = runs.starts
    events = []
    search = srindex.bisect_right

    def logged_search(seq, x, *bounds):
        q = search(seq, x, *bounds)
        if seq is starts:
            events.append(("run", q))
        return q

    monkeypatch.setattr(srindex, "bisect_right", logged_search)
    ix.slot = Logged(ix.slot, "slot", events)
    ix.samples_sub = Logged(ix.samples_sub, "sample", events)
    ix.offs = Logged(ix.offs, "offs", events)
    # the Psi side's backward search bisects img: keep those reads out
    img, runs.img = runs.img, Logged(runs.img, "img", events)
    toehold_search = runs.toehold_search

    def quiet_toehold_search(syms):
        logged, runs.img = runs.img, img
        try:
            return toehold_search(syms)
        finally:
            runs.img = logged

    monkeypatch.setattr(runs, "toehold_search", quiet_toehold_search)
    for i in range(0, len(data) - 8, 61):
        pat = data[i:i + 8]
        assert sorted(bi.locate(pat)) == naive_occurrences(data, pat)
    after = {"sample": 0, "img": 0, "offs": 0}
    for at, (what, x) in enumerate(events):
        if what == "run":
            assert events[at + 1] == ("slot", x), events[at:at + 3]
            name, y = events[at + 2]
            assert name in after and (name != "img" or y == x - 1)
            after[name] += 1
        elif what in ("sample", "img"):
            assert events[at - 2][0] == "run", events[at - 2:at + 1]
    assert after["sample"]
    assert bool(after["img"]) == ((s or 1) > 1)


@pytest.mark.parametrize("kind", ["sr-index", "sr-csa"])
def test_depth_s_minus_1_costs_no_reuse_question(kind, monkeypatch):
    # at depth s - 1, which is every depth at s = 1, phi fills each run
    # piece: variant 2 asks no reuse question there, so it makes exactly
    # variant 0's searches of the marks and of the run starts
    data = toolkit.gen_corpus(2_000, 4, 0.01, seed=3)
    search = srindex.bisect_right
    logs = []
    for bi in [toolkit.build_index(data, kind, s=1, variant=variant)
               for variant in (0, 2)]:
        tables = {id(bi.ix.marks.positions): "marks",
                  id(bi.ix._direction()[0].starts): "run"}
        log = []
        monkeypatch.setattr(
            srindex, "bisect_right",
            lambda seq, x, *bounds: log.append((tables[id(seq)], x))
            or search(seq, x, *bounds))
        for i in range(0, len(data) - 8, 61):
            pat = data[i:i + 8]
            assert sorted(bi.locate(pat)) == naive_occurrences(data, pat)
        logs.append(log)
    assert logs[0] == logs[1] and len(logs[0]) > 100


@pytest.mark.parametrize("kind", ["r-index", "r-csa"])
def test_toehold_search_makes_two_searches_a_step(kind, monkeypatch):
    # a locate's backward search shares each step's ep search between the
    # range and the toehold: at most two searches per step, as count
    # makes (three, 53 against count's 32 on a 16-symbol pattern, when
    # the toehold had a search of its own)
    data = toolkit.gen_corpus(20_000, 4, 0.001, seed=2)
    bi = toolkit.build_index(data, kind, block=4)
    runs = bi.ix._direction()[0]
    module = importlib.import_module(type(runs).backward_step.__module__)
    calls = []
    search = module.bisect_right
    monkeypatch.setattr(module, "bisect_right",
                        lambda *a: calls.append(1) or search(*a))
    rng = random.Random(4)
    for _ in range(40):
        i = rng.randrange(len(data) - 16)
        syms = bi.map_pattern(data[i:i + 16])
        del calls[:]
        th = runs.toehold_search(syms)
        assert th is not None and len(calls) <= 2 * len(syms)
