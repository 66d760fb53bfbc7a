"""Property-based oracle tests on adversarial texts: every kind, and the
subsampled kinds at s = 1, 2 and n with variants 0, 1 and 2, must count
and locate exactly what the naive scan finds, a subsampled index's
checked phi (iphi) must answer as the full index's or not at all, and
the per-run tables must agree with what they stand in for."""

from bisect import bisect_left, bisect_right

import pytest

from srindex.envelope import deserialize, serialize
from srindex.rcsa import build_rcsa
from srindex.rindex import build_rindex
from srindex.rlbwt import build_rlbwt
from srindex.srcsa import subsample_rcsa
from srindex.srindex import subsample_rindex
from srindex.textcore import build_bundle, ingest, oracle_search

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MAX_N = 300
BYTE = st.integers(1, 255)       # 0x00 is reserved for the terminator


TEXTS = st.one_of(
    # periodic: a short unit repeated
    st.builds(lambda unit, reps: (unit * reps)[:MAX_N],
              st.lists(BYTE, min_size=1, max_size=6).map(bytes),
              st.integers(1, MAX_N)),
    # unary: a single BWT run of length n - 1 besides the terminator
    st.builds(lambda c, n: bytes([c]) * n, BYTE, st.integers(1, MAX_N)),
    # sigma = 255: all 255 byte values, in any order, then random ones
    st.builds(lambda perm, tail: bytes(perm) + bytes(tail),
              st.permutations(range(1, 256)),
              st.lists(BYTE, max_size=MAX_N - 255)),
    # distinct symbols only: every BWT run has length 1
    st.lists(BYTE, min_size=1, max_size=255, unique=True).map(bytes),
    # small alphabets
    st.lists(st.integers(97, 99), min_size=1, max_size=MAX_N).map(bytes),
)


def indexes(data, block):
    """(label, index) for all five kinds; sr-* at s = 1, 2 and n with
    variants 0, 1 and 2, all from one suffix-array bundle."""
    bundle = build_bundle(ingest(data))
    rl = build_rlbwt(bundle)
    ri = build_rindex(bundle, rl)
    rc = build_rcsa(bundle, block)
    out = [("rlbwt", rl), ("r-index", ri), ("r-csa", rc)]
    for s in (1, 2, bundle.n):
        for v in (0, 1, 2):
            out.append((f"sr-index s={s} v={v}", subsample_rindex(ri, s, v)))
            out.append((f"sr-csa s={s} v={v}", subsample_rcsa(rc, s, v)))
    return out


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(data=TEXTS, block=st.sampled_from([1, 4, 64]),
                  draws=st.data())
def test_every_kind_matches_oracle(data, block, draws):
    text = ingest(data)
    patterns = [data[i:i + m] for i, m in draws.draw(st.lists(
        st.tuples(st.integers(0, len(data) - 1), st.integers(1, 12)),
        min_size=1, max_size=6))]
    patterns += draws.draw(st.lists(st.lists(BYTE, min_size=1, max_size=4)
                                    .map(bytes), max_size=2))
    for label, ix in indexes(data, block):
        for pat in patterns:
            occ, want = oracle_search(text, pat)
            syms = text.map_pattern(pat)
            assert (0 if syms is None else ix.count(syms)) == occ, label
            if label != "rlbwt":
                got = [] if syms is None else sorted(ix.locate(syms))
                assert got == want, (label, pat)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(data=TEXTS)
def test_checked_phi_is_full_phi_or_none(data):
    # phi(i, True) (iphi on the Psi side) either returns the full index's
    # answer or None; at variant 2 it is None exactly when the full
    # index's nearest mark to i, on the side phi reads it from, was
    # removed; variant 1 gives up wherever variant 2 does
    bundle = build_bundle(ingest(data))
    ri = build_rindex(bundle)
    rc = build_rcsa(bundle, 4)
    sides = [
        # (full index, subsample, phi's name, its marks' name, SA value ->
        #  phi's argument, stored mark nearest that argument)
        (ri, subsample_rindex, "phi", "marks", lambda v: v - 1,
         lambda marks, i: marks[bisect_right(marks, i + 1) - 1]),
        (rc, subsample_rcsa, "iphi", "marks_l", lambda v: v,
         lambda marks, i: marks[bisect_left(marks, i) % len(marks)]),
    ]
    for full, sub, phi, marks, arg, nearest in sides:
        full_marks = getattr(full, marks).positions
        for s in (2, 3, 4, 8):
            ix = {v: sub(full, s, v) for v in (1, 2)}
            kept = set(getattr(ix[2], marks).positions)
            for i in map(arg, bundle.sa):
                want = getattr(full, phi)(i)
                got = {v: getattr(ix[v], phi)(i, True) for v in (1, 2)}
                assert got[1] in (None, want) and got[2] in (None, want)
                removed = nearest(full_marks, i) not in kept
                assert (got[2] is None) == removed, (phi, s, i)
                assert got[2] is not None or got[1] is None, (phi, s, i)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(data=TEXTS)
def test_rank_by_symbol_matches_naive_counts(data):
    # backward_step searches one symbol's run starts, lf_step the run
    # starts; naive counts over the BWT must agree for every symbol and
    # position, at both ends of the range. backward_step's edge is 0 when
    # bwt[j] is c (the toehold SA[ep] just drops by one), else the last c
    # before j, the end of the run whose sample the toehold becomes
    bundle = build_bundle(ingest(data))
    rl = build_rlbwt(bundle)
    n, sigma = bundle.n, rl.sigma
    bwt = bundle.bwt.tolist()
    sa, isa = bundle.sa.tolist(), bundle.isa.tolist()
    total = [bwt.count(c) for c in range(sigma + 1)]
    counts = [0] * (sigma + 1)
    last = [0] * (sigma + 1)        # last position of c in bwt[1..j]
    run_of = [0]                    # run_of[j], counted from the bwt
    before = []                     # before[j][c]: c in bwt[1..j]
    for j in range(n + 1):
        if j:
            c = bwt[j - 1]
            counts[c] += 1
            last[c] = j
            run_of.append(run_of[-1] + (j == 1 or c != bwt[j - 2]))
            # SA[LF(j)] = SA[j] - 1, cyclically
            assert rl.lf_step(j) == isa[(sa[j - 1] - 2) % n], j
        before.append(counts[:])
        for c in range(1, sigma + 1):
            C = rl.C[c]
            # sp' counts c in bwt[1..j] when the range starts at j + 1
            after = total[c] - counts[c]
            want = (C + counts[c] + 1, C + total[c]) if after else None
            step = rl.backward_step(j + 1, n, c)
            assert (step and step[:2]) == want, (c, j)
            if j:
                want = (None if not last[c] else
                        (C + 1, C + counts[c], 0 if last[c] == j else last[c]))
                assert rl.backward_step(1, j, c) == want, (c, j)
                if want and want[2]:
                    # the edge ends a run, the one that holds last[c]
                    q = bisect_right(rl.starts, want[2])
                    assert rl.starts[q] - 1 == want[2]
                    assert q == run_of[last[c]]
                # the edge depends on ep alone; the range counts c on
                # both sides of sp
                sp = (j + 1) // 2
                lo = C + before[sp - 1][c] + 1
                edge = want and want[2]
                want = (lo, C + counts[c], edge) if lo <= C + counts[c] \
                    else None
                assert rl.backward_step(sp, j, c) == want, (c, sp, j)


def located(data, block):
    """(label, index) for every locating kind, built and loaded: the full
    indexes, and the subsampled ones at s = 1, 2 and 4 with variants 0, 1
    and 2; plus the suffix-array bundle they come from."""
    text = ingest(data)
    bundle = build_bundle(text)
    ri = build_rindex(bundle)
    rc = build_rcsa(bundle, block)
    built = [("r-index", ri), ("r-csa", rc)] + [
        (f"{name} s={s} v={v}", sub(full, s, v))
        for name, full, sub in (("sr-index", ri, subsample_rindex),
                                ("sr-csa", rc, subsample_rcsa))
        for s in (1, 2, 4) for v in (0, 1, 2)]
    return bundle, built + [
        (f"loaded {label}", deserialize(serialize(ix, text.alphabet))[0])
        for label, ix in built]


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(data=TEXTS, block=st.sampled_from([1, 4, 64]))
def test_per_run_tables_match_what_they_replace(data, block):
    # starts, img and slot stand where run_of, lf_step/psi and `removed`
    # were: a step read from img is LF (Psi) of every position, slot[q]
    # is nonzero exactly when run q's sample survives and then points at
    # it, and the flat heads' backward and toehold steps answer as a
    # scan of c's block does, for every range end
    bundle, indexes = located(data, block)
    n = bundle.n
    sa, isa, psi = bundle.sa.tolist(), bundle.isa.tolist(), bundle.psi.tolist()
    for label, ix in indexes:
        bwt_side = ix.DIR < 0
        runs = ix.rl if bwt_side else ix.runs
        starts, img, r = runs.starts, runs.img, runs.r
        assert len(starts) == r + 1 and starts[0] == 1 and starts[r] == n + 1
        for j in range(1, n + 1):
            q = bisect_right(starts, j)
            want = isa[(sa[j - 1] - 2) % n] if bwt_side else psi[j - 1]
            assert img[q - 1] + j - starts[q - 1] == want, (label, j)
        kept = set(ix.samples_sub)
        assert len(ix.slot) == r + 1 and ix.slot[0] == 0
        for q in range(1, r + 1):
            # run q's sample: SA at its end minus one (BWT), SA at its head
            sample = (sa[starts[q] - 2] - 1 if bwt_side
                      else sa[starts[q - 1] - 1])
            t = ix.slot[q]
            assert (t != 0) == (sample in kept), (label, q)
            assert not t or ix.samples_sub[t - 1] == sample, (label, q)
        # the sr-CSAs hold the r-CSA's run structure (built) or one decoded
        # from the same sections (loaded): scan the r-CSA's
        if label not in ("r-csa", "loaded r-csa"):
            continue
        for c in range(1, runs.sigma + 1):
            block_c = range(runs.C[c] + 1, runs.C[c + 1] + 1)
            ends = [(1, x) for x in range(1, n + 1)] + [
                (x, n) for x in range(2, n + 1)] + [
                (x, x) for x in range(2, n)]
            for sp, ep in ends:
                hits = [i for i in block_c if sp <= psi[i - 1] <= ep]
                want = None
                if hits:
                    # the toehold SA[sp] drops by one when sp is Psi of
                    # the new sp, else it is the new sp's run head sample
                    edge = 0 if psi[hits[0] - 1] == sp else hits[0]
                    assert not edge or edge in starts
                    want = (hits[0], hits[-1], edge)
                assert runs.backward_step(sp, ep, c) == want, (label, c)
