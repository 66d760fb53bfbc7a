"""Property-based oracle tests on adversarial texts: every kind, and the
subsampled kinds at s = 1, 2 and n with variants 0, 1 and 2, must count
and locate exactly what the naive scan finds, and a subsampled index's
checked phi (iphi) must answer as the full index's or not at all."""

from bisect import bisect_left, bisect_right

import pytest

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
    # rank_symbol, lf_step and toehold_run search one symbol's run starts;
    # naive counts over the BWT must agree for every symbol and position
    bundle = build_bundle(ingest(data))
    rl = build_rlbwt(bundle)
    n, sigma = bundle.n, rl.sigma
    bwt = bundle.bwt.tolist()
    sa, isa = bundle.sa.tolist(), bundle.isa.tolist()
    counts = [0] * (sigma + 1)
    last = [0] * (sigma + 1)        # last position of c in bwt[1..j]
    run_of = [0]                    # run_of[j], counted from the bwt
    for j in range(n + 1):
        if j:
            c = bwt[j - 1]
            counts[c] += 1
            last[c] = j
            run_of.append(run_of[-1] + (j == 1 or c != bwt[j - 2]))
            # SA[LF(j)] = SA[j] - 1, cyclically
            assert rl.lf_step(j) == isa[(sa[j - 1] - 2) % n], j
        for c in range(1, sigma + 1):
            assert rl.rank_symbol(c, j) == counts[c], (c, j)
            if j:
                want = (None if not last[c] else 0 if last[c] == j
                        else run_of[last[c]])
                assert rl.toehold_run(1, j, c) == want, (c, j)
