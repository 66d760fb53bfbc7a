"""The subsampling build step, srindex.Subsampled._parts and _validity,
against a per-run reference: the step as lists, a set and one loop per
mark, kept here as it stood before it became array work. Both give the
same constructor arguments on both sides, for s from 1 past n and every
variant, so the indexes they build serialize to the same bytes."""

import random
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from conftest import random_text
from srindex.rcsa import build_rcsa
from srindex.rindex import build_rindex
from srindex.srcsa import SrCsa
from srindex.srindex import SrIndex, subsample
from srindex.textcore import build_bundle, ingest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def reference_parts(cls, full, s, variant):
    """The build step of cls's side from the full index full, per run:
    (removed bits, samples_sub, mark positions, mark_map, valid bits,
    valid_area), each a list or None, and the signed kept and lost marks
    that the validity rules read."""
    samples, n, sign = full.samples_sub.tolist(), full.n, -cls.DIR
    _, dropped = subsample(sorted(sign * v for v in samples), s)
    gone = [1 if sign * v in dropped else 0 for v in samples]
    gone_pfx = list(accumulate(gone, initial=0))
    kept, lost = [], []
    for pos, q in zip(full.marks.positions, full.mark_map):
        if gone[q - 1]:
            lost.append(sign * pos)
        else:
            kept.append((pos, q - gone_pfx[q]))
    ms, lost = sorted(sign * p for p, _ in kept), sorted(lost)
    bits = areas = None
    if variant:
        bits, areas = reference_validity(ms, lost, n)
        if sign < 0:
            bits.reverse()
            areas.reverse()
    parts = (gone, [v for v, bit in zip(samples, gone) if not bit],
             [p for p, _ in kept], [slot for _, slot in kept], bits,
             areas if variant == 2 else None)
    return parts, ms, lost


def reference_validity(ms, lost, n):
    """Per gap after each kept mark (cyclically): bit 1 when no removed
    mark lies in it, else bit 0 and the distance to the first one."""
    bits, areas = [], []
    x = len(ms)
    for g in range(x):
        lo = ms[g]
        hi = ms[g + 1] if g + 1 < x else ms[0] + n
        i0 = bisect_right(lost, lo)
        if i0 < len(lost) and lost[i0] < hi:
            first = lost[i0]
        elif g + 1 == x and lost and lost[0] + n < hi:
            first = lost[0] + n
        else:
            bits.append(1)
            continue
        bits.append(0)
        areas.append(first - lo)
    return bits, areas


def as_lists(parts):
    """_parts' constructor arguments in reference_parts' form."""
    removed, samples, marks, mark_map, valid, area = parts
    return (removed.bits().tolist(), np.asarray(samples).tolist(),
            marks.positions.tolist(), np.asarray(mark_map).tolist(),
            None if valid is None else valid.bits().tolist(),
            None if area is None else np.asarray(area).tolist())


def case(ms, lost):
    """Which validity path the kept marks ms and lost ones take: none
    lost, the last gap's first lost mark found only across n, or else."""
    if not lost:
        return "none lost"
    if lost[-1] < ms[-1] and lost[0] < ms[0]:
        return "wrap"
    return "other"


def check_text(data, s_values=None):
    """Compare both sides' build steps on data, every variant, s in
    s_values (by default 1, 2, 3, n and n + 5); returns the cases seen."""
    bundle = build_bundle(ingest(data))
    n = bundle.n
    seen = set()
    fulls = ((SrIndex, build_rindex(bundle)), (SrCsa, build_rcsa(bundle, 4)))
    for cls, full in fulls:
        for s in s_values or (1, 2, 3, n, n + 5):
            for variant in (0, 1, 2):
                want, ms, lost = reference_parts(cls, full, s, variant)
                got = as_lists(cls._parts(full, s, variant))
                assert got == want, (data, cls.__name__, s, variant)
                seen.add(case(ms, lost))
    return seen


TEXTS = st.one_of(
    st.lists(st.integers(97, 99), min_size=1, max_size=200).map(bytes),
    st.builds(lambda unit, reps: (unit * reps)[:200],
              st.lists(st.integers(97, 100), min_size=1, max_size=7)
              .map(bytes), st.integers(1, 60)),
    st.lists(st.integers(1, 255), min_size=1, max_size=120).map(bytes),
)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=TEXTS)
def test_matches_reference(data):
    check_text(data)


def test_seeded_texts_cover_every_validity_case():
    # texts where no mark is lost, and ones where the last gap's first
    # lost mark lies across n (the wrap entry of _validity's search),
    # on both sides and for s from 2 to 8
    rng = random.Random(2024)
    seen = set()
    for _ in range(40):
        data = random_text(rng, rng.randrange(2, 90), rng.randrange(1, 4))
        seen |= check_text(data, (1, 2, 3, 4, 8))
    assert seen == {"none lost", "wrap", "other"}


def test_single_symbol_texts():
    # one run besides the terminator's: r = 2, so the sweep keeps both
    # samples and no mark is lost at any s
    for data in (b"a", b"aa", b"a" * 40):
        assert check_text(data) == {"none lost"}
