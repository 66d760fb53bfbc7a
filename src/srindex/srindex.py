"""Subsampled run-sampled locating, written once for both sides.

A left-to-right sweep over the sorted sample values drops a sample when it
and its successor both sit within distance s of the last survivor; first
and last are always kept. Marks whose paired sample was dropped disappear
too. Lost SA values are recovered at query time with walks never longer
than s - 1 steps.

phi is one search on the sorted marks plus one add (Gagie et al., JACM
2020): per mark gap g, the index holds offs[g], phi's value minus its
argument anywhere in the gap. Variants add validity data so phi can be
reused directly when no removed mark blocks it: variant 1 knows per gap
whether one does, variant 2 also how far from the mark the first one
lies. Both are held as lim[g], the bound a reuse in gap g must start
beyond (an integer sentinel past every SA value when every or no value
may), so a reused step costs the same one search. offs and lim are
arrays of the narrowest signed type that holds +-(2n + 2), and the
sentinels are that type's bounds. They are built when the index is built
or loaded and replace the format's tables (mark_map, valid, valid_area),
which are derived from them again on write.

Runs are read from flat per-run tables, a light form of the move tables
of Nishimoto and Tabei (ICALP 2021): the run structure's starts (with an
n + 1 sentinel) and img (LF or Psi of each run's first position), and
the index's own slot[q], the samples_sub slot of run q's sample or 0
when it was dropped. slot replaces the format's `removed` bitvector,
which is derived from it on write. All are narrow typed arrays. A
position is resolved by a reused phi step, which searches only the
marks, or by one search in starts: the run found gives its sample, or
the walk step img[q-1] + j - starts[q-1] of the whole run piece. At
depth s - 1, phi fills the rest. Both searches, like the toehold walk's
and phi's, bisect only the searched value's bucket: the marks and starts
each hold a bucket table, the high parts of their Elias-Fano code
(succinct.buckets), so a search probes one or two values.

The full indexes are the subsampled ones at s = 1, where the sweep drops
nothing: RIndex (rindex.py) is an SrIndex and RCsa (rcsa.py) an SrCsa, so
all four locating kinds count and locate through this one core.

The BWT side (SrIndex, here) and the Psi side (SrCsa, in srcsa.py) differ
only in direction. SrIndex walks LF, samples run ends, resolves a range
right to left and reuses phi; SrCsa walks Psi, samples run heads, resolves
left to right and reuses inverse phi. Everything else lives in Subsampled:
the toehold recovery walk, the range resolver behind locate, phi and its
tables, and the build step, array work over the full index's own tables
but for the sweep's loop, where the Psi side's sweep and validity data
are the BWT side's on mirrored (negated) text positions.
"""

from bisect import bisect_right

import numpy as np

from .succinct import (DenseBitvector, SparseBitvector, int_array,
                       uint_array, view)


class QueryCounters:
    """Per-query instrumentation (walk lengths, recursion depth)."""

    def __init__(self):
        self.max_walk = 0
        self.walks = 0
        self.walk_steps = 0

    def record(self, steps):
        self.walks += 1
        self.walk_steps += steps
        if steps > self.max_walk:
            self.max_walk = steps


def subsample(sorted_values, s):
    """Sweep the sorted sample values; returns (kept list, removed set)."""
    m = len(sorted_values)
    if m <= 2 or s <= 1:
        return list(sorted_values), set()
    kept = [sorted_values[0]]
    removed = set()
    for i in range(1, m - 1):
        if sorted_values[i + 1] - kept[-1] <= s:
            removed.add(sorted_values[i])
        else:
            kept.append(sorted_values[i])
    kept.append(sorted_values[-1])
    return kept, removed


class Subsampled:
    """Locating on subsampled run samples; a subclass fixes the direction.

    DIR is how one walk step changes an SA value (LF: -1, Psi: +1), which
    is also the direction a range resolves in, away from its toehold.
    Samples and phi arguments hold SA values minus SHIFT. An SA value v
    lies in mark gap bisect_right(marks, v + PROBE), and phi gives
    v + offs[gap]; lim[gap] is SAFE when a reuse there is always safe,
    NEVER when it never is (variant 1), else the bound v must lie beyond
    in direction DIR: reuse is safe when (lim[gap] - v) * DIR < 0. Both
    sentinels are per index, the bounds of the signed type that offs and
    lim share, so past every SA value, on the side that makes that test
    always or never hold. Every search of the marks or of the run
    starts looks in the searched value's bucket only (succinct.buckets).
    _direction() gives the run structure and the toehold of the full
    range. A run's sample sits at its end on the BWT side and at its
    start on the Psi side.
    """

    def __init__(self, n, s, variant, removed, samples_sub, marks, mark_map,
                 valid, valid_area):
        self.n = n
        self.s = s
        self.variant = variant
        self.samples_sub = uint_array(n, samples_sub)  # survivors, run order
        self.slot = self._slots(removed, len(samples_sub))
        self.marks = marks                # SparseBitvector of the marks
        self.offs, self.lim = self._tables(mark_map, valid, valid_area)

    @staticmethod
    def _slots(removed, m):
        """slot[q] for runs q = 1..r (slot[0] is 0): the samples_sub slot
        of run q's sample, or 0 when the format's removed bit drops it.
        removed is None for a full index, which keeps all its m samples."""
        if removed is None:
            return uint_array(m, np.arange(m + 1))
        kept = 1 - removed.bits().astype(np.int64)
        return uint_array(removed.n, np.append(0, np.cumsum(kept) * kept))

    @property
    def removed(self):
        """Per run, 1 when its sample was dropped: format v1's bitvector,
        derived from slot."""
        return DenseBitvector(view(self.slot)[1:] == 0)

    def _tables(self, mark_map, valid, valid_area):
        """offs and lim (None at variant 0) from the format's tables: the
        k-th mark pairs with sample mark_map[k], and at variant 1 and up
        valid holds one bit per gap and valid_area the distance of each
        invalid one. One entry per mark, plus the gap that wraps around
        the text: first on the BWT side, last on the Psi side."""
        d, n, variant = self.DIR, self.n, self.variant
        marks = view(self.marks.positions).astype(np.int64)
        if not marks.size:
            raise ValueError("an index needs at least one mark")
        offs = (view(self.samples_sub)[np.asarray(mark_map, dtype=np.int64)
                                       - 1].astype(np.int64)
                + self.SHIFT - marks)
        # the wrap gap is the gap of the last mark (BWT) or the first
        # (Psi), with that mark moved by d * n across the text's end
        src, at = (-1, 0) if d < 0 else (0, marks.size)
        # every value lies within +-2n: n for a gap, n more for the wrap
        offs = int_array(2 * n + 2, np.insert(offs, at, offs[src] - d * n))
        # lim's sentinels are the bounds of the type the tables share
        end = int(np.iinfo(offs.typecode).max)
        self.SAFE, self.NEVER = -d * end, d * end
        lim = None
        if variant:
            # SAFE where valid's bit is set; elsewhere NEVER, or at
            # variant 2 the mark moved by its area against DIR
            lim = np.full(marks.size, self.SAFE, dtype=np.int64)
            gone = valid.bits() == 0
            lim[gone] = self.NEVER if variant == 1 else (
                marks[gone] - d * np.asarray(valid_area, dtype=np.int64))
            x = lim[src]
            lim = int_array(2 * n + 2, np.insert(
                lim, at, x if x in (self.SAFE, self.NEVER) else x + d * n))
        return offs, lim

    def _per_mark(self, table):
        """offs or lim without the wrap gap: one entry per mark."""
        return table[1:] if self.DIR < 0 else table[:-1]

    @property
    def mark_map_array(self):
        """k-th mark -> slot of its sample in samples_sub, the format's
        mark_map as an int64 array, derived from offs (SA samples are
        distinct). Each mark's sample is searched for among the sorted
        samples, the searched values in sorted order too, which is what
        makes searchsorted fast."""
        samples = view(self.samples_sub)
        want = view(self.marks.positions).astype(np.int64)
        want += self._per_mark(view(self.offs))
        want -= self.SHIFT
        order = np.argsort(samples)
        by_want = np.argsort(want)
        slots = np.empty(want.size, dtype=np.int64)
        slots[by_want] = order[np.searchsorted(
            samples[order].astype(np.int64), want[by_want])] + 1
        return slots

    mark_map = property(lambda self: self.mark_map_array.tolist())

    @property
    def valid(self):
        """Per mark gap, 1 when no removed mark lies in it (variant 1 and
        up), derived from lim."""
        if self.lim is not None:
            return DenseBitvector(self._lim_per_mark() == self.SAFE)

    @property
    def valid_area(self):
        """Per invalid gap, the distance from its mark to the first
        removed one (variant 2), derived from lim."""
        if self.variant == 2:
            lim = self._lim_per_mark()
            bad = lim != self.SAFE
            marks = view(self.marks.positions).astype(np.int64)
            return ((marks[bad] - lim[bad]) * self.DIR).tolist()

    def _lim_per_mark(self):
        """lim without the wrap gap, as an int64 array."""
        return self._per_mark(view(self.lim)).astype(np.int64)

    @classmethod
    def _parts(cls, full, s, variant):
        """The build step of both sides, as array work over a full index
        (nothing removed), where run q's sample is samples_sub[q-1] and
        the k-th mark pairs with run mark_map[k]'s. One isin finds the
        sweep's dropped samples, one mask the marks they pair with, and
        one cumsum a kept mark's new slot. The Psi side (DIR = +1) runs
        the BWT side's sweep and validity rules on negated positions.
        Returns the constructor arguments (removed, samples_sub, marks,
        mark_map, valid, valid_area)."""
        if not view(full.slot)[1:].all():
            raise ValueError("only a full index can be subsampled")
        n, sign = full.n, -cls.DIR
        samples = view(full.samples_sub)
        signed = sign * samples.astype(np.int64)
        _, dropped = subsample(np.sort(signed).tolist(), s)
        gone = np.isin(signed, np.fromiter(dropped, np.int64, len(dropped)))
        q = full.mark_map_array - 1
        lost = gone[q]
        pos = view(full.marks.positions).astype(np.int64)
        valid = valid_area = None
        if variant:
            # the Psi side's marks, negated, are sorted when reversed
            ok, areas = _validity(sign * pos[~lost][::sign],
                                  sign * pos[lost][::sign], n)
            valid = DenseBitvector(ok[::sign])
            valid_area = areas[::sign] if variant == 2 else None
        return (DenseBitvector(gone), samples[~gone],
                SparseBitvector(pos[~lost], n), np.cumsum(~gone)[q[~lost]],
                valid, valid_area)

    def count(self, syms):
        return self._direction()[0].count(syms)

    def count_toehold(self, syms, counters=None):
        """Backward search with deferred toehold resolution; returns
        (sp, ep, toehold) or None, the toehold being SA[ep] on the BWT side
        and SA[sp] on the Psi side."""
        runs, toehold = self._direction()
        th = runs.toehold_search(syms)
        if th is None:
            return None
        sp, ep, j, after = th
        if j:
            # j is the sampled edge of its run; while that run's sample
            # is removed, walk on to the next kept one: at most s - 1
            # steps, one search each
            starts, img, slot = runs.starts, runs.img, self.slot
            bucket, bits = runs.bucket, runs.shift
            a = (1 - self.DIR) // 2
            k = 0
            while True:
                b = j >> bits
                q = bisect_right(starts, j, bucket[b], bucket[b + 1])
                t = slot[q]
                if t and j == starts[q - 1 + a] - a:
                    break
                j = img[q - 1] + j - starts[q - 1]
                k += 1
            if k and counters is not None:
                counters.record(k)
            toehold = self.samples_sub[t - 1] - self.DIR * k
        return sp, ep, toehold - after

    def phi(self, i, check=False):
        """phi of i = SA[j] - SHIFT: SA[j - 1] on the BWT side, SA[j + 1]
        on the Psi side. With check, None unless lim shows that no removed
        mark lies between i and the mark phi reads. i may be a numpy int;
        the answer is a Python int."""
        v = int(i) + self.SHIFT
        x = v + self.PROBE
        marks = self.marks
        b = x >> marks.shift
        g = bisect_right(marks.positions, x, marks.bucket[b],
                         marks.bucket[b + 1])
        lim = self.lim
        if check and (lim is None or (lim[g] - v) * self.DIR >= 0):
            return None
        return v + self.offs[g]

    def locate(self, syms, sort=False, counters=None):
        """SA values of the occurrences of syms, sorted if sort is true."""
        th = self.count_toehold(syms, counters)
        if th is None:
            return []
        sp, ep, v = th
        out = [v]
        runs = self._direction()[0]
        starts, img, slot = runs.starts, runs.img, self.slot
        samples, marks = self.samples_sub, self.marks.positions
        offs, lim = self.offs, self.lim
        d, shift, probe, s = self.DIR, self.SHIFT, self.PROBE, self.s
        # the bucket tables: a search for x in starts (marks) looks only
        # between rb[x >> rbits] and rb[(x >> rbits) + 1] (mb, mbits)
        rb, rbits = runs.bucket, runs.shift
        mb, mbits = self.marks.bucket, self.marks.shift
        # run q spans starts[q-1] .. starts[q] - 1; its sampled edge is
        # starts[q - 1 + a] - a (its end on the BWT side, its start on
        # the Psi side), and its other edge starts[q - a] + a - 1
        a = (1 - d) // 2
        # Frames (j, stop, k) report positions j, j + d, ..., stop, which
        # are the k-step images of query positions; v is always the SA
        # value reported last, that of the query position just behind j.
        # Depth reaches s - 1, so an explicit stack stands in for recursion.
        stack = [(sp + 1, ep, 0)] if d > 0 else [(ep - 1, sp, 0)]
        while stack:
            j, stop, k = stack.pop()
            # at depth s - 1 phi fills each run piece, so no reuse is
            # asked for there
            deeper = k + 1 < s
            reuse = lim if deeper else None
            while (stop - j) * d >= 0:
                if reuse is not None:
                    x = v + probe
                    b = x >> mbits
                    g = bisect_right(marks, x, mb[b], mb[b + 1])
                    if (reuse[g] - v) * d < 0:
                        v += offs[g]          # a reused phi step
                        if counters is not None:
                            counters.record(k)
                        out.append(v)
                        j += d
                        continue
                b = j >> rbits
                q = bisect_right(starts, j, rb[b], rb[b + 1])
                t = slot[q]
                if t and j == starts[q - 1 + a] - a:
                    v = samples[t - 1] + shift - d * k
                else:
                    # j up to the far edge of run q is one run piece: it
                    # steps to a contiguous range one level deeper
                    edge = starts[q - a] + a - 1
                    if (stop - edge) * d < 0:
                        edge = stop
                    if deeper:
                        step = img[q - 1] - starts[q - 1]
                        stack.append((edge + d, stop, k))
                        stack.append((j + step, edge + step, k + 1))
                        break
                    # at depth s - 1, phi alone fills the piece
                    for _ in range((edge - j) * d + 1):
                        x = v + probe
                        b = x >> mbits
                        v += offs[bisect_right(marks, x, mb[b], mb[b + 1])]
                        if counters is not None:
                            counters.record(k)
                        out.append(v)
                    j = edge + d
                    continue
                if counters is not None:
                    counters.record(k)
                out.append(v)
                j += d
        if sort:
            out.sort()
        return out


def _validity(kept, lost, n):
    """Per gap after each kept mark, cyclically: True when no lost mark
    lies in it, and for the others the distance to the first one. kept
    (never empty) and lost are sorted, disjoint int64 arrays. The last
    gap wraps across n, so the first lost mark, or with none the first
    kept one, is searched for n further on too."""
    ahead = np.append(lost, np.append(lost, kept)[0] + n)
    first = ahead[np.searchsorted(ahead, kept, side="right")]
    ok = first >= np.append(kept[1:], kept[0] + n)
    return ok, (first - kept)[~ok]


class SrIndex(Subsampled):
    DIR = -1      # LF: SA[LF(j)] = SA[j] - 1
    SHIFT = 1     # samples are SA[run end] - 1; phi takes SA - 1
    PROBE = 0     # marks are stored + 1: SA[j]'s gap follows the last <= it

    def __init__(self, rl, s, variant, sa_last, removed, samples_sub, marks,
                 mark_map, valid=None, valid_area=None):
        self.rl = rl
        self.sa_last = sa_last            # SA[n]
        super().__init__(rl.n, s, variant, removed, samples_sub, marks,
                         mark_map, valid, valid_area)

    def _direction(self):
        return self.rl, self.sa_last

    # own names: the benchmark's tracer replaces these in the class __dict__
    phi = Subsampled.phi
    locate = Subsampled.locate


def build_srindex(bundle, s, variant=0):
    from .rindex import build_rindex

    return subsample_rindex(build_rindex(bundle), s, variant)


def subsample_rindex(rindex, s, variant=0):
    """Build the subsampled index from a full one."""
    return SrIndex(rindex.rl, s, variant, rindex.sa_last,
                   *SrIndex._parts(rindex, s, variant))
