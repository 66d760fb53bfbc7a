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
beyond (a shared sentinel when every or no value may), so a reused step
costs the same one search. offs and lim are built when the index is
built or loaded and replace the format's tables (mark_map, valid,
valid_area), which are derived from them again on write.

The full indexes are the subsampled ones at s = 1, where the sweep drops
nothing: RIndex (rindex.py) is an SrIndex and RCsa (rcsa.py) an SrCsa, so
all four locating kinds count and locate through this one core.

The BWT side (SrIndex, here) and the Psi side (SrCsa, in srcsa.py) differ
only in direction. SrIndex walks LF, samples run ends, resolves a range
right to left and reuses phi; SrCsa walks Psi, samples run heads, resolves
left to right and reuses inverse phi. Everything else lives in Subsampled:
the toehold recovery walk, the range resolver behind locate, phi and its
tables, and the build step, where the Psi side's sweep and validity data
are the BWT side's on mirrored (negated) text positions.
"""

from array import array
from bisect import bisect_right
from itertools import accumulate

from .succinct import DenseBitvector, SparseBitvector

INF = float("inf")


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
    in direction DIR: reuse is safe when (lim[gap] - v) * DIR < 0. _direction()
    gives the run structure, the toehold of the full range, the walk
    step, the run edge that carries a sample (near) and the other (far).
    """

    def __init__(self, n, s, variant, removed, samples_sub, marks, mark_map,
                 valid, valid_area):
        self.n = n
        self.s = s
        self.variant = variant
        self.removed = removed            # DenseBitvector over runs
        self.samples_sub = samples_sub    # surviving samples, run order
        self.marks = marks                # SparseBitvector of the marks
        self.offs, self.lim = self._tables(mark_map, valid, valid_area)

    def _tables(self, mark_map, valid, valid_area):
        """offs and lim (None at variant 0) from the format's tables: the
        k-th mark pairs with sample mark_map[k], and at variant 1 and up
        valid holds one bit per gap and valid_area the distance of each
        invalid one. One entry per mark, plus the gap that wraps around
        the text: first on the BWT side, last on the Psi side."""
        d, n, variant = self.DIR, self.n, self.variant
        marks, samples = self.marks.positions, self.samples_sub
        if not marks:
            raise ValueError("an index needs at least one mark")
        offs = [samples[q - 1] + self.SHIFT - p
                for p, q in zip(marks, mark_map)]
        lim = None
        if variant:
            # valid's bits in order, one character each: a word's base-2
            # digits reversed, as bit 1 is its lowest
            bits = "".join(format(w, "064b")[::-1] for w in valid.words)
            areas = iter(valid_area if variant == 2 else ())
            lim = [self.SAFE if bit == "1" else
                   self.NEVER if variant == 1 else p - d * next(areas)
                   for bit, p in zip(bits, marks)]
        # the wrap gap is the gap of the last mark (BWT) or the first
        # (Psi), with that mark moved by d * n across the text's end
        src, at = (-1, 0) if d < 0 else (0, len(marks))
        offs.insert(at, offs[src] - d * n)
        if lim:
            x = lim[src]
            lim.insert(at, x if x in (self.SAFE, self.NEVER) else x + d * n)
        return array("q", offs), lim

    def _per_mark(self, table):
        """offs or lim without the wrap gap: one entry per mark."""
        return table[1:] if self.DIR < 0 else table[:-1]

    @property
    def mark_map(self):
        """k-th mark -> slot of its sample in samples_sub, the format's
        table, derived from offs (SA samples are distinct)."""
        slot = {v: q for q, v in enumerate(self.samples_sub, 1)}
        return [slot[o + p - self.SHIFT] for o, p in
                zip(self._per_mark(self.offs), self.marks.positions)]

    @property
    def valid(self):
        """Per mark gap, 1 when no removed mark lies in it (variant 1 and
        up), derived from lim."""
        if self.lim is not None:
            return DenseBitvector(x == self.SAFE
                                  for x in self._per_mark(self.lim))

    @property
    def valid_area(self):
        """Per invalid gap, the distance from its mark to the first
        removed one (variant 2), derived from lim."""
        if self.variant == 2:
            return [(p - x) * self.DIR for p, x in
                    zip(self.marks.positions, self._per_mark(self.lim))
                    if x != self.SAFE]

    @classmethod
    def _parts(cls, full, marks, s, variant):
        """The build step of both sides, from a full index (nothing
        removed) and its marks: there run q's sample is samples_sub[q-1],
        and the k-th mark pairs with run mark_map[k]'s sample. The Psi side
        (DIR = +1) runs the BWT side's sweep and validity rules on negated
        text positions. Returns the constructor arguments (removed,
        samples_sub, marks, mark_map, valid, valid_area).
        """
        if full.removed.ones:
            raise ValueError("only a full index can be subsampled")
        samples, n, sign = full.samples_sub, full.n, -cls.DIR
        _, dropped = subsample(sorted(sign * v for v in samples), s)
        gone = [1 if sign * v in dropped else 0 for v in samples]
        gone_pfx = list(accumulate(gone, initial=0))
        kept, lost = [], []
        for pos, q in zip(marks.positions, full.mark_map):
            if gone[q - 1]:
                lost.append(sign * pos)
            else:
                kept.append((pos, q - gone_pfx[q]))
        valid = valid_area = None
        if variant:
            bits, areas = _validity(sorted(sign * p for p, _ in kept),
                                    sorted(lost), n)
            if sign < 0:
                bits.reverse()
                areas.reverse()
            valid = DenseBitvector(bits)
            valid_area = areas if variant == 2 else None
        return (DenseBitvector(gone),
                [v for v, bit in zip(samples, gone) if not bit],
                SparseBitvector([p for p, _ in kept], n),
                [slot for _, slot in kept], valid, valid_area)

    def count(self, syms):
        return self._direction()[0].count(syms)

    def count_toehold(self, syms, counters=None):
        """Backward search with deferred toehold resolution; returns
        (sp, ep, toehold) or None, the toehold being SA[ep] on the BWT side
        and SA[sp] on the Psi side."""
        runs, toehold, step, near, _ = self._direction()
        th = runs.toehold_search(syms)
        if th is None:
            return None
        sp, ep, q, after = th
        if q:
            removed = self.removed
            k = 0
            if removed.get(q):
                # walk on to the next kept sample: at most s - 1 steps
                j = near(q)
                while True:
                    j = step(j)
                    k += 1
                    q = runs.run_of(j)
                    if j == near(q) and not removed.get(q):
                        break
                if counters is not None:
                    counters.record(k)
            toehold = self.samples_sub[removed.rank0(q) - 1] - self.DIR * k
        return sp, ep, toehold - after

    def phi(self, i, check=False):
        """phi of i = SA[j] - SHIFT: SA[j - 1] on the BWT side, SA[j + 1]
        on the Psi side. With check, None unless lim shows that no removed
        mark lies between i and the mark phi reads."""
        v = i + self.SHIFT
        g = bisect_right(self.marks.positions, v + self.PROBE)
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
        runs, _, step, near, far = self._direction()
        run_of = runs.run_of
        removed, samples = self.removed, self.samples_sub
        marks, offs, lim = self.marks.positions, self.offs, self.lim
        d, shift, probe, s = self.DIR, self.SHIFT, self.PROBE, self.s
        # Frames (j, stop, k) report positions j, j + d, ..., stop, which
        # are the k-step images of query positions; v is always the SA
        # value reported last, that of the query position just behind j.
        # Depth reaches s - 1, so an explicit stack stands in for recursion.
        stack = [(sp + 1, ep, 0)] if d > 0 else [(ep - 1, sp, 0)]
        while stack:
            j, stop, k = stack.pop()
            while (stop - j) * d >= 0:
                q = run_of(j)
                if j == near(q) and not removed.get(q):
                    v = samples[removed.rank0(q) - 1] + shift - d * k
                elif lim and (lim[g := bisect_right(marks, v + probe)]
                              - v) * d < 0:
                    v += offs[g]          # a reused phi step
                else:
                    # j up to the far edge of run q is one run piece: it
                    # steps to a contiguous range one level deeper
                    edge = far(q)
                    if (stop - edge) * d < 0:
                        edge = stop
                    if k + 1 < s:
                        stack.append((edge + d, stop, k))
                        stack.append((step(j), step(edge), k + 1))
                        break
                    # at depth s - 1, phi alone fills the piece
                    for _ in range((edge - j) * d + 1):
                        v += offs[bisect_right(marks, v + probe)]
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


def _validity(ms, lost, n):
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


class SrIndex(Subsampled):
    DIR = -1      # LF: SA[LF(j)] = SA[j] - 1
    SHIFT = 1     # samples are SA[run end] - 1; phi takes SA - 1
    PROBE = 0     # marks are stored + 1: SA[j]'s gap follows the last <= it
    SAFE, NEVER = INF, -INF

    def __init__(self, rl, s, variant, sa_last, removed, samples_sub, marks,
                 mark_map, valid=None, valid_area=None):
        self.rl = rl
        self.sa_last = sa_last            # SA[n]
        super().__init__(rl.n, s, variant, removed, samples_sub, marks,
                         mark_map, valid, valid_area)

    def _direction(self):
        rl = self.rl
        return rl, self.sa_last, rl.lf_step, rl.run_end, rl.run_start

    # own names: the benchmark's tracer replaces these in the class __dict__
    phi = Subsampled.phi
    locate = Subsampled.locate


def build_srindex(bundle, s, variant=0):
    from .rindex import build_rindex

    return subsample_rindex(build_rindex(bundle), s, variant)


def subsample_rindex(rindex, s, variant=0):
    """Build the subsampled index from a full one."""
    return SrIndex(rindex.rl, s, variant, rindex.sa_last,
                   *SrIndex._parts(rindex, rindex.marks, s, variant))
