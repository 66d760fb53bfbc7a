"""Psi-run compressed suffix array.

Psi restricted to the suffix block of one symbol is increasing, so its
runs of consecutive values (confined runs) never cross symbol boundaries
and their count equals the number of BWT runs. Per symbol, run head and
tail values are delta-coded; global run start positions, the SA values at
run heads, and the C table complete the counting side.

Locating mirrors the BWT side: the SA value at each run tail is a mark
(text position), paired with the head sample of the next run (cyclically),
and iphi maps SA[i] to SA[i+1] via the successor mark. The r-CSA is the
sr-CSA at s = 1, where the sweep drops nothing, so RCsa is an SrCsa with
no sample removed and locates through srindex.Subsampled; f_sa, format
v1's name for the head samples, is its sample table.
"""

from bisect import bisect_right

import numpy as np

from .rlbwt import BackwardSearch
from .srcsa import SrCsa
from .succinct import (DEFAULT_BLOCK, BlockedDeltaSeq, DenseBitvector,
                       SparseBitvector)


class PsiRuns(BackwardSearch):
    """Counting structures: per-symbol Psi-run heads plus run geometry.

    A run's tail is its head plus its length minus one, so tails are
    derived; the ones the constructor is given are checked, then dropped.
    """

    def __init__(self, n, sigma, C, i_psi, heads, tails, block=DEFAULT_BLOCK):
        self.n = n
        self.sigma = sigma
        self.C = C                    # C[c] symbols smaller than c
        self.i_psi = i_psi            # global run -> first position
        self.r = len(i_psi)
        self.block = block            # B of the delta streams on disk
        # first_run[c] = 1-based global index of c's first run (r+1 if none);
        # runs never cross symbol blocks, so it counts runs starting <= C[c]
        self.first_run = [bisect_right(i_psi, x) + 1 for x in C]
        self.heads = {c: BlockedDeltaSeq(v, n) for c, v in heads.items()}
        if any(tails[c] != self._tails(c) for c in self.heads):
            raise ValueError("psi run tails are not heads plus run lengths")

    def _tails(self, c):
        heads = self.heads[c].values
        lo = self.first_run[c] - 1
        hi = lo + len(heads)
        starts = self.i_psi
        # a run ends where the next one starts, the last one at n + 1
        ends = starts[lo + 1:hi + 1] + [self.n + 1]
        return [h + e - s - 1 for h, s, e in zip(heads, starts[lo:hi], ends)]

    @property
    def tails(self):
        """Per symbol, its runs' tails: what the psi_tails section holds."""
        return {c: BlockedDeltaSeq(self._tails(c), self.n) for c in self.heads}

    def run_count(self, c):
        return self.first_run[c + 1] - self.first_run[c]

    def run_of(self, i):
        """Global index of the run containing position i."""
        return bisect_right(self.i_psi, i)

    def symbol_of_run(self, q):
        return bisect_right(self.first_run, q) - 1

    def head_value(self, q):
        c = self.symbol_of_run(q)
        return self.heads[c].access(q - self.first_run[c] + 1)

    def tail_value(self, q):
        return self.head_value(q) + self.run_end(q) - self.run_start(q)

    def run_start(self, q):
        return self.i_psi[q - 1]

    def run_end(self, q):
        return self.i_psi[q] - 1 if q < self.r else self.n

    def psi(self, i):
        q = self.run_of(i)
        return self.head_value(q) + (i - self.i_psi[q - 1])

    def backward_step(self, rng, c):
        """Positions in the c-block whose Psi value lies in rng, or None.

        Psi increases along the block, by one within a run. Each end of
        rng falls in or after the run with the last head <= it: ep maps to
        its offset in that run, capped at the run's end, and sp to its
        offset, or to just past the run's end.
        """
        sp, ep = rng
        if self.run_count(c) == 0:
            return None
        heads = self.heads[c]
        base = self.first_run[c] - 1
        p = heads.pred(ep)
        if p is None:
            return None
        q = base + p[1]
        ep2 = min(self.run_start(q) + ep - p[0], self.run_end(q))
        p = heads.pred(sp)
        if p is None:
            sp2 = self.run_start(base + 1)
        else:
            q = base + p[1]
            sp2 = min(self.run_start(q) + sp - p[0], self.run_end(q) + 1)
        return (sp2, ep2) if sp2 <= ep2 else None

    def toehold_run(self, sp, ep, c):
        """How a step by c moves the toehold SA[sp]: 0 when it just drops
        by one (sp lies inside a run of c's block), else the global run
        whose head sample it becomes; None when c does not occur."""
        if self.run_count(c) == 0:
            return None
        p = self.heads[c].pred(sp)
        if p is None:
            return self.first_run[c]
        q = self.first_run[c] - 1 + p[1]
        return 0 if self.run_start(q) + sp - p[0] <= self.run_end(q) else q + 1


class RCsa(SrCsa):
    def __init__(self, runs, f_sa, marks_l, mark_map):
        super().__init__(runs, 1, 0, DenseBitvector([0] * runs.r), f_sa,
                         marks_l, mark_map)

    f_sa = property(lambda self: self.samples_sub)

    # own names: the benchmark's tracer wraps methods in the class __dict__
    iphi = SrCsa.iphi
    count_toehold = SrCsa.count_toehold


def build_psi_runs(bundle, block=DEFAULT_BLOCK):
    n = bundle.n
    sigma = bundle.text.sigma
    psi = bundle.psi
    # C[c] = number of symbols smaller than c; the bwt holds every symbol
    counts = np.bincount(bundle.bwt, minlength=sigma + 1)
    C = np.concatenate(([0, 0], np.cumsum(counts[1:])))
    # a run breaks where Psi does not go up by one, and at each C boundary
    brk = psi[1:] != psi[:-1] + 1
    brk[C[2:sigma + 1] - 1] = True
    i_psi = np.concatenate(([1], np.flatnonzero(brk) + 2))
    heads = psi[i_psi - 1].tolist()
    tails = psi[np.append(i_psi[1:] - 2, n - 1)].tolist()
    # runs lie in symbol order: c's runs are those starting in C[c]+1..C[c+1]
    cut = np.searchsorted(i_psi, C + 1).tolist()
    return PsiRuns(n, sigma, C.tolist(), i_psi.tolist(),
                   {c: heads[cut[c]:cut[c + 1]] for c in range(1, sigma + 1)},
                   {c: tails[cut[c]:cut[c + 1]] for c in range(1, sigma + 1)},
                   block)


def build_rcsa(bundle, block=DEFAULT_BLOCK):
    runs = build_psi_runs(bundle, block)
    sa = bundle.sa
    i_psi = np.array(runs.i_psi, dtype=np.int64)
    # the tail of run q is marked with SA there, paired with the head
    # sample of run q+1 (wrapping to run 1)
    marks = sa[np.append(i_psi[1:] - 1, runs.n) - 1]
    order = np.argsort(marks, kind="stable")
    slots = np.append(np.arange(2, runs.r + 1), 1)
    return RCsa(runs, sa[i_psi - 1].tolist(),
                SparseBitvector(marks[order].tolist(), runs.n),
                slots[order].tolist())
