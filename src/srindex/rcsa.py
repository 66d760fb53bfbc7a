"""Psi-run compressed suffix array.

Psi restricted to the suffix block of one symbol is increasing, so its
runs of consecutive values (confined runs) never cross symbol boundaries
and their count equals the number of BWT runs. The counting side is two
flat per-run tables and the C table: starts, each run's first position
plus an n + 1 sentinel, with its bucket table, and img, Psi of each
run's first position (its head), so a Psi step from i in run q is
img[q-1] + i - starts[q-1], q found in i's bucket of starts. Runs
lie in symbol order, so img is the per-symbol heads laid end to end, and
a backward step by c searches c's stretch of it, whose bounds first_run
gives. On disk the heads and the tails (head plus length minus one) are
blocked Elias-delta coded per symbol; both are sliced from img on write.

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
from .succinct import DEFAULT_BLOCK, SparseBitvector, uint_array, view


class PsiRuns(BackwardSearch):
    """Counting structures: the run starts, the run heads in run order,
    and C. The tails the constructor is given are checked against the
    heads and run lengths, then dropped."""

    def __init__(self, n, sigma, C, i_psi, heads, tails, block=DEFAULT_BLOCK):
        self.n = n
        self.sigma = sigma
        self.C = np.asarray(C, dtype=np.int64).tolist()  # symbols < c
        self.r = len(i_psi)
        self.block = block            # B of the delta streams on disk
        starts = np.append(np.asarray(i_psi, dtype=np.int64), n + 1)
        self._runs(starts)
        # first_run[c] = 1-based global index of c's first run (r+1 if none);
        # runs never cross symbol blocks, so it counts runs starting <= C[c]
        self.first_run = (np.searchsorted(starts[:-1], C, side="right")
                          + 1).tolist()

        def laid_end_to_end(per_symbol):
            return np.concatenate([np.asarray(per_symbol[c], dtype=np.int64)
                                   for c in range(1, sigma + 1)])

        img = laid_end_to_end(heads)
        if not np.array_equal(laid_end_to_end(tails),
                              img + np.diff(starts) - 1):
            raise ValueError("psi run tails are not heads plus run lengths")
        self.img = uint_array(n, img)

    def _per_symbol(self, flat):
        """dict c -> c's stretch of a per-run table."""
        f = self.first_run
        return {c: flat[f[c] - 1:f[c + 1] - 1]
                for c in range(1, self.sigma + 1)}

    @property
    def i_psi_array(self):
        """Run starts without the sentinel, format v1's i_psi, as an
        array view of starts."""
        return view(self.starts)[:-1]

    i_psi = property(lambda self: self.i_psi_array.tolist())

    @property
    def heads(self):
        """Per symbol, its runs' heads: what the psi_heads section holds."""
        return self._per_symbol(self.img)

    @property
    def tails(self):
        """Per symbol, its runs' tails: what the psi_tails section holds."""
        img, starts = (view(t).astype(np.int64)
                       for t in (self.img, self.starts))
        return self._per_symbol((img + np.diff(starts) - 1).tolist())

    def backward_step(self, sp, ep, c):
        """One backward step by c with the toehold SA[sp]: returns
        (sp', ep', edge), or None when no position of c's block has its
        Psi value in sp..ep.

        Psi increases along the block, by one within a run. Each end of
        the range falls in or after the run with the last head <= it: ep
        maps to its offset in that run, capped at the run's end, and sp
        to its offset, or to just past the run's end. sp's search is
        bounded by ep's result. edge is 0 when the toehold just drops by
        one (sp lies inside a run of c's block), else the first position
        of the run whose head sample it becomes.
        """
        img, starts = self.img, self.starts
        lo = self.first_run[c] - 1
        k = bisect_right(img, ep, lo, self.first_run[c + 1] - 1)
        if k == lo:
            return None
        ep2 = starts[k - 1] + ep - img[k - 1]
        end = starts[k] - 1
        if ep2 > end:
            ep2 = end
        k = bisect_right(img, sp, lo, k)
        if k == lo:
            sp2 = edge = starts[lo]
        else:
            sp2, edge = starts[k - 1] + sp - img[k - 1], 0
            if sp2 >= starts[k]:
                sp2 = edge = starts[k]
        return (sp2, ep2, edge) if sp2 <= ep2 else None

    # own name: the benchmark's tracer wraps methods in the class __dict__
    psi = BackwardSearch.step


class RCsa(SrCsa):
    def __init__(self, runs, f_sa, marks_l, mark_map):
        super().__init__(runs, 1, 0, None, f_sa, marks_l, mark_map)

    f_sa = property(lambda self: self.samples_sub)

    # own names: the benchmark's tracer wraps methods in the class __dict__
    iphi = SrCsa.iphi
    count_toehold = SrCsa.count_toehold


def build_psi_runs(bundle, block=DEFAULT_BLOCK):
    n = bundle.n
    sigma = bundle.text.sigma
    psi = bundle.psi
    # C[c] = number of symbols smaller than c; the bwt is a permutation of
    # the text, whose int64 symbols bincount reads without a cast
    counts = np.bincount(bundle.text.symbols, minlength=sigma + 1)
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
    i_psi = runs.i_psi_array.astype(np.int64)
    # the tail of run q is marked with SA there, paired with the head
    # sample of run q+1 (wrapping to run 1)
    marks = sa[np.append(i_psi[1:] - 1, runs.n) - 1]
    order = np.argsort(marks, kind="stable")
    slots = np.append(np.arange(2, runs.r + 1), 1)
    return RCsa(runs, sa[i_psi - 1], SparseBitvector(marks[order], runs.n),
                slots[order])
