"""Psi-run compressed suffix array.

Psi restricted to the suffix block of one symbol is increasing, so its
runs of consecutive values (confined runs) never cross symbol boundaries.
They are the BWT runs in LF order (rlbwt.py): Psi inverts LF, which maps
a BWT run of c onto consecutive positions of c's block. So the counting
side is the run-length BWT's table pair and C, read the other way: the
walk tables starts, each run's first position plus an n + 1 sentinel,
with its bucket table, and img, Psi of each run's first position (its
head), are lex_img and lex_starts themselves, and a Psi step from i in
run q is img[q-1] + i - starts[q-1], q found in i's bucket of starts.
Runs lie in symbol order, so img is the per-symbol heads laid end to end,
and a backward step by c, the run-length BWT's own, searches c's stretch
of it, whose bounds first_run gives. On disk the heads and the tails
(head plus length minus one) are blocked Elias-delta coded per symbol;
both are sliced from img on write.

Locating mirrors the BWT side: the SA value at each run tail is a mark
(text position), paired with the head sample of the next run (cyclically),
and iphi maps SA[i] to SA[i+1] via the successor mark. The r-CSA is the
sr-CSA at s = 1, where the sweep drops nothing, so RCsa is an SrCsa with
no sample removed and locates through srindex.Subsampled; f_sa, format
v1's name for the head samples, is its sample table.
"""

import numpy as np

from .rlbwt import BackwardSearch, build_rlbwt
from .srcsa import SrCsa
from .succinct import DEFAULT_BLOCK, SparseBitvector, view


class PsiRuns(BackwardSearch):
    """Counting structures: the run table pair, whose lex_img is the run
    starts and lex_starts the run heads in run order, and C. The tails
    the constructor is given are checked against the heads and run
    lengths, then dropped."""

    TOEHOLD_AT_EP = False

    def __init__(self, n, sigma, C, i_psi, heads, tails, block=DEFAULT_BLOCK):
        self.n = n
        self.sigma = sigma
        self.r = len(i_psi)
        self.block = block            # B of the delta streams on disk
        starts = np.append(np.asarray(i_psi, dtype=np.int64), n + 1)

        def laid_end_to_end(per_symbol):
            return np.concatenate([np.asarray(per_symbol[c], dtype=np.int64)
                                   for c in range(1, sigma + 1)])

        img = laid_end_to_end(heads)
        if not np.array_equal(laid_end_to_end(tails),
                              img + np.diff(starts) - 1):
            raise ValueError("psi run tails are not heads plus run lengths")
        self._pair(img, starts, np.asarray(C, dtype=np.int64))
        self._runs(self.lex_img, self.lex_starts)

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

    # own names: the benchmark's tracer wraps methods in the class __dict__
    backward_step = BackwardSearch.backward_step
    psi = BackwardSearch.step


class RCsa(SrCsa):
    def __init__(self, runs, f_sa, marks_l, mark_map):
        super().__init__(runs, 1, 0, None, f_sa, marks_l, mark_map)

    f_sa = property(lambda self: self.samples_sub)

    # own names: the benchmark's tracer wraps methods in the class __dict__
    iphi = SrCsa.iphi
    count_toehold = SrCsa.count_toehold


def build_psi_runs(bundle, block=DEFAULT_BLOCK, rl=None):
    # the Psi runs are the BWT runs in LF order: their starts, heads and
    # tails are cut from the run-length BWT's pair
    if rl is None:
        rl = build_rlbwt(bundle)
    heads, lf = (view(t).astype(np.int64) for t in (rl.lex_starts, rl.lex_img))
    return PsiRuns(rl.n, rl.sigma, rl.C, lf[:-1], rl._per_symbol(heads),
                   rl._per_symbol(heads + np.diff(lf) - 1), block)


def build_rcsa(bundle, block=DEFAULT_BLOCK, rl=None):
    runs = build_psi_runs(bundle, block, rl)
    sa = bundle.sa
    i_psi = runs.i_psi_array.astype(np.int64)
    # the tail of run q is marked with SA there, paired with the head
    # sample of run q+1 (wrapping to run 1)
    marks = sa[np.append(i_psi[1:] - 1, runs.n) - 1]
    order = np.argsort(marks, kind="stable")
    slots = np.append(np.arange(2, runs.r + 1), 1)
    return RCsa(runs, sa[i_psi - 1], SparseBitvector(marks[order], runs.n),
                slots[order])
