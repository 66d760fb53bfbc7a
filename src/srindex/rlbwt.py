"""Run-length BWT with backward-search counting.

Only run-level structures are kept, as flat per-run tables in narrow
arrays (succinct.uint_array), in two orders. In run order, for LF steps:
starts, the first bwt position of each run plus an n + 1 sentinel, so
run q spans starts[q-1] .. starts[q] - 1 (runs 1-based, the tables
0-based), searched through its bucket table (succinct.buckets); and img,
LF of each run's first position, so an LF step from j in run q is
img[q-1] + j - starts[q-1]. In (symbol, position) order, which is LF
order, for backward steps, as the Psi side lays out its runs: lex_starts,
the runs' first positions, and lex_img, their LF images with an n + 1
sentinel, so a run's length is the next image minus its own; c's runs
are the stretch first_run[c] - 1 .. first_run[c + 1] - 2. With the C
table these are all the run-length BWT holds. The run heads' symbols and
the sparse bitvector of run starts, format v1's `letters` and `start`,
are derived from img, C and starts on write. bwt positions, runs and
symbols are all 1-based.

Counting occurrences of c in bwt[1..j] is one search in c's stretch of
lex_starts: the last c-run starting at or before j, whose LF image plus
j's offset in it, capped at the run's end, is C[c] plus the answer plus
one. A backward step is two such searches, sp's bounded by ep's result;
an LF step is one search in one bucket of starts.
"""

from bisect import bisect_right

import numpy as np

from .succinct import SparseBitvector, buckets, uint_array, view


class BackwardSearch:
    """Backward search and the run-order tables, shared by both run
    structures: a subclass provides n, sigma, img, its starts through
    _runs, and backward_step(sp, ep, c), one step that returns the new
    range and where the toehold goes, from two searches. count drops the
    toehold; locate's toehold_search follows it."""

    def count_range(self, syms):
        """Backward search for a symbol list; suffix range or None."""
        sp, ep = 1, self.n
        for c in reversed(syms):
            if not 1 <= c <= self.sigma:
                return None
            step = self.backward_step(sp, ep, c)
            if step is None:
                return None
            sp, ep, _ = step
        return sp, ep

    def count(self, syms):
        rng = self.count_range(syms)
        return 0 if rng is None else rng[1] - rng[0] + 1

    def toehold_search(self, syms):
        """Backward search that also tracks where the toehold (SA[ep] on
        the BWT side, SA[sp] on the Psi side) comes from.

        Returns None when syms does not occur, else (sp, ep, j, after): the
        toehold is the sample at position j, the sampled edge of its
        run, minus `after`, or, when j is 0, that of the full range minus
        `after`. Each step is backward_step's two searches.
        """
        sp, ep = 1, self.n
        j = after = 0
        for c in reversed(syms):
            if not 1 <= c <= self.sigma:
                return None
            step = self.backward_step(sp, ep, c)
            if step is None:
                return None
            sp, ep, edge = step
            if edge:
                j, after = edge, 0
            else:
                after += 1
        return sp, ep, j, after

    def _runs(self, starts):
        """Hold starts, the runs' first positions plus an n + 1 sentinel
        (an int64 array), and its bucket table."""
        self.starts = uint_array(self.n + 1, starts)
        self.shift, self.bucket = buckets(self.starts, self.n)

    def step(self, j):
        """One LF step (BWT side) or Psi step (Psi side) from position j:
        run q's image plus j's offset in it, run q found by one search
        in j's bucket of starts."""
        starts, bucket = self.starts, self.bucket
        b = j >> self.shift
        q = bisect_right(starts, j, bucket[b], bucket[b + 1])
        return self.img[q - 1] + j - starts[q - 1]


class RunLengthBWT(BackwardSearch):
    def __init__(self, n, sigma, start, letters):
        self.n = n
        self.sigma = sigma
        self.r = len(letters)
        starts = np.append(view(start.positions), n + 1).astype(np.int64)
        self._runs(starts)
        # runs in (symbol, position) order are the LF order of their
        # first positions: LF(run q's first position) is one plus the
        # length of all runs before q in that order; a stable sort of
        # symbols in the narrowest type that holds sigma (8 or 16 bits)
        # is a radix sort
        sym = np.asarray(letters, dtype=np.min_scalar_type(sigma))
        order = np.argsort(sym, kind="stable")
        lf = np.concatenate(([0], np.cumsum(np.diff(starts)[order]))) + 1
        img = np.empty(self.r, dtype=np.int64)
        img[order] = lf[:-1]
        self.img = uint_array(n, img)
        self.lex_starts = uint_array(n, starts[order])
        self.lex_img = uint_array(n + 1, lf)
        # c's runs are lex_starts[first_run[c] - 1:first_run[c + 1] - 1],
        # so C[c], the number of symbols smaller than c, is
        # lex_img[first_run[c] - 1] - 1
        cut = np.searchsorted(sym[order], np.arange(sigma + 2))
        self.first_run = (cut + 1).tolist()
        self.C = (lf[cut] - 1).tolist()

    @property
    def start(self):
        """Sparse bitvector of the run starts: format v1's section."""
        return SparseBitvector(view(self.starts)[:-1], self.n)

    @property
    def letters(self):
        """Run head symbols in run order, format v1's section: run q's is
        the c whose LF block C[c] + 1 .. C[c + 1] holds img[q-1]."""
        return (np.searchsorted(self.C, view(self.img)) - 1).tolist()

    def backward_step(self, sp, ep, c):
        """One backward step by c with the toehold SA[ep]: returns
        (sp', ep', edge), or None when c does not occur in bwt[sp..ep].
        sp' and ep' are C[c] plus the occurrences of c before sp, and up
        to ep, plus one and plus zero: in c's stretch of the flat tables,
        the LF image of the last c-run starting at or before the position,
        plus the position's offset in it, capped at the run's end. edge is
        0 when the toehold just drops by one (ep lies in a c-run), else
        the end of the c-run whose sample it becomes. One search for ep
        serves both; sp's is bounded by its result."""
        starts, lf = self.lex_starts, self.lex_img
        lo = self.first_run[c] - 1
        k = bisect_right(starts, ep, lo, self.first_run[c + 1] - 1)
        if k == lo:
            return None
        # c's last run starting at or before ep: ep lies in it, or the
        # toehold becomes its end
        first, end = lf[k - 1], lf[k]
        edge = starts[k - 1] + end - first - 1
        if ep <= edge:
            ep2, edge = first + ep - starts[k - 1], 0
        else:
            ep2 = end - 1
        k = bisect_right(starts, sp - 1, lo, k)
        if k == lo:
            sp2 = lf[lo]
        else:
            # sp - 1 in or past c's run k, capped at the run's end
            sp2 = lf[k - 1] + sp - starts[k - 1]
            if sp2 > lf[k]:
                sp2 = lf[k]
        return (sp2, ep2, edge) if sp2 <= ep2 else None

    # own name: the benchmark's tracer wraps methods in the class __dict__
    lf_step = BackwardSearch.step


def build_rlbwt(bundle):
    bwt = bundle.bwt
    # run p starts at bwt position starts[p-1]: 1, then after every change
    starts = np.concatenate(([1], np.flatnonzero(bwt[1:] != bwt[:-1]) + 2))
    return RunLengthBWT(bundle.n, bundle.text.sigma,
                        SparseBitvector(starts, bundle.n),
                        bwt[starts - 1])
