"""Run-length BWT with backward-search counting.

Only run-level structures are kept, as flat per-run tables: starts, the
first bwt position of each run plus an n + 1 sentinel, so run q spans
starts[q-1] .. starts[q] - 1 (runs 1-based, the tables 0-based); img,
LF of each run's first position, so an LF step from j in run q is
img[q-1] + j - starts[q-1]; each symbol's run starts (letter_starts) and
cumulative run lengths (lex_cum); and the C table. The run heads'
symbols and the sparse bitvector of run starts, format v1's `letters`
and `start`, are not held: they are derived from img, C and starts on
write. bwt positions, runs and symbols are all 1-based.

Counting occurrences of c in bwt[1..j] is one search: the last c-run
starting at or before j holds the answer, its cumulative length capped at
that run's end. A backward step is two such searches, sp's bounded by
ep's result; an LF step is one search in starts.
"""

from bisect import bisect_right

import numpy as np

from .succinct import SparseBitvector, uint_array


class BackwardSearch:
    """Backward search, shared by both run structures: a subclass provides
    n, sigma and backward_step(sp, ep, c), one step that returns the new
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


class RunLengthBWT(BackwardSearch):
    def __init__(self, n, sigma, start, letters):
        self.n = n
        self.sigma = sigma
        self.r = len(letters)
        self.starts = start.positions + [n + 1]
        starts = np.array(self.starts, dtype=np.int64)
        lengths = np.diff(starts)
        # runs in (symbol, position) order are the LF order of their
        # first positions: LF(run q's first position) is one plus the
        # length of all runs before q in that order
        sym = np.asarray(letters, dtype=np.int64)
        order = np.argsort(sym, kind="stable")
        before = np.concatenate(([0], np.cumsum(lengths[order])))
        img = np.empty(self.r, dtype=np.int64)
        img[order] = before[:-1] + 1
        self.img = uint_array(n, img)
        # c's runs are order[cut[c]:cut[c+1]], so C[c], the number of
        # symbols smaller than c, is before[cut[c]]
        cut = np.searchsorted(sym[order], np.arange(sigma + 2))
        self.C = before[cut].tolist()
        # per symbol, the bwt positions its runs start at (the very ints
        # starts holds) and its cumulative run lengths, in bwt run order
        firsts = np.array(self.starts[:-1], dtype=object)[order]
        self.letter_starts = {}
        self.lex_cum = {}
        for c in range(1, sigma + 1):
            lo, hi = cut[c], cut[c + 1]
            if lo < hi:
                self.letter_starts[c] = firsts[lo:hi].tolist()
            self.lex_cum[c] = (before[lo:hi + 1] - before[lo]).tolist()

    @property
    def start(self):
        """Sparse bitvector of the run starts: format v1's section."""
        return SparseBitvector(self.starts[:-1], self.n)

    @property
    def letters(self):
        """Run head symbols in run order, format v1's section: run q's is
        the c whose LF block C[c] + 1 .. C[c + 1] holds img[q-1]."""
        img = np.frombuffer(self.img, dtype=self.img.typecode)
        return (np.searchsorted(self.C, img) - 1).tolist()

    def lf_step(self, j):
        q = bisect_right(self.starts, j)
        return self.img[q - 1] + j - self.starts[q - 1]

    def backward_step(self, sp, ep, c):
        """One backward step by c with the toehold SA[ep]: returns
        (sp', ep', edge), or None when c does not occur in bwt[sp..ep].
        sp' and ep' are C[c] plus the occurrences of c before sp, and up
        to ep, plus one and plus zero. edge is 0 when the toehold just
        drops by one (ep lies in a c-run), else the end of the c-run whose
        sample it becomes. One search for ep serves both; sp's is bounded
        by its result."""
        starts = self.letter_starts.get(c)
        if starts is None:
            return None
        k = bisect_right(starts, ep)
        if not k:
            return None
        cum, base = self.lex_cum[c], self.C[c] + 1
        # c's last run starting at or before ep: ep lies in it, or the
        # toehold becomes its end
        edge = starts[k - 1] + cum[k] - cum[k - 1] - 1
        if ep <= edge:
            ep2, edge = base + cum[k - 1] + ep - starts[k - 1], 0
        else:
            ep2 = base + cum[k] - 1
        k = bisect_right(starts, sp - 1, 0, k)
        if k:
            # sp - 1 in or past c's run k, capped at the run's end
            sp2 = base + cum[k - 1] + sp - starts[k - 1]
            if sp2 > base + cum[k]:
                sp2 = base + cum[k]
        else:
            sp2 = base
        return (sp2, ep2, edge) if sp2 <= ep2 else None


def build_rlbwt(bundle):
    bwt = bundle.bwt
    # run p starts at bwt position starts[p-1]: 1, then after every change
    starts = np.concatenate(([1], np.flatnonzero(bwt[1:] != bwt[:-1]) + 2))
    return RunLengthBWT(bundle.n, bundle.text.sigma,
                        SparseBitvector(starts.tolist(), bundle.n),
                        bwt[starts - 1])
