"""Run-length BWT with backward-search counting.

Only run-level structures are kept: a sparse bitvector marking run starts,
the run-head symbols, each symbol's run starts (as bwt positions),
per-symbol cumulative run lengths, and the C table. bwt positions, runs,
and symbols are all 1-based.

Counting occurrences of c in bwt[1..j] is one search: the last c-run
starting at or before j holds the answer, its cumulative length capped at
that run's end. A backward step is two such searches, an LF step one
search for j's run and one among its symbol's runs.
"""

from bisect import bisect_right

import numpy as np

from .succinct import SparseBitvector


class BackwardSearch:
    """Backward search, shared by both run structures: a subclass provides
    n, sigma, backward_step(range, c) and toehold_run(sp, ep, c)."""

    def count_range(self, syms):
        """Backward search for a symbol list; suffix range or None."""
        rng = (1, self.n)
        for c in reversed(syms):
            if not 1 <= c <= self.sigma:
                return None
            rng = self.backward_step(rng, c)
            if rng is None:
                return None
        return rng

    def count(self, syms):
        rng = self.count_range(syms)
        return 0 if rng is None else rng[1] - rng[0] + 1

    def toehold_search(self, syms):
        """Backward search that also tracks where the toehold (SA[ep] on
        the BWT side, SA[sp] on the Psi side) comes from.

        Returns None when syms does not occur, else (sp, ep, q, after): the
        toehold is run q's sample minus `after`, or, when q is 0, that of
        the full range minus `after`.
        """
        sp, ep = 1, self.n
        q = after = 0
        for c in reversed(syms):
            if not 1 <= c <= self.sigma:
                return None
            p = self.toehold_run(sp, ep, c)
            if p is None:
                return None
            rng = self.backward_step((sp, ep), c)
            if rng is None:
                return None
            sp, ep = rng
            if p:
                q, after = p, 0
            else:
                after += 1
        return sp, ep, q, after


class RunLengthBWT(BackwardSearch):
    def __init__(self, n, sigma, start, letters):
        self.n = n
        self.sigma = sigma
        self.r = len(letters)
        self.start = start            # SparseBitvector of run starts
        self.letters = list(letters)
        starts = self.start.positions
        lengths = [
            (starts[i + 1] if i + 1 < self.r else n + 1) - starts[i]
            for i in range(self.r)
        ]
        # per symbol, the bwt positions its runs start at and its
        # cumulative run lengths, in bwt run order
        self.letter_starts = {}
        self.lex_cum = {}
        for c in range(1, sigma + 1):
            self.lex_cum[c] = [0]
        for c, p, ln in zip(self.letters, starts, lengths):
            self.letter_starts.setdefault(c, []).append(p)
            cum = self.lex_cum[c]
            cum.append(cum[-1] + ln)
        # C[c] = number of symbols smaller than c
        counts = [0] * (sigma + 1)
        for c, ln in zip(self.letters, lengths):
            counts[c] += ln
        self.C = [0] * (sigma + 2)
        for c in range(1, sigma + 1):
            self.C[c + 1] = self.C[c] + counts[c]

    def run_of(self, j):
        """Index of the run containing bwt position j."""
        return self.start.rank1(j)

    def run_start(self, p):
        """First bwt position of run p."""
        return self.start.positions[p - 1]

    def run_end(self, p):
        """Last bwt position of run p."""
        return self.start.positions[p] - 1 if p < self.r else self.n

    def bwt_access(self, j):
        return self.letters[self.run_of(j) - 1]

    def rank_symbol(self, c, j):
        """Occurrences of c in bwt[1..j]."""
        starts = self.letter_starts.get(c, ())
        k = bisect_right(starts, j)
        if not k:
            return 0
        cum = self.lex_cum[c]
        return min(cum[k - 1] + j - starts[k - 1] + 1, cum[k])

    def lf_step(self, j):
        c = self.letters[self.run_of(j) - 1]
        # j's own run is c's last run starting at or before j
        starts = self.letter_starts[c]
        k = bisect_right(starts, j)
        return self.C[c] + self.lex_cum[c][k - 1] + j - starts[k - 1] + 1

    def backward_step(self, rng, c):
        """One backward-search step; returns the new range or None."""
        sp, ep = rng
        sp2 = self.C[c] + self.rank_symbol(c, sp - 1) + 1
        ep2 = self.C[c] + self.rank_symbol(c, ep)
        if sp2 > ep2:
            return None
        return sp2, ep2

    def toehold_run(self, sp, ep, c):
        """How a step by c moves the toehold SA[ep]: 0 when it just drops
        by one, else the run whose end sample it becomes; None when c does
        not occur in bwt[sp..ep]."""
        starts = self.letter_starts.get(c, ())
        k = bisect_right(starts, ep)
        if not k:
            return None
        # c's last run starting at or before ep: ep lies in it, or the
        # toehold becomes its end
        cum = self.lex_cum[c]
        if ep - starts[k - 1] < cum[k] - cum[k - 1]:
            return 0
        return self.run_of(starts[k - 1])


def build_rlbwt(bundle):
    bwt = bundle.bwt
    # run p starts at bwt position starts[p-1]: 1, then after every change
    starts = np.concatenate(([1], np.flatnonzero(bwt[1:] != bwt[:-1]) + 2))
    return RunLengthBWT(bundle.n, bundle.text.sigma,
                        SparseBitvector(starts.tolist(), bundle.n),
                        bwt[starts - 1].tolist())
