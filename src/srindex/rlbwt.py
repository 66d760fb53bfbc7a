"""Run-length BWT with backward-search counting.

Only run-level structures are kept: a sparse bitvector marking run starts,
the run-head symbols with rank/select, per-symbol cumulative run lengths,
and the C table. bwt positions, runs, and symbols are all 1-based.
"""

from .succinct import SparseBitvector, SymbolSequence


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
        self.letter_seq = SymbolSequence(letters)
        starts = self.start.positions
        lengths = [
            (starts[i + 1] if i + 1 < self.r else n + 1) - starts[i]
            for i in range(self.r)
        ]
        # per-symbol cumulative run lengths, in bwt run order
        self.lex_cum = {}
        for c in range(1, sigma + 1):
            self.lex_cum[c] = [0]
        for c, ln in zip(self.letters, lengths):
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

    def is_run_end(self, j):
        return j == self.n or self.start.get(j + 1) == 1

    def bwt_access(self, j):
        return self.letters[self.run_of(j) - 1]

    def rank_symbol(self, c, j):
        """Occurrences of c in bwt[1..j]."""
        if j <= 0:
            return 0
        p = self.run_of(j)
        k = self.letter_seq.rank(c, p)
        cum = self.lex_cum[c]
        if self.letters[p - 1] == c:
            return cum[k - 1] + (j - self.start.positions[p - 1] + 1)
        return cum[k]

    def lf_step(self, j):
        c = self.bwt_access(j)
        return self.C[c] + self.rank_symbol(c, j)

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
        if self.bwt_access(ep) == c:
            return 0
        k = self.letter_seq.rank(c, self.run_of(ep))
        return self.letter_seq.select(c, k) if k else None


def build_rlbwt(bundle):
    bwt = bundle.bwt
    n = bundle.n
    run_starts = [1] + [j + 1 for j in range(1, n) if bwt[j] != bwt[j - 1]]
    letters = [bwt[p - 1] for p in run_starts]
    return RunLengthBWT(n, bundle.text.sigma, SparseBitvector(run_starts, n),
                        letters)
