"""Run-length BWT with backward-search counting, and the run table pair
that the Psi side (rcsa.py) reads too.

Only run-level structures are kept, as flat per-run tables in narrow
arrays (succinct.uint_array). The runs in (symbol, position) order, which
is LF order, are one pair: lex_starts, their first bwt positions, and
lex_img, their LF images with an n + 1 sentinel, so a run's length is the
next image minus its own; c's runs are the stretch first_run[c] - 1 ..
first_run[c + 1] - 2. Psi inverts LF, which maps a BWT run of c onto
consecutive positions of c's block, so the Psi runs are these runs read
the other way: a Psi run starts at lex_img[q-1], and its head, Psi
there, is lex_starts[q-1] (Makinen et al., JCB 2010). Both sides count
with one backward_step on the pair: two searches of c's stretch of
lex_starts, each in one bucket of the pair's bucket table, which gives
every symbol a section of buckets over its own run starts.

The run-length BWT adds the run-order tables that LF steps read: starts,
the first bwt position of each run plus an n + 1 sentinel, so run q spans
starts[q-1] .. starts[q] - 1 (runs 1-based, the tables 0-based), searched
in one bucket of its bucket table (succinct.buckets); and img, LF of each
run's first position, so an LF step from j in run q is img[q-1] + j -
starts[q-1]. The run heads' symbols and the sparse bitvector of run
starts, format v1's `letters` and `start`, are derived from img, C and
starts on write. bwt positions, runs and symbols are all 1-based.
"""

from bisect import bisect_right

import numpy as np

from .succinct import (SparseBitvector, buckets, cumulative, low_bits,
                       uint_array, view)


class BackwardSearch:
    """Backward search on the run table pair, shared by both run
    structures: a subclass provides n and sigma, holds the pair through
    _pair and its walk tables through _runs, and says in TOEHOLD_AT_EP
    which end of the range carries the toehold. backward_step(sp, ep, c)
    is one step that returns the new range and where the toehold goes,
    from two searches. count drops the toehold; locate's toehold_search
    follows it."""

    def _pair(self, lex_starts, lex_img, C):
        """Hold the runs in (symbol, position) order, lex_starts and
        lex_img (with its n + 1 sentinel), and C, the int64 array of the
        symbols smaller than each c, with first_run: c's first run (r + 1
        if none) is one past the runs whose LF image is at most C[c].

        The pair's bucket table, lex_bucket, gives each symbol c a section
        of lex_width entries from (c - 1) * lex_width on: entry h of it is
        the index of c's first run whose start x has x >> lex_shift >= h,
        so a search of c's runs for x in 0..n + 1 bisects only the runs
        between entries h and h + 1, with h = x >> lex_shift. lex_shift
        makes a bucket hold about one run, and the table at most
        r + sigma + 1 entries."""
        n, sigma, r = self.n, self.sigma, len(lex_starts)
        self.lex_starts = uint_array(n, lex_starts)
        self.lex_img = uint_array(n + 1, lex_img)
        self.C = C.tolist()
        first_run = np.searchsorted(lex_img[:-1], C, side="right") + 1
        self.first_run = first_run.tolist()
        # 2**shift > sigma * n / r, so sigma * ((n + 1) >> shift) <= r;
        # runs are keyed by section and bucket, keys that rise with the
        # runs' (symbol, position) order
        self.lex_shift = shift = low_bits(sigma * n, r) + 1
        self.lex_width = width = ((n + 1) >> shift) + 1
        key = (lex_starts >> shift) + np.repeat(
            np.arange(0, sigma * width, width), np.diff(first_run[1:]))
        self.lex_bucket = cumulative(
            np.bincount(key, minlength=sigma * width), r)

    def _runs(self, starts, img, table=None):
        """Hold the walk tables, starts (with its n + 1 sentinel) and img,
        as they are, and the (shift, bucket) table of starts, made here
        unless given."""
        self.starts = starts
        self.img = img
        self.shift, self.bucket = table or buckets(starts, self.n)

    def _per_symbol(self, flat):
        """dict c -> c's stretch of a table in (symbol, position) order."""
        f = self.first_run
        return {c: flat[f[c] - 1:f[c + 1] - 1]
                for c in range(1, self.sigma + 1)}

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

    def backward_step(self, sp, ep, c):
        """One backward step by c: returns (sp', ep', edge), or None when c
        does not occur in bwt[sp..ep] (no position of c's block has its
        Psi value in sp..ep).

        sp' and ep' are C[c] plus the occurrences of c before sp, and up
        to ep, plus one and plus zero: in c's stretch of the pair, the LF
        image of the last c-run starting at or before the position, plus
        the position's offset in it; past the run's end, ep' is the run's
        last image and sp' the next run's first. Each position's search
        bisects one bucket of c's section of lex_bucket, which holds about
        one run, and ep's serves the toehold too. edge is 0 when the
        toehold just drops by one, else where its sample is: on the BWT side
        (TOEHOLD_AT_EP) the end of the c-run before ep, on the Psi side
        the first position of the run whose head sample SA[sp] becomes.
        """
        starts, lf, bucket = self.lex_starts, self.lex_img, self.lex_bucket
        shift = self.lex_shift
        lo = self.first_run[c] - 1
        base = (c - 1) * self.lex_width
        b = base + (ep >> shift)
        k = bisect_right(starts, ep, bucket[b], bucket[b + 1])
        if k == lo:
            return None
        first, end = lf[k - 1], lf[k] - 1
        ep2 = first + ep - starts[k - 1]
        edge = 0
        if ep2 > end:
            ep2 = end
            if self.TOEHOLD_AT_EP:
                edge = starts[k - 1] + end - first
        b = base + (sp >> shift)
        k = bisect_right(starts, sp, bucket[b], bucket[b + 1])
        if k > lo:
            sp2 = lf[k - 1] + sp - starts[k - 1]
            if sp2 < lf[k]:
                # sp lies in a c-run, so the range holds a c
                return sp2, ep2, edge
            sp2 = lf[k]
        else:
            sp2 = lf[lo]
        if sp2 > ep2:
            return None
        return sp2, ep2, edge if self.TOEHOLD_AT_EP else sp2

    def step(self, j):
        """One LF step (BWT side) or Psi step (Psi side) from position j:
        run q's image plus j's offset in it, run q found by one search
        in j's bucket of starts."""
        starts, bucket = self.starts, self.bucket
        b = j >> self.shift
        q = bisect_right(starts, j, bucket[b], bucket[b + 1])
        return self.img[q - 1] + j - starts[q - 1]


class RunLengthBWT(BackwardSearch):
    TOEHOLD_AT_EP = True

    def __init__(self, n, sigma, start, letters):
        self.n = n
        self.sigma = sigma
        self.r = len(letters)
        starts = np.append(view(start.positions), n + 1).astype(np.int64)
        # runs in (symbol, position) order are the LF order of their
        # first positions: LF(run q's first position) is one plus the
        # length of all runs before q in that order; a stable sort of
        # symbols in the narrowest type that holds sigma (8 or 16 bits)
        # is a radix sort
        sym = np.asarray(letters, dtype=np.min_scalar_type(sigma))
        order = np.argsort(sym, kind="stable")
        lf = np.concatenate(([0], np.cumsum(np.diff(starts)[order]))) + 1
        cut = np.searchsorted(sym[order], np.arange(sigma + 2))
        self._pair(starts[order], lf, lf[cut] - 1)
        img = np.empty(self.r, dtype=np.int64)
        img[order] = lf[:-1]
        self._runs(uint_array(n + 1, starts), uint_array(n, img),
                   start.buckets_to_end())

    @property
    def start(self):
        """Sparse bitvector of the run starts: format v1's section."""
        return SparseBitvector(view(self.starts)[:-1], self.n)

    @property
    def letters(self):
        """Run head symbols in run order, format v1's section: run q's is
        the c whose LF block C[c] + 1 .. C[c + 1] holds img[q-1]."""
        return (np.searchsorted(self.C, view(self.img)) - 1).tolist()

    # own names: the benchmark's tracer wraps methods in the class __dict__
    backward_step = BackwardSearch.backward_step
    lf_step = BackwardSearch.step


def build_rlbwt(bundle):
    bwt = bundle.bwt
    # run p starts at bwt position starts[p-1]: 1, then after every change
    starts = np.concatenate(([1], np.flatnonzero(bwt[1:] != bwt[:-1]) + 2))
    return RunLengthBWT(bundle.n, bundle.text.sigma,
                        SparseBitvector(starts, bundle.n),
                        bwt[starts - 1])
