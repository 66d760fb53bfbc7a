"""Run-sampled locating on top of the run-length BWT.

Text positions SA[j]-1 at run starts are marked in a sparse bitvector
(domain [0..n-1], stored shifted to [1..n]); each run keeps the SA value
at its last position, minus one. phi maps SA[j]-1 to SA[j-1]; locate walks
phi from the toehold SA[ep] maintained during backward search.
"""

from .succinct import SparseBitvector


class RIndex:
    def __init__(self, rl, first, first_to_run, samples):
        self.rl = rl
        self.n = rl.n
        self.first = first                  # marks, stored at value+1
        self.first_to_run = first_to_run    # k-th mark -> its run
        self.samples = samples              # run p -> SA[last of p] - 1
        self.sa_last = samples[rl.r - 1] + 1  # SA[n]

    def phi(self, i):
        """SA value preceding the one at text position i+1; i in [0..n-1]."""
        k = self.first.rank1(i + 1)
        if k:
            pred = self.first.positions[k - 1] - 1
        else:
            # cyclic wrap; unreachable for i = SA[j]-1 with j >= 2
            k = self.first.ones
            pred = self.first.positions[k - 1] - 1 - self.n
        p = self.first_to_run[k - 1]
        prev = p - 1 if p >= 2 else self.rl.r
        return self.samples[prev - 1] + 1 + (i - pred)

    def count_toehold(self, syms):
        """Backward search keeping SA[ep]; returns (sp, ep, SA[ep]) or None."""
        th = self.rl.toehold_search(syms)
        if th is None:
            return None
        sp, ep, p, after = th
        return sp, ep, (self.samples[p - 1] if p else self.sa_last) - after

    def count(self, syms):
        return self.rl.count(syms)

    def locate(self, syms, sort=False):
        th = self.count_toehold(syms)
        if th is None:
            return []
        sp, ep, last = th
        out = [last]
        v = last
        for _ in range(ep - sp):
            v = self.phi(v - 1)
            out.append(v)
        if sort:
            out.sort()
        return out


def build_rindex(bundle, rl=None):
    from .rlbwt import build_rlbwt

    if rl is None:
        rl = build_rlbwt(bundle)
    sa = bundle.sa
    starts = rl.start.positions
    marks = []
    for p, j in enumerate(starts, 1):
        marks.append((sa[j - 1] - 1, p))
    marks.sort()
    first = SparseBitvector([m + 1 for m, _ in marks], rl.n)
    first_to_run = [p for _, p in marks]
    samples = [sa[rl.run_end(p) - 1] - 1 for p in range(1, rl.r + 1)]
    return RIndex(rl, first, first_to_run, samples)
