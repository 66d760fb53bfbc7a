"""Run-sampled locating on top of the run-length BWT: the r-index.

Text positions SA[j]-1 at run starts are marked in a sparse bitvector
(domain [0..n-1], stored shifted to [1..n]); each run keeps the SA value
at its last position, minus one. phi maps SA[j]-1 to SA[j-1]: one
predecessor search on the marks and one add of the offset held for the
gap it lands in; locate walks phi from the toehold SA[ep] maintained
during backward search.

This is the sr-index at s = 1, where the sweep drops nothing, so RIndex is
an SrIndex with no sample removed and locates through srindex.Subsampled.
It keeps format v1's names for its tables: first (the marks), samples,
and first_to_run (each mark's run), which is derived on write from the
per-gap offsets, as SrIndex derives mark_map.
"""

import numpy as np

from .srindex import SrIndex
from .succinct import SparseBitvector


class RIndex(SrIndex):
    def __init__(self, rl, first, first_to_run, samples):
        r = rl.r
        # run p's first-position mark pairs with the sample of run p-1
        # (cyclic), the slot SrIndex's mark_map holds
        runs = np.asarray(first_to_run, dtype=np.int64)
        super().__init__(rl, 1, 0, int(samples[r - 1]) + 1, None, samples,
                         first, np.where(runs >= 2, runs - 1, r))

    first = property(lambda self: self.marks)
    samples = property(lambda self: self.samples_sub)

    @property
    def first_to_run_array(self):
        """k-th mark -> its run, the format's first_to_run as an array:
        the run after the one whose sample the mark pairs with."""
        slots = self.mark_map_array
        return np.where(slots < self.rl.r, slots + 1, 1)

    first_to_run = property(lambda self: self.first_to_run_array.tolist())

    # own names: the benchmark's tracer wraps methods in the class __dict__
    phi = SrIndex.phi
    count_toehold = SrIndex.count_toehold


def build_rindex(bundle, rl=None):
    from .rlbwt import build_rlbwt

    if rl is None:
        rl = build_rlbwt(bundle)
    sa = bundle.sa
    starts = np.array(rl.start.positions, dtype=np.int64)
    ends = np.append(starts[1:] - 1, rl.n)
    # run p's first position is marked with SA there minus one, stored + 1
    marks = sa[starts - 1]
    order = np.argsort(marks, kind="stable")
    first = SparseBitvector(marks[order].tolist(), rl.n)
    samples = (sa[ends - 1] - 1).tolist()
    return RIndex(rl, first, (order + 1).tolist(), samples)
