"""Subsampled Psi-run suffix array: the Psi-side mirror of srindex.py.

The head samples (SA values at Psi-run starts) are subsampled with a
right-to-left sweep, which is the BWT side's left-to-right sweep on
mirrored values: a sample is dropped when the running right survivor and
the original left neighbor are within distance s. Marks whose paired head
sample was dropped disappear. Lost toeholds are recovered by Psi walks of
fewer than s steps; locating resolves ranges left to right through Psi
images and falls back to the iphi chain at depth s - 1. All of that is the
shared core in srindex.Subsampled; this module only fixes the direction.
The full r-CSA (rcsa.RCsa) is this index at s = 1, where nothing is
dropped.

Variants mirror the BWT side: variant 1 keeps a validity bit per
surviving mark gap (removed marks below the mark), variant 2 adds the
distance from the mark down to the nearest removed one. Held as the
core's per-gap tables, iphi is one successor search on the marks plus one
add, and its reuse check one comparison with the gap's lim.
"""

from .srindex import Subsampled, subsample
from .succinct import DEFAULT_BLOCK


def subsample_back(sorted_values, s):
    """Right-to-left sweep; returns (kept list, removed set)."""
    kept, removed = subsample([-v for v in reversed(sorted_values)], s)
    return [-v for v in reversed(kept)], {-v for v in removed}


class SrCsa(Subsampled):
    DIR = 1       # Psi: SA[Psi(i)] = SA[i] + 1
    SHIFT = 0     # samples are SA[run head]; iphi takes SA
    PROBE = -1    # SA[j]'s gap ends at the first mark >= it

    def __init__(self, runs, s, variant, removed, samples_sub, marks_l,
                 mark_map, valid=None, valid_area=None):
        self.runs = runs
        self.sa_first = runs.n            # SA[1] = n, never removed
        super().__init__(runs.n, s, variant, removed, samples_sub, marks_l,
                         mark_map, valid, valid_area)

    marks_l = property(lambda self: self.marks)

    def _direction(self):
        return self.runs, self.sa_first

    # own names: the benchmark's tracer replaces these in the class __dict__
    iphi = Subsampled.phi
    locate = Subsampled.locate


def build_srcsa(bundle, s, variant=0, block=DEFAULT_BLOCK):
    from .rcsa import build_rcsa

    return subsample_rcsa(build_rcsa(bundle, block), s, variant)


def subsample_rcsa(rcsa, s, variant=0):
    """Build the subsampled index from a full one."""
    return SrCsa(rcsa.runs, s, variant, *SrCsa._parts(rcsa, s, variant))
