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
distance from the mark down to the nearest removed one. iphi checks that
data on the gap its own successor search found and returns None for a
step it cannot vouch for.
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

    def __init__(self, runs, s, variant, removed, samples_sub, marks_l,
                 mark_map, valid=None, valid_area=None):
        super().__init__(s, variant, removed, samples_sub, mark_map, valid,
                         valid_area)
        self.runs = runs
        self.n = runs.n
        self.sa_first = runs.n            # SA[1] = n, never removed
        self.marks_l = marks_l

    def _direction(self):
        runs = self.runs
        return (runs, self.sa_first, runs.psi, runs.run_start, runs.run_end,
                self.iphi)

    # -- iphi on the surviving marks --------------------------------------

    def iphi(self, i, check=False):
        """SA[j+1] for i = SA[j], from i's successor mark; with check, None
        unless the validity data show no removed mark between them."""
        marks = self.marks_l
        k = marks.rank1(i - 1) + 1
        if k <= marks.ones:
            succ = marks.positions[k - 1]
        else:
            k = 1
            succ = marks.positions[0] + self.n
        if check and not self.valid.get(k) and (
                self.variant == 1
                or succ - i >= self.valid_area[self.valid.rank0(k) - 1]):
            return None
        return self.samples_sub[self.mark_map[k - 1] - 1] - (succ - i)

    # own name: the benchmark's tracer replaces locate in the class __dict__
    locate = Subsampled.locate


def build_srcsa(bundle, s, variant=0, block=DEFAULT_BLOCK):
    from .rcsa import build_rcsa

    return subsample_rcsa(build_rcsa(bundle, block), s, variant)


def subsample_rcsa(rcsa, s, variant=0):
    """Build the subsampled index from a full one."""
    return SrCsa(rcsa.runs, s, variant,
                 *SrCsa._parts(rcsa, rcsa.marks_l, s, variant))
