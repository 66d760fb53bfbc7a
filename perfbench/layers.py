"""Which library functions the traced run wraps, and how its spans become
the per-layer metrics.

Each wrapped function is a public boundary of one module of the library.
Span names are "<module>.<function>". Query spans are the outermost spans
that the workload opens around one count or locate call; every span below
one of them belongs to that query.
"""

import functools
import statistics

import numpy as np

SPANNED_FUNCTIONS = [  # (module, function, span name)
    ("textcore", "ingest", "textcore.ingest"),
    ("textcore", "build_bundle", "textcore.build_bundle"),
    ("rlbwt", "build_rlbwt", "rlbwt.build"),
    ("rindex", "build_rindex", "rindex.build"),
    ("srindex", "subsample_rindex", "srindex.subsample"),
    ("rcsa", "build_psi_runs", "rcsa.build_psi_runs"),
    ("rcsa", "build_rcsa", "rcsa.build"),
    ("srcsa", "subsample_rcsa", "srcsa.subsample"),
    ("envelope", "serialize", "envelope.serialize"),
    ("envelope", "deserialize", "envelope.deserialize"),
    ("succinct", "delta_read", "succinct.delta_read"),
]

SPANNED_METHODS = [  # (module, class, method, span name)
    ("rlbwt", "RunLengthBWT", "backward_step", "rlbwt.backward_step"),
    ("rlbwt", "RunLengthBWT", "lf_step", "rlbwt.lf_step"),
    ("rindex", "RIndex", "count_toehold", "rindex.count_toehold"),
    ("rindex", "RIndex", "phi", "rindex.phi"),
    ("srindex", "SrIndex", "phi", "srindex.phi"),
    ("rcsa", "PsiRuns", "backward_step", "rcsa.backward_step"),
    ("rcsa", "PsiRuns", "psi", "rcsa.psi"),
    ("rcsa", "RCsa", "iphi", "rcsa.iphi"),
    ("rcsa", "RCsa", "count_toehold", "rcsa.count_toehold"),
    ("srcsa", "SrCsa", "iphi", "srcsa.iphi"),
    ("succinct", "BlockedDeltaSeq", "access", "succinct.delta_seq.access"),
    ("succinct", "BlockedDeltaSeq", "pred", "succinct.delta_seq.pred"),
    ("toolkit", "BuiltIndex", "map_pattern", "toolkit.map_pattern"),
]

# called so often that a span per call would swamp the trace: counted only
COUNTED_METHODS = [
    ("succinct", "SparseBitvector", "rank1", "succinct.sparse.rank1"),
    ("succinct", "DenseBitvector", "rank1", "succinct.dense.rank1"),
    ("succinct", "SymbolSequence", "rank", "succinct.symseq.rank"),
]

BUILD_SPANS = {  # metric (mean seconds per call) -> span name
    "textcore.ingest_s": "textcore.ingest",
    "textcore.build_bundle_s": "textcore.build_bundle",
    "rlbwt.build_s": "rlbwt.build",
    "rindex.build_s": "rindex.build",
    "srindex.subsample_s": "srindex.subsample",
    "rcsa.build_psi_runs_s": "rcsa.build_psi_runs",
    "rcsa.build_s": "rcsa.build",
    "srcsa.subsample_s": "srcsa.subsample",
    "envelope.serialize_s": "envelope.serialize",
    "envelope.deserialize_s": "envelope.deserialize",
}

BWT_SIDE = ("r-index", "sr-index")
PSI_SIDE = ("r-csa", "sr-csa")
VARIANTS = (0, 1, 2)


def install(tracer, lib, holder):
    """Wrap the library for one traced run. holder.counters is the
    QueryCounters that subsampled locates record into; the workload sets a
    fresh one before every query."""
    for mod, fn, name in SPANNED_FUNCTIONS:
        tracer.wrap_function(getattr(lib, mod), fn, name)
    for mod, cls, meth, name in SPANNED_METHODS:
        tracer.wrap_method(getattr(getattr(lib, mod), cls), meth, name)
    for mod, cls, meth, name in COUNTED_METHODS:
        tracer.wrap_method(getattr(getattr(lib, mod), cls), meth, name,
                           counted=True)
    for cls in (lib.srindex.SrIndex, lib.srcsa.SrCsa):
        tracer.replace(cls, "locate",
                       _with_counters(cls.__dict__["locate"], holder))


def _with_counters(locate, holder):
    @functools.wraps(locate)
    def wrapper(self, syms, sort=False, counters=None):
        return locate(self, syms, sort,
                      holder.counters if counters is None else counters)
    return wrapper


class Query:
    """One traced count or locate: its span, config label, op and answer
    size, the QueryCounters totals, and the counted-only call counts."""

    __slots__ = ("span", "label", "op", "occ", "walks", "walk_steps",
                 "tally")

    def __init__(self, span, label, op, occ, walks, walk_steps, tally):
        self.span = span
        self.label = label
        self.op = op
        self.occ = occ
        self.walks = walks
        self.walk_steps = walk_steps
        self.tally = tally


def _ratio(a, b):
    return a / b if b else 0.0


class _View:
    """Span arrays joined with the query table."""

    def __init__(self, tracer, arr, queries):
        self.arr = arr
        self.ids = {nm: i for i, nm in enumerate(tracer.names)}
        self.counted = {nm: i for i, nm in enumerate(tracer.counted)}
        self.queries = queries
        nspans = arr["dur"].size
        of_root = np.full(nspans, -1, dtype=np.int64)
        of_root[[q.span for q in queries]] = np.arange(len(queries))
        self.query_of = of_root[arr["root"]] if nspans else of_root
        self.in_query = self.query_of >= 0

    def select(self, op, kinds=None, label=None):
        """Boolean mask over queries."""
        return np.array([
            q.op == op
            and (kinds is None or q.label.split(".")[0] in kinds)
            and (label is None or q.label == label)
            for q in self.queries], dtype=bool)

    def spans_in(self, qmask):
        out = np.zeros(self.query_of.size, dtype=bool)
        ok = self.in_query
        if qmask.size:
            out[ok] = qmask[self.query_of[ok]]
        return out

    def named(self, name):
        nid = self.ids.get(name)
        return self.arr["name"] == (-1 if nid is None else nid)

    def calls(self, name, qmask):
        return int(np.count_nonzero(self.named(name) & self.spans_in(qmask)))

    def tally(self, name, qmask):
        k = self.counted[name]
        return sum(q.tally[k] for q, m in zip(self.queries, qmask) if m)

    def occ(self, qmask):
        return sum(q.occ for q, m in zip(self.queries, qmask) if m)

    def us_per_call(self, name, mask=None):
        sel = self.named(name) & (self.in_query if mask is None else mask)
        return 1e6 * float(self.arr["dur"][sel].mean()) if sel.any() else 0.0

    def query_us(self, qmask):
        return [1e6 * float(self.arr["dur"][q.span])
                for q, m in zip(self.queries, qmask) if m]

    def children_per_parent(self, child, parent):
        """Mean number of child spans directly under each parent span,
        over parent spans inside queries."""
        is_parent = self.named(parent) & self.in_query
        parents = np.flatnonzero(is_parent)
        if not parents.size:
            return 0.0
        kids = self.named(child) & is_parent[np.maximum(self.arr["parent"],
                                                        0)]
        kids &= self.arr["parent"] >= 0
        return int(np.count_nonzero(kids)) / parents.size


def per_layer(tracer, queries, counting_bps, locating_bps):
    """Per-layer metrics: {name: (value, unit)}. A layer the workload does
    not reach reports 0 calls and 0 time."""
    arr = tracer.arrays()
    v = _View(tracer, arr, queries)
    out = {}

    for metric, span in BUILD_SPANS.items():
        sel = v.named(span)
        out[metric] = (float(arr["dur"][sel].mean()) if sel.any() else 0.0,
                       "s")
    out["envelope.counting_bits_per_sym"] = (counting_bps, "bit/sym")
    out["envelope.locating_bits_per_sym"] = (locating_bps, "bit/sym")

    def per_pattern(name, kinds=None, counted=False):
        qm = v.select("count", kinds)
        calls = v.tally(name, qm) if counted else v.calls(name, qm)
        return (_ratio(calls, int(qm.sum())), "count")

    def per_occ(name, kinds=None, label=None, counted=False):
        qm = v.select("locate", kinds, label)
        calls = v.tally(name, qm) if counted else v.calls(name, qm)
        return (_ratio(calls, v.occ(qm)), "count")

    def locate_us_per_occ(label):
        qm = v.select("locate", label=label)
        return (_ratio(sum(v.query_us(qm)), v.occ(qm)), "us/occ")

    def steps_avg(label):
        qm = v.select("locate", label=label)
        walks = sum(q.walks for q, m in zip(queries, qm) if m)
        steps = sum(q.walk_steps for q, m in zip(queries, qm) if m)
        return (_ratio(steps, walks), "count")

    def us(name):
        return (v.us_per_call(name), "us")

    out["rlbwt.backward_step.calls_per_pattern"] = per_pattern(
        "rlbwt.backward_step", BWT_SIDE)
    out["rlbwt.backward_step.us_per_call"] = us("rlbwt.backward_step")
    out["rlbwt.lf_step.calls_per_occ"] = per_occ("rlbwt.lf_step", BWT_SIDE)
    out["rlbwt.lf_step.us_per_call"] = us("rlbwt.lf_step")
    out["rindex.count_toehold.us_per_call"] = us("rindex.count_toehold")
    out["rindex.phi.calls_per_occ"] = per_occ("rindex.phi", label="r-index")
    out["rindex.phi.us_per_call"] = us("rindex.phi")
    out["rindex.locate_us_per_occ"] = locate_us_per_occ("r-index")
    for k in VARIANTS:
        label = f"sr-index.v{k}"
        pre = f"srindex.v{k}."
        out[pre + "locate_us_per_occ"] = locate_us_per_occ(label)
        out[pre + "lf_steps_per_occ"] = per_occ("rlbwt.lf_step", label=label)
        out[pre + "phi.calls_per_occ"] = per_occ("srindex.phi", label=label)
        out[pre + "steps_avg"] = steps_avg(label)

    out["rcsa.backward_step.calls_per_pattern"] = per_pattern(
        "rcsa.backward_step", PSI_SIDE)
    out["rcsa.backward_step.us_per_call"] = us("rcsa.backward_step")
    out["rcsa.psi.calls_per_occ"] = per_occ("rcsa.psi", PSI_SIDE)
    out["rcsa.psi.us_per_call"] = us("rcsa.psi")
    out["rcsa.iphi.calls_per_occ"] = per_occ("rcsa.iphi", label="r-csa")
    out["rcsa.iphi.us_per_call"] = us("rcsa.iphi")
    out["rcsa.count_toehold.us_per_call"] = us("rcsa.count_toehold")
    out["rcsa.locate_us_per_occ"] = locate_us_per_occ("r-csa")
    for k in VARIANTS:
        label = f"sr-csa.v{k}"
        pre = f"srcsa.v{k}."
        out[pre + "locate_us_per_occ"] = locate_us_per_occ(label)
        out[pre + "psi_steps_per_occ"] = per_occ("rcsa.psi", label=label)
        out[pre + "iphi.calls_per_occ"] = per_occ("srcsa.iphi", label=label)
        out[pre + "steps_avg"] = steps_avg(label)

    out["succinct.delta_read.calls_per_pattern"] = per_pattern(
        "succinct.delta_read")
    out["succinct.delta_read.us_per_call"] = us("succinct.delta_read")
    loads = int(np.count_nonzero(v.named("envelope.deserialize")))
    under_load = v.named("succinct.delta_read") & (arr["parent"] >= 0)
    under_load[under_load] = v.named("envelope.deserialize")[
        arr["parent"][under_load]]
    out["succinct.delta_read.calls_per_load"] = (
        _ratio(int(np.count_nonzero(under_load)), loads), "count")
    out["succinct.delta_seq.access.us_per_call"] = us(
        "succinct.delta_seq.access")
    out["succinct.delta_seq.pred.us_per_call"] = us("succinct.delta_seq.pred")
    out["succinct.delta_seq.codes_per_access"] = (v.children_per_parent(
        "succinct.delta_read", "succinct.delta_seq.access"), "count")
    out["succinct.delta_seq.codes_per_pred"] = (v.children_per_parent(
        "succinct.delta_read", "succinct.delta_seq.pred"), "count")
    out["succinct.sparse.rank1.calls_per_occ"] = per_occ(
        "succinct.sparse.rank1", counted=True)
    out["succinct.dense.rank1.calls_per_occ"] = per_occ(
        "succinct.dense.rank1", counted=True)
    out["succinct.symseq.rank.calls_per_pattern"] = per_pattern(
        "succinct.symseq.rank", counted=True)
    out["toolkit.map_pattern.us_per_call"] = us("toolkit.map_pattern")

    for op in ("count", "locate"):
        lat = v.query_us(v.select(op))
        out[f"traced.{op}_us.p50"] = (
            statistics.median(lat) if lat else 0.0, "us")
    return out, arr
