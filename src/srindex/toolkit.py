"""High-level operations shared by the CLI and the test harness:
building any index kind from raw bytes, synthetic corpus generation,
structure statistics, self-verification against a naive scan, and a
small query benchmark.
"""

import random
import sys
import time

import numpy as np

from . import envelope
from .rcsa import DEFAULT_BLOCK, build_rcsa
from .rindex import build_rindex
from .rlbwt import BackwardSearch, build_rlbwt
from .srcsa import build_srcsa, subsample_rcsa
from .srindex import (QueryCounters, build_srindex, subsample,
                      subsample_rindex)
from .succinct import view
from .textcore import (build_bundle, ingest, oracle_search, pattern_symbols,
                       symbol_codes)

KINDS = list(envelope.KINDS)
SUBSAMPLED_KINDS = ("sr-index", "sr-csa")
HEADER_FIELD_END = 1 << 64   # s and B are stored as u64 header fields


class BuiltIndex:
    """An index plus the alphabet needed to query it with raw bytes."""

    def __init__(self, ix, kind, alphabet):
        self.ix = ix
        self.kind = kind
        self.alphabet = alphabet
        self._codes = symbol_codes(alphabet)

    def map_pattern(self, pattern):
        return pattern_symbols(self._codes, pattern)

    def count(self, pattern):
        syms = self.map_pattern(pattern)
        if syms is None:
            return 0
        return self.ix.count(syms)

    def locate(self, pattern, sort=False):
        if self.kind == "rlbwt":
            raise ValueError("rlbwt supports counting only")
        syms = self.map_pattern(pattern)
        if syms is None:
            return []
        return self.ix.locate(syms, sort=sort)

    def serialize(self):
        return envelope.serialize(self.ix, self.alphabet)


def build_index(data, kind, s=None, variant=0, block=DEFAULT_BLOCK,
                fasta=False):
    """Raw bytes -> BuiltIndex of the requested kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 1 <= block < HEADER_FIELD_END:
        raise ValueError("block size B must lie in 1 .. 2**64 - 1")
    if kind in SUBSAMPLED_KINDS:
        if s is None or not 1 <= s < HEADER_FIELD_END:
            raise ValueError(f"{kind} needs a sampling distance s in "
                             "1 .. 2**64 - 1")
        if variant not in (0, 1, 2):
            raise ValueError("variant must be 0, 1 or 2")
    else:
        if s is not None:
            raise ValueError(f"{kind} takes no sampling distance")
        if variant:
            raise ValueError(f"{kind} has no variants")
    text = ingest(data, fasta=fasta)
    bundle = build_bundle(text)
    if kind == "rlbwt":
        ix = build_rlbwt(bundle)
    elif kind == "r-index":
        ix = build_rindex(bundle)
    elif kind == "sr-index":
        ix = build_srindex(bundle, s, variant)
    elif kind == "r-csa":
        ix = build_rcsa(bundle, block)
    else:
        ix = build_srcsa(bundle, s, variant, block)
    return BuiltIndex(ix, kind, text.alphabet)


def load_index(data):
    ix, kind, alphabet = envelope.deserialize(data)
    return BuiltIndex(ix, kind, alphabet)


# -- synthetic corpus -------------------------------------------------------


def gen_corpus(base_size=100_000, copies=10, mutation=0.001, seed=0,
               alphabet=b"ACGT", motif_size=8192, motif_mutation=0.0005):
    """Repetitive synthetic text: a low-entropy base (a random motif tiled
    with light mutations) replicated with per-symbol mutations."""
    if base_size < 1 or copies < 1:
        raise ValueError("base size and copies must be at least 1")
    if not 0 <= mutation <= 1:
        raise ValueError("mutation must lie in [0, 1]")
    if not alphabet or 0 in bytes(alphabet):
        raise ValueError(f"alphabet {bytes(alphabet)!r}: empty or with byte 0")

    rng = np.random.default_rng(seed)
    alpha = np.frombuffer(bytes(alphabet), dtype=np.uint8)
    motif_size = min(motif_size, base_size)
    motif = alpha[rng.integers(0, len(alpha), motif_size)]
    reps = -(-base_size // motif_size)
    base = np.tile(motif, reps)[:base_size]
    base = _mutate(base, alpha, motif_mutation, rng)
    parts = [base]
    for _ in range(copies - 1):
        parts.append(_mutate(base, alpha, mutation, rng))
    return np.concatenate(parts).tobytes()


def _mutate(arr, alpha, p, rng):
    out = arr.copy()
    hits = rng.random(arr.size) < p
    count = int(hits.sum())
    if count:
        out[hits] = alpha[rng.integers(0, alpha.size, count)]
    return out


# -- statistics -------------------------------------------------------------


def text_stats(data, s_values=(1, 2, 4, 8, 16, 64), bins=20, fasta=False):
    """Run structure of a text: n, r, n/r, confined Psi-run count, kept
    samples per s, and a run-head density histogram over text positions.
    The Psi runs are the BWT runs in LF order, so their count is r, and
    is reported as r without building them."""
    if bins < 1:
        raise ValueError("bins must be at least 1")
    text = ingest(data, fasta=fasta)
    bundle = build_bundle(text)
    rl = build_rlbwt(bundle)
    rindex = build_rindex(bundle, rl)
    values = sorted(rindex.samples)
    kept = {}
    for s in s_values:
        kept_list, _ = subsample(values, s)
        kept[s] = len(kept_list)
    # histogram of run-start text positions (the marks)
    marks = view(rindex.first.positions).astype(np.int64)
    hist = np.bincount(np.minimum((marks - 1) * bins // rl.n, bins - 1),
                       minlength=bins).tolist()
    return {
        "n": rl.n,
        "sigma": rl.sigma,
        "r": rl.r,
        "n_over_r": rl.n / rl.r,
        "psi_runs": rl.r,
        "kept_samples": kept,
        "mark_histogram": hist,
    }


def index_stats(data):
    """Envelope bytes -> size breakdown in bits per symbol, the seconds
    each section takes to decode and to encode again, and the bytes each
    table of the loaded index takes in memory, with their total, also per
    BWT run."""
    params = envelope.read_params(data)
    sizes = envelope.section_sizes(data)
    n = params["n"]
    per_section = {name: 8 * ln / n for name, ln in sizes.items()}
    decode_s, encode_s = {}, {}
    ix, _, alphabet = envelope.deserialize(data, decode_s)
    envelope.serialize(ix, alphabet, encode_s)
    memory = memory_bytes(ix)
    total = sum(memory.values())
    return {
        **params,
        "bits_per_symbol": 8 * len(data) / n,
        "counting_bps": envelope.counting_bits(data) / n,
        "locating_bps": envelope.locating_bits(data) / n,
        "section_bps": per_section,
        "section_decode_s": decode_s,
        "section_encode_s": encode_s,
        "memory_bytes": memory,
        "memory_bytes_total": total,
        "memory_bytes_per_run": total / params["r"],
    }


def memory_bytes(ix):
    """In-memory bytes per top-level table of an index: one entry per
    attribute, the run structure's under its attribute's name ("rl.start"),
    from a sys.getsizeof walk that counts an object shared by several
    tables (a small int, a sentinel, an array two tables hold) once, under
    the first table that reaches it. So both sides count their run table
    pair under its names, lex_starts and lex_img, and the Psi side's
    starts and img, which are that pair, at 0."""
    seen = set()

    def size(obj):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        total = sys.getsizeof(obj)
        if isinstance(obj, dict):
            total += sum(size(k) + size(v) for k, v in obj.items())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            total += sum(map(size, obj))
        elif hasattr(obj, "__dict__"):
            total += size(vars(obj))
        return total

    out = {}
    for name, value in vars(ix).items():
        if isinstance(value, BackwardSearch):
            out.update((f"{name}.{inner}", size(table))
                       for inner, table in vars(value).items())
        else:
            out[name] = size(value)
    return out


# -- verification -----------------------------------------------------------

VERIFY_MAX_N = 10_000_000


def verify(data, kinds=None, s_values=(4, 8), seed=0,
           pattern_lengths=(10, 20, 30), patterns_per_length=20,
           fasta=False):
    """Check every index kind against the naive scan on sampled patterns.

    Returns (ok, report). Patterns are sampled from the text at the given
    lengths, plus short adversarial ones (length 1 and 2, and symbols
    outside the text's alphabet).
    """
    if kinds is None:
        kinds = KINDS
    unknown = [k for k in kinds if k not in KINDS]
    if unknown:
        raise ValueError(f"unknown kind(s) {', '.join(unknown)}; "
                         f"known: {', '.join(KINDS)}")
    text = ingest(data, fasta=fasta)
    if text.n > VERIFY_MAX_N:
        raise ValueError(f"text too large to verify (n > {VERIFY_MAX_N})")
    raw = np.array(text.alphabet, dtype=np.uint8)[
        text.symbols[:-1] - 1].tobytes()
    rng = random.Random(seed)
    patterns = []
    for ln in pattern_lengths:
        for _ in range(patterns_per_length):
            if len(raw) >= ln:
                i = rng.randrange(len(raw) - ln + 1)
                patterns.append(raw[i:i + ln])
    for ln in (1, 2):
        for _ in range(5):
            i = rng.randrange(max(1, len(raw) - ln + 1))
            patterns.append(raw[i:i + ln])
    patterns.append(bytes(b for b in range(1, 3)))  # likely out of alphabet
    patterns.append(b"\xff\xfe")

    bundle = build_bundle(text)
    rl = build_rlbwt(bundle)
    rindex = build_rindex(bundle, rl)
    rcsa = build_rcsa(bundle, rl=rl)
    indexes = {}
    for kind in kinds:
        if kind in SUBSAMPLED_KINDS:
            sub, full = ((subsample_rindex, rindex) if kind == "sr-index"
                         else (subsample_rcsa, rcsa))
            indexes[kind] = [sub(full, s, v) for s in s_values
                             for v in (0, 1, 2)]
        else:
            indexes[kind] = [{"rlbwt": rl, "r-index": rindex,
                              "r-csa": rcsa}[kind]]
    report = {"n": text.n,
              "kinds": {kind: {"checked": 0, "mismatches": 0}
                        for kind in indexes},
              "patterns": len(patterns)}
    # one scan per pattern, checked against every index while it is held
    for pat in patterns:
        occ, positions = oracle_search(text, pat)
        syms = text.map_pattern(pat)
        for kind, ixs in indexes.items():
            tally = report["kinds"][kind]
            for ix in ixs:
                tally["checked"] += 1
                got_occ = 0 if syms is None else ix.count(syms)
                if got_occ != occ:
                    tally["mismatches"] += 1
                elif kind != "rlbwt":
                    got = [] if syms is None else sorted(ix.locate(syms))
                    if got != positions:
                        tally["mismatches"] += 1
    ok = all(t["mismatches"] == 0 for t in report["kinds"].values())
    return ok, report


# -- benchmarking -----------------------------------------------------------


def bench(built, patterns, reps=3):
    """Time count and locate; returns a row dict per the CSV schema.

    Times are the best of reps runs. steps_avg is the mean recursion depth
    per recorded occurrence: the depth k at which a subsampled locate
    resolved each occurrence after the toehold, averaged together with
    the lengths of toehold recovery walks. It is not a count of LF or Psi
    steps walked, and it is 0 for every kind without subsampling.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    data = built.serialize()
    n = built.ix.n
    params = envelope.read_params(data)
    total_occ = 0
    best_count = best_locate = float("inf")
    can_locate = built.kind != "rlbwt"
    counters = QueryCounters()
    for _ in range(reps):
        t0 = time.perf_counter()
        for pat in patterns:
            total_occ += built.count(pat)
        best_count = min(best_count, time.perf_counter() - t0)
        if can_locate:
            t0 = time.perf_counter()
            for pat in patterns:
                syms = built.map_pattern(pat)
                if syms is not None:
                    built.ix.locate(syms, counters=counters)
            best_locate = min(best_locate, time.perf_counter() - t0)
    occ_per_rep = total_occ // reps
    us_per_occ = (1e6 * best_locate / occ_per_rep
                  if can_locate and occ_per_rep else 0.0)
    steps_avg = (counters.walk_steps / counters.walks
                 if counters.walks else 0.0)
    return {
        "kind": built.kind,
        "s": params["s"],
        "variant": params["variant"],
        "bps": round(8 * len(data) / n, 4),
        "counting_bps": round(envelope.counting_bits(data) / n, 4),
        "locating_bps": round(envelope.locating_bits(data) / n, 4),
        "count_us_per_pattern": round(
            1e6 * best_count / max(1, len(patterns)), 3),
        "us_per_occ": round(us_per_occ, 4),
        "steps_avg": round(steps_avg, 4),
    }
