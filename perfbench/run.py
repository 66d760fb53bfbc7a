#!/usr/bin/env python3
"""srindex benchmark.

    python3 perfbench/run.py --workload {build,bwt-query,psi-query}
        --seed N --seconds S --trace {0,1}

Every workload runs on gen_corpus(100_000, 10, 0.001, seed) (n = 1,000,001,
n/r about 88) as one closed-loop client: one thread, and the next
operation starts when the previous one returned. Every answer is checked
against a naive scan. The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones (see README.md).
A summary with provenance goes to perfbench/out/.

An untraced run is split into rounds, each in a fresh worker process that
this script starts and waits for, one at a time. The speed of the Psi-side
code differs by up to 1.7x between processes with the same input (it
follows the address-space layout), so one process is one sample of that
layout and a run pools several. A traced run is one process.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc

import layers
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

BASE_SIZE, COPIES, MUTATION = 100_000, 10, 0.001
S = 8
LENGTHS = (8, 16, 32)
QUERY_CONFIGS = {  # (kind, s, variant)
    "bwt-query": [("r-index", None, 0)] + [("sr-index", S, v)
                                           for v in (0, 1, 2)],
    "psi-query": [("r-csa", None, 0)] + [("sr-csa", S, v)
                                         for v in (0, 1, 2)],
}
BUILD_KINDS = ("sr-index", "sr-csa")
BUILD_VARIANT = 2        # the variant that builds every stage
QUERY_ROUNDS = 6         # workers per query run
QUERY_SETUP_ROUNDS = 3   # of which build from scratch; setup_s is their
                         # median, the others load what the first built
MIN_BUILD_ROUNDS = 2     # build workers, one iteration each, and more
                         # until --seconds have passed
BUILD_CHECK_ROUNDS = 6   # then workers that load round 0's envelopes
BUILD_SETUP_REPS = 3     # per build worker; setup_s is the median
BUILD_CHECKS = 90        # checked queries on the loaded sr-index, timed
BUILD_CSA_CHECKS = 6     # checked queries on the loaded sr-csa, not timed
WARMUP_PATTERNS = 3
TRACE_PATTERNS = {"bwt-query": 300, "psi-query": 24}
WORKER_TIMEOUT_S = 170
WORKLOADS = ("build", "bwt-query", "psi-query")

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s_per_msym": "s/Msym",
    "load_s_per_msym": "s/Msym",
    "peak_rss_b_per_sym": "B/sym",
    "bits_per_sym": "bit/sym",
    "bits_per_run": "bit/run",
    "index_mem_b_per_sym": "B/sym",
    "index_mem_b_per_run": "B/run",
    "count_us.p50": "us",
    "count_us.p90": "us",
    "locate_us_per_occ": "us/occ",
    "locate_us.p50": "us",
    "locate_us.p90": "us",
}


def import_library():
    """The srindex package of this checkout, or exit without a result."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import srindex
        from srindex import (envelope, rcsa, rindex, rlbwt, srcsa, succinct,
                             textcore, toolkit)
        from srindex import srindex as srindex_mod
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import srindex from {src}: {exc}")
    if not os.path.abspath(srindex.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: srindex imported from {srindex.__file__}, "
                 f"not from {src}")

    class Lib:
        pass

    lib = Lib()
    lib.envelope, lib.rcsa, lib.rindex, lib.rlbwt = (envelope, rcsa, rindex,
                                                     rlbwt)
    lib.srcsa, lib.srindex, lib.succinct = srcsa, srindex_mod, succinct
    lib.textcore, lib.toolkit = textcore, toolkit
    return lib


# -- inputs and the oracle ----------------------------------------------------


def corpus(lib, seed):
    return lib.toolkit.gen_corpus(BASE_SIZE, COPIES, MUTATION, seed)


def patterns(data, seed, stream=0):
    """Endless stream of text substrings, lengths cycling 8, 16, 32, so each
    length is exactly a third of any prefix of whole cycles. Each round of
    a run draws from its own stream."""
    rng = random.Random(f"perfbench-patterns-{seed}-{stream}")
    while True:
        for m in LENGTHS:
            i = rng.randrange(len(data) - m + 1)
            yield data[i:i + m]


def patterns_digest(data, seed, count=300):
    stream = patterns(data, seed)
    return hashlib.sha256(b"\n".join(next(stream) for _ in range(count))
                          ).hexdigest()


def oracle(data, pattern):
    """The scan of textcore.oracle_search on the raw bytes, without its
    per-call re-encoding of the text: sorted 1-based starts."""
    out = []
    i = data.find(pattern)
    while i != -1:
        out.append(i + 1)
        i = data.find(pattern, i + 1)
    return out


def cross_check_oracle(lib, session, data, pats):
    text = lib.textcore.ingest(data)
    for p in pats:
        want = oracle(data, p)
        if lib.textcore.oracle_search(text, p) != (len(want), want):
            session.fail(f"benchmark oracle disagrees with oracle_search "
                         f"on {p!r}")


# -- the operation boundary ---------------------------------------------------


class Session:
    """Counts attempted and failed operations; in a traced run also opens
    one span per operation and keeps the traced query table."""

    def __init__(self, lib, tracer=None):
        self.lib = lib
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.queries = []
        self.counters = None
        self.answers = hashlib.sha256()

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
            print(f"perfbench: FAILED {message}", file=sys.stderr)

    def op(self, name, fn, *args):
        """Run one operation; (result, seconds), or None if it raised."""
        self.attempted += 1
        tr = self.tracer
        span = tr.begin(name) if tr else -1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # one failed operation must not end the run
            result = err = traceback.format_exc(limit=3)
        else:
            err = None
        dt = time.perf_counter() - t0
        if tr:
            tr.finish(span)
        self.last_span = span
        if err is not None:
            self.fail(f"{name}: {err}")
            return None
        return result, dt

    def query(self, label, op, bi, pattern, want):
        """Timed count or locate of pattern, checked against want (sorted
        positions); returns the latency in µs, or None if it failed."""
        tr = self.tracer
        if tr:
            qc = self.counters = self.lib.srindex.QueryCounters()
            before = list(tr.tally)
        res = self.op("query." + op, getattr(bi, op), pattern)
        if res is None:
            return None
        got, dt = res
        if op == "locate":
            got = sorted(got)
            ok = got == want
            occ = len(got)
        else:
            ok = got == len(want)
            occ = got
        self.answers.update(f"{label} {op} {pattern!r} {got}\n".encode())
        if not ok:
            self.fail(f"{label} {op} {pattern!r}: got {occ} occurrences, "
                      f"oracle {len(want)}")
            return None
        if tr:
            self.queries.append(layers.Query(
                self.last_span, label, op, occ, qc.walks, qc.walk_steps,
                [a - b for a, b in zip(tr.tally, before)]))
        return 1e6 * dt


# -- query workloads ----------------------------------------------------------


def label_of(kind, s, variant):
    return kind if s is None else f"{kind}.v{variant}"


def build_set(lib, data, configs):
    """Build every config from one suffix-array bundle, the way the
    library's lower-level builders allow. Returns (n, [(label, built)])."""
    text = lib.textcore.ingest(data)
    bundle = lib.textcore.build_bundle(text)
    full = {}
    out = []
    for kind, s, v in configs:
        if kind in ("r-index", "sr-index"):
            if "r-index" not in full:
                rl = lib.rlbwt.build_rlbwt(bundle)
                full["r-index"] = lib.rindex.build_rindex(bundle, rl)
            ix = full["r-index"]
            if s is not None:
                ix = lib.srindex.subsample_rindex(ix, s, v)
        else:
            if "r-csa" not in full:
                full["r-csa"] = lib.rcsa.build_rcsa(bundle)
            ix = full["r-csa"]
            if s is not None:
                ix = lib.srcsa.subsample_rcsa(ix, s, v)
        out.append((label_of(kind, s, v),
                    lib.toolkit.BuiltIndex(ix, kind, text.alphabet)))
    return text.n, out


def query_setup(session, seed, configs):
    """Corpus -> built -> serialized -> loaded indexes, with stage times."""
    lib = session.lib
    t0 = time.perf_counter()
    data = corpus(lib, seed)
    res = session.op("setup.build", build_set, lib, data, configs)
    if res is None:
        return None
    (n, built), t_build = res
    blobs = []
    for _, bi in built:
        res = session.op("setup.serialize", bi.serialize)
        if res is None:
            return None
        blobs.append(res[0])
    labels = [label for label, _ in built]
    del built
    t1 = time.perf_counter()
    loaded = []
    for label, blob in zip(labels, blobs):
        res = session.op("setup.load", lib.toolkit.load_index, blob)
        if res is None:
            return None
        loaded.append((label, res[0]))
    t2 = time.perf_counter()
    return {"data": data, "n": n, "blobs": blobs, "loaded": loaded,
            "timing": {"setup_s": t2 - t0, "build_s": t_build,
                       "load_s": t2 - t1}}


def index_memory(lib, blobs):
    """Bytes that load_index keeps alive, per blob, by tracemalloc."""
    sizes = []
    tracemalloc.start()
    try:
        for blob in blobs:
            before = tracemalloc.get_traced_memory()[0]
            bi = lib.toolkit.load_index(blob)
            sizes.append(tracemalloc.get_traced_memory()[0] - before)
            del bi
    finally:
        tracemalloc.stop()
    return sizes


def space_metrics(lib, blobs, mem, n):
    """Serialized and in-memory size, per symbol and per BWT run, averaged
    over the workload's indexes. Per run removes the seed-to-seed spread
    of r (about 4% here) that per symbol carries."""
    runs = [lib.envelope.read_params(b)["r"] for b in blobs]
    return {
        "bits_per_sym": statistics.mean(8 * len(b) / n for b in blobs),
        "bits_per_run": statistics.mean(8 * len(b) / r
                                        for b, r in zip(blobs, runs)),
        "index_mem_b_per_sym": statistics.mean(mem) / n,
        "index_mem_b_per_run": statistics.mean(m / r
                                               for m, r in zip(mem, runs)),
    }


def run_queries(session, data, loaded, stream, deadline=None, count=None):
    """Query loop: per pattern, count then locate on every index."""
    count_lat, locate_lat = [], []
    occ_total = 0
    done = 0
    while (count is None or done < count) and (
            deadline is None or time.perf_counter() < deadline):
        p = next(stream)
        want = oracle(data, p)
        for label, bi in loaded:
            t = session.query(label, "count", bi, p, want)
            if t is not None:
                count_lat.append(t)
            t = session.query(label, "locate", bi, p, want)
            if t is not None:
                locate_lat.append(t)
                occ_total += len(want)
        done += 1
    return count_lat, locate_lat, occ_total, done


def load_blobs(session, seed, configs, blob_dir):
    """The indexes that round 0 built and saved, loaded, with load time."""
    lib = session.lib
    data = corpus(lib, seed)
    blobs = []
    for i in range(len(configs)):
        with open(os.path.join(blob_dir, f"{i}.srix"), "rb") as f:
            blobs.append(f.read())
    t0 = time.perf_counter()
    loaded = []
    for (kind, s, v), blob in zip(configs, blobs):
        res = session.op("setup.load", lib.toolkit.load_index, blob)
        if res is None:
            return None
        loaded.append((label_of(kind, s, v), res[0]))
    return {"data": data, "n": len(data) + 1, "blobs": blobs,
            "loaded": loaded,
            "timing": {"load_s": time.perf_counter() - t0}}


def query_round(session, workload, seed, k, seconds=None, count=None,
                blob_dir=None, light=False):
    """One set-up and one query phase: for `seconds`, or over `count`
    patterns in a traced run. A light round loads the envelopes round 0
    saved in blob_dir instead of building. Returns (round record, blobs)."""
    lib = session.lib
    configs = QUERY_CONFIGS[workload]
    if light:
        state = load_blobs(session, seed, configs, blob_dir)
    else:
        state = query_setup(session, seed, configs)
    if state is None:
        return None
    data, n, blobs = state["data"], state["n"], state["blobs"]
    rec = {"n": n, "timing": state["timing"],
           "configs": [label for label, _ in state["loaded"]]}
    if k == 0:
        stream = patterns(data, seed)
        cross_check_oracle(lib, session, data,
                           [next(stream) for _ in range(WARMUP_PATTERNS)])
        rec["patterns_sha256"] = patterns_digest(data, seed)
        if blob_dir is not None:
            for i, blob in enumerate(blobs):
                with open(os.path.join(blob_dir, f"{i}.srix"), "wb") as f:
                    f.write(blob)
        if count is None:
            rec["space"] = space_metrics(lib, blobs, index_memory(lib, blobs),
                                         n)
    stream = patterns(data, seed, k)
    if count is None:
        run_queries(session, data, state["loaded"], stream,
                    count=WARMUP_PATTERNS)
        gc.collect()
        deadline = time.perf_counter() + seconds
    else:
        deadline = None
    c, lo, occ, done = run_queries(session, data, state["loaded"], stream,
                                   deadline=deadline, count=count)
    rec.update(count_lat=c, locate_lat=lo, occ=occ, patterns=done)
    return rec, blobs


# -- build workload -----------------------------------------------------------


def build_setup(lib, seed):
    t0 = time.perf_counter()
    data = corpus(lib, seed)
    stream = patterns(data, seed)
    checks = [next(stream) for _ in range(BUILD_CHECKS)]
    wants = [oracle(data, p) for p in checks]
    return data, checks, wants, time.perf_counter() - t0


def build_round(session, seed, k, traced=False, blob_dir=None,
                light=False):
    """Set-up, then build_index and serialize (or, in a light round, read
    the envelopes round 0 saved in blob_dir), load_index and check, for
    each build kind. Returns (round record, blobs)."""
    lib = session.lib
    setups = [build_setup(lib, seed) for _ in range(BUILD_SETUP_REPS)]
    data, checks, wants, _ = setups[-1]
    n = len(data) + 1
    if k == 0:
        cross_check_oracle(lib, session, data, checks[:WARMUP_PATTERNS])
    t_build = t_load = 0.0
    blobs = []
    lat = {"count": [], "locate": []}
    occ = 0
    for i, kind in enumerate(BUILD_KINDS):
        path = blob_dir and os.path.join(blob_dir, f"{i}.srix")
        if light:
            with open(path, "rb") as f:
                blob = f.read()
        else:
            res = session.op("build.build_index", lib.toolkit.build_index,
                             data, kind, S, BUILD_VARIANT)
            if res is None:
                return None
            bi, dt = res
            t_build += dt
            res = session.op("build.serialize", bi.serialize)
            if res is None:
                return None
            blob = res[0]
            del bi
            if k == 0 and path:
                with open(path, "wb") as f:
                    f.write(blob)
        blobs.append(blob)
        res = session.op("build.load_index", lib.toolkit.load_index, blob)
        if res is None:
            return None
        loaded, dt = res
        t_load += dt
        res = session.op("build.reserialize", loaded.serialize)
        if res is not None and res[0] != blob:
            session.fail(f"{kind}: serialize(load_index(blob)) != blob")
        label = label_of(kind, S, BUILD_VARIANT)
        timed = kind == "sr-index"
        pairs = list(zip(checks, wants))
        for p, want in pairs if timed else pairs[:BUILD_CSA_CHECKS]:
            for op in ("count", "locate"):
                t = session.query(label, op, loaded, p, want)
                if timed and t is not None:
                    lat[op].append(t)
                    if op == "locate":
                        occ += len(want)
        del loaded
    rec = {"n": n, "setup_s": [s[3] for s in setups],
           "timing": {"load_s": t_load},
           "count_lat": lat["count"], "locate_lat": lat["locate"], "occ": occ,
           "blob_sha256": [hashlib.sha256(b).hexdigest() for b in blobs]}
    if not light:
        rec["timing"]["build_s"] = t_build
    if k == 0:
        rec["patterns_sha256"] = patterns_digest(data, seed)
        if not traced:
            rec["space"] = space_metrics(lib, blobs, index_memory(lib, blobs),
                                         n)
    return rec, blobs


# -- untraced runs: rounds in worker processes --------------------------------


def run_worker(args, k, seconds, blob_dir, light):
    """Start one round as a worker process, wait for it, return its
    record, or None if it gave none."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "0", "--round", str(k),
           "--blob-dir", blob_dir] + (["--light"] if light else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: round {k} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: round {k} exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def worker_main(args, lib):
    session = Session(lib)
    if args.workload == "build":
        res = build_round(session, args.seed, args.round,
                          blob_dir=args.blob_dir, light=args.light)
    else:
        res = query_round(session, args.workload, args.seed, args.round,
                          seconds=args.seconds, blob_dir=args.blob_dir,
                          light=args.light)
    if res is None:
        sys.exit("perfbench: set-up failed")
    rec = res[0]
    rec.update(attempted=session.attempted, failed=session.failed,
               errors=session.errors,
               answers_sha256=session.answers.hexdigest())
    print(json.dumps(rec))


def quantiles(lat):
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return statistics.median(lat), q[8]


def run_rounds(args):
    """Worker records of one untraced run, or None if one gave none."""
    os.makedirs(OUT_DIR, exist_ok=True)
    blob_dir = tempfile.mkdtemp(prefix="blobs-", dir=OUT_DIR)
    rounds = []

    def add(light, seconds=0.0):
        rec = run_worker(args, len(rounds), seconds, blob_dir, light)
        if rec is not None:
            rounds.append(rec)
        return rec is not None

    t0 = time.perf_counter()
    try:
        if args.workload == "build":
            while (len(rounds) < MIN_BUILD_ROUNDS
                   or time.perf_counter() - t0 < args.seconds):
                if not add(False):
                    return None
            for _ in range(BUILD_CHECK_ROUNDS):
                if not add(True):
                    return None
        else:
            for k in range(QUERY_ROUNDS):
                if not add(k >= QUERY_SETUP_ROUNDS,
                           args.seconds / QUERY_ROUNDS):
                    return None
        return rounds
    finally:
        shutil.rmtree(blob_dir)


def end_to_end(args):
    """Run the rounds; (metrics, attempted, failed, info) or None."""
    rounds = run_rounds(args)
    if rounds is None:
        return None
    failed = 0
    first = rounds[0]
    n = first["n"]
    msym = n / 1e6
    full = [r for r in rounds if "build_s" in r["timing"]]
    build = [r["timing"]["build_s"] / msym for r in full]
    load = [r["timing"]["load_s"] / msym for r in rounds]
    if args.workload == "build":
        setup = [s for r in rounds for s in r["setup_s"]]
        if any(r["blob_sha256"] != first["blob_sha256"] for r in full):
            failed += 1
            print("perfbench: FAILED rebuilding gave different envelopes",
                  file=sys.stderr)
    else:
        setup = [r["timing"]["setup_s"] for r in full]
    count_lat = [t for r in rounds for t in r["count_lat"]]
    locate_lat = [t for r in rounds for t in r["locate_lat"]]
    occ = sum(r["occ"] for r in rounds)
    c50, c90 = quantiles(count_lat)
    l50, l90 = quantiles(locate_lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "build_s_per_msym": statistics.median(build),
        "load_s_per_msym": statistics.median(load),
        # ru_maxrss of the largest worker; each runs only this workload
        "peak_rss_b_per_sym": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / n,
        "count_us.p50": c50, "count_us.p90": c90,
        "locate_us_per_occ": sum(locate_lat) / occ,
        "locate_us.p50": l50, "locate_us.p90": l90,
    }
    metrics.update(first["space"])
    info = {
        "n": n, "patterns_sha256": first["patterns_sha256"],
        "rounds": len(rounds),
        "setup_s_samples": setup, "build_s_per_msym_samples": build,
        "load_s_per_msym_samples": load,
        "count_samples": len(count_lat), "locate_samples": len(locate_lat),
        "occurrences": occ,
        "round_count_us_p50": [statistics.median(r["count_lat"])
                               for r in rounds],
        "answers_sha256": [r["answers_sha256"] for r in rounds],
        "errors": [e for r in rounds for e in r["errors"]],
    }
    attempted = sum(r["attempted"] for r in rounds)
    failed += sum(r["failed"] for r in rounds)
    return metrics, attempted, failed, info


# -- traced runs: one process -------------------------------------------------


def traced(args, lib, tracer):
    """One traced round over a fixed amount of work, so that its counts
    depend only on the seed. (per-layer metrics, session, info) or None."""
    session = Session(lib, tracer)
    layers.install(tracer, lib, session)
    try:
        if args.workload == "build":
            res = build_round(session, args.seed, 0, traced=True)
        else:
            res = query_round(session, args.workload, args.seed, 0,
                              count=TRACE_PATTERNS[args.workload])
    finally:
        tracer.unwrap()
    if res is None:
        return None
    rec, blobs = res
    n = rec["n"]
    env = lib.envelope
    values, arr = layers.per_layer(
        tracer, session.queries,
        statistics.mean(env.counting_bits(b) / n for b in blobs),
        statistics.mean(env.locating_bits(b) / n for b in blobs))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                             "-spans.npz"), arr)
    info = {
        "n": n, "patterns_sha256": rec["patterns_sha256"],
        "answers_sha256": session.answers.hexdigest(),
        "span_count": int(arr["dur"].size),
        "spans": tracer.by_name(arr),
        "counts": {k: v for k, (v, u) in values.items() if u == "count"},
        "errors": session.errors,
    }
    return values, session, info


# -- provenance and output ----------------------------------------------------


def provenance(workload, seed, trace):
    import numpy

    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=30)
        lines = top.stdout.split()
        sha = (lines[1] if top.returncode == 0 and len(lines) == 2
               and os.path.realpath(lines[0]) == os.path.realpath(ROOT)
               else None)
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "srindex")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as f:
                src.update(fn.encode() + b"\0" + f.read())
    return {
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "traced": bool(trace),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--round", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--blob-dir", help=argparse.SUPPRESS)
    ap.add_argument("--light", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    lib = import_library()
    if args.round is not None:
        worker_main(args, lib)
        return
    prov = provenance(args.workload, args.seed, args.trace)
    if args.trace:
        res = traced(args, lib, Tracer())
        if res is None:
            sys.exit("perfbench: set-up failed, no result")
        values, session, info = res
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        attempted, failed = session.attempted, session.failed
    else:
        res = end_to_end(args)
        if res is None:
            sys.exit("perfbench: a round failed to report, no result")
        values, attempted, failed, info = res
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"provenance": prov, "info": info, "result": result}, f,
                  indent=1)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
