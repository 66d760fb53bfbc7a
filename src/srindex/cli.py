"""Command-line front end.

Verbs: build, query, stats, verify, bench, gen-corpus. Query output is
TSV: pattern id, occurrence count, and (for locate) the positions.
"""

import argparse
import csv
import json
import sys

from . import toolkit
from .rcsa import DEFAULT_BLOCK


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _write(path, data):
    with open(path, "wb") as f:
        f.write(data)


def _read_patterns(path):
    with open(path, "rb") as f:
        return [line.rstrip(b"\r\n") for line in f if line.rstrip(b"\r\n")]


def cmd_build(args):
    s = args.s if args.kind in toolkit.SUBSAMPLED_KINDS else None
    built = toolkit.build_index(
        _read(args.input), args.kind, s=s, variant=args.variant,
        block=args.block, fasta=args.fasta)
    _write(args.output, built.serialize())
    print(f"built {args.kind} over n={built.ix.n} -> {args.output}")


def cmd_query(args):
    built = toolkit.load_index(_read(args.index))
    patterns = _read_patterns(args.patterns)
    w = sys.stdout
    for i, pat in enumerate(patterns):
        if args.mode == "count":
            w.write(f"{i}\t{built.count(pat)}\n")
        else:
            positions = built.locate(pat, sort=args.sorted)
            row = "\t".join(str(p) for p in positions)
            w.write(f"{i}\t{len(positions)}" + ("\t" + row if row else "")
                    + "\n")


def cmd_stats(args):
    data = _read(args.input)
    if data[:4] == b"SRIX":
        report = toolkit.index_stats(data)
    else:
        report = toolkit.text_stats(data, bins=args.bins, fasta=args.fasta)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_verify(args):
    kinds = args.kinds.split(",") if args.kinds else None
    ok, report = toolkit.verify(
        _read(args.input), kinds=kinds, seed=args.seed, fasta=args.fasta)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    print("OK" if ok else "MISMATCH", file=sys.stderr)
    return 0 if ok else 1


def cmd_bench(args):
    built = toolkit.load_index(_read(args.index))
    patterns = _read_patterns(args.patterns)
    row = toolkit.bench(built, patterns, reps=args.reps)
    w = csv.DictWriter(sys.stdout, fieldnames=list(row))
    w.writeheader()
    w.writerow(row)


def cmd_gen_corpus(args):
    data = toolkit.gen_corpus(
        base_size=args.base_size, copies=args.copies,
        mutation=args.mutation, seed=args.seed)
    _write(args.output, data)
    print(f"wrote {len(data)} bytes -> {args.output}")


def make_parser():
    p = argparse.ArgumentParser(
        prog="srindex",
        description="run-length compressed full-text self-indexes")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an index from a text file")
    b.add_argument("input")
    b.add_argument("--output", "-o", required=True)
    b.add_argument("--kind", choices=toolkit.KINDS, default="sr-index")
    b.add_argument("--s", type=int, default=8,
                   help="sampling distance (subsampled kinds only)")
    b.add_argument("--variant", type=int, choices=(0, 1, 2), default=0)
    b.add_argument("--B", dest="block", type=int, default=DEFAULT_BLOCK,
                   help="delta-stream block size (psi kinds)")
    b.add_argument("--fasta", action="store_true")
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="run count or locate queries")
    q.add_argument("index")
    q.add_argument("patterns", help="file with one pattern per line")
    q.add_argument("--mode", choices=("count", "locate"), default="count")
    q.add_argument("--sorted", action="store_true",
                   help="sort located positions")
    q.set_defaults(func=cmd_query)

    st = sub.add_parser("stats", help="structure statistics for a text "
                                      "or a serialized index")
    st.add_argument("input")
    st.add_argument("--bins", type=int, default=20)
    st.add_argument("--fasta", action="store_true")
    st.set_defaults(func=cmd_stats)

    v = sub.add_parser("verify", help="check all kinds against a naive scan")
    v.add_argument("input")
    v.add_argument("--kinds", help="comma-separated subset of kinds")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--fasta", action="store_true")
    v.set_defaults(func=cmd_verify)

    be = sub.add_parser("bench", help="time queries against an index")
    be.add_argument("index")
    be.add_argument("patterns")
    be.add_argument("--reps", type=int, default=3)
    be.set_defaults(func=cmd_bench)

    g = sub.add_parser("gen-corpus", help="generate a repetitive test text")
    g.add_argument("--output", "-o", required=True)
    g.add_argument("--base-size", type=int, default=100_000)
    g.add_argument("--copies", type=int, default=10)
    g.add_argument("--mutation", type=float, default=0.001)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_corpus)
    return p


class CliError(SystemExit, ValueError):
    """An input error already reported on stderr. Uncaught, it ends the
    program with status 2 and no traceback; callers of main() can still
    catch it as the ValueError it replaces."""


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        rc = args.func(args)
    except ValueError as exc:  # envelope.FormatError is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        raise CliError(2) from None
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
