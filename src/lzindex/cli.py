"""Command line interface: build, locate, extract, stats.

Input files are treated as raw bytes; byte value b becomes symbol b + 1 so
the whole byte range is usable (the library itself takes symbols >= 1 and
rejects a 0 byte). Reported positions are 1-based.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .index import Index, IndexConfig, default_tau


def _encode(data: bytes) -> list[int]:
    return [b + 1 for b in data]


def _decode(symbols) -> bytes:
    return bytes(c - 1 for c in symbols)


def _cmd_build(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    if not data:
        print("error: input file is empty", file=sys.stderr)
        return 1
    idx = Index.build(_encode(data), IndexConfig(tau=args.tau, seed=args.seed))
    idx.save(args.output)
    return 0


def _cmd_locate(args) -> int:
    idx = Index.load(args.index)
    if args.pattern is not None:
        # the argument as the bytes it was given, also those not UTF-8
        patterns = [os.fsencode(args.pattern)]
    else:
        with open(args.pattern_file, "rb") as fh:
            patterns = [line for line in fh.read().splitlines() if line]
    if not patterns:
        print("error: empty pattern", file=sys.stderr)
        return 1
    for pattern in patterns:
        positions = idx.locate(_encode(pattern))
        if args.json:
            print(json.dumps({
                "pattern": pattern.decode("latin-1"),
                "count": len(positions),
                "positions": positions,
            }))
        else:
            for pos in positions:
                print(pos)
    return 0


def _cmd_extract(args) -> int:
    idx = Index.load(args.index)
    if args.start > args.end:
        return 0  # empty range
    sys.stdout.buffer.write(_decode(idx.extract(args.start, args.end)))
    sys.stdout.buffer.flush()
    return 0


def _cmd_stats(args) -> int:
    idx = Index.load(args.index)
    stats = idx.stats()
    for key, value in stats.items():
        print(f"{key}: {value}")
    # the paper's terms, with lg(n/z) rounded up, next to the file's size
    z = stats["phrases"]
    lg = default_tau(idx.n, z)
    print(f"z: {z}")
    print(f"lg_n_over_z: {lg}")
    print(f"z_lg_n_over_z: {z * lg}")
    print(f"words_per_z_lg_n_over_z: {os.path.getsize(args.index) / 8 / (z * lg):.3f}")
    for name, size in idx.component_sizes().items():
        print(f"bytes[{name}]: {size}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lzindex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an index from a file")
    p_build.add_argument("-i", "--input", required=True, help="text file to index")
    p_build.add_argument("-o", "--output", required=True, help="index file to write")
    p_build.add_argument("--tau", type=int, default=None, help="short/long pattern cutoff")
    p_build.add_argument("--seed", type=int, default=0, help="fingerprint selection seed")
    p_build.set_defaults(func=_cmd_build)

    p_locate = sub.add_parser("locate", help="report all occurrences of a pattern")
    p_locate.add_argument("-x", "--index", required=True, help="index file")
    group = p_locate.add_mutually_exclusive_group(required=True)
    group.add_argument("-p", "--pattern", help="pattern as a literal string")
    group.add_argument("-f", "--pattern-file",
                       help="file with one pattern per line, queried in order")
    p_locate.add_argument("--json", action="store_true",
                          help="print one JSON object per pattern, one per line")
    p_locate.set_defaults(func=_cmd_locate)

    p_extract = sub.add_parser("extract", help="print a substring of the indexed text")
    p_extract.add_argument("-x", "--index", required=True, help="index file")
    p_extract.add_argument("-i", "--start", type=int, required=True, help="1-based start")
    p_extract.add_argument("-j", "--end", type=int, required=True, help="1-based end, inclusive")
    p_extract.set_defaults(func=_cmd_extract)

    p_stats = sub.add_parser("stats", help="print index statistics")
    p_stats.add_argument("-x", "--index", required=True, help="index file")
    p_stats.set_defaults(func=_cmd_stats)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
