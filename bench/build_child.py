"""Generate one workload's text and build its index in a fresh process.

Run by run.py once per build, so that the process's peak resident memory
is that of generating the text and building the index, and nothing else.
Prints one JSON line: the build's CPU seconds, the reference loop before
and after it, the peak RSS, and whether the built parse decodes back to
the text.

    python3 bench/build_child.py --workload repetitive --seed 1 [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from checkout import import_lzindex

lzindex = import_lzindex()

import calib  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="save the built index here")
    args = ap.parse_args()
    text = workloads.make_text(workloads.WORKLOADS[args.workload], args.seed)
    before = calib.ref_loop(calib.SECTION_PASSES)
    c0 = time.process_time_ns()
    idx = lzindex.Index.build(text)
    raw = (time.process_time_ns() - c0) / 1e9
    after = calib.ref_loop(calib.SECTION_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error = workloads.parse_error(idx, text)
    if args.out:
        idx.save(args.out)
    print(json.dumps({"raw_s": raw, "loop_before_s": before, "loop_after_s": after,
                      "peak_rss_mb": rss_mb, "error": error}))


if __name__ == "__main__":
    main()
