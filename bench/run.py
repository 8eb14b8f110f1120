"""Benchmark of lzindex: build, save, load, locate and extract.

    python3 bench/run.py --workload repetitive --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

For the workload it generates the text and the queries from the seed, then
builds, saves, loads and queries the index one call at a time (closed loop,
one thread). Builds run one after another in fresh child processes
(build_child.py), so each reports the peak memory of a process that only
generated the text and built the index; the index the first one saves is
loaded and queried here. Every answer is checked against the benchmark's
own scan and slicing, outside the timed sections.

Every time is process CPU time rescaled by a reference loop (calib.py).
After one untimed warm-up round, timed rounds repeat until --seconds have
passed, each round loading the index afresh and running every query batch.

--trace 1 first takes the untraced figures, then wraps the lzindex layers
(tracing.py) and measures again, and reports the per-layer split plus the
tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

from checkout import ROOT, RUNS, import_lzindex

lzindex = import_lzindex()

import calib  # noqa: E402
import workloads  # noqa: E402
from tracing import BUILD_TIMES, Tracer, layer_metrics  # noqa: E402

BUILDS = 3  # set-up repeats per untraced run; setup_s is their median
LOADS_PER_ROUND = 2  # a load is one long call, so it gets more samples
CHILD_TIMEOUT_S = 170
CHILD = Path(__file__).resolve().parent / "build_child.py"

E2E_UNITS = {
    "setup_s": "s",
    "build_peak_rss_mb": "MB",
    "index_bytes_per_char": "B/char",
    "load_s": "s",
    "locate_short_us_per_occ": "us",
    "locate_long_p50_ms": "ms",
    "locate_long_p90_ms": "ms",
    "locate_near_miss_p50_ms": "ms",
    "locate_near_miss_p90_ms": "ms",
    "extract_chars_per_s": "1/s",
    "extract_short_us": "us",
}
TIMED_E2E = [m for m in E2E_UNITS if m not in ("build_peak_rss_mb", "index_bytes_per_char")]
LOCATE_CLASSES, EXTRACT_CLASSES = workloads.LOCATE_CLASSES, workloads.EXTRACT_CLASSES
OP_CLASSES = ("build", "roundtrip", "parse", "load") + LOCATE_CLASSES + EXTRACT_CLASSES


class Ops:
    """Attempted and failed operations per class; a failure is an exception
    or a wrong answer."""

    def __init__(self):
        self.attempted = defaultdict(int)
        self.failed = defaultdict(int)
        self.wrong = 0
        self.notes: list[str] = []

    def record(self, cls: str, answer, expected) -> None:
        self.attempted[cls] += 1
        if isinstance(answer, Exception):
            self.failed[cls] += 1
            self._note(f"{cls}: {type(answer).__name__}: {answer}")
        elif answer != expected:
            self.failed[cls] += 1
            self.wrong += 1
            self._note(f"{cls}: wrong answer")

    def _note(self, msg: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(msg)


def p90(xs):
    """Nearest-rank 90th percentile."""
    s = sorted(xs)
    return s[math.ceil(0.9 * len(s)) - 1]


def lg_ceil(n: int, z: int) -> int:
    """ceil(lg(n/z)), at least 1."""
    t = 1
    while (1 << t) * z < n:
        t += 1
    return t


# -- the operations ------------------------------------------------------------


def child_build(name: str, seed: int, out: Path | None):
    cmd = [sys.executable, str(CHILD), "--workload", name, "--seed", str(seed)]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"build child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec, rec["raw_s"], rec["loop_before_s"], rec["loop_after_s"]


def call(tracer, root, label, fn, *args):
    try:
        if tracer is None:
            return fn(*args)
        return tracer.root(root, label, fn, *args)
    except Exception as e:  # counted as a failed operation
        return e


def program_counters(idx) -> dict[str, int]:
    """The program's own cumulative counters, where it still has them."""
    out = {}
    searches = [getattr(idx, a, None) for a in ("ps_d", "ps_dp")]
    grammars = [getattr(idx, a, None) for a in ("bt", "rev_bt")]
    for counter, objs, attr in (
        ("prefix_search.h_lookups", searches, "h_lookups"),
        ("prefix_search.g_lookups", searches, "g_lookups"),
        ("grammar.node_visits", grammars, "node_visits"),
    ):
        vals = [getattr(o, attr) for o in objs if o is not None and hasattr(o, attr)]
        if vals:
            out[counter] = sum(vals)
    return out


def count_deltas(tracer, before: dict, after: dict) -> None:
    for k, v in after.items():
        if k in before:
            tracer.count(k, v - before[k])


def locate_batch(idx, patterns, tracer, label):
    """Locate each pattern; returns (answers, per-query CPU ns)."""
    answers, times = [], []
    if tracer is not None:
        tracer.begin()
        before = program_counters(idx)
    clock = time.process_time_ns
    for p in patterns:
        c0 = clock()
        answers.append(call(tracer, "index.locate", label, idx.locate, p))
        times.append(clock() - c0)
        if tracer is not None:
            st = getattr(idx, "last_stats", None)
            if isinstance(st, dict) and "primary" in st:
                tracer.count("index.primary_occ", len(st["primary"]))
                tracer.count("index.secondary_occ", len(st["secondary"]))
                tracer.count("index.identified", sum(st["identified"].values()))
    if tracer is not None:
        count_deltas(tracer, before, program_counters(idx))
    return answers, times


def extract_batch(idx, ranges, tracer, label):
    if tracer is not None:
        tracer.begin()
        before = program_counters(idx)
    answers = [call(tracer, "index.extract", label, idx.extract, i, j) for i, j in ranges]
    if tracer is not None:
        count_deltas(tracer, before, program_counters(idx))
        tracer.count("chars", sum(j - i + 1 for i, j in ranges))
    return answers, None


def load(path, tracer):
    if tracer is not None:
        tracer.begin()
    return call(tracer, "index.load", "", lzindex.Index.load, path)


# -- one measurement pass -------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.spec = workloads.WORKLOADS[name]
        self.text = workloads.make_text(self.spec, seed)
        self.n = len(self.text)
        self.q = workloads.make_queries(self.spec, self.text, seed)
        self.expected = {
            "short": [workloads.scan(self.text, p) for p in self.q.short],
            "long": [workloads.scan(self.text, p) for p in self.q.long],
            "near_miss": [[] for _ in self.q.near_miss],  # absence confirmed by the scan
            "extract_long": [list(self.text[i - 1 : j]) for i, j in self.q.extract_long],
            "extract_short": [list(self.text[i - 1 : j]) for i, j in self.q.extract_short],
        }


def setup(w: Workload, path: Path, builds: int, ops: Ops, log: dict):
    """Untraced set-up: `builds` child builds, the first saving the index."""
    times, scales, raws, rss = [], [], [], []
    for b in range(builds):
        try:
            rec, t = calib.retimed(lambda: child_build(w.name, w.seed, path if b == 0 else None),
                                   calib.BUILD_MAX_RETIMES)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            ops.record("build", e, None)
            continue
        ops.record("build", rec["error"], None)
        log["setup_retimes"] += t.retimes
        times.append(t.s)
        raws.append(t.raw_s)
        scales.append(t.scale)
        rss.append(rec["peak_rss_mb"])
    if not path.exists():
        raise SystemExit(f"bench: no build of {w.name} succeeded: {ops.notes}")
    return median(times), median(raws), median(scales), median(rss)


def measure(w: Workload, path: Path, seconds: float, ops: Ops, tracer, builds: int):
    """One pass: set-up, warm-up round, timed rounds. Returns (metrics, log)."""
    cal = calib.Calibrator()
    t0 = time.perf_counter()
    log = {"retimes": 0, "setup_retimes": 0, "raw": {}, "scale": {}, "rounds": 0, "wall": {}}
    metrics = {}
    if tracer is None:
        setup_s, raw, scale, rss = setup(w, path, builds, ops, log)
        metrics["build_peak_rss_mb"] = rss
    else:

        def traced_build():
            tracer.begin()
            return call(tracer, "index.build", "", lzindex.Index.build, w.text)

        idx, t = cal.time(traced_build, calib.BUILD_MAX_RETIMES)
        setup_s, raw, scale = tracer.collect("", t.scale), t.raw_s, t.scale
        err = idx if isinstance(idx, Exception) else workloads.parse_error(idx, w.text)
        ops.record("build", err, None)
        if isinstance(idx, Exception):
            raise SystemExit(f"bench: traced build failed: {idx!r}")
        idx.save(path)
        del idx
    log["wall"]["setup"] = time.perf_counter() - t0
    metrics["setup_s"] = setup_s
    log["raw"]["setup_s"], log["scale"]["setup_s"] = raw, scale
    data = path.read_bytes()
    metrics["index_bytes_per_char"] = len(data) / w.n

    # warm-up round, untimed; also the once-per-run checks
    idx = lzindex.Index.load(path)
    ops.record("roundtrip", call(None, "", "", idx.to_bytes), data)
    ops.record("parse", workloads.parse_error(idx, w.text), None)
    log["paper"] = paper_terms(idx, w.n, len(data))
    if tracer is not None:
        words = "index.words_per_z_lg_n_over_z"
        log["structure"] = structure_counts(idx, w.n) | {words: log["paper"][words]}
    for cls in LOCATE_CLASSES + EXTRACT_CLASSES:
        batch = locate_batch if cls in LOCATE_CLASSES else extract_batch
        for a, e in zip(batch(idx, getattr(w.q, cls), None, cls)[0], w.expected[cls]):
            ops.record(cls, a, e)
    del idx
    if tracer is not None:
        tracer.begin()

    log["wall"]["warm_up"] = time.perf_counter() - t0 - log["wall"]["setup"]
    # per metric: (raw CPU s, scale, work) per load or per query chunk, where
    # the metric is a function of the rescaled time and the work
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while log["rounds"] == 0 or time.perf_counter() < deadline:
        log["rounds"] += 1
        idx = None
        for _ in range(LOADS_PER_ROUND):
            del idx
            # start every load from the same collector state, so that the
            # full collections it triggers fall alike in every load
            gc.collect()
            idx, t = cal.time(lambda: load(path, tracer))
            if tracer is not None:
                tracer.collect("", t.scale)
            ops.record("load", idx if isinstance(idx, Exception) else None, None)
            if isinstance(idx, Exception):
                break
            samples["load_s"].append((t.raw_s, t.scale, 1))
        if isinstance(idx, Exception):
            continue
        if tracer is not None:
            grid_q = getattr(idx, "grid_q", None)
            tracer.source_grids = {id(grid_q)} if grid_q is not None else set()
        answers = {}
        for cls in LOCATE_CLASSES + EXTRACT_CLASSES:
            batch = locate_batch if cls in LOCATE_CLASSES else extract_batch
            on_chunk = None if tracer is None else (lambda scale: tracer.collect(cls, scale))
            chunks = cal.batch(getattr(w.q, cls), lambda c: batch(idx, c, tracer, cls), on_chunk)
            answers[cls] = [a for _, got, _, _ in chunks for a in got]
            for chunk, got, ns, t in chunks:
                lists = [a for a in got if isinstance(a, list)]
                if cls == "short":
                    samples["locate_short_us_per_occ"].append((t.raw_s, t.scale, max(sum(map(len, lists)), 1)))
                elif cls in ("long", "near_miss"):
                    samples[f"locate_{cls}"] += [(x / 1e9, t.scale, 1) for x in ns]
                elif cls == "extract_long":
                    samples["extract_chars_per_s"].append((t.raw_s, t.scale, sum(map(len, lists))))
                else:
                    samples["extract_short_us"].append((t.raw_s, t.scale, len(chunk)))
        del idx
        for cls, got in answers.items():
            for a, e in zip(got, w.expected[cls], strict=True):
                ops.record(cls, a, e)
        cal.pause()
    if not samples:
        raise SystemExit(f"bench: no load of {w.name} succeeded: {ops.notes}")
    log["retimes"] += cal.retimes
    log["wall"]["rounds"] = time.perf_counter() - deadline + seconds

    per_work = {  # metric value from (seconds, work)
        "load_s": lambda s, k: s,
        "locate_short_us_per_occ": lambda s, k: s / k * 1e6,
        "extract_chars_per_s": lambda s, k: k / s,
        "extract_short_us": lambda s, k: s / k * 1e6,
    }
    for key, f in per_work.items():
        # median over loads, or over the chunks of every round
        metrics[key] = median(f(raw * scale, k) for raw, scale, k in samples[key])
        log["raw"][key] = median(f(raw, k) for raw, _, k in samples[key])
        log["scale"][key] = median(scale for _, scale, _ in samples[key])
    nq = {cls: len(getattr(w.q, cls)) for cls in ("long", "near_miss")}
    for cls, n in nq.items():
        # each query's median over the rounds, then quantiles over queries
        xs = samples[f"locate_{cls}"]
        per_q = [median(raw * scale * 1e3 for raw, scale, _ in xs[q::n]) for q in range(n)]
        raw_q = [median(raw * 1e3 for raw, _, _ in xs[q::n]) for q in range(n)]
        for q, pick in (("p50", median), ("p90", p90)):
            key = f"locate_{cls}_{q}_ms"
            metrics[key] = pick(per_q)
            log["raw"][key] = pick(raw_q)
            log["scale"][key] = median(scale for _, scale, _ in xs)
    return metrics, log


def paper_terms(idx, n: int, file_bytes: int) -> dict:
    st = idx.stats()
    z = st["phrases"]
    lg = lg_ceil(n, z)
    return {
        "n": n, "z": z, "capped_z": st["capped_phrases"], "tau": st["tau"],
        "lg_n_over_z": lg, "z_lg_n_over_z": z * lg,
        "index.words_per_z_lg_n_over_z": file_bytes / 8 / (z * lg),
    }


def structure_counts(idx, n: int) -> dict:
    st = idx.stats()
    out = {
        "lz77.phrases": st["phrases"],
        "lz77.capped_phrases": st["capped_phrases"],
        "grammar.nodes": sum(v for k, v in st.items() if k.endswith("grammar_nodes")),
        "trie.vertices": sum(v for k, v in st.items() if k.startswith("trie_") and k.endswith("_vertices")),
        "range_report.points": st.get("grid_points", 0) + st.get("source_points", 0),
    }
    tables = [getattr(getattr(idx, a, None), t, None) for a in ("ps_d", "ps_dp") for t in ("G", "H")]
    if all(isinstance(t, dict) for t in tables):
        out["prefix_search.dict_entries"] = sum(len(t) for t in tables)
    for section, size in idx.component_sizes().items():
        out[f"index.bytes_per_char.{section}"] = size / n
    return out


def layer_unit(name: str) -> str:
    layer, stem = name.split(".")[:2]
    if layer == "trace_overhead":
        return E2E_UNITS[stem]
    if stem == "bytes_per_char":
        return "B/char"
    if stem == "node_visits_per_char":
        return "visits/char"
    if stem in ("candidate_yield", "words_per_z_lg_n_over_z"):
        return "ratio"
    return "s" if stem.endswith("_s") else "count"


# -- command line -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    w = Workload(name, seed)
    ops = Ops()
    stem = f"{name}-s{seed}-{os.getpid()}"
    path = RUNS / f"{stem}.idx"
    try:
        e2e, log = measure(w, path, seconds / 2 if trace else seconds, ops, None,
                           1 if trace else BUILDS)
        report = {"workload": name, "seed": seed, "trace": int(trace), "e2e": e2e, "log": log}
        layers = None
        if trace:
            path.unlink()
            tracer = Tracer()
            tracer.install(lzindex)
            traced, tlog = measure(w, path, seconds / 2, ops, tracer, 1)
            layers = layer_metrics(tracer, tlog["structure"])
            for metric in TIMED_E2E:
                layers[f"trace_overhead.{metric}"] = traced[metric] - e2e[metric]
            build_sum = sum(layers[s] for s in BUILD_TIMES)
            report.update(traced=traced, traced_log=tlog, layers=layers,
                          build_sum_s=build_sum, unmapped_s=tracer.unmapped_s)
            tracer.dump(RUNS / f"{stem}.spans.tsv.gz")
    finally:
        path.unlink(missing_ok=True)
    report["ops"] = {c: [ops.attempted[c], ops.failed[c]] for c in OP_CLASSES}
    report["notes"] = ops.notes
    (RUNS / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    print_report(report)
    return report, ops


def print_report(r: dict) -> None:
    tag = f"[{r['workload']} seed={r['seed']}]"
    p = r["log"]["paper"]
    print(f"{tag} paper terms: n={p['n']} z={p['z']} capped_z={p['capped_z']} tau={p['tau']} "
          f"lg(n/z)={p['lg_n_over_z']} z*lg(n/z)={p['z_lg_n_over_z']} "
          f"words/(z*lg(n/z))={p['index.words_per_z_lg_n_over_z']:.3f}")
    log = r["log"]
    for k, v in r["e2e"].items():
        extra = ""
        if k in log["raw"]:
            extra = f"  (from raw cpu time {log['raw'][k]:.6g}, scale {log['scale'][k]:.4f})"
        print(f"{tag} {k} = {v:.6g} {E2E_UNITS[k]}{extra}")
    print(f"{tag} timed rounds {log['rounds']}, re-timed sections {log['retimes']} "
          f"(builds {log['setup_retimes']}); wall s: "
          + ", ".join(f"{k} {v:.1f}" for k, v in log["wall"].items()))
    print(f"{tag} operations (attempted/failed): "
          + ", ".join(f"{c} {a}/{f}" for c, (a, f) in r["ops"].items()))
    for note in r["notes"]:
        print(f"{tag} FAILED {note}")
    if r.get("layers") is not None:
        for k, v in r["layers"].items():
            print(f"{tag} {k} = {v:.6g} {layer_unit(k)}")
        print(f"{tag} traced setup_s {r['traced']['setup_s']:.6g} s = build layers "
              f"{r['build_sum_s']:.6g} s; unmapped span time {r['unmapped_s']:.3g} s; "
              f"traced re-timed sections {r['traced_log']['retimes']}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    RUNS.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        report, ops = run_workload(name, args.seed, args.seconds, bool(args.trace))
        values = report["layers"] if args.trace else report["e2e"]
        for k, v in values.items():
            unit = layer_unit(k) if args.trace else E2E_UNITS[k]
            metrics[k if len(names) == 1 else f"{name}/{k}"] = {"value": v, "unit": unit}
        attempted += sum(ops.attempted.values())
        failed += sum(ops.failed.values())
        correct = correct and ops.wrong == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
