"""The benchmark's traced run must end in a result the benchmark declares.

bench/run.py wraps the index's layers from outside (bench/tracing.py), so a
change to what the index builds or calls can break the traced run without
breaking any other test. This runs it once, on the smallest workload.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_prints_declared_metrics():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "random", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared["per_layer"])
    # the layers are wrapped at the module attributes the index calls them
    # through; a rename, or a call that bypasses the attribute, would read 0
    for name in ("grammar.build_s", "grammar.extract_s.extract_long",
                 "grammar.node_visits_per_char.extract_long", "trie.build_s",
                 "trie.finalize_load_s", "prefix_search.build_s",
                 "fingerprints.prefix_table_s", "range_report.build_s",
                 "range_report.build_load_s", "trie.locus_walk_s.short"):
        assert result["metrics"][name]["value"] > 0, name
