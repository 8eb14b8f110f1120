"""Where the benchmark runs: the checkout it sits in and lzindex from source.

The benchmark always imports lzindex from the checkout's own `src/`, never
from an installed copy, so it measures the code beside it. Without that
source it stops before printing any result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = Path(__file__).resolve().parent / "runs"  # index files, results, span dumps


def import_lzindex():
    # lzindex is single-threaded; keep numpy's thread pools from starting
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    package = SRC / "lzindex"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no lzindex source at {package}")
    sys.path.insert(0, str(SRC))
    import lzindex

    if Path(lzindex.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported lzindex from {lzindex.__file__}, not {package}")
    return lzindex
