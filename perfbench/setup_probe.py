"""Time one cold set-up in a fresh interpreter: ``import teamsolve`` from the
checkout's ``src`` plus building one workload instance.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints one JSON object with ``import_s`` and ``build_s``.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import teamsolve  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
