"""Set-up probe: a fresh interpreter imports biphoton.cli and warms up.

run.py starts it and times it until the ready line, which carries the
import time measured inside the interpreter.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

t0 = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import biphoton.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

workloads.warm_up(ROOT / ".perfbench_out")
print(json.dumps({"import_s": import_s}), flush=True)
