"""Regenerate golden.json: CSV sha256 and exact S estimate per sampler config.

Run from the repository root, only when the seeded output is meant to
change:  python3 perfbench/pin_golden.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)
from biphoton import montecarlo  # noqa: E402


def pin(n_per_setting, out_dir):
    pins = []
    for cfg in workloads.SAMPLER_CONFIGS:
        batch = montecarlo.sample_events(workloads.sampler_config(cfg, n_per_setting))
        s, _ = montecarlo.estimate_chsh(batch.split_by_setting())
        path = out_dir / "pin.csv"
        rc, _ = workloads.run_cli(workloads.export_argv(cfg, n_per_setting, path))
        if rc != 0:
            raise RuntimeError(f"sample failed for {cfg}")
        pins.append({"sha256": workloads.sha256_file(path), "s_estimate": s})
        path.unlink()
    return pins


def main():
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    golden = {str(n): pin(n, out_dir)
              for n in (workloads.FULL.n_per_setting, workloads.TINY.n_per_setting)}
    (workloads.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
