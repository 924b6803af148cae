"""Regenerate `reference.json`, the final states the benchmark gates on.

    python3 perfbench/make_reference.py

Runs every workload variant once with the nlpf in `src/` and stores, per
variant, theta and chi at up to `SAMPLE_CELLS` evenly spaced cells plus their
means over all cells. Regenerate only when a change is meant to alter the
solution, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import tracing
import workloads

SAMPLE_CELLS = 64


def rounded(values):
    """12 significant digits: far below every tolerance, half the bytes."""
    return [float(f"{v:.12g}") for v in values]


def main():
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    nlpf = run.import_nlpf()
    import numpy as np

    work_dir = run.WORK / f"reference-{os.getpid()}"
    work_dir.mkdir(parents=True)
    data = {"sample_cells": SAMPLE_CELLS, "workloads": {}}
    try:
        for name in workloads.WORKLOADS:
            entry = None
            for variant in range(workloads.NUM_VARIANTS):
                cfg = work_dir / f"{name}.cfg"
                cfg.write_text(workloads.config_text(name, variant))
                shutil.rmtree(work_dir / "out", ignore_errors=True)
                result = run.run_path(nlpf, cfg, work_dir / "out",
                                      tracing.NullTracer())
                theta, chi = result["theta"], result["chi"]
                if entry is None:
                    cells = np.unique(np.linspace(
                        0, theta.size - 1, min(SAMPLE_CELLS, theta.size))
                        .round().astype(int))
                    entry = {"cells": cells.tolist(), "variants": {}}
                idx = entry["cells"]
                entry["variants"][str(variant)] = {
                    "theta": rounded(theta[idx]),
                    "chi": [rounded(row) for row in chi[idx]],
                    "theta_mean": rounded([np.mean(theta)])[0],
                    "chi_mean": rounded(np.mean(chi, axis=0)),
                }
                print(f"{name} variant {variant}: steps {result['steps']}, "
                      f"rejections {result['rejections']}", flush=True)
            data["workloads"][name] = entry
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    sys.exit(main())
