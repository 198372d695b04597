#!/usr/bin/env python3
"""Re-capture the stored references the benchmark checks outputs against.

Run from the root of a checkout, only at a commit whose outputs are
known to be right (the references were captured at the first commit
that carried this benchmark):

    python3 perfbench/capture_reference.py

Writes, under perfbench/reference/:
  <workload>_sweep.csv, <workload>_setup.json   for the sweep
  chaotic-manifolds.json   point counts and every SAMPLE_EVERY-th point
The wavefunction workload needs no stored reference: its exact values
are recomputed by the benchmark itself.
"""
import json
import os
import shutil
import sys
import tempfile

import numpy as np

import run

SAMPLE_EVERY = 50


def main():
    os.makedirs(run.REFERENCE, exist_ok=True)
    os.makedirs(run.RUNS_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.RUNS_DIR)
    try:
        for name, workload in run.WORKLOADS.items():
            if workload["kind"] == "wavefunction":
                continue
            spec = run.make_spec(name, trace=False, repeat=0)
            rep = run.run_repeat(os.path.join(tmp, name), spec)
            if rep["timing"] is None or rep["timing"]["exit_code"] != 0:
                sys.exit(f"{name}: workload failed; no reference written")
            out = os.path.join(rep["dir"], "out")
            if workload["kind"] == "sweep":
                shutil.copy(
                    os.path.join(out, f"{spec['preset']}_sweep.csv"),
                    os.path.join(run.REFERENCE, f"{name}_sweep.csv"),
                )
                with open(os.path.join(run.REFERENCE, f"{name}_setup.json"), "w") as fh:
                    json.dump(rep["timing"]["setup"], fh, indent=1)
            else:
                ref = {"K": 8.25}
                for curve in run.MANIFOLD_CURVES:
                    pts = run._load_curve(os.path.join(out, f"{spec['preset']}_{curve}.csv"))
                    idx = np.unique(np.r_[np.arange(0, len(pts), SAMPLE_EVERY), len(pts) - 1])
                    ref[curve] = {"points": len(pts), "samples": pts[idx].tolist()}
                with open(os.path.join(run.REFERENCE, f"{name}.json"), "w") as fh:
                    json.dump(ref, fh)
            print(f"captured {name}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
