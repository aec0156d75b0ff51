"""One-off n-scaling series on grids from the benchmark's generator.

    python3 perfbench/scaling.py 5 20 50

For each n it prints the wall time of run_analysis and run_oracle on one
grid (seed 0), the bytes the returned curves hold, the BRANCH_JUMP count and
the verdict.  It is a reference table for the README, not a benchmark run:
one grid per size, no repetition, no drift correction.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import syncstab
from grids import grid_config


def main(sizes: list[int]) -> None:
    print("n,analysis_s,oracle_s,curves_held_mb,branch_jumps,crossings,verdict")
    for n in sizes:
        spec = syncstab.parse_system_spec(grid_config(np.random.default_rng([0, n]), n))
        start = time.perf_counter()
        result = syncstab.run_analysis(spec, "base")
        mid = time.perf_counter()
        syncstab.run_oracle(result)
        end = time.perf_counter()
        curves = result.curves
        held = sum(v.nbytes for v in vars(curves).values() if isinstance(v, np.ndarray))
        crossings = sum(len(a.crossings) for a in result.report.per_subsystem)
        print(f"{n},{mid - start:.2f},{end - mid:.3f},{held / 1e6:.1f},"
              f"{len(curves.branch_jumps)},{crossings},{result.report.verdict}", flush=True)


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [5, 20, 50])
