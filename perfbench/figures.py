#!/usr/bin/env python3
"""Reference figures for the README: one staged (traced) operation each on
the A5, A6 and A7 systems of the roadmap, plus bare interpreter start.

    python3 perfbench/figures.py            # A5, A6 and A7 (A7 takes ~30 s)
    python3 perfbench/figures.py --no-a7

Not part of any workload: A7 stays out of them because one operation takes
tens of seconds.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import run
import workloads
import reference as ref

SYSTEMS = {
    "A5": (5, ("(0 3)(1 4)", "(0 4 3 1 2)", "(0 4 3 2 1)"), ("(2 3 4)", "(0 2 1)", "(0 1 2 4 3)")),
    "A6": (6, workloads.A6_SYSTEM1, workloads.A6_SYSTEM2),
    "A7": (7, ("(1 4)(3 6)", "(0 6)(2 4 5 3)", "(0 6 5 4 1 2 3)"),
           ("(2 6 4)", "(0 1 4 3 5)", "(0 5 3 4 6 2 1)")),
}


def bare_start_ms(probes: int = 5) -> float:
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--no-a7", action="store_true")
    args = parser.parse_args()
    run.load_pqsurf()
    import layers

    work = run.OUT / "figures"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print(f"bare interpreter start  {bare_start_ms():.1f} ms")
        for name, (degree, cyc1, cyc2) in SYSTEMS.items():
            if name == "A7" and args.no_a7:
                continue
            gens = [ref.from_cycles(c, degree) for c in cyc1 + cyc2]
            path = work / f"{name}.pq"
            xs, ys = ["x1", "x2", "x3"], ["y1", "y2", "y3"]
            workloads.write_pq(path, degree, list(zip(xs + ys, gens)), xs, ys)
            samples: dict = defaultdict(list)
            t0 = time.perf_counter()
            layers.staged(workloads.Op("surface", [], lambda p: [], pq=path), samples)
            total = (time.perf_counter() - t0) * 1000
            print(f"{name}: staged pass {total:.1f} ms")
            for key, values in samples.items():
                print(f"    {key:28s} {values[0]:10.2f} ms")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
