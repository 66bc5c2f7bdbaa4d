#!/usr/bin/env python3
"""Closed-loop benchmark of the pqsurf pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload big_group --seed 1 --seconds 35 --trace 0

Workloads (see README.md): ``big_group`` and ``many_points`` run
``invariants --json`` then ``bounds --json`` through ``pqsurf.cli.main`` in
this process; ``cli_batch`` runs a round-robin of short commands, each as a
fresh ``python -m pqsurf.cli`` process.  One operation is in flight at a
time.  Every answer is checked against ``reference.py``, which does not
import pqsurf; a wrong answer makes the command exit 1.

The machine's speed drifts by tens of percent within minutes, so every timing
is taken at a reference speed: a fixed pure-Python task (``speed_probe``) is
timed before and after each command, and the command's wall time is scaled by
``REFERENCE_PROBE_MS`` over the mean of those two probe times.  The raw wall
times are printed as text lines beside the metrics.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of ``layers.py`` instead.  The result is also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
# What speed_probe takes at the reference speed.  Any fixed value would do;
# on a 2-vCPU Xeon VM the probe takes 16-25 ms as the machine drifts.
REFERENCE_PROBE_MS = 20.0


def speed_probe() -> float:
    """Wall time in ms of a fixed task made of what pqsurf spends its time
    on (dicts keyed by ints, tuples, Fractions), without importing pqsurf.
    The garbage collector is off, so the size of pqsurf's heap does not
    enter the probe."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        table = {}
        for i in range(60000):
            table[(i * 7919) % 10007] = (i, i + 1)
        total = 0
        for key, (i, _) in table.items():
            total += i * key
        acc = Fraction(0)
        for i in range(1, 4000):
            acc += Fraction(i % 17, i % 13 + 1)
            table[i % 97] = acc
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        gc.enable()


class ReferenceClock:
    """Scales wall times to the reference speed with a probe after each timed
    piece of work; the probe before it is the previous one."""

    def __init__(self):
        speed_probe()  # warm-up
        self.last_probe = speed_probe()

    def scale(self, wall_ms: float) -> float:
        probe = speed_probe()
        scaled = wall_ms * REFERENCE_PROBE_MS / ((self.last_probe + probe) / 2)
        self.last_probe = probe
        return scaled


def load_pqsurf():
    """Import pqsurf.cli from this checkout's source tree, never from elsewhere."""
    if not (SRC / "pqsurf" / "cli.py").is_file():
        sys.exit(f"perfbench: no pqsurf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pqsurf.cli

    if Path(pqsurf.cli.__file__).resolve().parent != SRC / "pqsurf":
        sys.exit(f"perfbench: imported pqsurf from {pqsurf.cli.__file__}, not {SRC}")
    return pqsurf.cli


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep * bool(env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
    return env


def run_in_process(cli, argv: list) -> tuple:
    """(exit code, stdout) of pqsurf.cli.main with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


def run_child(argv: list, env: dict, log: Path) -> tuple:
    """(exit code, stdout, peak RSS in KiB) of one ``python -m pqsurf.cli`` process."""
    with log.open("w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "pqsurf.cli", *argv], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def setup_seconds(workload: str, seed: int) -> tuple:
    """Median time of fresh processes that import pqsurf and write the
    workload's fixed inputs, i.e. the time a workload's process needs before
    its first operation: (at the reference speed, wall) in s."""
    clock = ReferenceClock()
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)], cwd=ROOT, check=True)
        wall.append(time.perf_counter() - start)
        scaled.append(clock.scale(wall[-1] * 1e3) / 1e3)
    return statistics.median(scaled), statistics.median(wall)


def run_untraced(cli, workload, seconds: float, work: Path) -> tuple:
    """The timed closed loop: whole rounds until ``seconds`` have passed."""
    env = child_env()
    clock = ReferenceClock()
    done, times, walls, failed, rss_kib, rounds = [], [], [], 0, 0, 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        for op in workload.next_round():
            results, scaled, wall = [], 0.0, 0.0
            for argv in op.commands:
                t0 = time.perf_counter_ns()
                if workload.fresh_process:
                    code, out, rss = run_child(argv, env, work / "stderr.txt")
                    rss_kib = max(rss_kib, rss)
                else:
                    code, out = run_in_process(cli, argv)
                elapsed = (time.perf_counter_ns() - t0) / 1e6
                results.append((code, out))
                wall += elapsed
                scaled += clock.scale(elapsed)
            if any(code != 0 for code, _ in results):
                failed += 1
                continue
            times.append(scaled)
            walls.append(wall)
            done.append((op, [out for _, out in results]))
    if not workload.fresh_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_ms": (statistics.median(times), "ms"),
        "ops_per_s": (len(times) / (sum(times) / 1e3), "1/s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    notes = [f"samples {len(times)}",
             f"wall op_p50_ms {statistics.median(walls):.6g} ms",
             f"wall ops_per_s {len(walls) / (sum(walls) / 1e3):.6g} 1/s"]
    if len(times) >= 100:  # the p90 has at least ten samples beyond it
        notes.append(f"op_p90_ms {statistics.quantiles(times, n=10)[-1]:.6g} ms")
    return done, failed, metrics, notes


def check_all(done: list) -> list:
    errors = []
    for op, outputs in done:
        try:
            payloads = [json.loads(out) for out in outputs]
            errors += [f"{op.kind}: {e}" for e in op.check(payloads)]
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"{op.kind}: unreadable output ({exc!r})")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = load_pqsurf()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, work, SRC / "pqsurf" / "fixtures")
        if args.setup_probe:
            workload.next_round()  # the first operation's inputs
            return 0
        if args.trace:
            import layers

            done, failed, metrics = layers.run_traced(
                lambda argv: run_in_process(cli, argv), workload, args.seconds, child_env())
            notes = []
        else:
            setup_s, setup_wall_s = setup_seconds(args.workload, args.seed)
            done, failed, metrics, notes = run_untraced(cli, workload, args.seconds, work)
            metrics["setup_s"] = (setup_s, "s")
            notes.append(f"wall setup_s {setup_wall_s:.6g} s")
        errors = check_all(done)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in errors[:20]:
        print(f"WRONG {message}", file=sys.stderr)
    for note in notes:
        print(f"{args.workload} {note}")
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": len(done) + failed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
