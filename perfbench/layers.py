"""Per-layer metrics of the traced run (``--trace 1``).

Each operation of the workload runs three times in this process:

1. untraced through ``pqsurf.cli.main``, for ``cli.main_ms`` and as the base
   of ``trace.overhead_pct`` (on every other operation this pass is repeated
   after the second one and the repeat is used, so that neither order wins);
2. through ``pqsurf.cli.main`` again with counting wrappers installed on
   ``FiniteGroup.mul``, ``SurfaceModel.intersect``,
   ``SurfaceModel.canonical_class`` and ``covers.validate_system``, for the
   call counts and ``covers.validate_ms`` of one operation;
3. as a staged pass that calls the public function of each module of
   src/pqsurf in pipeline order on the operation's inputs and times each
   call.  It runs every layer on every surface input, including layers the
   operation's command skips (the bound reports on ``cli_batch``, and the
   genus cross-check, which no command calls yet), so that every per-layer
   metric exists on every workload.

All spans are taken here, around calls into the program; nothing in pqsurf
is changed.  A metric is the median over the operations that reached its
layer.  ``cli.import_ms`` comes from ``python -X importtime`` in fresh
processes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from pqsurf import bounds, covers, differentials, groups, hj, inputs, singularities, surface

IMPORT_PROBES = 5

COUNTED = (
    (groups.FiniteGroup, "mul", "groups.mul_calls"),
    (surface.SurfaceModel, "intersect", "surface.intersect_calls"),
    (surface.SurfaceModel, "canonical_class", "surface.canonical_class_calls"),
)

UNITS = {"_ms": "ms", "_calls": "count", "_pct": "%"}


@contextmanager
def counting():
    """Count calls to the COUNTED methods and time ``covers.validate_system``
    while the block runs; the originals are restored on exit."""
    counts: dict = defaultdict(int)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in COUNTED]
    saved.append((covers, "validate_system", covers.validate_system))

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["covers.validate_ms"] += (time.perf_counter_ns() - t0) / 1e6
                counts["covers.validate_calls"] += 1
        return wrapper

    for owner, attr, key in COUNTED:
        setattr(owner, attr, counted(getattr(owner, attr), key))
    covers.validate_system = timed(covers.validate_system)
    try:
        yield counts
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def staged(op, samples: dict) -> None:
    """Time the public call into each layer on the operation's inputs."""

    def span(name, fn, *args):
        t0 = time.perf_counter_ns()
        result = fn(*args)
        samples[name].append((time.perf_counter_ns() - t0) / 1e6)
        return result

    types = list(op.hj_types)
    bigness = op.bigness
    if op.pq is not None:
        desc = span("inputs.parse_ms", inputs.parse_input, op.pq.read_text())
        perms = [groups.Permutation.from_cycles(text, desc.degree) for _, text in desc.generators]
        span("groups.closure_ms", groups.group_from_generators, perms)
        _, sys1, sys2 = span("inputs.realize_ms", inputs.realize, desc)
        span("covers.fiber_ms", lambda: [covers.branch_fiber(s, i) for s in (sys1, sys2)
                                          for i in range(1, s.branch_count + 1)])
        locus = span("singularities.locus_ms", singularities.enumerate_singularities, sys1, sys2)
        model = span("surface.model_ms", surface.build_surface_model, sys1, sys2, locus)
        inv = span("surface.invariants_ms", model.numerical_invariants)
        span("bounds.reports_ms", lambda: (
            [bounds.degree_bound_report(model, c) for c in [model.F1, model.F2, *model.N, *model.M]],
            bounds.lemma_cc_check(model, desc.in_scope_c1sq6)))
        span("bounds.crosscheck_ms", lambda: [
            bounds.central_component_genus_crosscheck(model, c) for c in model.N + model.M])
        types += [(p.type.n, p.type.a) for p in locus.points]
        # bigness of K - E with the surface's own K^2, chi and node count
        nodes = sum(1 for p in locus.points if (p.type.n, p.type.a) == (2, 1))
        bigness = bigness or (inv.ksq, inv.chi, nodes)
    if types:
        span("hj.expand_ms", lambda: [hj.hj_expand(n, a) for n, a in types])
    if op.section is not None:
        m, terms = op.section
        span("differentials.pullback_ms", differentials.gamma_pullback,
             differentials.SourceSection(m, terms))
    if bigness is not None:
        span("differentials.bigness_ms", differentials.bigness_certificate, *bigness)


def import_ms(env: dict) -> float:
    """Median cumulative import time of pqsurf.cli and its package, in ms."""
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pqsurf.cli"],
                              env=env, capture_output=True, text=True, check=True)
        total_us = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            # top-level entries have no indentation in the package column
            if len(fields) == 3 and fields[2].startswith(" pqsurf") and fields[1].strip().isdigit():
                total_us += int(fields[1])
        samples.append(total_us / 1000)
    return statistics.median(samples)


def run_traced(run_op, workload, seconds: float, env: dict) -> tuple:
    """Whole rounds of the workload for ``seconds``; returns the completed
    operations with their outputs, the failure count and the metrics."""
    samples: dict = defaultdict(list)
    plain, traced = [], []
    done, failed, rounds = [], 0, 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        for op in workload.next_round():
            t0 = time.perf_counter_ns()
            results = [run_op(argv) for argv in op.commands]
            plain_ms = (time.perf_counter_ns() - t0) / 1e6
            if any(code != 0 for code, _ in results):
                failed += 1
                continue
            done.append((op, [out for _, out in results]))
            with counting() as counts:
                t0 = time.perf_counter_ns()
                for argv in op.commands:
                    run_op(argv)
                traced_ms = (time.perf_counter_ns() - t0) / 1e6
            if len(done) % 2 == 0:
                # every other operation repeats the untraced pass after the traced
                # one, so that running second does not count as tracing overhead
                t0 = time.perf_counter_ns()
                for argv in op.commands:
                    run_op(argv)
                plain_ms = (time.perf_counter_ns() - t0) / 1e6
            for key, value in counts.items():
                samples[key].append(value)
            plain.append(plain_ms)
            traced.append(traced_ms)
            samples["cli.main_ms"].append(plain_ms / len(op.commands))
            staged(op, samples)
    samples["cli.import_ms"].append(import_ms(env))
    samples["trace.overhead_pct"].append(
        100 * (statistics.median(traced) / statistics.median(plain) - 1))
    metrics = {}
    for key in sorted(samples):
        unit = next(u for suffix, u in UNITS.items() if key.endswith(suffix))
        middle = statistics.median_low if unit == "count" else statistics.median
        metrics[key] = (middle(samples[key]), unit)
    return done, failed, metrics
