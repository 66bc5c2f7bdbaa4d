"""The benchmark's traced run keeps working against the package's API.

``perfbench/layers.py`` counts calls by patching pqsurf names and times the
public call into each layer; a renamed or deleted name there would only show
in ``perfbench/run.py --trace 1``.  This module imports ``layers`` and
``workloads`` from the checkout and changes nothing in them.
"""

from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsurf import cli
from tests.conftest import fixture_path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

STAGED_KEYS = {
    "inputs.parse_ms", "groups.closure_ms", "inputs.realize_ms", "covers.fiber_ms",
    "singularities.locus_ms", "surface.model_ms", "surface.invariants_ms", "bounds.reports_ms",
    "bounds.crosscheck_ms", "hj.expand_ms", "differentials.pullback_ms", "differentials.bigness_ms",
}


@pytest.fixture(scope="module")
def perfbench():
    # workloads imports its sibling `reference` as a top-level module
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import layers
        import workloads
    return layers, workloads


def test_counting_sees_each_validation(perfbench, capsys):
    layers, _ = perfbench
    with layers.counting() as counts:
        assert cli.main(["invariants", str(fixture_path("beauville_55.pq")), "--json"]) == 0
    capsys.readouterr()
    assert counts["covers.validate_calls"] == 2
    assert counts["groups.mul_calls"] > 0 and counts["surface.intersect_calls"] > 0


# the traced run's work counters for `invariants` then `bounds`; they are
# deterministic, so a change in the work a command does shows here; K is
# built once per model and K^2 is the one intersect; the words of a .pq file
# are evaluated on image strings, so the products counted are the long
# relations and the element orders
WORK_COUNTS = {
    "beauville_55.pq": {"covers.validate_calls": 4, "groups.mul_calls": 60,
                        "surface.intersect_calls": 1, "surface.canonical_class_calls": 2},
    "a6_245_334.pq": {"covers.validate_calls": 4, "groups.mul_calls": 42,
                      "surface.intersect_calls": 1, "surface.canonical_class_calls": 2},
    "z2_hyperelliptic.pq": {"covers.validate_calls": 4, "groups.mul_calls": 26,
                            "surface.intersect_calls": 1, "surface.canonical_class_calls": 2},
}


@pytest.mark.parametrize("fixture", sorted(WORK_COUNTS))
def test_work_counts_are_pinned(perfbench, capsys, fixture):
    layers, _ = perfbench
    path = str(fixture_path(fixture))
    with layers.counting() as counts:
        for command in ("invariants", "bounds"):
            assert cli.main([command, path, "--json"]) == 0
    capsys.readouterr()
    assert {key: counts[key] for key in WORK_COUNTS[fixture]} == WORK_COUNTS[fixture]


@pytest.mark.parametrize("fixture", ["beauville_55.pq", "z2_hyperelliptic.pq"])
def test_staged_pass_reaches_every_layer(perfbench, fixture):
    layers, workloads = perfbench
    op = workloads.Op(
        kind="surface",
        commands=[],
        check=lambda payloads: [],
        pq=Path(fixture_path(fixture)),
        section=(2, ((2, 0, Fraction(1)), (0, 2, Fraction(-1)))),
        hj_types=[(5, 2)],
    )
    samples = defaultdict(list)
    layers.staged(op, samples)
    assert set(samples) == STAGED_KEYS


TERMS = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9),
              st.fractions(min_value=-50, max_value=50, max_denominator=6)),
    min_size=1, max_size=4,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(terms=TERMS)
def test_section_text_parses_back(perfbench, terms):
    """The sections that cli_batch's local-check operations write parse back
    to the terms they were written from."""
    _, workloads = perfbench
    assert cli.parse_polynomial(workloads.section_text(terms)) == tuple(terms)
