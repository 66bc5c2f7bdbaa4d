"""The shipped A5, A6 and A7 surfaces, each system element its own generator."""

import pytest

from pqsurf.inputs import parse_input, realize
from pqsurf.singularities import enumerate_singularities
from tests.conftest import fixture_path, run_invariants

ALTERNATING = [
    # name, |G|, (g1, g2), e, K^2, chi, normalized singularities (n, a, count)
    ("a5_255_335.pq", 60, (4, 5), 13, -1, 1, ((5, 1, 1), (5, 2, 2), (5, 4, 1))),
    ("a6_245_334.pq", 360, (10, 16), 10, 2, 1, ((2, 1, 2), (4, 1, 1), (4, 3, 1))),
    ("a7_247_357.pq", 2520, (136, 409), 102, 174, 23, ((7, 3, 2), (7, 6, 1))),
]


@pytest.mark.parametrize("name, order, genera, e, ksq, chi, sings", ALTERNATING)
def test_invariants(name, order, genera, e, ksq, chi, sings):
    summary = run_invariants(parse_input(fixture_path(name).read_text()), name)
    assert summary.group_order == order
    assert (summary.g1, summary.g2) == genera
    assert (summary.e, summary.ksq, summary.chi) == (e, ksq, chi)
    assert (summary.q, summary.pg) == (0, chi - 1)
    assert summary.singularities == sings


def test_a7_has_three_points_of_order_seven():
    _, sys1, sys2 = realize(parse_input(fixture_path("a7_247_357.pq").read_text()))
    locus = enumerate_singularities(sys1, sys2)
    assert [p.type.n for p in locus.points] == [7, 7, 7]
    assert all(p.orbit_size == 2520 // 7 for p in locus.points)
