from collections import Counter

import pytest

from pqsurf import cli
from pqsurf.bounds import (
    central_component_genus_crosscheck,
    degree_bound_report,
    lemma_cc_check,
)
from pqsurf.errors import ValidationError
from pqsurf.singularities import SingularPoint, enumerate_singularities
from pqsurf.surface import SurfaceModel, build_surface_model
from tests.conftest import fixture_path
from tests.test_acceptance import solve_two_branch_elliptic
from tests.test_covers import z2_system


class TestDegreeBounds:
    def test_toy_central_component(self, toy_model):
        m = toy_model
        report = degree_bound_report(m, m.N[0])
        assert report.genus == 0
        assert report.kme_degree == -5  # K.N = 1, E.N = 6
        assert report.bound == -4
        assert report.satisfied
        assert report.n1_e == 6

    def test_toy_tangent_case_data(self, toy_model):
        report = degree_bound_report(toy_model, toy_model.M[3])
        t = report.tangent_case
        assert t is not None
        assert t.y_sq == -3
        assert t.y_dot_e == 6
        assert t.ky_dot_y == -2  # genus 0
        assert t.string_defect == 3  # 6 * (1 - 1/2)
        assert t.y_dot_e + t.y_sq == t.string_defect

    def test_beauville_central_component(self, beauville_model):
        m = beauville_model
        report = degree_bound_report(m, m.N[0])
        assert report.genus == 2
        assert report.n1_e == 0
        assert report.tangent_case.y_dot_e == 0
        assert report.tangent_case.y_sq == 0
        assert report.tangent_case.string_defect == 0
        assert report.kme_degree == 2 and report.bound == 4  # K.N = 2g - 2 - N^2 = 2
        assert report.satisfied

    def test_fiber_classes_have_no_tangent_case(self, beauville_model):
        m = beauville_model
        report = degree_bound_report(m, m.F1)
        assert report.tangent_case is None
        assert report.genus == 6
        # (K - E).F1 = K.F1 = 2g(C2) - 2 = 10 <= 2(2*6 - 2) = 20
        assert report.kme_degree == 10 and report.bound == 20
        assert report.satisfied

    def test_string_components_rejected(self, toy_model):
        with pytest.raises(ValidationError):
            degree_bound_report(toy_model, toy_model.Z[0][0])

    def test_all_basis_curves_satisfy_bound(self, z4_mixed_model):
        m = z4_mixed_model
        for curve in [m.F1, m.F2, *m.N, *m.M]:
            assert degree_bound_report(m, curve).satisfied


class TestGenusCrossCheck:
    @pytest.mark.parametrize("which, index", [("N", 0), ("M", 2)])
    def test_beauville(self, beauville_model, which, index):
        m = beauville_model
        curve = (m.N if which == "N" else m.M)[index]
        assert central_component_genus_crosscheck(m, curve) == 2

    def test_toy(self, toy_model):
        for curve in toy_model.N + toy_model.M:
            assert central_component_genus_crosscheck(toy_model, curve) == 0

    def test_mixed(self, z4_mixed_model):
        for curve in z4_mixed_model.N + z4_mixed_model.M:
            assert central_component_genus_crosscheck(z4_mixed_model, curve) == z4_mixed_model.adjunction_genus(curve)

    def test_rejects_fiber_classes(self, toy_model):
        with pytest.raises(ValidationError):
            central_component_genus_crosscheck(toy_model, toy_model.F1)

    def test_mismatch_fails_bounds_with_exit_4(self, monkeypatch, capsys):
        adjunction = SurfaceModel.adjunction_genus
        monkeypatch.setattr(SurfaceModel, "adjunction_genus", lambda self, curve: adjunction(self, curve) + 1)
        path = str(fixture_path("beauville_55.pq"))
        assert cli.main(["bounds", path]) == 4
        err = capsys.readouterr().err
        assert err == f"error: {path}: genus mismatch on N1: adjunction 3, Riemann-Hurwitz 2\n"


class CountedPoint(SingularPoint):
    """A locus point that counts every read of it, by field, index or
    iteration, in ``visits`` under its id."""

    __slots__ = ()
    visits: Counter = Counter()

    def __getitem__(self, item):
        CountedPoint.visits[id(self)] += 1
        return tuple.__getitem__(self, item)

    def __iter__(self):
        CountedPoint.visits[id(self)] += 1
        return tuple.__iter__(self)

    branch_pair = property(lambda self: self[0])
    type = property(lambda self: self[1])
    orbit_size = property(lambda self: self[2])


def test_each_locus_point_is_read_a_bounded_number_of_times_per_bounds_pass():
    """Z/2 with r branch points on each curve has r^2 nodes and 2r central
    components.  A report that scanned the whole locus per central curve
    would read each point about 4r times; reading only the points over its
    own branch index reads each a fixed number of times, whatever r is."""
    most = {}
    for r in (6, 12):
        sys = z2_system(r)
        locus = enumerate_singularities(sys, sys)
        counted = locus._replace(points=tuple(CountedPoint(*p) for p in locus.points))
        model = build_surface_model(sys, sys, counted)
        CountedPoint.visits.clear()
        for curve in [model.F1, model.F2, *model.N, *model.M]:
            degree_bound_report(model, curve)
        lemma_cc_check(model, in_scope=False)
        assert len(CountedPoint.visits) == len(counted.points) == r * r
        most[r] = max(CountedPoint.visits.values())
    assert most[6] == most[12] <= 12


class TestLemmaCC:
    def test_toy_has_rational_components(self, toy_model):
        report = lemma_cc_check(toy_model, in_scope=False)
        assert not report.asserted
        assert report.violations
        assert len(report.violations) == 12
        assert dict(report.genera) == {c.label: 0 for c in toy_model.N + toy_model.M}

    def test_beauville_all_nonrational(self, beauville_model):
        report = lemma_cc_check(beauville_model, in_scope=True)
        assert report.asserted and report.violations == ()
        assert all(g == 2 for _, g in report.genera)


class TestTwoBranchSolver:
    def test_genus_three_unique(self):
        assert solve_two_branch_elliptic(3) == [(4, 1)]

    def test_genus_two(self):
        # 2g - 2 = 2 = h(2g_Y - 1): only h = 2, g_Y = 1
        assert solve_two_branch_elliptic(2) == [(2, 1)]

    def test_genus_five(self):
        # target 8: h in {8} with odd quotient 1 -> (8, 1)
        assert solve_two_branch_elliptic(5) == [(8, 1)]

    def test_divisibility_and_parity_hold(self):
        for g in range(2, 30):
            for h, g_y in solve_two_branch_elliptic(g):
                assert h >= 2 and g_y >= 0
                assert h * (2 * g_y - 1) == 2 * g - 2

    def test_small_genus_rejected(self):
        with pytest.raises(ValidationError):
            solve_two_branch_elliptic(1)
