import itertools
from fractions import Fraction
from importlib.resources import files
from math import gcd

import pytest

from pqsurf import covers, surface
from pqsurf.cli import main
from pqsurf.errors import EngineInconsistencyError, ValidationError
from pqsurf.hj import hj_expand
from pqsurf.inputs import parse_input, realize
from pqsurf.singularities import enumerate_singularities
from pqsurf.surface import BasisCurve, SurfaceModel, _string_multiplicities, build_surface_model
from tests.conftest import fixture_path
from tests.test_covers import z2_system


def basis(m):
    return [m.F1, m.F2, *m.N, *m.M, *(c for comps in m.Z for c in comps)]


def pair(m, c1, c2):
    """C1.C2, through ``intersect`` on the two curves."""
    return m.intersect({c1: 1}, {c2: 1})


class TestDivisorAlgebra:
    def test_intersect_is_bilinear_on_coefficient_maps(self, beauville_model):
        m = beauville_model
        # (2 F1 + F2).(F1 - N1) = 2 F1.F1 - 2 F1.N1 + F2.F1 - F2.N1 = 0 - 0 + 25 - 5
        assert m.intersect({m.F1: 2, m.F2: 1}, {m.F1: 1, m.N[0]: -1}) == 20
        assert m.intersect({m.F1: 0}, {m.F2: 1}) == 0
        assert m.intersect({}, {m.F2: 1}) == 0

    def test_labels(self):
        assert BasisCurve("N", 2).label == "N2"
        assert BasisCurve("Z", 0, 3).label == "Z0.3"


class TestBeauville:
    def test_fibers(self, beauville_model):
        m = beauville_model
        assert pair(m, m.F1, m.F2) == 25
        assert pair(m, m.F1, m.F1) == 0
        for n_curve in m.N:
            assert pair(m, m.F2, n_curve) == 5
            assert pair(m, m.F1, n_curve) == 0
            assert pair(m, n_curve, n_curve) == 0  # no strings attached

    def test_central_crossings_are_free_orbit_counts(self, beauville_model):
        m = beauville_model
        for n_curve in m.N:
            for m_curve in m.M:
                assert pair(m, n_curve, m_curve) == 1

    def test_canonical_class(self, beauville_model):
        m = beauville_model
        k = m.canonical_class()
        assert k[m.F1] == k[m.F2] == -2
        for curve in m.N + m.M:
            assert k[curve] == 4
        assert m.intersect(k, k) == 8

    def test_invariants(self, beauville_model):
        inv = beauville_model.numerical_invariants()
        assert (inv.e, inv.ksq, inv.chi, inv.q, inv.pg) == (4, 8, 1, 0, 0)
        assert inv.ksq == 8 and inv.e == 4
        assert inv.ksq + inv.e == 12 * inv.chi

    def test_no_exceptional_curves(self, beauville_model):
        m = beauville_model
        assert m.Z == [] and m.exceptional_class() == {}

    def test_adjunction_recovers_fiber_genus(self, beauville_model):
        m = beauville_model
        # a generic fiber F1 = C2 x {pt} has the genus of C2, and vice versa
        assert m.adjunction_genus(m.F1) == m.g2 == 6
        assert m.adjunction_genus(m.F2) == m.g1 == 6

    def test_central_component_genus(self, beauville_model):
        # N[i] is the image of C2 under the order-5 stabilizer line:
        # a degree-5 cover of P^1 totally branched at the 3 orbits of the
        # opposite branch points, genus 2 by Riemann-Hurwitz
        m = beauville_model
        for curve in m.N + m.M:
            assert m.adjunction_genus(curve) == 2


class TestToySurface:
    def test_basis_size(self, toy_model):
        m = toy_model
        assert len(m.N) == len(m.M) == 6
        assert len(m.Z) == 36 and all(len(comps) == 1 for comps in m.Z)

    def test_central_self_intersections(self, toy_model):
        m = toy_model
        for curve in m.N + m.M:
            assert pair(m, curve, curve) == -3

    def test_string_attachments(self, toy_model):
        m = toy_model
        for point, comps in zip(m.locus.points, m.Z):
            (comp,) = comps
            i, j = point.branch_pair
            assert pair(m, comp, comp) == -2
            assert pair(m, comp, m.N[i - 1]) == 1
            assert pair(m, comp, m.M[j - 1]) == 1
        # each central component meets exactly 6 strings
        for curve in m.N + m.M:
            assert sum(1 for (comp,) in m.Z if pair(m, curve, comp)) == 6

    def test_canonical_class(self, toy_model):
        m = toy_model
        k = m.canonical_class()
        assert k[m.F1] == k[m.F2] == -2
        for curve in m.N + m.M:
            assert k[curve] == 1
        for comps in m.Z:
            assert k[comps[0]] == 1
        assert m.intersect(k, k) == 4

    def test_invariants(self, toy_model):
        inv = toy_model.numerical_invariants()
        assert (inv.e, inv.ksq, inv.chi, inv.q, inv.pg) == (56, 4, 5, 0, 4)
        assert inv.ksq == 12 * inv.chi - inv.e

    def test_exceptional_numbers(self, toy_model):
        m = toy_model
        e_div = m.exceptional_class()
        assert m.intersect(e_div, e_div) == -72

    def test_string_adjunction(self, toy_model):
        # every (-2)-string component is rational: K.Z = 0 here
        m = toy_model
        k = m.canonical_class()
        for comps in m.Z:
            assert m.intersect(k, {comps[0]: 1}) == 0

    def test_exceptional_canonical_product(self, toy_model):
        # fix the count above: K.E = sum over strings of K.Z_total
        m = toy_model
        k = m.canonical_class()
        assert m.intersect(k, m.exceptional_class()) == 0


class TestMixedStrings:
    def test_string_shapes(self, z4_mixed_model):
        m = z4_mixed_model
        shapes = sorted(tuple(data.b) for data in m.strings)
        assert shapes.count((2,)) == 16
        assert shapes.count((4,)) == 2
        assert shapes.count((2, 2, 2)) == 2

    def test_multiplicities_exceed_one(self, z4_mixed_model):
        # the 1/4(1,3) string inside a multiplicity-4 fiber carries (3, 2, 1)
        m = z4_mixed_model
        long_strings = [d for d in m.strings if d.b == (2, 2, 2)]
        assert long_strings
        for data in long_strings:
            assert data.sigma1_multiplicities == (3, 2, 1)
            assert data.sigma2_multiplicities == (1, 2, 3)

    def test_string_adjunction_identity(self, z4_mixed_model):
        # K.Z_k with adjunction: every string component is a smooth rational
        # (-b_k)-curve, so K.Z_k = b_k - 2
        m = z4_mixed_model
        k = m.canonical_class()
        for data, comps in zip(m.strings, m.Z):
            for b_k, comp in zip(data.b, comps):
                assert m.intersect(k, {comp: 1}) == b_k - 2
                assert m.adjunction_genus(comp) == 0

    def test_invariants_pass_gates(self, z4_mixed_model):
        inv = z4_mixed_model.numerical_invariants()
        assert (inv.e, inv.ksq, inv.chi) == (36, 0, 3)


class TestGates:
    def test_unknown_basis_element_rejected(self, toy_model):
        stranger = BasisCurve("N", 99)
        with pytest.raises(ValidationError):
            toy_model.intersect({stranger: 1}, {toy_model.F1: 1})

    def test_mismatched_groups_rejected(self, beauville, toy):
        _, b1, _ = beauville
        _, t1, _ = toy
        with pytest.raises(ValidationError):
            build_surface_model(b1, t1)

    def test_each_system_is_validated_once(self, monkeypatch):
        calls = []
        original = covers.validate_system
        monkeypatch.setattr(covers, "validate_system", lambda s: calls.append(s) or original(s))
        _, sys1, sys2 = realize(parse_input(fixture_path("a5_255_335.pq").read_text()))
        locus = enumerate_singularities(sys1, sys2)
        build_surface_model(sys1, sys2, locus)
        build_surface_model(sys1, sys2)
        assert len(calls) == 2

    def test_intersection_is_symmetric_and_rational(self, z4_mixed_model):
        m = z4_mixed_model
        for c1 in basis(m):
            for c2 in basis(m):
                assert pair(m, c1, c2) == pair(m, c2, c1)
                assert isinstance(pair(m, c1, c2), Fraction)


class TestStringBlocks:
    def test_negative_definite_exceptional_block(self, z4_mixed_model):
        # any nonzero combination of string components has negative square
        import random

        m = z4_mixed_model
        comps = [c for block in m.Z for c in block]
        rng = random.Random(4)
        for _ in range(25):
            d = {c: Fraction(rng.randint(-3, 3)) for c in rng.sample(comps, 5)}
            if any(d.values()):
                assert m.intersect(d, d) < 0


PQ_FIXTURES = sorted(p.name for p in (files("pqsurf") / "fixtures").iterdir() if p.name.endswith(".pq"))


class TestLatticeNumbers:
    """The per-curve numbers read off the rows equal the whole-form route:
    ``intersect`` over K, E and the curve, as the bound reports used it."""

    @pytest.mark.parametrize("fixture", PQ_FIXTURES)
    def test_rows_agree_with_intersect(self, fixture):
        _, sys1, sys2 = realize(parse_input(fixture_path(fixture).read_text()))
        m = build_surface_model(sys1, sys2)
        k, e = m.canonical_class(), m.exceptional_class()
        for curve in basis(m):
            c = {curve: 1}
            numbers = (m.intersect(k, c), m.intersect(e, c), m.intersect(c, c))
            assert m.lattice_numbers(curve) == numbers, curve.label
            assert all(type(x) is int for x in m.lattice_numbers(curve))
            assert m.adjunction_genus(curve) == (numbers[0] + numbers[2] + 2) / 2, curve.label

    @pytest.mark.parametrize("fixture", PQ_FIXTURES)
    def test_stored_values_are_ints(self, fixture):
        """Every stored pairing and every coefficient of K and E is an int,
        not a bool and not a Fraction; ``intersect`` still answers in Fractions."""
        _, sys1, sys2 = realize(parse_input(fixture_path(fixture).read_text()))
        m = build_surface_model(sys1, sys2)
        stored = [v for row in m._rows.values() for v in row.values()]
        stored += [*m.canonical_class().values(), *m.exceptional_class().values()]
        assert stored and all(type(v) is int for v in stored)
        assert all(type(m.intersect({c: 1}, {c: 1})) is Fraction for c in basis(m))
        k = m.canonical_class()
        assert type(m.intersect(k, k)) is Fraction

    def test_fiber_degree_is_gated_to_divide(self, beauville, monkeypatch):
        # |G|/m is exact by Lagrange; a remainder is an engine fault, not a truncation
        _, sys1, sys2 = beauville
        locus = enumerate_singularities(sys1, sys2)
        monkeypatch.setattr(covers.SphericalSystem, "signature", property(lambda s: (7,) * s.branch_count))
        with pytest.raises(EngineInconsistencyError, match=r"^\|G\| = 25 is not divisible by m = 7 of N1$"):
            SurfaceModel(sys1, sys2, locus, 6, 6)

    def test_unknown_curve_rejected(self, toy_model):
        with pytest.raises(ValidationError, match="unknown basis element N99"):
            toy_model.lattice_numbers(BasisCurve("N", 99))


class TestFibreRelations:
    """Every fibre is numerically a general fibre, checked cell by cell while
    the model is built: a free-orbit count, or the multiplicity of a string
    end that meets the other side's central component, moved by one ends in
    exit 4 with the cell named."""

    @pytest.mark.parametrize("fixture", PQ_FIXTURES)
    @pytest.mark.parametrize("delta", [1, -1])
    def test_changed_free_orbit_count_is_refused_in_its_cell(self, fixture, delta):
        _, sys1, sys2 = realize(parse_input(fixture_path(fixture).read_text()))
        locus = enumerate_singularities(sys1, sys2)
        for (i, j), count in locus.free_orbit_counts.items():
            changed = locus._replace(free_orbit_counts={**locus.free_orbit_counts, (i, j): count + delta})
            with pytest.raises(EngineInconsistencyError, match=rf"^fibre relation fails in cell \({i}, {j}\): "):
                build_surface_model(sys1, sys2, changed)

    @pytest.mark.parametrize("fixture", [f for f in PQ_FIXTURES if f != "beauville_55.pq"])
    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("side", [True, False])
    def test_changed_string_multiplicity_exits_4_naming_the_cell(self, capsys, monkeypatch, fixture, delta, side):
        original, changed = _string_multiplicities, []

        def off_by_one(b, n, m, first_end):
            c = list(original(b, n, m, first_end))
            if first_end == side and not changed:
                changed.append(b)
                c[-1 if first_end else 0] += delta  # the end that meets the other side's central component
            return tuple(c)

        monkeypatch.setattr(surface, "_string_multiplicities", off_by_one)
        path = str(fixture_path(fixture))
        assert main(["invariants", path]) == 4
        _, sys1, sys2 = realize(parse_input(fixture_path(fixture).read_text()))
        cell = enumerate_singularities(sys1, sys2).points[0].branch_pair  # the first string built
        out, err = capsys.readouterr()
        assert changed and out == ""
        assert err.startswith(f"error: {path}: fibre relation fails in cell {cell}: ")

    def test_changed_free_orbit_count_exits_4(self, capsys, monkeypatch):
        def one_more_in_cell_2_3(sys1, sys2):
            locus = enumerate_singularities(sys1, sys2)
            counts = locus.free_orbit_counts
            return locus._replace(free_orbit_counts={**counts, (2, 3): counts[(2, 3)] + 1})

        monkeypatch.setattr(surface, "enumerate_singularities", one_more_in_cell_2_3)
        path = str(fixture_path("beauville_55.pq"))
        assert main(["invariants", path]) == 4
        assert capsys.readouterr().err == (
            f"error: {path}: fibre relation fails in cell (2, 3): (5 N2 + sum d Z).M3 = 10 != F1.M3 = 5\n"
        )


def eliminated_multiplicities(b: tuple[int, ...], m: int, first_end: bool) -> tuple[int, ...]:
    """Oracle: solve T c = m * e_end by Gaussian elimination over the rationals,
    T = tridiagonal(-1, b_k, -1), with the gates of ``_string_multiplicities``."""
    l = len(b)
    rhs = [Fraction(0)] * l
    rhs[0 if first_end else -1] = Fraction(m)
    diag = [Fraction(x) for x in b]
    for k in range(1, l):
        rhs[k] += rhs[k - 1] / diag[k - 1]
        diag[k] -= 1 / diag[k - 1]
    c = [Fraction(0)] * l
    c[-1] = rhs[-1] / diag[-1]
    for k in range(l - 2, -1, -1):
        c[k] = (rhs[k] + c[k + 1]) / diag[k]
    for value in c:
        if value.denominator != 1 or value <= 0:
            raise EngineInconsistencyError(f"non-integral string multiplicity {value} for {b}, m={m}")
    return tuple(int(v) for v in c)


def outcome(solve, *args):
    """What ``solve(*args)`` returns, or the message of the gate it fails."""
    try:
        return solve(*args)
    except EngineInconsistencyError as exc:
        return str(exc)


class TestStringMultiplicities:
    def test_recurrence_matches_elimination(self):
        # every string of a point of order n < 20, every fiber multiplicity
        # m in [n, 6n] and both ends, the refused cases included
        cases = refused = 0
        for n in range(2, 20):
            for a in range(1, n):
                if gcd(n, a) != 1:
                    continue
                b = tuple(hj_expand(n, a))
                for m, first_end in itertools.product(range(n, 6 * n + 1), (True, False)):
                    got = outcome(_string_multiplicities, b, n, m, first_end)
                    assert got == outcome(eliminated_multiplicities, b, m, first_end), (n, a, m, first_end)
                    cases += 1
                    refused += isinstance(got, str)
        assert 0 < refused < cases

    def test_wrong_order_rejected(self):
        # [2, 2, 2] resolves a point of order 4, not 5
        with pytest.raises(EngineInconsistencyError, match=r"string \(2, 2, 2\) does not resolve a point of order 5"):
            _string_multiplicities((2, 2, 2), 5, 20, first_end=True)
