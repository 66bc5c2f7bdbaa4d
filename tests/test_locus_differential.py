"""The conjugacy-class count of the singular locus against the brute-force
pair enumeration of ``tests.locus_oracle``: the same points cell by cell, in
(n, a) order within a cell, and the same free-orbit counts, in both system
orders.  The genus of every central component, read off the locus by
``central_component_genus_crosscheck``, equals the fibre-route oracle, and
the N1_E of every curve, read as E.C off the lattice, is the number of
singular points over its branch point.  (K.C, E.C, C^2), read off the row of
each basis curve, equals the same three numbers through ``intersect``.  Every
branch fibre of a drawn system is the left cosets of its branch element, with
the conjugate cyclic groups as stabilizers."""

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqsurf.bounds import central_component_genus_crosscheck, degree_bound_report
from pqsurf.covers import SphericalSystem, rh_genus
from pqsurf.errors import ValidationError
from pqsurf.groups import Permutation, group_from_generators
from pqsurf.inputs import parse_input, realize
from pqsurf.singularities import enumerate_singularities
from pqsurf.surface import SurfaceModel, build_surface_model
from tests.conftest import fixture_path, power
from tests.locus_oracle import enumerate_singularities as oracle_singularities
from tests.locus_oracle import fibre_genus
from tests.test_covers import assert_fibre_is_cosets

# groups of order <= 60 as permutation groups; Z/n is drawn separately
GROUPS = {
    "(Z/2)^2": (4, ("(0 1)", "(2 3)")),
    "(Z/5)^2": (10, ("(0 1 2 3 4)", "(5 6 7 8 9)")),
    "S3": (3, ("(0 1)", "(0 1 2)")),
    "D4": (4, ("(0 1 2 3)", "(1 3)")),
    "D5": (5, ("(0 1 2 3 4)", "(1 4)(2 3)")),
    "A4": (4, ("(0 1 2)", "(0 1)(2 3)")),
    "S4": (4, ("(0 1 2 3)", "(0 1)")),
    "A5": (5, ("(0 1 2 3 4)", "(0 1 2)")),
}


@lru_cache(maxsize=None)
def build_group(name: str):
    if name.startswith("Z/"):
        n = int(name[2:])
        degree, cycles = n, ("(" + " ".join(map(str, range(n))) + ")",)
    else:
        degree, cycles = GROUPS[name]
    return group_from_generators([Permutation.from_cycles(c, degree) for c in cycles])


@st.composite
def generating_vector(draw, group):
    """g_1, ..., g_r with g_r = (g_1 ... g_{r-1})^-1, kept only if it is a
    valid spherical system: a tuple the constructor refuses is skipped."""
    elements = [draw(st.integers(1, group.order - 1)) for _ in range(draw(st.integers(2, 4)))]
    acc = group.identity
    for g in elements:
        acc = group.mul(acc, g)
    elements.append(power(group, acc, -1))
    try:
        return SphericalSystem(group, tuple(elements))
    except ValidationError:
        assume(False)


@st.composite
def system_pairs(draw):
    name = draw(st.sampled_from(sorted(GROUPS)) | st.integers(2, 24).map(lambda n: f"Z/{n}"))
    group = build_group(name)
    return draw(generating_vector(group)), draw(generating_vector(group))


def assert_same_locus(sys1, sys2):
    for a, b in ((sys1, sys2), (sys2, sys1)):
        oracle = oracle_singularities(a, b)
        # the oracle lists a cell's points in orbit discovery order
        by_cell_then_type = sorted(oracle.points, key=lambda p: (p.branch_pair, p.type))
        assert enumerate_singularities(a, b) == (tuple(by_cell_then_type), oracle.free_orbit_counts)


def assert_same_central_genera(model):
    for curve in model.N + model.M:
        assert central_component_genus_crosscheck(model, curve) == fibre_genus(model, curve)


def assert_n1_e_counts_locus_points(model):
    for curve in [model.F1, model.F2, *model.N, *model.M]:
        side = {"N": 0, "M": 1}.get(curve.kind)
        over = [p for p in model.locus.points if side is not None and p.branch_pair[side] == curve.index]
        assert degree_bound_report(model, curve).n1_e == len(over), curve.label


def assert_rows_agree_with_intersect(model):
    """The int numbers read off each row equal the whole-form route."""
    k, e = model.canonical_class(), model.exceptional_class()
    for curve in [model.F1, model.F2, *model.N, *model.M, *(c for comps in model.Z for c in comps)]:
        c = {curve: 1}
        numbers = (model.intersect(k, c), model.intersect(e, c), model.intersect(c, c))
        assert model.lattice_numbers(curve) == numbers, curve.label


@settings(derandomize=True, deadline=None, max_examples=100)
@given(system_pairs())
def test_class_count_matches_pair_enumeration(pair):
    assert_same_locus(*pair)
    for a, b in (pair, pair[::-1]):
        # genera below 2 are kept: Riemann-Hurwitz and adjunction hold for them too
        model = SurfaceModel(a, b, enumerate_singularities(a, b), rh_genus(a), rh_genus(b))
        model.numerical_invariants()
        assert_same_central_genera(model)
        assert_n1_e_counts_locus_points(model)
        assert_rows_agree_with_intersect(model)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(system_pairs())
def test_every_fibre_is_the_cosets_of_its_branch_element(pair):
    for sys in pair:
        for i in range(1, sys.branch_count + 1):
            assert_fibre_is_cosets(sys, i)


FIXTURES = ["a5_255_335.pq", "a6_245_334.pq", "a7_247_357.pq", "beauville_55.pq", "z2_hyperelliptic.pq"]


def fixture_model(fixture):
    _, sys1, sys2 = realize(parse_input(fixture_path(fixture).read_text()))
    return build_surface_model(sys1, sys2)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_genera_match_fibre_route(fixture):
    assert_same_central_genera(fixture_model(fixture))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_n1_e_counts_locus_points(fixture):
    assert_n1_e_counts_locus_points(fixture_model(fixture))


def test_a6_matches_pair_enumeration():
    _, sys1, sys2 = realize(parse_input(fixture_path("a6_245_334.pq").read_text()))
    assert_same_locus(sys1, sys2)
