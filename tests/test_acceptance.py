"""Acceptance suite: one test per release criterion, each printing a PASS line.

Every assertion is exact (integer or Fraction equality); the two timed
criteria carry explicit wall-clock budgets.
"""

import time
from fractions import Fraction
from math import gcd

from pqsurf.bounds import degree_bound_report, solve_two_branch_elliptic
from pqsurf.differentials import (
    SourceSection,
    bigness_certificate,
    certificate_lower_bound,
    gamma_closed_form,
    gamma_pullback,
    is_holomorphic,
    vanishing_conditions,
)
from pqsurf.hj import hj_expand, hj_evaluate, leading_minors, string_for
from pqsurf.inputs import fixture_path, parse_input, parse_rows, formula_invariants, run_invariants
from pqsurf.singularities import SingularityType, dual_type
from pqsurf.surface import build_surface_model


def _ok(label: str) -> None:
    print(f"PASS {label}")


def test_criterion_1_formula_table():
    """Six classification rows with two 1/2(1,1) points: e = 6, c1^2 = 6, c1^2 + c2 = 12."""
    start = time.perf_counter()
    rows = parse_rows(fixture_path("table_c1sq6.rows").read_text())
    assert len(rows) == 6
    expected = {
        ("Z2xD4", 16, 3, 7),
        ("Z2xS4", 48, 19, 3),
        ("A5", 60, 4, 16),
        ("Z2xS5", 240, 19, 11),
        ("PSL(2,7)", 168, 19, 8),
        ("A6", 360, 19, 16),
    }
    assert {(r.name, r.group_order, r.g1, r.g2) for r in rows} == expected
    for row in rows:
        assert row.singularities == ((2, 1, 2),)
        summary = formula_invariants(row)
        assert summary.e == 6
        c1sq = 12 - summary.e
        assert c1sq == 6 == summary.ksq
        assert c1sq + summary.e == 12
        assert summary.chi == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(f"criterion 1: formula-mode table, six rows, e = 6 and c1^2 + c2 = 12 ({elapsed:.3f}s)")


def test_criterion_2_beauville_calibration():
    """(Z/5)^2 full pipeline: genera 6/6, empty locus, e = 4, K^2 = 8, chi = 1, q = pg = 0."""
    start = time.perf_counter()
    desc = parse_input(fixture_path("beauville_55.pq").read_text())
    s = run_invariants(desc, name="beauville")
    assert (s.g1, s.g2) == (6, 6)
    assert s.singularities == ()
    assert (s.e, s.ksq, s.chi, s.q, s.pg) == (4, 8, 1, 0, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(f"criterion 2: Beauville calibration e=4, K^2=8, chi=1 ({elapsed:.3f}s)")


def test_criterion_3_hyperelliptic_calibration():
    """Z/2 x Z/2 pipeline: 36 x 1/2(1,1), e = 56, K^2 = 4 = 12*chi - e with chi = 5, q = 0."""
    desc = parse_input(fixture_path("z2_hyperelliptic.pq").read_text())
    s = run_invariants(desc)
    assert s.singularities == ((2, 1, 36),)
    assert s.e == 56
    assert s.chi == 5
    assert s.ksq == 4 == 12 * s.chi - s.e
    assert s.q == 0
    _ok("criterion 3: hyperelliptic calibration, 36 nodes, K^2 = 4 = 12*5 - 56")


def test_criterion_4_hj_property_suite():
    """All coprime (n, a), 2 <= n <= 50: round trip, reversal duality, |det| = n, negative definite."""
    start = time.perf_counter()
    checked = 0
    for n in range(2, 51):
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            b = hj_expand(n, a)
            assert hj_evaluate(b) == Fraction(n, a)
            t = SingularityType(n, a)
            dual = dual_type(t)
            assert hj_expand(dual.n, dual.a) == b[::-1]
            minors = leading_minors(string_for(t))
            assert abs(minors[-1]) == n
            for k, minor in enumerate(minors, start=1):
                assert minor * (-1) ** k > 0  # alternating signs: negative definite
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _ok(f"criterion 4: H-J suite over {checked} coprime pairs, n <= 50 ({elapsed:.3f}s)")


def test_criterion_5_pullback_brute_force():
    """m in {1,2,3}, monomials i,j <= 8, i+j even: holomorphic iff i+j >= 2m; coefficients
    match the binomial closed form exactly."""
    count = 0
    for m in (1, 2, 3):
        for i in range(9):
            for j in range(9):
                if (i + j) % 2 != 0:
                    continue
                s = SourceSection.monomial(m, i, j)
                d = gamma_pullback(s)
                assert d == gamma_closed_form(s)
                assert is_holomorphic(d) == (i + j >= 2 * m)
                count += 1
    _ok(f"criterion 5: pullback brute force, {count} invariant monomials, exact match")


def test_criterion_6_bigness_certificate():
    """K^2 = 6, chi = 1, k = 2: lower(m) = m^2 - 4m + 1, first positive at m* = 4 with
    value 1; vanishing_conditions(m, 2) = 2m^2 + m for m <= 20."""
    for m in range(2, 41):
        assert certificate_lower_bound(6, 1, 2, m) == m * m - 4 * m + 1
    cert = bigness_certificate(6, 1, 2)
    assert cert is not None and cert.m_star == 4 and cert.value == 1
    for m in range(1, 21):
        assert vanishing_conditions(m, 2) == 2 * m * m + m
    _ok("criterion 6: bigness certificate m* = 4 with value 1; vanishing count 2m^2 + m")


def _all_models():
    for name in ("beauville_55.pq", "z2_hyperelliptic.pq"):
        desc = parse_input(fixture_path(name).read_text())
        from pqsurf.inputs import realize

        _, sys1, sys2 = realize(desc)
        yield name, build_surface_model(sys1, sys2)


def test_criterion_7_universal_invariants():
    """Every fixture: Noether 12 | (K^2 + e); K.F adjunction; K.Z = b - 2 on strings;
    degree bound (K - E).C <= 2(2g - 2) on every non-string basis curve."""
    toy_checked = False
    for name, model in _all_models():
        inv = model.numerical_invariants()
        assert (inv.ksq + inv.e) % 12 == 0
        k = model.canonical_class()
        assert model.intersect(k, {model.F1: 1}) == 2 * model.g2 - 2
        assert model.intersect(k, {model.F2: 1}) == 2 * model.g1 - 2
        for data, comps in zip(model.strings, model.Z):
            for b_k, comp in zip(data.b, comps):
                assert model.intersect(k, {comp: 1}) == b_k - 2
        for curve in [model.F1, model.F2, *model.N, *model.M]:
            report = degree_bound_report(model, curve)
            assert report.satisfied
            if name == "z2_hyperelliptic.pq" and curve.kind == "N":
                assert report.kme_degree == -5 and report.bound == -4
                toy_checked = True
    assert toy_checked
    _ok("criterion 7: Noether, fiber/string adjunction and degree bounds on all fixtures")


def test_criterion_8_two_branch_solver():
    """2g(C) - 2 = 4 = |H|(2g(Y) - 1) has the unique admissible solution (4, 1)."""
    assert solve_two_branch_elliptic(3) == [(4, 1)]
    _ok("criterion 8: unique solution |H| = 4, g(Y) = 1 of 4 = |H|(2g(Y) - 1)")
