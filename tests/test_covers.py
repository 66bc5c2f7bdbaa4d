import re
from types import SimpleNamespace

import pytest

from pqsurf.covers import (
    SphericalSystem,
    branch_fiber,
    require_genus_at_least_two,
    rh_genus,
    validate_system,
)
from pqsurf.errors import ValidationError
from pqsurf.groups import Permutation, group_from_generators
from tests.conftest import conjugate, power


def exactly(message: str) -> str:
    """A ``pytest.raises`` pattern that matches the whole message and nothing else."""
    return f"^{re.escape(message)}$"


LONG_RELATION = exactly("invalid spherical system: long relation: product of generators is not the identity")
NOT_GENERATING = exactly("invalid spherical system: generators do not generate the whole group")


def z2_system(branches=6):
    group = group_from_generators([Permutation.from_cycles("(0 1)", 2)])
    t = group.generator_indices[0]
    return SphericalSystem(group, (t,) * branches)


def z5sq_triple(exponents):
    a = Permutation.from_cycles("(0 1 2 3 4)", 10)
    b = Permutation.from_cycles("(5 6 7 8 9)", 10)
    group = group_from_generators([a, b])
    ia, ib = group.generator_indices

    def element(x, y):
        return group.mul(power(group, ia, x), power(group, ib, y))

    return SphericalSystem(group, tuple(element(x, y) for x, y in exponents))


BEAUVILLE_1 = [(1, 0), (0, 1), (4, 4)]
BEAUVILLE_2 = [(1, 2), (3, 4), (1, 4)]
PSL27_GENS = [
    Permutation.from_cycles("(0 3 1)(2 4 5)", 7),
    Permutation.from_cycles("(1 5)(2 6)", 7),
]


def triangle_system(gens):
    """(a, b, (ab)^-1) for the two generators of a group."""
    group = group_from_generators(gens)
    a, b = group.generator_indices
    return SphericalSystem(group, (a, b, power(group, group.mul(a, b), -1)))


def s3_system():
    """(0 1), (1 2), (0 2 1) in S3: signature (2, 2, 3)."""
    return triangle_system([Permutation.from_cycles("(0 1)", 3), Permutation.from_cycles("(1 2)", 3)])


def psl27_system():
    """PSL(2, 7) on the 7 points of the Fano plane: signature (3, 2, 7)."""
    return triangle_system(PSL27_GENS)


def assert_fibre_is_cosets(sys, i):
    """The fibre over branch point i is the left cosets t<g_i>, which
    partition G, in the order of their representatives t, each the least
    index of its coset; the stabilizer of the coset-t point is the conjugate
    t<g_i>t^-1, of order m_i, rotated by t g_i t^-1."""
    group, g = sys.group, sys.generators[i - 1]
    cyclic = group.powers(g)
    fibre = branch_fiber(sys, i)
    cosets = [{group.mul(point.coset_rep, h) for h in cyclic} for point in fibre]
    assert sorted(x for coset in cosets for x in coset) == list(range(group.order))
    reps = [point.coset_rep for point in fibre]
    assert reps == sorted(reps)
    for point, coset in zip(fibre, cosets):
        t = point.coset_rep
        assert point.branch_index == i and t == min(coset)
        assert point.stabilizer == {conjugate(group, h, t) for h in cyclic}
        assert len(point.stabilizer) == sys.signature[i - 1]
        assert point.rotation_generator == conjugate(group, g, t)


class TestValidation:
    def test_involution_pair_ok(self):
        sys = z2_system(2)
        assert validate_system(sys) is None and sys.signature == (2, 2)

    def test_broken_long_relation(self):
        with pytest.raises(ValidationError, match=LONG_RELATION):
            z2_system(3)

    @pytest.mark.parametrize("exponents", [BEAUVILLE_1, BEAUVILLE_2])
    def test_beauville_triples_ok(self, exponents):
        sys = z5sq_triple(exponents)
        assert validate_system(sys) is None and sys.signature == (5, 5, 5)

    def test_non_generating_tuple(self):
        with pytest.raises(ValidationError, match=NOT_GENERATING):
            z5sq_triple([(1, 0), (2, 0), (2, 0)])

    def test_long_relation_is_checked_before_generation(self):
        # a, a span <a> only; with b the tuple generates (Z/5)^2, but its
        # product a^2 b is not the identity.  Generation is asked of all
        # elements but the last, which only the long relation makes redundant.
        with pytest.raises(ValidationError, match=LONG_RELATION):
            z5sq_triple([(1, 0), (1, 0), (0, 1)])

    def test_valid_system_of_a_proper_subgroup(self):
        # (a, a, a^3) has product 1 and orders 5, 5, 5, but spans only <a>
        with pytest.raises(ValidationError, match=NOT_GENERATING):
            z5sq_triple([(1, 0), (1, 0), (3, 0)])

    @pytest.mark.parametrize(
        "generators, message",
        # (t, t, e) has product 1 and generates Z/2, but e branches nowhere
        [((1, 1, 0), "invalid spherical system: signature entry 1 < 2"), ((), "need at least one generator")],
        ids=["identity", "empty"],
    )
    def test_degenerate_tuple_is_refused(self, generators, message):
        with pytest.raises(ValidationError, match=exactly(message)):
            SphericalSystem(z2_system(2).group, generators)


class TestValidSystem:
    def test_invalid_system_cannot_be_valid(self):
        # the constructor, _make and _replace all validate; the signature is
        # no field, so it cannot be replaced out of step with the elements
        sys = z2_system(2)
        with pytest.raises(ValidationError, match=LONG_RELATION):
            SphericalSystem(sys.group, (1, 1, 1))
        with pytest.raises(ValidationError, match=LONG_RELATION):
            SphericalSystem._make((sys.group, (1,)))
        with pytest.raises(ValidationError, match=LONG_RELATION):
            sys._replace(generators=(1, 0))
        with pytest.raises(ValueError):
            sys._replace(signature=(3, 3))

    def test_constructor_refuses_a_system_before_any_model_is_built(self):
        # z2_system(3) raises when the system is built, so an invalid tuple
        # never reaches build_surface_model
        from pqsurf.surface import build_surface_model

        with pytest.raises(ValidationError, match="long relation"):
            build_surface_model(*[z2_system(3)] * 2)


class TestGenus:
    def test_hyperelliptic(self):
        assert rh_genus(z2_system(6)) == 2

    def test_beauville_curve(self):
        assert rh_genus(z5sq_triple(BEAUVILLE_1)) == 6

    def test_rational_quotient_of_two_branches(self):
        assert rh_genus(z2_system(2)) == 0

    def test_odd_branching_rejected(self):
        # Z/3 with two branch points: 3(-2 + 4/3) = -2, genus 0 is fine.  No
        # valid system has the signatures below, so stand-ins carry them: one
        # branch point of order 3 gives 3(-2 + 2/3) = -4, below -2; one of
        # order 2 gives 3(-2 + 1/2) = -9/2, not an integer; Z/2 with three
        # gives 2(-2 + 3/2) = -1, odd.
        group = group_from_generators([Permutation.from_cycles("(0 1 2)", 3)])
        t = group.generator_indices[0]
        assert rh_genus(SphericalSystem(group, (t, power(group, t, -1)))) == 0
        for order, signature, value in [(3, (3,), "-4"), (3, (2,), "-9/2"), (2, (2, 2, 2), "-1")]:
            inadmissible = exactly(f"branching data gives 2g - 2 = {value}, not an admissible value")
            with pytest.raises(ValidationError, match=inadmissible):
                rh_genus(SimpleNamespace(group=SimpleNamespace(order=order), signature=signature))

    def test_genus_floor_gate(self):
        with pytest.raises(ValidationError, match=exactly("cover has genus 0 < 2")):
            require_genus_at_least_two(z2_system(2))


class TestBranchFibers:
    def test_single_point_full_stabilizer(self):
        sys = z2_system(6)
        for i in range(1, 7):
            fiber = branch_fiber(sys, i)
            assert len(fiber) == 1
            assert fiber[0].stabilizer == frozenset({0, 1})

    def test_fiber_size_is_index(self):
        sys = z5sq_triple(BEAUVILLE_1)
        for i in range(1, 4):
            fiber = branch_fiber(sys, i)
            assert len(fiber) == 5
            for point in fiber:
                assert len(point.stabilizer) == 5
                assert len(sys.group.powers(point.rotation_generator)) == 5

    def test_abelian_stabilizers_equal_the_line(self):
        sys = z5sq_triple(BEAUVILLE_1)
        fiber = branch_fiber(sys, 1)
        stabs = {p.stabilizer for p in fiber}
        assert len(stabs) == 1  # conjugation is trivial

    def test_rotation_generator_generates_stabilizer(self):
        sys = z5sq_triple(BEAUVILLE_2)
        for i in range(1, 4):
            for point in branch_fiber(sys, i):
                assert point.rotation_generator in point.stabilizer

    @pytest.mark.parametrize("make", [s3_system, lambda: z5sq_triple(BEAUVILLE_2), psl27_system])
    def test_fibres_are_the_cosets(self, make):
        sys = make()
        for i in range(1, sys.branch_count + 1):
            assert_fibre_is_cosets(sys, i)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            branch_fiber(z2_system(6), 7)

    @pytest.mark.parametrize("make", [lambda: z2_system(6), lambda: z5sq_triple(BEAUVILLE_1)])
    def test_total_ramification(self, make):
        sys = make()
        g = rh_genus(sys)
        total = sum(
            (sys.signature[i - 1] - 1) * len(branch_fiber(sys, i))
            for i in range(1, sys.branch_count + 1)
        )
        # Riemann-Hurwitz over P^1: 2g - 2 = -2|G| + sum of (e_p - 1) over ramification points
        assert total == 2 * g - 2 + 2 * sys.group.order
