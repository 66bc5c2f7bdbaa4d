import pytest

from pqsurf.covers import (
    GenusTooSmallError,
    NonIntegralGenusError,
    ValidSystem,
    branch_fiber,
    make_system,
    require_genus_at_least_two,
    require_valid,
    rh_genus,
    validate_system,
)
from pqsurf.errors import ValidationError
from pqsurf.groups import Permutation, element_order, group_from_generators


def z2_system(branches=6):
    group = group_from_generators([Permutation.from_cycles("(0 1)", 2)])
    t = group.generator_indices[0]
    return make_system(group, (t,) * branches)


def z5sq_triple(exponents):
    a = Permutation.from_cycles("(0 1 2 3 4)", 10)
    b = Permutation.from_cycles("(5 6 7 8 9)", 10)
    group = group_from_generators([a, b])
    ia, ib = group.generator_indices

    def element(x, y):
        return group.mul(group.power(ia, x), group.power(ib, y))

    return make_system(group, tuple(element(x, y) for x, y in exponents))


BEAUVILLE_1 = [(1, 0), (0, 1), (4, 4)]
BEAUVILLE_2 = [(1, 2), (3, 4), (1, 4)]


class TestValidation:
    def test_involution_pair_ok(self):
        assert validate_system(z2_system(2)).ok

    def test_order_mismatch_reported(self):
        sys = z2_system(2)
        bad = type(sys)(sys.group, sys.generators, (2, 3))
        report = validate_system(bad)
        assert not report.ok and "order mismatch" in report.violation

    def test_broken_long_relation(self):
        sys = z2_system(3)
        report = validate_system(sys)
        assert not report.ok and "long relation" in report.violation

    @pytest.mark.parametrize("exponents", [BEAUVILLE_1, BEAUVILLE_2])
    def test_beauville_triples_ok(self, exponents):
        assert validate_system(z5sq_triple(exponents)).ok

    def test_non_generating_tuple(self):
        report = validate_system(z5sq_triple([(1, 0), (2, 0), (2, 0)]))
        assert not report.ok and "generate" in report.violation

    def test_long_relation_is_checked_before_generation(self):
        # a, a span <a> only; with b the tuple generates (Z/5)^2, but its
        # product a^2 b is not the identity.  Generation is asked of all
        # elements but the last, which only the long relation makes redundant.
        report = validate_system(z5sq_triple([(1, 0), (1, 0), (0, 1)]))
        assert not report.ok and report.violation.startswith("long relation")

    def test_valid_system_of_a_proper_subgroup(self):
        # (a, a, a^3) has product 1 and orders 5, 5, 5, but spans only <a>
        report = validate_system(z5sq_triple([(1, 0), (1, 0), (3, 0)]))
        assert not report.ok and report.violation == "generators do not generate the whole group"


class TestValidSystem:
    def test_require_valid_returns_a_valid_system(self):
        sys = z2_system(6)
        valid = require_valid(sys)
        assert isinstance(valid, ValidSystem)
        assert (valid.group, valid.generators, valid.signature) == (
            sys.group,
            sys.generators,
            sys.signature,
        )
        assert require_valid(valid) is valid

    def test_invalid_system_cannot_be_valid(self):
        sys = z2_system(3)
        with pytest.raises(ValidationError, match="long relation"):
            require_valid(sys)
        with pytest.raises(ValidationError, match="long relation"):
            ValidSystem(sys.group, sys.generators, sys.signature)


class TestGenus:
    def test_hyperelliptic(self):
        assert rh_genus(z2_system(6)) == 2

    def test_beauville_curve(self):
        assert rh_genus(z5sq_triple(BEAUVILLE_1)) == 6

    def test_rational_quotient_of_two_branches(self):
        assert rh_genus(z2_system(2)) == 0

    def test_odd_branching_rejected(self):
        # Z/3 with two branch points: 3(-2 + 4/3) = -2, genus 0 is fine;
        # a single branch point gives -2 + 2/3, a non-integral value
        group = group_from_generators([Permutation.from_cycles("(0 1 2)", 3)])
        t = group.generator_indices[0]
        sys = make_system(group, (t, group.power(t, -1)))
        assert rh_genus(sys) == 0
        bad = type(sys)(group, (t,), (3,))
        with pytest.raises(NonIntegralGenusError):
            rh_genus(bad)

    def test_genus_floor_gate(self):
        with pytest.raises(GenusTooSmallError):
            require_genus_at_least_two(z2_system(2))


class TestBranchFibers:
    def test_single_point_full_stabilizer(self):
        sys = z2_system(6)
        for i in range(1, 7):
            fiber = branch_fiber(sys, i)
            assert len(fiber) == 1
            assert fiber[0].stabilizer.order == 2

    def test_fiber_size_is_index(self):
        sys = z5sq_triple(BEAUVILLE_1)
        for i in range(1, 4):
            fiber = branch_fiber(sys, i)
            assert len(fiber) == 5
            for point in fiber:
                assert point.stabilizer.order == 5
                assert element_order(sys.group, point.rotation_generator) == 5

    def test_abelian_stabilizers_equal_the_line(self):
        sys = z5sq_triple(BEAUVILLE_1)
        fiber = branch_fiber(sys, 1)
        stabs = {p.stabilizer.members for p in fiber}
        assert len(stabs) == 1  # conjugation is trivial

    def test_rotation_generator_generates_stabilizer(self):
        sys = z5sq_triple(BEAUVILLE_2)
        for i in range(1, 4):
            for point in branch_fiber(sys, i):
                assert point.rotation_generator in point.stabilizer.members

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
