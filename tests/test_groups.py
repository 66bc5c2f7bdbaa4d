import random

import pytest

from pqsurf.errors import ParseError, ValidationError
from pqsurf.groups import (
    DomainMismatchError,
    FiniteGroup,
    OrderCapExceededError,
    Permutation,
    Subgroup,
    conjugate_subgroup,
    cyclic_subgroup,
    element_order,
    group_from_generators,
    left_cosets,
)
from tests.locus_oracle import ActionAxiomError, intersect_subgroups, orbit_partition

SWAP = Permutation.from_cycles("(0 1)", 2)
PSL27_GENS = [
    Permutation.from_cycles("(0 3 1)(2 4 5)", 7),
    Permutation.from_cycles("(1 5)(2 6)", 7),
]


def count_mul(monkeypatch) -> list[int]:
    """Count FiniteGroup.mul calls from here on; the count is calls[0]."""
    calls = [0]
    original = FiniteGroup.mul

    def counted(self, i, j):
        calls[0] += 1
        return original(self, i, j)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    return calls


def z5_squared():
    # (Z/5)^2 acting on two disjoint pentagons
    a = Permutation.from_cycles("(0 1 2 3 4)", 10)
    b = Permutation.from_cycles("(5 6 7 8 9)", 10)
    return group_from_generators([a, b]), a, b


class TestPermutation:
    def test_parse_and_print(self):
        p = Permutation.from_cycles("(0 1 2)(3 4)")
        assert p.images == (1, 2, 0, 4, 3)
        assert p.cycle_string() == "(0 1 2)(3 4)"

    def test_identity_notation(self):
        assert Permutation.from_cycles("()", 3) == Permutation.identity(3)
        assert Permutation.identity(3).cycle_string() == "()"

    @pytest.mark.parametrize("text", ["(0 1", "0 1)", "(0 0 1)", "(0 1)(1 2)", "nope"])
    def test_bad_notation(self, text):
        with pytest.raises(ParseError):
            Permutation.from_cycles(text)

    def test_not_a_bijection(self):
        with pytest.raises(ValidationError):
            Permutation((0, 0, 1))

    def test_composition_applies_right_factor_first(self):
        p = Permutation.from_cycles("(0 1)", 3)
        q = Permutation.from_cycles("(1 2)", 3)
        assert (p * q)(1) == p(q(1)) == p(2) == 2

    def test_inverse(self):
        p = Permutation.from_cycles("(0 1 2 3 4)")
        assert (p * p.inverse()).is_identity()


class TestClosure:
    def test_order_two(self):
        assert group_from_generators([SWAP]).order == 2

    def test_symmetric_group_on_three_letters(self):
        gens = [Permutation.from_cycles("(0 1)", 3), Permutation.from_cycles("(0 1 2)", 3)]
        assert group_from_generators(gens).order == 6

    def test_psl_2_7(self):
        assert group_from_generators(PSL27_GENS).order == 168

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            group_from_generators([SWAP, Permutation.from_cycles("(0 1 2)", 3)])

    def test_cap(self):
        with pytest.raises(OrderCapExceededError):
            group_from_generators(PSL27_GENS, cap=100)

    def test_deterministic_ordering(self):
        g1 = group_from_generators(PSL27_GENS)
        g2 = group_from_generators(PSL27_GENS)
        assert g1.elements == g2.elements

    @pytest.mark.parametrize("gens", [[SWAP], PSL27_GENS])
    def test_repeated_generators_give_the_same_group(self, gens):
        plain = group_from_generators(gens)
        repeated = group_from_generators(gens * 24)
        assert repeated.elements == plain.elements
        assert repeated.generator_indices == plain.generator_indices * 24

    def test_group_laws(self):
        group = group_from_generators(PSL27_GENS)
        for i in range(group.order):
            assert group.mul(i, group.inv(i)) == group.identity
        rng = random.Random(7)
        for _ in range(50):
            a, b, c = (rng.randrange(group.order) for _ in range(3))
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


class TestPower:
    def test_huge_exponent_costs_at_most_the_group_order(self, monkeypatch):
        group = group_from_generators([SWAP])
        t = group.generator_indices[0]
        calls = count_mul(monkeypatch)
        assert group.power(t, 1_000_000_001) == t
        assert calls[0] <= group.order + 2

    def test_huge_negative_exponent(self, monkeypatch):
        group = group_from_generators([Permutation.from_cycles("(0 1 2 3 4 5 6)")])
        r = group.generator_indices[0]
        calls = count_mul(monkeypatch)
        assert group.power(r, -1_000_000_001) == group.power(group.inv(r), 1_000_000_001 % 7)
        assert calls[0] <= group.order + 2

    def test_matches_repeated_products(self):
        group = group_from_generators(PSL27_GENS)
        for g in group.generator_indices + (5, 77):
            acc = group.identity
            for k in range(12):
                assert group.power(g, k) == acc
                assert group.power(g, -k) == group.inv(acc)
                acc = group.mul(acc, g)


class TestElementOrder:
    def test_identity(self):
        group = group_from_generators([SWAP])
        assert element_order(group, group.identity) == 1

    @pytest.mark.parametrize(
        "cycles, expected", [("(0 1)", 2), ("(0 1 2 3 4)", 5), ("(0 1)(2 3 4)", 6)]
    )
    def test_orders(self, cycles, expected):
        p = Permutation.from_cycles(cycles, 5)
        group = group_from_generators([p])
        assert element_order(group, group.index_of(p)) == expected


class TestSubgroups:
    def test_cyclic_trivial(self):
        group = group_from_generators([SWAP])
        assert cyclic_subgroup(group, group.identity).order == 1

    def test_cyclic_order_four(self):
        p = Permutation.from_cycles("(0 1 2 3)")
        group = group_from_generators([p])
        assert cyclic_subgroup(group, group.index_of(p)).order == 4

    def test_cyclic_line_in_z5_squared(self):
        group, a, b = z5_squared()
        line = cyclic_subgroup(group, group.index_of(a * b * b))
        assert line.order == 5

    def test_conjugation_by_identity_and_in_abelian_groups(self):
        group, a, _ = z5_squared()
        h = cyclic_subgroup(group, group.index_of(a))
        assert conjugate_subgroup(group, h, group.identity).members == h.members
        for t in range(group.order):
            assert conjugate_subgroup(group, h, t).members == h.members

    def test_conjugation_moves_transpositions(self):
        gens = [Permutation.from_cycles("(0 1)", 3), Permutation.from_cycles("(0 1 2)", 3)]
        group = group_from_generators(gens)
        h = cyclic_subgroup(group, group.index_of(Permutation.from_cycles("(0 1)", 3)))
        t = group.index_of(Permutation.from_cycles("(1 2)", 3))
        conj = conjugate_subgroup(group, h, t)
        assert conj.members == cyclic_subgroup(
            group, group.index_of(Permutation.from_cycles("(0 2)", 3))
        ).members

    def test_conjugation_preserves_order(self):
        group = group_from_generators(PSL27_GENS)
        h = cyclic_subgroup(group, group.generator_indices[0])
        for t in range(0, group.order, 17):
            assert conjugate_subgroup(group, h, t).order == h.order

    def test_intersection_idempotent(self):
        group, a, _ = z5_squared()
        h = cyclic_subgroup(group, group.index_of(a))
        assert intersect_subgroups(group, h, h).members == h.members

    def test_distinct_lines_intersect_trivially(self):
        group, a, b = z5_squared()
        h1 = cyclic_subgroup(group, group.index_of(a))
        h2 = cyclic_subgroup(group, group.index_of(b))
        assert intersect_subgroups(group, h1, h2).order == 1

    def test_intersection_with_overgroup(self):
        gens = [
            Permutation.from_cycles("(0 1)(2 3)", 4),
            Permutation.from_cycles("(0 2)(1 3)", 4),
        ]
        group = group_from_generators(gens)
        h1 = cyclic_subgroup(group, group.generator_indices[0])
        klein = Subgroup(group, frozenset(range(group.order)))
        assert intersect_subgroups(group, h1, klein).order == 2

    def test_intersection_order_divides_both(self):
        group = group_from_generators(PSL27_GENS)
        h1 = cyclic_subgroup(group, group.generator_indices[0])
        h2 = cyclic_subgroup(group, group.generator_indices[1])
        inter = intersect_subgroups(group, h1, h2)
        assert h1.order % inter.order == 0 and h2.order % inter.order == 0


class TestCosets:
    def test_whole_group(self):
        group = group_from_generators([SWAP])
        assert left_cosets(group, Subgroup(group, frozenset(range(2)))) == [0]

    def test_trivial_subgroup(self):
        group = group_from_generators([SWAP])
        assert left_cosets(group, Subgroup(group, frozenset([0]))) == [0, 1]

    def test_lagrange(self):
        gens = [Permutation.from_cycles("(0 1)", 3), Permutation.from_cycles("(0 1 2)", 3)]
        group = group_from_generators(gens)
        h = cyclic_subgroup(group, group.index_of(Permutation.from_cycles("(0 1)", 3)))
        reps = left_cosets(group, h)
        assert len(reps) == 3
        assert len(reps) * h.order == group.order

    def test_lagrange_psl(self):
        group = group_from_generators(PSL27_GENS)
        h = cyclic_subgroup(group, group.generator_indices[0])
        assert len(left_cosets(group, h)) * h.order == group.order


class TestOrbits:
    def test_trivial_group_gives_singletons(self):
        group = group_from_generators([Permutation.identity(2)])
        orbits = orbit_partition(group, [0, 1, 2], lambda g, p: p)
        assert [sorted(o) for o in orbits] == [[0], [1], [2]]

    def test_left_translation_is_transitive(self):
        group = group_from_generators(PSL27_GENS)
        orbits = orbit_partition(group, range(group.order), lambda g, p: group.mul(g, p))
        assert len(orbits) == 1

    def test_orbits_partition_the_points(self):
        group, a, b = z5_squared()
        pts = list(range(10))
        orbits = orbit_partition(group, pts, lambda g, p: group.element(g)(p))
        assert sorted(x for o in orbits for x in o) == pts
        assert len(orbits) == 2

    @pytest.mark.parametrize("gens", [[SWAP], PSL27_GENS])
    def test_repeated_generators_cost_no_extra_products(self, gens, monkeypatch):
        calls = count_mul(monkeypatch)
        counts = []
        for generator_list in (gens, gens * 24):
            group = group_from_generators(generator_list)
            calls[0] = 0
            orbits = orbit_partition(group, range(group.order), lambda g, p: group.mul(g, p))
            assert len(orbits) == 1
            counts.append(calls[0])
        assert counts[0] == counts[1]

    def test_axiom_violation_detected(self):
        group = group_from_generators([SWAP])
        with pytest.raises(ActionAxiomError):
            orbit_partition(group, [0, 1], lambda g, p: 1 - p if g else p and 0)
