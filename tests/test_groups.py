import gc
import random
import weakref
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqsurf.covers import make_system, validate_system
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
from pqsurf.inputs import fixture_path, parse_input
from tests.locus_oracle import ActionAxiomError, closure_images, intersect_subgroups, orbit_partition

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
        assert Permutation.from_cycles("()", 3) == Permutation((0, 1, 2))
        assert Permutation((0, 1, 2)).cycle_string() == "()"

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
        group = group_from_generators([p, q])
        i, j = group.index_of(p), group.index_of(q)
        # (p * q)(1) = p(q(1)) = p(2) = 2
        assert group.images[group.mul(i, j)][1] == p.images[q.images[1]] == 2

    def test_inverse(self):
        p = Permutation.from_cycles("(0 1 2 3 4)")
        group = group_from_generators([p])
        i = group.index_of(p)
        assert [group.images[group.inv(i)][x] for x in p.images] == list(range(5))


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
        assert g1.images == g2.images

    @pytest.mark.parametrize("gens", [[SWAP], PSL27_GENS])
    def test_repeated_generators_give_the_same_group(self, gens):
        plain = group_from_generators(gens)
        repeated = group_from_generators(gens * 24)
        assert repeated.images == plain.images
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
        i, j = group.index_of(a), group.index_of(b)
        line = cyclic_subgroup(group, group.mul(i, group.mul(j, j)))
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
        group = group_from_generators([Permutation((0, 1))])
        orbits = orbit_partition(group, [0, 1, 2], lambda g, p: p)
        assert [sorted(o) for o in orbits] == [[0], [1], [2]]

    def test_left_translation_is_transitive(self):
        group = group_from_generators(PSL27_GENS)
        orbits = orbit_partition(group, range(group.order), lambda g, p: group.mul(g, p))
        assert len(orbits) == 1

    def test_orbits_partition_the_points(self):
        group, a, b = z5_squared()
        pts = list(range(10))
        orbits = orbit_partition(group, pts, lambda g, p: group.images[g][p])
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


def fixture_generators(name: str) -> list[Permutation]:
    desc = parse_input(fixture_path(name).read_text())
    return [Permutation.from_cycles(text, desc.degree) for _, text in desc.generators]


@lru_cache(maxsize=None)
def symmetric_group(n: int):
    cycle = "(" + " ".join(map(str, range(n))) + ")"
    return group_from_generators([Permutation.from_cycles("(0 1)", n), Permutation.from_cycles(cycle, n)])


class TestClosureAgainstOracle:
    """Closure composes in C; the list-comprehension oracle fixes the
    discovery order that element indices, the locus and every golden rest on."""

    @pytest.mark.parametrize(
        "gens",
        [*(fixture_generators(f"{name}.pq") for name in ("a5_255_335", "a6_245_334", "a7_247_357")),
         PSL27_GENS, PSL27_GENS[::-1], [SWAP, SWAP]],
        ids=["A5", "A6", "A7", "PSL(2,7)", "PSL(2,7)-reversed", "repeated"],
    )
    def test_discovery_order(self, gens):
        assert group_from_generators(gens).images == tuple(closure_images([g.images for g in gens]))

    @pytest.mark.parametrize("degree", [0, 1])
    def test_below_degree_two_the_group_is_trivial(self, degree):
        identity = Permutation(tuple(range(degree)))
        group = group_from_generators([identity, identity])
        assert group.images == ((*range(degree),),)
        assert group.mul(0, 0) == 0 and group.images[group.mul(0, 0)] == identity.images


@st.composite
def symmetric_systems(draw):
    """A tuple of non-identity elements of S_n (n <= 6) with product 1 and any
    span: the long relation and the signature hold, generation may not."""
    group = symmetric_group(draw(st.integers(2, 6)))
    elements = [draw(st.integers(1, group.order - 1)) for _ in range(draw(st.integers(1, 3)))]
    acc = group.identity
    for g in elements:
        acc = group.mul(acc, g)
    assume(acc != group.identity)
    return make_system(group, (*elements, group.inv(acc)))


class TestGenerationCheck:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(symmetric_systems())
    def test_early_stop_verdict_matches_full_closure(self, sys):
        group = sys.group
        closes = len(closure_images([group.images[g] for g in sys.generators])) == group.order
        report = validate_system(sys)
        assert report.ok == closes
        assert report.ok or report.violation == "generators do not generate the whole group"

    def test_generating_system_stops_past_half_the_group(self, monkeypatch):
        group = symmetric_group(6)
        x, y = group.generator_indices
        sys = make_system(group, (x, y, group.inv(group.mul(x, y))))
        calls = count_mul(monkeypatch)
        assert validate_system(sys).ok
        # 3 products for the long relation (make_system cached the element
        # orders), then 3 per element popped while at most |G|/2 are found;
        # a full closure would take 3 per element of the group
        assert calls[0] <= 3 + 3 * (group.order // 2 + 1)

    def test_proper_subgroup_is_closed_in_full(self):
        # (0 1 2) and its inverse span A_3 inside S_6: order 3, not 720
        group = symmetric_group(6)
        c = group.index_of(Permutation.from_cycles("(0 1 2)", 6))
        report = validate_system(make_system(group, (c, group.inv(c))))
        assert not report.ok and report.violation == "generators do not generate the whole group"


def test_a_used_group_is_freed_by_reference_counting():
    """The lazily built tables hold no reference back to their group, so a
    group whose tables have been used leaves no cycle behind."""
    gc.disable()
    try:
        group = group_from_generators(PSL27_GENS)
        for g in range(group.order):
            group.powers(group.conjugate(g, group.inv(g)))
        ref = weakref.ref(group)
        del group
        assert ref() is None
    finally:
        gc.enable()
