import gc
import random
import weakref
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqsurf import covers
from pqsurf.covers import SphericalSystem, branch_fiber, validate_system
from pqsurf.errors import EngineInconsistencyError, ParseError, ValidationError
from pqsurf.groups import FiniteGroup, Permutation, group_from_generators, power_images, product_images
from pqsurf.inputs import parse_input, realize
from pqsurf.singularities import enumerate_singularities
from tests.conftest import fixture_path, power, span_compositions
from tests.locus_oracle import (
    ActionAxiomError,
    closure_images,
    coset_of,
    cyclic_subgroup,
    intersect_subgroups,
    orbit_partition,
)
from tests.test_covers import (
    BEAUVILLE_1,
    NOT_GENERATING,
    PSL27_GENS,
    assert_fibre_is_cosets,
    psl27_system,
    s3_system,
    z2_system,
    z5sq_triple,
)

SWAP = Permutation.from_cycles("(0 1)", 2)


def count_mul(monkeypatch) -> list[int]:
    """Count FiniteGroup.mul calls from here on; the count is calls[0]."""
    calls = [0]
    original = FiniteGroup.mul

    def counted(self, i, j):
        calls[0] += 1
        return original(self, i, j)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    return calls


def product(p: Permutation, q: Permutation) -> Permutation:
    """p * q, q acting first."""
    return Permutation(tuple(p.images[x] for x in q.images))


def elements(group: FiniteGroup) -> list[tuple[int, ...]]:
    """The image tuples of the group's elements, in its element order."""
    return [tuple(p) for p in group.images]


def index_of(group: FiniteGroup, p: Permutation) -> int:
    return elements(group).index(p.images)


def z5_squared():
    # (Z/5)^2 acting on two disjoint pentagons
    a = Permutation.from_cycles("(0 1 2 3 4)", 10)
    b = Permutation.from_cycles("(5 6 7 8 9)", 10)
    return group_from_generators([a, b]), a, b


class TestPermutation:
    def test_parse(self):
        p = Permutation.from_cycles("(0 1 2)(3 4)")
        assert p.images == (1, 2, 0, 4, 3)

    def test_identity_notation(self):
        assert Permutation.from_cycles("()", 3) == Permutation((0, 1, 2))

    @pytest.mark.parametrize("text", ["(0 1", "0 1)", "(0 0 1)", "(0 1)(1 2)", "nope"])
    def test_bad_notation(self, text):
        with pytest.raises(ParseError):
            Permutation.from_cycles(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(0 1)(1 2)", "cycles are not disjoint: '(0 1)(1 2)'"),
            # every cycle is read before cycles that meet are named
            ("(0 1)(1 2)(3 4 3)", "repeated point inside a cycle: '(0 1)(1 2)(3 4 3)'"),
            (f"(0 1)(1 2)(3 {'9' * 5000})", "point '9999999999...9999999999' has 5000 digits, "
                                            "more than Python converts to an integer"),
            (f"(0 0)(3 {'9' * 5000})", "repeated point inside a cycle: '(0 0)(3 99...999999999)'"),
        ],
        ids=["overlap", "repeat-after-overlap", "long-point-after-overlap", "repeat-before-long-point"],
    )
    def test_first_fault_is_named(self, text, message):
        with pytest.raises(ParseError) as info:
            Permutation.from_cycles(text)
        assert str(info.value) == message

    def test_inferred_domain_stops_at_the_ceiling(self):
        # without a degree the domain is the largest point + 1, at most MAX_DEGREE points
        assert Permutation.from_cycles("(0 255)").degree == 256
        with pytest.raises(ParseError, match=r"^point 256 out of domain 0\.\.255$"):
            Permutation.from_cycles("(0 256)")

    def test_not_a_bijection(self):
        with pytest.raises(ValidationError):
            Permutation((0, 0, 1))

    def test_composition_applies_right_factor_first(self):
        p = Permutation.from_cycles("(0 1)", 3)
        q = Permutation.from_cycles("(1 2)", 3)
        group = group_from_generators([p, q])
        i, j = index_of(group, p), index_of(group, q)
        # (p * q)(1) = p(q(1)) = p(2) = 2
        assert group.images[group.mul(i, j)][1] == p.images[q.images[1]] == 2

    def test_inverse(self):
        p = Permutation.from_cycles("(0 1 2 3 4)")
        group = group_from_generators([p])
        i = index_of(group, p)
        assert [group.images[power(group, i, -1)][x] for x in p.images] == list(range(5))


class TestClosure:
    def test_order_two(self):
        assert group_from_generators([SWAP]).order == 2

    def test_symmetric_group_on_three_letters(self):
        gens = [Permutation.from_cycles("(0 1)", 3), Permutation.from_cycles("(0 1 2)", 3)]
        assert group_from_generators(gens).order == 6

    def test_psl_2_7(self):
        assert group_from_generators(PSL27_GENS).order == 168

    def test_domain_mismatch(self):
        with pytest.raises(ValidationError, match="^generators act on different domains$"):
            group_from_generators([SWAP, Permutation.from_cycles("(0 1 2)", 3)])

    def test_cap(self):
        with pytest.raises(ValidationError, match="^group order exceeds cap 100$"):
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

    def test_element_zero_must_be_the_identity(self):
        images = [b"\x01\x00", b"\x00\x01"]
        with pytest.raises(EngineInconsistencyError, match="^element 0 must be the identity$"):
            FiniteGroup(images, [0], {im: i for i, im in enumerate(images)})

    def test_group_laws(self):
        group = group_from_generators(PSL27_GENS)
        for i in range(group.order):
            assert group.mul(i, power(group, i, -1)) == group.identity
        rng = random.Random(7)
        for _ in range(50):
            a, b, c = (rng.randrange(group.order) for _ in range(3))
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


class TestPower:
    """``groups.power_images``, which a ``.pq`` word's ``name^k`` goes
    through, against the powers a group lists by repeated products."""

    def test_huge_exponent_costs_at_most_the_group_order(self, monkeypatch):
        # no product at all: the cycles of the element are rotated
        calls = count_mul(monkeypatch)
        assert power_images(bytes(SWAP.images), 1_000_000_001) == bytes(SWAP.images)
        assert calls[0] == 0

    def test_huge_negative_exponent(self):
        gens = [Permutation.from_cycles("(0 1 2 3 4 5 6)")]
        group = group_from_generators(gens)
        r = group.generator_indices[0]
        expected = power(group, power(group, r, -1), 1_000_000_001 % 7)
        assert power_images(group.images[r], -1_000_000_001) == group.images[expected]

    def test_inverse_of_an_element_with_cached_powers_costs_no_product(self, monkeypatch):
        group = group_from_generators([Permutation.from_cycles("(0 1 2 3 4 5 6)")])
        r = group.generator_indices[0]
        calls = count_mul(monkeypatch)
        inverse = group.index[power_images(group.images[r], -1)]
        assert calls[0] == 0
        assert group.mul(r, inverse) == group.identity

    def test_matches_repeated_products(self):
        group = group_from_generators(PSL27_GENS)
        for g in group.generator_indices + (5, 77):
            acc = group.identity
            for k in range(12):
                assert power_images(group.images[g], k) == group.images[acc]
                assert group.mul(group.index[power_images(group.images[g], -k)], acc) == group.identity
                acc = group.mul(acc, g)

    def test_element_of_huge_order_is_powered_at_once(self):
        # cycles of the first 12 primes, 197 points, and 3 fixed points:
        # the order is their product, about 7e12, and k has 30 digits
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        cycles, start = [], 0
        for m in primes:
            cycles.append(tuple(range(start, start + m)))
            start += m
        p = bytes(Permutation.from_cycles("".join(f"({' '.join(map(str, c))})" for c in cycles), 200).images)
        k = 10**29 + 7
        images = power_images(p, k)
        for cycle in cycles:
            for i, x in enumerate(cycle):
                assert images[x] == cycle[(i + k) % len(cycle)]
        assert images[197:] == bytes([197, 198, 199])
        assert product_images(images, power_images(p, -k)) == bytes(range(200))


class TestElementOrder:
    def test_identity(self):
        group = group_from_generators([SWAP])
        assert len(group.powers(group.identity)) == 1

    @pytest.mark.parametrize(
        "cycles, expected", [("(0 1)", 2), ("(0 1 2 3 4)", 5), ("(0 1)(2 3 4)", 6)]
    )
    def test_orders(self, cycles, expected):
        p = Permutation.from_cycles(cycles, 5)
        group = group_from_generators([p])
        assert len(group.powers(index_of(group, p))) == expected


@pytest.mark.parametrize("name", ["a5_255_335.pq", "a6_245_334.pq"])
def test_conjugacy_class_is_every_conjugate(name):
    group, _, _ = realize(parse_input(fixture_path(name).read_text()))
    for x in range(group.order):
        members = group.conjugacy_class(x)
        # t x t^-1 for every t, t^-1 the last of t's powers
        assert set(members) == {group.images[group.mul(group.mul(t, x), group.powers(t)[-1])]
                                for t in range(group.order)}
        assert all(group.conjugacy_class(group.index[y]) is members for y in members)


class TestSubgroups:
    def test_cyclic_trivial(self):
        group = group_from_generators([SWAP])
        assert len(cyclic_subgroup(group, group.identity)) == 1

    def test_cyclic_order_four(self):
        p = Permutation.from_cycles("(0 1 2 3)")
        group = group_from_generators([p])
        assert len(cyclic_subgroup(group, index_of(group, p))) == 4

    def test_cyclic_line_in_z5_squared(self):
        group, a, b = z5_squared()
        i, j = index_of(group, a), index_of(group, b)
        line = cyclic_subgroup(group, group.mul(i, group.mul(j, j)))
        assert len(line) == 5

    def test_conjugation_by_identity_and_in_abelian_groups(self):
        sys = z5sq_triple(BEAUVILLE_1)
        for i, g in enumerate(sys.generators, 1):
            fibre = branch_fiber(sys, i)
            assert fibre[0].coset_rep == sys.group.identity and fibre[0].rotation_generator == g
            assert {point.stabilizer for point in fibre} == {cyclic_subgroup(sys.group, g)}
            assert_fibre_is_cosets(sys, i)

    def test_conjugation_moves_transpositions(self):
        sys = s3_system()
        group = sys.group
        transpositions = [index_of(group, Permutation.from_cycles(c, 3)) for c in ("(0 1)", "(0 2)", "(1 2)")]
        for i in (1, 2):
            fibre = branch_fiber(sys, i)
            assert {point.stabilizer for point in fibre} == {cyclic_subgroup(group, t) for t in transpositions}
            assert {point.rotation_generator for point in fibre} == set(transpositions)
            assert_fibre_is_cosets(sys, i)

    def test_conjugation_preserves_order(self):
        sys = psl27_system()
        for i, m in enumerate(sys.signature, 1):
            assert all(len(point.stabilizer) == m for point in branch_fiber(sys, i))
            assert_fibre_is_cosets(sys, i)

    def test_intersection_idempotent(self):
        group, a, _ = z5_squared()
        h = cyclic_subgroup(group, index_of(group, a))
        assert intersect_subgroups(group, h, h) == h

    def test_distinct_lines_intersect_trivially(self):
        group, a, b = z5_squared()
        h1 = cyclic_subgroup(group, index_of(group, a))
        h2 = cyclic_subgroup(group, index_of(group, b))
        assert intersect_subgroups(group, h1, h2) == {group.identity}

    def test_intersection_with_overgroup(self):
        gens = [
            Permutation.from_cycles("(0 1)(2 3)", 4),
            Permutation.from_cycles("(0 2)(1 3)", 4),
        ]
        group = group_from_generators(gens)
        h1 = cyclic_subgroup(group, group.generator_indices[0])
        klein = frozenset(range(group.order))
        assert len(intersect_subgroups(group, h1, klein)) == 2

    def test_intersection_order_divides_both(self):
        group = group_from_generators(PSL27_GENS)
        h1 = cyclic_subgroup(group, group.generator_indices[0])
        h2 = cyclic_subgroup(group, group.generator_indices[1])
        order = len(intersect_subgroups(group, h1, h2))
        assert len(h1) % order == 0 and len(h2) % order == 0


class TestCosets:
    def test_whole_group(self):
        sys = z2_system(2)
        for i in (1, 2):
            [point] = branch_fiber(sys, i)
            assert point.coset_rep == 0 and point.stabilizer == frozenset(range(2))
            assert_fibre_is_cosets(sys, i)

    def test_trivial_subgroup(self):
        # the oracle's coset of the trivial subgroup is the element itself
        group = s3_system().group
        assert [coset_of(group, frozenset({0}), g) for g in range(group.order)] == list(range(group.order))

    def test_lagrange(self):
        sys = s3_system()
        fibre = branch_fiber(sys, 1)
        assert len(fibre) == 3
        assert len(fibre) * sys.signature[0] == sys.group.order
        # the oracle's coset action lands on the fibre's representatives
        reps = {point.coset_rep for point in fibre}
        assert {coset_of(sys.group, cyclic_subgroup(sys.group, sys.generators[0]), g)
                for g in range(sys.group.order)} == reps

    def test_lagrange_psl(self):
        sys = psl27_system()
        for i, m in enumerate(sys.signature, 1):
            assert len(branch_fiber(sys, i)) * m == sys.group.order == 168


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
    """Closure multiplies on the left in C, g * p being one translate of p
    by the table of g; the oracle composes ``tuple(g[x] for x in p)`` in
    Python and fixes the discovery order that element indices rest on.  No
    output depends on that order: the locus lists its points by cell and type."""

    @pytest.mark.parametrize(
        "gens",
        [*(fixture_generators(f"{name}.pq") for name in ("a5_255_335", "a6_245_334", "a7_247_357")),
         PSL27_GENS, PSL27_GENS[::-1], [SWAP, SWAP]],
        ids=["A5", "A6", "A7", "PSL(2,7)", "PSL(2,7)-reversed", "repeated"],
    )
    def test_discovery_order(self, gens):
        assert elements(group_from_generators(gens)) == closure_images([g.images for g in gens])

    @pytest.mark.parametrize(
        "gens", [PSL27_GENS, fixture_generators("a6_245_334.pq")[:2]], ids=["PSL(2,7)", "A6"]
    )
    def test_generator_already_in_the_span_adds_nothing(self, gens):
        g1, g2 = gens
        with_product = group_from_generators([g1, g2, product(g1, g2)])
        assert with_product.images == group_from_generators([g1, g2]).images
        assert elements(with_product)[with_product.generator_indices[2]] == product(g1, g2).images

    @pytest.mark.parametrize("redundant", [False, True], ids=["two-generators", "with-their-product"])
    def test_cap_is_the_largest_order_accepted(self, redundant):
        g1, g2 = PSL27_GENS
        gens = [g1, g2, product(g1, g2)] if redundant else [g1, g2]
        assert group_from_generators(gens, cap=168).order == 168
        with pytest.raises(ValidationError, match="^group order exceeds cap 167$"):
            group_from_generators(gens, cap=167)

    def test_refused_as_soon_as_the_span_passes_the_cap(self):
        with span_compositions() as calls, pytest.raises(ValidationError, match="^group order exceeds cap 10$"):
            group_from_generators(PSL27_GENS, cap=10)
        # <g1>, of order 3, takes 3 products and the coset g2 <g1> 3 more; then
        # 2 per element taken, from the coset on, until the 11th is found: 4
        # elements here (the whole group takes 3 + 3 + 2 * 165)
        assert calls[0] == 14

    @pytest.mark.parametrize("degree", [0, 1])
    def test_below_degree_two_the_group_is_trivial(self, degree):
        identity = Permutation(tuple(range(degree)))
        group = group_from_generators([identity, identity])
        assert elements(group) == [(*range(degree),)]
        assert group.mul(0, 0) == 0 and elements(group)[group.mul(0, 0)] == identity.images


# Span compositions of the closure over every named generator, of the
# generation check of each system and of the class closures of the locus.
# They are deterministic, so a span that closes over more generators than it
# needs fails here instead of hiding in timing noise.
# realize closes the group once, over system1 without its last element, so
# system1's generation check takes no span (it was 277 on A6, 1974 on A7).
# A conjugation c y c^-1 is two translates, so the classes count 2 per
# conjugation: 136 conjugations on A6, 722 on A7.
SPAN_COMPOSITIONS = {
    "a6_245_334.pq": {"closure": 720, "generation": [0, 253], "classes": 544},
    "a7_247_357.pq": {"closure": 5040, "generation": [0, 1674], "classes": 1444},
}


@pytest.mark.parametrize("name", sorted(SPAN_COMPOSITIONS))
def test_span_compositions_are_pinned(monkeypatch, name):
    # FiniteGroup.mul translates in its own frame, not a span's, so below only
    # the spans' own products are counted: those of realize, split into each
    # system's generation check and the closure, then those of the locus
    desc = parse_input(fixture_path(name).read_text())
    generation = []
    check = covers.validate_system

    def counted_check(sys):
        before = calls[0]
        check(sys)
        generation.append(calls[0] - before)

    monkeypatch.setattr(covers, "validate_system", counted_check)
    with span_compositions() as calls:
        _, sys1, sys2 = realize(desc)
    counts = {"closure": calls[0] - sum(generation), "generation": generation}
    with span_compositions() as calls:
        enumerate_singularities(sys1, sys2)
    counts["classes"] = calls[0]
    assert counts == SPAN_COMPOSITIONS[name]


@pytest.mark.parametrize("name", ["a5_255_335.pq", "a6_245_334.pq", "a7_247_357.pq", "beauville_55.pq"])
def test_realize_closes_the_group_over_system1(name):
    # the element order is the discovery order over system1[:-1], whatever
    # the [group] lines name
    group, sys1, _ = realize(parse_input(fixture_path(name).read_text()))
    assert elements(group) == closure_images([group.images[g] for g in sys1.generators[:-1]])
    assert group.generator_indices == sys1.generators[:-1]


def test_s8_closure_composition_count_is_pinned():
    # (0 1) spans {e, (0 1)} in 2 products; then the coset by the 8-cycle
    # takes 2 and each of the 40318 elements it adds is composed with both
    # generators: 2 products per element of S8
    gens = [Permutation.from_cycles("(0 1)", 8), Permutation.from_cycles("(0 1 2 3 4 5 6 7)", 8)]
    with span_compositions() as calls:
        group = group_from_generators(gens, cap=40320)
    assert group.order == 40320 and len(set(group.images)) == 40320
    assert calls[0] == 80640


@st.composite
def symmetric_systems(draw):
    """S_n (n <= 6) and a tuple of its non-identity elements with product 1 and
    any span: the long relation holds, generation may not."""
    group = symmetric_group(draw(st.integers(2, 6)))
    elements = [draw(st.integers(1, group.order - 1)) for _ in range(draw(st.integers(1, 3)))]
    acc = group.identity
    for g in elements:
        acc = group.mul(acc, g)
    assume(acc != group.identity)
    return group, (*elements, power(group, acc, -1))


class TestGenerationCheck:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(symmetric_systems())
    def test_early_stop_verdict_matches_full_closure(self, system):
        group, generators = system
        if len(closure_images([elements(group)[g] for g in generators])) == group.order:
            SphericalSystem(group, generators)
        else:
            with pytest.raises(ValidationError, match=NOT_GENERATING):
                SphericalSystem(group, generators)

    def test_generating_system_stops_past_half_the_group(self, monkeypatch):
        group = symmetric_group(6)
        x, y = group.generator_indices
        z = power(group, group.mul(x, y), -1)
        products = count_mul(monkeypatch)
        with span_compositions() as calls:
            SphericalSystem(group, (x, y, z))
        # at most 3 products for the long relation, then the span of x and
        # y, without the redundant last element: 2 per element taken while at
        # most |G|/2 are found; a full closure over the system would take 3
        # per element of the group
        assert products[0] + calls[0] <= 3 + 2 * (group.order // 2 + 1)

    def test_proper_subgroup_is_closed_in_full(self):
        # (0 1 2) and its inverse span A_3 inside S_6: order 3, not 720
        group = symmetric_group(6)
        c = index_of(group, Permutation.from_cycles("(0 1 2)", 6))
        with pytest.raises(ValidationError, match=NOT_GENERATING):
            SphericalSystem(group, (c, power(group, c, -1)))


def test_a_used_group_is_freed_by_reference_counting():
    """The cached powers hold no reference back to their group, so a group
    whose products, inverses and powers have been used leaves no cycle
    behind."""
    gc.disable()
    try:
        group = group_from_generators(PSL27_GENS)
        for g in range(group.order):
            group.powers(group.conjugate(g, power(group, g, -1)))
        ref = weakref.ref(group)
        del group
        assert ref() is None
    finally:
        gc.enable()
