import json
from collections import Counter

import pytest

from pqsurf.cli import main
from pqsurf.errors import EngineInconsistencyError, ValidationError
from pqsurf.hj import SingularityType, dual_type, normalized_key
from pqsurf.singularities import enumerate_singularities, orbit_counts
from tests.conftest import fixture_path
from tests.test_covers import BEAUVILLE_1, BEAUVILLE_2, z2_system, z5sq_triple


class TestTypes:
    @pytest.mark.parametrize("n, a", [(2, 1), (5, 2), (7, 3), (12, 5)])
    def test_valid(self, n, a):
        SingularityType(n, a)

    @pytest.mark.parametrize("n, a", [(1, 1), (4, 2), (5, 0), (5, 5), (6, 3)])
    def test_invalid(self, n, a):
        with pytest.raises(ValidationError):
            SingularityType(n, a)

    @pytest.mark.parametrize(
        "t, expected", [((2, 1), (2, 1)), ((5, 2), (5, 3)), ((7, 3), (7, 5))]
    )
    def test_dual(self, t, expected):
        assert dual_type(SingularityType(*t)) == SingularityType(*expected)

    def test_dual_is_involution(self):
        from math import gcd

        for n in range(2, 40):
            for a in range(1, n):
                if gcd(a, n) != 1:
                    continue
                t = SingularityType(n, a)
                assert dual_type(dual_type(t)) == t

    def test_n_minus_one_is_self_dual(self):
        for n in range(2, 40):
            t = SingularityType(n, n - 1)
            assert dual_type(t) == t  # (n-1)^2 = 1 mod n

    @pytest.mark.parametrize(
        "t, expected", [((2, 1), (2, 1)), ((5, 3), (5, 2)), ((7, 5), (7, 3))]
    )
    def test_normalized_key(self, t, expected):
        assert normalized_key(SingularityType(*t)) == SingularityType(*expected)


class TestEnumeration:
    def test_beauville_locus_is_empty(self):
        group_sys1 = z5sq_triple(BEAUVILLE_1)
        sys2 = group_sys1._replace(generators=z5sq_triple(BEAUVILLE_2).generators)
        locus = enumerate_singularities(group_sys1, sys2)
        assert locus.points == ()
        # the free case: every (i, j) cell is one full orbit of 25 coset pairs
        assert all(count == 1 for count in locus.free_orbit_counts.values())

    def test_hyperelliptic_pair(self):
        sys = z2_system(6)
        locus = enumerate_singularities(sys, sys)
        assert len(locus.points) == 36
        assert locus.type_counts() == Counter({SingularityType(2, 1): 36})
        assert all(p.orbit_size == 1 for p in locus.points)
        assert all(count == 0 for count in locus.free_orbit_counts.values())

    def test_orbit_size_times_n_is_group_order(self, z4_mixed_model):
        model = z4_mixed_model
        for p in model.locus.points:
            assert p.orbit_size * p.type.n == model.group.order

    def test_type_n_divides_branch_orders(self, z4_mixed_model):
        model = z4_mixed_model
        for p in model.locus.points:
            i, j = p.branch_pair
            assert model.sys1.signature[i - 1] % p.type.n == 0
            assert model.sys2.signature[j - 1] % p.type.n == 0

    def test_z4_mixed_types(self, z4_mixed_model):
        counts = z4_mixed_model.locus.type_counts()
        assert counts == Counter(
            {
                SingularityType(2, 1): 16,
                SingularityType(4, 1): 2,
                SingularityType(4, 3): 2,
            }
        )

    def test_swap_dualizes_types(self, z4_mixed_model):
        model = z4_mixed_model
        swapped = enumerate_singularities(model.sys2, model.sys1)
        forward = Counter(p.type for p in model.locus.points)
        backward = Counter(dual_type(p.type) for p in swapped.points)
        assert forward == backward
        assert (
            Counter(normalized_key(p.type) for p in model.locus.points)
            == Counter(normalized_key(p.type) for p in swapped.points)
        )

    def test_different_groups_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_singularities(z2_system(6), z5sq_triple(BEAUVILLE_1))

    def test_json_shape(self, capsys):
        assert main(["singularities", str(fixture_path("z2_hyperelliptic.pq")), "--json"]) == 0
        entry = json.loads(capsys.readouterr().out)["singularities"][0]
        assert set(entry) == {"n", "a", "a_normalized", "branch_pair", "orbit_size"}
        assert entry["n"] == 2 and entry["a"] == 1


class TestOrbitCounts:
    """The inversion from the fixed-pair counts P(n, a) to orbits per exact type."""

    def test_inverts_over_the_divisors(self):
        # |G| = 8: E(4, 3) = 4, E(4, 1) = 2, E(2, 1) = 6 - 4 - 2 = 0, E(1, 0) = 14 - 6 = 8
        fixed = {(1, 0): 14, (2, 1): 6, (4, 1): 2, (4, 3): 4}
        counts = orbit_counts(fixed, 8, (1, 1))
        assert counts == {(1, 0): 1, (2, 1): 0, (4, 1): 1, (4, 3): 2}
        assert list(counts) == sorted(counts)

    def test_one_node(self):
        # Z/2 on two points: the one coset pair is fixed by the involution
        assert orbit_counts({(1, 0): 1, (2, 1): 1}, 2, (1, 1)) == {(1, 0): 0, (2, 1): 1}

    @pytest.mark.parametrize(
        "fixed, message",
        [
            # -20 is a whole multiple of |G| = 20, so only the sign gives it away
            ({(1, 0): 0, (2, 1): 20}, r"cell \(2, 3\): -20 coset pairs of type \(1, 0\)"),
            ({(1, 0): 30, (2, 1): 5}, r"cell \(2, 3\): 5 coset pairs of type \(2, 1\)"),
            ({(1, 0): 30, (2, 1): 10, (5, 2): 5}, r"cell \(2, 3\): 5 coset pairs of type \(5, 2\)"),
        ],
        ids=["negative", "partial-orbit", "partial-top-orbit"],
    )
    def test_negative_or_partial_orbits_raise(self, fixed, message):
        with pytest.raises(EngineInconsistencyError, match=message):
            orbit_counts(fixed, 20, (2, 3))


def test_one_singularity_type_record_per_type(monkeypatch, toy):
    # the counts of a cell may come from an earlier cell with the same
    # elements; either way each type is built once per locus
    made = Counter()
    new = SingularityType.__new__

    def counted(cls, n, a):
        made[n, a] += 1
        return new(cls, n, a)

    monkeypatch.setattr(SingularityType, "__new__", counted)
    _, sys1, sys2 = toy
    locus = enumerate_singularities(sys1, sys2)
    assert len(locus.points) > 1
    assert made == Counter(set(locus.type_counts()))
