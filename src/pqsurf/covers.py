"""Branched G-covers of P^1 encoded by spherical systems of generators.

A spherical system is an ordered tuple of non-identity group elements whose
product is the identity and which generates the group; it encodes a G-cover
C -> P^1 branched over one point per element, and its signature is the tuple
of element orders m_i.  ``SphericalSystem`` is the one type of a system: it
checks itself when it is built, so every system a function receives is
valid, and it reads its signature off its elements.  Bases of positive genus
are out of scope: with P_g = 0 and chi >= 1 the irregularity is 0, so both
quotients C_i/G of a product-quotient surface are rational.  The points of
the cover over branch point i correspond to the left cosets t<g_i> of the
cyclic group of the i-th element; ``branch_fiber`` walks them over the
group's cached ``powers``, and a point's stabilizer is a frozenset of
element indices.

Rotation convention: the distinguished generator t*g_i*t^-1 of the
stabilizer of the coset-t point acts on the tangent line at that point as
multiplication by exp(2*pi*I/m_i).  Changing this convention swaps every
singularity type (n, a) with its dual (n, a'); the duality tests downstream
would detect the flip.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import ValidationError, checked
from .groups import FiniteGroup, inverse_images, spans_more_than


@checked
class SphericalSystem(NamedTuple):
    """Checked by ``validate_system`` on every build, so no invalid system exists."""

    group: FiniteGroup
    generators: tuple[int, ...]

    def _check(self) -> None:
        validate_system(self)

    @property
    def signature(self) -> tuple[int, ...]:
        """The orders m_i of the elements, from the group's cached powers."""
        return tuple(len(self.group.powers(g)) for g in self.generators)

    @property
    def branch_count(self) -> int:
        return len(self.generators)


class CoverPoint(NamedTuple):
    """A point of the cover lying over branch point ``branch_index``."""

    branch_index: int
    coset_rep: int
    stabilizer: frozenset[int]
    rotation_generator: int


NOT_GENERATING = "invalid spherical system: generators do not generate the whole group"


def check_relation(elements: Sequence, identity, mul) -> None:
    """The checks of ``validate_system`` that need no span, in its order: the
    long relation, no identity element, at least one element.  The elements
    may be indices of a group (with its ``mul``) or image strings (with
    ``groups.product_images``)."""
    acc = identity
    for g in elements:
        acc = mul(acc, g)
    if acc != identity:
        raise ValidationError(
            "invalid spherical system: long relation: product of generators is not the identity"
        )
    if identity in elements:
        raise ValidationError("invalid spherical system: signature entry 1 < 2")
    if not elements:
        raise ValidationError("need at least one generator")


def validate_system(sys: SphericalSystem) -> None:
    """Check the long relation, that no element is the identity, and
    generation, in this order; raise ``ValidationError`` on the first
    failure.  The order matters: once the product of the elements is known to
    be the identity, the last element is the inverse of the product of the
    others, so generation is decided over those others alone.  When they
    contain the group's ``generator_indices`` they generate it, and no span
    is taken: so it is for the first system of a ``.pq`` file, whose span is
    the group (``inputs.realize``).  Otherwise the span is closed on image
    bytes (``groups.spans_more_than``), and only until it holds more than
    |G|/2 elements: by Lagrange a proper subgroup has at most half of them."""
    group = sys.group
    check_relation(sys.generators, group.identity, group.mul)
    others = sys.generators[:-1]
    if not set(group.generator_indices) <= set(others) and not spans_more_than(group, others, group.order // 2):
        raise ValidationError(NOT_GENERATING)


def rh_genus(sys: SphericalSystem) -> int:
    """Genus of the cover by Riemann-Hurwitz over P^1, in integers over the
    common denominator lcm(m_i): 2g - 2 = |G| (-2 + sum_i (1 - 1/m_i))."""
    signature = sys.signature
    common = lcm(*signature)
    numerator = sys.group.order * (sum(common - common // m for m in signature) - 2 * common)
    two_g_minus_2, rest = divmod(numerator, common)
    if rest or two_g_minus_2 % 2 or two_g_minus_2 < -2:
        value = Fraction(numerator, common)
        raise ValidationError(f"branching data gives 2g - 2 = {value}, not an admissible value")
    return two_g_minus_2 // 2 + 1


def require_genus_at_least_two(sys: SphericalSystem) -> int:
    g = rh_genus(sys)
    if g < 2:
        raise ValidationError(f"cover has genus {g} < 2")
    return g


def branch_fiber(sys: SphericalSystem, i: int) -> list[CoverPoint]:
    """Points of the cover over branch point i (1-based), one per left coset
    t<g_i>, in the order of their representatives t, each the least element
    index in its coset.  The stabilizer of the coset-t point is <t g_i t^-1>,
    as a set of element indices."""
    if not 1 <= i <= sys.branch_count:
        raise ValidationError(f"branch index {i} out of range 1..{sys.branch_count}")
    group = sys.group
    g = sys.generators[i - 1]
    base = group.powers(g)
    covered = [False] * group.order
    points = []
    for t in range(group.order):
        if not covered[t]:
            for h in base:
                covered[group.mul(t, h)] = True
            rotation = group.mul(group.mul(t, g), group.index[inverse_images(group.images[t])])  # t g t^-1
            points.append(CoverPoint(i, t, frozenset(group.powers(rotation)), rotation))
    assert len(points) * len(base) == group.order
    return points
