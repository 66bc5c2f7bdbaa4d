"""The record types keep the contract they had as frozen dataclasses.

Every record is immutable, equal fields give equal records with equal
hashes, keywords and defaults of the constructor still work, records that
check themselves raise the same errors with the same messages (also when
built by the tuple's ``_make`` or ``_replace``, by ``copy`` or by
unpickling), and the ordering of
``SingularityType`` and ``BasisCurve`` is unchanged.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from pqsurf.bounds import CurveReport, LemmaCCReport, TangentCaseData
from pqsurf.covers import CoverPoint, SphericalSystem, validate_system
from pqsurf.differentials import BignessCertificate, PuiseuxDifferential, SourceSection
from pqsurf.errors import ValidationError
from pqsurf.groups import Permutation, group_from_generators
from pqsurf.hj import SingularityType
from pqsurf.inputs import FormulaRow, InputDescription, SystemSpec, TableRowSummary
from pqsurf.singularities import SingularLocus, SingularPoint
from pqsurf.surface import BasisCurve, StringData

Z2 = group_from_generators([Permutation((1, 0))])

RECORDS = {
    "SingularityType": lambda: SingularityType(5, 2),
    "SourceSection": lambda: SourceSection(2, ((2, 0, F(1)), (0, 2, F(-1)))),
    "PuiseuxDifferential": lambda: PuiseuxDifferential(1, ((F(1, 2), 0, 1, 1, F(1)),)),
    "BignessCertificate": lambda: BignessCertificate(4, F(1)),
    "Permutation": lambda: Permutation((1, 0, 2)),
    "SphericalSystem": lambda: SphericalSystem(Z2, (1, 1)),
    "CoverPoint": lambda: CoverPoint(1, 0, frozenset({0, 1}), 1),
    "BasisCurve": lambda: BasisCurve("Z", 3, 2),
    "StringData": lambda: StringData((2,), (1,), (1,)),
    "SingularPoint": lambda: SingularPoint((1, 2), SingularityType(2, 1), 1),
    "SingularLocus": lambda: SingularLocus((), {(1, 1): 2}),
    "TangentCaseData": lambda: TangentCaseData(F(2), F(2), F(-2), F(0)),
    "CurveReport": lambda: CurveReport(BasisCurve("F1"), 1, F(0), 0, True, 0),
    "LemmaCCReport": lambda: LemmaCCReport((("N1", 2),), True, ()),
    "SystemSpec": lambda: SystemSpec(("a", "b")),
    "InputDescription": lambda: InputDescription(2, (("t", "(0 1)"),), SystemSpec(("t", "t")), SystemSpec(("t", "t"))),
    "TableRowSummary": lambda: TableRowSummary("r", 25, 6, 6, (), 16, 8, 2, 0, 1),
    "FormulaRow": lambda: FormulaRow("r", 25, 6, 6, ((5, 2, 2),)),
}


# One record of each checked type, built past its check (``tuple.__new__``)
# as the source of a copy, with the message its check gives.
INVALID = {
    "SingularityType": (lambda: tuple.__new__(SingularityType, (5, 5)), "not a valid singularity type 1/5(1,5)"),
    "SourceSection": (lambda: tuple.__new__(SourceSection, (0, ())), "tensor power m must be >= 1"),
    "PuiseuxDifferential": (lambda: tuple.__new__(PuiseuxDifferential, (1, ((F(1, 3), 0, 1, 1, F(1)),))),
                            "mu1 exponents must be half-integers"),
    "Permutation": (lambda: tuple.__new__(Permutation, ((0, 0),)), "not a bijection of 0..1: (0, 0)"),
    "SphericalSystem": (lambda: tuple.__new__(SphericalSystem, (Z2, (1, 0))),
                        "invalid spherical system: long relation: product of generators is not the identity"),
}
COPIES = {
    "_make": lambda record: type(record)._make(record),
    "copy": copy.copy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


def fields(record) -> dict:
    return {"images": record.images} if isinstance(record, Permutation) else record._asdict()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment_raises_attribute_error(name):
    record = RECORDS[name]()
    field = next(iter(fields(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert fields(record) == fields(RECORDS[name]())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b and a == b and type(a).__name__ == name
    if name != "SingularLocus":  # it holds a dict, so it was never hashable
        assert hash(a) == hash(b)
    # the constructor takes every field by keyword
    assert type(a)(**fields(a)) == a


def test_defaults():
    assert BasisCurve("F1") == BasisCurve(kind="F1", index=0, pos=0)
    assert SystemSpec(("a",)).signature is None
    assert InputDescription(2, (), SystemSpec(()), SystemSpec(())).in_scope_c1sq6 is False
    assert FormulaRow("r", 2, 2, 2, ()).ksq is None
    assert CurveReport(BasisCurve("F1"), 1, F(0), 0, True, 0).tangent_case is None


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SingularityType(4, 2), "not a valid singularity type 1/4(1,2)"),
        (lambda: SingularityType(n=1, a=1), "not a valid singularity type 1/1(1,1)"),
        (lambda: SourceSection(0, ()), "tensor power m must be >= 1"),
        (lambda: SourceSection(1, ((-1, 0, F(1)),)), "source exponents must be non-negative"),
        (lambda: PuiseuxDifferential(1, ((F(0), 0, 1, 0, F(1)),)), "every term must have total differential degree 2m"),
        (lambda: PuiseuxDifferential(1, ((F(1, 3), 0, 1, 1, F(1)),)), "mu1 exponents must be half-integers"),
        (lambda: Permutation((0, 0)), "not a bijection of 0..1: (0, 0)"),
        (lambda: SphericalSystem(Z2, (1,)),
         "invalid spherical system: long relation: product of generators is not the identity"),
    ],
)
def test_validation_errors_keep_their_messages(make, message):
    with pytest.raises(ValidationError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SingularityType(5, 2)._replace(a=5), "not a valid singularity type 1/5(1,5)"),
        (lambda: SourceSection(1, ())._replace(m=0), "tensor power m must be >= 1"),
        (lambda: PuiseuxDifferential(1, ())._replace(terms=((F(1, 3), 0, 1, 1, F(1)),)),
         "mu1 exponents must be half-integers"),
        (lambda: SphericalSystem(Z2, (1, 1))._replace(generators=(1, 0)),
         "invalid spherical system: long relation: product of generators is not the identity"),
        pytest.param(lambda: Permutation((1, 0))._replace(images=(0, 0)), "not a bijection of 0..1: (0, 0)",
                     id="Permutation-_replace"),
        *(pytest.param(lambda forge=forge, copied=copied: copied(forge()), message, id=f"{name}-{path}")
          for name, (forge, message) in sorted(INVALID.items()) for path, copied in COPIES.items()),
    ],
)
def test_replace_and_make_check_too(make, message):
    with pytest.raises(ValidationError) as info:
        make()
    assert str(info.value) == message


def test_repr_is_unchanged():
    assert repr(SingularityType(5, 2)) == "SingularityType(n=5, a=2)"
    assert repr(Permutation((1, 0))) == "Permutation(images=(1, 0))"
    assert repr(BasisCurve("N", 1)) == "BasisCurve(kind='N', index=1, pos=0)"
    assert repr(SphericalSystem(Z2, (1, 1))).startswith("SphericalSystem(group=")


def test_ordering_is_unchanged():
    types = [SingularityType(5, 3), SingularityType(7, 2), SingularityType(5, 2), SingularityType(3, 1)]
    assert sorted(types) == [SingularityType(3, 1), SingularityType(5, 2), SingularityType(5, 3), SingularityType(7, 2)]
    curves = [BasisCurve("Z", 0, 2), BasisCurve("N", 2), BasisCurve("F2"), BasisCurve("Z", 0, 1), BasisCurve("F1"),
              BasisCurve("M", 1), BasisCurve("N", 1)]
    assert [c.label for c in sorted(curves)] == ["F1", "F2", "M1", "N1", "N2", "Z0.1", "Z0.2"]


def test_a_valid_system_is_a_spherical_system():
    # the one system type validates itself; a copy of its fields is equal
    system = SphericalSystem(Z2, (1, 1))
    assert validate_system(system) is None and system.signature == (2, 2)
    assert SphericalSystem._make(system) == system == system._replace(generators=(1, 1))
