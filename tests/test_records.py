"""Value semantics of the eleven record types.

Each record compares equal to a record of its own type with equal fields
and to nothing else, repr-s as ``Name(field=value, ...)`` with its fields in
constructor order, and, except for the mutable ``CyInvariants``, refuses
assignment and hashes as the tuple of its fields.
"""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from cybundle.chow import BundleSpec, IntersectionNumbers
from cybundle.cohomology import SplitBundle
from cybundle.discriminant import (
    Octic,
    QuadraticSection,
    WitnessRecord,
    build_discriminant,
    sample_section,
    singularity_witness,
    witness_section,
)
from cybundle.invariants import CyInvariants, invariants_for
from cybundle.kahler import (
    ContractionKind,
    ContractionReport,
    CubicForm,
    KahlerReport,
    Rationality,
    RationalityReport,
    boundary_rays,
)

P3_SPEC = BundleSpec.from_split(3, (0, 2))


def _section():
    return sample_section(BundleSpec.from_split(3, (0, 1)), 1, 2)


def _named(record, names):
    """The constructor arguments of ``record``, in the order ``names`` gives."""
    return {name: getattr(record, name) for name in names}


# each type, with a factory of keyword arguments in constructor order
CASES = [
    (BundleSpec, lambda: dict(base_dim=3, rank=2, c1=2, c2=0, split_degrees=(0, 2))),
    (IntersectionNumbers, lambda: dict(xi1_h3=1, xi2_h2=2, xi3_h1=4, xi4=8)),
    (SplitBundle, lambda: dict(base_dim=3, degrees=(-1, 0, 2))),
    (QuadraticSection, lambda: _named(_section(), ("spec", "s00", "s01", "s11"))),
    (Octic, lambda: dict(poly=build_discriminant(_section()).poly)),
    (WitnessRecord, lambda: _named(
        singularity_witness(witness_section(_section()), (1, 0, 0, 0)),
        ("point", "s00", "s01", "s11", "delta", "gradient", "on_base_locus",
         "singular_point_verified", "note"))),
    (CyInvariants, lambda: _named(
        invariants_for(P3_SPEC),
        ("base_dim", "c1", "c2", "gamma", "c3_X", "h_dot_c2", "xi_dot_c2", "mk_dot_c2",
         "h3", "xi_h2", "xi2_h", "xi3", "fiber_count", "picard_number",
         "picard_hypothesis_note", "mk_cubed", "mk_sq_h"))),
    (CubicForm, lambda: dict(
        w30=Fraction(5, 2), w21=Fraction(3), w12=Fraction(0), w03=Fraction(-1, 4))),
    (RationalityReport, lambda: dict(
        verdict=Rationality.RATIONAL_DOUBLE_LINE, double_roots=((1, 2),))),
    (KahlerReport, lambda: _named(
        boundary_rays(P3_SPEC, invariants_for(P3_SPEC)),
        ("rays", "cubic", "analysis", "c2_values", "degeneracy_det", "basis_det"))),
    (ContractionReport, lambda: dict(
        c1=1, rk_trivial=3, kind=ContractionKind.SIXTEEN_CURVES, count=16,
        k_y_squared=-7, quartic_degree=None, image="quintic")),
]
FROZEN = [case for case in CASES if case[0] is not CyInvariants]


def ids(case):
    return case[0].__name__


def _with(record, cls, **changes):
    """A ``cls`` instance with the fields of ``record`` and ``changes``,
    built past the constructor's checks."""
    obj = object.__new__(cls)
    for name in record._fields:
        object.__setattr__(obj, name, changes.get(name, getattr(record, name)))
    return obj


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_fields_follow_the_constructor(case):
    cls, kwargs = case[0], case[1]()
    assert cls._fields == tuple(kwargs)
    assert list(inspect.signature(cls).parameters) == list(kwargs)


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_equal_fields_equal_records(case):
    cls, kwargs = case[0], case[1]()
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a is not b
    assert a == b and not a != b
    assert a == a
    if cls is not CyInvariants:
        assert hash(a) == hash(b) == hash(tuple(kwargs.values()))


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_each_changed_field_unequal(case):
    cls, kwargs = case[0], case[1]()
    record = cls(**kwargs)
    for name in kwargs:
        changed = _with(record, cls, **{name: object()})
        assert changed != record and record != changed, name
        if cls is not CyInvariants:
            assert hash(changed) != hash(record), name


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_another_type_is_unequal(case):
    cls, kwargs = case[0], case[1]()
    record = cls(**kwargs)
    twin = _with(record, type(cls.__name__, (cls,), {"__slots__": ()}))
    assert twin != record and record != twin
    assert not twin == record and not record == twin
    assert record != tuple(kwargs.values())
    assert record != None  # noqa: E711


@pytest.mark.parametrize("case", FROZEN, ids=ids)
def test_frozen_refuses_assignment(case):
    cls, kwargs = case[0], case[1]()
    record = cls(**kwargs)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert _named(record, kwargs) == kwargs


def test_cyinvariants_is_mutable_and_unhashable():
    inv = invariants_for(P3_SPEC)
    inv.c3_X = 0
    assert inv.c3_X == 0
    assert inv != invariants_for(P3_SPEC)
    with pytest.raises(TypeError):
        hash(inv)


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_repr_lists_the_fields_in_order(case):
    cls, kwargs = case[0], case[1]()
    inner = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({inner})"


def test_repr_example():
    assert repr(BundleSpec.from_split(1, (0, 0, 1, 2))) == (
        "BundleSpec(base_dim=1, rank=4, c1=3, c2=0, split_degrees=(0, 0, 1, 2))")


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_pickle_and_copy_keep_the_value(case):
    cls, kwargs = case[0], case[1]()
    record = cls(**kwargs)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is cls and twin == record


def test_defaults_kept():
    assert BundleSpec(3, 2, 1) == BundleSpec(3, 2, 1, 0, None)
    report = ContractionReport(3, 1, ContractionKind.DIVISOR_TO_SURFACE)
    assert (report.count, report.k_y_squared, report.quartic_degree, report.image) == (
        None, None, None, None)


def test_validation_kept_in_the_constructors():
    with pytest.raises(ValueError, match="c1 must equal the sum"):
        BundleSpec(3, 2, 1, 0, (0, 2))
    with pytest.raises(ValueError, match="rank must be at least 1"):
        SplitBundle(3, ())
    assert SplitBundle(1, (2, -1)).degrees == (-1, 2)
    assert SplitBundle._trusted(1, (2, -1)).degrees == (2, -1)  # no sort, no checks
    q = _section()
    with pytest.raises(ValueError, match="s00 must be homogeneous"):
        QuadraticSection(q.spec, q.s01, q.s01, q.s11)
    with pytest.raises(ValueError, match="homogeneous of degree 8"):
        Octic(q.s00)


def test_octic_texts_are_not_a_field():
    octic = build_discriminant(_section())
    fresh = Octic(octic.poly)
    octic.to_text()  # fills the lazily built coefficient table
    assert octic == fresh and hash(octic) == hash(fresh)
    assert repr(octic) == repr(fresh)
    assert octic.to_json_coeffs() == fresh.to_json_coeffs()
