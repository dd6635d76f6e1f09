"""Value semantics of the package's immutable records.

Every record is built positionally and by keyword, compares by value and
only with its own class, hashes like its values, prints in the
`Name(field=value, ...)` form and refuses assignment.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import chebknot
from chebknot.bridge import FamilySpec, TwoBridgeKnot
from chebknot.contfrac import ClassicalCF, Fraction, Mat2, PalindromyReport, PMWord, RegularCF
from chebknot.diagram import ConwayForm, MinimalDiagram
from chebknot.harmonic import HarmonicSpec
from chebknot.heights import GaussSequence, HeightPolynomial, Parametrization
from chebknot.oracle import ChebyshevHeight, CurveSample

FORM = ConwayForm((1, 1, 1), 4)
FLAT = HeightPolynomial((), 1)

# (class, field names, positional arguments, exact repr of the record)
CASES = [
    (Fraction, ("num", "den"), (3, 2), "Fraction(num=3, den=2)"),
    (RegularCF, ("terms",), ((1, 1, -1, -1),), "RegularCF(terms=(1, 1, -1, -1))"),
    (ClassicalCF, ("quotients",), ((2, 3),), "ClassicalCF(quotients=(2, 3))"),
    (Mat2, ("a", "b", "c", "d"), (1, 2, 3, 4), "Mat2(a=1, b=2, c=3, d=4)"),
    (PMWord, ("letters",), ("PMP",), "PMWord(letters='PMP')"),
    (
        PalindromyReport,
        ("g_palindromic", "beta_sq_mod_alpha", "amphicheiral", "two_component"),
        (True, 4, False, False),
        "PalindromyReport(g_palindromic=True, beta_sq_mod_alpha=4, amphicheiral=False, two_component=False)",
    ),
    (TwoBridgeKnot, ("alpha", "beta", "mirror"), (7, 1, False), "TwoBridgeKnot(alpha=7, beta=1, mirror=False)"),
    (FamilySpec, ("kind", "index"), ("torus", 3), "FamilySpec(kind='torus', index=3)"),
    (ConwayForm, ("signs", "b"), ((1, 1, 1), 4), "ConwayForm(signs=(1, 1, 1), b=4)"),
    (
        MinimalDiagram,
        ("form", "b", "mirrored"),
        (FORM, 4, False),
        "MinimalDiagram(form=ConwayForm(signs=(1, 1, 1), b=4), b=4, mirrored=False)",
    ),
    (
        GaussSequence,
        ("signs", "b"),
        ((1, -1), 2),
        "GaussSequence(signs=(1, -1), b=2)",
    ),
    (
        HeightPolynomial,
        ("roots", "leading_sign"),
        ((-0.5, 0.5), -1),
        "HeightPolynomial(roots=(-0.5, 0.5), leading_sign=-1, b=None, gaps=None, _gaps_by_m=None)",
    ),
    (
        Parametrization,
        ("b", "height", "crossing_number", "form", "mirrored"),
        (4, FLAT, 3, FORM, True),
        "Parametrization(b=4, height=HeightPolynomial(roots=(), leading_sign=1, b=None, gaps=None, _gaps_by_m=None), "
        "crossing_number=3, form=ConwayForm(signs=(1, 1, 1), b=4), mirrored=True)",
    ),
    (HarmonicSpec, ("a", "b", "c"), (3, 4, 5), "HarmonicSpec(a=3, b=4, c=5)"),
    (ChebyshevHeight, ("c", "sign"), (7, -1), "ChebyshevHeight(c=7, sign=-1)"),
    (
        CurveSample,
        ("a", "b", "height_label", "crossings"),
        (3, 4, "T_5", ()),
        "CurveSample(a=3, b=4, height_label='T_5', crossings=())",
    ),
]
IDS = [case[0].__name__ for case in CASES]


def build(case):
    cls, _, args, _ = case
    return cls(*args)


def test_every_record_class_has_a_case():
    assert len({case[0] for case in CASES}) == 16


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(case):
    cls, names, args, _ = case
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, name) for name in names) == args


def test_defaults():
    assert Fraction(3) == Fraction(3, 1) and Fraction(3).den == 1
    assert ChebyshevHeight(7) == ChebyshevHeight(7, 1) and ChebyshevHeight(7).sign == 1
    report = PalindromyReport(
        g_palindromic=False, beta_sq_mod_alpha=1, amphicheiral=False, two_component=True
    )
    assert report == PalindromyReport(False, 1, False, True)


def test_construction_normalizes_and_validates():
    assert Fraction(-6, 4) == Fraction(num=3, den=-2)
    assert RegularCF([1, 1]).terms == (1, 1)
    assert HeightPolynomial(roots=[0.5, -0.25], leading_sign=1).roots == (-0.25, 0.5)
    with pytest.raises(chebknot.ChebknotError):
        Fraction(1, 0)
    with pytest.raises(chebknot.ChebknotError):
        HarmonicSpec(a=3, b=6, c=5)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_is_by_value_within_one_class(case):
    cls, names, args, _ = case
    record = build(case)
    twin = cls(*args)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != args and args != record
    assert record != tuple(getattr(record, name) for name in names)
    for other in CASES:
        if other is not case:
            assert record != build(other)


def test_equal_values_hash_alike():
    assert Fraction(3, 2) != (3, 2)
    assert Fraction(6, 4) == Fraction(3, 2) and hash(Fraction(6, 4)) == hash(Fraction(3, 2))
    assert len({Fraction(1, 2), Fraction(2, 4), Fraction(-1, -2)}) == 1
    assert HeightPolynomial((0.5, 0.1), 1) == HeightPolynomial((0.1, 0.5), 1)
    assert Fraction(3, 2) != Fraction(3, -2)
    assert RegularCF((1, 1)) != ClassicalCF((1, 1))  # equal fields, different classes


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_repr_is_the_dataclass_form(case):
    assert repr(build(case)) == case[3]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_records_refuse_assignment(case):
    _, names, args, _ = case
    record = build(case)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in names) == args


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_records_copy_and_pickle(case):
    record = build(case)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is type(record)

