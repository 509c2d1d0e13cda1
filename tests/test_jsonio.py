import json

from fractions import Fraction

from helpers import classify_stratum

from gradeddiv import jsonio
from gradeddiv.abelian import FinAbGroup
from gradeddiv.exactfield import CyclotomicField, FiniteField, RationalField, RealField
from gradeddiv.gradedalg import is_graded_division, verify_associative
from gradeddiv.gradedfield import frobenius_grading


def roundtrip(A):
    desc = jsonio.algebra_to_json(A)
    text = jsonio.dumps_canonical(desc)
    back = jsonio.algebra_from_json(json.loads(text))
    assert back.field == A.field
    assert back.group == A.group
    assert back.degrees == A.degrees
    assert back.table == A.table
    assert back.unit == A.unit
    return back


def test_roundtrip_every_classification_family():
    seen = set()
    for r in classify_stratum(FinAbGroup((2,)), verify=False):
        back = roundtrip(r.algebra)
        assert verify_associative(back)[0]
        assert is_graded_division(back)[0]
        seen.add(r.label.item)
    assert seen == {"1", "2", "3a", "4"}


def test_roundtrip_finite_field_algebra():
    A, _ = frobenius_grading(7, 1, 3)
    roundtrip(A)


def test_field_descriptors():
    for field in (RationalField(), RealField(), FiniteField(3, 2), CyclotomicField(8)):
        back = jsonio.field_from_json(field.descriptor())
        assert back == field


def test_canonical_dump_is_sorted_and_stable():
    A, _ = frobenius_grading(7, 1, 3)
    desc = jsonio.algebra_to_json(A)
    a = jsonio.dumps_canonical(desc)
    b = jsonio.dumps_canonical(jsonio.algebra_to_json(A))
    assert a == b
    entries = desc["constants"]
    assert entries == sorted(entries, key=lambda e: (e["i"], e["j"], e["k"]))
