"""Apéry table container invariants."""

import pytest

from grepunit.apery import AperyElement, AperyTable


def table_for(modulus, values):
    # the container checks values only; the factorization fields are placeholders
    return AperyTable.build(modulus, [AperyElement(v, coeffs=(), length=0) for v in values])


def test_build_accepts_full_residue_system():
    t = table_for(3, [0, 7, 8])
    assert len(t) == 3
    assert t.values() == [0, 7, 8]
    assert t.total() == 15


def test_values_come_back_sorted():
    t = table_for(4, [9, 0, 18, 27])
    assert t.values() == [0, 9, 18, 27]


def test_build_rejects_duplicate_residue():
    with pytest.raises(AssertionError):
        table_for(3, [0, 7, 10])


def test_build_rejects_wrong_count():
    with pytest.raises(AssertionError):
        table_for(3, [0, 7])


def test_build_rejects_nonzero_class_zero():
    with pytest.raises(AssertionError):
        table_for(3, [3, 7, 8])


def test_element_records_coefficients_and_length():
    e = AperyElement(43, coeffs=(1, 0, 0), length=1)
    assert e.value == 43
    assert e.coeffs == (1, 0, 0)
    assert e.length == 1
