"""Repunits, parameter validation and the generator family."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grepunit.arith import GrepunitParams, repunit, validate
from grepunit.errors import (
    InvalidBaseError,
    InvalidLengthError,
    InvalidParametersError,
    InvalidShiftError,
    NotCoprimeError,
)


def test_repunit_values():
    assert repunit(10, 4) == 1111
    assert repunit(2, 5) == 31
    assert repunit(3, 4) == 40
    assert repunit(7, 1) == 1
    assert repunit(4, 0) == 0


def test_repunit_is_ones_in_base_b():
    assert repunit(5, 3) == int("111", 5)
    assert repunit(8, 6) == int("111111", 8)


@given(st.integers(2, 50), st.integers(0, 40))
def test_repunit_recurrence(b, length):
    assert repunit(b, length + 1) == b * repunit(b, length) + 1


def test_repunit_rejects_bad_args():
    with pytest.raises(InvalidBaseError):
        repunit(1, 3)
    with pytest.raises(ValueError):
        repunit(3, -1)


def test_generators_golden():
    p = validate(3, 3, 4)
    assert p.generators() == [40, 43, 52, 79]
    assert p.multiplicity == 40


def test_first_generator_is_the_repunit():
    for a, b, n in ((1, 2, 2), (8, 4, 3), (12, 5, 5)):
        p = validate(a, b, n)
        assert p.generator(1) == repunit(b, n)
    with pytest.raises(ValueError, match="^generator index must be >= 1, got 0$"):
        p.generator(0)


def test_generators_ascending_and_coprime(grid):
    for p in grid:
        gens = p.generators()
        assert gens == sorted(gens)
        assert len(set(gens)) == p.n
        assert math.gcd(*gens) == 1


@given(st.integers(1, 10**6), st.integers(2, 40), st.integers(2, 30))
def test_generators_agree_with_each_generator(a, b, n):
    try:
        p = validate(a, b, n)
    except InvalidParametersError:
        return
    assert p.generators() == [p.generator(i) for i in range(1, n + 1)]


def test_generator_gaps(grid):
    # consecutive generators differ by a * b**(i-2)
    for p in grid:
        gens = p.generators()
        for i in range(2, p.n + 1):
            assert gens[i - 1] - gens[i - 2] == p.a * p.b ** (i - 2)


def test_rejects_base_below_two():
    with pytest.raises(InvalidBaseError):
        validate(5, 1, 4)
    with pytest.raises(InvalidBaseError):
        validate(5, 0, 4)


def test_rejects_length_below_two():
    with pytest.raises(InvalidLengthError):
        validate(5, 2, 1)


def test_rejects_shift_below_one():
    with pytest.raises(InvalidShiftError):
        validate(0, 2, 3)
    with pytest.raises(InvalidShiftError):
        validate(-2, 2, 3)


def test_rejects_non_coprime_shift():
    with pytest.raises(NotCoprimeError) as exc_info:
        validate(5, 2, 4)
    assert exc_info.value.gcd == 5
    assert "5" in str(exc_info.value)


def test_error_kinds_are_distinct_but_all_parameter_errors():
    kinds = (InvalidBaseError, InvalidLengthError, InvalidShiftError, NotCoprimeError)
    for kind in kinds:
        assert issubclass(kind, InvalidParametersError)
        assert issubclass(kind, ValueError)
    for i, kind in enumerate(kinds):
        for other in kinds[i + 1 :]:
            assert not issubclass(kind, other)
            assert not issubclass(other, kind)


def test_params_are_immutable():
    p = validate(1, 2, 3)
    with pytest.raises(Exception):
        p.a = 2


def test_replace_validates_again():
    assert validate(1, 2, 3)._replace(n=4) == validate(1, 2, 4)
    with pytest.raises(NotCoprimeError):
        validate(1, 2, 3)._replace(a=7)


def test_relation_holds_everywhere(grid):
    # b*a_i + a_{i+j} == b*a_{i+j-1} + a_{i+1}, past index n too
    for p in grid:
        gen = p.generator
        for i in range(1, 7):
            for j in range(1, 7):
                assert p.b * gen(i) + gen(i + j) == p.b * gen(i + j - 1) + gen(i + 1), (p, i, j)


def test_extension_holds_everywhere(grid):
    # a_{n+i} == a_i + a * b**(i-1) * a_1: the generators beyond a_n are redundant
    for p in grid:
        for i in range(1, 5):
            assert p.generator(p.n + i) == p.generator(i) + p.a * p.b ** (i - 1) * p.multiplicity, (p, i)


@given(st.integers(1, 100), st.integers(2, 9), st.integers(2, 6))
def test_extended_generators_are_redundant(a, b, n):
    try:
        p = validate(a, b, n)
    except InvalidParametersError:
        return
    # a_{n+1} = (1 + a) * a_1 is a multiple of the multiplicity
    assert p.generator(n + 1) == (1 + a) * p.generator(1)
