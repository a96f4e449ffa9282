"""Exact integer primitives: repunit numbers and the generator sequence.

All arithmetic uses Python's native arbitrary-precision integers, so
results are exact for any parameter size; there is no overflow to guard
against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    InvalidBaseError,
    InvalidLengthError,
    InvalidShiftError,
    NotCoprimeError,
    int_text,
)


def repunit(b: int, length: int) -> int:
    """Base-b integer written with `length` ones: 1 + b + ... + b**(length-1).

    repunit(b, 0) is 0 by convention.
    """
    if b < 2:
        raise InvalidBaseError(b)
    if length < 0:
        raise ValueError(f"repunit length must be >= 0, got {int_text(length)}")
    return (b**length - 1) // (b - 1)


class GrepunitParams(NamedTuple("GrepunitParams", [("a", int), ("b", int), ("n", int)])):
    """Validated parameter triple (a, b, n) of a generalized repunit
    numerical semigroup: the semigroup generated by
    a_i = repunit(b, n) + a * repunit(b, i - 1).

    Instances cannot be constructed unless b >= 2, n >= 2, a >= 1 and
    gcd(repunit(b, n), a) = 1; that gcd condition is exactly what makes
    the generated monoid a numerical semigroup.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, n: int):
        if b < 2:
            raise InvalidBaseError(b)
        if n < 2:
            raise InvalidLengthError(n)
        if a < 1:
            raise InvalidShiftError(a)
        g = math.gcd(repunit(b, n), a)
        if g != 1:
            raise NotCoprimeError(a, b, n, g)
        return super().__new__(cls, a, b, n)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates again

    @property
    def multiplicity(self) -> int:
        """Smallest generator a_1 = repunit(b, n)."""
        return repunit(self.b, self.n)

    def generator(self, i: int) -> int:
        """a_i for any i >= 1; indices beyond n extend by the same formula."""
        if i < 1:
            raise ValueError(f"generator index must be >= 1, got {int_text(i)}")
        return repunit(self.b, self.n) + self.a * repunit(self.b, i - 1)

    def generators(self) -> list[int]:
        """Minimal generating set [a_1, ..., a_n], ascending, in one pass:
        repunit(b, i) is repunit(b, i - 1) * b + 1."""
        m, r, gens = repunit(self.b, self.n), 0, []
        for _ in range(self.n):
            gens.append(m + self.a * r)
            r = r * self.b + 1
        return gens


def validate(a: int, b: int, n: int) -> GrepunitParams:
    """Check (a, b, n) and return the validated triple, or raise a
    parameter error naming the first violated condition."""
    return GrepunitParams(a, b, n)
