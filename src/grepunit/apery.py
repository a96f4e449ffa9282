"""Apéry tables of the closed-form constructions: least semigroup
element per residue class, each with the coefficient tuple it was built
from and its factorization length.

The brute-force engine in `oracle` does not use this module; its Apéry
sets are plain ascending lists of ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping


@dataclass(frozen=True)
class AperyElement:
    """One Apéry set member.

    `coeffs` are the coefficients (u_2, ..., u_n) of its factorization
    over the non-minimal generators and `length` the factorization length
    sum(coeffs).
    """

    value: int
    coeffs: tuple[int, ...]
    length: int


@dataclass(frozen=True)
class AperyTable:
    """Apéry set of a semigroup with respect to `modulus`, keyed by
    residue class mod `modulus`; `elements` is a read-only view."""

    modulus: int
    elements: Mapping[int, AperyElement]

    @classmethod
    def build(cls, modulus: int, elements: Iterable[AperyElement]) -> "AperyTable":
        """Index elements by residue, insisting on one per class.

        A repeated or missing residue means the caller's construction is
        wrong, so this fails loudly rather than keeping the smaller value.
        """
        by_residue: dict[int, AperyElement] = {}
        for elt in elements:
            r = elt.value % modulus
            if r in by_residue:
                raise AssertionError(
                    f"residue {r} mod {modulus} hit twice: "
                    f"{by_residue[r].value} and {elt.value}"
                )
            by_residue[r] = elt
        if len(by_residue) != modulus:
            raise AssertionError(
                f"expected {modulus} residue classes, got {len(by_residue)}"
            )
        if by_residue[0].value != 0:
            raise AssertionError("0 must represent the zero residue class")
        return cls(modulus, MappingProxyType(by_residue))

    def __len__(self) -> int:
        return len(self.elements)

    def values(self) -> list[int]:
        """Member values, ascending."""
        return sorted(e.value for e in self.elements.values())

    def total(self) -> int:
        return sum(e.value for e in self.elements.values())
