"""The oracle's bitset kernels against the algorithms they replaced.

The references below are the earlier kernels, kept here only to compare
against: a byte-per-integer DP sieve, the relaxation Apéry set, the
O(m^2) scan for maximal Apéry elements and a memoised depth-first
length-set search.  They must agree with `oracle` on the acceptance grid
(a 1..60, b 2..5, n 2..5) and on random generating sets, minimal or not.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grepunit import oracle

# The depth-first search grows fast with the Apéry elements; on the grid
# it runs where the multiplicity is at most this (24 (b, n, a) families).
DFS_MAX_MULTIPLICITY = 21

BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def dp_members(gens, bound: int) -> bytearray:
    """bits[x] == 1 iff x in 0..bound is a sum of gens, one integer at a time."""
    bits = bytearray(bound + 1)
    bits[0] = 1
    for x in range(min(gens), bound + 1):
        for g in gens:
            if g > x:
                break
            if bits[x - g]:
                bits[x] = 1
                break
    return bits


def relaxation_apery(gens, q: int) -> list[int]:
    """Least sum of gens per residue class mod q, relaxing every class
    through every generator until nothing improves; ascending."""
    best = [None] * q
    best[0] = 0
    changed = True
    while changed:
        changed = False
        for r in range(q):
            v = best[r]
            if v is None:
                continue
            for g in gens:
                w = v + g
                cur = best[w % q]
                if cur is None or w < cur:
                    best[w % q] = w
                    changed = True
    return sorted(best)


def maximals_scan(apery_values: list[int], members: bytearray, m: int) -> list[int]:
    """w - m for every Apéry element w that no larger one dominates
    (their difference is a member), by comparing every pair."""
    pf = []
    for idx, w in enumerate(apery_values):
        if not any(members[w2 - w] for w2 in apery_values[idx + 1 :]):
            pf.append(w - m)
    return sorted(pf)


def dfs_length_set(gens, x: int) -> frozenset[int]:
    """Factorization lengths of x, depth-first over generator
    multiplicities, largest generator first, memoised."""
    gens = sorted(gens, reverse=True)
    memo: dict[tuple[int, int], frozenset[int]] = {}

    def lengths(rem: int, k: int) -> frozenset[int]:
        if rem == 0:
            return frozenset({0})
        if k == len(gens) or rem < gens[-1]:
            return frozenset()
        if (rem, k) not in memo:
            g = gens[k]
            memo[rem, k] = frozenset(
                u + rest for u in range(rem // g + 1) for rest in lengths(rem - u * g, k + 1)
            )
        return memo[rem, k]

    return lengths(x, 0)


def check_against_references(gens, length_targets) -> None:
    sg = oracle.GenericSemigroup.from_values(gens)
    m = sg.multiplicity
    inv = oracle.basic_invariants(sg)

    members = dp_members(sg.gens, inv.sieve.bound)
    # the DP bytes, largest integer first, read as a binary numeral
    assert inv.sieve.mask == int(members[::-1].translate(BINARY_DIGITS), 2)

    apery = relaxation_apery(sg.gens, m)
    assert inv.apery == apery
    assert oracle.pseudo_frobenius(sg, inv) == maximals_scan(apery, members, m)

    targets = list(length_targets(apery))
    if targets:
        table = oracle.length_table(sg, max(targets))
        for x in targets:
            assert oracle.length_set(sg, x, table=table) == dfs_length_set(sg.gens, x), x


def test_kernels_agree_on_the_acceptance_grid(grid):
    for params in grid:
        small = params.multiplicity <= DFS_MAX_MULTIPLICITY
        check_against_references(params.generators(), lambda apery: apery if small else ())


@st.composite
def generating_sets(draw):
    """1 to 5 values up to 70 with gcd 1; redundant values are kept."""
    values = draw(st.lists(st.integers(1, 70), min_size=1, max_size=5))
    if math.gcd(*values) != 1:
        values.append(draw(st.sampled_from([v for v in range(1, 71) if math.gcd(v, *values) == 1])))
    return values


@settings(max_examples=100, deadline=None)
@given(generating_sets(), st.integers(1, 3), st.data())
def test_kernels_agree_on_random_generating_sets(values, multiple, data):
    check_against_references(values, lambda apery: range(min(max(apery), 150) + 1))

    sg = oracle.GenericSemigroup.from_values(values)
    q = multiple * data.draw(st.sampled_from(sg.gens))  # a modulus that shares factors with some generators
    assert oracle.apery_set(sg, q) == relaxation_apery(sg.gens, q)

    vals = sorted(set(values))
    redundant = [v for i, v in enumerate(vals) if i and dp_members(vals[:i], v)[v]]
    assert oracle.minimal_generators(values) == [v for v in vals if v not in redundant]


@pytest.mark.parametrize("gens", [(1,), (2, 3), (6, 9, 20), (7, 8, 10, 15), (5, 7, 9, 11, 13)])
def test_kernels_agree_on_textbook_semigroups(gens):
    check_against_references(gens, lambda apery: range(max(apery) + 1))
