import pytest

from grepunit import oracle
from grepunit.arith import GrepunitParams, validate
from grepunit.errors import InvalidParametersError

GRID_A = range(1, 61)
GRID_B = range(2, 6)
GRID_N = range(2, 6)


# above closed_form.APERY_MASK_MAX_A, so its closed Apéry set is built as
# lists; its smaller triple (10007, 3, 3) is valid too
LISTED = validate(10007, 3, 4)


def grid_triples():
    """Full grid in sweep order, valid or not."""
    for b in GRID_B:
        for n in GRID_N:
            for a in GRID_A:
                yield a, b, n


@pytest.fixture(scope="session")
def grid() -> list[GrepunitParams]:
    """Every valid parameter triple of the standard test grid."""
    points = []
    for a, b, n in grid_triples():
        try:
            points.append(validate(a, b, n))
        except InvalidParametersError:
            continue
    return points


def length_masks(inv) -> list[int]:
    """`oracle.apery_levels` as length masks indexed by residue: bit k of
    entry r is set iff the Apéry element congruent to r mod m is a sum of
    exactly k generators."""
    m = inv.semigroup.multiplicity
    masks = [0] * m
    for k, level in enumerate(oracle.apery_levels(inv)):
        for w in oracle._set_bits(level):
            masks[w % m] |= 1 << k
    return masks


def apery_sum_coefficients(b: int, n: int) -> list[int]:
    """The paper's coefficients c_j = (b**n + b**(n-j+1)) / 2, j = 2..n, with
    sum(Ap(S, a_1)) = c_2*a_2 + ... + c_n*a_n: the reference that
    `closed_form.apery_sum`, one Horner pass, is tested against."""
    numerators = [b**n + b ** (n - j + 1) for j in range(2, n + 1)]
    assert not any(x % 2 for x in numerators)
    return [x // 2 for x in numerators]
