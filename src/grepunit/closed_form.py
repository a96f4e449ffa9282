"""Closed formulas and structural constructions for generalized repunit
numerical semigroups.

Every function here evaluates a formula or an explicit construction in
O(n)-ish exact integer arithmetic, except the O(n^3) maximal minors and
the Apéry enumerations, whose values, grouped by factorization length as
lists or as masks, number the multiplicity.  The brute-force engine in
`oracle` recomputes the same invariants from definitions; `verify` pits the
two against each other.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable, Iterator, NamedTuple

from .arith import GrepunitParams, repunit, validate
from .errors import (
    CapacityError,
    InvalidBaseError,
    InvalidParametersError,
    RouteDisagreementError,
    UnsupportedDimensionError,
    int_text,
)

DEFAULT_APERY_CAP = 10**6
AperySet = tuple[tuple[int, ...], ...]  # group k: the values of the coefficient tuples of sum k


def check_cap(m: int, cap: int | None) -> None:
    """Refuse an Apéry enumeration of m coefficient tuples over the cap."""
    if cap is not None and m > cap:
        raise CapacityError(f"{int_text(m)} coefficient tuples exceed cap {int_text(cap)}")


def coefficient_tuples(b: int, i: int, cap: int | None = DEFAULT_APERY_CAP) -> list[tuple[int, ...]]:
    """All tuples (u_2, ..., u_i) with 0 <= u_j <= b where an entry equal
    to b forces every entry to its left to be 0; lexicographic order.

    These tuples index the Apéry set of the semigroup with parameters
    (a, b, i): there are exactly repunit(b, i) of them, one per residue
    class of the multiplicity.
    """
    if b < 2:
        raise InvalidBaseError(b)
    if i < 2:
        raise ValueError(f"need i >= 2, got {int_text(i)}")
    count = repunit(b, i)
    check_cap(count, cap)

    out: list[tuple[int, ...]] = [()]
    for length in range(i - 1):  # prepend an entry: 0 to any tuple, 1..b to one with no entry b
        free = list(product(range(b), repeat=length))  # those with no entry b
        out = [(0, *t) for t in out] + [(u, *t) for u in range(1, b + 1) for t in free]
    if len(out) != count:
        raise RouteDisagreementError(f"{len(out)} coefficient tuples, expected repunit = {count}")
    return out


def _extend(groups: list[list[int]], g: int, b: int) -> list[list[int]]:
    """Append a coefficient u of the generator g to every coefficient
    tuple: group k also goes to group k + u shifted by u*g, for u = 1..b-1,
    and the all-zero tuple also takes u = b, so b*g joins group b."""
    out = [[] for _ in range(max(len(groups) + b - 1, b + 1))]
    for k, group in enumerate(groups):
        out[k] += group
        for u in range(1, b):
            step = u * g
            out[k + u] += [v + step for v in group]
    out[b].append(b * g)
    return out


def _residue_system(m: int, groups: list[list[int]]) -> AperySet:
    """The groups as tuples, once they are found to hold m integers, one
    per residue class mod m, with group 0 equal to [0]: a construction
    that repeats or misses a class is wrong, and fails loudly."""
    hit, size = bytearray(m), 0
    for group in groups:
        size += len(group)
        for v in group:
            hit[v % m] = 1
    if size != m or groups[0] != [0] or hit.count(0):
        raise RouteDisagreementError(f"{size} values, not a residue system mod {m} with 0")
    return tuple(map(tuple, groups))


def apery_set(params: GrepunitParams, cap: int | None = DEFAULT_APERY_CAP) -> AperySet:
    """Apéry set with respect to the multiplicity a_1, built directly one
    generator a_j at a time and grouped by factorization length: group k
    holds the values sum(u_j * a_j) of the coefficient tuples with
    sum(u_j) = k."""
    check_cap(params.multiplicity, cap)
    groups = [[0]]
    for g in params.generators()[1:]:
        groups = _extend(groups, g, params.b)
    return _residue_system(params.multiplicity, groups)


class AperyLevels(NamedTuple):
    """The closed Apéry set of a_1 by factorization length.  As masks, level
    k holds bit v - k*step for each value v of length k, and `union` is the
    set's mask; as lists, the groups of `apery_set`, with step 0 and no union."""

    step: int
    levels: tuple
    union: int | None

    def masks(self) -> Iterator[int]:
        """Level k's mask, bit v for each value v of length k, one at a time."""
        if self.union is None:
            return (_mask_of(group, max(group, default=0)) for group in self.levels)
        return (level << k * self.step for k, level in enumerate(self.levels))

    def union_mask(self) -> int:
        if self.union is None:
            return _mask_of(chain.from_iterable(self.levels), max(chain.from_iterable(self.levels)))
        return self.union

    def values(self, read_bits: Callable[[int], list[int]]) -> list[int]:
        """The values ascending: the groups' sorted, or the union's set bits by read_bits."""
        return sorted(chain.from_iterable(self.levels)) if self.union is None else read_bits(self.union)


def _mask_of(values, top: int) -> int:
    """Bitmask with bit v set for each of the values, all in 0..top."""
    packed = bytearray((top >> 3) + 1)
    for v in values:
        packed[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(packed, "little")


def _extend_masks(levels: list[int], step: int, gens: list[int], b: int) -> list[int]:
    """`_extend` on masks, level k held less k*step, for each generator g:
    level k also goes to level k + u shifted by u*(g - step), u = 1..b-1,
    and b*g joins level b."""
    for g in gens:
        d, out = g - step, [0] * max(len(levels) + b - 1, b + 1)
        for k, level in enumerate(levels):
            for u in range(b):
                out[k + u] |= level << u * d
        out[b] |= 1 << b * d
        levels = out
    return levels


def _residue_levels(m: int, step: int, levels: list[int]) -> AperyLevels:
    """`_residue_system` on masks: the popcounts sum to m, and the OR of the
    union's m-bit chunks, folded in halves, is all ones (so the union holds
    m values in m classes), and level 0 is {0}."""
    union = count = 0
    for k, level in enumerate(levels):
        union |= level << k * step
        count += level.bit_count()
    fold, full = union, (1 << m) - 1
    while fold > full:  # the top half of the chunks onto the bottom half
        half = (fold.bit_length() // m + 1) // 2 * m
        fold = fold >> half | fold & (1 << half) - 1
    if count != m or fold != full or levels[0] != 1:
        raise RouteDisagreementError(f"{count} values, not a residue system mod {m} with 0")
    return AperyLevels(step, tuple(levels), union)


# The largest a at which the closed Apéry set is built as masks, not lists;
# measured as SIEVE_WINDOW_MIN was, on the three Apéry rows (README table).
APERY_MASK_MAX_A = 48


def apery_levels(params: GrepunitParams, cap: int | None = DEFAULT_APERY_CAP) -> AperyLevels:
    """`apery_set` as the rows compare it: up to a = APERY_MASK_MAX_A, the
    construction on masks, level k held less k*a_2, where the shifts
    u*(a_j - a_2) do not depend on m; above it, the lists."""
    check_cap(params.multiplicity, cap)
    if params.a > APERY_MASK_MAX_A:
        return AperyLevels(0, apery_set(params, cap=None), None)
    gens = params.generators()
    return _residue_levels(params.multiplicity, gens[1], _extend_masks([1], gens[1], gens[1:], params.b))


def frobenius(params: GrepunitParams) -> int:
    """Frobenius number, by formula.

    The branch point b**n - 1 itself cannot occur: a = (b-1)*a_1 would
    share the factor a_1 with the multiplicity.
    """
    a, n = params.a, params.n
    top = params.b**params.n - 1
    if a == top:
        raise RouteDisagreementError("a = b**n - 1 contradicts the coprimality invariant")
    if a < top:
        return (n - 1) * (top - a) + a * params.multiplicity
    return top - a + a * params.multiplicity


def genus(params: GrepunitParams) -> int:
    """Number of gaps: ((n-1)*b**n + (a_1 - 1)*a) / 2, exactly."""
    numerator = (params.n - 1) * params.b**params.n + (params.multiplicity - 1) * params.a
    if numerator % 2:
        raise RouteDisagreementError("odd genus numerator indicates an arithmetic bug")
    return numerator // 2


def apery_sum(params: GrepunitParams) -> int:
    """Sum of the Apéry set, without enumerating it: sum(c_j * a_j), with
    c_j = (b**n + b**(n-j+1)) / 2 for j = 2..n, as
    (b**n * sum(a_j) + sum(b**(n-j+1) * a_j)) / 2."""
    b, gens, horner = params.b, params.generators()[1:], 0
    for g in gens:  # j = 2..n, by Horner's rule: horner ends as sum(b**(n-j+1) * a_j)
        horner = (horner + g) * b
    numerator = b**params.n * sum(gens) + horner
    if numerator % 2:
        raise RouteDisagreementError("odd Apéry sum numerator indicates an arithmetic bug")
    return numerator // 2


def pseudo_frobenius(params: GrepunitParams) -> list[int]:
    """Pseudo-Frobenius numbers {(n-i+1)*(b**n - 1 - a) + a*a_1 : i=2..n},
    ascending; always n-1 distinct values, the largest being the
    Frobenius number."""
    a, n = params.a, params.n
    step = params.b**params.n - 1 - a
    base = a * params.multiplicity
    values = sorted({(n - i + 1) * step + base for i in range(2, n + 1)})
    if len(values) != n - 1:
        raise RouteDisagreementError(f"{len(values)} pseudo-Frobenius numbers, expected {n - 1}")
    if values[-1] != frobenius(params):
        raise RouteDisagreementError(f"largest pseudo-Frobenius number {int_text(values[-1])} is not F")
    return values


def apery_maximals(params: GrepunitParams) -> list[int]:
    """Maximal Apéry elements alpha_i = a_i + (b-1)*(a_i + ... + a_n) for
    i = 2..n, in index order: strictly decreasing when a < b**n - 1 and
    strictly increasing when a > b**n - 1."""
    tail, out = 0, []
    for g in reversed(params.generators()[1:]):  # i = n down to 2
        tail += g
        out.append(g + (params.b - 1) * tail)
    return out[::-1]


def _smaller(params: GrepunitParams) -> GrepunitParams:
    if params.n < 3:
        raise UnsupportedDimensionError("recursive construction needs n >= 3")
    try:
        return validate(params.a, params.b, params.n - 1)
    except InvalidParametersError as exc:
        raise UnsupportedDimensionError(f"smaller triple invalid: {exc}") from exc


def apery_set_recursive(params: GrepunitParams, cap: int | None = DEFAULT_APERY_CAP) -> AperySet:
    """Apéry set of (a, b, n) lifted from the Apéry set of (a, b, n-1), in
    the groups and order of `apery_set`.

    Each element w of the smaller set, of length k, lifts to
    w + b**(n-1)*k + u*a_n of length k + u for u = 0..b-1; the single
    extra element is b*a_n, of length b.  The lift does not apply, and
    raises UnsupportedDimensionError, when n < 3 or when the smaller
    triple is not valid; there is no fallback to direct enumeration.
    """
    prev = _smaller(params)
    check_cap(params.multiplicity, cap)
    shift = params.b ** (params.n - 1)
    base = apery_set(prev, cap=None)  # prev's multiplicity is below the one just checked
    groups = [[v + step for v in group] for step, group in zip(range(0, len(base) * shift, shift), base)]
    groups = _extend(groups, params.generators()[-1], params.b)
    return _residue_system(params.multiplicity, groups)


def apery_levels_recursive(params: GrepunitParams, cap: int | None = DEFAULT_APERY_CAP) -> AperyLevels:
    """`apery_set_recursive` as `apery_levels`.  Level k of (a, b, n-1), held
    less k*a_2(n-1), lifts by k*b**(n-1): it keeps its mask, held less
    k*(a_2(n-1) + b**(n-1)), the frame that a_n extends and the union reads."""
    if params.a > APERY_MASK_MAX_A:
        return AperyLevels(0, apery_set_recursive(params, cap), None)
    prev = _smaller(params)
    check_cap(params.multiplicity, cap)
    base = apery_levels(prev, cap=None)  # prev's multiplicity is below the one just checked
    step = base.step + params.b ** (params.n - 1)
    levels = _extend_masks(base.levels, step, params.generators()[-1:], params.b)
    return _residue_levels(params.multiplicity, step, levels)


def affine_closure_ok(params: GrepunitParams, members: int, f: int) -> bool:
    """Whether the semigroup is closed under x -> b*x + shift, where
    shift = a - (b**n - 1).

    Checks the exact generator identity b*a_j + shift == a_{j+1} for
    j = 1..n-1, then maps every nonzero member of the semigroup at once.
    `members` is an independent membership mask, f the Frobenius number:
    bit y of it is set iff y is a member, for y in 0..f, and every y > f
    is a member, whatever its bit.  A member whose image is negative fails
    the check.  The image of an integer above top = (f - shift) // b
    exceeds f, so only the members s0..top (s0 the least positive s with
    a non-negative image) need a look-up: their digits are compared with
    the strided slice of their images' digits, as two ints.
    """
    b = params.b
    shift = params.a - (b**params.n - 1)
    gens = params.generators()
    for j in range(1, params.n):
        if b * gens[j - 1] + shift != gens[j]:
            return False
    s0 = max(1, -(shift // b))  # least s > 0 whose image is not negative
    top = (f - shift) // b  # members above top map above f
    end = max(s0, top, f) + 1
    # digit end - y of the table stands for y: bit y of members up to f, a
    # 1 above it, and the sentinel bit end keeps the leading zeros
    table = format(members & (1 << f + 1) - 1 | (2 << end) - (1 << f + 1), "b")
    if table.find("1", end - s0 + 1, end) >= 0:
        return False  # a member whose image is negative
    if top < s0:
        return True
    # both read from top down, so each source's digit faces its image's
    src = table[end - top : end - s0 + 1]
    img = table[end - b * top - shift : end - b * s0 - shift + 1 : b]
    return int(src, 2) & ~int(img, 2) == 0


def lattice_matrix(params: GrepunitParams) -> tuple[tuple[int, ...], ...]:
    """Relation matrix, as its rows: (0.. b, -(b+1), 1 ..0) sliding right,
    with last row ((a+1), 0, ..., 0, b, -(b+1)).  The n - 1 rows annihilate
    the generator vector and span the relation lattice of the semigroup.
    Needs n >= 3; the sliding pattern has no two-column form."""
    n, b, a = params.n, params.b, params.a
    if n < 3:
        raise UnsupportedDimensionError("lattice matrix needs n >= 3")
    rows = [(*[0] * i, b, -(b + 1), 1, *[0] * (n - 3 - i)) for i in range(n - 2)]
    return (*rows, (a + 1, *[0] * (n - 3), b, -(b + 1)))


def maximal_minors(matrix: tuple[tuple[int, ...], ...]) -> list[int]:
    """Determinants of the (n-1) x n matrix A, given as its rows, with
    column j deleted, j = 1..n: for the lattice matrix their absolute
    values recover the generators (signs alternate), and their gcd is 1
    exactly when the parameters are valid.

    One fraction-free Gauss-Jordan pass (Bareiss 1968) on a copy of A,
    columns left to right: at pivot p in column c, each row with q = row[c]
    != 0 becomes (p*row - q*pivot row) // div, div its last pivot, exactly,
    in the columns right of c and in the free column f, which has no pivot
    (a second one means rank < n - 1: all minors 0).  With D the last pivot
    and sign the swaps' parity, minor_f = sign*D, and by Cramer's rule the
    row of pivot column c has row[f]*D/div = sign*(-1)**(|c-f|-1)*minor_c.
    """
    rows, n = [list(row) for row in matrix], len(matrix) + 1
    div = [1] * len(rows)  # a row with q = 0 would only be scaled by p/prev, so it waits
    sign, prev, k, f = 1, 1, 0, None
    for c in range(n):
        for r in range(k, n - 1):
            if rows[r][c]:
                break
        else:  # no pivot: the free column f; a second one leaves k < n - 1
            f = c
            continue
        if r != k:
            rows[k], rows[r], div[k], div[r], sign = rows[r], rows[k], div[r], div[k], -sign
        top = rows[k] = rows[k] if div[k] == prev else [x * prev // div[k] for x in rows[k]]
        p, cols = top[c], range(c + 1, n) if f is None else [f, *range(c + 1, n)]
        for i, row in enumerate(rows):
            q = row[c]
            if q and i != k:
                d, div[i] = div[i], p
                for x in cols:
                    row[x] = (row[x] * p - q * top[x]) // d
        div[k], prev, k = p, p, k + 1
    pivots = (c for c in range(n) if c != f)
    out = [sign * (-1) ** (abs(c - f) - 1) * row[f] * prev // d for c, row, d in zip(pivots, rows, div)]
    return [*out[:f], sign * prev, *out[f:]] if k == n - 1 else [0] * n


class InvariantReport(NamedTuple):
    """All invariants of one semigroup, with the route that produced them."""

    params: GrepunitParams
    source: str  # "closed-form" or "oracle"
    generators: tuple[int, ...]
    frobenius: int
    genus: int
    pseudo_frobenius: tuple[int, ...]
    type: int
    apery_sum: int
    n_of_s: int
    wilf_ok: bool


def wilf_ok(params: GrepunitParams) -> bool:
    """Wilf's inequality F <= e*n(S) - 1, with e = n and n(S) = F + 1 - g."""
    f = frobenius(params)
    return f <= params.n * (f + 1 - genus(params)) - 1


def invariant_report(params: GrepunitParams) -> InvariantReport:
    """Bundle every closed-form invariant; n(S) comes from the identity
    g + n(S) = F + 1 and the Wilf flag from `wilf_ok`.  At any size and
    without the oracle, it raises RouteDisagreementError unless Selmer's
    sum(Ap) = m*g + m*(m-1)/2 holds and PF is the maximal Apéry elements
    less m (n - 1 of them, as `pseudo_frobenius` refuses any other count)."""
    m = params.multiplicity
    f = frobenius(params)
    g = genus(params)
    total = apery_sum(params)
    selmer = m * g + m * (m - 1) // 2
    if total != selmer:
        total, selmer = int_text(total), int_text(selmer)
        raise RouteDisagreementError(f"Apéry sum {total} is not m*g + m*(m-1)/2 = {selmer}")
    pf = pseudo_frobenius(params)
    for x, y in zip(pf, sorted(alpha - m for alpha in apery_maximals(params))):
        if x != y:
            x, y = int_text(x), int_text(y)
            raise RouteDisagreementError(f"pseudo-Frobenius number {x} is not {y}, from the maximals")
    return InvariantReport(
        params=params,
        source="closed-form",
        generators=tuple(params.generators()),
        frobenius=f,
        genus=g,
        pseudo_frobenius=tuple(pf),
        type=len(pf),
        apery_sum=total,
        n_of_s=f + 1 - g,
        wilf_ok=wilf_ok(params),
    )
