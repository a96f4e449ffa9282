"""The whole-mask kernels against the algorithms they replaced.

The references below are the earlier kernels, kept here only to compare
against: a byte-per-integer DP sieve (which both the shift-or closure
and the windowed sieve must reproduce), the relaxation Apéry set (which
both the round-robin and the m-bit windows must reproduce), the
O(m^2) scan for maximal Apéry elements, the window route with its
frontier kept as a set of window numbers, a memoised depth-first
length-set search, the per-integer length-table DP over every integer
up to the largest Apéry element, and the per-integer affine closure
loop.  They must agree with `oracle` and `closed_form.affine_closure_ok`
on the acceptance grid (a 1..60, b 2..5, n 2..5) and on random
generating sets, minimal or not.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grepunit import closed_form, oracle
from grepunit.arith import validate
from grepunit.errors import CapacityError, InvalidParametersError, RouteDisagreementError

from conftest import length_masks

# The depth-first search grows fast with the Apéry elements; on the grid
# it runs where the multiplicity is at most this (24 (b, n, a) families).
DFS_MAX_MULTIPLICITY = 21

# far above every Apéry element here, so the window route never gives up
TOP_CAP = 10**8

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
    through every generator until nothing improves; indexed by residue."""
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
    return best


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


def dp_length_table(gens, bound: int) -> list[int]:
    """Length bitmasks of 0..bound: bit k of entry x is set iff x is a
    sum of exactly k gens, one integer and generator at a time."""
    table = [1] + [0] * bound
    for g in gens:
        for x in range(g, bound + 1):
            table[x] |= table[x - g] << 1
    return table


def bit_positions(mask: int) -> frozenset[int]:
    return frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)


def loop_affine_ok(params, bound: int, member) -> bool:
    """Closure under x -> b*x + a - (b**n - 1), one integer at a time:
    the generator identity, then every member in 1..bound against the
    membership of its image."""
    b = params.b
    shift = params.a - (b**params.n - 1)
    gens = params.generators()
    for j in range(1, params.n):
        if b * gens[j - 1] + shift != gens[j]:
            return False
    for s in range(1, bound + 1):
        if member(s) and not member(b * s + shift):
            return False
    return True


def set_frontier_windows(sg, top_cap: int) -> list[tuple[int, int]] | None:
    """`oracle.apery_windows` with its frontier kept as a set of the
    window numbers above j that some step reaches, the least taken next."""
    m = sg.multiplicity
    full = (1 << m) - 1
    steps = sorted({(g // m, m - g % m) for g in sg.gens if g % m})
    reach = {d for q, _ in steps for d in (q, q + 1)}
    depth = max((q for q, _ in steps), default=0)
    pairs = {0: 1 << m, 1: 1}
    visited = [(0, 1)]
    dropped = 0
    covered = 1
    pending = set(reach)
    while covered != full:
        if not pending:
            raise RouteDisagreementError(
                f"{m - covered.bit_count()} residue classes mod {m} never reached"
            )
        j = min(pending)
        pending.remove(j)
        if j * m > top_cap:
            return None
        cand = 0
        for q, r in steps:
            cand |= pairs.get(j - q, 0) >> r
        new = cand & full
        new ^= new & covered
        visited.append((j, new))
        while visited[dropped][0] < j - depth:
            k = visited[dropped][0]
            pairs.pop(k, None)
            pairs.pop(k + 1, None)
            dropped += 1
        if new:
            covered |= new
            pairs[j] = new << m | pairs.get(j, 0)
            pairs[j + 1] = new
            pending.update([j + d for d in reach])
    return visited


def window_table(sg) -> list[int]:
    """`oracle.apery_windows` read into a residue-indexed table, each class
    found once, in windows visited in ascending order."""
    m = sg.multiplicity
    windows = oracle.apery_windows(sg, TOP_CAP)
    assert [j for j, _ in windows] == sorted({j for j, _ in windows})
    table = [None] * m
    for j, w in windows:
        assert 0 <= w < 1 << m
        for r in oracle._set_bits(w):
            assert table[r] is None, r
            table[r] = j * m + r
    return table


def check_against_references(gens, dfs_limit: int) -> None:
    """Every oracle kernel against its reference; the Apéry elements up to
    dfs_limit also get their length masks checked by depth-first search."""
    sg = oracle.GenericSemigroup.from_values(gens)
    m = sg.multiplicity
    inv = oracle.basic_invariants(sg)

    members = dp_members(sg.gens, inv.sieve.bit_length() - 1)
    # the DP bytes, largest integer first, read as a binary numeral
    assert inv.sieve == int(members[::-1].translate(BINARY_DIGITS), 2)

    apery = relaxation_apery(sg.gens, m)
    assert inv.apery_mask == sum(1 << w for w in apery)
    assert window_table(sg) == oracle.apery_set(sg, m) == apery
    assert oracle.pseudo_frobenius(inv) == maximals_scan(sorted(apery), members, m)

    for w, mask in zip(apery, length_masks(inv)):
        if w <= dfs_limit:
            assert bit_positions(mask) == dfs_length_set(sg.gens, w), w


def check_lengths_against_the_dp(sg, inv) -> None:
    """Masks and values paired by residue, as `length_masks` indexes them."""
    m = sg.multiplicity
    apery = sorted(oracle._set_bits(inv.apery_mask), key=lambda w: w % m)
    reference = dp_length_table(sg.gens, max(apery))
    assert length_masks(inv) == [reference[w] for w in apery]


def test_kernels_agree_on_the_acceptance_grid(grid):
    for params in grid:
        small = params.multiplicity <= DFS_MAX_MULTIPLICITY
        check_against_references(params.generators(), math.inf if small else -1)


def test_whole_mask_kernels_agree_on_the_acceptance_grid(grid):
    """Length masks of every Apéry element and the affine check, on all
    682 valid triples, against the per-integer references."""
    assert len(grid) == 682
    for params in grid:
        sg = oracle.GenericSemigroup.from_values(params.generators())
        inv = oracle.basic_invariants(sg)
        check_lengths_against_the_dp(sg, inv)

        f, sv = inv.frobenius, inv.sieve
        expected = loop_affine_ok(
            params, f + 2 * params.multiplicity, lambda y: y > f or y >= 0 and sv >> y & 1
        )
        assert closed_form.affine_closure_ok(params, sv, f) == expected


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
    check_against_references(values, 150)

    sg = oracle.GenericSemigroup.from_values(values)
    q = multiple * data.draw(st.sampled_from(sg.gens))  # a modulus that shares factors with some generators
    ap = oracle.apery_set(sg, q)
    assert ap == relaxation_apery(sg.gens, q)
    assert all(ap[r] % q == r for r in range(q))

    vals = sorted(set(values))
    redundant = [v for i, v in enumerate(vals) if i and dp_members(vals[:i], v)[v]]
    assert oracle.minimal_generators(oracle.basic_invariants(sg)) == [v for v in vals if v not in redundant]


@settings(max_examples=100, deadline=None)
@given(generating_sets())
def test_apery_lengths_agree_with_the_dp_on_random_generating_sets(values):
    """Redundant generators are kept, so an Apéry element can have
    several lengths."""
    sg = oracle.GenericSemigroup.from_values(values)
    check_lengths_against_the_dp(sg, oracle.basic_invariants(sg))


@settings(max_examples=100, deadline=None)
@given(generating_sets(), st.integers(1, 40), st.integers(2, 5), st.integers(2, 4))
def test_affine_check_agrees_with_the_loop_on_random_semigroups(values, a, b, n):
    """The family's map against the membership of an unrelated semigroup,
    so that closure fails as well as holds; shifts of both signs."""
    try:
        params = validate(a, b, n)
    except InvalidParametersError:
        return
    inv = oracle.basic_invariants(oracle.GenericSemigroup.from_values(values))
    f, sv = inv.frobenius, inv.sieve
    shift = a - (b**n - 1)
    expected = loop_affine_ok(params, f + 1 + abs(shift), lambda y: y > f or y >= 0 and sv >> y & 1)
    assert closed_form.affine_closure_ok(params, sv, f) == expected
    # bits above f are not read: every integer there counts as a member
    assert closed_form.affine_closure_ok(params, sv & (1 << f + 1) - 1, f) == expected


def digit_positions(mask: int) -> list[int]:
    """Set bits read off the whole binary string, one character per bit."""
    return [k for k, c in enumerate(reversed(format(mask, "b"))) if c == "1"]


@pytest.mark.parametrize(
    "bits",
    [
        [],
        [0],
        [7, 8],  # a run that crosses a byte boundary
        list(range(0, 200, 3)),  # dense: one run of many bytes
        [0, 1 << 16, (1 << 16) + 9, 2_000_000],  # sparse and far past 2^16 bits
        [5, 300, 301, 70_000] + list(range(100_000, 100_064)),
        # pieces of at most 2048 bits are formatted whole; wider ones are halved
        [2047],
        [2048],
        [0, 2048],
        [4095],
        [4096],
        [1, 2047, 2048, 4095, 4096],
        list(range(2040, 2060)) + [4096],  # a run across the first split, at 2048
        list(range(8190, 8200)) + [16_000],
    ],
)
def test_set_bits_reads_every_run(bits):
    mask = sum(1 << k for k in bits)
    assert oracle._set_bits(mask) == digit_positions(mask) == bits


def test_set_bits_of_a_sparse_mask_spanning_sixty_million_bits():
    bits = [0, 1, 2048, 29_999_999, 30_000_000, 60_000_000]
    assert oracle._set_bits(sum(1 << k for k in bits)) == bits


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1 << 18), max_size=40))
def test_set_bits_agrees_with_the_digit_string(bits):
    mask = sum(1 << k for k in set(bits))
    assert oracle._set_bits(mask) == digit_positions(mask)


LEAF_BITS = oracle._LEAF_BITS


@st.composite
def top_down_masks(draw):
    """Masks of 0 or 1 bit or up to 128, their top bit on either side of
    _LEAF_BITS or far past it, and bit 0 set or left as drawn."""
    count = draw(st.sampled_from([0, 1]) | st.integers(0, 128))
    width = max(draw(st.sampled_from([LEAF_BITS, LEAF_BITS + 1]) | st.integers(1, 1 << 18)), count)
    ends = sorted({width - 1, 0} if draw(st.booleans()) else {width - 1}, reverse=True)[:count]
    lo = 1 if 0 in ends else 0
    inner = st.integers(lo, width - 2) if width - 2 >= lo else st.nothing()
    rest = draw(st.sets(inner, min_size=count - len(ends), max_size=count - len(ends)))
    return sum(1 << k for k in {*ends, *rest})


@settings(max_examples=200, deadline=None)
@given(top_down_masks())
@example(0)
@example(1)
@example(1 << LEAF_BITS - 1)
@example(1 << LEAF_BITS | 1)
@example((1 << LEAF_BITS + 1) - 1)
@example(sum(1 << 1000 * k for k in range(65)))
def test_top_down_read_agrees_with_set_bits(mask):
    assert oracle._top_down_bits(mask) == oracle._set_bits(mask)


@pytest.mark.parametrize("limit, handed", [(4095, "all"), (4096, "none")])
def test_top_down_read_hands_a_mask_past_its_width_to_set_bits(monkeypatch, limit, handed):
    bits = [0, 5, 2047, 2048, 4095]  # 4096 bits wide
    mask = sum(1 << k for k in bits)
    seen = []
    real = oracle._set_bits
    monkeypatch.setattr(oracle, "_set_bits", lambda rest: seen.append(rest) or real(rest))
    monkeypatch.setattr(oracle, "TOP_DOWN_MAX_BITS", limit)
    assert oracle._top_down_bits(mask) == bits
    assert seen == ([mask] if handed == "all" else [])


@pytest.mark.parametrize("gens", [(1,), (2, 3), (6, 9, 20), (7, 8, 10, 15), (5, 7, 9, 11, 13)])
def test_kernels_agree_on_textbook_semigroups(gens):
    check_against_references(gens, math.inf)


@pytest.mark.parametrize(
    "gens",
    [
        (1, 5),  # 5 is a multiple of m = 1
        (3, 6, 7),  # 6 is a multiple of m and redundant
        (5, 7, 10, 12, 14),  # 10 and 14 redundant, 10 a multiple of m
        (300, 301, 600, 750, 857),  # m on the window side of APERY_WINDOW_MIN, 600 a multiple of it
        (1000, 1001),  # one element in each of windows 0..999
    ],
)
def test_window_route_on_edge_cases(gens):
    """Generators that are multiples of m or redundant, pinned rather than
    left to Hypothesis, and multiplicities on the window side of
    APERY_WINDOW_MIN, too large for check_against_references' depth-first
    search."""
    sg = oracle.GenericSemigroup(gens)
    assert window_table(sg) == oracle.apery_set(sg, gens[0]) == relaxation_apery(gens, gens[0])


def test_window_route_on_a_gcd_two_input():
    # past the constructor's check: the odd classes mod 4 hold no member
    even = tuple.__new__(oracle.GenericSemigroup, ((4, 6),))
    with pytest.raises(RouteDisagreementError, match="2 residue classes mod 4 never reached"):
        oracle.apery_windows(even, TOP_CAP)
    # every generator a multiple of m: no step at all
    stepless = tuple.__new__(oracle.GenericSemigroup, ((2, 4),))
    with pytest.raises(RouteDisagreementError, match="1 residue classes mod 2 never reached"):
        oracle.apery_windows(stepless, TOP_CAP)


@pytest.mark.parametrize(
    "gens, visited",
    [
        ((3, 1000003), 4),  # windows 0, 333334, 333335, 666668: nothing in between
        ((1001, 51001, 551001), 2626),
        ((1, 7, 6), 1),  # m = 1: window 0 holds every class
        (validate(1, 7, 6).generators(), 32),  # the family at (a, b, n) = (1, 7, 6), m = 19608
    ],
)
def test_window_route_visits_at_most_2_e_minus_1_m_plus_1_windows(gens, visited):
    sg = oracle.GenericSemigroup.from_values(gens)
    windows = oracle.apery_windows(sg, TOP_CAP)
    assert len(windows) == visited
    assert len(windows) <= 2 * (len(sg.gens) - 1) * sg.multiplicity + 1


def window_outcome(route, gens, top_cap: int):
    """What a window route returns, or the note of the error it raises;
    gens need not have gcd 1."""
    sg = tuple.__new__(oracle.GenericSemigroup, (tuple(sorted(set(gens))),))
    try:
        return route(sg, top_cap)
    except RouteDisagreementError as exc:
        return str(exc)


@st.composite
def window_steps(draw):
    """A least value m up to 40 and up to four more, up to a hundred
    windows of m above it, so that steps skip windows; the gcd may exceed 1."""
    m = draw(st.integers(1, 40))
    return [m] + draw(st.lists(st.integers(m, 100 * m), max_size=4))


@settings(max_examples=200, deadline=None)
@given(st.one_of(generating_sets(), window_steps()), st.integers(-50, 5000))
@example([3, 1000003], TOP_CAP)
@example([3, 1000003], 1000003)  # gives up at window 333335
@example([3, 1000003], -1)  # steps cut to one window
@example([1001, 51001, 551001], TOP_CAP)
@example([1001, 51001, 551001], 100_000)
@example([4, 6], TOP_CAP)  # gcd 2: two classes never reached
@example([2, 4], TOP_CAP)  # no step at all
def test_window_frontier_agrees_with_the_set_frontier(gens, top_cap):
    expected = window_outcome(set_frontier_windows, gens, top_cap)
    assert window_outcome(oracle.apery_windows, gens, top_cap) == expected


def check_sieve_routes(gens, bound: int) -> None:
    """The windowed sieve against the shift-or closure and the DP, and
    `sieve` on the window side of SIEVE_WINDOW_MIN."""
    expected = int(dp_members(gens, bound)[::-1].translate(BINARY_DIGITS), 2)
    assert oracle._window_closure(gens, bound) == oracle._closure(gens, bound) == expected
    if gens[0] >= oracle.SIEVE_WINDOW_MIN and math.gcd(*gens) == 1:
        assert oracle.sieve(oracle.GenericSemigroup(tuple(gens)), bound) == expected


@st.composite
def wide_generating_sets(draw):
    """A least value m from SIEVE_WINDOW_MIN to 3x that, up to four more
    in m..3m, maybe a redundant sum of two of them or a multiple of m, and
    a bound from the largest value to three windows past it."""
    m = draw(st.integers(oracle.SIEVE_WINDOW_MIN, 3 * oracle.SIEVE_WINDOW_MIN))
    values = [m] + draw(st.lists(st.integers(m, 3 * m), max_size=4))
    extra = draw(st.sampled_from(["none", "sum", "multiple"]))
    if extra == "sum":
        values.append(draw(st.sampled_from(values)) + draw(st.sampled_from(values)))
    elif extra == "multiple":
        values.append(m * draw(st.integers(2, 3)))
    gens = sorted(set(values))
    return gens, draw(st.integers(gens[-1], gens[-1] + 3 * m))


@settings(max_examples=100, deadline=None)
@given(wide_generating_sets())
def test_windowed_sieve_agrees_on_random_generating_sets(case):
    check_sieve_routes(*case)


M = oracle.SIEVE_WINDOW_MIN + 3  # windows of m rounded down to whole bytes, so narrower than m


@pytest.mark.parametrize(
    "gens, bound",
    [
        ((M, M + 1), 7 * M),  # bound % m == 0
        ((M, M + 1), 8 * M - 1),  # bound % m == m - 1
        ((M, M + 1), 7 * (M & ~7)),  # the top window holds bit 0 alone
        ((M, M + 1), 8 * (M & ~7) - 1),  # the top window is whole
        ((M, 2 * M, 2 * M + 5), 9 * M),  # 2m a multiple of m
        ((M, M + 4, 2 * M + 4, 2 * M + 9), 6 * M + 2),  # 2m + 4 = m + (m + 4) is redundant
        ((M, 3 * M - 1), 12 * M),  # a generator three windows up: pairs kept three deep
    ],
)
def test_windowed_sieve_on_edge_cases(gens, bound):
    check_sieve_routes(gens, bound)


def test_windowed_sieve_on_the_family():
    # (a, b, n) = (1, 7, 6): m = 19608, the sieve bound basic_invariants uses
    gens = validate(1, 7, 6).generators()
    bound = oracle.basic_invariants(oracle.GenericSemigroup(tuple(gens))).sieve.bit_length() - 1
    check_sieve_routes(gens, bound)


def test_sieve_takes_the_windows_from_sieve_window_min(monkeypatch):
    built = []

    def recording(name):
        real = getattr(oracle, name)
        return lambda gens, bound: built.append(name) or real(gens, bound)

    for name in ("_closure", "_window_closure"):
        monkeypatch.setattr(oracle, name, recording(name))
    m = oracle.SIEVE_WINDOW_MIN
    oracle.sieve(oracle.GenericSemigroup((m - 1, m)), 3 * m)
    oracle.sieve(oracle.GenericSemigroup((m, m + 1)), 3 * m)
    assert built == ["_closure", "_window_closure"]


def test_sieve_refuses_its_cap_before_the_windows(monkeypatch):
    def unreachable(*args):
        raise AssertionError("sieve built")

    monkeypatch.setattr(oracle, "_closure", unreachable)
    monkeypatch.setattr(oracle, "_window_closure", unreachable)
    m = oracle.SIEVE_WINDOW_MIN
    with pytest.raises(CapacityError, match=f"^sieve bound {3 * m} exceeds capacity cap {3 * m}$"):
        oracle.sieve(oracle.GenericSemigroup((m, m + 1)), 3 * m, cap=3 * m)
    with pytest.raises(AssertionError, match="built"):
        oracle.sieve(oracle.GenericSemigroup((m, m + 1)), 3 * m, cap=3 * m + 1)
