"""Brute-force engine against textbook semigroups and pairwise identities."""

import ast
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grepunit import oracle
from grepunit.errors import CapacityError, NotNumericalSemigroupError, RouteDisagreementError

from conftest import length_masks


def sg(*gens):
    return oracle.GenericSemigroup.from_values(gens)


def pf(*gens):
    return oracle.pseudo_frobenius(oracle.basic_invariants(sg(*gens)))


def test_rejects_non_semigroup_generators():
    with pytest.raises(NotNumericalSemigroupError):
        sg(4, 6)  # gcd 2, infinite complement
    with pytest.raises(NotNumericalSemigroupError):
        sg(0, 3)
    with pytest.raises(NotNumericalSemigroupError):
        sg(-2, 3)


def test_generators_given_as_a_list_are_held_as_a_tuple():
    inv = oracle.basic_invariants(oracle.GenericSemigroup([3, 5]))
    assert inv.semigroup.gens == (3, 5)
    assert hash(inv) == hash(oracle.basic_invariants(oracle.GenericSemigroup((3, 5))))


def test_replace_validates_again():
    with pytest.raises(NotNumericalSemigroupError):
        oracle.GenericSemigroup((3, 5))._replace(gens=(4, 6))


def test_repr_leaves_out_the_masks():
    # masks of about 10**6 bits, past the 4300-digit limit of int -> str
    inv = oracle.basic_invariants(oracle.GenericSemigroup((1000, 1001)))
    assert inv.sieve.bit_length() > 10**6
    assert repr(inv).startswith(
        "SemigroupInvariants(semigroup=GenericSemigroup(gens=(1000, 1001)), frobenius="
    )
    assert "apery_mask" not in repr(inv)
    assert "sieve=" not in repr(inv)


def test_sieve_membership():
    s = oracle.sieve(sg(3, 8), 20)
    members = {0, 3, 6, 8, 9, 11, 12, 14, 15, 16, 17, 18, 19, 20}
    for x in range(21):
        assert (s >> x & 1) == (x in members)
    assert s.bit_length() == 21  # nothing above the bound
    s = oracle.sieve(sg(7, 8, 10), 30)
    assert not s >> 19 & 1
    assert s >> 20 & 1


def test_sieve_cap():
    with pytest.raises(CapacityError):
        oracle.sieve(sg(2, 3), 100, cap=10)
    with pytest.raises(ValueError, match="^sieve bound 19 below largest generator 20$"):
        oracle.sieve(sg(6, 9, 20), 19)


def test_apery_set_of_mcnugget_semigroup():
    # <6, 9, 20>: Ap(S, 6) indexed by residue 0..5
    assert oracle.apery_set(sg(6, 9, 20), 6) == [0, 49, 20, 9, 40, 29]


def test_apery_set_known_values():
    assert oracle.apery_set(sg(7, 8, 10), 7) == [0, 8, 16, 10, 18, 26, 20]
    assert oracle.apery_set(sg(2, 3), 2) == [0, 3]


def test_apery_set_first_fold_shares_a_factor_with_the_modulus():
    # 6 reaches only the even classes mod 4; 9 then walks one cycle of all four
    assert oracle.apery_set(sg(4, 6, 9), 4) == [0, 9, 6, 15]


def test_apery_set_modulo_other_members():
    # 4 folds first, sharing 2 with the modulus; the generator 6 adds nothing mod 6
    assert oracle.apery_set(sg(4, 6, 9), 6) == [0, 13, 8, 9, 4, 17]
    # 10 = 4 + 6 is no generator; 4 and 6 both share 2 with it
    assert oracle.apery_set(sg(4, 6, 9), 10) == [0, 21, 12, 13, 4, 15, 6, 17, 8, 9]
    # 12 is no generator, and 4, 6 and 9 each share a different factor (4, 6, 3) with it
    assert oracle.apery_set(sg(4, 6, 9), 12) == [0, 13, 14, 15, 4, 17, 6, 19, 8, 9, 10, 23]


def test_apery_needs_member_modulus():
    with pytest.raises(ValueError):
        oracle.apery_set(sg(6, 9, 20), 7)
    with pytest.raises(ValueError, match="^need a positive element, got 0$"):
        oracle.apery_set(sg(6, 9, 20), 0)


def test_capacity_refused_before_the_apery_stage(monkeypatch):
    def unreachable(*args):
        raise AssertionError("Apéry stage reached")

    monkeypatch.setattr(oracle, "apery_set", unreachable)
    monkeypatch.setattr(oracle, "apery_windows", unreachable)
    # one m on each side of APERY_WINDOW_MIN: the refusal comes before either route
    assert 100 < oracle.APERY_WINDOW_MIN <= 1000
    for m in (100, 1000):
        # the sieve bound is at least 2m - 1, so 2m cells over the cap is refused up front
        with pytest.raises(CapacityError):
            oracle.basic_invariants(sg(m, m + 1), sieve_cap=2 * m - 1)
        with pytest.raises(AssertionError, match="reached"):
            oracle.basic_invariants(sg(m, m + 1), sieve_cap=2 * m)


def test_window_route_gives_up_past_its_top_cap():
    # Ap(<1000, 1001>, 1000) tops out at 999 * 1001 = 999999, in window 999
    windows = oracle.apery_windows(sg(1000, 1001), 999_999)
    assert windows[-1] == (999, 1 << 999)
    assert oracle.apery_windows(sg(1000, 1001), 998_999) is None


def test_window_route_frontier_stops_at_its_top_cap():
    # a step of 10^8 windows lies far past the 3334 windows that top_cap
    # allows; a frontier as wide as the step would take 12.5 MB
    tracemalloc.start()
    try:
        assert oracle.apery_windows(sg(300, 300 * 10**8 + 1), 10**6) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_window_route_drops_the_pairs_no_later_step_reads():
    # Ap(<2000, 2001>, 2000) has one element in each of windows 0..1999 and
    # every step reads the window below; keeping each window's 4000-bit
    # pair to the end would more than double the memory of the windows
    tracemalloc.start()
    try:
        windows = oracle.apery_windows(sg(2000, 2001), 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sys.getsizeof(windows) + sum(sys.getsizeof(w) + sys.getsizeof((j, w)) for j, w in windows)
    assert len(windows) == 2000
    assert peak < 1.5 * kept


def test_refusal_after_the_windows_give_up_names_the_exact_bound(monkeypatch):
    # the windows give up at window 499 (top_cap = 498998), so some Apéry
    # element is at least 499000 and the sieve bound at least 499000 + 1001;
    # the refusal names that bound without the round-robin's exact one
    moduli = []
    real = oracle.apery_set
    monkeypatch.setattr(oracle, "apery_set", lambda s, q: moduli.append(q) or real(s, q))
    with pytest.raises(
        CapacityError, match="^sieve bound of at least 500001 exceeds capacity cap 500000$"
    ):
        oracle.basic_invariants(sg(1000, 1001), sieve_cap=500_000)
    assert moduli == []


def test_refusal_after_the_windows_give_up_holds_a_few_windows():
    # Ap(<m, m + 1>, m) tops out at (m - 1)(m + 1); the windows give up at
    # window 2, past top_cap = 3m - 1 - (m + 1).  The peak measured 4.3
    # windows of m bits (534 kB), where a table of all m residue classes
    # takes 40 MB
    m = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="^sieve bound of at least 3000001 exceeds"):
            oracle.basic_invariants(oracle.GenericSemigroup((m, m + 1)), sieve_cap=3 * m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (m // 8)  # eight windows of m bits, m // 8 bytes each


def test_round_robin_mask_waits_for_the_sieve_cap():
    # Ap(<3, 2**40 + 1>, 3) tops out at 2 * (2**40 + 1), so the sieve bound
    # 3 * (2**40 + 1) is refused; a mask of the Apéry set built before that
    # refusal would take 256 GB
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="^sieve bound 3298534883331 exceeds capacity cap"):
            oracle.basic_invariants(oracle.GenericSemigroup((3, 2**40 + 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_route_disagreement_raises(monkeypatch):
    real = oracle.apery_set
    monkeypatch.setattr(oracle, "apery_set", lambda sg, q: [v for v in real(sg, q) if v % q != 1])
    with pytest.raises(RouteDisagreementError):
        oracle.basic_invariants(sg(7, 8, 10))


def test_unreached_residue_class_raises():
    # gcd 2, past the constructor's check: the odd classes mod 4 hold no member
    even = tuple.__new__(oracle.GenericSemigroup, ((4, 6),))
    with pytest.raises(RouteDisagreementError, match="2 residue classes mod 4 never reached"):
        oracle.apery_set(even, 4)


def test_route_disagreement_survives_optimized_mode():
    script = textwrap.dedent(
        """
        from grepunit import oracle

        real = oracle.apery_set
        oracle.apery_set = lambda sg, q: [v for v in real(sg, q) if v % q != 1]
        print(__debug__)
        oracle.basic_invariants(oracle.GenericSemigroup((7, 8, 10)))
        """
    )
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout.strip() == "False"  # assert statements are compiled away
    assert proc.returncode != 0
    assert "RouteDisagreementError" in proc.stderr


def dropped(real):
    """The window route without the element of window 1's lowest class."""

    def planted(s, top_cap):
        windows = real(s, top_cap)
        j, w = windows[1]
        windows[1] = j, w & (w - 1)
        return windows

    return planted


def moved(real):
    """The window route with window 1's lowest element moved up a window
    and window 2's moved down one: the classes, the top and the Selmer sum
    are kept, so only the comparison with the sieve is left to fail."""

    def planted(s, top_cap):
        windows = real(s, top_cap)
        (j1, w1), (j2, w2) = windows[1:3]
        assert j2 == j1 + 1
        low1, low2 = w1 & -w1, w2 & -w2
        assert low1 != low2 and j2 < windows[-1][0]
        windows[1:3] = [(j1, w1 ^ low1 | low2), (j2, w2 ^ low2 | low1)]
        return windows

    return planted


@pytest.mark.parametrize("fault, note", [(dropped, "routes disagree"), (moved, "disagrees with the sieve")])
def test_window_route_disagreement_raises(monkeypatch, fault, note):
    # m = 1000: window j of <1000, 1001> holds 1001 * j alone
    assert 1000 >= oracle.APERY_WINDOW_MIN
    monkeypatch.setattr(oracle, "apery_windows", fault(oracle.apery_windows))
    with pytest.raises(RouteDisagreementError, match=note):
        oracle.basic_invariants(sg(1000, 1001))


def test_window_route_disagreement_survives_optimized_mode():
    script = textwrap.dedent(
        """
        from grepunit import oracle

        real = oracle.apery_windows
        oracle.apery_windows = lambda s, c: [(j, w & (w - 1) if j == 1 else w) for j, w in real(s, c)]
        print(__debug__)
        oracle.basic_invariants(oracle.GenericSemigroup((1000, 1001)))
        """
    )
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout.strip() == "False"  # assert statements are compiled away
    assert proc.returncode != 0
    assert "RouteDisagreementError" in proc.stderr


def test_window_route_never_reads_the_sieve():
    # the windows are one of the two routes basic_invariants compares, so
    # they must not be built from the other one
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    route = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in ("apery_windows", "_join")]
    assert len(route) == 2
    for node in (n for fn in route for n in ast.walk(fn)):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        assert name not in ("sieve", "_closure", "_window_closure"), ast.unparse(node)


def test_windowed_sieve_never_reads_the_apery_route():
    # the mirror of the test above: the two routes step through windows
    # alike, but share no stepping helper
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    route = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_window_closure"]
    assert len(route) == 1
    for node in ast.walk(route[0]):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        assert name not in ("apery_windows", "_join", "apery_set"), ast.unparse(node)


def cleared_in_a_middle_window(real):
    """The windowed sieve with the least member of its middle window, at
    about half the bound, turned into a gap."""

    def planted(gens, bound):
        mask = real(gens, bound)
        start = bound // 2
        above = mask >> start
        return mask ^ (above & -above) << start

    return planted


# the family at (a, b, n) = (1, 7, 6): m = 19608, sieve bound 649860
FAMILY = (19608, 19609, 19616, 19665, 20008, 22409)


def test_windowed_sieve_fault_raises(monkeypatch):
    assert FAMILY[0] >= oracle.SIEVE_WINDOW_MIN
    monkeypatch.setattr(oracle, "_window_closure", cleared_in_a_middle_window(oracle._window_closure))
    with pytest.raises(RouteDisagreementError, match="genus routes disagree"):
        oracle.basic_invariants(sg(*FAMILY))


def test_windowed_sieve_fault_survives_optimized_mode():
    script = textwrap.dedent(
        f"""
        from grepunit import oracle

        real = oracle._window_closure
        def planted(gens, bound):
            mask = real(gens, bound)
            above = mask >> bound // 2
            return mask ^ (above & -above) << bound // 2
        oracle._window_closure = planted
        print(__debug__)
        oracle.basic_invariants(oracle.GenericSemigroup({FAMILY}))
        """
    )
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout.strip() == "False"  # assert statements are compiled away
    assert proc.returncode != 0
    assert "RouteDisagreementError" in proc.stderr


def traced_peak(build, *args) -> int:
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_windowed_sieve_peaks_below_the_closure():
    # the family at (1, 10, 6): m = 111111 and a mask of about 0.7 MB.
    # The windows are held as bytes and read back once, about twice the
    # mask, against about five masks for the closure.  Keeping every
    # window's pair, or ANDing the joined mask with a full-width one,
    # each takes the windows to about four masks, and both past the closure
    gens = (111111, 111112, 111122, 111222, 112222, 122222)
    bound = oracle.basic_invariants(sg(*gens)).sieve.bit_length() - 1
    peak = traced_peak(oracle._window_closure, gens, bound)
    assert peak < traced_peak(oracle._closure, gens, bound)
    assert peak < 3 * sys.getsizeof(oracle._window_closure(gens, bound))


def test_minimal_generators_read_a_few_bits_of_the_sieve():
    # the family at (1, 10, 6), whose sieve is about 0.7 MB: bit x is read
    # as s & 1 << x, about 4 kB at the peak.  A closure of the smaller
    # generators per generator peaks near 78 kB, and s >> x & 1 copies
    # nearly the whole sieve
    inv = oracle.basic_invariants(sg(111111, 111112, 111122, 111222, 112222, 122222))
    assert traced_peak(oracle.minimal_generators, inv) < 64_000


@pytest.mark.parametrize("gens", [(7, 8, 10), (1000, 1001)])  # m on each side of APERY_WINDOW_MIN
def test_invariants_are_hashable(gens):
    inv = oracle.basic_invariants(sg(*gens))
    assert hash(inv) == hash(oracle.basic_invariants(sg(*gens)))


def test_oracle_stages_take_no_none_default():
    # a None default let a stage rebuild the invariants at the default
    # sieve cap, ignoring the caller's
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for default in node.args.defaults + node.args.kw_defaults:
                assert not (isinstance(default, ast.Constant) and default.value is None), node.name


def test_oracle_never_imports_closed_form_or_apery():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            for forbidden in ("closed_form", "apery"):
                assert not any(forbidden in name for name in names), ast.unparse(node)


def test_invariants_of_known_semigroups():
    # McNugget semigroup <6, 9, 20>
    inv = oracle.basic_invariants(sg(6, 9, 20))
    assert inv.frobenius == 43
    assert inv.genus == 22
    # <7, 8, 10>
    inv = oracle.basic_invariants(sg(7, 8, 10))
    assert inv.frobenius == 19
    assert inv.genus == 11
    assert inv.n_below == 9


def test_whole_line_has_no_gaps():
    inv = oracle.basic_invariants(sg(1))
    assert inv.frobenius == -1
    assert inv.genus == 0
    assert inv.n_below == 0
    # S = N: only x = -1 is a pseudo-Frobenius number, found by both routes
    assert pf(1) == [-1]
    assert pf(1, 5) == [-1]


def test_smallest_proper_semigroup():
    inv = oracle.basic_invariants(sg(2, 3))
    assert inv.frobenius == 1
    assert inv.genus == 1
    assert inv.n_below == 1
    assert oracle.pseudo_frobenius(inv) == [1]


def test_pseudo_frobenius_known_values():
    assert pf(7, 8, 10) == [13, 19]
    assert pf(3, 8) == [13]
    assert pf(6, 9, 20) == [43]  # symmetric, type 1
    # <m, m + 1, ..., 2m - 1> has 1..m - 1: a dense maximal Apéry mask,
    # by the round-robin and the window route
    for m in (100, 300):
        assert pf(*range(m, 2 * m)) == list(range(1, m))


def test_apery_set_that_keeps_sum_and_maximum_still_disagrees_with_the_sieve(monkeypatch):
    # Ap(<7, 8, 10>, 7) = {0, 8, 10, 16, 18, 20, 26}: 8 up to 15 and 16
    # down to 9 keep the residues, the sum and the maximum, so F and the
    # genus agree and only the comparison with the sieve is left to fail
    real = oracle.apery_set

    def shuffled(s, q):
        ap = real(s, q)
        ap[8 % q] += q
        ap[16 % q] -= q
        return ap

    monkeypatch.setattr(oracle, "apery_set", shuffled)
    with pytest.raises(RouteDisagreementError, match="Apéry set disagrees with the sieve"):
        oracle.basic_invariants(sg(7, 8, 10))


def test_pseudo_frobenius_routes_disagree_on_a_cleared_apery_bit():
    # Ap(<7, 8, 10>, 7) without 26, its largest element; the note lists
    # the Apéry route's numbers, then the definition's
    inv = oracle.basic_invariants(sg(7, 8, 10))
    cleared = inv._replace(apery_mask=inv.apery_mask ^ 1 << inv.apery_mask.bit_length() - 1)
    with pytest.raises(RouteDisagreementError) as exc_info:
        oracle.pseudo_frobenius(cleared)
    assert str(exc_info.value) == "pseudo-Frobenius routes disagree: [9, 11, 13] vs [13, 19]"


@pytest.mark.parametrize(
    "gens, planted, note",
    [
        # the gap 13 made a member: 13 fails the definition and 6 (6 + 7 = 13, 14, 16) passes it
        ((7, 8, 10), (13,), "[13, 19] vs [6, 19]"),
        # 0 made a gap of <1> = N: -1 fails the definition, and 0, above
        # F = -1, passes it
        ((1,), (0,), "[-1] vs [0]"),
        # the member 24 made a gap above F = 19: 24 passes the definition
        ((7, 8, 10), (24,), "[13, 19] vs [13, 19, 24]"),
        # the gaps 1 and 3 made members: x = -7, the frame's lower edge,
        # passes the definition, as -7 + 7 = 0, -7 + 8 = 1 and -7 + 10 = 3
        ((7, 8, 10), (1, 3), "[13, 19] vs [-7, 13, 19]"),
    ],
)
def test_pseudo_frobenius_routes_disagree_on_a_flipped_sieve_bit(gens, planted, note):
    inv = oracle.basic_invariants(sg(*gens))
    flipped = inv._replace(sieve=inv.sieve ^ sum(1 << k for k in planted))
    with pytest.raises(RouteDisagreementError) as exc_info:
        oracle.pseudo_frobenius(flipped)
    assert str(exc_info.value) == f"pseudo-Frobenius routes disagree: {note}"


def test_pseudo_frobenius_disagreement_survives_optimized_mode():
    script = textwrap.dedent(
        """
        from grepunit import oracle

        inv = oracle.basic_invariants(oracle.GenericSemigroup((7, 8, 10)))
        print(__debug__)
        oracle.pseudo_frobenius(inv._replace(sieve=inv.sieve ^ 1 << 13))
        """
    )
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout.strip() == "False"  # assert statements are compiled away
    assert proc.returncode != 0
    assert "RouteDisagreementError: pseudo-Frobenius routes disagree: [13, 19] vs [6, 19]" in proc.stderr


@pytest.mark.parametrize(
    "gens",
    [
        (1000, 1001),
        (1000, 1001, 1013),
        (3000, 3001, 3007),
        (19608, 19609, 19616, 19665, 20008, 22409),  # S_1(7, 6), the large-m workload's
    ],
)
def test_pseudo_frobenius_holds_one_route_at_a_time(gens):
    # each route, read out included, is done before the next starts, so
    # the peak stays near four masks of the sieve's width beyond the
    # invariants' own
    inv = oracle.basic_invariants(sg(*gens))
    tracemalloc.start()
    try:
        oracle.pseudo_frobenius(inv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.75 * (inv.sieve.bit_length() - 1) / 8


def test_minimal_generators_drop_redundant():
    def minimal(*gens):
        return oracle.minimal_generators(oracle.basic_invariants(sg(*gens)))

    assert minimal(3, 8, 11, 14) == [3, 8]
    assert minimal(40, 43, 52, 79) == [40, 43, 52, 79]
    assert minimal(7, 8, 10, 15) == [7, 8, 10]
    assert minimal(1, 5) == [1]


def apery_masks(s) -> dict[int, int]:
    inv = oracle.basic_invariants(s)
    by_residue = sorted(oracle._set_bits(inv.apery_mask), key=lambda w: w % s.multiplicity)
    return dict(zip(by_residue, length_masks(inv)))


def test_length_set_values():
    # Ap(<6, 9, 20>, 6): 49 = 9+20+20 is the only factorization of length 3
    assert apery_masks(sg(6, 9, 20)) == {0: 1, 9: 2, 20: 2, 29: 4, 40: 4, 49: 8}
    # Ap(<7, 8, 10>, 7): 26 = 8+8+10 is the only factorization over <7, 8, 10>
    assert apery_masks(sg(7, 8, 10)) == {0: 1, 8: 2, 10: 2, 16: 4, 18: 4, 20: 4, 26: 8}
    # the redundant generator 12 = 6+6 gives 12 the lengths {1, 2}, and
    # 18 = 9+9 = 6+12 = 6+6+6 the lengths {2, 3}
    assert apery_masks(sg(5, 6, 9, 12)) == {0: 1, 6: 2, 9: 2, 12: 0b110, 18: 0b1100}


def test_apery_lengths_refuse_an_element_no_generator_reaches():
    # 43 is not in <6, 9, 20>: neither 43 - 9 nor 43 - 20 is in the mask
    inv = oracle.basic_invariants(sg(6, 9, 20))
    planted = inv._replace(apery_mask=sum(1 << w for w in (0, 43, 20, 9, 40, 29)))
    with pytest.raises(RouteDisagreementError, match="43"):
        list(oracle.apery_levels(planted))


def test_wilf_data_known_semigroup():
    inv = oracle.basic_invariants(sg(7, 8, 10))
    pfs = oracle.pseudo_frobenius(inv)
    data = oracle.wilf_data(inv, pfs)
    assert inv.frobenius == 19
    assert len(data.minimal_generators) == 3
    assert len(pfs) == 2
    assert inv.n_below == 9
    assert data.wilf_ok  # 19 <= 3*9 - 1
    assert data.type_bound_ok  # 19 <= 3*9 - 1


def test_wilf_data_bounds_can_fail():
    # <6, 9, 20>: F = 43, e = 3, t = 1; with n(S) planted at 20 only the
    # type bound fails (43 <= 3*20 - 1, 43 > 2*20 - 1), at 10 both do
    inv = oracle.basic_invariants(sg(6, 9, 20))
    pfs = oracle.pseudo_frobenius(inv)
    data = oracle.wilf_data(inv._replace(n_below=20), pfs)
    assert (data.wilf_ok, data.type_bound_ok) == (True, False)
    data = oracle.wilf_data(inv._replace(n_below=10), pfs)
    assert (data.wilf_ok, data.type_bound_ok) == (False, False)
    # 15 = 7 + 8 is redundant, so e = 3 and 19 > 3*6 - 1 (with e = 4, 19 <= 4*6 - 1)
    inv = oracle.basic_invariants(sg(7, 8, 10, 15))
    data = oracle.wilf_data(inv._replace(n_below=6), oracle.pseudo_frobenius(inv))
    assert len(data.minimal_generators) == 3
    assert not data.wilf_ok


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(2, 40))
def test_two_generator_identities(p, q):
    if math.gcd(p, q) != 1 or p == q:
        return
    inv = oracle.basic_invariants(sg(p, q))
    assert inv.frobenius == p * q - p - q
    assert inv.genus == (p - 1) * (q - 1) // 2
    assert oracle.pseudo_frobenius(inv) == [p * q - p - q]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(2, 60), min_size=2, max_size=4))
def test_gap_count_matches_gap_list(gens):
    if math.gcd(*gens) != 1:
        return
    inv = oracle.basic_invariants(oracle.GenericSemigroup.from_values(gens))
    sv = inv.sieve
    gaps = [x for x in range(sv.bit_length()) if not sv >> x & 1]
    assert inv.genus == len(gaps)
    assert inv.frobenius == (max(gaps) if gaps else -1)


@pytest.mark.parametrize("gens, message", [
    ((), "empty generating set"),
    ((0, 3), "generators must be positive: (0, 3)"),
    ((3, -2), "generators must be positive: (3, -2)"),
    ((3, 0), "generators must be positive: (3, 0)"),
    ((5, 3), "generators must be ascending and distinct: (5, 3)"),
    ((3, 3, 5), "generators must be ascending and distinct: (3, 3, 5)"),
    ((4, 6), "gcd(4, 6) = 2, must be 1 for the complement to be finite"),
])
def test_generator_checks_keep_their_messages(gens, message):
    with pytest.raises(NotNumericalSemigroupError) as exc_info:
        oracle.GenericSemigroup(gens)
    assert str(exc_info.value) == message


def test_the_natural_numbers_have_no_gap():
    inv = oracle.basic_invariants(sg(1))
    assert (inv.frobenius, inv.genus, inv.n_below) == (-1, 0, 0)
    assert oracle.pseudo_frobenius(inv) == [-1]


@pytest.mark.parametrize(
    "gens, flipped, note",
    [
        # a member above F cleared: the sieve's own F is that member
        ((7, 8, 10), lambda bound: 25, "Frobenius routes disagree: 19 vs 25"),
        ((7, 8, 10), lambda bound: bound, "Frobenius routes disagree: 19 vs 36"),
        ((1,), lambda bound: 1, "Frobenius routes disagree: -1 vs 1"),
        ((3000, 3001, 3007), lambda bound: 1299001, "Frobenius routes disagree: 1298995 vs 1299001"),
        # the bit at F set: the sieve's F is the next gap down, if any
        ((7, 8, 10), lambda bound: 19, "Frobenius routes disagree: 19 vs 13"),
        ((2, 3), lambda bound: 1, "Frobenius routes disagree: 1 vs -1"),
        ((3000, 3001, 3007), lambda bound: 1298995, "Frobenius routes disagree: 1298995 vs 1295995"),
        # a bit past the sieve bound
        ((7, 8, 10), lambda bound: bound + 3, "Frobenius routes disagree: 19 vs 39"),
        # F kept, the gap 1 made a member
        ((7, 8, 10), lambda bound: 1, "genus routes disagree: 11 vs 10"),
        ((1000, 1001), lambda bound: 1, "genus routes disagree: 499500 vs 499499"),
    ],
)
def test_planted_sieve_fault_names_both_routes(monkeypatch, gens, flipped, note):
    # m = 3000 takes both window routes, m = 1000 the Apéry windows only
    assert 3000 >= oracle.SIEVE_WINDOW_MIN > 1000 >= oracle.APERY_WINDOW_MIN
    real = oracle.sieve

    def planted(s, bound, cap=oracle.DEFAULT_SIEVE_CAP):
        return real(s, bound, cap) ^ 1 << flipped(bound)

    monkeypatch.setattr(oracle, "sieve", planted)
    with pytest.raises(RouteDisagreementError) as exc_info:
        oracle.basic_invariants(sg(*gens))
    assert str(exc_info.value) == note


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(st.integers(1, 80), min_size=1, max_size=5),
    st.lists(st.integers(300, 2400), min_size=2, max_size=4),  # the window routes
))
@example([1])
@example([2000, 2001, 2003])
def test_n_below_counts_the_members_below_the_frobenius_number(gens):
    assume(math.gcd(*gens) == 1)
    inv = oracle.basic_invariants(oracle.GenericSemigroup.from_values(gens))
    # the count read off the sieve's bits below F, as it once was
    assert inv.n_below == (inv.sieve & ((1 << max(inv.frobenius, 0)) - 1)).bit_count()
