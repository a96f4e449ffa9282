"""Closed formulas against golden values and small direct enumerations."""

import ast
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from itertools import chain
from pathlib import Path
from operator import mul
from types import SimpleNamespace

import pytest

import grepunit
from grepunit import closed_form, oracle
from grepunit.arith import repunit, validate
from grepunit.cli import EXIT_MISMATCH, main
from grepunit.errors import (
    CapacityError,
    InvalidBaseError,
    InvalidParametersError,
    NotCoprimeError,
    RouteDisagreementError,
    UnsupportedDimensionError,
)
from grepunit.verify import run_checks

from conftest import LISTED, apery_sum_coefficients

GOLDEN = validate(3, 3, 4)  # generators <40, 43, 52, 79>

# n = 200, b = 10^6: a on either side of b^n - 1 = 10^1200 - 1, far past any oracle
HUGE = ((1, 10**6, 200), (10**1200, 10**6, 200))

GOLDEN_APERY = [
    0, 43, 52, 79, 86, 95, 104, 122, 129, 131, 138, 147, 156, 158,
    165, 174, 181, 183, 190, 201, 208, 210, 217, 226, 233, 235, 237,
    244, 253, 260, 262, 269, 287, 296, 305, 312, 314, 339, 348, 391,
]


def test_coefficient_tuple_counts():
    for b, i in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 4)):
        assert len(closed_form.coefficient_tuples(b, i)) == repunit(b, i)


def test_coefficient_tuples_smallest_cases():
    assert closed_form.coefficient_tuples(2, 2) == [(0,), (1,), (2,)]
    assert set(closed_form.coefficient_tuples(2, 3)) == {
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2),
    }


def test_coefficient_tuple_structure():
    for tup in closed_form.coefficient_tuples(3, 4):
        assert all(0 <= u <= 3 for u in tup)
        if 3 in tup:
            first = tup.index(3)
            assert all(u == 0 for u in tup[:first])


def test_coefficient_tuples_sorted_and_distinct():
    tuples = closed_form.coefficient_tuples(4, 3)
    assert tuples == sorted(tuples)
    assert len(set(tuples)) == len(tuples)


def test_coefficient_tuples_cap_and_args():
    with pytest.raises(CapacityError):
        closed_form.coefficient_tuples(5, 6, cap=100)
    with pytest.raises(CapacityError):  # about 1.1e29 tuples: refused by default, before any is made
        closed_form.coefficient_tuples(10, 30)
    with pytest.raises(InvalidBaseError):
        closed_form.coefficient_tuples(1, 3)
    with pytest.raises(ValueError):
        closed_form.coefficient_tuples(3, 1)


def test_apery_set_golden():
    groups = closed_form.apery_set(GOLDEN)
    values = [*chain.from_iterable(groups)]
    assert sorted(values) == GOLDEN_APERY
    assert len(values) == GOLDEN.multiplicity
    assert [sorted(group) for group in groups[:2]] == [[0], [43, 52, 79]]  # zero, and the generators but m
    assert sum(values) == 7980
    assert max(values) == 391


def test_apery_set_smallest():
    # <3, 4>: the nonzero classes mod 3 are reached by 4 and 8
    assert closed_form.apery_set(validate(1, 2, 2)) == ((0,), (4,), (8,))


def test_apery_set_three_generators():
    # <7, 8, 10>: least member of each class mod 7
    values = [*chain.from_iterable(closed_form.apery_set(validate(1, 2, 3)))]
    assert sorted(values) == [0, 8, 10, 16, 18, 20, 26]
    assert sum(values) == 98


def test_apery_elements_carry_their_factorization(grid):
    tuples = {}
    for p in grid + [validate(1, 10, 5)]:
        if (p.b, p.n) not in tuples:
            tuples[p.b, p.n] = closed_form.coefficient_tuples(p.b, p.n)
        gens = p.generators()[1:]
        expected = [[] for _ in range(max(map(sum, tuples[p.b, p.n])) + 1)]
        for t in tuples[p.b, p.n]:
            expected[sum(t)].append(sum(u * g for u, g in zip(t, gens)))
        # every value in its length's group, and no group empty or left over
        assert [sorted(group) for group in closed_form.apery_set(p)] == [*map(sorted, expected)], p
        assert all(expected), p


def test_residue_check_accepts_full_residue_system():
    assert closed_form._residue_system(3, [[0], [7, 8]]) == ((0,), (7, 8))
    assert closed_form._residue_system(4, [[0], [9], [], [18, 27]]) == ((0,), (9,), (), (18, 27))


def test_residue_check_rejects_duplicate_residue():
    with pytest.raises(RouteDisagreementError):
        closed_form._residue_system(3, [[0], [7, 10]])


def test_residue_check_rejects_wrong_count():
    with pytest.raises(RouteDisagreementError):
        closed_form._residue_system(3, [[0], [7]])
    with pytest.raises(RouteDisagreementError):
        closed_form._residue_system(3, [[0], [7, 8], [9]])


def test_residue_check_rejects_nonzero_class_zero():
    with pytest.raises(RouteDisagreementError):
        closed_form._residue_system(3, [[3], [7, 8]])


def test_residue_check_keeps_zero_alone_in_group_zero():
    # a full residue system either way, but 0 has length 0 and nothing else does
    with pytest.raises(RouteDisagreementError, match="^3 values, not a residue system mod 3 with 0$"):
        closed_form._residue_system(3, [[7], [0, 8]])
    with pytest.raises(RouteDisagreementError, match="^3 values, not a residue system mod 3 with 0$"):
        closed_form._residue_system(3, [[0, 7], [8]])
    with pytest.raises(RouteDisagreementError):
        closed_form._residue_system(3, [[0], [7, 0]])


def colliding(params):
    """Stand-in for params whose a_2, ..., a_n are multiples of the
    multiplicity, so every value the builder makes falls in residue class 0."""
    gens = [k * params.multiplicity for k in range(1, params.n + 1)]
    return SimpleNamespace(a=params.a, b=params.b, n=params.n, multiplicity=gens[0], generators=lambda: gens)


@pytest.mark.parametrize("params, name", [(GOLDEN, "apery_levels"), (LISTED, "apery_set")])
def test_broken_construction_is_a_mismatch_row(monkeypatch, params, name):
    build = getattr(closed_form, name)
    with pytest.raises(RouteDisagreementError):
        build(colliding(params))
    monkeypatch.setattr(closed_form, name, lambda params, cap: build(colliding(params), cap))
    row = run_checks(params, ("apery",))[0]
    assert (row.closed, row.oracle, row.status) == (None, None, "mismatch")
    assert f"not a residue system mod {params.multiplicity} with 0" in row.note


def test_residue_levels_accept_a_full_residue_system():
    # {0, 7, 8} mod 3: level 1 held less 7, and less 4 in the other frame
    assert closed_form._residue_levels(3, 7, [1, 0b11]) == (7, (1, 0b11), 0b110000001)
    assert closed_form._residue_levels(3, 4, [1, 0b11000]).union == 0b110000001


@pytest.mark.parametrize("m, step, levels", [
    (3, 7, [1, 0b1001]),  # {0, 7, 10}: the class of 1 twice, of 2 never
    (3, 7, [1, 0b1]),  # {0, 7}: one class missed
    (3, 7, [1, 0b11, 0b1]),  # {0, 7, 8, 14}: one value too many
    (3, 7, [0b1000, 0b11]),  # {3, 7, 8}: no 0
    (3, 7, [0b10000001, 0b1]),  # {0, 7} in level 0, 8 in level 1: 0 not alone
    (3, 4, [1, 0b11000, 0b1]),  # {0, 7, 8}, with 8 in levels 1 and 2
    (4, 9, [1, 0b1, 0, 0]),  # {0, 9}: two of four classes, and empty levels
])
def test_residue_levels_reject_what_is_no_residue_system(m, step, levels):
    with pytest.raises(RouteDisagreementError, match=f"not a residue system mod {m} with 0$"):
        closed_form._residue_levels(m, step, levels)


def test_dropped_residue_class_raises_in_every_mode():
    # the lowest value of the top level dropped by the mask builder, with
    # asserts compiled away and without
    script = textwrap.dedent(
        """
        from grepunit import closed_form
        from grepunit.arith import validate

        real = closed_form._extend_masks

        def dropped(*args):
            *levels, top = real(*args)
            return [*levels, top & top - 1]

        closed_form._extend_masks = dropped
        print(__debug__)
        closed_form.apery_levels(validate(3, 3, 4))
        """
    )
    src = str(Path(closed_form.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for mode, debug in (([], "True"), (["-O"], "False")):
        proc = subprocess.run(
            [sys.executable, *mode, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.stdout.strip() == debug
        assert proc.returncode != 0
        assert "RouteDisagreementError: 39 values, not a residue system mod 40 with 0" in proc.stderr


def both_ways(monkeypatch, build, params):
    """`build(params)`'s masks, union and values, by masks and by lists."""
    out = []
    for most in (params.a, params.a - 1):  # the rule picks masks, then lists
        monkeypatch.setattr(closed_form, "APERY_MASK_MAX_A", most)
        closed = build(params)
        out.append(([*closed.masks()], closed.union_mask(), closed.values(oracle._set_bits)))
    return out


def test_level_masks_equal_the_lists(monkeypatch):
    # every all-checks grid triple, and seeded random ones with m <= 10^4
    # and a up to 10^4, on either side of the crossover
    triples = [(a, b, n) for b in range(2, 5) for n in range(2, 5) for a in range(1, 61)]
    rng = random.Random(36)
    families = [(b, n) for b in range(2, 11) for n in range(2, 14) if repunit(b, n) <= 10**4]
    while len(triples) < 540 + 40:
        a, (b, n) = int(10 ** rng.uniform(0, 4)), rng.choice(families)
        if math.gcd(a, repunit(b, n)) == 1:
            triples.append((a, b, n))
    sides = set()
    for a, b, n in triples:
        try:
            p = validate(a, b, n)
        except InvalidParametersError:
            continue
        sides.add(a > closed_form.APERY_MASK_MAX_A)
        masks, lists = both_ways(monkeypatch, closed_form.apery_levels, p)
        assert masks == lists, p
        if n > 2 and math.gcd(a, repunit(b, n - 1)) == 1:
            assert both_ways(monkeypatch, closed_form.apery_levels_recursive, p) == [masks, masks], p
    assert sides == {False, True}


def test_frobenius_golden_and_branches():
    assert closed_form.frobenius(GOLDEN) == 351  # a=3 < 80
    assert closed_form.frobenius(validate(5, 2, 2)) == 13  # a=5 > 3
    assert closed_form.frobenius(validate(1, 2, 3)) == 19


def test_frobenius_branch_point_is_unreachable():
    # a = b**n - 1 always shares a factor with the multiplicity
    with pytest.raises(NotCoprimeError):
        validate(3, 2, 2)
    with pytest.raises(NotCoprimeError):
        validate(80, 3, 4)


def test_genus_golden():
    assert closed_form.genus(GOLDEN) == 180
    assert closed_form.genus(validate(1, 2, 3)) == 11


def test_two_generator_formulas():
    for a in (1, 2, 4, 5, 7, 8):
        p = validate(a, 2, 2)
        g1, g2 = p.generators()
        assert closed_form.frobenius(p) == g1 * g2 - g1 - g2
        assert closed_form.genus(p) == (g1 - 1) * (g2 - 1) // 2


def test_apery_sum_coefficients_golden():
    assert apery_sum_coefficients(3, 4) == [54, 45, 42]
    assert closed_form.apery_sum(GOLDEN) == 7980


def test_apery_sum_smallest_cases():
    assert closed_form.apery_sum(validate(1, 2, 3)) == 98
    assert sum(apery_sum_coefficients(2, 2)) == 3
    assert sum(apery_sum_coefficients(2, 3)) == 11


def test_length_sum_matches_enumeration():
    for b, i in ((2, 3), (3, 3), (4, 2), (2, 5)):
        tuples = closed_form.coefficient_tuples(b, i)
        assert sum(apery_sum_coefficients(b, i)) == sum(sum(t) for t in tuples)


def test_apery_sum_matches_enumeration():
    for a, b, n in ((1, 2, 4), (7, 3, 3), (11, 5, 2)):
        p = validate(a, b, n)
        assert closed_form.apery_sum(p) == sum(chain.from_iterable(closed_form.apery_set(p)))


def test_one_pass_sums_match_the_direct_formulas(grid):
    # the paper's formula as written, each term on its own
    for p in grid:
        gens, b, n = p.generators(), p.b, p.n
        direct = [gens[i - 1] + (b - 1) * sum(gens[i - 1 :]) for i in range(2, n + 1)]
        assert closed_form.apery_maximals(p) == direct, p


def test_pseudo_frobenius_golden():
    assert closed_form.pseudo_frobenius(GOLDEN) == [197, 274, 351]
    assert closed_form.pseudo_frobenius(validate(1, 2, 3)) == [13, 19]


def test_apery_maximals_golden():
    assert closed_form.apery_maximals(GOLDEN) == [391, 314, 237]
    assert closed_form.apery_maximals(validate(1, 2, 3)) == [26, 20]


def test_maximals_give_pseudo_frobenius():
    for a, b, n in ((3, 3, 4), (1, 2, 5), (44, 5, 3), (59, 2, 4)) + HUGE:
        p = validate(a, b, n)
        alphas = closed_form.apery_maximals(p)
        pf = sorted(x - p.multiplicity for x in alphas)
        assert pf == closed_form.pseudo_frobenius(p)
        step = b**n - 1 - a
        assert all(x - y == step for x, y in zip(alphas, alphas[1:]))


def test_closed_form_identities_at_huge_size():
    for a, b, n in HUGE:
        p = validate(a, b, n)
        report = closed_form.invariant_report(p)
        assert report.type == n - 1
        assert report.wilf_ok
        assert max(report.pseudo_frobenius) == report.frobenius
        gen = p.generator
        for i, j in ((1, 1), (1, n - 1), (57, 31), (n - 1, 1)):
            assert b * gen(i) + gen(i + j) == b * gen(i + j - 1) + gen(i + 1)
        for i in (1, 2, n):
            assert gen(n + i) == gen(i) + a * b ** (i - 1) * p.multiplicity
        gens = p.generators()
        assert all(sum(map(mul, row, gens)) == 0 for row in closed_form.lattice_matrix(p))


# one-line faults that keep every other closed formula as it is
PLANTED_FAULTS = {
    "genus": lambda real, p: real(p) + 2,
    "apery_sum": lambda real, p: real(p) + p.multiplicity,
    "apery_maximals": lambda real, p: [real(p)[0] + p.b**p.n - 1 - p.a, *real(p)[1:]],
    # the smallest value moved: the count and the largest value, F, are kept
    "pseudo_frobenius": lambda real, p: [real(p)[0] + 1, *real(p)[1:]],
}


@pytest.mark.parametrize("triple", HUGE, ids=["a=1", "a=10^1200"])
@pytest.mark.parametrize("name", list(PLANTED_FAULTS))
def test_report_catches_a_planted_fault_without_the_oracle(capsys, monkeypatch, name, triple):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(oracle, "basic_invariants", no_oracle)
    real, fault = getattr(closed_form, name), PLANTED_FAULTS[name]
    monkeypatch.setattr(closed_form, name, lambda p: fault(real, p))
    with pytest.raises(RouteDisagreementError):
        closed_form.invariant_report(validate(*triple))
    a, b, n = map(str, triple)
    code = main(["report", "-a", a, "-b", b, "-n", n, "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)["error"], err) == (EXIT_MISMATCH, "route-disagreement", "")


def test_apery_sum_is_the_coefficient_form(grid):
    for p in [*grid, *(validate(*t) for t in HUGE)]:
        coeffs = apery_sum_coefficients(p.b, p.n)
        assert closed_form.apery_sum(p) == sum(c * g for c, g in zip(coeffs, p.generators()[1:])), p


def test_recursive_apery_matches_direct():
    for a, b, n in ((1, 2, 3), (1, 2, 4), (3, 3, 4), (7, 5, 3), (23, 2, 5)):
        p = validate(a, b, n)
        direct = closed_form.apery_set(p)
        lifted = closed_form.apery_set_recursive(p)
        assert lifted == direct


def test_recursive_apery_argument_checks():
    with pytest.raises(UnsupportedDimensionError, match="^recursive construction needs n >= 3$"):
        closed_form.apery_set_recursive(validate(1, 2, 2))
    # (2, 5, 3) is valid but (2, 5, 2) has gcd(6, 2) = 2
    with pytest.raises(UnsupportedDimensionError, match=r"^smaller triple invalid: gcd\(repunit\(5, 2\), 2\)"):
        closed_form.apery_set_recursive(validate(2, 5, 3))


def test_recursive_apery_respects_cap(monkeypatch):
    # the smaller triple (m = 11111) fits the cap; the lifted one (m = 111111) does not
    def refuse(params, cap):
        pytest.fail("the lift built its base before checking its own size")

    monkeypatch.setattr(closed_form, "apery_set", refuse)
    with pytest.raises(CapacityError, match="111111 coefficient tuples exceed cap 50000"):
        closed_form.apery_set_recursive(validate(1, 10, 6), cap=50000)


def test_homogeneous_golden(monkeypatch):
    assert run_checks(GOLDEN, ("homogeneous",))[0].status == "match"

    # a second length planted on one element breaks homogeneity: the
    # least element of the top level k is put in a level k + 1 as well
    real = oracle.apery_levels

    def planted(inv):
        levels = list(real(inv))
        top = levels[-1]
        return levels + [top & -top]

    monkeypatch.setattr(oracle, "apery_levels", planted)
    assert run_checks(GOLDEN, ("homogeneous",))[0].status == "mismatch"


def moved_up(real, params, cap):
    # one nonzero value moved up by m, in its class and its length
    zero, (first, *rest), *groups = real(params, cap)
    return (zero, (first + params.multiplicity, *rest), *groups)


def level_moved_up(real, params, cap):
    # the least value of level 1, a_2, moved up by m, in its class and length
    closed, m = real(params, cap), params.multiplicity
    zero, first, *levels = closed.levels
    return closed_form._residue_levels(m, closed.step, [zero, first ^ 1 | 1 << m, *levels])


@pytest.mark.parametrize("params, name, fault", [
    (GOLDEN, "apery_levels", level_moved_up),
    (LISTED, "apery_set", moved_up),
])
def test_homogeneous_compares_the_values_too(monkeypatch, params, name, fault):
    # a moved value stays in its residue class and keeps its length, so
    # only the value test can catch it
    real = getattr(closed_form, name)
    assert run_checks(params, ("homogeneous",))[0].status == "match"
    monkeypatch.setattr(closed_form, name, lambda params, cap: fault(real, params, cap))
    assert run_checks(params, ("homogeneous",))[0].status == "mismatch"


def member_table(params) -> tuple[int, int]:
    """Oracle membership mask and Frobenius number F for the semigroup of params."""
    inv = oracle.basic_invariants(oracle.GenericSemigroup.from_values(params.generators()))
    return inv.sieve, inv.frobenius


@pytest.mark.parametrize("params, name", [(GOLDEN, "apery_levels"), (LISTED, "apery_set")])
def test_run_checks_builds_the_closed_apery_set_once(monkeypatch, params, name):
    built = []
    real = getattr(closed_form, name)

    def counting(params, cap=closed_form.DEFAULT_APERY_CAP):
        built.append(params)
        return real(params, cap)

    monkeypatch.setattr(closed_form, name, counting)
    rows = run_checks(params, ("apery", "homogeneous", "recursive"))
    assert [r.status for r in rows] == ["match"] * 3
    # the recursive lift builds its smaller triple's set for itself
    assert built == [params, validate(params.a, params.b, params.n - 1)]
    groups = closed_form.apery_set(params)
    assert type(groups) is tuple and {type(group) for group in groups} == {tuple}


def test_every_exported_name_resolves():
    for name in grepunit.__all__:
        assert hasattr(grepunit, name), name


def test_affine_closure_golden():
    assert closed_form.affine_closure_ok(GOLDEN, *member_table(GOLDEN))
    p = validate(5, 2, 2)
    assert closed_form.affine_closure_ok(p, *member_table(p))


def test_affine_closure_reads_no_bit_above_the_frobenius_number():
    # every integer above F counts as a member, whatever its bit says
    members, f = member_table(GOLDEN)
    assert f == 351 and members >> f + 1 & 1
    assert closed_form.affine_closure_ok(GOLDEN, members ^ 1 << f + 1, f)
    assert closed_form.affine_closure_ok(GOLDEN, members & (1 << f + 1) - 1, f)


def test_affine_closure_fails_when_the_image_of_top_is_missing():
    # <7, 10, 16>, shift -4: top = (F - shift) // b = 16, the last source
    # compared, is a member with image 28 just below F = 29
    p = validate(3, 2, 3)
    members, f = member_table(p)
    assert (f, (f + 4) // 2) == (29, 16)
    assert members >> 16 & 1 and members >> 28 & 1
    assert not closed_form.affine_closure_ok(p, members ^ 1 << 28, f)


def test_affine_closure_fails_when_an_image_is_missing():
    # shift = 3 - 80: the image of a_1 = 40 is a_2 = 43, a member below F = 351
    members, f = member_table(GOLDEN)
    assert members >> 40 & 1 and members >> 43 & 1
    assert not closed_form.affine_closure_ok(GOLDEN, members ^ 1 << 43, f)


def test_affine_closure_fails_on_a_member_with_negative_image():
    # 3*25 - 77 < 0: were 25 a member, its image could not be
    members, f = member_table(GOLDEN)
    assert not closed_form.affine_closure_ok(GOLDEN, members | 1 << 25, f)
    # <7, 10, 16>, shift -4: 2 is the least s whose image is not negative
    p = validate(3, 2, 3)
    members, f = member_table(p)
    assert closed_form.affine_closure_ok(p, members, f)
    assert not closed_form.affine_closure_ok(p, members | 1 << 1, f)


def test_affine_closure_fails_on_a_broken_generator_identity():
    p = validate(5, 2, 2)  # <3, 8>, shift 2: 2*3 + 2 == 8
    members, f = member_table(p)
    fake = lambda gens: SimpleNamespace(a=p.a, b=p.b, n=p.n, generators=lambda: gens)
    assert closed_form.affine_closure_ok(fake([3, 8]), members, f)
    assert not closed_form.affine_closure_ok(fake([3, 9]), members, f)


def annihilates(rows, vector) -> bool:
    return all(sum(map(mul, row, vector)) == 0 for row in rows)


def test_lattice_matrix_golden():
    rows = closed_form.lattice_matrix(GOLDEN)
    assert rows == (
        (3, -4, 1, 0),
        (0, 3, -4, 1),
        (4, 0, 3, -4),
    )
    assert annihilates(rows, GOLDEN.generators())


def test_lattice_matrix_smallest():
    rows = closed_form.lattice_matrix(validate(1, 2, 3))
    assert rows == ((2, -3, 1), (2, 2, -3))
    assert annihilates(rows, (7, 8, 10))


def test_lattice_matrix_rejects_two_generators():
    with pytest.raises(UnsupportedDimensionError, match="^lattice matrix needs n >= 3$"):
        closed_form.lattice_matrix(validate(1, 2, 2))


def test_maximal_minors_golden():
    minors = closed_form.maximal_minors(closed_form.lattice_matrix(GOLDEN))
    assert minors == [-40, 43, -52, 79]
    assert [abs(m) for m in minors] == GOLDEN.generators()


def test_maximal_minors_smallest():
    minors = closed_form.maximal_minors(closed_form.lattice_matrix(validate(1, 2, 3)))
    assert minors == [7, -8, 10]
    assert math.gcd(*minors) == 1


def test_maximal_minors_small_matrices():
    assert closed_form.maximal_minors(((1, 0, 2), (0, 1, 3))) == [-2, 3, 1]
    # zero leading pivot forces the row-swap path
    assert closed_form.maximal_minors(((0, 1, 4), (1, 0, 2))) == [2, -4, -1]
    assert closed_form.maximal_minors(((5, 7),)) == [7, 5]
    assert closed_form.maximal_minors(((1, 2, 3), (2, 4, 6))) == [0, 0, 0]  # rank 1
    # the free column 2 is met before the last pivot, and is brought along after it
    assert closed_form.maximal_minors(((0, 3, 0, 0), (0, -2, 0, -2), (3, 0, -4, 2))) == [-24, 0, -18, 0]
    assert closed_form.maximal_minors(((0, 1, 2), (0, 3, 4))) == [-2, 0, 0]  # the free column is 0
    rows = [[0, 1, 4], [1, 0, 2]]
    assert closed_form.maximal_minors(rows) == [2, -4, -1]
    assert rows == [[0, 1, 4], [1, 0, 2]]  # the input rows are left as they were


def laplace_det(m) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * laplace_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0]) if x
    )


def test_maximal_minors_match_cofactor_expansion():
    # seeded random (n-1) x n matrices, n = 2..7, with many zero entries;
    # every fourth has a row that is the sum of two others, so rank < n - 1
    rng = random.Random(20260420)
    swaps = deficient = early = 0
    for t in range(2400):
        n = rng.randint(2, 7)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n)] for _ in range(n - 1)]
        if n >= 4 and t % 4 == 0:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
        expected = [laplace_det([row[:j] + row[j + 1 :] for row in rows]) for j in range(n)]
        assert closed_form.maximal_minors(tuple(map(tuple, rows))) == expected, rows
        swaps += rows[0][0] == 0 and any(expected)
        deficient += not any(expected)
        early += any(expected) and expected[-1] == 0  # the last nonzero minor is not the last one
    assert swaps > 200 and deficient > 200 and early > 200


def test_lattice_minors_at_n_128():
    p = validate(1, 2, 128)
    rows = closed_form.lattice_matrix(p)
    minors = closed_form.maximal_minors(rows)
    assert [abs(x) for x in minors] == p.generators()
    assert all(x * y < 0 for x, y in zip(minors, minors[1:]))
    assert annihilates(rows, p.generators())


def test_invariant_report_golden():
    report = closed_form.invariant_report(validate(1, 2, 3))
    assert report.generators == (7, 8, 10)
    assert report.frobenius == 19
    assert report.genus == 11
    assert report.pseudo_frobenius == (13, 19)
    assert report.type == 2
    assert report.n_of_s == 9
    assert report.wilf_ok
    assert report.source == "closed-form"

    report = closed_form.invariant_report(GOLDEN)
    assert report.genus == 180
    assert report.apery_sum == 7980


def test_route_disagreement_raises(monkeypatch):
    real = closed_form.frobenius
    monkeypatch.setattr(closed_form, "frobenius", lambda params: real(params) + 1)
    with pytest.raises(RouteDisagreementError):
        closed_form.pseudo_frobenius(GOLDEN)


def test_route_disagreement_survives_optimized_mode():
    script = textwrap.dedent(
        """
        from grepunit import closed_form
        from grepunit.arith import validate

        real = closed_form.frobenius
        closed_form.frobenius = lambda params: real(params) + 1
        print(__debug__)
        closed_form.pseudo_frobenius(validate(3, 3, 4))
        """
    )
    src = str(Path(closed_form.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout.strip() == "False"  # assert statements are compiled away
    assert proc.returncode != 0
    assert "RouteDisagreementError" in proc.stderr


def test_closed_form_never_imports_oracle():
    tree = ast.parse(Path(closed_form.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            assert not any("oracle" in name for name in names), ast.unparse(node)
