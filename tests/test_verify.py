"""Comparison engine: statuses, sweeps and the oracle-built report."""

import ast
import functools
import gc
import json
import math
import sys
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grepunit import closed_form, oracle, verify
from grepunit.arith import repunit, validate
from grepunit.closed_form import frobenius, invariant_report
from grepunit.errors import (
    CapacityError,
    InvalidShiftError,
    NotCoprimeError,
    RouteDisagreementError,
    UnsupportedDimensionError,
)
from grepunit.verify import (
    CHECK_NAMES,
    CHECKS,
    STATUS_INVALID,
    STATUS_MATCH,
    STATUS_MISMATCH,
    STATUS_SKIPPED_CAPACITY,
    STATUS_SKIPPED_UNSUPPORTED,
    SweepSpec,
    oracle_bundle,
    oracle_report,
    run_checks,
    sweep,
)

from conftest import LISTED

# off the acceptance grid: b <= 10, n <= 6, multiplicity r_b(n) <= 3000
SHAPES = [(b, n) for b in range(2, 11) for n in range(2, 7) if repunit(b, n) <= 3000]
F_MAX = 2 * 10**5  # keeps the affine check's walk up to F + 2m short


@st.composite
def off_grid_params(draw):
    """Valid triples of SHAPES with a below or above b^n - 1 and F <= F_MAX."""
    b, n = draw(st.sampled_from(SHAPES))
    top, m = b**n - 1, repunit(b, n)
    # F = (n-1)(top - a) + a*m below top and top - a + a*m above; both grow with a
    below = (F_MAX - (n - 1) * top) // (m - n + 1)
    above = (F_MAX - top) // (m - 1)
    sides = [st.integers(1, min(top - 1, below))]
    if above > top:
        sides.append(st.integers(top + 1, above))
    a = draw(st.one_of(sides))
    assume(math.gcd(a, m) == 1)
    return validate(a, b, n)


def test_all_checks_match_on_golden_point():
    rows = run_checks(validate(3, 3, 4))
    assert [r.check for r in rows] == list(CHECK_NAMES)
    assert all(r.status == STATUS_MATCH for r in rows)
    assert all(r.ok for r in rows)


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_checks(validate(1, 2, 2), ("frobeniuss",))


def refuse_every_check(monkeypatch):
    for name in CHECK_NAMES:
        monkeypatch.setitem(CHECKS, name, lambda params, shared, name=name: pytest.fail(f"{name} ran"))


def test_refused_bundle_is_every_row_and_runs_no_check(monkeypatch):
    refuse_every_check(monkeypatch)
    rows = run_checks(validate(3, 3, 4), cap=100)
    assert [(r.check, r.status, r.note) for r in rows] == [
        (name, STATUS_SKIPPED_CAPACITY, "sieve bound 470 exceeds capacity cap 100") for name in CHECK_NAMES
    ]


def test_disagreeing_bundle_is_every_row_and_runs_no_check(monkeypatch):
    def disagree(inv):
        raise RouteDisagreementError("pseudo-Frobenius routes disagree: planted")

    monkeypatch.setattr(oracle, "pseudo_frobenius", disagree)
    refuse_every_check(monkeypatch)
    rows = run_checks(validate(3, 3, 4))
    assert [(r.check, r.closed, r.oracle, r.status, r.note) for r in rows] == [
        (name, None, None, STATUS_MISMATCH, "pseudo-Frobenius routes disagree: planted") for name in CHECK_NAMES
    ]


@pytest.mark.parametrize("cap", [oracle.DEFAULT_SIEVE_CAP, 100])
def test_unknown_check_is_rejected_before_the_bundle(monkeypatch, cap):
    monkeypatch.setattr(verify, "oracle_bundle", lambda params, cap: pytest.fail("bundle built"))
    with pytest.raises(ValueError, match="unknown check 'frobeniuss'"):
        run_checks(validate(3, 3, 4), ("frobenius", "frobeniuss"), cap)


def test_no_checks_build_no_bundle(monkeypatch):
    monkeypatch.setattr(verify, "oracle_bundle", lambda params, cap: pytest.fail("bundle built"))
    assert run_checks(validate(3, 3, 4), ()) == []


@pytest.mark.parametrize("triple, builds", [
    ((1, 2, 2), {"minors": closed_form.lattice_matrix, "recursive": closed_form.apery_set_recursive}),
    ((3, 3, 2), {"minors": closed_form.lattice_matrix, "recursive": closed_form.apery_set_recursive}),
    ((2, 5, 3), {"recursive": closed_form.apery_set_recursive}),  # (2, 5, 2) is invalid
])
def test_unsupported_notes_are_the_closed_form_errors(triple, builds):
    # the closed-form constructions alone decide that they do not apply
    p = validate(*triple)
    for row in run_checks(p, tuple(builds)):
        with pytest.raises(UnsupportedDimensionError) as raised:
            builds[row.check](p)
        assert (row.status, row.note) == (STATUS_SKIPPED_UNSUPPORTED, str(raised.value))


def test_structural_checks_skip_two_generator_points():
    p = validate(1, 2, 2)
    assert run_checks(p, ("minors",))[0].status == STATUS_SKIPPED_UNSUPPORTED
    assert run_checks(p, ("recursive",))[0].status == STATUS_SKIPPED_UNSUPPORTED


def test_recursive_skips_when_smaller_triple_invalid():
    # (2, 5, 3) is valid but (2, 5, 2) has gcd(6, 2) = 2
    row = run_checks(validate(2, 5, 3), ("recursive",))[0]
    assert row.status == STATUS_SKIPPED_UNSUPPORTED
    assert "invalid" in row.note


def test_one_cap_bounds_the_apery_checks():
    # (3, 3, 4): the bundle sieves up to max Ap + max gen = 470, so the
    # Apéry checks, like every other, run from a cap of 471 on
    checks = ("apery", "homogeneous", "recursive")
    rows = run_checks(validate(3, 3, 4), checks, 470)
    assert [(r.status, r.note) for r in rows] == [
        (STATUS_SKIPPED_CAPACITY, "sieve bound 470 exceeds capacity cap 470")
    ] * 3
    assert [r.status for r in run_checks(validate(3, 3, 4), checks, 471)] == [STATUS_MATCH] * 3


def test_homogeneous_skips_beyond_apery_cap(monkeypatch):
    # the one cap bounds the homogeneous check: the oracle's level pass
    # never runs on a bundle that the cap refuses
    def refuse(inv):
        pytest.fail("the oracle pass ran before the cap was checked")

    monkeypatch.setattr(oracle, "apery_levels", refuse)
    row = run_checks(validate(3, 3, 4), ("homogeneous",), 470)[0]
    assert row.status == STATUS_SKIPPED_CAPACITY
    assert row.note == "sieve bound 470 exceeds capacity cap 470"


@pytest.mark.parametrize("check", ["apery", "homogeneous", "recursive"])
def test_apery_cap_refuses_before_the_oracle_bundle(monkeypatch, check):
    # the cap that bounds the Apéry checks refuses the bundle before its
    # membership table or its pseudo-Frobenius pass is built
    def unreachable(*args):
        pytest.fail("the oracle bundle was built before the cap was checked")

    for name in ("_closure", "_window_closure", "pseudo_frobenius"):
        monkeypatch.setattr(oracle, name, unreachable)
    row = run_checks(validate(3, 3, 4), (check,), 100)[0]
    assert row.status == STATUS_SKIPPED_CAPACITY
    assert row.note == "sieve bound 470 exceeds capacity cap 100"


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_sieve_refusal_keeps_precedence_over_the_apery_cap(check):
    # 2m = 80 cells over the sieve cap is refused before the Apéry stage,
    # on every row, the closed-form Apéry checks' and the unsupported ones' included
    row = run_checks(validate(3, 3, 4), (check,), 79)[0]
    assert row.status == STATUS_SKIPPED_CAPACITY
    assert row.note.startswith("multiplicity 40 needs a sieve bound of at least 79")


def test_unsupported_recursive_row_is_not_refused_on_the_apery_cap():
    # n = 2 has no smaller triple, even at the least cap that the bundle
    # of <4, 7> (sieve bound max Ap + max gen = 28) fits
    row = run_checks(validate(3, 3, 2), ("recursive",), 29)[0]
    assert row.status == STATUS_SKIPPED_UNSUPPORTED


def test_empty_length_mask_is_a_mismatch_row(monkeypatch):
    # an oracle that forgets the generator 43 finds no factorization of it
    real = oracle.apery_levels
    forgetful = lambda inv: real(inv._replace(semigroup=oracle.GenericSemigroup((40, 52, 79))))
    monkeypatch.setattr(oracle, "apery_levels", forgetful)
    row = run_checks(validate(3, 3, 4), ("homogeneous",))[0]
    assert row.status == STATUS_MISMATCH
    assert (row.closed, row.oracle) == (None, None)
    assert row.note == "Apéry element 43 is no sum of the generators"


def test_the_fault_triples_sit_on_either_side_of_the_crossover():
    assert 3 <= closed_form.APERY_MASK_MAX_A < LISTED.a


def same_sum_other_values(real, params, cap):
    # one value up by m and one down by m: the same residues, size and sum
    zero, (first, second, *rest), *groups = real(params, cap=cap)
    m = params.multiplicity
    return (zero, (first + m, second - m, *rest), *groups)


def one_length_off(real, params, cap):
    # the last value of the top group moved to a new group past it
    *groups, (*top, last) = real(params, cap=cap)
    return (*groups, tuple(top), (last,))


def _high(mask):
    return 1 << mask.bit_length() - 1


def same_sum_other_levels(real, params, cap):
    # the largest values of the top two levels, one up by m and one down by
    # m: the same residues, size and sum, each in its own level still
    closed, m = real(params, cap=cap), params.multiplicity
    *levels, below, top = closed.levels
    below, top = below ^ _high(below) | _high(below) >> m, top ^ _high(top) | _high(top) << m
    return closed_form._residue_levels(m, closed.step, [*levels, below, top])


def one_level_off(real, params, cap):
    # the largest value of the top level moved to a new level past it
    closed = real(params, cap=cap)
    *levels, top = closed.levels
    moved = [*levels, top ^ _high(top), _high(top) >> closed.step]
    return closed_form._residue_levels(params.multiplicity, closed.step, moved)


def lifted_by_a_lower_power(real, params, cap):
    # the lift of apery_levels_recursive, not called, with b**(n-2) for b**(n-1)
    base = closed_form.apery_levels(validate(params.a, params.b, params.n - 1), cap=None)
    step = base.step + params.b ** (params.n - 2)
    levels = closed_form._extend_masks(base.levels, step, params.generators()[-1:], params.b)
    return closed_form._residue_levels(params.multiplicity, step, levels)


@pytest.mark.parametrize("triple, name, fault", [
    ((3, 3, 4), "apery_levels", one_level_off),
    (LISTED, "apery_set", one_length_off),
])
def test_closed_length_past_the_top_level_is_a_mismatch_row(monkeypatch, triple, name, fault):
    # one element's length raised past the top level leaves a closed
    # level that no oracle level answers
    real = getattr(closed_form, name)
    monkeypatch.setattr(closed_form, name, functools.partial(fault, real))
    row = run_checks(validate(*triple), ("homogeneous",))[0]
    assert (row.closed, row.oracle, row.status, row.note) == (True, False, STATUS_MISMATCH, "")


def absolute_minors(real, matrix):
    return [abs(minor) for minor in real(matrix)]


def sum_off_by_one(real, params):
    return real(params) + 1


@pytest.mark.parametrize(
    "triple, check, name, fault",
    [
        ((3, 3, 4), "apery", "apery_levels", same_sum_other_levels),
        ((3, 3, 4), "recursive", "apery_levels_recursive", one_level_off),
        ((3, 3, 4), "recursive", "apery_levels_recursive", lifted_by_a_lower_power),
        (LISTED, "apery", "apery_set", same_sum_other_values),
        (LISTED, "recursive", "apery_set_recursive", one_length_off),
        ((3, 3, 4), "minors", "maximal_minors", absolute_minors),
        ((3, 3, 4), "apery", "apery_sum", sum_off_by_one),
        (LISTED, "apery", "apery_sum", sum_off_by_one),
    ],
)
def test_planted_closed_form_fault_is_a_mismatch_row(monkeypatch, triple, check, name, fault):
    real = getattr(closed_form, name)
    monkeypatch.setattr(closed_form, name, functools.partial(fault, real))
    row = run_checks(validate(*triple), (check,))[0]
    assert row.status == STATUS_MISMATCH


def test_lift_by_a_lower_power_is_no_residue_system():
    # the frame of b**(n-2) misplaces the lifted levels of (3, 3, 4)
    with pytest.raises(RouteDisagreementError, match="not a residue system mod 40 with 0$"):
        lifted_by_a_lower_power(None, validate(3, 3, 4), None)


@pytest.mark.parametrize("triple, cap, note", [
    ((3, 3, 4), 100, "sieve bound 470 exceeds capacity cap 100"),
    (LISTED, 10**5, "sieve bound 520524 exceeds capacity cap 100000"),
])
def test_refused_bundle_spares_the_closed_apery_build(monkeypatch, triple, cap, note):
    def unbuilt(params, cap):
        pytest.fail("the closed-form Apéry set was built for a refused oracle bundle")

    for name in ("apery_levels", "apery_levels_recursive", "apery_set", "apery_set_recursive"):
        monkeypatch.setattr(closed_form, name, unbuilt)
    rows = run_checks(validate(*triple), ("apery", "homogeneous", "recursive"), cap)
    assert {(r.status, r.note) for r in rows} == {(STATUS_SKIPPED_CAPACITY, note)}


@pytest.mark.parametrize("triple, name", [((3, 3, 4), "apery_levels"), (LISTED, "apery_set")])
def test_run_checks_leaves_no_cyclic_garbage(monkeypatch, triple, name):
    # a reference cycle through the per-triple memo would keep the
    # triple's tables alive until the cyclic collector ran; so would one
    # through a closed-form route disagreement, which reaches each row
    # that reads the closed Apéry set
    def disagree(params, cap):
        raise RouteDisagreementError("closed Apéry set disagrees: planted")

    p = validate(*triple)
    run_checks(p)
    gc.collect()
    gc.disable()
    try:
        for cap in (oracle.DEFAULT_SIEVE_CAP, 100, 10):
            run_checks(p, cap=cap)
            assert gc.collect() == 0, cap
        monkeypatch.setattr(closed_form, name, disagree)
        rows = run_checks(p)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [(r.check, r.status, r.note) for r in rows if r.status != STATUS_MATCH] == [
        (check, STATUS_MISMATCH, "closed Apéry set disagrees: planted")
        for check in ("apery", "homogeneous", "recursive")
    ]


def test_shared_inputs_are_slotted():
    p = validate(3, 3, 4)
    assert not hasattr(verify._Shared(p, oracle_bundle(p, oracle.DEFAULT_SIEVE_CAP)), "__dict__")


def test_agreeing_routes_report_the_closed_object():
    rows = run_checks(validate(3, 3, 4), ("frobenius", "genus", "apery", "pf", "type", "wilf", "recursive"))
    assert all(r.status == STATUS_MATCH and r.oracle is r.closed for r in rows)


def test_apery_check_reports_digests():
    row = run_checks(validate(3, 3, 4), ("apery",))[0]
    assert row.status == STATUS_MATCH
    assert row.closed == row.oracle
    assert row.closed["size"] == 40
    assert row.closed["sum"] == 7980
    assert row.closed["max"] == 391


@pytest.mark.parametrize("triple", [(3, 3, 4), LISTED])
def test_apery_and_recursive_share_one_digest_of_the_closed_set(monkeypatch, triple):
    digested = []
    real = verify._digest
    monkeypatch.setattr(verify, "_digest", lambda values: digested.append(list(values)) or real(values))
    p = validate(*triple)
    rows = run_checks(p, ("apery", "recursive"))
    assert [r.status for r in rows] == [STATUS_MATCH, STATUS_MATCH]
    assert rows[0].closed == rows[0].oracle == rows[1].closed == rows[1].oracle
    assert digested == [sorted(chain.from_iterable(closed_form.apery_set(p)))]


def test_oracle_report_agrees_with_closed_report():
    for a, b, n in ((1, 2, 3), (3, 3, 4), (5, 2, 2), (44, 5, 3)):
        p = validate(a, b, n)
        closed = invariant_report(p)
        brute = oracle_report(p)
        assert brute.source == "oracle"
        assert brute.generators == closed.generators
        assert brute.frobenius == closed.frobenius
        assert brute.genus == closed.genus
        assert brute.pseudo_frobenius == closed.pseudo_frobenius
        assert brute.type == closed.type
        assert brute.apery_sum == closed.apery_sum
        assert brute.n_of_s == closed.n_of_s
        assert brute.wilf_ok == closed.wilf_ok


def test_oracle_report_apery_sum_is_the_element_sum_of_the_mask(grid):
    # Selmer's identity on the genus gives the sum of the Apéry mask's
    # elements, on both Apéry routes: the round-robin's and the windows'
    windowed = validate(1, 7, 4)  # m = 400
    assert windowed.generators()[0] >= oracle.APERY_WINDOW_MIN
    for p in [*grid, windowed]:
        mask = oracle_bundle(p, oracle.DEFAULT_SIEVE_CAP).invariants.apery_mask
        assert oracle_report(p).apery_sum == sum(oracle._set_bits(mask))


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str digit limit, which library
    callers run under (only `cli.main` lifts it), restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_notes_on_huge_values_format_under_the_digit_limit(default_digit_limit, monkeypatch):
    huge = validate(1, 10, 5000)  # m has 5000 digits, 16607 bits
    rows = run_checks(huge)
    assert [r.status for r in rows] == [STATUS_SKIPPED_CAPACITY] * 10
    assert rows[0].note == (
        "multiplicity <int of 16607 bits> needs a sieve bound of at least <int of 16608 bits>, "
        "which exceeds capacity cap 100000000"
    )
    gap = oracle.GenericSemigroup((3, 2**40000 + 1))
    big = 10**5000  # 16610 bits
    refusals = [
        (CapacityError, "^multiplicity <int of 16607 bits>", lambda: oracle_report(huge)),
        (CapacityError, "^<int of 16607 bits> coefficient tuples", lambda: closed_form.apery_set(huge)),
        (CapacityError, "^<int of 16607 bits> coefficient", lambda: closed_form.coefficient_tuples(10, 5000)),
        (InvalidShiftError, "^shift a must be >= 1, got -<int of 16610 bits>$", lambda: validate(-big, 10, 3)),
        (NotCoprimeError, r"^gcd\(repunit\(10, 3\), <int of 16612 bits>\) = 3", lambda: validate(3 * big, 10, 3)),
        (CapacityError, "^sieve bound <int of 40002 bits> exceeds", lambda: oracle.basic_invariants(gap)),
        (ValueError, r"^generators must be positive: \(0, <int of 16610 bits>\)$",
         lambda: oracle.GenericSemigroup((0, big))),
        (ValueError, r"^generators must be ascending and distinct: \(<int of 16610 bits>, 3\)$",
         lambda: oracle.GenericSemigroup((big, 3))),
        (ValueError, r"^gcd\(<int of 16610 bits>, <int of 16611 bits>\) = <int of 16610 bits>, must be 1 ",
         lambda: oracle.GenericSemigroup((big, 2 * big))),
        (ValueError, r"^5 is not an element of the semigroup \(<int of 16610 bits>, <int of 16610 bits>\)$",
         lambda: oracle.apery_set(oracle.GenericSemigroup((big, big + 1)), 5)),
        (ValueError, "^repunit length must be >= 0, got -<int of 16610 bits>$", lambda: repunit(10, -big)),
        (ValueError, "^generator index must be >= 1, got -<int of 16610 bits>$", lambda: huge.generator(-big)),
        (ValueError, "^need a positive element, got -<int of 16610 bits>$", lambda: oracle.apery_set(gap, -big)),
        (ValueError, "^need i >= 2, got -<int of 16610 bits>$", lambda: closed_form.coefficient_tuples(10, -big)),
        (ValueError, r"^empty a range <int of 16610 bits>\.\.1$", lambda: SweepSpec((big, 1), (2, 2), (2, 2))),
        (ValueError, "^b range must start at 2 or above, got -<int of 16610 bits>$",
         lambda: SweepSpec((1, 1), (-big, 2), (2, 2))),
        (ValueError, "^n range must start at 2 or above, got -<int of 16610 bits>$",
         lambda: SweepSpec((1, 1), (2, 2), (-big, 2))),
    ]
    for error, note, call in refusals:
        with pytest.raises(error, match=note):
            call()
    # planted faults in the closed-form cross-checks, at the same size
    real_sum, real_maximals, real_f = closed_form.apery_sum, closed_form.apery_maximals, closed_form.frobenius
    monkeypatch.setattr(closed_form, "apery_sum", lambda p: real_sum(p) + 1)
    with pytest.raises(RouteDisagreementError, match="^Apéry sum <int of .* = <int of"):
        invariant_report(huge)
    monkeypatch.setattr(closed_form, "apery_sum", real_sum)
    monkeypatch.setattr(closed_form, "apery_maximals", lambda p: [x + 1 for x in real_maximals(p)])
    with pytest.raises(RouteDisagreementError, match="^pseudo-Frobenius number <int of .* is not <int of"):
        invariant_report(huge)
    monkeypatch.setattr(closed_form, "frobenius", lambda p: real_f(p) + 1)
    with pytest.raises(RouteDisagreementError, match="^largest pseudo-Frobenius number <int of .* is not F$"):
        closed_form.pseudo_frobenius(huge)


def test_oracle_report_builds_the_minimal_generators_once(monkeypatch):
    calls = []
    real = oracle.minimal_generators
    monkeypatch.setattr(oracle, "minimal_generators", lambda inv: calls.append(inv.semigroup) or real(inv))
    report = oracle_report(validate(3, 3, 4))
    assert report.generators == (40, 43, 52, 79)
    assert calls == [oracle.GenericSemigroup((40, 43, 52, 79))]


def test_records_refuse_attribute_assignment():
    p = validate(3, 3, 4)
    bundle = oracle_bundle(p, oracle.DEFAULT_SIEVE_CAP)
    inv = bundle.invariants
    records = (
        p, inv.semigroup, inv, oracle.wilf_data(inv, bundle.pseudo_frobenius),
        invariant_report(p), run_checks(p, ("frobenius",))[0], bundle,
        SweepSpec(a_range=(1, 1), b_range=(2, 2), n_range=(2, 2)),
    )
    assert len({type(r) for r in records}) == 8
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1
    rows = closed_form.lattice_matrix(p)  # a tuple of tuples, with no record type of its own
    with pytest.raises(TypeError):
        rows[0] = rows[0]
    with pytest.raises(TypeError):
        rows[0][0] = rows[0][0]


def test_sweep_smallest_grid():
    spec = SweepSpec(a_range=(1, 1), b_range=(2, 2), n_range=(2, 2))
    rows, summary = sweep(spec)
    assert summary[STATUS_MISMATCH] == 0
    assert summary[STATUS_INVALID] == 0
    assert summary[STATUS_MATCH] == len(CHECK_NAMES) - 2  # minors, recursive skip at n=2
    assert summary[STATUS_SKIPPED_UNSUPPORTED] == 2


def test_sweep_records_invalid_triples():
    spec = SweepSpec(a_range=(4, 6), b_range=(2, 2), n_range=(4, 4), checks=("frobenius",))
    rows, summary = sweep(spec)
    assert summary[STATUS_INVALID] == 2  # a = 5 and a = 6 share a factor with 15
    invalid = [r for r in rows if r.status == STATUS_INVALID]
    assert [(r.a, r.b, r.n) for r in invalid] == [(5, 2, 4), (6, 2, 4)]
    assert all(r.check == "validate" for r in invalid)


def test_sweep_can_raise_on_invalid():
    spec = SweepSpec(
        a_range=(5, 5), b_range=(2, 2), n_range=(4, 4), skip_invalid=False
    )
    with pytest.raises(ValueError):
        sweep(spec)


def test_sweep_order_is_b_then_n_then_a():
    spec = SweepSpec(a_range=(1, 2), b_range=(2, 3), n_range=(2, 3), checks=("genus",))
    triples = list(spec.triples())
    assert triples == [
        (1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 2, 3),
        (1, 3, 2), (2, 3, 2), (1, 3, 3), (2, 3, 3),
    ]


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(a_range=(2, 1), b_range=(2, 2), n_range=(2, 2))
    with pytest.raises(ValueError):
        SweepSpec(a_range=(1, 1), b_range=(1, 2), n_range=(2, 2))
    with pytest.raises(ValueError):
        SweepSpec(a_range=(1, 1), b_range=(2, 2), n_range=(1, 2))
    with pytest.raises(ValueError):
        SweepSpec(a_range=(1, 1), b_range=(2, 2), n_range=(2, 2), checks=("nope",))
    spec = SweepSpec(a_range=(1, 1), b_range=(2, 2), n_range=(2, 2))
    with pytest.raises(ValueError):
        spec._replace(b_range=(1, 2))


def test_sweep_spec_holds_tuples_whatever_sequences_it_is_given():
    spec = SweepSpec([1, 2], [2, 3], [2, 2], ["genus"])
    assert spec == SweepSpec((1, 2), (2, 3), (2, 2), ("genus",))
    assert hash(spec) == hash(SweepSpec((1, 2), (2, 3), (2, 2), ("genus",)))


def test_outcome_shape():
    row = run_checks(validate(1, 2, 3), ("frobenius",))[0]
    assert (row.a, row.b, row.n) == (1, 2, 3)
    assert row.check == "frobenius"
    assert row.closed == 19
    assert row.oracle == 19
    assert row.status == STATUS_MATCH
    assert row.note == ""


@settings(max_examples=60, deadline=None)
@given(off_grid_params())
def test_no_mismatch_off_the_grid(params):
    assert frobenius(params) <= F_MAX
    assert [r for r in run_checks(params) if r.status == STATUS_MISMATCH] == []


def test_registry_is_the_schema_check_list():
    schema = json.loads((Path(__file__).resolve().parent.parent / "schema" / "outcomes.json").read_text())
    assert CHECK_NAMES == tuple(CHECKS)
    assert CHECK_NAMES == tuple(schema["$defs"]["checkName"]["enum"])


def test_sweep_builds_one_bundle_per_valid_triple(monkeypatch):
    built = []

    def counting(params, sieve_cap):
        built.append((params.a, params.b, params.n))
        return oracle_bundle(params, sieve_cap)

    monkeypatch.setattr(verify, "oracle_bundle", counting)
    rows, _ = sweep(SweepSpec(a_range=(1, 4), b_range=(2, 3), n_range=(2, 3)))
    # every check of a triple reads the one bundle built for it
    assert built == list(dict.fromkeys((r.a, r.b, r.n) for r in rows if r.check != "validate"))


@pytest.mark.parametrize("checks, per_triple", [(("frobenius", "genus", "pf"), 0), (("wilf",), 1), (CHECK_NAMES, 1)])
def test_wilf_data_is_built_only_for_the_wilf_check(monkeypatch, checks, per_triple):
    built = []
    real = oracle.wilf_data
    monkeypatch.setattr(oracle, "wilf_data", lambda inv, pf: built.append(inv.semigroup.gens) or real(inv, pf))
    rows, _ = sweep(SweepSpec(a_range=(1, 4), b_range=(2, 3), n_range=(2, 3), checks=checks))
    valid = dict.fromkeys((r.a, r.b, r.n) for r in rows if r.check != "validate")
    assert len(valid) == 13
    assert built == [tuple(validate(*t).generators()) for t in valid] * per_triple
    assert all(r.status == STATUS_MATCH for r in rows if r.check in ("frobenius", "wilf"))


def test_wilf_row_of_a_refused_oracle_builds_no_wilf_data(monkeypatch):
    def unreachable(inv, pf):
        raise AssertionError("Wilf data built")

    monkeypatch.setattr(oracle, "wilf_data", unreachable)
    row = run_checks(validate(3, 3, 4), ("wilf",), 100)[0]
    assert (row.status, row.note) == (STATUS_SKIPPED_CAPACITY, "sieve bound 470 exceeds capacity cap 100")


def test_refused_oracle_is_built_once_for_all_checks(monkeypatch):
    # (3, 3, 4): 2m = 80 fits the sieve cap, so the Apéry stage runs
    # before the sieve to max Ap + max gen = 470 is refused
    calls = []
    real = oracle.apery_set

    def counting(sg, q):
        calls.append(q)
        return real(sg, q)

    monkeypatch.setattr(oracle, "apery_set", counting)
    rows = run_checks(validate(3, 3, 4), cap=100)
    assert [r.check for r in rows] == list(CHECK_NAMES)
    assert {(r.status, r.note) for r in rows} == {
        (STATUS_SKIPPED_CAPACITY, "sieve bound 470 exceeds capacity cap 100")
    }
    assert calls == [40]


def test_package_keeps_no_process_global_cache():
    # what the checks of one triple share lives in run_checks; a functools
    # cache would hold tables across triples and calls
    banned = {"lru_cache", "cache", "cached_property"}
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
                names = {node.attr}
            else:
                continue
            assert not names & banned, f"{path.name}: {ast.unparse(node)}"


def test_affine_needs_no_sieve_beyond_the_bundle():
    # (3, 3, 4): the bundle sieves up to max Ap + max gen = 470, while the
    # images of the affine map reach b*(F + 2m) = 1293
    p = validate(3, 3, 4)
    inv = oracle_bundle(p, 1000).invariants
    assert inv.sieve.bit_length() - 1 < 1000 < p.b * (inv.frobenius + 2 * p.multiplicity)
    assert run_checks(p, ("affine",), 1000)[0].status == STATUS_MATCH


def test_wilf_row_reads_the_closed_report(monkeypatch):
    # both bounds hold on every valid triple, so only a planted closed-side
    # failure shows that the row compares the two sides; the row reads the
    # closed report's Wilf flag through `closed_form.wilf_ok`
    monkeypatch.setattr(closed_form, "wilf_ok", lambda p: False)
    assert run_checks(validate(3, 3, 4), ("wilf",))[0].status == STATUS_MISMATCH


def test_route_disagreement_is_a_mismatch_row(monkeypatch):
    def disagree(inv):
        raise RouteDisagreementError("pseudo-Frobenius routes disagree: planted")

    monkeypatch.setattr(oracle, "pseudo_frobenius", disagree)
    row = run_checks(validate(3, 3, 4), ("frobenius",))[0]
    assert row.status == STATUS_MISMATCH
    assert (row.closed, row.oracle) == (None, None)
    assert row.note == "pseudo-Frobenius routes disagree: planted"
