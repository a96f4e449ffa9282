"""Acceptance gate.

Eleven criteria: golden values, full-grid closed-form vs oracle
equivalence, structural properties, and parameter validation.  Each test
prints one PASS/FAIL line (bypassing capture) as it completes.
"""

import contextlib
import time
from itertools import chain
from operator import mul

import pytest

from grepunit import closed_form, oracle
from grepunit.arith import repunit, validate
from grepunit.errors import (
    InvalidBaseError,
    InvalidLengthError,
    InvalidParametersError,
    NotCoprimeError,
)
from grepunit.verify import oracle_bundle, run_checks

from conftest import apery_sum_coefficients

GRID_CHECKS = ("frobenius", "genus", "apery", "pf", "type")


@pytest.fixture
def announce(capsys):
    @contextlib.contextmanager
    def _announce(num, title):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"FAIL criterion {num:2d}: {title}", flush=True)
            raise
        with capsys.disabled():
            print(f"PASS criterion {num:2d}: {title}", flush=True)

    return _announce


def test_criterion_01_golden_example(announce):
    with announce(1, "golden example a=3 b=3 n=4"):
        start = time.monotonic()
        p = validate(3, 3, 4)
        assert p.generators() == [40, 43, 52, 79]
        assert apery_sum_coefficients(3, 4) == [54, 45, 42]
        assert closed_form.apery_sum(p) == 7980
        assert closed_form.genus(p) == 180
        assert time.monotonic() - start < 1.0


def test_criterion_02_grid_equivalence(announce, grid):
    with announce(2, "grid equivalence of F, g, Apéry set+sum, PF, type"):
        start = time.monotonic()
        low_branch = high_branch = 0
        for p in grid:
            if p.a < p.b**p.n - 1:
                low_branch += 1
            else:
                high_branch += 1
            rows = run_checks(p, GRID_CHECKS)
            assert [r.check for r in rows] == list(GRID_CHECKS)
            bad = [r for r in rows if r.status != "match"]
            assert not bad, f"disagreement at (a={p.a}, b={p.b}, n={p.n}): {bad}"
        assert low_branch >= 50, f"only {low_branch} points below the branch point"
        assert high_branch >= 50, f"only {high_branch} points above the branch point"
        assert time.monotonic() - start < 300.0


def test_criterion_03_cardinalities(announce, grid):
    with announce(3, "coefficient-tuple and Apéry-set cardinalities"):
        for b in range(2, 6):
            for i in range(2, 8):
                assert len(closed_form.coefficient_tuples(b, i)) == repunit(b, i)
        for p in grid:
            assert sum(map(len, closed_form.apery_set(p))) == p.multiplicity


def test_criterion_04_selmer_consistency(announce, grid):
    with announce(4, "Selmer identities on closed-form values"):
        for p in grid:
            m = p.multiplicity
            values = [*chain.from_iterable(closed_form.apery_set(p))]
            f = closed_form.frobenius(p)
            g = closed_form.genus(p)
            total = closed_form.apery_sum(p)
            assert f == max(values) - m
            # g = total/m - (m-1)/2, cleared of denominators
            assert 2 * total == 2 * m * g + m * (m - 1)


def test_criterion_05_homogeneity(announce, grid):
    with announce(5, "homogeneity via oracle Apéry length masks (whole grid)"):
        for p in grid:
            row = run_checks(p, ("homogeneous",))[0]
            assert row.status == "match", f"(a={p.a}, b={p.b}, n={p.n}): {row}"
            assert row.oracle is True


def test_criterion_06_recursive_apery(announce, grid):
    with announce(6, "recursive Apéry lift equals direct enumeration"):
        chains = 0
        for p in grid:
            if p.n < 3:
                continue
            try:
                validate(p.a, p.b, p.n - 1)
            except InvalidParametersError:
                continue
            chains += 1
            direct = closed_form.apery_set(p)
            lifted = closed_form.apery_set_recursive(p)
            assert lifted == direct, f"(a={p.a}, b={p.b}, n={p.n})"
        assert chains > 0


def test_criterion_07_pseudo_frobenius_structure(announce, grid):
    with announce(7, "pseudo-Frobenius structure and maximals"):
        for p in grid:
            pf = closed_form.pseudo_frobenius(p)
            assert len(pf) == p.n - 1
            assert pf[-1] == closed_form.frobenius(p)
            alphas = closed_form.apery_maximals(p)
            assert sorted(x - p.multiplicity for x in alphas) == pf
            step = p.b**p.n - 1 - p.a
            assert all(x - y == step for x, y in zip(alphas, alphas[1:]))
            bundle = oracle_bundle(p, oracle.DEFAULT_SIEVE_CAP)
            assert list(bundle.pseudo_frobenius) == pf


def test_criterion_08_lattice_minors(announce, grid):
    with announce(8, "lattice minors recover generators, alternating"):
        points = [p for p in grid if p.n >= 3]
        assert points
        for p in points:
            rows = closed_form.lattice_matrix(p)
            gens = p.generators()
            assert all(sum(map(mul, row, gens)) == 0 for row in rows)
            minors = closed_form.maximal_minors(rows)
            assert [abs(m) for m in minors] == gens
            assert all(x * y < 0 for x, y in zip(minors, minors[1:]))


def test_criterion_09_wilf_and_type_bounds(announce, grid):
    with announce(9, "Wilf bound and the sharper type bound"):
        for p in grid:
            bundle = oracle_bundle(p, oracle.DEFAULT_SIEVE_CAP)
            wilf = oracle.wilf_data(bundle.invariants, bundle.pseudo_frobenius)  # what the `wilf` check reads
            assert wilf.wilf_ok, f"(a={p.a}, b={p.b}, n={p.n})"
            assert wilf.type_bound_ok, f"(a={p.a}, b={p.b}, n={p.n})"
            assert closed_form.invariant_report(p).wilf_ok


def test_criterion_10_two_generator_sanity(announce, grid):
    with announce(10, "two-generator Frobenius and genus formulas"):
        points = [p for p in grid if p.n == 2]
        assert points
        for p in points:
            g1, g2 = p.generators()
            f_expected = g1 * g2 - g1 - g2
            g_expected = (g1 - 1) * (g2 - 1) // 2
            assert closed_form.frobenius(p) == f_expected
            assert closed_form.genus(p) == g_expected
            inv = oracle_bundle(p, oracle.DEFAULT_SIEVE_CAP).invariants
            assert inv.frobenius == f_expected
            assert inv.genus == g_expected


def test_criterion_11_negative_validation(announce):
    with announce(11, "invalid parameters rejected with distinct errors"):
        with pytest.raises(NotCoprimeError) as exc_info:
            validate(5, 2, 4)
        assert exc_info.value.gcd == 5
        assert "5" in str(exc_info.value)
        with pytest.raises(InvalidBaseError):
            validate(5, 1, 4)
        with pytest.raises(InvalidLengthError):
            validate(5, 2, 1)
        assert not issubclass(InvalidBaseError, InvalidLengthError)
        assert not issubclass(InvalidLengthError, InvalidBaseError)
        assert not issubclass(NotCoprimeError, InvalidBaseError)
