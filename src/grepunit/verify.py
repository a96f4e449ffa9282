"""Closed-form versus brute-force comparison engine.

One named check per invariant; each check computes the value along both
routes and reports match / mismatch / skip.  Grid sweeps iterate triples
in ascending (b, n, a) order so output is deterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from . import closed_form, oracle
from .arith import GrepunitParams, validate
from .errors import CapacityError, InvalidParametersError

CHECK_NAMES = (
    "frobenius",
    "genus",
    "apery",
    "pf",
    "type",
    "homogeneous",
    "wilf",
    "minors",
    "recursive",
    "affine",
)

STATUS_MATCH = "match"
STATUS_MISMATCH = "mismatch"
STATUS_SKIPPED_CAPACITY = "skipped-capacity"
STATUS_SKIPPED_UNSUPPORTED = "skipped-unsupported"
STATUS_INVALID = "invalid-params"


@dataclass(frozen=True)
class Caps:
    """Capacity limits threaded through every check."""

    apery: int = closed_form.DEFAULT_APERY_CAP
    sieve: int = oracle.DEFAULT_SIEVE_CAP
    factor: int = oracle.DEFAULT_FACTOR_CAP


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of one check on one parameter triple.

    `closed` and `oracle` hold the two independently computed values
    (JSON-ready); for structural checks the oracle slot holds the second,
    independent route.
    """

    a: int
    b: int
    n: int
    check: str
    closed: object
    oracle: object
    status: str
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != STATUS_MISMATCH


@dataclass(frozen=True)
class OracleBundle:
    """Everything the brute-force engine knows about one triple, computed
    once and shared by all checks."""

    semigroup: oracle.GenericSemigroup
    invariants: oracle.SemigroupInvariants
    pseudo_frobenius: tuple[int, ...]
    wilf: oracle.WilfData


@lru_cache(maxsize=None)
def oracle_bundle(a: int, b: int, n: int, sieve_cap: int) -> OracleBundle:
    params = validate(a, b, n)
    sg = oracle.GenericSemigroup.from_values(params.generators())
    inv = oracle.basic_invariants(sg, sieve_cap=sieve_cap)
    pf = oracle.pseudo_frobenius(sg, inv)
    wilf = oracle.wilf_data(sg, inv, pf)
    return OracleBundle(sg, inv, tuple(pf), wilf)


def _digest(values: list[int]) -> dict:
    """Compact deterministic fingerprint of a (possibly large) value list."""
    joined = ",".join(map(str, values)).encode()
    return {
        "size": len(values),
        "sum": sum(values),
        "max": max(values),
        "sha256": hashlib.sha256(joined).hexdigest()[:16],
    }


def oracle_report(params: GrepunitParams, caps: Caps = Caps()) -> closed_form.InvariantReport:
    """Invariant report assembled entirely from the brute-force engine."""
    bundle = oracle_bundle(params.a, params.b, params.n, caps.sieve)
    inv = bundle.invariants
    pf = bundle.pseudo_frobenius
    return closed_form.InvariantReport(
        params=params,
        generators=tuple(oracle.minimal_generators(bundle.semigroup.gens)),
        frobenius=inv.frobenius,
        genus=inv.genus,
        pseudo_frobenius=pf,
        type=len(pf),
        apery_sum=inv.apery.total(),
        n_of_s=inv.n_below,
        wilf_ok=bundle.wilf.wilf_ok,
        source="oracle",
    )


def run_check(params: GrepunitParams, check: str, caps: Caps = Caps()) -> VerifyOutcome:
    if check not in CHECK_NAMES:
        raise ValueError(f"unknown check {check!r}")
    a, b, n = params.a, params.b, params.n

    def outcome(closed, oracle_value, matched, status=None, note=""):
        if status is None:
            status = STATUS_MATCH if matched else STATUS_MISMATCH
        return VerifyOutcome(a, b, n, check, closed, oracle_value, status, note)

    def skipped(status, note):
        return VerifyOutcome(a, b, n, check, None, None, status, note)

    try:
        bundle = oracle_bundle(a, b, n, caps.sieve)

        if check == "frobenius":
            c = closed_form.frobenius(params)
            o = bundle.invariants.frobenius
            return outcome(c, o, c == o)

        if check == "genus":
            c = closed_form.genus(params)
            o = bundle.invariants.genus
            return outcome(c, o, c == o)

        if check == "apery":
            closed_table = closed_form.apery_set(params, cap=caps.apery)
            closed_values = closed_table.values()
            oracle_values = bundle.invariants.apery.values()
            sum_formula = closed_form.apery_sum(params)
            matched = closed_values == oracle_values and sum_formula == sum(oracle_values)
            return outcome(_digest(closed_values), _digest(oracle_values), matched)

        if check == "pf":
            c = list(closed_form.pseudo_frobenius(params))
            o = list(bundle.pseudo_frobenius)
            return outcome(c, o, c == o)

        if check == "type":
            c = len(closed_form.pseudo_frobenius(params))
            o = len(bundle.pseudo_frobenius)
            return outcome(c, o, c == o)

        if check == "homogeneous":
            max_value = bundle.invariants.apery.max_value()
            if max_value > caps.factor:
                return skipped(
                    STATUS_SKIPPED_CAPACITY,
                    f"largest Apéry element {max_value} exceeds factorization cap {caps.factor}",
                )
            sg = bundle.semigroup
            table = oracle.length_table(sg, max_value, cap=caps.factor)
            length_sets = lambda x: oracle.length_set(sg, x, table=table)
            result = closed_form.is_homogeneous(params, length_sets, cap=caps.apery)
            return outcome(True, result, result)

        if check == "wilf":
            report = closed_form.invariant_report(params)
            # for this family type + 1 = embedding dimension, so the
            # sharper bound coincides with Wilf's on the closed side
            c = {"wilf": report.wilf_ok, "type_bound": report.wilf_ok}
            o = {"wilf": bundle.wilf.wilf_ok, "type_bound": bundle.wilf.type_bound_ok}
            return outcome(c, o, c == o)

        if check == "minors":
            if n < 3:
                return skipped(STATUS_SKIPPED_UNSUPPORTED, "lattice matrix needs n >= 3")
            matrix = closed_form.lattice_matrix(params)
            minors = closed_form.maximal_minors(matrix)
            gens = params.generators()
            alternate = all(minors[i] * minors[i + 1] < 0 for i in range(len(minors) - 1))
            matched = (
                [abs(m) for m in minors] == gens
                and alternate
                and matrix.annihilates(gens)
            )
            return outcome(minors, gens, matched)

        if check == "recursive":
            if n < 3:
                return skipped(STATUS_SKIPPED_UNSUPPORTED, "recursive construction needs n >= 3")
            try:
                prev = validate(a, b, n - 1)
            except InvalidParametersError as exc:
                return skipped(STATUS_SKIPPED_UNSUPPORTED, f"smaller triple invalid: {exc}")
            direct = closed_form.apery_set(params, cap=caps.apery).values()
            lifted = closed_form.apery_set_recursive(prev, params, cap=caps.apery).values()
            return outcome(_digest(direct), _digest(lifted), direct == lifted)

        if check == "affine":
            inv = bundle.invariants
            bound = inv.frobenius + 2 * params.multiplicity
            shift = params.a - (params.b**params.n - 1)
            image_top = params.b * bound + max(shift, 0)
            sv = oracle.sieve(bundle.semigroup, max(image_top, bound), cap=caps.sieve)
            result = closed_form.affine_closure_ok(params, bound, member=sv.__contains__)
            return outcome(True, result, result)

    except CapacityError as exc:
        return skipped(STATUS_SKIPPED_CAPACITY, str(exc))

    raise AssertionError(f"unhandled check {check!r}")


def run_checks(
    params: GrepunitParams, checks: Iterable[str] = CHECK_NAMES, caps: Caps = Caps()
) -> list[VerifyOutcome]:
    return [run_check(params, c, caps) for c in checks]


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive parameter grid plus the checks to run on each triple."""

    a_range: tuple[int, int]
    b_range: tuple[int, int]
    n_range: tuple[int, int]
    checks: tuple[str, ...] = CHECK_NAMES
    skip_invalid: bool = True

    def __post_init__(self):
        for name, (lo, hi) in (("a", self.a_range), ("b", self.b_range), ("n", self.n_range)):
            if lo > hi:
                raise ValueError(f"empty {name} range {lo}..{hi}")
        if self.b_range[0] < 2:
            raise ValueError(f"b range must start at 2 or above, got {self.b_range[0]}")
        if self.n_range[0] < 2:
            raise ValueError(f"n range must start at 2 or above, got {self.n_range[0]}")
        unknown = [c for c in self.checks if c not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}")

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """Grid order: ascending b, then n, then a."""
        for b in range(self.b_range[0], self.b_range[1] + 1):
            for n in range(self.n_range[0], self.n_range[1] + 1):
                for a in range(self.a_range[0], self.a_range[1] + 1):
                    yield a, b, n


def sweep(spec: SweepSpec, caps: Caps = Caps()) -> tuple[list[VerifyOutcome], dict]:
    """Run every requested check over the grid.  Invalid triples become
    one `invalid-params` row each when skip_invalid, and raise otherwise."""
    rows: list[VerifyOutcome] = []
    summary = {
        STATUS_MATCH: 0,
        STATUS_MISMATCH: 0,
        STATUS_SKIPPED_CAPACITY: 0,
        STATUS_SKIPPED_UNSUPPORTED: 0,
        STATUS_INVALID: 0,
    }
    for a, b, n in spec.triples():
        try:
            params = validate(a, b, n)
        except InvalidParametersError as exc:
            if not spec.skip_invalid:
                raise
            rows.append(VerifyOutcome(a, b, n, "validate", None, None, STATUS_INVALID, str(exc)))
            summary[STATUS_INVALID] += 1
            continue
        for outcome in run_checks(params, spec.checks, caps):
            rows.append(outcome)
            summary[outcome.status] += 1
    return rows, summary
