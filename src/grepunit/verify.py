"""Closed-form versus brute-force comparison engine.

`CHECKS` maps each check name to a function that computes one invariant
along both routes; `run_check` looks up the triple's oracle bundle,
calls the check and turns its result into one match / mismatch / skip
row.  The checks built on the closed-form Apéry set test its cap before
the bundle is looked up.  A capacity overrun is a `skipped-capacity` row and a route
disagreement inside either engine a `mismatch` row with the error as its
note.  Grid sweeps iterate triples in ascending (b, n, a) order so
output is deterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from . import closed_form, oracle
from .arith import GrepunitParams, validate
from .errors import CapacityError, InvalidParametersError, RouteDisagreementError

STATUS_MATCH = "match"
STATUS_MISMATCH = "mismatch"
STATUS_SKIPPED_CAPACITY = "skipped-capacity"
STATUS_SKIPPED_UNSUPPORTED = "skipped-unsupported"
STATUS_INVALID = "invalid-params"
STATUS_ORDER = (
    STATUS_MATCH,
    STATUS_MISMATCH,
    STATUS_SKIPPED_CAPACITY,
    STATUS_SKIPPED_UNSUPPORTED,
    STATUS_INVALID,
)


@dataclass(frozen=True)
class Caps:
    """Capacity limits threaded through every check."""

    apery: int = closed_form.DEFAULT_APERY_CAP
    sieve: int = oracle.DEFAULT_SIEVE_CAP


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


@lru_cache(maxsize=1)  # sweeps visit triples in order; only the current one recurs
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
        apery_sum=sum(inv.apery),
        n_of_s=inv.n_below,
        wilf_ok=bundle.wilf.wilf_ok,
        source="oracle",
    )


class _Unsupported(Exception):
    """The check does not apply to this triple; the message is the note."""


def _equal(closed, brute) -> tuple:
    return closed, brute, closed == brute


def _frobenius(params, bundle, caps):
    return _equal(closed_form.frobenius(params), bundle.invariants.frobenius)


def _genus(params, bundle, caps):
    return _equal(closed_form.genus(params), bundle.invariants.genus)


def _apery(params, bundle, caps):
    closed_values = sorted(closed_form.apery_set(params, cap=caps.apery)[0])
    oracle_values = sorted(bundle.invariants.apery)
    same = closed_values == oracle_values
    matched = same and closed_form.apery_sum(params) == sum(oracle_values)
    digest = _digest(closed_values)
    return digest, digest if same else _digest(oracle_values), matched


def _pf(params, bundle, caps):
    return _equal(list(closed_form.pseudo_frobenius(params)), list(bundle.pseudo_frobenius))


def _type(params, bundle, caps):
    return _equal(len(closed_form.pseudo_frobenius(params)), len(bundle.pseudo_frobenius))


def _homogeneous(params, bundle, caps):
    # the masks are built here, not in the bundle: no other check reads them
    apery = bundle.invariants.apery
    masks = dict(zip(apery, oracle.apery_lengths(bundle.semigroup, apery)))
    result = closed_form.is_homogeneous(params, masks, cap=caps.apery)
    return True, result, result


def _wilf(params, bundle, caps):
    report = closed_form.invariant_report(params)
    # for this family type + 1 = embedding dimension, so the
    # sharper bound coincides with Wilf's on the closed side
    c = {"wilf": report.wilf_ok, "type_bound": report.wilf_ok}
    o = {"wilf": bundle.wilf.wilf_ok, "type_bound": bundle.wilf.type_bound_ok}
    return _equal(c, o)


def _minors(params, bundle, caps):
    if params.n < 3:
        raise _Unsupported("lattice matrix needs n >= 3")
    matrix = closed_form.lattice_matrix(params)
    minors = closed_form.maximal_minors(matrix)
    gens = params.generators()
    alternate = all(minors[i] * minors[i + 1] < 0 for i in range(len(minors) - 1))
    matched = [abs(m) for m in minors] == gens and alternate and matrix.annihilates(gens)
    return minors, gens, matched


def _previous(params) -> GrepunitParams:
    """The triple with n - 1 that the recursive construction lifts from."""
    if params.n < 3:
        raise _Unsupported("recursive construction needs n >= 3")
    try:
        return validate(params.a, params.b, params.n - 1)
    except InvalidParametersError as exc:
        raise _Unsupported(f"smaller triple invalid: {exc}")


def _recursive(params, bundle, caps):
    prev = _previous(params)
    direct = closed_form.apery_set(params, cap=caps.apery)
    lifted = closed_form.apery_set_recursive(prev, params, cap=caps.apery)
    # both come in coefficient-tuple order, so the (values, lengths)
    # tuples compare as they are, lengths included
    if direct == lifted:
        digest = _digest(sorted(direct[0]))
        return digest, digest, True
    return _digest(sorted(direct[0])), _digest(sorted(lifted[0])), False


def _affine(params, bundle, caps):
    # the bundle's sieve covers 0..F; every integer above F is a member
    inv = bundle.invariants
    result = closed_form.affine_closure_ok(params, inv.sieve.flags(inv.frobenius))
    return True, result, result


# Check name -> f(params, bundle, caps) -> (closed, oracle, matched).  A
# check raises CapacityError or _Unsupported to be skipped.
CHECKS = {
    "frobenius": _frobenius,
    "genus": _genus,
    "apery": _apery,
    "pf": _pf,
    "type": _type,
    "homogeneous": _homogeneous,
    "wilf": _wilf,
    "minors": _minors,
    "recursive": _recursive,
    "affine": _affine,
}
CHECK_NAMES = tuple(CHECKS)


def _apery_cap(params, caps):
    closed_form.check_cap(params.multiplicity, caps.apery)


def _recursive_apery_cap(params, caps):
    try:
        _previous(params)
    except _Unsupported:
        return  # the row is this skip unless the bundle refuses first
    _apery_cap(params, caps)


# Check name -> the closed side's Apéry-cap refusal, which run_check tries
# before building the oracle bundle: at m ~ 10^6 the bundle takes seconds,
# and the row would end in that refusal anyway.
_EARLY_REFUSALS = {"apery": _apery_cap, "homogeneous": _apery_cap, "recursive": _recursive_apery_cap}


def run_check(params: GrepunitParams, check: str, caps: Caps = Caps()) -> VerifyOutcome:
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    a, b, n = params.a, params.b, params.n
    try:
        if check in _EARLY_REFUSALS:
            # the bundle's own up-front refusal keeps precedence
            oracle.check_multiplicity(params.multiplicity, caps.sieve)
            _EARLY_REFUSALS[check](params, caps)
        closed, brute, matched = CHECKS[check](params, oracle_bundle(a, b, n, caps.sieve), caps)
    except CapacityError as exc:
        return VerifyOutcome(a, b, n, check, None, None, STATUS_SKIPPED_CAPACITY, str(exc))
    except _Unsupported as exc:
        return VerifyOutcome(a, b, n, check, None, None, STATUS_SKIPPED_UNSUPPORTED, str(exc))
    except RouteDisagreementError as exc:
        return VerifyOutcome(a, b, n, check, None, None, STATUS_MISMATCH, str(exc))
    status = STATUS_MATCH if matched else STATUS_MISMATCH
    return VerifyOutcome(a, b, n, check, closed, brute, status)


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


def summarize(rows: Iterable[VerifyOutcome]) -> dict:
    """Row count per status, keyed in STATUS_ORDER."""
    counts = dict.fromkeys(STATUS_ORDER, 0)
    for row in rows:
        counts[row.status] += 1
    return counts


def sweep(spec: SweepSpec, caps: Caps = Caps()) -> tuple[list[VerifyOutcome], dict]:
    """Run every requested check over the grid.  Invalid triples become
    one `invalid-params` row each when skip_invalid, and raise otherwise."""
    rows: list[VerifyOutcome] = []
    for a, b, n in spec.triples():
        try:
            params = validate(a, b, n)
        except InvalidParametersError as exc:
            if not spec.skip_invalid:
                raise
            rows.append(VerifyOutcome(a, b, n, "validate", None, None, STATUS_INVALID, str(exc)))
            continue
        rows.extend(run_checks(params, spec.checks, caps))
    return rows, summarize(rows)
