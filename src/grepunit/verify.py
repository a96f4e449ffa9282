"""Closed-form versus brute-force comparison engine.

`CHECKS` maps each check name to a function that computes one invariant
along both routes; `run_checks` turns each check's result on one triple
into a match / mismatch / skip row.  The triple's oracle bundle is built
first: a refused or disagreeing bundle is every row's outcome, and no
check runs.  A capacity overrun is a `skipped-capacity` row, a
construction that does not apply a `skipped-unsupported` row and a route
disagreement a `mismatch` row, each with the error as its note.  Grid
sweeps iterate triples in ascending (b, n, a) order so output is
deterministic.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Iterator, NamedTuple

from . import closed_form, oracle
from .arith import GrepunitParams, validate
from .errors import (
    CapacityError,
    InvalidParametersError,
    RouteDisagreementError,
    UnsupportedDimensionError,
    int_text,
)

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


class VerifyOutcome(NamedTuple):
    """Result of one check on one parameter triple.

    `closed` and `oracle` hold the two independently computed values
    (JSON-ready); for structural checks the oracle slot holds the second,
    independent route.  Where the two values are equal, both slots hold
    one object.
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


class OracleBundle(NamedTuple):
    """What the brute-force engine computes for every check of one triple,
    computed once and shared by all of them."""

    invariants: oracle.SemigroupInvariants
    pseudo_frobenius: tuple[int, ...]


def oracle_bundle(params: GrepunitParams, sieve_cap: int) -> OracleBundle:
    sg = oracle.GenericSemigroup(params.generators())  # ascending and distinct already
    inv = oracle.basic_invariants(sg, sieve_cap=sieve_cap)
    return OracleBundle(inv, tuple(oracle.pseudo_frobenius(inv)))


def _digest(values: list[int]) -> dict:
    """Compact deterministic fingerprint of a (possibly large) value list."""
    import sys  # CPython's own SHA-256, named by version: hashlib would load OpenSSL
    try:
        sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:  # a build without it
        from hashlib import sha256
    # the values joined by commas, as the list's repr less its brackets and
    # spaces, which holds no string per value: a join of m strings would
    joined = str(values)[1:-1].replace(", ", ",").encode()
    return {
        "size": len(values),
        "sum": sum(values),
        "max": max(values),
        "sha256": sha256(joined).hexdigest()[:16],
    }


def oracle_report(
    params: GrepunitParams, cap: int = oracle.DEFAULT_SIEVE_CAP
) -> closed_form.InvariantReport:
    """Invariant report assembled entirely from the brute-force engine."""
    bundle = oracle_bundle(params, cap)
    inv = bundle.invariants
    pf = bundle.pseudo_frobenius
    m = inv.semigroup.multiplicity
    wilf = oracle.wilf_data(inv, pf)
    return closed_form.InvariantReport(
        params=params,
        source="oracle",
        generators=wilf.minimal_generators,
        frobenius=inv.frobenius,
        genus=inv.genus,
        pseudo_frobenius=pf,
        type=len(pf),
        apery_sum=m * inv.genus + m * (m - 1) // 2,  # Selmer, on the genus checked two ways
        n_of_s=inv.n_below,
        wilf_ok=wilf.wilf_ok,
    )


class _Shared:
    """What the checks of one triple share: its oracle bundle, and the
    closed-form Apéry set of a_1 by factorization length and the digest of
    its ascending values, both built on first use.  The bundle admits only
    2m within the cap, so the set needs no cap of its own."""

    __slots__ = ("params", "bundle", "_apery", "_digest")

    def __init__(self, params: GrepunitParams, bundle: OracleBundle):
        self.params, self.bundle = params, bundle
        self._apery = self._digest = None

    def apery(self) -> closed_form.AperyLevels:
        if self._apery is None:
            self._apery = closed_form.apery_levels(self.params, cap=None)
        return self._apery

    def digest(self) -> dict:
        if self._digest is None:
            self._digest = _digest(self.apery().values(oracle._set_bits))
        return self._digest


def _equal(closed, brute) -> tuple:
    same = closed == brute
    return closed, closed if same else brute, same


def _frobenius(params, shared):
    return _equal(closed_form.frobenius(params), shared.bundle.invariants.frobenius)


def _genus(params, shared):
    return _equal(closed_form.genus(params), shared.bundle.invariants.genus)


def _apery(params, shared):
    digest = shared.digest()
    apery_mask = shared.bundle.invariants.apery_mask
    same = shared.apery().union_mask() == apery_mask
    matched = same and closed_form.apery_sum(params) == digest["sum"]
    return digest, digest if same else _digest(oracle._set_bits(apery_mask)), matched


def _pf(params, shared):
    return _equal(list(closed_form.pseudo_frobenius(params)), list(shared.bundle.pseudo_frobenius))


def _type(params, shared):
    return _equal(len(closed_form.pseudo_frobenius(params)), len(shared.bundle.pseudo_frobenius))


def _homogeneous(params, shared):
    # The m closed values lie in distinct classes and each level lies in
    # Ap(S, m), so level k equal to closed level k, for every k, makes the
    # closed set Ap(S, m) with one length per element.  A list, not all():
    # every level is read, so the oracle's reachability error reaches the row.
    # Each closed level is made in the comparison, so no two are held at once.
    closed = shared.apery().masks()
    result = all([level == next(closed, -1) for level in oracle.apery_levels(shared.bundle.invariants)])
    result = result and next(closed, None) is None
    return True, result, result


def _wilf(params, shared):
    bundle = shared.bundle
    wilf = oracle.wilf_data(bundle.invariants, bundle.pseudo_frobenius)
    ok = closed_form.wilf_ok(params)
    # for this family type + 1 = embedding dimension, so the
    # sharper bound coincides with Wilf's on the closed side
    c = {"wilf": ok, "type_bound": ok}
    o = {"wilf": wilf.wilf_ok, "type_bound": wilf.type_bound_ok}
    return _equal(c, o)


def _minors(params, shared):
    rows = closed_form.lattice_matrix(params)
    minors = closed_form.maximal_minors(rows)
    gens = params.generators()
    alternate = all(x * y < 0 for x, y in zip(minors, minors[1:]))
    relations = all(sum(map(mul, row, gens)) == 0 for row in rows)
    return minors, gens, [abs(m) for m in minors] == gens and alternate and relations


def _recursive(params, shared):
    lifted = closed_form.apery_levels_recursive(params, cap=None)
    # both come in the same levels, order and frame, so they compare as they are
    same = lifted == shared.apery()
    return shared.digest(), shared.digest() if same else _digest(lifted.values(oracle._set_bits)), same


def _affine(params, shared):
    # the bundle's sieve covers 0..F, and the check reads no bit above F
    inv = shared.bundle.invariants
    result = closed_form.affine_closure_ok(params, inv.sieve, inv.frobenius)
    return True, result, result


# Check name -> f(params, shared) -> (closed, oracle, matched).  A check
# raises UnsupportedDimensionError to be skipped.
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


def _failed(params: GrepunitParams, check: str, exc: Exception) -> VerifyOutcome:
    """The row of a check that compared nothing, with the error as its note."""
    if isinstance(exc, CapacityError):
        status = STATUS_SKIPPED_CAPACITY
    elif isinstance(exc, UnsupportedDimensionError):
        status = STATUS_SKIPPED_UNSUPPORTED
    else:
        status = STATUS_MISMATCH
    return VerifyOutcome(params.a, params.b, params.n, check, None, None, status, str(exc))


def _row(params: GrepunitParams, check: str, shared: _Shared) -> VerifyOutcome:
    try:
        closed, brute, matched = CHECKS[check](params, shared)
    except (UnsupportedDimensionError, RouteDisagreementError) as exc:
        return _failed(params, check, exc)
    status = STATUS_MATCH if matched else STATUS_MISMATCH
    return VerifyOutcome(params.a, params.b, params.n, check, closed, brute, status)


def run_checks(
    params: GrepunitParams, checks: Iterable[str] = CHECK_NAMES, cap: int = oracle.DEFAULT_SIEVE_CAP
) -> list[VerifyOutcome]:
    """One row per check, in the given order, for one valid triple; `cap`
    bounds every check.  The oracle bundle is built first, and a refused
    or disagreeing one gives every row its status and note."""
    checks = tuple(checks)
    for check in checks:
        if check not in CHECKS:
            raise ValueError(f"unknown check {check!r}")
    if not checks:
        return []
    try:
        shared = _Shared(params, oracle_bundle(params, cap))
    except (CapacityError, RouteDisagreementError) as exc:
        return [_failed(params, check, exc) for check in checks]
    return [_row(params, check, shared) for check in checks]


class SweepSpec(NamedTuple("SweepSpec", [
    ("a_range", tuple[int, int]), ("b_range", tuple[int, int]), ("n_range", tuple[int, int]),
    ("checks", tuple[str, ...]), ("skip_invalid", bool),
])):
    """Inclusive parameter grid plus the checks to run on each triple."""

    __slots__ = ()

    def __new__(cls, a_range, b_range, n_range, checks=CHECK_NAMES, skip_invalid=True):
        a_range, b_range, n_range, checks = map(tuple, (a_range, b_range, n_range, checks))
        for name, (lo, hi) in (("a", a_range), ("b", b_range), ("n", n_range)):
            if lo > hi:
                raise ValueError(f"empty {name} range {int_text(lo)}..{int_text(hi)}")
        if b_range[0] < 2:
            raise ValueError(f"b range must start at 2 or above, got {int_text(b_range[0])}")
        if n_range[0] < 2:
            raise ValueError(f"n range must start at 2 or above, got {int_text(n_range[0])}")
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}")
        return super().__new__(cls, a_range, b_range, n_range, checks, skip_invalid)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates again

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


def sweep(spec: SweepSpec, cap: int = oracle.DEFAULT_SIEVE_CAP) -> tuple[list[VerifyOutcome], dict]:
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
        rows.extend(run_checks(params, spec.checks, cap))
    return rows, summarize(rows)
