"""The benchmark's workloads and the output-correctness gate.

Each workload is one `grepunit` CLI call.  The seed picks its inputs and
seed 0 gives the inputs below.  Their stdout digests are pinned, since
the CLI promises byte-identical output for the same inputs.  Expected
rows are worked out here from the definitions (validity is
gcd(r_b(n), a) == 1), without importing grepunit.

The two sweeps are fixed grids for every seed: sliding the `a` window by
one moves their work by 3-7%, because the added top row is the dearest,
and that would hide regressions of the same size.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, replace

STATUS_MATCH = "match"
STATUS_SKIPPED_CAPACITY = "skipped-capacity"
STATUS_SKIPPED_UNSUPPORTED = "skipped-unsupported"
STATUS_INVALID = "invalid-params"

ALL_CHECKS = (
    "frobenius", "genus", "apery", "pf", "type",
    "homogeneous", "wilf", "minors", "recursive", "affine",
)
PAPER_CHECKS = ("frobenius", "genus", "pf")


@dataclass(frozen=True)
class Inputs:
    """One workload's CLI call for one seed."""

    kind: str  # "sweep" or "verify"
    a: tuple[int, int]
    b: tuple[int, int]
    n: tuple[int, int]
    checks: tuple[str, ...]
    fmt: str  # "json" or "text"

    def argv(self) -> list[str]:
        checks = ",".join(self.checks) if self.checks != ALL_CHECKS else "all"
        if self.kind == "verify":
            args = ["verify", "-a", str(self.a[0]), "-b", str(self.b[0]), "-n", str(self.n[0])]
        else:
            args = ["sweep", "--a", _span(self.a), "--b", _span(self.b), "--n", _span(self.n)]
        args += ["--checks", checks]
        return args + (["--format", self.fmt] if self.fmt != "text" else [])

    def expected_rows(self) -> list[tuple[int, int, int, str, str]]:
        """(a, b, n, check, status) in the CLI's (b, n, a) order, for a correct program."""
        rows = []
        for b in range(self.b[0], self.b[1] + 1):
            for n in range(self.n[0], self.n[1] + 1):
                for a in range(self.a[0], self.a[1] + 1):
                    if not _valid(a, b, n):
                        rows.append((a, b, n, "validate", STATUS_INVALID))
                        continue
                    for check in self.checks:
                        unsupported = (check in ("minors", "recursive") and n < 3) or (
                            check == "recursive" and not _valid(a, b, n - 1)
                        )
                        status = STATUS_SKIPPED_UNSUPPORTED if unsupported else STATUS_MATCH
                        rows.append((a, b, n, check, status))
        return rows


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed0: Inputs
    seed0_sha256: str
    shifts: tuple[int, ...] = ()  # other seeds verify at one of these `a`

    def inputs(self, seed: int) -> Inputs:
        if seed == 0 or not self.shifts:
            return self.seed0
        a = random.Random(f"{self.name}:{seed}").choice(self.shifts)
        return replace(self.seed0, a=(a, a))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-sweep",
            "the paper's acceptance sweep: 960 small-m triples, so per-triple costs and the bundle cache dominate",
            Inputs("sweep", (1, 60), (2, 5), (2, 5), PAPER_CHECKS, "json"),
            "ce05b704f6c4c114e766ff73ca4729428a28cebd7c0843b6fbe55501421cb31d",
        ),
        Workload(
            "large-m",
            "one verify at m = 19608, where the O(m^2) pseudo-Frobenius scan dominates and sweep-level changes show nothing",
            Inputs("verify", (1, 1), (7, 7), (6, 6), PAPER_CHECKS, "text"),
            "435652facd66a50f3b1d29d7c6db6096016f69b5b15016b61222973b9ce34e07",
            # other valid a for r_7(6) = 19608 = 2^3*3*19*43, each within ~3% of a = 1 in cost
            shifts=(5, 7),
        ),
        Workload(
            "all-checks",
            "every check over a smaller grid: the only workload with length sets, closed-form builders and bundle reuse",
            Inputs("sweep", (1, 60), (2, 4), (2, 4), ALL_CHECKS, "json"),
            "bd4d39a636a555f0be009adbc39febcaac5705c34c4e1d57591475c101d70178",
        ),
    )
}


def _repunit(b: int, n: int) -> int:
    return (b**n - 1) // (b - 1)


def _valid(a: int, b: int, n: int) -> bool:
    return math.gcd(_repunit(b, n), a) == 1


def _span(r: tuple[int, int]) -> str:
    return f"{r[0]}..{r[1]}"


_TEXT_ROW = re.compile(
    r"^a=(\d+) b=(\d+) n=(\d+)  (\S+)\s+(\S+)(?:\s+closed=(\S*) oracle=(\S*))?"
)


def _parse_rows(stdout: str, fmt: str) -> list[tuple]:
    """(a, b, n, check, status, closed, oracle) per output row."""
    if fmt == "json":
        doc = json.loads(stdout)
        return [(r["a"], r["b"], r["n"], r["check"], r["status"], r["closed"], r["oracle"]) for r in doc["rows"]]
    rows = []
    for line in stdout.splitlines():
        m = _TEXT_ROW.match(line)
        if m:
            a, b, n, check, status, closed, oracle = m.groups()
            rows.append((int(a), int(b), int(n), check, status, closed, oracle))
    return rows


def _agree(check: str, closed, oracle) -> bool:
    """The closed-form value equals the oracle's.  For `minors` the closed
    side is the signed maximal minors, whose absolute values are the
    generators and whose signs alternate."""
    if check != "minors" or not isinstance(closed, list):
        return closed == oracle
    return [abs(x) for x in closed] == oracle and all(x * y < 0 for x, y in zip(closed, closed[1:]))


@dataclass
class Verdict:
    attempted: int
    failed: int
    skipped: int
    problems: list[str]


def judge(workload: Workload, inputs: Inputs, run: dict | None) -> Verdict:
    """Gate one run's output.  A row fails when it is missing, out of
    place, or its two routes disagree; a crash, a wrong exit code, a wrong
    row count or, on the seed-0 inputs, a stdout digest that differs fails
    every row."""
    expected = inputs.expected_rows()
    attempted = len(expected)
    if run is None or "exit_code" not in run:
        return Verdict(attempted, attempted, 0, ["run crashed"])
    problems = []
    if run["exit_code"] != 0:
        problems.append(f"exit code {run['exit_code']}, expected 0")
    stdout = run["stdout"]
    if inputs == workload.seed0:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != workload.seed0_sha256:
            problems.append(f"stdout sha256 {digest} differs from the pinned seed-0 digest")
    try:
        rows = _parse_rows(stdout, inputs.fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(attempted, attempted, 0, problems + [f"unreadable output: {exc}"])
    failed = skipped = 0
    for i, want in enumerate(expected):
        got = rows[i] if i < len(rows) else None
        if got is None or got[:4] != want[:4]:
            failed += 1
        elif got[4] == STATUS_SKIPPED_CAPACITY:
            skipped += 1
        elif got[4] != want[4] or (got[4] == STATUS_MATCH and not _agree(got[3], got[5], got[6])):
            failed += 1
    if len(rows) != attempted:
        problems.append(f"{len(rows)} rows, expected {attempted}")
    if problems:
        return Verdict(attempted, attempted, skipped, problems)
    return Verdict(attempted, failed, skipped, [f"{failed} of {attempted} rows failed"] if failed else [])
