"""The three workloads: their operations, seeded inputs and expected outputs.

An operation is one ``translatable.cli.main(argv)`` call with ``--out`` to a
file in the work directory.  It succeeds when its exit code and the
SHA-256 of its output bytes match the expectation, which comes either from
an oracle in this file that re-derives the answer with numpy (build,
detect, the early-exit associativity witness) or from ``expected.json``,
recorded from the program by ``record.py`` (verify output, report and
decompose).  The recorded single-table entries cover finite pools of
inputs, so every seed lands on a recorded one.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# The 24 campaigns whose runners call batch.row_array.
ROWSPACE = (
    "left-cancellative-propagation",
    "unique-step",
    "detection-equivalence",
    "modular-conditions",
    "alterable-solvable-quasigroup",
    "idempotent-existence",
    "idempotent-isomorphism",
    "right-cancellable-gcd",
    "alterable-cancellative-step",
    "alterable-square",
    "left-unitary-isomorphism",
    "unitary-step",
    "group-step-cyclic",
    "dual-step",
    "dual-links",
    "associativity-sequence-form",
    "semigroup-criterion",
    "left-neutral-element",
    "no-idempotent-semigroup",
    "right-cancellative-semigroup",
    "constant-column-criterion",
    "constant-column-forcing",
    "idempotent-anchor-semigroup",
    "idempotent-one-semigroup",
)

WORKLOADS = ("verify-rowspace", "verify-constructions", "single-table")

# single-table sizes.  1024 is TRANSLATABLE_MAX_ORDER's default; 992 = 31 + 31*31
# is the largest order <= 1024 with a cancellative semigroup of step 31;
# 66 is the largest order report() accepts, and 11 + 11*11 = 2*66.
BIG_N = 1024
SEMIGROUP = (992, 31)
REPORT = (66, 11)
REPORT_RANDOM_POOL = 24

# How often each command runs in one single-table pass (about 26 s on a
# 2-core Xeon).  check-pass alone takes 5-6 s, so the costly commands run
# twice and only the cheap ones three times.
SCHEDULE = (
    ("build", 3),
    ("detect", 3),
    ("detect-none", 2),
    ("check-pass", 2),
    ("check-fail", 3),
    ("report", 2),
    ("report-random", 1),
    ("decompose", 3),
)
COMMANDS = tuple(kind for kind, _ in SCHEDULE)

@dataclass
class Op:
    """One CLI invocation and what it must produce."""

    kind: str
    argv: list[str]
    exit: int
    sha256: str
    # verify only: campaign id -> {"instances", "statuses", "sha256"}
    campaigns: dict = field(default_factory=dict)

    def instances(self) -> int:
        """Operations this invocation counts for: campaign instances, or 1."""
        if self.campaigns:
            return sum(c["instances"] for c in self.campaigns.values())
        return 1


@dataclass
class Plan:
    """A workload's operations for one seed, plus what the inputs hash to."""

    workload: str
    ops: list[Op]
    inputs_sha256: str


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def campaign_ids(workload: str, theorems) -> list[str]:
    if workload == "verify-rowspace":
        return list(ROWSPACE)
    return [cid for cid in theorems if cid not in ROWSPACE]


def verify_argv(ids) -> list[str]:
    argv = ["verify"]
    for cid in ids:
        argv += ["--theorem", cid]
    return argv


def split_verify_output(text: str) -> dict[str, dict]:
    """Per campaign: instance count, status histogram and its lines' hash."""
    out: dict[str, dict] = {}
    lines: list[str] = []
    statuses: dict[str, int] = {}
    for line in text.splitlines(keepends=True):
        record = json.loads(line)
        lines.append(line)
        if "instances" in record and "failures" in record:
            out[record["theorem"]] = {
                "instances": sum(statuses.values()),
                "statuses": dict(sorted(statuses.items())),
                "sha256": sha256("".join(lines).encode()),
            }
            lines, statuses = [], {}
        else:
            statuses[record["status"]] = statuses.get(record["status"], 0) + 1
    return out


# The only campaign with an expected-fail region; every other instance passes.
EXPECTED_FAILS = {"idempotent-existence": {"expected-fail": 21, "pass": 34}}


def status_problems(campaigns: dict) -> list[str]:
    """Campaigns whose status histogram breaks the all-pass rule."""
    return [
        f"{cid} has statuses {entry['statuses']}"
        for cid, entry in campaigns.items()
        if entry["statuses"] != EXPECTED_FAILS.get(cid, {"pass": entry["instances"]})
    ]


def verify_failures(op: Op, text: str | None) -> int:
    """Instances of a verify op whose campaign did not reproduce exactly."""
    if text is None:
        return op.instances()
    try:
        got = split_verify_output(text)
    except (ValueError, KeyError):
        return op.instances()
    failed = sum(
        want["instances"] for cid, want in op.campaigns.items() if got.get(cid) != want
    )
    # Output bytes that differ outside every campaign block still fail.
    return max(failed, 1)


# -- oracles -----------------------------------------------------------------


def product_table(row, k: int) -> np.ndarray:
    """1-based table with i*j = a_[k - k*i + j], written per cell."""
    a = np.asarray(row, dtype=np.int64)
    n = a.size
    i = np.arange(n).reshape(n, 1)
    j = np.arange(n).reshape(1, n)
    return a[(j - k * i) % n]


def translation_steps(table: np.ndarray) -> list[int]:
    """Every k in 1..n-1 with T[i][j] = T[i+1][j+k] for all cells."""
    n = table.shape[0]
    shifts = (np.arange(n).reshape(1, n) - np.arange(n).reshape(n, 1)) % n
    rotations = table[0][shifts]  # rotations[k] is row 0 rotated right by k
    candidates = np.flatnonzero((rotations == table[1 % n]).all(axis=1))
    below = np.roll(table, -1, axis=0)
    return [
        int(k) for k in candidates
        if 1 <= k < n and np.array_equal(np.roll(table, int(k), axis=1), below)
    ]


def associativity_witness(table: np.ndarray):
    """Least (x, y, z) with (xy)z != x(yz), with both sides; None if none."""
    t = table - 1
    for x in range(t.shape[0]):
        left = t[t[x]]
        right = t[x][t]
        bad = np.argwhere(left != right)
        if bad.size:
            y, z = (int(v) for v in bad[0])
            return (x + 1, y + 1, z + 1, int(left[y, z]) + 1, int(right[y, z]) + 1)
    return None


def table_json(table: np.ndarray) -> str:
    return json.dumps({"n": int(table.shape[0]), "table": table.tolist()}, separators=(",", ":")) + "\n"


def table_text(table: np.ndarray) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())


def seq_text(seq) -> str:
    return " ".join(map(str, seq))


def random_report_row(index: int) -> tuple[int, list[int]]:
    """Member `index` of the pool of random order-66 first rows and steps."""
    rng = random.Random(f"report-random:{index}")
    n = REPORT[0]
    k = rng.randrange(1, n)
    return k, [rng.randrange(1, n + 1) for _ in range(n)]


# -- plans -------------------------------------------------------------------


def verify_plan(workload: str, package, expected: dict) -> Plan:
    theorems = package.campaigns.THEOREMS
    want = expected[workload]
    op = Op(
        "verify",
        verify_argv(campaign_ids(workload, theorems)),
        want["exit"],
        want["sha256"],
        want["campaigns"],
    )
    return Plan(workload, [op], sha256(json.dumps(op.argv).encode()))


def single_table_plan(seed: int, inputs: Path, package, expected: dict) -> Plan:
    """Seeded inputs, written under `inputs`, with every expectation and sanity check."""
    rng = random.Random(seed)
    n = BIG_N
    inputs.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    want = expected["single-table"]
    ops: dict[str, Op] = {}

    def write(name: str, text: str) -> str:
        path = inputs / name
        data = text.encode()
        path.write_bytes(data)
        digest.update(name.encode() + b"\0" + data)
        return str(path)

    # build and detect: a seeded first row and step at order 1024.
    k = rng.randrange(1, n)
    row = [rng.randrange(1, n + 1) for _ in range(n)]
    grid = product_table(row, k)
    digest.update(f"build {k} {seq_text(row)}".encode())
    ops["build"] = Op(
        "build",
        ["build", "--k", str(k), "--seq", seq_text(row), "--format", "json"],
        0,
        sha256(table_json(grid).encode()),
    )
    steps = translation_steps(grid)
    if k not in steps:
        raise SanityError(f"oracle misses the generating step {k} of the detect input")
    ops["detect"] = Op(
        "detect",
        ["detect", "--table", write("translatable.txt", table_text(grid))],
        0,
        sha256((" ".join(map(str, steps)) + "\n").encode()),
    )
    bad = grid.copy()
    i, j = rng.randrange(n), rng.randrange(n)
    bad[i, j] = (bad[i, j] + rng.randrange(1, n)) % n or n
    if translation_steps(bad):
        raise SanityError("the perturbed detect input is still translatable")
    ops["detect-none"] = Op(
        "detect-none",
        ["detect", "--table", write("perturbed.txt", table_text(bad))],
        1,
        sha256(b"none\n"),
    )

    # check: a full scan on a semigroup row, an early exit on a random table.
    semigroups = package.cancellative_semigroups(*SEMIGROUP)
    pick = rng.randrange(len(semigroups))
    seq = semigroups[pick]
    if not package.semigroup_criterion(seq):
        raise SanityError("the check-pass row fails the semigroup criterion")
    digest.update(f"check-pass {pick}".encode())
    ops["check-pass"] = Op(
        "check-pass",
        ["check", "--k", str(seq.k), "--seq", seq_text(seq.seq), "--property", "associative"],
        0,
        sha256(b"associative: yes\n"),
    )
    noise = np.frombuffer(rng.randbytes(2 * n * n), dtype="<u2").reshape(n, n)
    random_table = (noise % n + 1).astype(np.int64)
    witness = associativity_witness(random_table)
    if witness is None or witness[0] != 1:
        raise SanityError(f"the check-fail table does not fail at x = 1: {witness}")
    x, y, z, lhs, rhs = witness
    ops["check-fail"] = Op(
        "check-fail",
        ["check", "--table", write("random.json", table_json(random_table)), "--property", "associative"],
        1,
        sha256(f"associative: no (associative at {x} {y} {z}: {lhs} != {rhs})\n".encode()),
    )

    # report: all identities at order 66, on a semigroup row and a random row.
    small = package.cancellative_semigroups(*REPORT)
    pick = rng.randrange(len(small))
    digest.update(f"report {pick}".encode())
    seq = small[pick]
    rec = want["report"][str(pick)]
    ops["report"] = Op(
        "report", ["check", "--k", str(seq.k), "--seq", seq_text(seq.seq)], rec["exit"], rec["sha256"]
    )
    pick = rng.randrange(REPORT_RANDOM_POOL)
    digest.update(f"report-random {pick}".encode())
    rk, rrow = random_report_row(pick)
    rec = want["report-random"][str(pick)]
    ops["report-random"] = Op(
        "report-random", ["check", "--k", str(rk), "--seq", seq_text(rrow)], rec["exit"], rec["sha256"]
    )

    # decompose: a seeded semigroup row at order 992.
    pick = rng.randrange(len(semigroups))
    digest.update(f"decompose {pick}".encode())
    seq = semigroups[pick]
    rec = want["decompose"][str(pick)]
    ops["decompose"] = Op(
        "decompose", ["decompose", "--k", str(seq.k), "--seq", seq_text(seq.seq)], rec["exit"], rec["sha256"]
    )

    # Round robin, so that each command's samples spread over the pass.
    rounds = max(times for _, times in SCHEDULE)
    schedule = [ops[kind] for r in range(rounds) for kind, times in SCHEDULE if times > r]
    return Plan("single-table", schedule, digest.hexdigest())


class SanityError(RuntimeError):
    """A generated input does not have the property its command relies on."""


def plan(workload: str, seed: int, inputs: Path, package, expected: dict) -> Plan:
    if workload == "single-table":
        return single_table_plan(seed, inputs, package, expected)
    return verify_plan(workload, package, expected)
