"""Every registered campaign replays clean at a small order bound; the
construction campaigns read cells through the grid only."""

from __future__ import annotations

import itertools
import json
import math
import random
import tracemalloc

import pytest

import numpy as np

from translatable import batch, campaigns, cli, structure
from translatable.campaigns import THEOREMS, _closed_subsets, _first_bad_row
from translatable.constructions import cancellative_semigroups
from translatable.core import CayleyTable, Ordering, VerificationError
from translatable.search import verify
from translatable.translation import table_from_sequence

SMALL_BOUND = 6


# Every campaign id in the order `verify --theorem list` prints them.
REGISTRY_ORDER = [
    "left-cancellative-propagation",
    "unique-step",
    "detection-equivalence",
    "modular-conditions",
    "idempotent-elastic-sum",
    "idempotent-distributive-symmetry",
    "alterable-solvable-quasigroup",
    "idempotent-existence",
    "idempotent-isomorphism",
    "idempotent-quasigroup",
    "right-cancellable-gcd",
    "alterable-cancellative-step",
    "alterable-square",
    "left-unitary-isomorphism",
    "left-unitary-medial",
    "unitary-step",
    "group-step-cyclic",
    "left-unitary-step-conditions",
    "left-unitary-modular-links",
    "embedding",
    "dual-step",
    "dual-links",
    "associativity-sequence-form",
    "semigroup-criterion",
    "left-neutral-element",
    "left-unitary-semigroup-criterion",
    "block-product-formula",
    "left-unitary-reordering",
    "cancellative-semigroup-isomorphism",
    "ascending-sequence-cyclic",
    "top-step-cyclic",
    "no-idempotent-semigroup",
    "idempotent-set-formula",
    "idempotent-set-left-unitary",
    "right-cancellative-semigroup",
    "anchor-value-cyclic",
    "cyclic-decomposition",
    "ideal-partition",
    "block-order-decomposition",
    "semiprime-ideals",
    "semigroup-class-survey",
    "paramedial-cyclic",
    "constant-column-criterion",
    "constant-column-forcing",
    "idempotent-anchor-semigroup",
    "idempotent-one-semigroup",
    "scaled-residues",
    "union-same-step",
    "union-shifted-step",
    "pair-union",
]


def test_registry_keeps_every_campaign_in_order():
    # A lost or reordered _campaign decorator fails here by name.
    assert list(THEOREMS) == REGISTRY_ORDER
    runs = [campaign.run for campaign in THEOREMS.values()]
    assert len(set(runs)) == len(runs)
    for theorem_id, run in zip(THEOREMS, runs):
        assert run.__name__ == "_run_" + theorem_id.replace("-", "_")
        assert getattr(campaigns, run.__name__) is run


@pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
def test_campaign_passes_at_small_bound(theorem_id):
    bound = min(THEOREMS[theorem_id].default_max_n, SMALL_BOUND)
    report = verify(theorem_id, max_n=bound)
    assert report.passed, [f.as_dict() for f in report.failures]
    # Each result carries the registry id and its instance's (n, k).
    labels = [(r.theorem, r.n, r.k) for r in report.results]
    assert labels == [(theorem_id, *inst[:2]) for inst in THEOREMS[theorem_id].instances(bound)]


def test_every_result_names_its_campaign():
    report = verify("semigroup-criterion", max_n=5)
    assert {r.theorem for r in report.results} == {"semigroup-criterion"}
    assert all(r.status in ("pass", "fail", "expected-fail") for r in report.results)


# One instance of each construction campaign that reads whole tables, with
# its pass payload.  union-shifted-step (600, 24, 1) builds an order-600 union.
GRID_ONLY_INSTANCES = [
    ("union-same-step", (16, 15, 3), {"copies": 3, "order": 48}),
    ("union-shifted-step", (600, 24, 1), {"copies": 1, "order": 600, "step": 24}),
    ("union-shifted-step", (156, 12, 3), {"copies": 3, "order": 468, "step": 324}),
    ("pair-union", (72, 8), {"order": 144}),
    ("semiprime-ideals", (10, 4), None),
    ("semiprime-ideals", (12, 3), None),
    ("ideal-partition", (12, 3), None),
    ("cyclic-decomposition", (24, 8), None),
    ("cancellative-semigroup-isomorphism", (12, 3), {"rows": 4}),
    ("semigroup-class-survey", (12, 3), None),
    ("semigroup-class-survey", (12, 11), None),
    ("block-product-formula", (72, 8), None),
]


@pytest.mark.parametrize(("theorem_id", "inst", "payload"), GRID_ONLY_INSTANCES)
def test_construction_campaigns_read_the_grid_only(monkeypatch, theorem_id, inst, payload):
    # With entry refused, each instance gives the same results as without
    # the patch, and passes.
    run = THEOREMS[theorem_id].run
    before = run(inst)

    def refuse(*args):
        raise AssertionError("a construction campaign read a cell outside grid")

    monkeypatch.setattr(CayleyTable, "entry", refuse)
    after = run(inst)
    assert after == before
    assert after == ("pass", payload)


def test_semigroup_criterion_campaign_checks_the_library(monkeypatch):
    # A library criterion that forgets the first-row recurrence turns the
    # campaign red: it reads properties' criterion, not a copy of it.
    def divisibility_only(rows, k):
        return np.full(len(rows), (k * k + k) % rows.shape[1] == 0)

    monkeypatch.setattr(campaigns, "semigroup_verdicts", divisibility_only)
    assert not verify("semigroup-criterion", max_n=4).passed


def test_left_unitary_reordering_campaign_checks_the_library(monkeypatch):
    # A library reordering rotated by one place turns the campaign red.
    right = campaigns._unitary_reordering

    def rotated(seq):
        perm = right(seq).perm
        return Ordering(perm[1:] + perm[:1])

    monkeypatch.setattr(campaigns, "_unitary_reordering", rotated)
    assert not verify("left-unitary-reordering", max_n=6).passed


def mirrored(real):
    # The same check on the transposed grid: rows read for columns, f*e for e*f.
    return lambda grid, *args: real(grid.T, *args)


def none_at_even_order(real):
    return lambda table: None if table.n % 2 == 0 else real(table)


# Each structural check shared by several campaigns, a plausible wrong
# version of it, and every campaign resting on it.
SHARED_CHECK_MUTANTS = {
    "iso_to_cyclic": (none_at_even_order, (
        "group-step-cyclic", "ascending-sequence-cyclic", "top-step-cyclic", "right-cancellative-semigroup",
        "anchor-value-cyclic", "ideal-partition", "paramedial-cyclic",
    )),
    "_first_band_failure": (mirrored, (
        "idempotent-set-formula", "cyclic-decomposition", "ideal-partition", "block-order-decomposition",
    )),
    "_is_left_ideal": (mirrored, ("ideal-partition", "union-same-step", "union-shifted-step")),
    "_leads_with_left_neutral": (mirrored, (
        "left-unitary-reordering", "cancellative-semigroup-isomorphism", "union-same-step",
        "union-shifted-step", "pair-union",
    )),
}


@pytest.mark.parametrize(
    ("name", "theorem_id"),
    [(name, theorem_id) for name, (_, theorem_ids) in SHARED_CHECK_MUTANTS.items() for theorem_id in theorem_ids],
)
def test_a_wrong_shared_check_turns_each_campaign_on_it_red(monkeypatch, name, theorem_id):
    # The wrong check is patched wherever it is bound, so in campaigns and
    # inside decompose and iso_left_unitary alike.
    real = getattr(structure, name)
    for module in (campaigns, structure):
        if getattr(module, name) is real:
            monkeypatch.setattr(module, name, SHARED_CHECK_MUTANTS[name][0](real))
    report = verify(theorem_id, max_n=min(12, THEOREMS[theorem_id].default_max_n))
    assert any(result.status == "fail" for result in report.results)


def verify_lines(capsys, jobs, *theorem_ids):
    argv = ["verify", "--max-n", "12", "--jobs", jobs]
    for theorem_id in theorem_ids:
        argv += ["--theorem", theorem_id]
    code = cli.main(argv)
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize(
    ("theorem_id", "name", "bad_n"),
    [("top-step-cyclic", "iso_to_cyclic", 5), ("block-order-decomposition", "decompose", 6)],
)
def test_a_library_cross_check_that_raises_fails_only_its_instance(capsys, monkeypatch, theorem_id, name, bad_n):
    # The library's own check raising VerificationError on the order-bad_n
    # instance gives that instance a fail line carrying the message; every
    # other line, the next campaign and both summaries are still written.
    theorems = (theorem_id, "scaled-residues")
    code, clean = verify_lines(capsys, "1", *theorems)
    assert code == 0
    real = getattr(campaigns, name)
    message = f"patched {name} rejects order {bad_n}"

    def raise_at_bad_n(table, *args):
        if table.n == bad_n:
            raise VerificationError(message)
        return real(table, *args)

    monkeypatch.setattr(campaigns, name, raise_at_bad_n)
    expected = []
    for line in clean:
        if line["theorem"] == theorem_id and line.get("n") == bad_n:
            line = {**line, "status": "fail", "witness": {"error": message}}
        elif line["theorem"] == theorem_id and "instances" in line:   # its summary
            line = {**line, "failures": 1, "status": "fail"}
        expected.append(line)
    assert [line["status"] for line in expected].count("fail") == 2
    for jobs in ("1", "2"):
        assert verify_lines(capsys, jobs, *theorems) == (1, expected)


def loop_closed_subsets(rows, side):
    """_closed_subsets by the subset loop: every subset of 1..n, as a
    bitmask, whose products with any q on the given side stay inside."""
    n = len(rows)
    found = set()
    for mask in range(1, 1 << n):
        subset = [x for x in range(1, n + 1) if mask >> (x - 1) & 1]
        if side == "left":
            closed = all(rows[q - 1][s - 1] in subset for q in range(1, n + 1) for s in subset)
        else:
            closed = all(rows[s - 1][q - 1] in subset for q in range(1, n + 1) for s in subset)
        if closed:
            found.add(mask)
    return found


def test_bitmask_subset_scan_matches_the_subset_loop():
    # Every cancellative semigroup with n <= 10, and seeded tables at n <= 6
    # whose subsets are not all unions of principal ideals.
    tables = [
        table_from_sequence(seq)
        for n in range(2, 11) for k in range(1, n) for seq in cancellative_semigroups(n, k)
    ]
    rng = random.Random(10)
    tables += [CayleyTable(n, [[rng.randint(1, n) for _ in range(n)] for _ in range(n)]) for n in (1, 3, 5, 6) for _ in range(5)]
    assert any(t.n == 10 for t in tables)
    for table in tables:
        rows = (table.grid + 1).tolist()
        for side in ("left", "right"):
            assert _closed_subsets(table.grid, side) == loop_closed_subsets(rows, side), (rows, side)


def test_first_bad_row_names_the_first_set_entry():
    rows = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]], dtype=np.int8)
    assert _first_bad_row(rows, np.zeros(4, dtype=bool), "never") is None
    bad = np.array([False, False, True, True])
    assert _first_bad_row(rows, bad, "odd row") == ("fail", {"row": [2, 3, 1], "note": "odd row"})
    seen = []
    got = _first_bad_row(rows, bad, lambda b: seen.append(b) or f"row {b}")
    assert got == ("fail", {"row": [2, 3, 1], "note": "row 2"}) and seen == [2]


def test_right_cancellative_tables_have_permutation_first_rows():
    # Why alterable-cancellative-step sweeps the permutation rows only:
    # column j of a step-k table reads the first row at positions
    # (j - k*i) mod n, so n distinct values there need a permutation row.
    for n in range(2, 6):
        rows = batch.row_array(n, False)
        perm = batch._distinct(rows, 1)
        for k in range(1, n):
            right = batch.right_cancellative_mask(batch.product_tables(rows, k))
            assert not (right & ~perm).any(), (n, k)
            assert right.any() == (math.gcd(k, n) == 1), (n, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_detection_equivalence_grids_are_in_lexicographic_order(n):
    grids = campaigns._all_grids(n)
    assert grids.dtype == np.int8
    assert grids.tolist() == np.array(list(itertools.product(range(n), repeat=n * n))).reshape(-1, n, n).tolist()


@pytest.mark.parametrize(("theorem", "instance", "mib"), [
    ("detection-equivalence", (6, 5), 2.25),
    ("detection-equivalence", (3, 2), 1),
    ("alterable-solvable-quasigroup", (4, None), 4),
])
def test_whole_space_campaigns_hold_one_block_of_tables(fresh_memo, theorem, instance, mib):
    # 46,656 tables of order 6 and 24**4 of order 4, swept a row block at a
    # time: the whole stacks alone would take 1.6 and 5.1 MiB.  Order 6
    # peaks at 1.96 MiB, its column shift read a row at a time (2.47 with
    # two rolled copies of each block).  The 3**9 grids of order 3 are made
    # as int8 indices, 0.17 MiB, not as a list of tuples (3.0 MiB traced);
    # measured 0.53 MiB peak.
    tracemalloc.start()
    try:
        result = THEOREMS[theorem].result(instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "pass"
    assert peak < mib * 2**20


def test_constant_column_campaigns_share_one_sweep(fresh_memo):
    columns = campaigns._constant_columns(5, 2)
    assert campaigns._constant_columns(5, 2) is columns
    assert "constant-columns" not in batch.MASKS
    tables = batch.product_tables(batch.row_array(5, False), 2)
    assert (columns == (tables == tables[:, :1, :]).all(axis=(1, 2))).all()
