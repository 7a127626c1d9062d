"""Acceptance gate: twelve checks, one test and one verdict line apiece.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion
pass/fail listing.  Each check is self-contained: goldens are written out
in full, oracles are definitional sweeps (plain loops or vectorised cell
comparisons), and runtime ceilings are asserted where a check is expected
to stay fast.
"""

from __future__ import annotations

import itertools
import time
from math import gcd

import numpy as np
import pytest

from translatable import batch
from translatable.constructions import (
    UnionSpec,
    cancellative_semigroups,
    constant_column_semigroups,
    idempotent_groupoid,
    union_same_step,
    union_shifted_step,
)
from translatable.core import (
    CayleyTable,
    ConstructionError,
    KSequence,
    Ordering,
    mod_rep,
    reorder,
)
from translatable.properties import (
    check,
    left_unitary_characterize,
    semigroup_criterion,
)
from translatable.search import catalog, catalog_count, verify
from translatable.structure import decompose, iso_idempotent, iso_left_unitary, iso_to_cyclic
from translatable.translation import (
    all_rotated_presentations,
    detect,
    is_translatable,
    table_from_sequence,
)


def brute_associative(table: CayleyTable) -> bool:
    r = range(1, table.n + 1)
    return all(
        table.entry(table.entry(x, y), z) == table.entry(x, table.entry(y, z))
        for x in r
        for y in r
        for z in r
    )


def rows_of(table: CayleyTable) -> tuple[tuple[int, ...], ...]:
    return tuple(table.row(i) for i in range(1, table.n + 1))


def full_scan_associative(table: CayleyTable) -> bool:
    """Cell-complete O(n^3) associativity sweep, row-vectorised."""
    grid = table.grid.astype(np.int32)
    for x in range(table.n):
        left = grid[grid[x], :]  # (x*y)*z over all y, z
        right = grid[x, grid]  # x*(y*z)
        if not np.array_equal(left, right):
            return False
    return True


def test_criterion_01_golden_walkthrough_tables():
    z4 = table_from_sequence(KSequence(4, 3, (1, 2, 3, 4)))
    assert rows_of(z4) == ((1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3))
    moved = reorder(z4, Ordering((1, 3, 4, 2)))
    assert rows_of(moved) == ((1, 3, 4, 2), (3, 1, 2, 4), (4, 2, 3, 1), (2, 4, 1, 3))
    idem = table_from_sequence(KSequence(4, 2, (1, 4, 3, 2)))
    assert rows_of(idem) == ((1, 4, 3, 2), (3, 2, 1, 4), (1, 4, 3, 2), (3, 2, 1, 4))
    started = time.perf_counter()
    found = (detect(z4), detect(moved), detect(idem))
    elapsed = time.perf_counter() - started
    assert found == (frozenset({3}), frozenset(), frozenset({2}))
    assert elapsed < 0.001


def test_criterion_02_associativity_criterion_oracle():
    started = time.perf_counter()
    for n in range(2, 8):
        rows = batch.row_array(n, True)
        for k in range(1, n):
            tables = batch.product_tables(rows, k)
            definitional = batch.associative_mask(tables)
            for row, expected in zip(rows, definitional):
                seq = KSequence.of(n, k, (row + 1).tolist())
                assert semigroup_criterion(seq) == bool(expected), (n, k, seq.seq)
    assert time.perf_counter() - started < 60.0


def test_criterion_03_construction_census():
    found = cancellative_semigroups(6, 2)
    assert len(found) == 3
    scanned = sorted(
        values
        for values in itertools.permutations(range(1, 7))
        if brute_associative(table_from_sequence(KSequence(6, 2, values)))
    )
    assert sorted(s.seq for s in found) == scanned
    for n in range(2, 7):
        census = catalog(n)
        assert census == catalog(n)
    assert catalog_count(catalog(6, permutation_only=True), 2, {"permutation", "associative"}) == 3
    assert catalog_count(catalog(4), 2, {"idempotent"}) == 1


def test_criterion_04_left_unitary_characterization():
    mismatches = []
    for n in range(2, 13):
        for k in range(1, n):
            table = table_from_sequence(KSequence(n, k, tuple(range(1, n + 1))))
            predicted = left_unitary_characterize(n, k)
            for name, expected in predicted.items():
                observed = check(table, name)[0]
                if observed != expected:
                    mismatches.append((n, k, name, expected, observed))
    assert mismatches == []


def test_criterion_05_decomposition_examples():
    seq = KSequence(6, 2, (1, 2, 3, 4, 5, 6))
    dec = decompose(table_from_sequence(seq), seq)
    assert (dec.m, dec.t) == (3, 2)
    assert dec.idempotents == frozenset({1, 4})
    seq = KSequence(6, 3, (1, 2, 3, 4, 5, 6))
    dec = decompose(table_from_sequence(seq), seq)
    assert (dec.m, dec.t) == (2, 3)
    assert dec.idempotents == frozenset({1, 3, 5})


def test_criterion_06_constant_column_families():
    families = {
        (12, 6): (
            (12, 12, 9, 10, 9, 12, 12, 12, 9, 10, 9, 12),
            (1, 1, 1, 10, 11, 10, 1, 1, 1, 10, 11, 10),
            (5, 8, 8, 8, 5, 6, 5, 8, 8, 8, 5, 6),
        ),
        (6, 3): (
            (1, 3, 3, 1, 3, 3),
            (2, 2, 6, 2, 2, 6),
            (1, 5, 1, 1, 5, 1),
        ),
        (10, 5): (
            (1, 5, 4, 4, 5, 1, 5, 4, 4, 5),
            (4, 3, 3, 4, 10, 4, 3, 3, 4, 10),
            (1, 2, 8, 2, 1, 1, 2, 8, 2, 1),
        ),
    }
    for (n, k), rows in families.items():
        produced = {s.seq for s in constant_column_semigroups(n, k)}
        for row in rows:
            assert row in produced, (n, k, row)
            table = table_from_sequence(KSequence(n, k, row))
            assert brute_associative(table)
            assert all(table.row(i) == row for i in range(1, n + 1))

    # the order-6 trio is pairwise isomorphic: brute bijection scan
    trio = [table_from_sequence(KSequence(6, 3, row)) for row in families[(6, 3)]]

    def isomorphic(a: CayleyTable, b: CayleyTable) -> bool:
        for perm in itertools.permutations(range(1, 7)):
            phi = dict(zip(range(1, 7), perm))
            if all(
                phi[a.entry(x, y)] == b.entry(phi[x], phi[y])
                for x in range(1, 7)
                for y in range(1, 7)
            ):
                return True
        return False

    assert isomorphic(trio[0], trio[1])
    assert isomorphic(trio[0], trio[2])
    assert isomorphic(trio[1], trio[2])


def test_criterion_07_glued_union_flagships():
    started = time.perf_counter()
    small = union_same_step(UnionSpec(12, 8, 2))
    assert small.table.n == 24 and small.step == 8
    assert is_translatable(small.table, 8)
    assert check(small.table, "left-unitary")[0]
    assert full_scan_associative(small.table)
    dec = decompose(small.table, KSequence(24, 8, small.table.row(1)))
    assert (dec.m, dec.t) == (3, 8)

    big = union_shifted_step(UnionSpec(72, 8, 8))
    assert big.table.n == 576 and big.step == 512
    assert is_translatable(big.table, 512)
    assert full_scan_associative(big.table)
    dec = decompose(big.table, KSequence(576, 512, big.table.row(1)))
    assert (dec.m, dec.t) == (9, 64)
    assert time.perf_counter() - started < 120.0


def test_criterion_08_isomorphism_builders():
    for n in range(2, 13):
        for k in range(1, n):
            family = cancellative_semigroups(n, k)
            for first in family:
                for second in family:
                    assert sorted(iso_left_unitary(first, second).mapping) == list(range(1, n + 1)), (n, k)
            if k >= 2 and gcd(k - 1, n) == 1:
                seq = idempotent_groupoid(n, k)
                for _, rotated in all_rotated_presentations(seq):
                    assert sorted(iso_idempotent(seq, rotated).mapping) == list(range(1, n + 1)), (n, k)
    for n in range(2, 10):
        for seq in cancellative_semigroups(n, n - 1):
            iso = iso_to_cyclic(table_from_sequence(seq))
            assert iso is not None, (n, seq.seq)


def test_criterion_09_negative_results():
    # no idempotent translatable semigroup at any order up to 6, any first row
    for n in range(2, 7):
        rows = batch.row_array(n, False)
        for k in range(1, n):
            tables = batch.product_tables(rows, k)
            both = batch.idempotent_mask(tables) & batch.associative_mask(tables)
            assert not both.any(), (n, k)
            if k == 1:
                assert not batch.idempotent_mask(tables).any(), n
    for n in range(2, 13):
        with pytest.raises(ConstructionError):
            idempotent_groupoid(n, 1)
        for k in range(1, n):
            facts = left_unitary_characterize(n, k)
            assert not facts["right-distributive"], (n, k)
            assert not facts["strongly-elastic"], (n, k)
            table = table_from_sequence(KSequence(n, k, tuple(range(1, n + 1))))
            assert not check(table, "right-distributive")[0], (n, k)
            assert not check(table, "strongly-elastic")[0], (n, k)


def test_criterion_10_erratum_expected_failures():
    results = []
    report = verify("idempotent-existence", max_n=12, on_result=results.append)
    assert report.passed
    expected_fail = {(r.n, r.k) for r in results if r.status == "expected-fail"}
    passed = {(r.n, r.k) for r in results if r.status == "pass"}
    assert (6, 3) in expected_fail
    for n, k in expected_fail:
        assert gcd(k - 1, n) > 1, (n, k)
    for n, k in passed:
        assert gcd(k - 1, n) == 1, (n, k)


def test_criterion_11_dual_theory():
    for campaign in ("dual-step", "dual-links"):
        report = verify(campaign, max_n=9)
        assert report.passed, campaign
        assert report.instances_checked > 0
        assert report.failures == ()


def test_criterion_12_embedding_preservation():
    report = verify("embedding", max_n=6)
    assert report.passed
    assert report.instances_checked > 0
    assert report.failures == ()
