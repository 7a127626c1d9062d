"""Idempotents, cyclic decomposition, isomorphisms and ideals."""

from __future__ import annotations

import random
import tracemalloc
from math import gcd

import numpy as np
import pytest

from translatable import properties, structure
from translatable.campaigns import THEOREMS
from translatable.constructions import cancellative_semigroups, left_unitary_groupoid
from translatable.core import BoundError, CayleyTable, KSequence, PreconditionError, VerificationError, mod_rep
from translatable.properties import check, idempotent_elements, left_neutral_elements, semigroup_criterion
from translatable.structure import (
    Decomposition,
    _first_broken_product,
    cyclic_table,
    decompose,
    ideals,
    idempotent_set,
    idempotent_set_formula,
    iso_idempotent,
    iso_left_unitary,
    iso_to_cyclic,
    left_unitary_idempotents,
    principal_ideal,
)
from translatable.translation import (
    _SCAN_CELLS,
    all_rotated_presentations,
    table_from_sequence,
)


def test_idempotent_set_formula_matches_scan():
    for seq in (
        KSequence(6, 2, (1, 2, 3, 4, 5, 6)),
        KSequence(6, 2, (3, 4, 5, 6, 1, 2)),
        KSequence(6, 3, (1, 2, 3, 4, 5, 6)),
        KSequence(12, 8, tuple(range(1, 13))),
    ):
        table = table_from_sequence(seq)
        assert idempotent_set_formula(seq) == idempotent_set(table)


def test_left_unitary_idempotent_positions():
    for n in range(2, 13):
        for k in range(1, n):
            expected = frozenset(
                mod_rep(i + k * (i - 1), n) for i in range(1, n + 1)
            )
            assert left_unitary_idempotents(n, k) == expected


def test_decompose_golden_six_two_identity():
    seq = KSequence(6, 2, (1, 2, 3, 4, 5, 6))
    dec = decompose(table_from_sequence(seq), seq)
    assert dec.m == 3 and dec.t == 2
    assert dec.idempotents == frozenset({1, 4})
    assert dec.components == ((1, 3, 5), (2, 4, 6))
    assert dec.generators == (5, 2)


def test_decompose_golden_six_three_identity():
    seq = KSequence(6, 3, (1, 2, 3, 4, 5, 6))
    dec = decompose(table_from_sequence(seq), seq)
    assert dec.m == 2 and dec.t == 3
    assert dec.idempotents == frozenset({1, 3, 5})
    assert dec.components == ((1, 4), (3, 6), (2, 5))
    assert dec.generators == (4, 6, 2)


def test_decompose_golden_six_two_shifted():
    seq = KSequence(6, 2, (3, 4, 5, 6, 1, 2))
    dec = decompose(table_from_sequence(seq), seq)
    assert dec.idempotents == frozenset({2, 5})
    assert dec.components == ((2, 4, 6), (1, 3, 5))
    assert dec.generators == (6, 3)


def test_decompose_components_partition_and_are_left_ideals():
    seq = KSequence(12, 8, tuple(range(1, 13)))
    table = table_from_sequence(seq)
    dec = decompose(table, seq)
    assert dec.m == 3 and dec.t == 4
    flat = sorted(x for comp in dec.components for x in comp)
    assert flat == list(range(1, 13))
    for comp in dec.components:
        inside = set(comp)
        for x in range(1, 13):
            for y in comp:
                assert table.entry(x, y) in inside


def test_decompose_shape_follows_gcd():
    for n in range(2, 13):
        for k in range(1, n):
            if mod_rep(k * k + k, n) != n:
                continue
            seq = KSequence(n, k, tuple(range(1, n + 1)))
            dec = decompose(table_from_sequence(seq), seq)
            assert dec.t == gcd(n, k)
            assert dec.m == n // gcd(n, k)
            assert len(dec.idempotents) == dec.t


def test_decompose_refuses_non_semigroups():
    seq = KSequence(4, 2, (1, 4, 3, 2))
    with pytest.raises(PreconditionError):
        decompose(table_from_sequence(seq), seq)


def test_iso_left_unitary_golden():
    iso = iso_left_unitary(
        KSequence(6, 2, (1, 2, 3, 4, 5, 6)), KSequence(6, 2, (3, 4, 5, 6, 1, 2))
    )
    assert iso.mapping == (5, 6, 1, 2, 3, 4)


def test_iso_left_unitary_all_admissible_pairs():
    from translatable.constructions import cancellative_semigroups

    for n in range(2, 10):
        for k in range(1, n):
            family = cancellative_semigroups(n, k)
            for first in family:
                for second in family:
                    iso = iso_left_unitary(first, second)
                    assert sorted(iso.mapping) == list(range(1, n + 1)), (n, k, first.seq, second.seq)


def test_iso_idempotent_rotated_presentations():
    from translatable.constructions import idempotent_groupoid

    for n in range(2, 8):
        for k in range(2, n):
            if gcd(k - 1, n) != 1:
                continue
            seq = idempotent_groupoid(n, k)
            for _, rotated in all_rotated_presentations(seq):
                iso = iso_idempotent(seq, rotated)
                assert sorted(iso.mapping) == list(range(1, n + 1)), (n, k, rotated.seq)


def test_cyclic_table_shape():
    table = cyclic_table(5)
    assert table.row(1) == (1, 2, 3, 4, 5)
    assert table.entry(3, 4) == mod_rep(3 + 4 - 1, 5)


def test_iso_to_cyclic_top_step():
    for n in range(2, 10):
        seq = KSequence(n, n - 1, tuple(range(1, n + 1)))
        iso = iso_to_cyclic(table_from_sequence(seq))
        assert iso is not None and iso.mapping == tuple(range(1, n + 1))


def test_iso_to_cyclic_rejects_non_groups():
    seq = KSequence(6, 2, (1, 2, 3, 4, 5, 6))  # four non-invertible elements
    assert iso_to_cyclic(table_from_sequence(seq)) is None
    bad = KSequence(4, 2, (1, 4, 3, 2))  # not even associative
    assert iso_to_cyclic(table_from_sequence(bad)) is None


def test_principal_ideals_and_golden_partition():
    table = table_from_sequence(KSequence(6, 2, (1, 2, 3, 4, 5, 6)))
    assert principal_ideal(table, 1, "left") == (1, 3, 5)
    assert principal_ideal(table, 2, "left") == (2, 4, 6)
    found = ideals(table, "left")
    assert [i.elements for i in found] == [(1, 3, 5), (2, 4, 6), (1, 2, 3, 4, 5, 6)]
    assert all(i.semiprime for i in found)


def test_right_ideals_of_commutative_table_match_left():
    seq = KSequence(5, 4, (1, 2, 3, 4, 5))
    table = table_from_sequence(seq)
    left = {i.elements for i in ideals(table, "left")}
    right = {i.elements for i in ideals(table, "right")}
    assert left == right


def test_ideals_bound_guard():
    seq = KSequence(16, 15, tuple(range(1, 17)))
    with pytest.raises(BoundError):
        ideals(table_from_sequence(seq), "left")
    # explicit bound lifts the guard; a group has only the trivial ideal
    found = ideals(table_from_sequence(seq), "left", bound=16)
    assert [i.elements for i in found] == [tuple(range(1, 17))]


def test_order_992_paths_read_the_grid_not_the_rows_view(monkeypatch):
    # check associative, decompose and the diagonal and neutral scans answer
    # on the order-992 semigroup and on a one-cell change of it from grid
    # alone, with the 1-based entry, row and column refused; each answer is
    # set against an oracle of its own.
    seq = cancellative_semigroups(992, 31)[0]
    table = table_from_sequence(seq)
    cells = table.grid + 1
    cells[500, 700] = cells[500, 700] % 992 + 1
    changed = CayleyTable(992, cells)
    rows = {t: t.grid.tolist() for t in (table, changed)}
    witness = properties._least_witness("associative", changed.grid)
    assert witness is not None and semigroup_criterion(seq)
    n, k = seq.n, seq.k
    idems = sorted(idempotent_set_formula(seq))
    expected = Decomposition(
        frozenset(idems), n // gcd(n, k), gcd(n, k),
        tuple(tuple(sorted({r[e - 1] + 1 for r in rows[table]})) for e in idems),
        tuple(mod_rep(e - k, n) for e in idems),
    )

    def refuse(*args):
        raise AssertionError("a 1-based view of the table was read")

    for name in ("entry", "row", "column"):
        monkeypatch.setattr(CayleyTable, name, refuse)
    assert check(table, "associative") == (True, None)
    assert check(changed, "associative") == (False, witness)
    assert decompose(table, seq) == expected
    with pytest.raises(PreconditionError, match="not generated by the given sequence"):
        decompose(changed, seq)
    for t, r in rows.items():
        assert idempotent_elements(t) == tuple(i + 1 for i in range(n) if r[i][i] == i)
        assert left_neutral_elements(t) == tuple(e + 1 for e in range(n) if r[e] == list(range(n)))
    assert idempotent_elements(table) == tuple(idems) == left_neutral_elements(table)


def test_iso_to_cyclic_names_the_first_failing_product_of_a_loop(monkeypatch):
    # Against a target table with one cell changed the verification fails;
    # the product it names is the first (x, y), row-major, where a loop over
    # all n**2 products finds phi(x*y) != phi(x)*phi(y).
    rng = random.Random(5)
    cases = []
    for n in (2, 5, 6, 9):
        for seq in cancellative_semigroups(n, n - 1):
            table = table_from_sequence(seq)
            phi = iso_to_cyclic(table).mapping
            rows = (table.grid + 1).tolist()
            for _ in range(4):
                target = (cyclic_table(n).grid + 1).tolist()
                a, b = rng.randrange(n), rng.randrange(n)
                target[a][b] = target[a][b] % n + 1
                first = next(
                    (x, y)
                    for x in range(1, n + 1)
                    for y in range(1, n + 1)
                    if phi[rows[x - 1][y - 1] - 1] != target[phi[x - 1] - 1][phi[y - 1] - 1]
                )
                cases.append((table, target, first))
    assert len({first for _, _, first in cases}) > 10
    for table, target, first in cases:
        monkeypatch.setattr(structure, "cyclic_table", lambda n, target=target: CayleyTable(n, target))
        with pytest.raises(VerificationError, match=rf"cyclic map fails on the product {first[0]}\*{first[1]}$"):
            iso_to_cyclic(table)


def test_order_1024_cyclic_group_decomposes_into_one_component():
    # t = 1, m = 1024: the component's associativity is Light's test on
    # the generator's slab, not the 1024**3 cube.
    seq = cancellative_semigroups(1024, 1023)[0]
    n, k = seq.n, seq.k
    (e,) = idempotent_set_formula(seq)
    expected = Decomposition(frozenset({e}), n, 1, (tuple(range(1, n + 1)),), (mod_rep(e - k, n),))
    assert decompose(table_from_sequence(seq), seq) == expected


def whole_grid_first(grid, image, target, at):
    """The row-major first (x, y), 1-based, with image[x*y] !=
    target[at[x], at[y]], read off the whole grid at once."""
    bad = image[grid] != target[np.ix_(at, at)]
    return tuple(int(v) + 1 for v in np.unravel_index(bad.argmax(), bad.shape)) if bad.any() else None


def test_broken_product_is_the_whole_grid_first_in_every_row_block():
    # A map that respects every product, then targets with one cell changed
    # in the first, a middle and the last block of rows: the helper names
    # the (x, y) a whole-grid argmax names.
    n = 600
    rows_per_block = _SCAN_CELLS // n
    assert n > 3 * rows_per_block
    rng = np.random.default_rng(7)
    grid = table_from_sequence(cancellative_semigroups(n, 24)[1]).grid
    image = rng.permutation(n)
    target = np.empty_like(grid)
    target[np.ix_(image, image)] = image[grid]
    identity = np.arange(n)
    assert _first_broken_product(grid, image, target) is None
    assert _first_broken_product(grid, identity, grid, identity) is None
    for x in (0, rows_per_block - 1, rows_per_block, n // 2, n - 1):
        y = int(rng.integers(n))
        changed = target.copy()
        changed[image[x], image[y]] = (changed[image[x], image[y]] + 1) % n
        found = _first_broken_product(grid, image, changed)
        assert found == whole_grid_first(grid, image, changed, image) == (x + 1, y + 1)
        relabelled = grid.copy()
        relabelled[x, y] = (relabelled[x, y] + 1) % n
        found = _first_broken_product(grid, identity, relabelled, identity)
        assert found == whole_grid_first(grid, identity, relabelled, identity) == (x + 1, y + 1)


def traced_peak(call) -> float:
    """Peak MiB that numpy and Python allocate during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_large_tables_are_built_and_compared_in_their_own_dtype():
    # Order-1024 tables and the order-600 union and isomorphism each take a
    # few int16 grids at most, not whole-grid int64 temporaries.
    seq = KSequence(1024, 5, tuple(np.random.default_rng(1).integers(1, 1025, 1024).tolist()))
    semigroup, unitary = cancellative_semigroups(600, 24)[0], left_unitary_groupoid(600, 24)
    union = THEOREMS["union-shifted-step"]
    assert traced_peak(lambda: table_from_sequence(seq)) <= 5
    assert traced_peak(lambda: cyclic_table(1024)) <= 5
    assert traced_peak(lambda: iso_left_unitary(semigroup, unitary)) <= 3
    results = []
    assert traced_peak(lambda: results.append(union.result((600, 24, 1)))) <= 4.5
    assert results[0].status == "pass"
