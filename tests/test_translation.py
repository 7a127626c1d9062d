"""Building tables from first rows, detecting steps, rotations and duals."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from translatable import batch, translation
from translatable.core import (
    CayleyTable,
    InvalidInputError,
    KSequence,
    Ordering,
    mod_rep,
    reorder,
)
from translatable.translation import (
    _positions,
    _rotations,
    all_rotated_presentations,
    detect,
    dual,
    dual_step,
    is_translatable,
    rotate_ordering,
    table_from_sequence,
)

# the order-4 walkthrough: a cyclic group, the same group under a new
# ordering, and an idempotent quasigroup
Z4 = CayleyTable(4, ((1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)))
Z4_REORDERED = CayleyTable(4, ((1, 3, 4, 2), (3, 1, 2, 4), (4, 2, 3, 1), (2, 4, 1, 3)))
IDEMPOTENT4 = table_from_sequence(KSequence(4, 2, (1, 4, 3, 2)))


def rows_of(table: CayleyTable) -> tuple[tuple[int, ...], ...]:
    return tuple(table.row(i) for i in range(1, table.n + 1))


def test_golden_tables_from_sequences():
    assert table_from_sequence(KSequence(4, 3, (1, 2, 3, 4))) == Z4
    assert reorder(Z4, Ordering((1, 3, 4, 2))) == Z4_REORDERED
    assert rows_of(IDEMPOTENT4) == ((1, 4, 3, 2), (3, 2, 1, 4), (1, 4, 3, 2), (3, 2, 1, 4))


def test_golden_step_detection():
    assert detect(Z4) == frozenset({3})
    assert detect(Z4_REORDERED) == frozenset()
    assert detect(IDEMPOTENT4) == frozenset({2})


def test_rows_rotate_right_by_k():
    for n, k in [(5, 2), (6, 3), (7, 1)]:
        seq = KSequence(n, k, tuple(range(1, n + 1)))
        table = table_from_sequence(seq)
        for i in range(1, n):
            prev = table.row(i)
            assert table.row(i + 1) == prev[n - k :] + prev[: n - k]


def test_entry_formula_matches_rotation():
    seq = KSequence(6, 4, (3, 1, 4, 1, 5, 2))
    table = table_from_sequence(seq)
    for i in range(1, 7):
        for j in range(1, 7):
            assert table.entry(i, j) == seq.seq[mod_rep(seq.k - seq.k * i + j, 6) - 1]


def test_is_translatable_matches_detect():
    for table in (Z4, Z4_REORDERED, IDEMPOTENT4):
        for k in range(1, table.n):
            assert is_translatable(table, k) == (k in detect(table))


def translatable_by_loop(table: CayleyTable, k: int, rows=None) -> bool:
    n, rows = table.n, rows or table.grid.tolist()
    return all(rows[i][j] == rows[(i + 1) % n][(j + k) % n] for i in range(n) for j in range(n))


def rotation_stack(rng, n: int, count: int) -> np.ndarray:
    """count step-k tables of random first rows with few or many values, at
    random steps, about half with one cell changed in a random row."""
    rows = np.array([rng.integers(0, rng.choice([min(n, 2), n]), n) for _ in range(count)], dtype=np.int8)
    stack = np.array([_rotations(row, int(rng.integers(n))) for row in rows])
    changed = np.flatnonzero(rng.random(count) < 0.5)
    cells = rng.integers(n, size=(2, len(changed)))
    stack[changed, cells[0], cells[1]] = (stack[changed, cells[0], cells[1]] + 1) % n
    return stack


def test_every_entry_to_the_rotation_test_agrees_with_the_loop(fresh_memo, monkeypatch):
    # detect, is_translatable, translatable_mask and step_verdicts all go
    # through translation._translatable; with three tables a chunk (3 * n a
    # chunk of row pairs) stacks cross chunk edges and one table's rows
    # cross block edges.
    monkeypatch.setattr(translation, "ROW_CHUNK", 3)
    rng = np.random.default_rng(30)
    for n in range(1, 13):
        stack = rotation_stack(rng, n, 8 * n)
        pool = [CayleyTable(n, grid + 1) for grid in stack]
        outcomes = set()
        for k in range(n + 2):
            want = [translatable_by_loop(table, k) for table in pool]
            outcomes.update(want)
            assert batch.translatable_mask(stack, k).tolist() == want, (n, k)
            assert [batch.translatable_mask(stack[b:b + 1], k)[0] for b in range(len(stack))] == want, (n, k)
            assert [is_translatable(table, k) for table in pool] == [1 <= k < n and w for w in want], (n, k)
        for table in pool:
            assert detect(table) == {k for k in range(1, n) if translatable_by_loop(table, k)}, n
        assert outcomes == ({True} if n == 1 else {True, False}), n
        empty = stack[:0]
        assert batch.translatable_mask(empty, 1).shape == (0,)
        assert translation._translatable(empty, np.arange(n + 2)).shape == (n + 2, 0)
    for n in range(2, 7):
        rows = batch.row_array(n, True)
        for k in range(1, n):
            tables = [CayleyTable(n, grid + 1) for grid in batch.product_tables(rows, k)]
            for transposed, pool in ((False, tables), (True, [dual(table) for table in tables])):
                steps = batch.step_verdicts(n, k, transposed)
                for kstar in range(1, n):
                    want = [translatable_by_loop(table, kstar) for table in pool]
                    assert (np.broadcast_to(steps[kstar], len(want)) == want).all(), (n, k, transposed, kstar)
    n = 1024
    row = rng.integers(0, n, n).astype(np.int16)
    k = 1000
    table = CayleyTable._of_grid(_rotations(row, k))
    changed = table.grid.copy()
    changed[700, 3] = (changed[700, 3] + 1) % n
    for grid in (table.grid, changed):
        one, rows = CayleyTable._of_grid(grid.copy()), grid.tolist()
        want = [translatable_by_loop(one, s, rows) for s in range(n + 2)]
        assert want[k] == (grid is table.grid)
        assert translation._translatable(grid[None], np.arange(n + 2))[:, 0].tolist() == want
        some = (0, 1, k, n - 1, n, n + 1)
        assert [batch.translatable_mask(grid[None], s)[0] for s in some] == [want[s] for s in some]
        assert [is_translatable(one, s) for s in some] == [1 <= s < n and want[s] for s in some]
        assert detect(one) == {s for s in range(1, n) if want[s]}


@pytest.mark.parametrize("values", [2, 3])
def test_detect_on_rows_of_few_values_agrees_with_the_loop(values):
    # On a first row over {1, 2} or {1, 2, 3} the first cell T[0][0] =
    # T[1][k] holds at about n / values steps, so detect tests the first row
    # pair of all of them in one gather before sieving each survivor.  Every
    # table comes with a copy changed in one cell, in the last row half the
    # time, where only the sieve past the first row pair sees it.  Orders run
    # from 2, or from 3 with three values, up to 12.
    rng = np.random.default_rng(values)
    several = 0
    for n in range(values, 13):
        for _ in range(40):
            grid = _rotations(rng.integers(0, values, n).astype(np.int8), int(rng.integers(1, n)))
            changed = grid.copy()
            i, j = int(rng.choice([rng.integers(n), n - 1])), int(rng.integers(n))
            changed[i, j] = (changed[i, j] + 1) % values
            for cells in (grid, changed):
                table = CayleyTable._of_grid(cells)
                want = {k for k in range(1, n) if translatable_by_loop(table, k)}
                assert detect(table) == want, (n, cells.tolist())
                several += len(want) > 1
    assert several
    n = 1024
    row = rng.integers(0, 2, n).astype(np.int16)
    grid = _rotations(row, 389)
    changed = grid.copy()
    changed[700, 3] = 1 - changed[700, 3]
    for cells in (grid, changed):
        table, rows = CayleyTable._of_grid(cells), cells.tolist()
        assert np.count_nonzero(cells[1] == cells[0, 0]) > n // 3
        want = {k for k in range(1, n) if translatable_by_loop(table, k, rows)}
        assert want == ({389} if cells is grid else set())
        assert detect(table) == want


def test_translatable_sum_identity():
    # i * [j - k]_n = [i + 1]_n * j across the whole table
    seq = KSequence(6, 2, (2, 2, 4, 4, 6, 6))
    table = table_from_sequence(seq)
    n, k = seq.n, seq.k
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert table.entry(i, mod_rep(j - k, n)) == table.entry(mod_rep(i + 1, n), j)


def test_rotate_ordering_presents_same_step():
    seq = KSequence(6, 2, (1, 2, 3, 4, 5, 6))
    ordering, rotated = rotate_ordering(seq)
    table = table_from_sequence(seq)
    assert reorder(table, ordering) == table_from_sequence(rotated)


def test_all_rotated_presentations_cover_orbit():
    seq = KSequence(5, 2, (2, 1, 4, 3, 5))
    table = table_from_sequence(seq)
    rotations = all_rotated_presentations(seq)
    assert len(rotations) == 5
    seen = set()
    for ordering, rotated in rotations:
        assert reorder(table, ordering) == table_from_sequence(rotated)
        seen.add(rotated.seq)
    assert seq.seq in seen


def test_rotation_fixes_step_one_sequences():
    seq = KSequence(5, 1, (3, 3, 1, 2, 5))
    for _, rotated in all_rotated_presentations(seq):
        assert rotated.seq == seq.seq


def test_dual_is_transpose_and_involution():
    assert rows_of(dual(Z4)) == tuple(zip(*rows_of(Z4)))
    assert dual(dual(IDEMPOTENT4)) == IDEMPOTENT4


def test_dual_step_inverse():
    step = dual_step(7, 3)
    assert step.kstar == 5 and not step.alterable
    assert dual_step(7, 3).kstar * 3 % 7 == 1
    assert dual_step(6, 2).kstar is None
    assert dual_step(5, 2).alterable  # 2*2 = 4 = n-1


def test_dual_step_matches_detection():
    for n in range(2, 8):
        for k in range(1, n):
            seq = KSequence(n, k, tuple(range(1, n + 1)))
            found = detect(dual(table_from_sequence(seq)))
            step = dual_step(n, k)
            if step.kstar is None:
                assert found == frozenset()
            else:
                assert found == frozenset({step.kstar})


def test_detect_rejects_nothing_but_finds_all_steps():
    # a constant table is translatable by every step
    table = CayleyTable(3, ((1, 1, 1), (1, 1, 1), (1, 1, 1)))
    assert detect(table) == frozenset({1, 2})


def test_two_element_edge():
    seq = KSequence(2, 1, (2, 1))
    table = table_from_sequence(seq)
    assert rows_of(table) == ((2, 1), (1, 2))
    assert detect(table) == frozenset({1})
    with pytest.raises(InvalidInputError):
        KSequence(2, 2, (1, 2))


@pytest.mark.parametrize("n", [*range(2, 41), 1024])
def test_positions_are_the_index_rule(n):
    # Every step a table of order n is built at (1..n-1), the steps 0 and n,
    # and steps past n, as the unions pass: (j - k*i) mod n at every cell.
    i, j = np.indices((n, n))
    steps = range(0, n + 2) if n <= 40 else (1, 2, 31, 512, 1023, 1024, 2 * n + 1)
    for k in [*steps, 3 * n - 1]:
        got = _positions(n, k)
        assert got.shape == (n, n) and got.dtype.kind == "i"
        assert (got == (j - k * i) % n).all(), k


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_rotations_are_the_index_rule_in_the_row_dtype(dtype):
    # Any 1-D row, rotated right by k*i places in row i, keeps its dtype;
    # steps k = 0 and k = n rotate by nothing, steps past n wrap around.
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 40, 127):
        row = rng.integers(-128, 128, n).astype(dtype)
        i, j = np.indices((n, n))
        for k in (0, 1, 3, n - 1, n, n + 3, 5 * n + 2):
            got = _rotations(row, k)
            assert got.dtype == dtype and got.shape == (n, n)
            assert (got == row[(j - k * i) % n]).all(), (n, k)


@pytest.mark.parametrize(("n", "bound_mib"), [(1024, 2.0), (600, 0.75)])
def test_detect_reads_the_row_below_as_a_slice_of_the_grid(n, bound_mib):
    # No rolled copy of the whole grid: at most a block of rows is gathered
    # at a time (one whole int16 grid is 2 MiB at order 1024).
    table = table_from_sequence(KSequence(n, n - 1, tuple(range(1, n + 1))))
    tracemalloc.start()
    try:
        steps = detect(table)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert steps == frozenset({n - 1})
    assert peak <= bound_mib
