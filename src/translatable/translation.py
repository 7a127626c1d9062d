"""Building tables from step sequences and recognising the step afterwards.

A table is k-translatable when each row is the previous row rotated right
by k places, positions taken cyclically.  Equivalently the whole grid is
determined by its first row a_1..a_n through

    i * j = a_[k - ki + j]   (index reduced to 1..n)

and cell-by-cell the grid satisfies T[i][j] = T[i+1][j+k].

Each rule is written once, on 0-based arrays: _rotations, the one rotation
rule, which builds tables here and in structure.cyclic_table and gives
batch.product_tables its index grid (_positions), and _rotation_holds, the
test that finds steps here and in batch.translatable_mask.
detect and translatable_mask share one schedule: the single cell
T[0][0] = T[1][k] first (_first_cell_holds), then whole pairs of adjacent
rows, each only on what passed so far; batch.step_verdicts tests that
cell for every step at once before it calls translatable_mask.  _blocks
is the schedule of growing blocks in which the rotation test here and the
identity sweeps of properties stop at their first failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CayleyTable,
    KSequence,
    Ordering,
    _cell_dtype,
    _check_step,
    mod_rep,
)


def _rotations(row: np.ndarray, k: int) -> np.ndarray:
    """The step-k table on a 1-D first row, in the row's dtype: row i is the
    row rotated right by k*i, so cell (i, j) holds row[(j - k*i) mod n].
    Each is the window of n values at (-k*i) mod n in the row written
    twice, gathered from a strided view, with no index taken per cell."""
    n = len(row)
    doubled = np.concatenate((row, row))
    windows = np.ndarray((n + 1, n), doubled.dtype, doubled, strides=(doubled.itemsize,) * 2)
    return windows[-(k % n) * np.arange(n) % n]


def _positions(n: int, k: int) -> np.ndarray:
    """The first-row position (j - k*i) mod n that cell (i, j) reads, 0-based."""
    return _rotations(np.arange(n), k)


def _rotation_holds(row: np.ndarray, below: np.ndarray, k) -> np.ndarray:
    """T[i][j] == T[i+1][j+k] for every j (the last axis) of row i and the
    row below it; leading axes broadcast, over stacks of rows or of steps."""
    n = row.shape[-1]
    return (row == below[..., (np.arange(n) + k) % n]).all(axis=-1)


def _first_cell_holds(row: np.ndarray, below: np.ndarray, k) -> np.ndarray:
    """T[i][0] == T[i+1][k]: _rotation_holds on the first cell of row i
    alone; leading axes broadcast the same way."""
    return row[..., 0] == below[..., k % row.shape[-1]]


def table_from_sequence(seq: KSequence) -> CayleyTable:
    """Grid whose first row is the sequence and whose rows step right by k."""
    return CayleyTable._of_grid(_rotations(np.array(seq.seq, dtype=_cell_dtype(seq.n)) - 1, seq.k))


def _blocks(stop: int, slab: int, limit: int):
    """Consecutive ranges that cover range(stop), where each value stands for
    a slab of `slab` cells.  The first range holds one slab, or about 2**16
    cells if that is more; each next one twice as many, up to `limit` cells
    (never under one slab).  So a scan that stops at its first failing
    range pays for about one slab when the first slab fails, and makes
    about log2(stop) more calls than fixed ranges of `limit` cells when
    none fails.
    """
    cap = max(1, limit // slab)
    width = min(cap, max(1, (1 << 16) // slab))
    start = 0
    while start < stop:
        yield range(start, min(start + width, stop))
        start += width
        width = min(cap, 2 * width)


def _translatable_steps(grid: np.ndarray, steps: np.ndarray) -> list[int]:
    """The steps among `steps` passing the rotation test on every row (the
    last against the first): filtered on the one cell T[1][1] = T[2][1+k],
    then on rows 1-2, then each survivor on the _blocks of rows, the rows
    below read as a slice, up to its first failing block, and the last row."""
    n = grid.shape[0]
    second = grid[1 % n]
    steps = steps[_first_cell_holds(grid[0], second, steps)]
    steps = steps[_rotation_holds(grid[0], second, steps[:, None])]
    return [
        k for k in steps.tolist()
        if all(_rotation_holds(grid[r.start:r.stop], grid[r.start + 1:r.stop + 1], k).all()
               for r in _blocks(n - 1, n, n * n))
        and _rotation_holds(grid[-1], grid[0], k)
    ]


def detect(table: CayleyTable) -> frozenset[int]:
    """All steps k in 1..n-1 under which the table is translatable.

    Let d be the least rotation that maps the first row onto itself (a
    divisor of n).  Once some step works, every row is a rotation of the
    first and repeats with period d too; two working steps then differ by
    a multiple of d, since row i+1 rotated by either is row i, and a
    working step plus d works again.  So one representative of each class
    modulo d decides its whole class, and the steps are the classes that
    pass, less 0.
    """
    grid, n = table.grid, table.n
    first = grid[0].tolist()
    d = next(d for d in range(1, n + 1) if n % d == 0 and first[d:] == first[:n - d])
    return frozenset(k for r in _translatable_steps(grid, np.arange(d)) for k in range(r, n, d) if k)


def is_translatable(table: CayleyTable, k: int) -> bool:
    """Does the grid satisfy T[i][j] = T[i+1][j+k] everywhere?"""
    return 1 <= k <= table.n - 1 and bool(_translatable_steps(table.grid, np.array([k])))


def rotate_ordering(seq: KSequence) -> tuple[Ordering, KSequence]:
    """One rotation of the presentation.

    The same groupoid is k-translatable with sequence a_k,..,a_n,a_1,..,a_{k-1}
    once its elements are listed in the order n,1,2,..,n-1.
    """
    n, k = seq.n, seq.k
    ordering = Ordering((n,) + tuple(range(1, n)))
    rotated = seq.seq[k - 1:] + seq.seq[:k - 1]
    return ordering, KSequence(n, k, rotated)


def all_rotated_presentations(seq: KSequence) -> list[tuple[Ordering, KSequence]]:
    """The n presentations reachable by iterating the rotation.

    Starts from the identity ordering with the given sequence; iterating the
    rotation n times comes back to the start.  Orderings accumulate by
    composition, so entry m holds the ordering n-m+1,..,n,1,..,n-m.
    """
    n = seq.n
    shift = Ordering((n,) + tuple(range(1, n)))
    out = [(Ordering.identity(n), seq)]
    ordering, current = Ordering.identity(n), seq
    for _ in range(n - 1):
        _, current = rotate_ordering(current)
        ordering = ordering.compose(shift)
        out.append((ordering, current))
    return out


def dual(table: CayleyTable) -> CayleyTable:
    """Transpose: the groupoid with the two arguments swapped."""
    return CayleyTable(table.n, table.grid.T + 1)


@dataclass(frozen=True)
class DualStep:
    """Step data for the transposed groupoid.

    kstar is the unique step of the dual when gcd(k, n) = 1, characterised by
    k * kstar = 1 modulo n, and None otherwise.  The alterable flag records
    whether kstar equals n - k, which happens exactly when k*k = n-1 mod n.
    """

    n: int
    k: int
    kstar: int | None
    alterable: bool


def dual_step(n: int, k: int) -> DualStep:
    """Dual step for order n: the inverse of k modulo n when it exists."""
    _check_step(n, k)
    alterable = mod_rep(k * k, n) == n - 1
    if math.gcd(k, n) != 1:
        return DualStep(n, k, None, alterable)
    kstar = pow(k, -1, n)
    return DualStep(n, k, kstar, alterable)
