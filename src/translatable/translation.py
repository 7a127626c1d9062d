"""Building tables from step sequences and recognising the step afterwards.

A table is k-translatable when each row is the previous row rotated right
by k places, positions taken cyclically.  Equivalently the whole grid is
determined by its first row a_1..a_n through

    i * j = a_[k - ki + j]   (index reduced to 1..n)

and cell-by-cell the grid satisfies T[i][j] = T[i+1][j+k].

Each rule is written once, on 0-based arrays: _rotations, the one rotation
rule, which builds tables here and in structure.cyclic_table and gives
batch.product_tables its index grid (_positions), and _translatable, the
one rotation test, behind detect, is_translatable, batch.translatable_mask
and batch.step_verdicts alike.  It tests the single cell T[0][0] = T[1][k]
of every step on every table of a stack at once (_first_cell_holds), on
a single table the first row pair of every step that passes it, then
sieves, at each step, the tables that pass so far over whole rows
(_rotation_holds).

This module is the one home of the two scan schedules.  _blocks is the
schedule of growing blocks in which the rotation test, the identity
sweeps of properties and the row-block reads of structure stop at their
first failure; _sieve is the schedule of slabs, each checked once over
every table of a stack still passing, in chunks of about ROW_CHUNK*n*n
cells, by which the rotation test, the batch masks and the closed forms
cut a stack down.
"""

from __future__ import annotations

import functools
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

# A _sieve chunk holds about ROW_CHUNK*n*n cells.
ROW_CHUNK = 4096
# The cells a _blocks scan reads in its first range, and in every range of
# a scan with no limit.
_SCAN_CELLS = 1 << 16


def _windows(row: np.ndarray) -> np.ndarray:
    """[s, j] -> row[(j + s) mod n] for s in 0..n: the windows of n values
    in the row written twice, a strided view with no index taken per cell."""
    n = len(row)
    doubled = np.concatenate((row, row))
    return np.ndarray((n + 1, n), doubled.dtype, doubled, strides=(doubled.itemsize,) * 2)


def _rotations(row: np.ndarray, k: int) -> np.ndarray:
    """The step-k table on a 1-D first row, in the row's dtype: row i is the
    row rotated right by k*i, so cell (i, j) holds row[(j - k*i) mod n],
    the window at (-k*i) mod n."""
    n = len(row)
    return _windows(row)[-(k % n) * np.arange(n) % n]


def _positions(n: int, k: int) -> np.ndarray:
    """The first-row position (j - k*i) mod n that cell (i, j) reads, 0-based."""
    return _rotations(np.arange(n), k)


def table_from_sequence(seq: KSequence) -> CayleyTable:
    """Grid whose first row is the sequence and whose rows step right by k."""
    return CayleyTable._of_grid(_rotations(np.array(seq.seq, dtype=_cell_dtype(seq.n)) - 1, seq.k))


def _blocks(stop: int, slab: int, limit: int | None = None):
    """Consecutive ranges that cover range(stop), where each value stands for
    a slab of `slab` cells.  The first range holds one slab, or about
    _SCAN_CELLS cells if that is more; each next one twice as many, up to
    `limit` cells (never under one slab).  So a scan that stops at its first
    failing range pays for about one slab when the first slab fails, and
    makes about log2(stop) more calls than fixed ranges of `limit` cells
    when none fails.  Without a limit every range is the first one's size.
    """
    cap = max(1, (limit or _SCAN_CELLS) // slab)
    width = min(cap, max(1, _SCAN_CELLS // slab))
    start = 0
    while start < stop:
        yield range(start, min(start + width, stop))
        start += width
        width = min(cap, 2 * width)


def _sieve(tables: np.ndarray, slab_ok, slabs, size: int | None = None) -> np.ndarray:
    """True for each table on which slab_ok(chunk, slab) holds for every slab.

    Each slab runs once over every table still passing, in chunks of
    `size` (default ROW_CHUNK; the caller picks it so that one full slab
    over a chunk reads about ROW_CHUNK*n*n cells, whatever the slab's
    shape), and the stack is then cut down to the tables that pass it.  So
    later slabs read only the survivors of the whole stack, in full chunks,
    and a table that fails the first slab, one cell or one line in the hot
    sweeps, costs only that.  slab_ok returns one boolean per table of the
    chunk it is given; slabs is iterated once, and not at all for an empty
    stack.
    """
    b = tables.shape[0]
    size = size or ROW_CHUNK
    alive = None  # indices of the survivors, made at the first cut
    for slab in slabs:
        if not len(tables):
            break
        keep = np.empty(len(tables), dtype=bool)
        for start in range(0, len(tables), size):
            keep[start:start + size] = slab_ok(tables[start:start + size], slab)
        if not keep.all():
            alive = np.flatnonzero(keep) if alive is None else alive[keep]
            tables = tables[keep]
    if alive is None:
        return np.ones(b, dtype=bool)
    ok = np.zeros(b, dtype=bool)
    ok[alive] = True
    return ok


def _first_cell_holds(tables: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """[s, b]: T[0][0] == T[1][k] on tables[b] of a (B, n, n) stack at the
    step k = steps[s]; _rotation_holds on one cell of the first row."""
    n = tables.shape[1]
    return tables[:, 1 % n].T[steps % n] == tables[:, 0, 0]


def _rotation_holds(chunk: np.ndarray, rows: range, k) -> np.ndarray:
    """T[i][j] == T[i+1][j+k] for every row i in `rows` (a range of rows
    above the last) and every j, on each table of a (C, n, n) stack: one
    gather of the rows below and one reduction, one boolean a table."""
    n = chunk.shape[1]
    shifted = chunk[:, rows.start + 1:rows.stop + 1][..., (np.arange(n) + k) % n]
    return (chunk[:, rows.start:rows.stop] == shifted).all(axis=(1, 2))


def _translatable(tables: np.ndarray, steps) -> np.ndarray:
    """[s, b]: does tables[b] of a (B, n, n) stack satisfy T[i][j] =
    T[i+1][j+k] everywhere, the last row against the first, at the step
    k = steps[s]?  The one translatability test of the package.

    First the one cell T[0][0] = T[1][k] of every step on every table at
    once (_first_cell_holds).  On one table, when several steps pass it
    (half of them, on a row of two values), their first row pair is tested
    next, all in one gather.  Then at each step that some table passes,
    those tables are sieved (_sieve) over the adjacent row pairs above the
    last row, one range of _blocks(n - 1, n*B, ROW_CHUNK*n) a slab
    (_rotation_holds).  Planned over the whole stack, the ranges of one
    table grow from about _SCAN_CELLS cells, so a scan that fails early
    stops early, and over a stack of ROW_CHUNK tables or more each range
    is one row pair; a chunk holds ROW_CHUNK*n tables, since a slab of one
    row pair reads n cells of each.  The last row against the first needs
    no slab: the other pairs give T[0][x] = T[n-1][x + (n-1)k], which is
    T[n-1][x] = T[0][x + k], as n*k = 0 modulo n.
    """
    b, n = tables.shape[:2]
    steps = np.asarray(steps)
    held = _first_cell_holds(tables, steps)
    if b == 1 and np.count_nonzero(held) > 1:
        # One table: row 1 against row 0 at every step still passing, in
        # one gather of windows of row 1, before any step's own sieve.
        live = held[:, 0]
        held[live, 0] = (_windows(tables[0, 1 % n])[steps[live] % n] == tables[0, 0]).all(axis=1)
    for s in np.flatnonzero(held.any(axis=1)).tolist():
        passed = slice(None) if held[s].all() else held[s]
        slabs = _blocks(n - 1, n * b, ROW_CHUNK * n)
        rows_hold = functools.partial(_rotation_holds, k=steps[s])
        held[s, passed] = _sieve(tables[passed], rows_hold, slabs, ROW_CHUNK * n)
    return held


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
    passing = np.flatnonzero(_translatable(grid[None], np.arange(d))[:, 0]).tolist()
    return frozenset(k for r in passing for k in range(r, n, d) if k)


def is_translatable(table: CayleyTable, k: int) -> bool:
    """Does the grid satisfy T[i][j] = T[i+1][j+k] everywhere?"""
    return 1 <= k <= table.n - 1 and bool(_translatable(table.grid[None], [k])[0, 0])


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
    return CayleyTable._of_grid(np.ascontiguousarray(table.grid.T))


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
