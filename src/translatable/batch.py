"""Vectorised sweeps over every candidate first row at once.

The identity masks evaluate the definitions in properties.IDENTITIES, the
same ones `check` evaluates on a single table, with numpy across a whole
batch of tables so that exhaustive campaigns over n! or n^n first rows
finish in seconds.  Tables are stored as a (B, n, n) array of 0-based
entries; every mask returns one boolean per table and is computed cell by
cell, never through a closed form.

The identity masks and the rotation test are sieved (_sieve): the cells
are cut into slabs, one value of the outer variable of a three-variable
identity, one (i, j) pair of a four-variable one, one pair of adjacent
rows, or a single slab below three variables, and each slab is checked
only on the tables that passed every earlier slab, ROW_CHUNK tables at a
time.  Most rows of a row space fail an early slab, so a
whole-space mask costs a few slabs per row rather than all of them.

Row spaces and the masks campaigns take over a whole row space are
memoised as read-only arrays until clear_memo(); the verify command clears
them when it starts and when it ends, so one command computes each row
space and each whole-space mask once, still cell by cell.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import BoundError
from .properties import IDENTITIES
from .translation import _positions, _rotation_holds

ROW_CHUNK = 4096
# Most table cells (rows times n*n) a row space may generate: every default
# campaign window fits (permutations to n = 9, all rows to n = 7).
ROW_CELL_BUDGET = 1 << 26

_ROWS: dict[tuple[int, bool], np.ndarray] = {}
_VERDICTS: dict[tuple, np.ndarray | dict[int, np.ndarray]] = {}


def clear_memo() -> None:
    """Forget every memoised row space and whole-space mask."""
    _ROWS.clear()
    _VERDICTS.clear()


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _all_rows(n: int) -> np.ndarray:
    # np.indices varies its last axis fastest, which is lexicographic order.
    return np.ascontiguousarray(np.indices((n,) * n, dtype=np.int8).reshape(n, n**n).T)


def _permutations(n: int) -> np.ndarray:
    """Lexicographic permutations of range(n): each first value in turn,
    followed by the permutations of the rest, relabelled in order."""
    rows = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n + 1):
        block = rows.shape[0]
        out = np.empty((m * block, m), dtype=np.int8)
        for first in range(m):
            part = out[first * block:(first + 1) * block]
            part[:, 0] = first
            part[:, 1:] = rows + (rows >= first)
        rows = out
    return rows


def row_array(n: int, permutation_only: bool) -> np.ndarray:
    """All first rows as a read-only (B, n) array of 0-based values, lexicographic.

    Memoised until clear_memo().  Refuses with BoundError, before
    allocating, a space whose tables would exceed ROW_CELL_BUDGET cells.
    """
    key = (n, bool(permutation_only))
    rows = _ROWS.get(key)
    if rows is None:
        count = math.factorial(n) if permutation_only else n**n
        if count * n * n > ROW_CELL_BUDGET:
            kind = "permutation" if permutation_only else "full"
            raise BoundError(
                f"{kind} row space at n = {n} needs {count * n * n} table cells, "
                f"over the row-space budget of {ROW_CELL_BUDGET}"
            )
        rows = _ROWS[key] = _frozen(_permutations(n) if permutation_only else _all_rows(n))
    return rows


def space_verdicts(name: str, n: int, k: int, permutation_only: bool) -> np.ndarray:
    """MASKS[name] over every table of row_array(n, permutation_only) at step k."""
    key = (name, n, k, bool(permutation_only))
    verdicts = _VERDICTS.get(key)
    if verdicts is None:
        tables = product_tables(row_array(n, permutation_only), k)
        verdicts = _VERDICTS[key] = _frozen(MASKS[name](tables))
    return verdicts


def dual_step_verdicts(n: int, k: int) -> dict[int, np.ndarray]:
    """translatable_mask at every step 1..n-1 over the duals (transposes) of
    every step-k table with a permutation first row."""
    key = ("dual", n, k)
    verdicts = _VERDICTS.get(key)
    if verdicts is None:
        duals = product_tables(row_array(n, True), k).transpose(0, 2, 1)
        verdicts = _VERDICTS[key] = {
            kstar: _frozen(translatable_mask(duals, kstar)) for kstar in range(1, n)
        }
    return verdicts


def product_tables(rows: np.ndarray, k: int) -> np.ndarray:
    """(B, n, n) tables generated by each row under step k, 0-based.

    Row i of a generated table reads the first row at position j - k*i
    modulo n (translation._positions, as for table_from_sequence).
    """
    return rows[:, _positions(rows.shape[1], k)]


def compose(tables: np.ndarray, x, y) -> np.ndarray:
    """Per-table products tables[b, x[b...], y[b...]] for index arrays.

    x and y broadcast to a shape whose first axis is the table axis; the
    products are read through one flat index into the whole stack.
    """
    b, n, _ = tables.shape
    x, y = np.broadcast_arrays(x, y)
    base = np.arange(b).reshape((b,) + (1,) * (x.ndim - 1)) * n
    return tables.reshape(-1)[(base + x) * n + y]


def _sieve(tables: np.ndarray, slab_ok, slabs, size: int | None = None) -> np.ndarray:
    """True for each table on which slab_ok(chunk, slab) holds for every slab.

    Tables go through in blocks of `size` (default ROW_CHUNK).  After each
    slab a block keeps only the tables still passing, so later slabs read
    only those and a table that fails its first slab costs one slab.
    slab_ok returns one boolean per table of the chunk it is given; slabs
    is re-iterated for every block.
    """
    b = tables.shape[0]
    size = size or ROW_CHUNK
    ok = np.zeros(b, dtype=bool)
    for start in range(0, b, size):
        chunk = tables[start:start + size]
        alive = np.arange(start, start + chunk.shape[0])
        for slab in slabs:
            keep = slab_ok(chunk, slab)
            if not keep.all():
                alive = alive[keep]
                if not alive.size:
                    break
                chunk = chunk[keep]
        ok[alive] = True
    return ok


def _mask_for(name: str):
    """properties.IDENTITIES[name] over a stack, sieved over its first
    arity - 2 variables (one slab below three variables)."""
    identity = IDENTITIES[name]
    lead = max(0, identity.arity - 2)

    def mask(tables: np.ndarray) -> np.ndarray:
        n = tables.shape[1]
        free = (range(n),) * (identity.arity - lead)

        def slab(chunk, fixed):
            bad = identity.failures(chunk, fixed + free, functools.partial(compose, chunk))
            return ~bad.any(axis=tuple(range(1, bad.ndim)))

        return _sieve(tables, slab, list(itertools.product(range(n), repeat=lead)))

    mask.__doc__ = f"{identity.text}, sieved over its first {lead} variables"
    return mask


idempotent_mask = _mask_for("idempotent")
commutative_mask = _mask_for("commutative")
associative_mask = _mask_for("associative")
elastic_mask = _mask_for("elastic")
strongly_elastic_mask = _mask_for("strongly-elastic")
bookend_mask = _mask_for("bookend")
left_distributive_mask = _mask_for("left-distributive")
right_distributive_mask = _mask_for("right-distributive")
left_modular_mask = _mask_for("left-modular")
right_modular_mask = _mask_for("right-modular")
medial_mask = _mask_for("medial")
paramedial_mask = _mask_for("paramedial")
alterable_mask = _mask_for("alterable")


def _distinct(tables: np.ndarray, axis: int) -> np.ndarray:
    """For each line along `axis` (not the stack axis 0) of a stack of
    0-based values below n, n the line's length: does it hold n distinct
    values, that is every value once?  It does when the OR of 1 << v along
    the line is 2**n - 1; ROW_CHUNK entries of the stack at a time, in
    int16 to n = 15 and int64 to n = 63, by sorting above that.
    """
    n = tables.shape[axis]
    if n > 63:
        values = np.arange(n).reshape((n,) + (1,) * (tables.ndim - 1 - axis))
        return (np.sort(tables, axis=axis) == values).all(axis=axis)
    one = np.int16(1) if n <= 15 else np.int64(1)
    out = np.empty(tables.shape[:axis] + tables.shape[axis + 1:], dtype=bool)
    for start in range(0, tables.shape[0], ROW_CHUNK):
        # dtype pins the shift to `one`'s width; without it NumPy 1.x casts
        # by value and shifts int8 tables in int8, losing bits 7 and up.
        bits = np.left_shift(one, tables[start:start + ROW_CHUNK], dtype=one.dtype)
        out[start:start + ROW_CHUNK] = np.bitwise_or.reduce(bits, axis=axis) == (1 << n) - 1
    return out


def left_cancellative_mask(tables: np.ndarray) -> np.ndarray:
    return _distinct(tables, 2).all(axis=1)


def right_cancellative_mask(tables: np.ndarray) -> np.ndarray:
    return _distinct(tables, 1).all(axis=1)


def quasigroup_mask(tables: np.ndarray) -> np.ndarray:
    return left_cancellative_mask(tables) & right_cancellative_mask(tables)


def left_neutral_mask(tables: np.ndarray) -> np.ndarray:
    """Tables having at least one e with e*x = x for all x."""
    n = tables.shape[1]
    return (tables == np.arange(n)).all(axis=2).any(axis=1)


def unitary_mask(tables: np.ndarray) -> np.ndarray:
    """Tables having a two-sided neutral element."""
    n = tables.shape[1]
    rows_ok = (tables == np.arange(n)).all(axis=2)
    cols_ok = (tables == np.arange(n).reshape(n, 1)).all(axis=1)
    return (rows_ok & cols_ok).any(axis=1)


def translatable_mask(tables: np.ndarray, k: int) -> np.ndarray:
    """Cell-by-cell rotation test T[i][j] == T[i+1][j+k], sieved over i;
    each slab compares row i with row i+1 (translation._rotation_holds, as
    for detect)."""
    n = tables.shape[1]

    def slab(chunk, i):
        return _rotation_holds(chunk[:, i, :], chunk[:, (i + 1) % n, :], k)

    return _sieve(tables, slab, range(n))


MASKS = {
    "idempotent": idempotent_mask,
    "commutative": commutative_mask,
    "associative": associative_mask,
    "elastic": elastic_mask,
    "strongly-elastic": strongly_elastic_mask,
    "bookend": bookend_mask,
    "left-distributive": left_distributive_mask,
    "right-distributive": right_distributive_mask,
    "left-modular": left_modular_mask,
    "right-modular": right_modular_mask,
    "medial": medial_mask,
    "paramedial": paramedial_mask,
    "alterable": alterable_mask,
    "left-cancellative": left_cancellative_mask,
    "right-cancellative": right_cancellative_mask,
    "quasigroup": quasigroup_mask,
}
