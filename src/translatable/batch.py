"""Vectorised sweeps over every candidate first row at once.

The identity masks evaluate the definitions in properties.IDENTITIES, the
same ones `check` evaluates on a single table, with numpy across a whole
batch of tables so that exhaustive campaigns over n! or n^n first rows
finish in seconds.  Tables are stored as a (B, n, n) array of 0-based
entries; every mask returns one boolean per table and is computed cell by
cell, never through a closed form.  product_tables lays the batch axis
innermost in memory: it transposes a row block once to (n, B) and copies,
for each cell (i, j), the whole batch vector at first-row position
(j - k*i) mod n, so each cell costs one contiguous copy, not B scattered
reads, and the tables are a (B, n, n) view of that (n, n, B) array.  The
neutral-element masks and the anticommutative one read the stack forms
properties._left_neutrals, _neutrals and _commuting_pairs, the same tests
`check` and the structure functions apply to one grid.

The identity masks and the rotation test are sieved (_sieve): the cells
are cut into slabs, one value of the outer variable of a three-variable
identity, one (i, j) pair of a four-variable one, one pair of adjacent
rows, or a single slab below three variables, and each slab is checked
once over the whole stack, only on the tables that passed every earlier
slab.  The first slab is small: the one cell T[0][0] = T[1][k] of the
rotation test, and for a three-variable identity the line with every
variable but the last at 0.
Most rows of a row space fail that first cell or line, so a whole-space
mask costs about one cell or one line per row, and the full slabs run
only on the few survivors.  Four-variable identities get no such line:
medial's, (00)(0z) = (00)(0z), holds trivially, and on the row spaces
the campaigns sweep the line made medial, paramedial and alterable
slower, not faster.  A chunk holds as many tables as make one full slab
read about ROW_CHUNK*n*n cells: ROW_CHUNK tables for the n*n-cell slabs
of the identities, ROW_CHUNK*n for the n-cell row pairs of the rotation
test.

A sweep over a whole row space (space_verdicts, step_verdicts,
sweep_verdicts, or a per-table test a caller hands to _blocks) never holds
the tables of the whole space (29.4 MB for the 9! permutations), nor the
rows of a permutation space (3.1 MB) unless memoised: _space_rows makes
them one or more first values at a time (_first_value_blocks), in blocks
of at most _BLOCK_CELLS = 512 Ki int8 table cells, _block_verdicts sweeps
each block, and _blocks writes its verdicts in row order into one array
made for the whole space; row_at unranks the one row a witness names.
step_verdicts is the one "translatable at every step" sweep:
translatable_mask at each step 1..n-1 over the step-k tables of the
permutation rows, or over their duals (transposes).  It tests the first
cell T[0][0] = T[1][k*] of every step k* in one pass over a block
(_first_cell_holds), then runs translatable_mask, which tests that cell
again and sieves only the tables that pass it, at the steps where some
table passed.  On permutation rows the cell holds on every table or on
none (a first row repeats no value), so at most one step of a block
reaches the mask.

Row spaces and the whole-space verdicts of space_verdicts, step_verdicts
and sweep_verdicts are memoised until clear_memo(); the verify command
clears them when it starts and when it ends, so one command computes each
whole-space verdict once, still cell by cell, and every campaign that
asks for the same property over the same space reads the same verdicts,
as read-only arrays handed out shared.  A step on which every table
agrees (each step, on permutation rows) is kept as one bool, any other
bit-packed block by block, so no (n-1)-by-n! bool array is ever made.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import BoundError
from .properties import IDENTITIES, _commuting_pairs, _left_neutrals, _neutrals
from .translation import _first_cell_holds, _positions, _rotation_holds

ROW_CHUNK = 4096
# Most table cells (rows times n*n) a row space may generate: every default
# campaign window fits (permutations to n = 9, all rows to n = 7).
ROW_CELL_BUDGET = 1 << 26
# Most table cells a whole-space sweep generates at once.
_BLOCK_CELLS = ROW_CELL_BUDGET // 128

_ROWS: dict[tuple[int, bool], np.ndarray] = {}
_VERDICTS: dict[tuple, np.ndarray | tuple] = {}


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
    """Lexicographic permutations of range(n), filled one _first_value_blocks block at a time."""
    out = np.empty((math.factorial(n), n), dtype=np.int8)
    for a, block in enumerate(_first_value_blocks(n, 1) if n else ()):
        out[a * len(block):(a + 1) * len(block)] = block
    return out


def _first_value_blocks(n: int, width: int):
    """The permutation rows of range(n), n >= 1, in lexicographic order, `width`
    first values a at a time: behind each a, the memoised permutations of the other
    n - 1 values relabelled as tail + (tail >= a), from one copy behind a column of
    0s, so that no block is made by a slow copy into n-wide rows."""
    tail = row_array(n - 1, True)
    behind = np.zeros((len(tail), n), dtype=np.int8)
    behind[:, 1:] = tail
    for a in range(0, n, width):
        firsts = np.arange(a, min(a + width, n), dtype=np.int8).reshape(-1, 1, 1)
        block = behind + (behind >= firsts)
        block[:, :, 0] = firsts[:, :, 0]
        yield block.reshape(-1, n)


def _space_size(n: int, permutation_only: bool) -> int:
    """The space's row count; BoundError if its tables pass ROW_CELL_BUDGET cells."""
    count = math.factorial(n) if permutation_only else n**n
    if count * n * n > ROW_CELL_BUDGET:
        kind = "permutation" if permutation_only else "full"
        raise BoundError(
            f"{kind} row space at n = {n} needs {count * n * n} table cells, "
            f"over the row-space budget of {ROW_CELL_BUDGET}"
        )
    return count


def row_array(n: int, permutation_only: bool) -> np.ndarray:
    """All first rows as a read-only (B, n) array of 0-based values, lexicographic.

    Memoised until clear_memo().  Refuses with BoundError, before
    allocating, a space whose tables would exceed ROW_CELL_BUDGET cells.
    """
    key = (n, bool(permutation_only))
    rows = _ROWS.get(key)
    if rows is None:
        _space_size(n, permutation_only)
        rows = _ROWS[key] = _frozen(_permutations(n) if permutation_only else _all_rows(n))
    return rows


def row_at(n: int, permutation_only: bool, b: int) -> np.ndarray:
    """Row b of row_array(n, permutation_only), unranked without building it."""
    if not permutation_only:
        return np.array(np.unravel_index(b, (n,) * n), dtype=np.int8)
    rest = list(range(n))
    return np.array([rest.pop(b // math.factorial(i) % (i + 1)) for i in reversed(range(n))], dtype=np.int8)


def _row_blocks(rows: np.ndarray):
    """Consecutive slices of a (B, n) row stack, in order, each generating
    at most _BLOCK_CELLS table cells (one row at least)."""
    size = max(1, _BLOCK_CELLS // rows.shape[1] ** 2)
    for start in range(0, rows.shape[0], size):
        yield rows[start:start + size]


def _space_rows(n: int, permutation_only: bool):
    """(start, rows) for consecutive _row_blocks of row_array(n, permutation_only), in
    order; start is the block's first row.  A permutation space not memoised already is
    generated by _first_value_blocks, never whole.  Refuses an over-budget space first."""
    _space_size(n, permutation_only)
    whole = not permutation_only or not n or (n, True) in _ROWS
    spaces = ([row_array(n, permutation_only)] if whole
              else _first_value_blocks(n, max(1, _BLOCK_CELLS // (n * n * math.factorial(n - 1)))))
    start = 0
    for space in spaces:
        for rows in _row_blocks(space):
            yield start, rows
            start += len(rows)


def _block_verdicts(n: int, k: int, permutation_only: bool, verdicts_of):
    """(start, verdicts_of(tables)) for the step-k tables of each block of
    _space_rows(n, permutation_only), in row order."""
    for start, rows in _space_rows(n, permutation_only):
        yield start, verdicts_of(product_tables(rows, k))


def _blocks(n: int, k: int, permutation_only: bool, verdicts_of) -> np.ndarray:
    """verdicts_of over the step-k tables of row_array(n, permutation_only),
    one row block at a time, each block written in row order into one array
    whose last axis is the table axis."""
    count = _space_size(n, permutation_only)
    out = None
    for start, verdicts in _block_verdicts(n, k, permutation_only, verdicts_of):
        if out is None:
            out = np.empty(verdicts.shape[:-1] + (count,), dtype=verdicts.dtype)
        out[..., start:start + verdicts.shape[-1]] = verdicts
    return out


def sweep_verdicts(tag: str, n: int, k: int, permutation_only: bool, verdicts_of) -> np.ndarray:
    """_blocks(n, k, permutation_only, verdicts_of), memoised under tag and
    the space until clear_memo().  tag names the test: a MASKS name for that
    mask, any other name but "steps" for a caller's own per-table test."""
    key = (tag, n, k, bool(permutation_only))
    verdicts = _VERDICTS.get(key)
    if verdicts is None:
        verdicts = _VERDICTS[key] = _frozen(_blocks(n, k, permutation_only, verdicts_of))
    return verdicts


def space_verdicts(name: str, n: int, k: int, permutation_only: bool) -> np.ndarray:
    """MASKS[name] over every table of row_array(n, permutation_only) at step k."""
    return sweep_verdicts(name, n, k, permutation_only, MASKS[name])


def _pack_into(packed: np.ndarray, start: int, bits: np.ndarray) -> None:
    """OR the bits of tables start, start + 1, ... in; pad bits are 0, so a shared byte keeps both."""
    block = np.packbits(np.pad(bits, (start % 8, 0)))
    packed[start // 8:start // 8 + len(block)] |= block


def step_verdicts(n: int, k: int, transposed: bool) -> dict[int, np.ndarray]:
    """translatable_mask at every step 1..n-1 over every step-k table with a
    permutation first row, or over their duals (transposes) if transposed.
    A step on which every table agrees is memoised as that one bool, read as
    a read-only array filled with it (one per value, shared by the steps);
    any other as one packed bit a table, read unpacked, fresh and read-only."""
    key = ("steps", n, k, bool(transposed))
    count = _space_size(n, True)
    steps = _VERDICTS.get(key)
    if steps is None:

        def verdicts_of(tables):
            if transposed:
                tables = tables.transpose(0, 2, 1)
            kstars = np.arange(1, n)
            # The first cell T[0][0] = T[1][k*] of every step in one pass; the
            # mask runs only at steps where some table holds it.
            firsts = _first_cell_holds(tables[:, :1, :], tables[:, 1 % n, :], kstars)
            out = np.zeros((n - 1, len(tables)), dtype=bool)
            for kstar in kstars[firsts.any(axis=0)].tolist():
                out[kstar - 1] = translatable_mask(tables, kstar)
            return out

        held = [None] * (n - 1)
        for start, bits in _block_verdicts(n, k, True, verdicts_of):
            for step, (line, every, some) in enumerate(zip(bits, bits.all(axis=1), bits.any(axis=1))):
                if not isinstance(held[step], np.ndarray):
                    if every == some and held[step] in (None, every):
                        held[step] = bool(every)
                        continue
                    # The first block that disagrees: pack the tables before it.
                    packed = np.zeros(-(-count // 8), dtype=np.uint8)
                    _pack_into(packed, 0, np.full(start, bool(held[step])))
                    held[step] = packed
                _pack_into(held[step], start, line)
        steps = _VERDICTS[key] = tuple(held)
    # Filled, not broadcast: numpy 2.4 compares a stride-0 view 25 times slower.
    filled = {value: _frozen(np.full(count, value)) for value in (False, True) if any(held is value for held in steps)}
    return {
        kstar: filled[held] if isinstance(held, bool) else _frozen(np.unpackbits(held, count=count).view(bool))
        for kstar, held in enumerate(steps, start=1)
    }


def product_tables(rows: np.ndarray, k: int) -> np.ndarray:
    """(B, n, n) tables generated by each row under step k, 0-based.

    Row i of a generated table reads the first row at position j - k*i
    modulo n (translation._positions, the rotation rule of table_from_sequence).
    A view of an (n, n, B) array, gathered one batch vector a cell.
    """
    columns = np.ascontiguousarray(rows.T)
    return columns[_positions(rows.shape[1], k)].transpose(2, 0, 1)


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


def _mask_for(name: str):
    """properties.IDENTITIES[name] over a stack, sieved over its first
    arity - 2 variables (one slab below three variables); a three-variable
    identity first on the line where both leading variables are 0."""
    identity = IDENTITIES[name]
    lead = max(0, identity.arity - 2)

    def mask(tables: np.ndarray) -> np.ndarray:
        n = tables.shape[1]
        free = (range(n),) * (identity.arity - lead)
        slabs = [fixed + free for fixed in itertools.product(range(n), repeat=lead)]
        if identity.arity == 3:
            slabs.insert(0, (0, 0, range(n)))

        def slab(chunk, domains):
            bad = identity.failures(chunk, domains, functools.partial(compose, chunk))
            return ~bad.any(axis=tuple(range(1, bad.ndim)))

        return _sieve(tables, slab, slabs)

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
    return _left_neutrals(tables).any(axis=1)


def unitary_mask(tables: np.ndarray) -> np.ndarray:
    """Tables having a two-sided neutral element."""
    return _neutrals(tables).any(axis=1)


def translatable_mask(tables: np.ndarray, k: int) -> np.ndarray:
    """Cell-by-cell rotation test T[i][j] == T[i+1][j+k], on the schedule of
    detect: first the one cell T[0][0] == T[1][k] (_first_cell_holds), then
    sieved over i, each slab comparing row i with row i+1 (_rotation_holds).
    A chunk holds ROW_CHUNK*n tables, since a slab reads one row of each."""
    n = tables.shape[1]

    def slab(chunk, i):
        if i is None:
            return _first_cell_holds(chunk[:, 0, :], chunk[:, 1 % n, :], k)
        return _rotation_holds(chunk[:, i, :], chunk[:, (i + 1) % n, :], k)

    return _sieve(tables, slab, [None, *range(n)], ROW_CHUNK * n)


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
    "right-solvable": left_cancellative_mask,  # every row a permutation
    "left-solvable": right_cancellative_mask,  # every column a permutation
    "quasigroup": quasigroup_mask,
    "left-unitary": left_neutral_mask,
    "unitary": unitary_mask,
    "anticommutative": lambda tables: ~_commuting_pairs(tables).any(axis=(1, 2)),
}
