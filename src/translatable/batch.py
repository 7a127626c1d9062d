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
cancellation masks, the neutral-element masks and the anticommutative one
read the stack forms properties._distinct, _left_neutrals, _neutrals and
_commuting_pairs, the same tests `check` and the structure functions
apply to one grid.

The identity masks are sieved (translation._sieve): the cells are cut
into slabs, one value of the outer variable of a three-variable identity,
one (i, j) pair of a four-variable one, or a single slab below three
variables, and each slab is checked once over the whole stack, only on
the tables that passed every earlier slab.  For a three-variable identity
the first slab is the line with every variable but the last at 0.  Most
rows of a row space fail that first line, so a whole-space mask costs
about one line per row, and the full slabs run only on the few
survivors.  Four-variable identities get no such line: medial's,
(00)(0z) = (00)(0z), holds trivially, and on the row spaces the campaigns
sweep the line made medial, paramedial and alterable slower, not faster.
A chunk holds translation.ROW_CHUNK tables, so that one full n*n-cell
slab reads about ROW_CHUNK*n*n cells.  translatable_mask and step_verdicts are
translation._translatable, the one rotation test, at one step or at every
step 1..n-1: the first cell T[0][0] = T[1][k] of every step in one pass,
then a sieve over row pairs at each step where some table passed it.

A sweep over a whole row space (space_verdicts, step_verdicts,
sweep_verdicts, or a per-table test a caller hands to _blocks) never holds
the tables of the whole space (29.4 MB for the 9! permutations), nor the
rows of a permutation space (3.1 MB) unless memoised: _space_rows makes
them one or more first values at a time (_first_value_blocks), in blocks
of at most _BLOCK_CELLS = 512 Ki int8 table cells, _block_verdicts sweeps
each block, and _blocks writes its verdicts in row order into one array
made for the whole space; row_at unranks the one row a witness names.
step_verdicts sweeps the step-k tables of the permutation rows, or their
duals (transposes).  On permutation rows the first cell holds on every
table or on none (a first row repeats no value), so at most one step of a
block reaches the sieve.

Row spaces and the whole-space verdicts of space_verdicts, step_verdicts
and sweep_verdicts are memoised until clear_memo(); the outermost
search.workers scope, which every verify call opens or joins, clears them
as it opens and as it closes, so one verify run computes each whole-space
verdict once, still cell by cell, and every campaign that asks for the
same property over the same space reads the same verdicts, as read-only
arrays handed out shared.  A step on which every table agrees (each step,
on permutation rows) is kept and handed out as one np.bool_, any other as
one array of the whole space, made at the first block that disagrees, so
no (n-1)-by-n! bool array is ever made.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import _check_cost
from .properties import IDENTITIES, _commuting_pairs, _distinct, _left_neutrals, _neutrals
from .translation import _positions, _sieve, _translatable

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
    kind = "permutation" if permutation_only else "full"
    _check_cost(f"{kind} row space at n = {n}", count * n * n, "table cells", "row-space budget", ROW_CELL_BUDGET)
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


def step_verdicts(n: int, k: int, transposed: bool) -> dict[int, np.ndarray | np.bool_]:
    """translation._translatable at every step 1..n-1 over every step-k
    table with a permutation first row, or over their duals (transposes) if
    transposed.  A step on which every table agrees is that one np.bool_;
    any other a read-only array, one verdict a table."""
    key = ("steps", n, k, bool(transposed))
    steps = _VERDICTS.get(key)
    if steps is None:

        def verdicts_of(tables):
            return _translatable(tables.transpose(0, 2, 1) if transposed else tables, np.arange(1, n))

        held = [None] * (n - 1)
        for start, verdicts in _block_verdicts(n, k, True, verdicts_of):
            for step, (line, every, some) in enumerate(zip(verdicts, verdicts.all(axis=1), verdicts.any(axis=1))):
                if not isinstance(held[step], np.ndarray):
                    if every == some and (held[step] is None or held[step] == every):
                        held[step] = every
                        continue
                    # The first block that disagrees: every table before it held the one value.
                    kept = np.empty(_space_size(n, True), dtype=bool)
                    kept[:start] = held[step]
                    held[step] = kept
                held[step][start:start + len(line)] = line
        steps = _VERDICTS[key] = tuple(_frozen(v) if isinstance(v, np.ndarray) else v for v in held)
    return dict(enumerate(steps, start=1))


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
    """Cell-by-cell rotation test T[i][j] == T[i+1][j+k] at step k on each
    table of a stack: translation._translatable at the one step."""
    return _translatable(tables, [k])[0]


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
