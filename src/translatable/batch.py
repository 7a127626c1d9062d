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

A row space is one RowSpace value: its size (refused over budget), its
blocks in row order, the row at an index and its memo key.  RowSpace.blocks
is the one way a sweep reads a space: _blocks hands each block's rows to
a test, which makes the block's step-k tables with product_tables if it
reads tables.  So a sweep over a whole space never holds its tables
(29.4 MB for the 9! permutations), nor a permutation space's rows
(3.1 MB) unless memoised: RowSpace.blocks makes them a block of at most
_BLOCK_CELLS = 512 Ki table cells at a time, and RowSpace.row unranks the
one row a witness names.  step_verdicts sweeps the step-k tables of the
permutation rows, or their duals.  On permutation rows the first cell
holds on every table or on none (a first row repeats no value), so at
most one step of a block reaches the sieve.

Row spaces and the whole-space verdicts of space_verdicts, step_verdicts
and sweep_verdicts are memoised until clear_memo(); the outermost
search.workers scope, which every verify call opens or joins, clears them
as it opens and as it closes, so one verify run computes each whole-space
verdict once, still cell by cell, and every campaign that asks for the
same property over the same space reads the same verdicts, as read-only
arrays handed out shared.  A verdict every table agrees on is kept as
one value: a mask's (most masks, on permutation rows) as a zero-stride
view of the space's length, a step's (each step, on permutation rows) as
one np.bool_; any other step as one array of the whole space, made at
the first block that disagrees.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

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
    """Lexicographic permutations of range(n), filled one RowSpace(n, True) block at a time."""
    out = np.empty((math.factorial(n), n), dtype=np.int8)
    for start, rows in RowSpace(n, True).blocks() if n else ():
        out[start:start + len(rows)] = rows
    return out


@dataclass(frozen=True)
class RowSpace:
    """Every first row of order n, or only the permutations, 0-based and
    in lexicographic order; held whole only by row_array's memo."""

    n: int
    permutation_only: bool

    @property
    def key(self) -> tuple[int, bool]:
        """The space's _ROWS key, and its part of each sweep_verdicts key."""
        return self.n, bool(self.permutation_only)

    @property
    def size(self) -> int:
        """The row count; BoundError if the tables pass ROW_CELL_BUDGET cells."""
        n = self.n
        count = math.factorial(n) if self.permutation_only else n**n
        kind = "permutation" if self.permutation_only else "full"
        _check_cost(f"{kind} row space at n = {n}", count * n * n, "table cells", "row-space budget", ROW_CELL_BUDGET)
        return count

    def row(self, b: int) -> np.ndarray:
        """Row b, unranked without building the space."""
        n = self.n
        if not self.permutation_only:
            return np.array(np.unravel_index(b, (n,) * n), dtype=np.int8)
        rest = list(range(n))
        return np.array([rest.pop(b // math.factorial(i) % (i + 1)) for i in reversed(range(n))], dtype=np.int8)

    def blocks(self):
        """(start, rows) for consecutive blocks of rows, n >= 1, in order, each
        generating at most _BLOCK_CELLS table cells (one row at least).  Refuses
        an over-budget space first.  A permutation space not memoised is made a
        block at a time: the rows with first value a are the memoised
        permutations of the other n - 1 values, relabelled as tail + (tail >= a)."""
        n, size = self.n, self.size
        step = max(1, _BLOCK_CELLS // (n * n))
        rows = _ROWS.get(self.key) if self.permutation_only else row_array(n, False)
        if rows is not None:
            for start in range(0, size, step):
                yield start, rows[start:start + step]
            return
        behind = np.zeros((size // n, n), dtype=np.int8)   # one copy, so no block is a slow copy into n-wide rows
        behind[:, 1:] = row_array(n - 1, True)
        for start in range(0, size, step):
            block = np.empty((min(step, size - start), n), dtype=np.int8)
            at = 0
            while at < len(block):
                a, lo = divmod(start + at, len(behind))
                tail = behind[lo:lo + len(block) - at]
                piece = block[at:at + len(tail)]
                np.greater_equal(tail, a, out=piece.view(bool))
                piece += tail
                piece[:, 0] = a
                at += len(tail)
            yield start, block


def row_array(n: int, permutation_only: bool) -> np.ndarray:
    """All rows of RowSpace(n, permutation_only) as one read-only (B, n) array,
    memoised until clear_memo(); an over-budget space is refused before allocating."""
    space = RowSpace(n, permutation_only)
    rows = _ROWS.get(space.key)
    if rows is None:
        space.size  # refuses an over-budget space before anything is allocated
        rows = _ROWS[space.key] = _frozen(_permutations(n) if permutation_only else _all_rows(n))
    return rows


def _blocks(space: RowSpace, verdicts_of) -> np.ndarray:
    """verdicts_of over the rows of a row space, one block of rows at a
    time, each block written in row order into one array whose last axis is
    the row axis.  A test of the tables makes a block's with product_tables."""
    out = None
    for start, rows in space.blocks():
        verdicts = verdicts_of(rows)
        if out is None:
            out = np.empty(verdicts.shape[:-1] + (space.size,), dtype=verdicts.dtype)
        out[..., start:start + verdicts.shape[-1]] = verdicts
    return out


def sweep_verdicts(tag: str, n: int, k: int, permutation_only: bool, verdicts_of) -> np.ndarray:
    """verdicts_of on the step-k tables of RowSpace(n, permutation_only) by
    _blocks, memoised under tag until clear_memo(), held as one value broadcast
    to the space when every table agrees.  tag names the test: a MASKS name
    for that mask, any other name but "steps" for a caller's own table test."""
    space = RowSpace(n, permutation_only)
    key = (tag, k, *space.key)
    verdicts = _VERDICTS.get(key)
    if verdicts is None:
        verdicts = _blocks(space, lambda rows: verdicts_of(product_tables(rows, k)))
        if verdicts.min() == verdicts.max():
            verdicts = np.broadcast_to(verdicts.flat[0], verdicts.shape)
        verdicts = _VERDICTS[key] = _frozen(verdicts)
    return verdicts


def space_verdicts(name: str, n: int, k: int, permutation_only: bool) -> np.ndarray:
    """MASKS[name] over every table of RowSpace(n, permutation_only) at step k."""
    return sweep_verdicts(name, n, k, permutation_only, MASKS[name])


def step_verdicts(n: int, k: int, transposed: bool) -> dict[int, np.ndarray | np.bool_]:
    """translation._translatable at every step 1..n-1 over every step-k
    table with a permutation first row, or over their duals (transposes) if
    transposed.  A step on which every table agrees is that one np.bool_;
    any other a read-only array, one verdict a table."""
    key = ("steps", n, k, bool(transposed))
    steps = _VERDICTS.get(key)
    if steps is None:
        space = RowSpace(n, True)
        held = [None] * (n - 1)
        for start, rows in space.blocks():
            tables = product_tables(rows, k)
            verdicts = _translatable(tables.transpose(0, 2, 1) if transposed else tables, np.arange(1, n))
            for step, (line, every, some) in enumerate(zip(verdicts, verdicts.all(axis=1), verdicts.any(axis=1))):
                if not isinstance(held[step], np.ndarray):
                    if every == some and (held[step] is None or held[step] == every):
                        held[step] = every
                        continue
                    # The first block that disagrees: every table before it held the one value.
                    kept = np.empty(space.size, dtype=bool)
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
