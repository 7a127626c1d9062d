"""Building tables from step sequences and recognising the step afterwards.

A table is k-translatable when each row is the previous row rotated right
by k places, positions taken cyclically.  Equivalently the whole grid is
determined by its first row a_1..a_n through

    i * j = a_[k - ki + j]   (index reduced to 1..n)

and cell-by-cell the grid satisfies T[i][j] = T[i+1][j+k].

Each rule is written once, on 0-based arrays: _positions, the index
(j - k*i) mod n that builds tables here and in batch.product_tables, and
_rotation_holds, the test that finds steps here and in batch.translatable_mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CayleyTable,
    InvalidInputError,
    KSequence,
    Ordering,
    mod_rep,
)


def _positions(n: int, k: int) -> np.ndarray:
    """(n, n) array of the first-row position (j - k*i) mod n that cell
    (i, j) of a step-k table reads, all 0-based: i*j = a_[k - ki + j]."""
    index = np.arange(n) - k * np.arange(n).reshape(n, 1)
    return np.remainder(index, n, out=index)


def _rotation_holds(row: np.ndarray, below: np.ndarray, k) -> np.ndarray:
    """T[i][j] == T[i+1][j+k] for every j (the last axis) of row i and the
    row below it; leading axes broadcast, over stacks of rows or of steps."""
    n = row.shape[-1]
    return (row == below[..., (np.arange(n) + k) % n]).all(axis=-1)


def table_from_sequence(seq: KSequence) -> CayleyTable:
    """Grid whose first row is the sequence and whose rows step right by k."""
    return CayleyTable(seq.n, np.asarray(seq.seq, dtype=np.int32)[_positions(seq.n, seq.k)])


def _translatable_steps(grid: np.ndarray, steps: np.ndarray) -> list[int]:
    """The steps among `steps` passing the rotation test on every row (the
    last against the first): filtered on rows 1-2, then each on the whole grid."""
    below = np.roll(grid, -1, axis=0)
    steps = steps[_rotation_holds(grid[0], below[0], steps[:, None])]
    return [k for k in steps.tolist() if _rotation_holds(grid, below, k).all()]


def detect(table: CayleyTable) -> frozenset[int]:
    """All steps k in 1..n-1 under which the table is translatable."""
    return frozenset(_translatable_steps(table.grid, np.arange(1, table.n)))


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
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"step must satisfy 1 <= k <= n-1, got k={k} for n={n}")
    alterable = mod_rep(k * k, n) == n - 1
    if math.gcd(k, n) != 1:
        return DualStep(n, k, None, alterable)
    kstar = pow(k, -1, n)
    return DualStep(n, k, kstar, alterable)
