"""Building tables from step sequences and recognising the step afterwards.

A table is k-translatable when each row is the previous row rotated right
by k places, positions taken cyclically.  Equivalently the whole grid is
determined by its first row a_1..a_n through

    i * j = a_[k - ki + j]   (index reduced to 1..n)

and cell-by-cell the grid satisfies T[i][j] = T[i+1][j+k].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    CayleyTable,
    InvalidInputError,
    KSequence,
    Ordering,
    mod_rep,
)


def table_from_sequence(seq: KSequence) -> CayleyTable:
    """Grid whose first row is the sequence and whose rows step right by k."""
    n, k = seq.n, seq.k
    rows = [seq.seq]
    for _ in range(n - 1):
        prev = rows[-1]
        rows.append(prev[n - k:] + prev[:n - k])
    return CayleyTable(n, tuple(rows))


def _translatable_steps(table: CayleyTable, first: int, last: int) -> list[int]:
    """Steps k in first..last under which T[i][j] = T[i+1][j+k] in every cell.

    Candidates are filtered on the first two rows, then each survivor is
    checked on the whole grid: every row must equal the next one read from
    position k+1 on, cyclically.  Whole rows are compared as tuple slices,
    at C speed and with no array conversion, so small tables stay cheap.
    """
    n = table.n
    rows = table.rows
    doubled = rows[1] + rows[1]
    steps = [k for k in range(first, last + 1) if doubled[k] == rows[0][0] and doubled[k:k + n] == rows[0]]
    below = rows[1:] + rows[:1]
    return [k for k in steps if all(row == nxt[k:] + nxt[:k] for row, nxt in zip(rows, below))]


def detect(table: CayleyTable) -> frozenset[int]:
    """All steps k in 1..n-1 under which the table is translatable."""
    if table.n == 1:
        return frozenset()
    return frozenset(_translatable_steps(table, 1, table.n - 1))


def is_translatable(table: CayleyTable, k: int) -> bool:
    """Does the grid satisfy T[i][j] = T[i+1][j+k] everywhere?"""
    return 1 <= k <= table.n - 1 and bool(_translatable_steps(table, k, k))


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
    n = table.n
    return CayleyTable(n, tuple(tuple(table.rows[j][i] for j in range(n)) for i in range(n)))


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
