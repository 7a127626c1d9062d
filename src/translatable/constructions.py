"""Explicit families of translatable tables.

Four kinds of building blocks live here: the left-unitary table on the
identity first row, the idempotent table pinned down by its diagonal, the
fully parametrised family of left-cancellative translatable semigroups,
and the constant-column semigroups.  On top of those sit the block-product
presentation of the order k+k*k semigroup, the order-(t+1)n embedding, and
the union constructions gluing t disjoint copies into one larger table.
Each construction checks the order it will build (n, t*n, k + k*k,
2(k + k*k) or (t+1)n) against the order bound before it builds anything,
so a request past the bound is a BoundError, never a huge allocation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CayleyTable,
    ConstructionError,
    InvalidInputError,
    KSequence,
    VerificationError,
    _cell_dtype,
    _check_order,
    _check_step,
    mod_rep,
)
from .properties import semigroup_criterion
from .translation import is_translatable, table_from_sequence


def _check_pair(n: int, k: int) -> None:
    _check_order(n)
    _check_step(n, k)


def left_unitary_groupoid(n: int, k: int) -> KSequence:
    """Identity first row: the table with i*j = [k - ki + j] and left neutral 1."""
    _check_pair(n, k)
    return KSequence(n, k, tuple(range(1, n + 1)))


def idempotent_positions(n: int, k: int) -> tuple[int, ...]:
    """Position [k + i(1-k)] that entry i must occupy in an idempotent first row."""
    _check_pair(n, k)
    return tuple(mod_rep(k + i * (1 - k), n) for i in range(1, n + 1))


def idempotent_groupoid(n: int, k: int) -> KSequence:
    """The unique idempotent k-translatable first row, when one exists.

    Entry i has to sit at position [k - ki + i], so the construction works
    exactly when i -> [k + i(1-k)] is injective, that is when gcd(k-1, n) = 1.
    Otherwise two elements fight over one position and no idempotent
    k-translatable table of order n exists at all.
    """
    positions = idempotent_positions(n, k)
    g = math.gcd(k - 1, n)
    if g != 1:
        seen: dict[int, int] = {}
        for i, p in enumerate(positions, start=1):
            if p in seen:
                raise ConstructionError(
                    f"positions [{k} - {k - 1}i]_{n} collide: i={seen[p]} and i={i} "
                    f"both map to position {p}",
                    obstruction=f"gcd(k-1, n) = gcd({k - 1}, {n}) = {g}",
                )
            seen[p] = i
    row = [0] * n
    for i, p in enumerate(positions, start=1):
        row[p - 1] = i
    return KSequence(n, k, tuple(row))


def cancellative_semigroups(n: int, k: int) -> list[KSequence]:
    """All first rows of left-cancellative k-translatable semigroups.

    Empty unless [k*k + k] = 0; otherwise each solution v of [(1+k)v] = 0
    fixes the whole row through a_i = [i - k - kv], with a_k = v.  The list
    is ordered by increasing v.
    """
    _check_pair(n, k)
    if mod_rep(k * k + k, n) != n:
        return []
    out = []
    for v in range(1, n + 1):
        if mod_rep((1 + k) * v, n) != n:
            continue
        seq = KSequence(n, k, tuple(((np.arange(n) - k - k * v) % n + 1).tolist()))   # [i - k - kv]
        if seq.seq[k - 1] != v or not semigroup_criterion(seq):
            raise VerificationError(
                f"row derived from v={v} fails the semigroup criterion at n={n}, k={k}"
            )
        out.append(seq)
    return out


def block_product_table(k: int) -> CayleyTable:
    """Order k+k*k table written as (i+sk)*(j+tk) = [j + (s+t-i+1)k].

    Every element x splits uniquely as x = i + sk with i in 1..k and s in
    0..k, and the product depends only on the blocks.  The result coincides
    with the left-unitary table of order k+k*k and step k.
    """
    if k < 1:
        raise InvalidInputError(f"step must be at least 1, got {k}")
    n = k + k * k
    _check_order(n)
    x = np.arange(n)
    i, s = (x % k + 1).reshape(n, 1), (x // k).reshape(n, 1)
    j, t = i.T, s.T
    return CayleyTable(n, (j + (s + t - i + 1) * k - 1) % n + 1)


def constant_column_semigroups(n: int, k: int) -> list[KSequence]:
    """All rows with a_s = a_[s+k] = a_(a_s); they multiply as i*j = a_j.

    Such a row is constant on the residue classes modulo d = gcd(k, n), and
    every value it takes must be a fixed point (a_v = v).  So the rows are
    enumerated by choosing which classes carry their own fixed point, one
    representative per chosen class, and a map from the remaining classes
    into the chosen representatives.  Rows come out sorted lexicographically.
    """
    _check_pair(n, k)
    d = math.gcd(k, n)
    classes = [tuple(s for s in range(1, n + 1) if (s - 1) % d == r) for r in range(d)]
    found = []
    for size in range(1, d + 1):
        for rooted in itertools.combinations(range(d), size):
            free = [r for r in range(d) if r not in rooted]
            for reps in itertools.product(*(classes[r] for r in rooted)):
                for fill in itertools.product(sorted(reps), repeat=len(free)):
                    value = dict(zip(rooted, reps))
                    value.update(zip(free, fill))
                    found.append(tuple(value[(s - 1) % d] for s in range(1, n + 1)))
    found.sort()
    return [KSequence(n, k, row) for row in found]


def embed(seq: KSequence, t: int) -> tuple[CayleyTable, dict[int, int]]:
    """Embed the table of seq into a k-translatable table of order (t+1)n.

    Element i goes to (i-1)(t+1)+1; the first row of the big table sends
    each image position to the image of a_i and leaves the t fresh elements
    after it alone, and the rest follows by k-translation.  Products of
    embedded elements land exactly on embedded products.
    """
    if t < 1:
        raise InvalidInputError(f"need at least one spare element per slot, got t={t}")
    n, k = seq.n, seq.k
    big_n = (t + 1) * n
    _check_order(big_n)
    image = {i: (i - 1) * (t + 1) + 1 for i in range(1, n + 1)}
    row = list(range(1, big_n + 1))
    for i in range(1, n + 1):
        row[image[i] - 1] = image[seq.seq[i - 1]]
    table = table_from_sequence(KSequence(big_n, k, tuple(row)))
    return table, image


@dataclass(frozen=True)
class UnionSpec:
    """Parameters for glueing t copies of an order-n step-k component into
    a table of order t*n, which must be within the order bound."""

    n: int
    k: int
    t: int
    q: int = field(init=False)

    def __post_init__(self) -> None:
        _check_pair(self.n, self.k)
        if self.t < 1:
            raise InvalidInputError(f"need at least one copy, got t={self.t}")
        if self.k % self.t != 0:
            raise ConstructionError(
                f"{self.t} does not divide {self.k}",
                obstruction=f"t={self.t} must divide k={self.k}",
            )
        _check_order(self.t * self.n)
        object.__setattr__(self, "q", self.k // self.t)


@dataclass(frozen=True)
class LabeledUnion:
    """A union table of order t*n with its copy bookkeeping.

    Element i_r = t(r-1)+i belongs to copy i (1..t) at local index r (1..n).
    """

    spec: UnionSpec
    step: int
    table: CayleyTable

    def copies(self) -> list[tuple[int, ...]]:
        """Elements of each copy, in local order."""
        t, n = self.spec.t, self.spec.n
        return [tuple(range(i, t * n + 1, t)) for i in range(1, t + 1)]   # i_1, .., i_n


def _union_from_product(spec: UnionSpec, step: int, row_term) -> LabeledUnion:
    """Fill the big table from a product rule i_r * j_s = j_[R + s]: the
    product's copy is always j, its local index the row term R = row_term(i, r)
    plus the column's local index s.  R is taken once per row, modulo n;
    the table is then one array of R + s, reduced and relabelled to the
    0-based t([R + s] - 1) + j - 1 in place, in the smallest dtype holding
    each value on the way (2n - 1, then tn), and taken as the table's grid.
    The filled table is re-checked to be step-translatable, exercising the
    rotation description independently of the product formula.
    """
    n, t = spec.n, spec.t
    elements = np.arange(t * n)
    copy, local = elements % t + 1, elements // t + 1
    dtype = _cell_dtype(max(2 * n - 1, t * n))
    cells = ((row_term(copy[:, None], local[:, None]) - 1) % n).astype(dtype) + local.astype(dtype)
    np.remainder(cells, n, out=cells)
    cells *= t
    cells += (copy - 1).astype(dtype)
    table = CayleyTable._of_grid(cells)
    if not is_translatable(table, step):
        raise VerificationError(
            f"union table of order {t * n} is not {step}-translatable"
        )
    return LabeledUnion(spec, step, table)


def union_same_step(spec: UnionSpec) -> LabeledUnion:
    """Union of t copies keeping the step k: i_r * j_s = j_[k-kr+q-qi+s].

    Needs [k + k*k] = 0 modulo tn; the result is a left-unitary
    k-translatable semigroup of order tn whose copies are left ideals, each
    isomorphic to the order-n left-unitary component.
    """
    n, k, t, q = spec.n, spec.k, spec.t, spec.q
    if (k + k * k) % (t * n) != 0:
        raise ConstructionError(
            f"[k+k^2]_tn = [{k + k * k}]_{t * n} = {(k + k * k) % (t * n)} != 0",
            obstruction=f"k+k^2 = {k + k * k} is not divisible by tn = {t * n}",
        )
    return _union_from_product(spec, k, lambda i, r: k - k * r + q - q * i)


def union_shifted_step(spec: UnionSpec) -> LabeledUnion:
    """Union of t copies with step k+(t-1)n: i_r * j_s = j_[k-kr+kq(i-1)+s].

    Needs n = k + k*k; the result is a left-unitary (k+(t-1)n)-translatable
    semigroup of order tn whose copies are left ideals, each isomorphic to
    the order-n left-unitary component.
    """
    n, k, t, q = spec.n, spec.k, spec.t, spec.q
    if n != k + k * k:
        raise ConstructionError(
            f"order {n} is not k+k^2 = {k + k * k}",
            obstruction=f"n must equal k+k^2 = {k + k * k}, got {n}",
        )
    return _union_from_product(spec, k + (t - 1) * n, lambda i, r: k - k * r + k * q * (i - 1))


def pair_union(k: int) -> LabeledUnion:
    """Two interleaved copies of the order k+k*k table, for even k.

    Copy 1 keeps its own products; the products touching copy 2 follow
    g_i*g_j = g_[k(1+q)-ki+j], i*g_j = g_[k-ki+j] and g_i*j = [k(1+q)-ki+j].
    The outcome is (k+n)-translatable and must agree with the two-copy
    shifted-step union, which is checked cell by cell.
    """
    if k < 1:
        raise InvalidInputError(f"step must be at least 1, got {k}")
    if k % 2 != 0:
        raise ConstructionError(
            f"step {k} is odd", obstruction="the two-copy split needs k = 2q"
        )
    q = k // 2
    n = k + k * k
    spec = UnionSpec(n, k, 2)

    union = _union_from_product(spec, k + n, lambda i, r: np.where(i == 1, k - k * r, k * (1 + q) - k * r))
    against = union_shifted_step(spec)
    if union.table != against.table:
        raise VerificationError(
            "pair union disagrees with the two-copy shifted-step union"
        )
    return union
