"""Structural analysis of translatable tables.

Covers the idempotent set and its closed forms, the splitting of a
left-cancellative translatable semigroup into disjoint cyclic groups, the
explicit isomorphisms between members of one family, recognition of cyclic
group tables, and one-sided ideals with their semiprime verdicts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundError,
    CayleyTable,
    InvalidInputError,
    KSequence,
    Ordering,
    PreconditionError,
    VerificationError,
    _cell_dtype,
    _check_order,
    _check_step,
    mod_rep,
)
from .properties import (
    _light_test,
    _neutral_element,
    check,
    idempotent_elements,
    left_neutral_elements,
    semigroup_criterion,
)
from .translation import _blocks, _rotations, table_from_sequence


def idempotent_set(table: CayleyTable) -> frozenset[int]:
    """Elements with i*i = i, read off the diagonal."""
    return frozenset(idempotent_elements(table))


def idempotent_set_formula(seq: KSequence) -> frozenset[int]:
    """Closed form {i : [k(i + a_k)] = 0} for the idempotents.

    Matches the diagonal scan on every left-cancellative translatable
    semigroup; on other tables it is just a formula.
    """
    n, k = seq.n, seq.k
    ak = seq.seq[seq.k - 1]
    return frozenset(i for i in range(1, n + 1) if mod_rep(k * (i + ak), n) == n)


def left_unitary_idempotents(n: int, k: int) -> frozenset[int]:
    """Idempotents {[i + k(i-1)] : i} of the table whose left neutral is 1."""
    _check_step(n, k)
    return frozenset(mod_rep(i + k * (i - 1), n) for i in range(1, n + 1))


@dataclass(frozen=True)
class Decomposition:
    """A semigroup split into t disjoint cyclic groups of order m.

    Components are listed by their idempotent in increasing order; the
    generator at index p generates the component at index p.
    """

    idempotents: frozenset[int]
    m: int
    t: int
    components: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]


def _least_multiplier(base: int, n: int) -> int:
    """Least positive m with [m * base] = 0 modulo n."""
    for m in range(1, n + 1):
        if mod_rep(m * base, n) == n:
            return m
    raise VerificationError(f"no multiple of {base} vanishes modulo {n}")


def _verify_component_group(m: np.ndarray, comp: tuple[int, ...], e: int, gen: int) -> None:
    """Re-check on the 0-based grid m that comp is a cyclic group."""
    members = set(comp)
    if e not in members or gen not in members:
        raise VerificationError(f"component {comp} misses its idempotent {e} or generator {gen}")
    c = np.array(comp) - 1
    inside = np.zeros(m.shape[0], dtype=bool)
    inside[c] = True
    sub = m[np.ix_(c, c)]                  # [x, y] -> x*y, x and y in comp
    escapes = ~inside[sub]
    if escapes.any():
        x, y = np.unravel_index(escapes.argmax(), escapes.shape)
        raise VerificationError(f"component {comp} is not closed: {comp[x]}*{comp[y]} escapes")
    place = np.empty(m.shape[0], dtype=np.intp)
    place[c] = np.arange(len(c))
    # Light's test on the component's own grid: its least witness is the
    # row-major first failure of the (x, y, z) cube, comp being sorted.
    associative, witness = _light_test(place[sub])
    if not associative:
        x, y, z = (comp[v - 1] for v in witness.elements)
        raise VerificationError(f"component {comp} is not associative at ({x},{y},{z})")
    if (m[e - 1, c] != c).any() or (m[c, e - 1] != c).any():
        raise VerificationError(f"{e} is not neutral in component {comp}")
    has_inverse = ((sub == e - 1) & (sub.T == e - 1)).any(axis=1)
    if not has_inverse.all():
        raise VerificationError(f"{comp[np.flatnonzero(~has_inverse)[0]]} has no inverse in component {comp}")
    powers = set()
    p = gen
    for _ in range(len(comp)):
        powers.add(p)
        p = int(m[p - 1, gen - 1]) + 1
    if powers != members or p != gen:
        raise VerificationError(f"{gen} does not generate component {comp}")


def _first_band_failure(grid: np.ndarray, elements) -> tuple[int, int] | None:
    """The row-major first (e, f) of the 1-based elements with e*f != f; None for a right-zero band."""
    ix = np.array(elements, dtype=np.intp) - 1
    band = grid[np.ix_(ix, ix)] != ix      # [e, f]: e*f != f
    if not band.any():
        return None
    e, f = np.unravel_index(band.argmax(), band.shape)
    return int(ix[e]) + 1, int(ix[f]) + 1


def decompose(table: CayleyTable, seq: KSequence) -> Decomposition:
    """Split a left-cancellative translatable semigroup into cyclic groups.

    m is the least positive solution of [mk] = 0 and t of [tm] = 0; the
    components are Q*i over the idempotents i.  Everything the split
    promises is re-checked directly: the closed form for the idempotent
    set, the identities m = n/gcd(n,k) and t = gcd(n,k) = |E(Q)|, that the
    idempotents are exactly the left neutral elements and multiply as a
    right-zero band, and that each component is a cyclic group of order m
    generated by [i - k].
    """
    if not seq.is_permutation() or not semigroup_criterion(seq):
        raise PreconditionError(
            "decompose needs a sequence passing the semigroup criterion",
            prerequisite="semigroup-criterion",
        )
    if table != table_from_sequence(seq):
        raise PreconditionError(
            "table is not generated by the given sequence", prerequisite="matching-table"
        )
    n, k = seq.n, seq.k
    grid = table.grid
    idems = idempotent_elements(table)
    if frozenset(idems) != idempotent_set_formula(seq):
        raise VerificationError("diagonal idempotents disagree with the closed form")
    if idems != left_neutral_elements(table):
        raise VerificationError("idempotents are not exactly the left neutral elements")
    broken = _first_band_failure(grid, idems)
    if broken:
        raise VerificationError(f"idempotents are not a right-zero band: {broken[0]}*{broken[1]}")
    m = _least_multiplier(k, n)
    t = _least_multiplier(m, n)
    g = math.gcd(n, k)
    if m != n // g or t != g:
        raise VerificationError(f"least solutions m={m}, t={t} disagree with gcd data {n // g}, {g}")
    if t != len(idems):
        raise VerificationError(f"component count {t} differs from {len(idems)} idempotents")
    components = []
    generators = []
    covered: set[int] = set()
    for e in idems:
        comp = tuple(np.unique(grid[:, e - 1] + 1).tolist())
        if len(comp) != m:
            raise VerificationError(f"component of {e} has size {len(comp)}, expected {m}")
        if covered & set(comp):
            raise VerificationError(f"component of {e} overlaps an earlier one")
        covered.update(comp)
        gen = mod_rep(e - k, n)
        _verify_component_group(grid, comp, e, gen)
        components.append(comp)
        generators.append(gen)
    if len(covered) != n:
        raise VerificationError("components do not cover the whole carrier")
    return Decomposition(frozenset(idems), m, t, tuple(components), tuple(generators))


def _first_broken_product(grid: np.ndarray, image: np.ndarray, target: np.ndarray, at: np.ndarray | None = None):
    """The row-major first (x, y), 1-based, where image[x*y] != target[at[x], at[y]],
    x*y read from grid, or None.  With at = image, the default, that is the
    first product the map x -> image[x] breaks: phi(x*y) != phi(x)*phi(y).
    Read a block of rows at a time in target's dtype, no whole grid at once."""
    at = image if at is None else at
    image = image.astype(target.dtype)
    n = len(grid)
    for r in _blocks(n, n):
        bad = image[grid[r.start:r.stop]] != target[at[r.start:r.stop, None], at]
        if bad.any():
            x, y = divmod(int(bad.argmax()), n)
            return r.start + x + 1, y + 1
    return None


def _is_left_ideal(grid: np.ndarray, elements) -> bool:
    """Is Q*S inside S, S the 1-based elements?  Its columns are read a block of rows at a time."""
    cols = np.array(elements, dtype=np.intp) - 1
    members = np.zeros(len(grid), dtype=bool)
    members[cols] = True
    blocks = _blocks(len(grid), len(cols))
    return all(members[grid[r.start:r.stop, cols]].all() for r in blocks)


def _leads_with_left_neutral(grid: np.ndarray, ordering: Ordering) -> bool:
    """Is the ordering's first element e left neutral: e*x = x for every x?"""
    order = np.array(ordering.perm) - 1
    return bool((grid[order[0], order] == order).all())


@dataclass(frozen=True)
class Isomorphism:
    """A bijection on 1..n, with mapping[x-1] the image of x.

    The iso_* builders return one only after checking it on every product;
    a map that fails that check raises VerificationError instead.
    """

    mapping: tuple[int, ...]


def _diagonal_ordering(table: CayleyTable, who: str) -> Ordering:
    diag = tuple((np.diagonal(table.grid) + 1).tolist())
    if sorted(diag) != list(range(1, table.n + 1)):
        raise PreconditionError(
            f"{who} is not an idempotent presentation: its diagonal is not a permutation",
            prerequisite="idempotent",
        )
    return Ordering(diag)


def iso_idempotent(seq_q: KSequence, seq_s: KSequence) -> Isomorphism:
    """Isomorphism between two idempotent presentations of equal order and step.

    The diagonal of an idempotent presentation lists the element ordering,
    so position p of the first ordering is sent to position p of the
    second.  The map is checked cell by cell before being returned.
    """
    if (seq_q.n, seq_q.k) != (seq_s.n, seq_s.k):
        raise PreconditionError(
            f"presentations disagree: ({seq_q.n},{seq_q.k}) vs ({seq_s.n},{seq_s.k})",
            prerequisite="matching-order-and-step",
        )
    a = table_from_sequence(seq_q)
    b = table_from_sequence(seq_s)
    cq = _diagonal_ordering(a, "first sequence")
    cs = _diagonal_ordering(b, "second sequence")
    phi = cs.compose(cq.inverse())
    bad = _first_broken_product(a.grid, np.array(phi.perm) - 1, b.grid, np.arange(a.n))   # phi(r*s) != r*s in b
    if bad:
        raise VerificationError(f"diagonal map fails at position ({bad[0]},{bad[1]})")
    return Isomorphism(phi.perm)


def _unitary_reordering(seq: KSequence) -> Ordering:
    """Theorem ordering b_s = [-a_k - k + s - 2] turning the table left unitary."""
    n, k = seq.n, seq.k
    v = seq.seq[k - 1]
    return Ordering(tuple(((np.arange(n) - v - k - 2) % n + 1).tolist()))


def iso_left_unitary(seq_q: KSequence, seq_g: KSequence) -> Isomorphism:
    """Isomorphism between two left-cancellative translatable semigroups.

    Both orders and steps must agree and both sequences must pass the
    semigroup criterion.  Each table is brought to its left-unitary
    presentation by the reordering b_s = [-a_k - k + s - 2]; matching
    positions then defines the map x -> [x + a_k - a_k'], checked on all
    products.
    """
    if (seq_q.n, seq_q.k) != (seq_g.n, seq_g.k):
        raise PreconditionError(
            f"presentations disagree: ({seq_q.n},{seq_q.k}) vs ({seq_g.n},{seq_g.k})",
            prerequisite="matching-order-and-step",
        )
    for who, seq in (("first", seq_q), ("second", seq_g)):
        if not seq.is_permutation() or not semigroup_criterion(seq):
            raise PreconditionError(
                f"{who} sequence does not pass the semigroup criterion",
                prerequisite="semigroup-criterion",
            )
    grid_q = table_from_sequence(seq_q).grid
    grid_g = table_from_sequence(seq_g).grid
    bq = _unitary_reordering(seq_q)
    bg = _unitary_reordering(seq_g)
    for grid, b in ((grid_q, bq), (grid_g, bg)):
        if not _leads_with_left_neutral(grid, b):
            raise VerificationError("reordered table has no left neutral in front")
    mapping = bg.compose(bq.inverse()).perm
    bad = _first_broken_product(grid_q, np.array(mapping) - 1, grid_g)
    if bad:
        raise VerificationError(f"unitary map fails on the product {bad[0]}*{bad[1]}")
    return Isomorphism(mapping)


def cyclic_table(n: int) -> CayleyTable:
    """The table of addition on 1..n with neutral 1: i*j = [i + j - 1], the
    rotations of 1..n at step n - 1."""
    _check_order(n)
    return CayleyTable._of_grid(_rotations(np.arange(n, dtype=_cell_dtype(n)), n - 1))


def _element_order(grid: np.ndarray, g: int, e: int) -> int:
    """Order of g with neutral e, both 0-based: its powers g, g*g, .. are
    read off the column of g."""
    column = grid[:, g].tolist()
    p = g
    steps = 1
    while p != e:
        p = column[p]
        steps += 1
        if steps > len(column):
            raise VerificationError(f"powers of {g + 1} never reach the neutral {e + 1}")
    return steps


def iso_to_cyclic(table: CayleyTable) -> Isomorphism | None:
    """Map a cyclic group table onto the canonical [i + j - 1] table.

    Returns None when the table is not a group or has no element of order
    n.  Otherwise the least such element g is sent to 2, its powers follow,
    and the isomorphism is returned once it is checked on all products.
    """
    n, grid = table.n, table.grid
    ok, _ = check(table, "associative")
    if not ok:
        return None
    e = _neutral_element(grid)
    if e is None:
        return None
    if not ((grid == e) & (grid.T == e)).any(axis=1).all():   # some x without an inverse
        return None
    generator = next((g for g in range(n) if _element_order(grid, g, e) == n), None)
    if generator is None:
        return None
    column = grid[:, generator].tolist()
    mapping = [0] * n
    p = e
    for power in range(1, n + 1):   # e goes to 1, the generator to 2, ..
        mapping[p] = power
        p = column[p]
    bad = _first_broken_product(grid, np.array(mapping) - 1, cyclic_table(n).grid)
    if bad:
        raise VerificationError(f"cyclic map fails on the product {bad[0]}*{bad[1]}")
    return Isomorphism(tuple(mapping))


@dataclass(frozen=True)
class Ideal:
    """A one-sided ideal with its semiprime verdict."""

    side: str
    elements: tuple[int, ...]
    semiprime: bool


DEFAULT_IDEAL_BOUND = 14


def principal_ideal(table: CayleyTable, x: int, side: str) -> tuple[int, ...]:
    """Smallest one-sided ideal containing x: {x} with Q*x (column x) or
    x*Q (row x)."""
    if side == "left":
        products = table.column(x)
    elif side == "right":
        products = table.row(x)
    else:
        raise InvalidInputError(f"side must be 'left' or 'right', got {side!r}")
    return tuple(sorted({x, *products}))


def _is_semiprime(diagonal: list[int], members: frozenset[int]) -> bool:
    """Is x in members whenever x*x is?  diagonal[x - 1] is x*x."""
    return all(x in members for x, square in enumerate(diagonal, start=1) if square in members)


def ideals(table: CayleyTable, side: str, bound: int = DEFAULT_IDEAL_BOUND) -> list[Ideal]:
    """All one-sided ideals of an associative table, smallest first.

    Every ideal of a semigroup is a union of principal ideals, so the
    distinct principal ideals are collected and all unions of them are
    deduplicated.  The order bound keeps the subset stage tractable.
    """
    if side not in ("left", "right"):
        raise InvalidInputError(f"side must be 'left' or 'right', got {side!r}")
    n = table.n
    if n > bound:
        raise BoundError(f"ideal enumeration over order {n} exceeds the bound {bound}")
    ok, witness = check(table, "associative")
    if not ok:
        raise PreconditionError(
            f"ideal enumeration needs an associative table; fails at {witness.elements}",
            prerequisite="associative",
        )
    principals = sorted({principal_ideal(table, x, side) for x in range(1, n + 1)})
    seen: set[frozenset[int]] = set()
    for count in range(1, len(principals) + 1):
        for chosen in itertools.combinations(principals, count):
            union = frozenset(x for p in chosen for x in p)
            seen.add(union)
    diagonal = (np.diagonal(table.grid) + 1).tolist()
    return [
        Ideal(side, tuple(sorted(members)), _is_semiprime(diagonal, members))
        for members in sorted(seen, key=lambda f: (len(f), tuple(sorted(f))))
    ]
