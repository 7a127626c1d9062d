"""Identity checkers for Cayley tables.

Each equational identity is written once, as text, in IDENTITIES, and
Identity.failures evaluates it over stacks of tables: the batch masks call
it directly, and `check` through _first_failure, the one function that
finds the lexicographically least failing cell of one table over a domain
per variable (a range, or a fixed value).  `check` sweeps the first
variable in blocks that start at one slab (one value of it) and double, so
a table that fails on its first slab costs one slab; it evaluates the
sides of a premise identity only where the premise holds; and on a
translatable table it decides medial and paramedial on one slab, the
domains with one variable fixed at 0, by the translation lemma stated at
_check_identity.  Associativity is decided by Light's test and only its
witness comes from IDENTITIES.  The other properties (cancellation,
solvability, units, anticommutativity, regularity, Clifford's conditions)
are read off whole rows, columns or grids of `grid`, each witness from the
first failing line or cell; the two sides of a mirror pair are one
function, applied to the grid and to its transpose, and "every line is a
permutation" is _distinct, as for the masks.  The closed forms are a
second, independent route: modular conditions that characterise the same
identities on translatable tables, and tests confront the two routes with
each other.  Each form of LCOND_NAMES is written once, in _CLOSED_FORMS,
as residue arithmetic on index grids that reads only the first row, n and
k; `lcond_verdicts` evaluates it over a stack of rows, a three-variable
form on three coordinate planes (exact since each term reads at most two
variables), and `lcond_check` is its one-row case.
`left_unitary_characterize` answers from k alone.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .core import (
    CayleyTable,
    InvalidInputError,
    KSequence,
    PreconditionError,
    VerificationError,
    Witness,
    _check_cost,
    _check_step,
    mod_rep,
)
from . import translation
from .translation import _blocks, _sieve, detect

PROPERTY_NAMES = (
    "idempotent",
    "commutative",
    "associative",
    "left-cancellative",
    "right-cancellative",
    "left-solvable",
    "right-solvable",
    "quasigroup",
    "elastic",
    "strongly-elastic",
    "bookend",
    "paramedial",
    "medial",
    "left-distributive",
    "right-distributive",
    "alterable",
    "left-modular",
    "right-modular",
    "left-unitary",
    "unitary",
    "anticommutative",
    "conditionally-commutative",
    "left-commutative",
    "left-regular",
    "right-regular",
    "regular",
    "intra-regular",
    "orthodox",
    "clifford-left",
    "clifford-right",
)

# These only make sense inside a semigroup, so `check` insists on
# associativity first.
NEEDS_ASSOCIATIVITY = frozenset(
    {
        "conditionally-commutative",
        "left-commutative",
        "left-regular",
        "right-regular",
        "regular",
        "intra-regular",
        "orthodox",
        "clifford-left",
        "clifford-right",
    }
)

_VECTOR_CELL_LIMIT = 20_000_000


def _first_cell(bad: np.ndarray) -> tuple[int, ...]:
    """0-based index of the first True cell in row-major (lexicographic) order."""
    return tuple(int(v) for v in np.unravel_index(int(bad.argmax()), bad.shape))


def _check_associative(table):
    """Associativity of the table by Light's test, _light_test."""
    return _light_test(table.grid)


def _light_test(m: np.ndarray):
    """Associativity of the 0-based grid m by Light's test: sweep the
    y-slabs of a generating set, and give the least witness if one fails.

    Call y good when (x*y)*z = x*(y*z) for every x and z.  Good elements are
    closed under the product: for good y1, y2,
    (x*y1y2)*z = ((x*y1)*y2)*z = (x*y1)*(y2*z) = x*(y1*(y2*z)) = x*((y1*y2)*z).
    So the table is associative exactly when every slab of a generating set
    passes.  The set is built as the sweep goes: y is the least element not
    yet generated by the slabs passed so far, and each passing y joins the
    generators before the next pick.

    The first slab that fails, at y, has its first bad cell at (x0, z0),
    with x0 its least x.  A counterexample with a smaller x is the least
    one; the first-failure scan of IDENTITIES["associative"] looks for it
    below x0 only.  If there is none, (x0, y, z0) is the least: every
    y' < y is good, generated or passed, and z0 is the first bad z of row
    x0 in the slab.
    """
    n = m.shape[0]
    have, members, columns = [False] * n, [], []
    for y in range(n):
        if have[y]:
            continue
        cell = _associative_slab(m, y)
        if cell is not None:
            x0, z0 = cell
            witness = _least_witness("associative", m, x0)
            return False, witness or _witness("associative", m, (x0, y, z0))
        _add_generator(m, have, members, columns, y)
    return True, None


def _associative_slab(m, y):
    """The first (x, z) in row-major order with (x*y)*z != x*(y*z), or None.

    The slab is swept a fixed _blocks range of whole rows x at a time, so
    it never holds more than a few translation._SCAN_CELLS-cell arrays,
    whatever the order.
    """
    n = m.shape[0]
    column, row = m[:, y], m[y]
    for r in _blocks(n, n):
        # [x, z] -> (x*y)*z against x*(y*z)
        bad = m[column[r.start:r.stop]] != np.take(m[r.start:r.stop], row, axis=1)
        if bad.any():
            x0, z0 = _first_cell(bad)
            return r.start + x0, z0
    return None


def _add_generator(m, have, members, columns, y):
    """Add the 0-based generator y of grid m and grow what the generators
    reach; `columns` holds the column m[:, g] of each generator g, as a list.

    `members` (flagged in `have`) holds every product reached from the
    generators by multiplying on the right by a generator.  Each is a good
    element times a good generator, so good.  With good generators this is
    the whole subgroupoid they generate: for words u and v*g,
    u*(v*g) = (u*v)*g because v is good.  Each member meets each generator
    once, so a whole sweep costs O(n * generators) lookups.
    """
    column = m[:, y].tolist()
    columns.append(column)
    have[y] = True
    fresh = [y]
    for s in members:
        p = column[s]
        if not have[p]:
            have[p] = True
            fresh.append(p)
    for s in fresh:    # runs over the elements appended on the way too
        for col in columns:
            p = col[s]
            if not have[p]:
                have[p] = True
                fresh.append(p)
    members.extend(fresh)


# -- equational identities ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Identity:
    """An equational identity: a term is a variable (0..arity-1) or a pair
    (u, v) of terms, their product.  It holds when every two adjacent terms
    of `sides` agree wherever the premise (u, v, equal), if any, has u == v
    (u != v when not equal).
    """

    text: str
    arity: int
    sides: tuple
    premise: tuple | None

    @classmethod
    def parse(cls, text: str) -> Identity:
        """Read "lhs = rhs [= ...]", optionally after "u = v =>" or "u != v =>".
        Juxtaposition is the product, grouped to the left unless parenthesised;
        the variables are letters, in a witness in alphabetical order."""
        names = sorted({c for c in text if c.isalpha()})
        hypothesis, _, law = text.rpartition("=>")
        sides = tuple(_term(side, names) for side in law.split("="))
        left, _, right = hypothesis.replace("!", "").partition("=")
        premise = (_term(left, names), _term(right, names), "!=" not in hypothesis) if hypothesis else None
        return cls(text, len(names), sides, premise)

    def failures(self, tables: np.ndarray, domains, product) -> np.ndarray:
        """True at each table and free cell where the identity fails.

        tables is a (B, n, n) stack of 0-based tables.  domains gives each
        variable a fixed value (an int) or a range of values, which gets an
        axis of its own after the table axis, in variable order.
        product(a, b) reads the stack at index arrays laid out that way; a
        product of two variables is a view of the stack instead.
        """
        b = tables.shape[0]
        free = [v for v, d in enumerate(domains) if isinstance(d, range)]
        axis = {v: 1 + k for k, v in enumerate(free)}
        shape = (b, *(len(domains[v]) for v in free))

        def placed(array, variables):
            at = [array.shape[0]] + [1] * len(axis)
            for v in variables:
                at[axis[v]] = len(domains[v])
            return array.reshape(at)

        def leaf(v):
            d = domains[v]
            return d if isinstance(d, int) else placed(np.arange(d.start, d.stop)[None], [v])

        def pair(u, v):
            du, dv = (d if isinstance(d, int) else slice(d.start, d.stop) for d in (domains[u], domains[v]))
            if u == v and u in axis:
                return placed(np.diagonal(tables[:, du, du], axis1=1, axis2=2), [u])
            cells = tables[:, du, dv]
            if u > v and u in axis and v in axis:
                return placed(cells.transpose(0, 2, 1), [v, u])
            return placed(cells, [w for w in (u, v) if w in axis])

        def value(term):
            return _evaluate(term, leaf, product, pair)

        bad = _differ([value(term) for term in self.sides])
        if self.premise:
            left, right, equal = self.premise
            bad = bad & (np.equal if equal else np.not_equal)(value(left), value(right))
        return bad if bad.shape == shape else np.broadcast_to(bad, shape)


def _differ(values):
    """True where some two adjacent values of the chain differ."""
    return functools.reduce(np.logical_or, map(np.not_equal, values, values[1:]))


def _variables(terms) -> set[int]:
    """The variables the given terms read."""
    return set().union(*({t} if isinstance(t, int) else _variables(t) for t in terms))


def _term(source: str, names):
    stack: list[list] = [[]]
    for c in source.replace(" ", ""):
        if c == "(":
            stack.append([])
        elif c == ")":
            inner = stack.pop()
            stack[-1].append(functools.reduce(lambda u, v: (u, v), inner))
        else:
            stack[-1].append(names.index(c))
    return functools.reduce(lambda u, v: (u, v), stack[0])


def _evaluate(term, leaf, product, pair=None):
    """leaf(v) for a variable, product(a, b) for the product of two values,
    and pair(u, v), when given, for the product of two variables."""
    if isinstance(term, int):
        return leaf(term)
    u, v = term
    if pair is not None and isinstance(u, int) and isinstance(v, int):
        return pair(u, v)
    return product(_evaluate(u, leaf, product, pair), _evaluate(v, leaf, product, pair))


# The equational identities, each written once: `check` evaluates them on
# one table and the batch masks on stacks of tables.  Associativity's
# verdict comes from Light's test; its witness comes from this entry.
IDENTITIES = {
    name: Identity.parse(text)
    for name, text in (
        ("idempotent", "ii = i"),
        ("commutative", "ij = ji"),
        ("associative", "(xy)z = x(yz)"),
        ("elastic", "i(ji) = (ij)i"),
        ("strongly-elastic", "i(ji) = (ij)i = (ji)j"),
        ("bookend", "(ji)(ij) = i"),
        ("paramedial", "(ij)(wz) = (zj)(wi)"),
        ("medial", "(ij)(wz) = (iw)(jz)"),
        ("left-distributive", "x(yz) = (xy)(xz)"),
        ("right-distributive", "(xy)z = (xz)(yz)"),
        ("alterable", "ij = wz => jw = zi"),
        ("left-modular", "(ij)z = (zj)i"),
        ("right-modular", "i(jz) = z(ji)"),
        ("conditionally-commutative", "ij = ji => (ix)j = (jx)i"),
        ("left-commutative", "ij != ji => (ij)x = (ji)x"),
    )
}


def _least_witness(name: str, m: np.ndarray, stop: int | None = None) -> Witness | None:
    """The lexicographically least counterexample to IDENTITIES[name] on grid
    m whose first variable is below stop (default n), with the first two
    adjacent sides that differ there; None if there is none.

    The first variable goes in translation._blocks, in order, so the first
    block that fails holds the least cell: one slab of it (or about
    translation._SCAN_CELLS cells) first, then twice as many each time, up
    to _VECTOR_CELL_LIMIT cells.  A scan that fails on its first slab stops
    there, and a grid of at most _SCAN_CELLS cells is one block.
    """
    identity = IDENTITIES[name]
    n = m.shape[0]
    stop = n if stop is None else stop
    for block in _blocks(stop, n ** (identity.arity - 1), _VECTOR_CELL_LIMIT):
        cell = _first_failure(identity, m, (block,) + (range(n),) * (identity.arity - 1))
        if cell is not None:
            return _witness(name, m, cell)
    return None


def _witness(name: str, m: np.ndarray, cell: tuple[int, ...]) -> Witness:
    """The counterexample to IDENTITIES[name] at the 0-based cell of grid m,
    with the first two adjacent sides that differ there."""
    sides = [_evaluate(term, cell.__getitem__, lambda a, b: int(m[a, b])) for term in IDENTITIES[name].sides]
    differ = next(((a, b) for a, b in zip(sides, sides[1:]) if a != b), None)
    if differ is None:
        raise VerificationError(f"{name} holds at the cell {cell} taken for a counterexample")
    lhs, rhs = differ
    return Witness(name, tuple(v + 1 for v in cell), lhs + 1, rhs + 1)


def _first_failure(identity: Identity, m: np.ndarray, domains) -> tuple[int, ...] | None:
    """The least 0-based cell where the identity fails on grid m, with each
    variable in its domain (a range, or a fixed int); None if there is none.
    The cell gives every variable, the fixed ones too.  `check` evaluates
    an identity of IDENTITIES on a table only through this, apart from the
    slabs of Light's test (_associative_slab).

    A premise that reads only the first p < arity variables is evaluated
    first, on those p variables alone.  The sides are then evaluated only
    on the p-tuples where it holds, taken in row-major order with the other
    variables after them, so the first failing cell is still the least.
    """
    domains = [range(d, d + 1) if isinstance(d, int) else d for d in domains]

    def product(a, b):
        return m[a, b]

    lead = identity.arity if identity.premise is None else 1 + max(_variables(identity.premise[:2]))
    if lead == identity.arity:
        bad = identity.failures(m[None], domains, product)[0]
        return tuple(d[c] for d, c in zip(domains, _first_cell(bad))) if bad.any() else None
    left, right, equal = identity.premise
    grids = np.ix_(*domains[:lead])
    held = (np.equal if equal else np.not_equal)(*(_evaluate(t, grids.__getitem__, product) for t in (left, right)))
    active = np.nonzero(np.broadcast_to(held, [g.size for g in grids]))
    rest = identity.arity - lead
    leaves = [g.ravel()[a].reshape(-1, *[1] * rest) for g, a in zip(grids, active)]
    leaves += [g[None] for g in np.ix_(*domains[lead:])]
    last = domains[-1]

    def by_rows(a, b):
        # A value constant along the last variable's axis, times every value
        # of it, is a slice of whole rows of m: a row gather, about ten times
        # as fast as gathering the same cells one by one.
        return m[a[..., 0], last.start:last.stop] if b is leaves[-1] and a.shape[-1] == 1 else m[a, b]

    bad = _differ([_evaluate(term, leaves.__getitem__, by_rows) for term in identity.sides])
    if not bad.any():
        return None
    pair, *others = _first_cell(bad)
    return (*(int(leaves[v].flat[pair]) for v in range(lead)), *(d[c] for d, c in zip(domains[lead:], others)))


# The variable a translation moves by one (0-based), for the identities
# that _check_identity decides on the slab where it is 0.
_SLAB_AXES = {"medial": 0, "paramedial": 2}

# Up to this many cells, n**4 at n <= 11, one sweep of the whole grid costs
# no more than detect and a slab; from n = 12 on the slab route is cheaper.
_WHOLE_SWEEP_CELLS = 1 << 14


def _require_scan_fits(name, n):
    """Refuse a four-variable identity whose n**4-cell sweep passes _VECTOR_CELL_LIMIT (n >= 67)."""
    if name in IDENTITIES and IDENTITIES[name].arity == 4:
        _check_cost(f"{name} scan at order {n}", n**4, "cells", "four-variable scan limit", _VECTOR_CELL_LIMIT)


def _check_identity(table, name):
    """check for IDENTITIES[name]: the least witness of the cell sweep.

    On a table translatable by some step k, (i+1)*(j+k) = i*j for all i and
    j.  So medial, (ij)(wz) = (iw)(jz), holds at (i, j, w, z) exactly when
    it holds at (i+1, j+k, w+k, z+k*k), where each of the four products is
    unchanged; the orbit of every cell meets i = 0, so the table is medial
    exactly when the slab i = 0 passes, and the least counterexample, if
    any, lies in that slab.  Paramedial, (ij)(wz) = (zj)(wi), is likewise
    invariant under (i+k, j+k*k, w+1, z+k), so the slab w = 0 decides it.
    _SLAB_AXES names that variable; a slab that passes is the verdict.  A
    failing medial slab holds the least witness, at its own first failing
    cell; on a failing paramedial slab the ordinary sweep finds it, since
    the least witness need not have w = 0.

    Up to _WHOLE_SWEEP_CELLS cells (order 11) the ordinary sweep is one
    block, the whole grid, and costs less there than detect and a slab.
    """
    m, n = table.grid, table.n
    _require_scan_fits(name, n)
    if name in _SLAB_AXES and n ** 4 > _WHOLE_SWEEP_CELLS and detect(table):
        identity = IDENTITIES[name]
        domains = [range(n)] * identity.arity
        domains[_SLAB_AXES[name]] = 0
        cell = _first_failure(identity, m, domains)
        if cell is None:
            return True, None
        if _SLAB_AXES[name] == 0:
            return False, _witness(name, m, cell)
    witness = _least_witness(name, m)
    return witness is None, witness


def _left_neutrals(m: np.ndarray) -> np.ndarray:
    """For a 0-based grid, or each grid of a (..., n, n) stack, whether each
    e has e * x = x for every x: whether row e equals 0..n-1."""
    return (m == np.arange(m.shape[-1])).all(axis=-1)


def _neutrals(m: np.ndarray) -> np.ndarray:
    """As _left_neutrals, for a two-sided neutral: row e and column e both
    equal 0..n-1."""
    elements = np.arange(m.shape[-1])
    return _left_neutrals(m) & (m == elements[:, None]).all(axis=-2)


def left_neutral_elements(table: CayleyTable) -> tuple[int, ...]:
    """All e with e * x = x for every x: the rows of the grid equal to 0..n-1."""
    return tuple((np.flatnonzero(_left_neutrals(table.grid)) + 1).tolist())


def idempotent_elements(table: CayleyTable) -> tuple[int, ...]:
    """All i with i * i = i, in increasing order, read off the grid's diagonal."""
    fixed = np.diagonal(table.grid) == np.arange(table.n)
    return tuple((np.flatnonzero(fixed) + 1).tolist())


def _neutral_element(m: np.ndarray) -> int | None:
    """The least 0-based two-sided neutral element of grid m, or None."""
    neutral = _neutrals(m)
    return int(neutral.argmax()) if neutral.any() else None


# -- the other properties -------------------------------------------------------
# Each reads the 0-based grid m and takes its witness from the first failing
# line or cell in row-major order.  A mirror pair is one function, applied to
# m for one side and to m.T for the other, since a column of m is a row of m.T.


def _verdict(bad: np.ndarray, witness) -> tuple[bool, Witness | None]:
    """(True, None) if no cell of bad is set, else (False, witness(*cell))
    at its first set cell."""
    return (True, None) if not bad.any() else (False, witness(*_first_cell(bad)))


def _present(m: np.ndarray) -> np.ndarray:
    """[r, v]: does the value v appear in row r of m?"""
    seen = np.zeros(m.shape, dtype=bool)
    seen[np.arange(len(m))[:, None], m] = True
    return seen


def _distinct(tables: np.ndarray, axis: int) -> np.ndarray:
    """For each line along `axis` (not the stack axis 0) of a stack of
    0-based values below n, n the line's length: does it hold n distinct
    values, that is every value once?  It does when the OR of 1 << v along
    the line is 2**n - 1; translation.ROW_CHUNK entries of the stack at a
    time, in int16 to n = 15 and int64 to n = 63, by sorting above that.
    """
    n = tables.shape[axis]
    if n > 63:
        values = np.arange(n).reshape((n,) + (1,) * (tables.ndim - 1 - axis))
        return (np.sort(tables, axis=axis) == values).all(axis=axis)
    one = np.int16(1) if n <= 15 else np.int64(1)
    chunk = translation.ROW_CHUNK
    out = np.empty(tables.shape[:axis] + tables.shape[axis + 1:], dtype=bool)
    for start in range(0, tables.shape[0], chunk):
        # dtype pins the shift to `one`'s width; without it NumPy 1.x casts
        # by value and shifts int8 tables in int8, losing bits 7 and up.
        bits = np.left_shift(one, tables[start:start + chunk], dtype=one.dtype)
        out[start:start + chunk] = np.bitwise_or.reduce(bits, axis=axis) == (1 << n) - 1
    return out


def _permutation_rows(m: np.ndarray) -> np.ndarray:
    """Which rows of m hold every value 0..n-1 once."""
    return _distinct(m[None], 2)[0]


def _cancellative(m: np.ndarray, name: str):
    """Left-cancellative on m, right-cancellative on m.T: in the first row i
    with a repeated value, the first position j2 that repeats an earlier j1."""

    def witness(i):
        first: dict[int, int] = {}
        for j2, v in enumerate(m[i].tolist()):
            j1 = first.setdefault(v, j2)
            if j1 != j2:
                return Witness(name, (i + 1, j1 + 1, j2 + 1), j1 + 1, j2 + 1)

    return _verdict(~_permutation_rows(m), witness)


def _solvable(m: np.ndarray, name: str):
    """Right-solvable on m (a * x = b has one solution x: each row is a
    permutation), left-solvable on m.T: the first row a that is not one,
    with the least value b it misses."""

    def witness(a):
        b = int(np.bincount(m[a], minlength=len(m)).argmin())
        return Witness(name, (a + 1, b + 1), int(m[a, 0]) + 1, b + 1)

    return _verdict(~_permutation_rows(m), witness)


def _check_quasigroup(table):
    ok, witness = _solvable(table.grid, "quasigroup")
    return _solvable(table.grid.T, "quasigroup") if ok else (ok, witness)


def _identity_miss(name: str, e: int, line: np.ndarray) -> Witness:
    """The first x where line, the row or column of e, does not hold x."""
    x = int((line != np.arange(len(line))).argmax())
    return Witness(name, (e + 1, x + 1), int(line[x]) + 1, x + 1)


def _check_left_unitary(table):
    if left_neutral_elements(table):
        return True, None
    return False, _identity_miss("left-unitary", 0, table.grid[0])


def _check_unitary(table):
    """A two-sided neutral element; else the first miss in the column of
    the least left neutral element, or in row 1 if there is none."""
    m = table.grid
    if _neutral_element(m) is not None:
        return True, None
    lefts = left_neutral_elements(table)
    e = lefts[0] - 1 if lefts else 0
    return False, _identity_miss("unitary", e, m[:, e] if lefts else m[0])


def _commuting_pairs(m: np.ndarray) -> np.ndarray:
    """For a 0-based grid, or each grid of a (..., n, n) stack, whether
    i * j = j * i at each cell (i, j) off the diagonal: the cells where
    anticommutativity fails."""
    return (m == np.swapaxes(m, -1, -2)) & ~np.eye(m.shape[-1], dtype=bool)


def _check_anticommutative(table):
    bad = _commuting_pairs(table.grid)
    return _verdict(bad, lambda i, j: Witness("anticommutative", (i + 1, j + 1), i + 1, j + 1))


def _regular_side(m: np.ndarray, name: str):
    """Left-regular on m, j = x * (j*j) for some x: j is in the column of
    j*j; right-regular on m.T, j in the row of j*j."""
    squares = np.diagonal(m)
    bad = ~_present(m.T)[squares, np.arange(len(m))]
    return _verdict(bad, lambda j: Witness(name, (j + 1,), int(m[0, squares[j]]) + 1, j + 1))


def _check_regular(table, name="regular"):
    """i = (i * x) * i for some x."""
    m = table.grid
    own = np.arange(len(m))[:, None]
    back = m[m, own]    # [i, x] -> (i*x)*i
    bad = ~(back == own).any(axis=1)
    return _verdict(bad, lambda i: Witness(name, (i + 1,), int(back[i, 0]) + 1, i + 1))


def _check_intra_regular(table):
    """i = ((x * i) * i) * y for some x and y."""
    m = table.grid
    elements = np.arange(len(m))
    heads = m[m, elements]    # [x, i] -> (x*i)*i
    bad = ~_present(m)[heads, elements].any(axis=0)
    return _verdict(bad, lambda i: Witness("intra-regular", (i + 1,), int(m[heads[0, i], 0]) + 1, i + 1))


def _check_orthodox(table):
    """Regular, and each product of two idempotents is idempotent."""
    ok, witness = _check_regular(table, "orthodox")
    if not ok:
        return ok, witness
    m = table.grid
    ids = np.array(idempotent_elements(table), dtype=np.intp) - 1
    products = m[ids][:, ids]
    squares = m[products, products]
    return _verdict(squares != products, lambda a, b: Witness(
        "orthodox", (int(ids[a]) + 1, int(ids[b]) + 1), int(squares[a, b]) + 1, int(products[a, b]) + 1))


def _clifford(m: np.ndarray, name: str):
    """Clifford-left on m, i * j in the column of i for all j; clifford-right
    on m.T, j * i in the row of i."""
    inside = _present(m.T)[np.arange(len(m))[:, None], m]
    return _verdict(~inside, lambda i, j: Witness(name, (i + 1, j + 1), int(m[i, j]) + 1, int(m[0, i]) + 1))


_CHECKERS = {
    **{name: functools.partial(_check_identity, name=name) for name in IDENTITIES},
    "associative": _check_associative,
    "left-cancellative": lambda table: _cancellative(table.grid, "left-cancellative"),
    "right-cancellative": lambda table: _cancellative(table.grid.T, "right-cancellative"),
    "right-solvable": lambda table: _solvable(table.grid, "right-solvable"),
    "left-solvable": lambda table: _solvable(table.grid.T, "left-solvable"),
    "quasigroup": _check_quasigroup,
    "left-unitary": _check_left_unitary,
    "unitary": _check_unitary,
    "anticommutative": _check_anticommutative,
    "left-regular": lambda table: _regular_side(table.grid, "left-regular"),
    "right-regular": lambda table: _regular_side(table.grid.T, "right-regular"),
    "regular": _check_regular,
    "intra-regular": _check_intra_regular,
    "orthodox": _check_orthodox,
    "clifford-left": lambda table: _clifford(table.grid, "clifford-left"),
    "clifford-right": lambda table: _clifford(table.grid.T, "clifford-right"),
}

assert set(_CHECKERS) == set(PROPERTY_NAMES)


def check(table: CayleyTable, name: str) -> tuple[bool, Witness | None]:
    """Definitional verdict for one named identity, with a counterexample."""
    if name not in _CHECKERS:
        raise InvalidInputError(f"unknown property {name!r}; known: {', '.join(PROPERTY_NAMES)}")
    if name in NEEDS_ASSOCIATIVITY:
        _require_associative(name, _check_associative(table)[0])
    return _CHECKERS[name](table)


def _require_associative(name, associative):
    if not associative:
        raise PreconditionError(
            f"property {name!r} requires an associative table", prerequisite="associative"
        )


def report(table: CayleyTable, names=None) -> dict[str, tuple[bool, Witness | None]]:
    """Verdicts for several identities at once.

    With no explicit list, all identities applicable to the table are
    covered: the semigroup-only ones are skipped when the table is not
    associative.  Associativity is decided at most once per report.  A
    four-variable identity past the order wall of its cell sweep is refused
    before any verdict is computed, unless an unknown name comes first.
    """
    for name in PROPERTY_NAMES if names is None else names:
        if name not in _CHECKERS:
            break   # check refuses it in its turn
        _require_scan_fits(name, table.n)
    associative = functools.cache(lambda: check(table, "associative"))
    if names is None:
        names = [p for p in PROPERTY_NAMES if p not in NEEDS_ASSOCIATIVITY or associative()[0]]
    verdicts = {}
    for name in names:
        if name == "associative":
            verdicts[name] = associative()
        elif name in NEEDS_ASSOCIATIVITY:
            _require_associative(name, associative()[0])
            verdicts[name] = _CHECKERS[name](table)
        else:
            verdicts[name] = check(table, name)
    return verdicts


# -- closed-form conditions on sequences ------------------------------------

LCOND_NAMES = (
    "idempotent",
    "elastic",
    "strongly-elastic",
    "bookend",
    "left-distributive",
    "right-distributive",
    "medial",
    "alterable",
    "commutative",
    "associative",
)


def _require_permutation(seq: KSequence, who: str) -> None:
    if not seq.is_permutation():
        raise PreconditionError(
            f"{who} needs a left-cancellative table: the first row must be a permutation",
            prerequisite="left-cancellative",
        )


# Each closed form as residue arithmetic on 0-based index grids: the arity
# of the grid and a function of P, k and one grid per variable giving
# values that must all be 0 modulo n.  P(x, y) = a[(y - kx) mod n] reads
# the first row a at the position cell (x, y) takes its value from, so a
# form reads only a, n and k, never a table.  Medial is taken on its slab
# i = 0 and alterable with its premise solved for z, so that each term of
# a three-variable form reads at most two variables, as lcond_verdicts
# needs (both are explained there).
_CLOSED_FORMS = {
    "idempotent": (1, lambda P, k, i: (P(i, i) - i,)),
    "elastic": (2, lambda P, k, i, j: (i + k * i - P(j, i) - k * P(i, j),)),
    "strongly-elastic": (2, lambda P, k, i, j: (
        i + k * i - P(j, i) - k * P(i, j), i + k * P(j, i) - j - k * P(i, j))),
    "bookend": (2, lambda P, k, i, j: (P(P(j, i), P(i, j)) - i,)),
    "left-distributive": (3, lambda P, k, i, j, s: (P(i, j) + k * P(s, i) - P(s, j) - k * s,)),
    "right-distributive": (3, lambda P, k, i, j, s: (s + k * P(i, s) - P(j, s) - k * P(i, j),)),
    "medial": (3, lambda P, k, j, w, z: (P(w, z) + k * P(0, w) - P(j, z) - k * P(0, j),)),
    "alterable": (3, lambda P, k, i, j, w: (w + k * (j + k * w - k * i) - i - k * j,)),
    "commutative": (1, lambda P, k, i: (k + 1,)),
    "associative": (3, lambda P, k, i, j, s: (i + k * j - P(s, i) - k * P(j, s),)),
}


def lcond_verdicts(rows: np.ndarray, k: int, name: str) -> np.ndarray:
    """The closed form for `name` at step k on each row of a (B, n) stack of
    0-based permutation rows: one boolean per row.

    A three-variable form F is a sum of terms that each read at most two
    variables, so its third mixed difference is 0: F(x, y, z) = F(x, y, 0)
    + F(x, 0, z) + F(0, y, z) - F(x, 0, 0) - F(0, y, 0) - F(0, 0, z) +
    F(0, 0, 0).  F is 0 modulo n on all n**3 cells exactly when it is on
    the planes x = 0, y = 0 and z = 0, each a slab of _sieve; a
    smaller form is one slab, its whole grid.  Medial is the condition
    at every (i, j, w, z); since P(x + 1, y + k) = P(x, y), it takes the
    same value at (i + 1, j + k, w + k, z + k*k), and that orbit meets
    i = 0, so the slab i = 0 decides it.  Alterable asks the condition at
    every (i, j, w, z) with j + kw = z + ki, that is at z = j + kw - ki.
    """
    arity, form = _CLOSED_FORMS[name]
    n = rows.shape[1]
    chunk = max(1, min(len(rows), translation.ROW_CHUNK, _VECTOR_CELL_LIMIT // (n * n)))

    def holds(stack, plane):
        stack = np.asarray(stack, dtype=np.intp)  # one chunk at a time

        def P(x, y):
            at = (y - k * x) % n
            if at.shape[0] == 1:
                return stack[:, at[0]]
            return np.take_along_axis(stack, at.reshape(len(stack), -1), axis=1).reshape(at.shape)

        domains = [range(1) if v == plane else range(n) for v in range(arity)]
        shape = (len(stack), *map(len, domains))
        grids = np.ix_(range(1), *domains)[1:]
        ok = np.ones(len(stack), dtype=bool)
        for value in form(P, k, *grids):
            ok &= (np.broadcast_to(value, shape) % n == 0).reshape(len(stack), -1).all(axis=1)
        return ok

    return _sieve(np.asarray(rows), holds, range(3) if arity == 3 else [None], chunk)


def lcond_check(seq: KSequence, name: str) -> bool:
    """Closed-form verdict for a left-cancellative translatable table: the
    one-row case of lcond_verdicts, on (n, k, a) alone."""
    _require_permutation(seq, "lcond_check")
    if name not in LCOND_NAMES:
        raise InvalidInputError(f"no closed-form condition for {name!r}; known: {', '.join(LCOND_NAMES)}")
    return bool(lcond_verdicts(np.array([seq.seq]) - 1, seq.k, name)[0])


LEFT_UNITARY_NAMES = (
    "bookend",
    "elastic",
    "strongly-elastic",
    "left-distributive",
    "right-distributive",
    "left-modular",
    "right-modular",
    "paramedial",
    "medial",
    "alterable",
    "associative",
)


def left_unitary_characterize(n: int, k: int) -> dict[str, bool]:
    """Predicted verdicts for the table whose first row is 1..n.

    Every answer is a residue condition on k alone; mod_rep(x, n) == n plays
    the role of "x is divisible by n".
    """
    _check_step(n, k)
    kk = mod_rep(k * k, n)
    return {
        "bookend": kk == n - 1 and mod_rep(2 * k, n) == n - 1,
        "elastic": mod_rep(k * k + k, n) == n,
        "strongly-elastic": False,
        "left-distributive": kk == n,
        "right-distributive": False,
        # (i*j)*z = (z*j)*i unfolds to (k^2-1)(i-z) = 0 mod n, and the
        # mirror identity i*(j*z) = z*(j*i) to (k+1)(z-i) = 0 mod n.
        "left-modular": kk == 1,
        "right-modular": k == n - 1,
        "paramedial": kk == 1,
        "medial": True,
        "alterable": kk == n - 1,
        "associative": mod_rep(k + k * k, n) == n,
    }


def semigroup_verdicts(rows: np.ndarray, k: int) -> np.ndarray:
    """The semigroup criterion at step k on each row of a (B, n) stack of
    0-based permutation rows, one row or one RowSpace block: one boolean
    per row.

    Holds exactly when k*k + k is divisible by n and every entry satisfies
    a_i = [i - k - k*a_k].
    """
    n = rows.shape[1]
    if mod_rep(k * k + k, n) != n:
        return np.zeros(len(rows), dtype=bool)
    # On 0-based values the criterion reads a_i - i = [-k - k*a_k], a_k taken
    # 1-based, at every i: a_i - i is a_0 everywhere, and a_0 is that value.
    # Only the column a_k is widened, for the product.
    turned = (rows - np.arange(n, dtype=rows.dtype)) % n == rows[:, :1]
    return turned.all(axis=1) & (rows[:, 0] == -k * (rows[:, k - 1].astype(np.int64) + 2) % n)


def semigroup_criterion(seq: KSequence) -> bool:
    """Is the table of this permutation first row associative?  The
    one-row case of semigroup_verdicts."""
    _require_permutation(seq, "semigroup_criterion")
    return bool(semigroup_verdicts(np.array([seq.seq]) - 1, seq.k)[0])


def left_neutral(seq: KSequence) -> int:
    """Left neutral element of a table passing the semigroup criterion."""
    if not semigroup_criterion(seq):
        raise PreconditionError(
            "left_neutral needs a sequence passing the semigroup criterion",
            prerequisite="semigroup-criterion",
        )
    n, a = seq.n, seq.seq
    return a[mod_rep(-2 * a[seq.k - 1] - 1, n) - 1]
