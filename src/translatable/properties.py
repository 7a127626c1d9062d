"""Identity checkers for Cayley tables.

Each equational identity is written once, as text, in IDENTITIES.  `check`
evaluates that definition on one table with numpy, cell by cell, and
reports the lexicographically least counterexample; the batch masks
evaluate the same definition over stacks of tables.  `check` sweeps the
first variable in blocks that start at one slab (one value of it) and
double, so a table that fails on its first slab costs one slab; it
evaluates the sides of a premise identity only where the premise holds;
and on a translatable table it decides medial and paramedial on one slab,
by the translation lemma stated at _check_identity.  Associativity is
decided by Light's test and only its witness comes from IDENTITIES; the
other properties (cancellation, solvability, units, regularity, Clifford's
conditions) have checkers of their own.  The closed forms are a second,
independent route: modular conditions that characterise the same
identities on translatable tables, and tests confront the two routes with
each other.  Each form of LCOND_NAMES is written once, in _CLOSED_FORMS,
as residue arithmetic on index grids that reads only the first row, n and
k; `lcond_verdicts` evaluates it over a stack of rows and `lcond_check` is
its one-row case.  `left_unitary_characterize` answers from k alone.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .core import (
    BoundError,
    CayleyTable,
    InvalidInputError,
    KSequence,
    PreconditionError,
    VerificationError,
    Witness,
    mod_rep,
)
from .translation import _blocks, detect

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
    """Associativity by Light's test: sweep the y-slabs of a generating set.

    Call y good when (x*y)*z = x*(y*z) for every x and z.  Good elements are
    closed under the product: for good y1, y2,
    (x*y1y2)*z = ((x*y1)*y2)*z = (x*y1)*(y2*z) = x*(y1*(y2*z)) = x*((y1*y2)*z).
    So the table is associative exactly when every slab of a generating set
    passes.  The set is built as the sweep goes: y is the least element not
    yet generated by the slabs passed so far, and each passing y joins the
    generators before the next pick.

    Any failing slab holds a counterexample at its least x, which bounds the
    least x over all counterexamples; the first-failure scan of
    IDENTITIES["associative"] up to it returns the lexicographically least
    (x, y, z), whichever slab failed first.
    """
    m = table.grid
    mt = np.ascontiguousarray(m.T)
    left = np.empty_like(m)
    right = np.empty_like(m)
    bad = np.empty(m.shape, dtype=bool)
    have, members, gens = [False] * table.n, [], []
    for y in range(table.n):
        if have[y]:
            continue
        if _associative_slab(m, mt, y, left, right, bad).any():
            witness = _least_witness("associative", m, _first_cell(bad)[0] + 1)
            if witness is None:
                raise VerificationError("a failing associativity slab has no witness at or before its least x")
            return False, witness
        _add_generator(table.rows, have, members, gens, y)
    return True, None


def _associative_slab(m, mt, y, left, right, bad):
    """bad[x, z] = (x*y)*z != x*(y*z), written into the given buffers."""
    np.take(m, m[:, y], axis=0, out=left, mode="clip")    # [x, z] -> (x*y)*z
    np.take(mt, m[y], axis=0, out=right, mode="clip")     # [z, x] -> x*(y*z)
    return np.not_equal(left, right.T, out=bad)


def _add_generator(rows, have, members, gens, y):
    """Add the 0-based generator y and grow what the generators reach.

    `members` (flagged in `have`) holds every product reached from the
    generators by multiplying on the right by a generator.  Each is a good
    element times a good generator, so good.  With good generators this is
    the whole subgroupoid they generate: for words u and v*g,
    u*(v*g) = (u*v)*g because v is good.  Each member meets each generator
    once, so a whole sweep costs O(n * generators) lookups.
    """
    gens.append(y)
    have[y] = True
    fresh = [y]
    for s in members:
        p = rows[s][y] - 1
        if not have[p]:
            have[p] = True
            fresh.append(p)
    for s in fresh:    # runs over the elements appended on the way too
        row = rows[s]
        for g in gens:
            p = row[g] - 1
            if not have[p]:
                have[p] = True
                fresh.append(p)
    members.extend(fresh)


def _first_duplicate(values):
    seen = {}
    for pos, v in enumerate(values, start=1):
        if v in seen:
            return seen[v], pos
        seen[v] = pos
    return None


def _check_left_cancellative(table):
    for i in range(1, table.n + 1):
        dup = _first_duplicate(table.rows[i - 1])
        if dup is not None:
            j1, j2 = dup
            return False, Witness("left-cancellative", (i, j1, j2), j1, j2)
    return True, None


def _check_right_cancellative(table):
    for j in range(1, table.n + 1):
        dup = _first_duplicate(table.column(j))
        if dup is not None:
            i1, i2 = dup
            return False, Witness("right-cancellative", (j, i1, i2), i1, i2)
    return True, None


def _check_right_solvable(table):
    # a * x = b has a unique solution for every a, b: rows are permutations.
    n = table.n
    for a in range(1, n + 1):
        row = set(table.rows[a - 1])
        if len(row) != n:
            b = min(set(range(1, n + 1)) - row)
            return False, Witness("right-solvable", (a, b), table.rows[a - 1][0], b)
    return True, None


def _check_left_solvable(table):
    # x * a = b has a unique solution for every a, b: columns are permutations.
    n = table.n
    for a in range(1, n + 1):
        col = table.column(a)
        if len(set(col)) != n:
            b = min(set(range(1, n + 1)) - set(col))
            return False, Witness("left-solvable", (a, b), col[0], b)
    return True, None


def _check_quasigroup(table):
    ok, witness = _check_right_solvable(table)
    if not ok:
        return False, Witness("quasigroup", witness.elements, witness.lhs, witness.rhs)
    ok, witness = _check_left_solvable(table)
    if not ok:
        return False, Witness("quasigroup", witness.elements, witness.lhs, witness.rhs)
    return True, None


# -- equational identities ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Identity:
    """An equational identity: a term is a variable (0..arity-1) or a pair
    (u, v) of terms, their product.  It holds when every two adjacent terms
    of `sides` agree wherever the premise (u, v, equal), if any, has u == v
    (u != v when not equal).  `swap`, when set, gives the axes that
    transpose sides[0]'s grid into sides[1]'s, a renaming of its variables.
    """

    text: str
    arity: int
    sides: tuple
    premise: tuple | None
    swap: tuple[int, ...] | None

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
        renaming: dict[int, int] = {}
        swap = len(sides) == 2 and _renames(*sides, renaming) and set(renaming.values()) == set(range(len(names)))
        return cls(text, len(names), sides, premise, tuple(sorted(renaming, key=renaming.get)) if swap else None)

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

        if self.swap and all(isinstance(d, range) and d == domains[a] for d, a in zip(domains, self.swap)):
            first = value(self.sides[0])
            values = [first, first.transpose(0, *(1 + a for a in self.swap))]
        else:
            values = [value(term) for term in self.sides]
        bad = _differ(values)
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


def _renames(u, v, renaming) -> bool:
    """Is term v term u with its variables renamed?  Fills in the renaming."""
    if isinstance(u, int) or isinstance(v, int):
        return isinstance(u, int) and isinstance(v, int) and renaming.setdefault(u, v) == v
    return _renames(u[0], v[0], renaming) and _renames(u[1], v[1], renaming)


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
    block that fails holds the least cell: one slab of it (or about 2**16
    cells) first, then twice as many each time, up to _VECTOR_CELL_LIMIT
    cells.  A scan that fails on its first slab stops there.  For medial
    and paramedial of a translatable table, _check_identity first decides
    on one slab, by the lemma stated there, and calls this only when a
    paramedial slab fails.
    """
    identity = IDENTITIES[name]
    n = m.shape[0]
    stop = n if stop is None else stop
    for block in _blocks(stop, n ** (identity.arity - 1), _VECTOR_CELL_LIMIT):
        cell = _first_failure(identity, m, block)
        if cell is not None:
            return _witness(name, m, cell)
    return None


def _witness(name: str, m: np.ndarray, cell: tuple[int, ...]) -> Witness:
    """The counterexample to IDENTITIES[name] at the 0-based cell of grid m,
    with the first two adjacent sides that differ there."""
    sides = [_evaluate(term, cell.__getitem__, lambda a, b: int(m[a, b])) for term in IDENTITIES[name].sides]
    lhs, rhs = next((a, b) for a, b in zip(sides, sides[1:]) if a != b)
    return Witness(name, tuple(v + 1 for v in cell), lhs + 1, rhs + 1)


def _first_failure(identity: Identity, m: np.ndarray, block: range) -> tuple[int, ...] | None:
    """The least 0-based cell whose first variable lies in block where the
    identity fails on grid m; None if there is none.

    A premise that reads only the first p < arity variables is evaluated
    first, on those p variables alone.  The sides are then evaluated only
    on the p-tuples where it holds, taken in row-major order with the other
    variables after them, so the first failing cell is still the least.
    """
    n = m.shape[0]

    def product(a, b):
        return m[a, b]

    lead = identity.arity if identity.premise is None else 1 + max(_variables(identity.premise[:2]))
    if lead == identity.arity:
        bad = identity.failures(m[None], (block,) + (range(n),) * (identity.arity - 1), product)[0]
        if not bad.any():
            return None
        first, *others = _first_cell(bad)
        return (first + block.start, *others)
    left, right, equal = identity.premise
    grids = np.ix_(block, *[range(n)] * (lead - 1))
    held = (np.equal if equal else np.not_equal)(*(_evaluate(t, grids.__getitem__, product) for t in (left, right)))
    active = np.nonzero(np.broadcast_to(held, [g.size for g in grids]))
    rest = identity.arity - lead
    leaves = [g.ravel()[a].reshape(-1, *[1] * rest) for g, a in zip(grids, active)]
    leaves += [g[None] for g in np.ix_(*[range(n)] * rest)]

    def by_rows(a, b):
        # A value constant along the last variable's axis, times every value
        # of it, is whole rows of m: a row gather, about ten times as fast
        # as gathering the same cells one by one.
        return m[a[..., 0]] if b is leaves[-1] and a.shape[-1] == 1 else m[a, b]

    bad = _differ([_evaluate(term, leaves.__getitem__, by_rows) for term in identity.sides])
    if not bad.any():
        return None
    pair, *others = _first_cell(bad)
    return (*(int(leaves[v].flat[pair]) for v in range(lead)), *others)


# The variable a translation moves by one (0-based), for the identities
# that _check_identity decides on the slab where it is 0.
_SLAB_AXES = {"medial": 0, "paramedial": 2}


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
    """
    m, n = table.grid, table.n
    identity = IDENTITIES[name]
    if identity.arity == 4:
        _guard_quadruple(n)
    if name in _SLAB_AXES and detect(table):
        axis = _SLAB_AXES[name]
        domains = [range(n)] * identity.arity
        domains[axis] = 0
        bad = identity.failures(m[None], domains, lambda a, b: m[a, b])[0]
        if not bad.any():
            return True, None
        if axis == 0:
            return False, _witness(name, m, (0, *_first_cell(bad)))
    witness = _least_witness(name, m)
    return witness is None, witness


def _guard_quadruple(n):
    if n ** 4 > _VECTOR_CELL_LIMIT:
        raise BoundError(f"four-variable identity scan is too large for order {n}")


def left_neutral_elements(table: CayleyTable) -> tuple[int, ...]:
    """All e with e * x = x for every x."""
    identity = tuple(range(1, table.n + 1))
    return tuple(e for e in identity if table.rows[e - 1] == identity)


def _check_left_unitary(table):
    if left_neutral_elements(table):
        return True, None
    row = table.rows[0]
    x = next(x for x in range(1, table.n + 1) if row[x - 1] != x)
    return False, Witness("left-unitary", (1, x), row[x - 1], x)


def _check_unitary(table):
    n = table.n
    lefts = left_neutral_elements(table)
    for e in lefts:
        if all(table.rows[x - 1][e - 1] == x for x in range(1, n + 1)):
            return True, None
    if not lefts:
        row = table.rows[0]
        x = next(x for x in range(1, n + 1) if row[x - 1] != x)
        return False, Witness("unitary", (1, x), row[x - 1], x)
    e = lefts[0]
    x = next(x for x in range(1, n + 1) if table.rows[x - 1][e - 1] != x)
    return False, Witness("unitary", (e, x), table.rows[x - 1][e - 1], x)


def _check_anticommutative(table):
    n = table.n
    rows = table.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rows[i - 1][j - 1] == rows[j - 1][i - 1]:
                return False, Witness("anticommutative", (i, j), i, j)
    return True, None


def _check_left_regular(table):
    n = table.n
    rows = table.rows
    for j in range(1, n + 1):
        jj = rows[j - 1][j - 1]
        if all(rows[x - 1][jj - 1] != j for x in range(1, n + 1)):
            return False, Witness("left-regular", (j,), rows[0][jj - 1], j)
    return True, None


def _check_right_regular(table):
    n = table.n
    rows = table.rows
    for j in range(1, n + 1):
        jj = rows[j - 1][j - 1]
        if all(rows[jj - 1][y - 1] != j for y in range(1, n + 1)):
            return False, Witness("right-regular", (j,), rows[jj - 1][0], j)
    return True, None


def _check_regular(table):
    n = table.n
    rows = table.rows
    for i in range(1, n + 1):
        if all(rows[rows[i - 1][x - 1] - 1][i - 1] != i for x in range(1, n + 1)):
            return False, Witness("regular", (i,), rows[rows[i - 1][0] - 1][i - 1], i)
    return True, None


def _check_intra_regular(table):
    n = table.n
    rows = table.rows
    for i in range(1, n + 1):
        heads = {rows[rows[x - 1][i - 1] - 1][i - 1] for x in range(1, n + 1)}
        if all(rows[h - 1][y - 1] != i for h in heads for y in range(1, n + 1)):
            h0 = rows[rows[0][i - 1] - 1][i - 1]
            return False, Witness("intra-regular", (i,), rows[h0 - 1][0], i)
    return True, None


def idempotent_elements(table: CayleyTable) -> tuple[int, ...]:
    return tuple(i for i in range(1, table.n + 1) if table.rows[i - 1][i - 1] == i)


def _check_orthodox(table):
    ok, witness = _check_regular(table)
    if not ok:
        return False, Witness("orthodox", witness.elements, witness.lhs, witness.rhs)
    rows = table.rows
    ids = idempotent_elements(table)
    for e in ids:
        for f in ids:
            ef = rows[e - 1][f - 1]
            sq = rows[ef - 1][ef - 1]
            if sq != ef:
                return False, Witness("orthodox", (e, f), sq, ef)
    return True, None


def _check_clifford_right(table):
    n = table.n
    rows = table.rows
    for i in range(1, n + 1):
        right = {rows[i - 1][x - 1] for x in range(1, n + 1)}
        for j in range(1, n + 1):
            ji = rows[j - 1][i - 1]
            if ji not in right:
                return False, Witness("clifford-right", (i, j), ji, rows[i - 1][0])
    return True, None


def _check_clifford_left(table):
    n = table.n
    rows = table.rows
    for i in range(1, n + 1):
        left = {rows[x - 1][i - 1] for x in range(1, n + 1)}
        for j in range(1, n + 1):
            ij = rows[i - 1][j - 1]
            if ij not in left:
                return False, Witness("clifford-left", (i, j), ij, rows[0][i - 1])
    return True, None


_CHECKERS = {
    **{name: functools.partial(_check_identity, name=name) for name in IDENTITIES},
    "associative": _check_associative,
    "left-cancellative": _check_left_cancellative,
    "right-cancellative": _check_right_cancellative,
    "left-solvable": _check_left_solvable,
    "right-solvable": _check_right_solvable,
    "quasigroup": _check_quasigroup,
    "left-unitary": _check_left_unitary,
    "unitary": _check_unitary,
    "anticommutative": _check_anticommutative,
    "left-regular": _check_left_regular,
    "right-regular": _check_right_regular,
    "regular": _check_regular,
    "intra-regular": _check_intra_regular,
    "orthodox": _check_orthodox,
    "clifford-left": _check_clifford_left,
    "clifford-right": _check_clifford_right,
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
    associative.  Associativity is decided at most once per report.
    """
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
# form reads only a, n and k, never a table.  Medial is evaluated on its
# slab i = 0 and alterable with its premise solved for z; both are
# explained at lcond_verdicts.
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

    The form's first variable goes in translation._blocks, each block only
    on the rows that passed every earlier one (batch._sieve), with no more
    than _VECTOR_CELL_LIMIT cells in one block.  Medial is the condition
    at every (i, j, w, z); since P(x + 1, y + k) = P(x, y), it takes the
    same value at (i + 1, j + k, w + k, z + k*k), and that orbit meets
    i = 0, so the slab i = 0 decides it.  Alterable asks the condition at
    every (i, j, w, z) with j + kw = z + ki, that is at z = j + kw - ki.
    Both still refuse the orders whose full four-variable grid is over
    _VECTOR_CELL_LIMIT cells.
    """
    from . import batch  # batch reads IDENTITIES from this module

    arity, form = _CLOSED_FORMS[name]
    n = rows.shape[1]
    if name in ("medial", "alterable"):
        _guard_quadruple(n)
    span = n ** (arity - 1)
    chunk = max(1, min(len(rows), batch.ROW_CHUNK, _VECTOR_CELL_LIMIT // span))

    def holds(stack, block):
        def P(x, y):
            at = (y - k * x) % n
            if at.shape[0] == 1:
                return stack[:, at[0]]
            return np.take_along_axis(stack, at.reshape(len(stack), -1), axis=1).reshape(at.shape)

        shape = (len(stack), len(block)) + (n,) * (arity - 1)
        grids = np.ix_(range(1), block, *[range(n)] * (arity - 1))[1:]
        ok = np.ones(len(stack), dtype=bool)
        for value in form(P, k, *grids):
            ok &= (np.broadcast_to(value, shape) % n == 0).reshape(len(stack), -1).all(axis=1)
        return ok

    stack = np.asarray(rows, dtype=np.intp)
    return batch._sieve(stack, holds, list(_blocks(n, chunk * span, _VECTOR_CELL_LIMIT)), chunk)


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
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"step must satisfy 1 <= k <= n-1, got k={k} for n={n}")
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


def semigroup_criterion(seq: KSequence) -> bool:
    """Is the table of this permutation first row associative?

    Holds exactly when k*k + k is divisible by n and every entry satisfies
    a_i = [i - k - k*a_k].
    """
    _require_permutation(seq, "semigroup_criterion")
    n, k, a = seq.n, seq.k, seq.seq
    if mod_rep(k * k + k, n) != n:
        return False
    ak = a[k - 1]
    return all(a[i - 1] == mod_rep(i - k - k * ak, n) for i in range(1, n + 1))


def left_neutral(seq: KSequence) -> int:
    """Left neutral element of a table passing the semigroup criterion."""
    if not semigroup_criterion(seq):
        raise PreconditionError(
            "left_neutral needs a sequence passing the semigroup criterion",
            prerequisite="semigroup-criterion",
        )
    n, a = seq.n, seq.seq
    return a[mod_rep(-2 * a[seq.k - 1] - 1, n) - 1]
