"""Identity checkers for Cayley tables.

Two independent routes are kept apart on purpose.  `check` evaluates each
named identity definitionally, by scanning products, and reports the
lexicographically least counterexample when the identity fails.  The
`lcond_check` and `left_unitary_characterize` functions evaluate the
closed-form modular conditions that characterise the same identities on
translatable tables; tests confront the two routes with each other.
"""

from __future__ import annotations

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


def _check_idempotent(table):
    for i in range(1, table.n + 1):
        v = table.rows[i - 1][i - 1]
        if v != i:
            return False, Witness("idempotent", (i,), v, i)
    return True, None


def _check_commutative(table):
    rows = table.rows
    for i in range(1, table.n + 1):
        for j in range(1, table.n + 1):
            a, b = rows[i - 1][j - 1], rows[j - 1][i - 1]
            if a != b:
                return False, Witness("commutative", (i, j), a, b)
    return True, None


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
    least x over all counterexamples; the x-ordered search up to it returns
    the lexicographically least (x, y, z), whichever slab failed first.
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
            return False, _least_associative_witness(m, _first_cell(bad)[0])
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


def _least_associative_witness(m, x_max):
    for x in range(x_max + 1):
        left = m[m[x]]           # [y, z] -> (x*y)*z
        right = m[x][m]          # [y, z] -> x*(y*z)
        bad = left != right
        if bad.any():
            y, z = _first_cell(bad)
            return Witness("associative", (x + 1, y + 1, z + 1), int(left[y, z]) + 1, int(right[y, z]) + 1)
    raise VerificationError("a failing associativity slab has no witness at or before its least x")


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


def _check_elastic(table):
    rows = table.rows
    for i in range(1, table.n + 1):
        for j in range(1, table.n + 1):
            ji = rows[j - 1][i - 1]
            ij = rows[i - 1][j - 1]
            lhs = rows[i - 1][ji - 1]
            rhs = rows[ij - 1][i - 1]
            if lhs != rhs:
                return False, Witness("elastic", (i, j), lhs, rhs)
    return True, None


def _check_strongly_elastic(table):
    rows = table.rows
    for i in range(1, table.n + 1):
        for j in range(1, table.n + 1):
            ji = rows[j - 1][i - 1]
            ij = rows[i - 1][j - 1]
            v1 = rows[i - 1][ji - 1]
            v2 = rows[ij - 1][i - 1]
            v3 = rows[ji - 1][j - 1]
            if v1 != v2:
                return False, Witness("strongly-elastic", (i, j), v1, v2)
            if v2 != v3:
                return False, Witness("strongly-elastic", (i, j), v2, v3)
    return True, None


def _check_bookend(table):
    rows = table.rows
    for i in range(1, table.n + 1):
        for j in range(1, table.n + 1):
            ji = rows[j - 1][i - 1]
            ij = rows[i - 1][j - 1]
            lhs = rows[ji - 1][ij - 1]
            if lhs != i:
                return False, Witness("bookend", (i, j), lhs, i)
    return True, None


def _guard_quadruple(n):
    if n ** 4 > _VECTOR_CELL_LIMIT:
        raise BoundError(f"four-variable identity scan is too large for order {n}")


def _check_paramedial(table):
    _guard_quadruple(table.n)
    m = table.grid
    prod = m[m[:, :, None, None], m[None, None, :, :]]  # (i*j)*(w*z)
    bad = prod != prod.transpose(3, 1, 2, 0)
    if bad.any():
        i, j, w, z = (v + 1 for v in _first_cell(bad))
        return False, _quad_witness(table, "paramedial", i, j, w, z)
    return True, None


def _quad_witness(table, tag, i, j, w, z):
    rows = table.rows
    ij = rows[i - 1][j - 1]
    wz = rows[w - 1][z - 1]
    lhs = rows[ij - 1][wz - 1]
    if tag == "paramedial":
        rhs = rows[rows[z - 1][j - 1] - 1][rows[w - 1][i - 1] - 1]
    else:
        rhs = rows[rows[i - 1][w - 1] - 1][rows[j - 1][z - 1] - 1]
    return Witness(tag, (i, j, w, z), lhs, rhs)


def _check_medial(table):
    _guard_quadruple(table.n)
    m = table.grid
    prod = m[m[:, :, None, None], m[None, None, :, :]]
    bad = prod != prod.transpose(0, 2, 1, 3)
    if bad.any():
        i, j, w, z = (v + 1 for v in _first_cell(bad))
        return False, _quad_witness(table, "medial", i, j, w, z)
    return True, None


def _check_left_distributive(table):
    n = table.n
    rows = table.rows
    for x in range(1, n + 1):
        row_x = rows[x - 1]
        for y in range(1, n + 1):
            xy = row_x[y - 1]
            for z in range(1, n + 1):
                lhs = row_x[rows[y - 1][z - 1] - 1]
                rhs = rows[xy - 1][row_x[z - 1] - 1]
                if lhs != rhs:
                    return False, Witness("left-distributive", (x, y, z), lhs, rhs)
    return True, None


def _check_right_distributive(table):
    n = table.n
    rows = table.rows
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            xy = rows[x - 1][y - 1]
            for z in range(1, n + 1):
                lhs = rows[xy - 1][z - 1]
                rhs = rows[rows[x - 1][z - 1] - 1][rows[y - 1][z - 1] - 1]
                if lhs != rhs:
                    return False, Witness("right-distributive", (x, y, z), lhs, rhs)
    return True, None


def _check_alterable(table):
    _guard_quadruple(table.n)
    rows = table.rows
    m = table.grid
    same = m[:, :, None, None] == m[None, None, :, :]   # i*j == w*z
    # j*w sits on axes (j, w); z*i on axes (z, i) via the transpose.
    swapped = m[None, :, :, None] == m.T[:, None, None, :]
    bad = same & ~swapped
    if bad.any():
        i, j, w, z = (v + 1 for v in _first_cell(bad))
        return False, Witness("alterable", (i, j, w, z), rows[j - 1][w - 1], rows[z - 1][i - 1])
    return True, None


def _check_left_modular(table):
    n = table.n
    rows = table.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ij = rows[i - 1][j - 1]
            for z in range(1, n + 1):
                lhs = rows[ij - 1][z - 1]
                rhs = rows[rows[z - 1][j - 1] - 1][i - 1]
                if lhs != rhs:
                    return False, Witness("left-modular", (i, j, z), lhs, rhs)
    return True, None


def _check_right_modular(table):
    n = table.n
    rows = table.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for z in range(1, n + 1):
                lhs = rows[i - 1][rows[j - 1][z - 1] - 1]
                rhs = rows[z - 1][rows[j - 1][i - 1] - 1]
                if lhs != rhs:
                    return False, Witness("right-modular", (i, j, z), lhs, rhs)
    return True, None


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


def _check_conditionally_commutative(table):
    n = table.n
    rows = table.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rows[i - 1][j - 1] != rows[j - 1][i - 1]:
                continue
            for x in range(1, n + 1):
                lhs = rows[rows[i - 1][x - 1] - 1][j - 1]
                rhs = rows[rows[j - 1][x - 1] - 1][i - 1]
                if lhs != rhs:
                    return False, Witness("conditionally-commutative", (i, j, x), lhs, rhs)
    return True, None


def _check_left_commutative(table):
    n = table.n
    rows = table.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ij = rows[i - 1][j - 1]
            ji = rows[j - 1][i - 1]
            if ij == ji:
                continue
            for x in range(1, n + 1):
                lhs = rows[ij - 1][x - 1]
                rhs = rows[ji - 1][x - 1]
                if lhs != rhs:
                    return False, Witness("left-commutative", (i, j, x), lhs, rhs)
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
    "idempotent": _check_idempotent,
    "commutative": _check_commutative,
    "associative": _check_associative,
    "left-cancellative": _check_left_cancellative,
    "right-cancellative": _check_right_cancellative,
    "left-solvable": _check_left_solvable,
    "right-solvable": _check_right_solvable,
    "quasigroup": _check_quasigroup,
    "elastic": _check_elastic,
    "strongly-elastic": _check_strongly_elastic,
    "bookend": _check_bookend,
    "paramedial": _check_paramedial,
    "medial": _check_medial,
    "left-distributive": _check_left_distributive,
    "right-distributive": _check_right_distributive,
    "alterable": _check_alterable,
    "left-modular": _check_left_modular,
    "right-modular": _check_right_modular,
    "left-unitary": _check_left_unitary,
    "unitary": _check_unitary,
    "anticommutative": _check_anticommutative,
    "conditionally-commutative": _check_conditionally_commutative,
    "left-commutative": _check_left_commutative,
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


def lcond_check(seq: KSequence, name: str) -> bool:
    """Closed-form verdict for a left-cancellative translatable table.

    Works directly on (n, k, a): products are table lookups through the
    first row and everything else is residue arithmetic.
    """
    _require_permutation(seq, "lcond_check")
    if name not in LCOND_NAMES:
        raise InvalidInputError(f"no closed-form condition for {name!r}; known: {', '.join(LCOND_NAMES)}")
    n, k, a = seq.n, seq.k, seq.seq

    def prod(i, j):
        return a[(k - k * i + j - 1) % n]

    rng = range(1, n + 1)
    if name == "idempotent":
        return all(a[(k - k * i + i - 1) % n] == i for i in rng)
    if name == "elastic":
        return all(
            mod_rep(i + k * i, n) == mod_rep(prod(j, i) + k * prod(i, j), n)
            for i in rng
            for j in rng
        )
    if name == "strongly-elastic":
        return lcond_check(seq, "elastic") and all(
            mod_rep(i + k * prod(j, i), n) == mod_rep(j + k * prod(i, j), n)
            for i in rng
            for j in rng
        )
    if name == "bookend":
        return all(
            a[(k - k * prod(j, i) + prod(i, j) - 1) % n] == i for i in rng for j in rng
        )
    if name == "left-distributive":
        return all(
            mod_rep(prod(i, j) + k * prod(s, i), n) == mod_rep(prod(s, j) + k * s, n)
            for i in rng
            for j in rng
            for s in rng
        )
    if name == "right-distributive":
        return all(
            mod_rep(s + k * prod(i, s), n) == mod_rep(prod(j, s) + k * prod(i, j), n)
            for i in rng
            for j in rng
            for s in rng
        )
    if name == "medial":
        return all(
            mod_rep(prod(w, z) + k * prod(i, w), n) == mod_rep(prod(j, z) + k * prod(i, j), n)
            for i in rng
            for j in rng
            for w in rng
            for z in rng
        )
    if name == "alterable":
        return all(
            mod_rep(w + k * z, n) == mod_rep(i + k * j, n)
            for i in rng
            for j in rng
            for w in rng
            for z in rng
            if mod_rep(j + k * w, n) == mod_rep(z + k * i, n)
        )
    if name == "commutative":
        return k == n - 1
    if name == "associative":
        return all(
            mod_rep(i + k * j, n) == mod_rep(prod(s, i) + k * prod(j, s), n)
            for i in rng
            for j in rng
            for s in rng
        )
    raise AssertionError(name)


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
