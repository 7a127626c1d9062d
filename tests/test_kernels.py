"""The numpy cell sweeps against independent brute-force loops.

Every oracle here is a plain nested loop over 1-based cells written in this
file, so a kernel that gathers the wrong axis or picks the wrong first
counterexample disagrees with it.  Witnesses must match exactly: the
kernels promise the lexicographically least counterexample.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from translatable import batch, properties
from translatable.campaigns import _eas_masks, _perm_alterable_mask
from translatable.constructions import (
    UnionSpec,
    cancellative_semigroups,
    left_unitary_groupoid,
    union_same_step,
    union_shifted_step,
)
from translatable.core import (
    BoundError,
    CayleyTable,
    InvalidInputError,
    KSequence,
    Ordering,
    VerificationError,
)
from translatable.properties import check
from translatable.search import _worker_count
from translatable.structure import _verify_component_group, decompose, iso_left_unitary
from translatable.translation import detect, is_translatable, table_from_sequence


def random_table(rng: random.Random, n: int, values: int | None = None) -> CayleyTable:
    top = values or n
    return CayleyTable(n, tuple(tuple(rng.randint(1, top) for _ in range(n)) for _ in range(n)))


def with_cell(table: CayleyTable, i: int, j: int, value: int) -> CayleyTable:
    rows = [list(row) for row in table.rows]
    rows[i - 1][j - 1] = value
    return CayleyTable(table.n, rows)


def perturbed_first_rows(max_n: int):
    """Every single-entry change of every cancellative semigroup first row."""
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for seq in cancellative_semigroups(n, k):
                for pos in range(n):
                    for value in range(1, n + 1):
                        if value != seq.seq[pos]:
                            row = seq.seq[:pos] + (value,) + seq.seq[pos + 1:]
                            yield table_from_sequence(KSequence(n, k, row))


# -- associativity ------------------------------------------------------------


# Every equational identity of properties.IDENTITIES written out again as a
# loop body over a 1-based product p: (arity, the chain of sides at a cell).
# An empty chain is a cell where the premise fails.
ORACLE = {
    "idempotent": (1, lambda p, i: (p(i, i), i)),
    "commutative": (2, lambda p, i, j: (p(i, j), p(j, i))),
    "associative": (3, lambda p, x, y, z: (p(p(x, y), z), p(x, p(y, z)))),
    "elastic": (2, lambda p, i, j: (p(i, p(j, i)), p(p(i, j), i))),
    "strongly-elastic": (2, lambda p, i, j: (p(i, p(j, i)), p(p(i, j), i), p(p(j, i), j))),
    "bookend": (2, lambda p, i, j: (p(p(j, i), p(i, j)), i)),
    "paramedial": (4, lambda p, i, j, w, z: (p(p(i, j), p(w, z)), p(p(z, j), p(w, i)))),
    "medial": (4, lambda p, i, j, w, z: (p(p(i, j), p(w, z)), p(p(i, w), p(j, z)))),
    "left-distributive": (3, lambda p, x, y, z: (p(x, p(y, z)), p(p(x, y), p(x, z)))),
    "right-distributive": (3, lambda p, x, y, z: (p(p(x, y), z), p(p(x, z), p(y, z)))),
    "alterable": (4, lambda p, i, j, w, z: (p(j, w), p(z, i)) if p(i, j) == p(w, z) else ()),
    "left-modular": (3, lambda p, i, j, z: (p(p(i, j), z), p(p(z, j), i))),
    "right-modular": (3, lambda p, i, j, z: (p(i, p(j, z)), p(z, p(j, i)))),
    "conditionally-commutative": (
        3, lambda p, i, j, x: (p(p(i, x), j), p(p(j, x), i)) if p(i, j) == p(j, i) else ()
    ),
    "left-commutative": (
        3, lambda p, i, j, x: (p(p(i, j), x), p(p(j, i), x)) if p(i, j) != p(j, i) else ()
    ),
}


def brute_identity(table: CayleyTable, name: str):
    """The verdict and least (elements, lhs, rhs) counterexample of a named
    identity, by a loop over every cell in lexicographic order."""
    rows = table.rows

    def p(a, b):
        return rows[a - 1][b - 1]

    arity, sides = ORACLE[name]
    for cell in itertools.product(range(1, table.n + 1), repeat=arity):
        values = sides(p, *cell)
        for lhs, rhs in zip(values, values[1:]):
            if lhs != rhs:
                return False, (cell, lhs, rhs)
    return True, None


def all_slab_associative(table: CayleyTable):
    """The sweep over every y-slab that Light's test replaced, kept as an oracle."""
    m = table.grid
    mt = np.ascontiguousarray(m.T)
    for y in range(table.n):
        bad = m[m[:, y]] != mt[m[y]].T
        if bad.any():
            return False, properties._least_witness("associative", m, int(bad.argmax()) // table.n + 1)
    return True, None


def premised(held, lhs, rhs):
    """The two sides of a premise identity, made equal where the premise fails."""
    return lhs, np.where(held, rhs, lhs)


# Both sides of some three-variable identities over the whole (x, y, z) cube
# at once, [x, y, z] -> value, for the larger orders.
CUBES = {
    "associative": lambda m: (m[m], m[:, m]),
    "left-distributive": lambda m: (m[:, m], m[m[:, :, None], m[:, None, :]]),
    "left-modular": lambda m: (m[m], m[m].transpose(2, 1, 0)),
    "conditionally-commutative": lambda m: premised(
        (m == m.T)[:, :, None], m[m].transpose(0, 2, 1), m[m].transpose(2, 0, 1)
    ),
    "left-commutative": lambda m: premised((m != m.T)[:, :, None], m[m], m[m.T]),
}


def cube_identity(table: CayleyTable, name: str):
    """brute_identity for the identities of CUBES, over the whole cube at once."""
    lhs, rhs = CUBES[name](table.grid)
    bad = lhs != rhs
    if not bad.any():
        return True, None
    cell = np.unravel_index(int(bad.argmax()), bad.shape)
    return False, (tuple(int(v) + 1 for v in cell), int(lhs[cell]) + 1, int(rhs[cell]) + 1)


def assert_associative_agrees(table: CayleyTable, oracle=brute_identity) -> tuple[int, int, int] | None:
    ok, witness = check(table, "associative")
    assert (ok, witness) == all_slab_associative(table)
    expected_ok, expected = oracle(table, "associative")
    assert ok == expected_ok
    if ok:
        assert witness is None
        return None
    assert witness.tag == "associative"
    assert (witness.elements, witness.lhs, witness.rhs) == expected
    return witness.elements


def random_cell_change(rng: random.Random, base: CayleyTable) -> CayleyTable:
    n = base.n
    i, j = rng.randint(1, n), rng.randint(1, n)
    value = rng.choice([v for v in range(1, n + 1) if v != base.rows[i - 1][j - 1]])
    return with_cell(base, i, j, value)


def test_associative_matches_brute_force_on_random_tables():
    rng = random.Random(20171107)
    for n in range(1, 41):
        for values in (n, min(n, 2), min(n, 3)):
            for _ in range(3):
                assert_associative_agrees(random_table(rng, n, values))


def test_associative_matches_brute_force_on_semigroups():
    for n, k in ((2, 1), (6, 2), (12, 3), (20, 4), (30, 5), (40, 15)):
        seqs = cancellative_semigroups(n, k)
        assert seqs
        for seq in seqs[:3]:
            assert assert_associative_agrees(table_from_sequence(seq)) is None


def test_associative_witness_lands_beyond_the_first_slab():
    # One changed entry of a semigroup first row often breaks associativity
    # only at x > 1, so the y-slab scan must hand its first failing slab to
    # the x-ordered search to report the least witness.
    late = 0
    for table in perturbed_first_rows(9):
        elements = assert_associative_agrees(table)
        if elements is not None and elements[0] > 1:
            late += 1
    assert late > 0


def test_associative_single_cell_perturbations():
    rng = random.Random(7)
    for n, k in ((6, 2), (12, 3), (20, 4)):
        base = table_from_sequence(cancellative_semigroups(n, k)[0])
        for _ in range(25):
            assert_associative_agrees(random_cell_change(rng, base))


def union_tables(max_order: int):
    for k in range(1, max_order):
        n = k + k * k
        for t in range(1, k + 1):
            if k % t == 0 and t * n <= max_order:
                yield union_shifted_step(UnionSpec(n, k, t)).table
    for n in range(2, max_order + 1):
        for k in range(1, n):
            for t in range(1, 9):
                if t * n <= max_order and k % t == 0 and (k + k * k) % (t * n) == 0:
                    yield union_same_step(UnionSpec(n, k, t)).table


def test_associative_single_cell_changes_of_unions():
    rng = random.Random(11)
    tables = list(union_tables(90))
    assert max(table.n for table in tables) == 90
    failed = 0
    for base in tables:
        assert assert_associative_agrees(base, cube_identity) is None
        for _ in range(2 if base.n > 1 else 0):
            failed += assert_associative_agrees(random_cell_change(rng, base), cube_identity) is not None
    assert failed > 0


def bands(n: int):
    """Left-zero band, right-zero band and every constant table of order n."""
    r = range(1, n + 1)
    yield CayleyTable(n, tuple((x,) * n for x in r))
    yield CayleyTable(n, tuple(tuple(r) for _ in r))
    for c in r:
        yield CayleyTable(n, ((c,) * n,) * n)


def test_associative_on_bands_constant_tables_and_their_changes():
    rng = random.Random(3)
    for n in range(1, 13):
        for base in bands(n):
            assert assert_associative_agrees(base) is None
            for _ in range(3 if n > 1 else 0):
                assert_associative_agrees(random_cell_change(rng, base))


def count_slabs(monkeypatch) -> list[int]:
    seen = []
    slab = properties._associative_slab

    def spy(m, mt, y, *buffers):
        seen.append(y)
        return slab(m, mt, y, *buffers)

    monkeypatch.setattr(properties, "_associative_slab", spy)
    return seen


def test_every_element_of_a_band_is_its_own_generator(monkeypatch):
    seen = count_slabs(monkeypatch)
    left_zero, right_zero, *_ = bands(7)
    for table in (left_zero, right_zero):
        seen.clear()
        assert check(table, "associative") == (True, None)
        assert seen == list(range(7))


@pytest.mark.parametrize("k", [2, 3, 7, 10])
def test_cancellative_semigroups_need_k_slabs(monkeypatch, k):
    n = k + k * k
    seen = count_slabs(monkeypatch)
    seqs = cancellative_semigroups(n, k)
    assert seqs
    for seq in seqs:
        seen.clear()
        assert check(table_from_sequence(seq), "associative") == (True, None)
        assert len(seen) == k, seq.seq


def python_closure(rows, elements) -> set[int]:
    """The subgroupoid generated by 0-based `elements` of a 0-based table."""
    have = set(elements)
    while True:
        new = {rows[a][b] for a in have for b in have} - have
        if not new:
            return have
        have |= new


def right_orbit(rows, gens) -> set[int]:
    """Every product reached from `gens` by right multiplication with `gens`."""
    have = set(gens)
    while True:
        new = {rows[a][g] for a in have for g in gens} - have
        if not new:
            return have
        have |= new


def grown_sets(table: CayleyTable, order):
    """What _add_generator holds after each generator of `order` joins."""
    have, members, gens = [False] * table.n, [], []
    for y in order:
        if not have[y]:
            properties._add_generator(table.rows, have, members, gens, y)
        assert sorted(members) == [x for x in range(table.n) if have[x]]
        yield list(gens), set(members)


def semilattices_and_cyclic_groups(n: int):
    r = range(1, n + 1)
    yield CayleyTable(n, tuple(tuple(max(x, y) for y in r) for x in r))
    yield CayleyTable(n, tuple(tuple(min(x, y) for y in r) for x in r))
    yield CayleyTable(n, tuple(tuple((x + y) % n + 1 for y in r) for x in r))


def test_generated_set_of_good_elements_is_the_subgroupoid():
    # In an associative table every element is good, so what the generators
    # reach by right multiplication must be the whole subgroupoid.
    rng = random.Random(29)
    pool = [table_from_sequence(seq) for seq in cancellative_semigroups(20, 4)]
    pool += [table for table in union_tables(24)]
    pool += [table for n in (1, 6, 13) for table in (*bands(n), *semilattices_and_cyclic_groups(n))]
    for table in pool:
        assert check(table, "associative")[0]
        rows = table.grid.tolist()
        for _ in range(3):
            order = rng.sample(range(table.n), table.n)
            for gens, members in grown_sets(table, order):
                assert members == python_closure(rows, gens)


def test_generated_set_is_the_right_orbit_on_any_table():
    rng = random.Random(31)
    for n in (1, 5, 12, 30):
        for values in (n, min(n, 2), min(n, 3)):
            table = random_table(rng, n, values)
            rows = table.grid.tolist()
            order = rng.sample(range(n), n)
            for gens, members in grown_sets(table, order):
                assert members == right_orbit(rows, gens)
                assert members <= python_closure(rows, gens)


# -- equational identities ----------------------------------------------------


def assert_check_agrees(table: CayleyTable, name: str) -> bool:
    """check's verdict and witness for an identity equal brute_identity's.

    check refuses a semigroup-only identity on a non-associative table, so
    there the checker it would run is asked directly.
    """
    if name in properties.NEEDS_ASSOCIATIVITY and not check(table, "associative")[0]:
        ok, witness = properties._CHECKERS[name](table)
    else:
        ok, witness = check(table, name)
    expected_ok, expected = brute_identity(table, name)
    assert ok == expected_ok, name
    if ok:
        assert witness is None
    else:
        assert witness.tag == name
        assert (witness.elements, witness.lhs, witness.rhs) == expected, name
    return ok


def quad_tables():
    rng = random.Random(31)
    for n in range(1, 11):
        for values in (n, min(n, 2)):
            yield random_table(rng, n, values)
        for k in range(1, n):
            yield table_from_sequence(left_unitary_groupoid(n, k))
            seq = tuple(rng.randint(1, n) for _ in range(n))
            yield table_from_sequence(KSequence(n, k, seq))
    yield CayleyTable(4, ((2,) * 4,) * 4)


def test_oracle_covers_every_identity():
    assert set(ORACLE) == set(properties.IDENTITIES)
    assert all(ORACLE[name][0] == law.arity for name, law in properties.IDENTITIES.items())


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_identities_match_brute_force(name):
    verdicts = {assert_check_agrees(table, name) for table in quad_tables()}
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(name for name, (arity, _) in ORACLE.items() if arity < 4))
def test_identities_match_brute_force_at_order_66(name):
    rng = random.Random(66)
    semigroup = table_from_sequence(cancellative_semigroups(66, 11)[0])
    noise = table_from_sequence(KSequence(66, 7, tuple(rng.randint(1, 66) for _ in range(66))))
    for table in (semigroup, noise):
        assert_check_agrees(table, name)


@pytest.mark.parametrize("name", sorted(CUBES))
def test_blocks_of_the_first_variable_keep_the_least_witness(monkeypatch, name):
    # Three values of x a block: at n = 20 the grid spans seven blocks.
    n = 20
    monkeypatch.setattr(properties, "_VECTOR_CELL_LIMIT", 3 * n * n)
    rng = random.Random(19)
    r = range(1, n + 1)
    bases = [
        CayleyTable(n, ((4,) * n,) * n),
        CayleyTable(n, tuple((x,) * n for x in r)),
        CayleyTable(n, tuple(tuple(r) for _ in r)),
    ]
    late = 0
    for base in bases:
        for _ in range(40):
            i, j = rng.randint(1, n), rng.randint(1, n)
            table = with_cell(base, i, j, rng.choice((i, j, rng.randint(1, n))))
            expected = cube_identity(table, name)
            witness = properties._least_witness(name, table.grid)
            assert (witness is None, witness and (witness.elements, witness.lhs, witness.rhs)) == expected
            assert properties._CHECKERS[name](table) == (witness is None, witness)
            late += witness is not None and witness.elements[0] > 3
    assert late > 0


def test_growing_blocks_keep_a_late_witness():
    # At n = 260 a slab of x holds 260**2 > 2**16 cells, so the blocks of x
    # hold 1, 2, 4, ... 128 values: x = 201 lies in the eighth, from x = 128.
    n = 260
    band = CayleyTable(n, tuple((x,) * n for x in range(1, n + 1)))
    table = with_cell(band, 201, 7, 5)
    witness = properties._least_witness("associative", table.grid)
    assert (witness.elements, witness.lhs, witness.rhs) == cube_identity(table, "associative")[1]
    assert witness.elements[0] == 201


# -- translation slabs --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(properties._SLAB_AXES))
def test_translation_slab_decides_every_small_translatable_table(fresh_memo, name):
    # Every first row and step to n = 6: the slab passes exactly when the
    # full sweep does.  For medial the slab holds the smallest first
    # variable, so it then also holds the least witness.
    identity = properties.IDENTITIES[name]
    for n in range(2, 7):
        rows = batch.row_array(n, False)
        domains = [range(n)] * 4
        domains[properties._SLAB_AXES[name]] = 0
        for k in range(1, n):
            for start in range(0, rows.shape[0], batch.ROW_CHUNK):
                stack = batch.product_tables(rows[start:start + batch.ROW_CHUNK], k)
                slab = identity.failures(stack, domains, lambda a, b: batch.compose(stack, a, b))
                passes = ~slab.reshape(len(stack), -1).any(axis=1)
                assert np.array_equal(passes, batch.MASKS[name](stack)), (n, k)


@pytest.mark.parametrize("name", sorted(properties._SLAB_AXES))
def test_translation_slab_keeps_check_equal_to_the_full_sweep(name):
    # 2 000 seeded rows at n = 7, every other one affine (so medial).
    rng = random.Random(7)
    n = 7
    verdicts = set()
    for t in range(2000):
        if t % 2:
            row = tuple(rng.randint(1, n) for _ in range(n))
        else:
            c, e = rng.randrange(n), rng.randrange(n)
            row = tuple((c * j + e) % n + 1 for j in range(n))
        table = table_from_sequence(KSequence(n, rng.randrange(1, n), row))
        witness = properties._least_witness(name, table.grid)
        assert check(table, name) == (witness is None, witness)
        verdicts.add(witness is None)
    assert verdicts == {True, False}


def test_failing_medial_takes_its_witness_from_the_slab(monkeypatch):
    # Every row and step to n = 4, and 200 seeded rows at every step for
    # n = 5 and 6 (all rows to n = 6 would be 233 280 check calls): check
    # returns the full sweep's least witness without running that sweep.
    rng = random.Random(56)
    rows = [(n, row) for n in range(2, 5) for row in itertools.product(range(1, n + 1), repeat=n)]
    rows += [(n, tuple(rng.randint(1, n) for _ in range(n))) for n in (5, 6) for _ in range(200)]
    tables = [table_from_sequence(KSequence(n, k, row)) for n, row in rows for k in range(1, n)]
    expected = [properties._least_witness("medial", table.grid) for table in tables]
    assert sum(w is not None for w in expected) > len(tables) / 2

    def no_sweep(name, m, stop=None):
        raise AssertionError("medial swept past its slab")

    monkeypatch.setattr(properties, "_least_witness", no_sweep)
    for table, witness in zip(tables, expected):
        assert check(table, "medial") == (witness is None, witness)


def count_cells(monkeypatch) -> list[int]:
    """Patch Identity.failures to add up the cells it evaluates."""
    cells = [0]
    failures = properties.Identity.failures

    def counting(self, tables, domains, product):
        cells[0] += len(tables) * math.prod(len(d) for d in domains if isinstance(d, range))
        return failures(self, tables, domains, product)

    monkeypatch.setattr(properties.Identity, "failures", counting)
    return cells


def test_slab_and_first_block_bound_the_order_66_work(monkeypatch):
    # Medial passes or fails on its slab alone; paramedial fails on its
    # slab, then the sweep stops after its first block, one slab of i.
    n = 66
    semigroup = table_from_sequence(cancellative_semigroups(n, 11)[0])
    rng = random.Random(66)
    noise = table_from_sequence(KSequence(n, 7, tuple(rng.randint(1, n) for _ in range(n))))
    cells = count_cells(monkeypatch)
    assert check(semigroup, "medial") == (True, None)
    assert cells[0] <= n ** 3
    cells[0] = 0
    ok, witness = check(noise, "medial")
    assert not ok and cells[0] <= n ** 3
    cells[0] = 0
    ok, witness = check(noise, "paramedial")
    assert not ok and cells[0] <= 2 * n ** 3


# -- translatability ----------------------------------------------------------


def brute_steps(table: CayleyTable) -> frozenset[int]:
    n, rows = table.n, table.rows
    return frozenset(
        k for k in range(1, n)
        if all(rows[i][j] == rows[(i + 1) % n][(j + k) % n] for i in range(n) for j in range(n))
    )


def translation_tables():
    rng = random.Random(5)
    yield CayleyTable(1, ((1,),))
    for cells in itertools.product((1, 2), repeat=4):
        yield CayleyTable(2, (cells[:2], cells[2:]))
    for n in range(3, 13):
        yield CayleyTable(n, ((1,) * n,) * n)
        yield random_table(rng, n)
        for k in range(1, n):
            table = table_from_sequence(KSequence(n, k, tuple(rng.randint(1, n) for _ in range(n))))
            yield table
            i, j = rng.randint(1, n), rng.randint(1, n)
            yield with_cell(table, i, j, table.rows[i - 1][j - 1] % n + 1)
            # Rows 1 and 2 still agree with step k, so only the check on the
            # whole grid can see this change.
            yield with_cell(table, n, j, table.rows[n - 1][j - 1] % n + 1)


def test_table_from_sequence_matches_product_tables():
    # Every first row to n = 5, every permutation row at n = 6.
    for n in range(2, 7):
        rows = batch.row_array(n, n == 6)
        for k in range(1, n):
            stack = batch.product_tables(rows, k)
            for row, expected in zip(rows, stack):
                table = table_from_sequence(KSequence(n, k, tuple((row + 1).tolist())))
                assert np.array_equal(table.grid, expected)


def periodic_tables(n: int):
    """Tables whose rows all repeat with some period d dividing n: the
    step-k table of a d-periodic first row (every row equal when k = 0),
    that table with one row swapped for another d-periodic row, and with
    one cell changed."""
    rng = random.Random(n)
    for d in (d for d in range(1, n + 1) if n % d == 0):
        for k in range(n):
            first = [rng.randint(1, n) for _ in range(d)] * (n // d)
            rows = [first[-k * i % n:] + first[:-k * i % n] for i in range(n)]
            yield CayleyTable(n, rows)
            i = rng.randrange(n)
            yield CayleyTable(n, rows[:i] + [[rng.randint(1, n) for _ in range(d)] * (n // d)] + rows[i + 1:])
            table = CayleyTable(n, rows)
            i, j = rng.randint(1, n), rng.randint(1, n)
            yield with_cell(table, i, j, table.rows[i - 1][j - 1] % n + 1)


def test_detect_matches_brute_force_on_periodic_tables():
    several = 0
    for n in range(1, 9):
        for table in periodic_tables(n):
            expected = brute_steps(table)
            assert detect(table) == expected
            several += len(expected) > 1
    assert several


def test_rotation_test_reads_every_block_of_rows():
    # At n = 300 the first block of rows holds 218 of them (about 2**16
    # cells), so only the second block sees a change in the last row.
    rng = random.Random(300)
    n = 300
    table = table_from_sequence(KSequence(n, 7, tuple(rng.randint(1, n) for _ in range(n))))
    changed = with_cell(table, n, 5, table.rows[n - 1][4] % n + 1)
    assert 7 in detect(table) and is_translatable(table, 7)
    assert detect(changed) == frozenset() and not is_translatable(changed, 7)


def test_detect_and_is_translatable_match_brute_force():
    found_some = perturbed_none = 0
    for table in translation_tables():
        expected = brute_steps(table)
        assert detect(table) == expected
        for k in range(-1, table.n + 1):
            assert is_translatable(table, k) == (k in expected)
        found_some += bool(expected)
        perturbed_none += not expected
    assert found_some and perturbed_none


# -- structure re-checks ------------------------------------------------------


def component_case():
    seq = cancellative_semigroups(6, 2)[0]
    table = table_from_sequence(seq)
    dec = decompose(table, seq)
    comp = dec.components[0]
    e = min(dec.idempotents)
    return table, comp, e, dec.generators[0]


def test_component_check_accepts_a_true_component():
    table, comp, e, gen = component_case()
    _verify_component_group(table.grid, comp, e, gen)


def test_component_check_rejects_an_escaping_product():
    table, comp, e, gen = component_case()
    grid = table.grid.copy()
    outside = min(set(range(1, table.n + 1)) - set(comp))
    grid[comp[1] - 1, comp[2] - 1] = outside - 1
    with pytest.raises(VerificationError, match=rf"not closed: {comp[1]}\*{comp[2]} escapes"):
        _verify_component_group(grid, comp, e, gen)


def test_component_check_rejects_a_non_associative_component():
    table, comp, e, gen = component_case()
    grid = table.grid.copy()
    x, a, b = comp[1], comp[1], comp[2]
    grid[x - 1, a - 1], grid[x - 1, b - 1] = grid[x - 1, b - 1], grid[x - 1, a - 1]
    with pytest.raises(VerificationError, match="not associative"):
        _verify_component_group(grid, comp, e, gen)


def test_component_check_rejects_wrong_neutral_generator_and_members():
    table, comp, e, gen = component_case()
    with pytest.raises(VerificationError, match="is not neutral"):
        _verify_component_group(table.grid, comp, gen, gen)
    with pytest.raises(VerificationError, match="does not generate"):
        _verify_component_group(table.grid, comp, e, e)
    outside = min(set(range(1, table.n + 1)) - set(comp))
    with pytest.raises(VerificationError, match="misses its idempotent"):
        _verify_component_group(table.grid, comp, outside, gen)


def test_iso_left_unitary_rejects_a_wrong_mapping(monkeypatch):
    n, k = 6, 2
    seq_q, seq_g = cancellative_semigroups(n, k)[:2]
    right = iso_left_unitary(seq_q, seq_g).mapping
    wrong = (right[1], right[0]) + right[2:]
    tq, tg = table_from_sequence(seq_q).rows, table_from_sequence(seq_g).rows
    first = next(
        (x, y)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if wrong[tq[x - 1][y - 1] - 1] != tg[wrong[x - 1] - 1][wrong[y - 1] - 1]
    )
    monkeypatch.setattr(Ordering, "compose", lambda self, other: Ordering(wrong))
    with pytest.raises(VerificationError, match=rf"fails on the product {first[0]}\*{first[1]}$"):
        iso_left_unitary(seq_q, seq_g)


# -- table validation ---------------------------------------------------------


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        (((1, 2, 9), (0, 1, 1), (1, 1, 1)), r"entry at \(1, 3\) is 9"),
        (((1, 1, 1), (1, 1, 1), (4, 0, 1)), r"entry at \(3, 1\) is 4"),
        (((1, 2, 3), (1, 4, 1), (1, 1)), r"entry at \(2, 2\) is 4"),
        (((1, 2, 3), (1, 1), (0, 1, 1)), r"row 2 has 2 entries"),
    ],
)
def test_table_names_the_first_bad_cell(rows, message):
    with pytest.raises(InvalidInputError, match=message):
        CayleyTable(3, rows)


def test_table_names_the_first_bad_cell_in_row_major_order():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 7)
        cells = [[rng.randint(1, n) for _ in range(n)] for _ in range(n)]
        for _ in range(rng.randint(1, 3)):
            cells[rng.randrange(n)][rng.randrange(n)] = rng.choice((0, -3, n + 1, n + 5))
        i, j = next((i, j) for i in range(n) for j in range(n) if not 1 <= cells[i][j] <= n)
        with pytest.raises(InvalidInputError, match=rf"entry at \({i + 1}, {j + 1}\) is {cells[i][j]},"):
            CayleyTable(n, tuple(map(tuple, cells)))


def test_grid_is_a_read_only_zero_based_copy():
    table = CayleyTable(2, ((1, 2), (2, 1)))
    assert table.grid.tolist() == [[0, 1], [1, 0]]
    assert table.grid.dtype == np.int16
    assert not table.grid.flags.writeable
    assert table == CayleyTable(2, ((1, 2), (2, 1)))


# -- verify worker clamp ------------------------------------------------------


@pytest.mark.parametrize(
    ("jobs", "instances", "cpus", "expected"),
    [
        (1, 10, 8, 1),
        (3, 10, 8, 3),
        (8, 10, 2, 2),
        (8, 3, 16, 3),
        (4, 0, 4, 1),
        (4, 10, None, 1),
        (4, 1, 4, 1),
    ],
)
def test_worker_count_never_exceeds_cpus_or_instances(jobs, instances, cpus, expected):
    assert _worker_count(jobs, instances, cpus) == expected


# -- row spaces and whole-space masks -----------------------------------------


@pytest.fixture
def fresh_memo():
    batch.clear_memo()
    yield
    batch.clear_memo()


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_rows_match_itertools(fresh_memo, n):
    rows = batch.row_array(n, True)
    assert rows.dtype == np.int8
    assert rows.tolist() == [list(p) for p in itertools.permutations(range(n))]


@pytest.mark.parametrize("n", range(1, 7))
def test_full_rows_match_itertools(fresh_memo, n):
    rows = batch.row_array(n, False)
    assert rows.dtype == np.int8
    assert rows.tolist() == [list(p) for p in itertools.product(range(n), repeat=n)]


def test_memoised_arrays_are_read_only_and_shared(fresh_memo):
    rows = batch.row_array(5, True)
    assert batch.row_array(5, True) is rows
    verdicts = batch.space_verdicts("associative", 5, 2, True)
    assert batch.space_verdicts("associative", 5, 2, True) is verdicts
    duals = batch.dual_step_verdicts(5, 2)
    assert sorted(duals) == [1, 2, 3, 4]
    for array in (rows, verdicts, *duals.values()):
        with pytest.raises(ValueError):
            array[0] = array[1]
    batch.clear_memo()
    assert batch.row_array(5, True) is not rows


def test_space_verdicts_match_the_mask_on_fresh_tables(fresh_memo):
    for n, k, perm in ((4, 1, False), (5, 3, True), (6, 2, True)):
        tables = batch.product_tables(batch.row_array(n, perm), k)
        for name in ("associative", "alterable"):
            expected = batch.MASKS[name](tables)
            assert (batch.space_verdicts(name, n, k, perm) == expected).all()
        duals = tables.transpose(0, 2, 1)
        if perm:
            for kstar, verdicts in batch.dual_step_verdicts(n, k).items():
                assert (verdicts == batch.translatable_mask(duals, kstar)).all()


def test_row_space_budget_refuses_before_allocating(fresh_memo, monkeypatch):
    def refuse(n):
        raise AssertionError(f"a refused row space at n = {n} was generated")

    monkeypatch.setattr(batch, "_permutations", refuse)
    monkeypatch.setattr(batch, "_all_rows", refuse)
    with pytest.raises(BoundError, match=r"permutation row space at n = 10 .* budget of 67108864"):
        batch.row_array(10, True)
    with pytest.raises(BoundError, match=r"full row space at n = 8 .* budget of 67108864"):
        batch.row_array(8, False)
    assert not batch._ROWS


def test_row_space_budget_admits_every_default_window(fresh_memo):
    assert batch.row_array(9, True).shape == (362880, 9)
    assert batch.row_array(7, False).shape == (823543, 7)


def rolled_translatable(tables: np.ndarray, k: int) -> np.ndarray:
    shifted = np.roll(np.roll(tables, -1, axis=1), -k, axis=2)
    return (tables == shifted).all(axis=(1, 2))


def test_translatable_mask_matches_the_rolled_definition():
    rng = np.random.default_rng(3)
    outcomes = set()
    for n in range(1, 9):
        rows = rng.integers(0, n, size=(12, n), dtype=np.int8)
        stacks = [batch.product_tables(rows, k) for k in range(1, max(n, 2))]
        stack = np.concatenate(stacks + [rng.integers(0, n, size=(6, n, n), dtype=np.int8)])
        stack[::5, rng.integers(n), rng.integers(n)] = rng.integers(n)
        for view in (stack, stack.transpose(0, 2, 1)):
            for k in range(-1, n + 2):
                got = batch.translatable_mask(view, k)
                assert (got == rolled_translatable(view, k)).all()
                outcomes.update(got.tolist())
    assert outcomes == {True, False}


def positional_alterable(rows: np.ndarray, n: int, k: int) -> np.ndarray:
    ok = np.ones(rows.shape[0], dtype=bool)
    for i, j, w in itertools.product(range(n), repeat=3):
        z = (j - k * i + k * w) % n
        ok &= rows[:, (w - k * j) % n] == rows[:, (i - k * z) % n]
    return ok


@pytest.mark.parametrize("n", range(2, 8))
def test_perm_alterable_mask_matches_the_cell_sweep(fresh_memo, n):
    rows = batch.row_array(n, True)
    for k in range(1, n):
        got = _perm_alterable_mask(rows, n, k)
        assert (got == batch.alterable_mask(batch.product_tables(rows, k))).all(), (n, k)


def test_perm_alterable_mask_matches_every_position_pair_on_any_row():
    rng = np.random.default_rng(8)
    outcomes = set()
    for n in range(1, 8):
        rows = np.concatenate([
            rng.integers(0, n, size=(40, n), dtype=np.int8),
            rng.integers(0, 2, size=(40, n), dtype=np.int8),
            np.zeros((1, n), dtype=np.int8),
        ])
        for k in range(0, n + 1):
            got = _perm_alterable_mask(rows, n, k)
            assert (got == positional_alterable(rows, n, k)).all(), (n, k)
            outcomes.update(got.tolist())
    assert outcomes == {True, False}


# -- sieved whole-stack masks -------------------------------------------------

# How many leading variables of each sieved identity make up one slab;
# check's least witness lists the variables in the same order.
SLAB_VARIABLES = {
    "associative": 1,
    "left-distributive": 1,
    "right-distributive": 1,
    "left-modular": 1,
    "right-modular": 1,
    "medial": 2,
    "paramedial": 2,
    "alterable": 2,
}


def stock_tables(n: int):
    """Tables that pass some identities: constant, both zero bands, the
    cyclic group, x*y = 2x - y, and translatable tables at every step."""
    rng = random.Random(n)
    e = range(n)

    def table(op):
        return CayleyTable(n, tuple(tuple(op(x, y) % n + 1 for y in e) for x in e))

    yield table(lambda x, y: 0)
    yield table(lambda x, y: x)
    yield table(lambda x, y: y)
    yield table(lambda x, y: x + y)
    yield table(lambda x, y: 2 * x - y)
    for k in range(1, n):
        yield table_from_sequence(left_unitary_groupoid(n, k))
        yield table_from_sequence(KSequence(n, k, tuple(rng.randint(1, n) for _ in e)))


def translatable_by_loop(table: CayleyTable, k: int) -> bool:
    n, rows = table.n, table.rows
    return all(rows[i][j] == rows[(i + 1) % n][(j + k) % n] for i in range(n) for j in range(n))


def mask_pool(n: int) -> list[CayleyTable]:
    """Random non-translatable tables, stock tables, and single-cell
    changes of translatable tables in their last row."""
    rng = random.Random(100 + n)
    pool = []
    while len(pool) < 12:
        candidate = random_table(rng, n, rng.choice((n, min(n, 2))))
        if n == 1 or not brute_steps(candidate):
            pool.append(candidate)
    for table in stock_tables(n):
        pool.append(table)
        if n > 1 and detect(table):
            j = rng.randint(1, n)
            pool.append(with_cell(table, n, j, table.rows[n - 1][j - 1] % n + 1))
    return pool


def stack_of(tables) -> np.ndarray:
    return np.array([table.grid for table in tables], dtype=np.int8)


@pytest.mark.parametrize("chunk", [3, batch.ROW_CHUNK])
@pytest.mark.parametrize("n", range(1, 7))
def test_every_mask_matches_check_and_the_rotation_loop(monkeypatch, n, chunk):
    monkeypatch.setattr(batch, "ROW_CHUNK", chunk)
    pool = mask_pool(n)
    stack = stack_of(pool)
    for name, mask in batch.MASKS.items():
        got = mask(stack)
        assert got.dtype == bool
        assert got.tolist() == [check(table, name)[0] for table in pool], name
    for k in range(0, n + 2):
        got = batch.translatable_mask(stack, k)
        assert got.tolist() == [translatable_by_loop(table, k) for table in pool], k


@pytest.mark.parametrize("n", range(1, 7))
def test_check_and_masks_match_brute_force_on_the_mask_pool(n):
    pool = mask_pool(n)
    stack = stack_of(pool)
    for name in ORACLE:
        verdicts = [assert_check_agrees(table, name) for table in pool]
        if name in batch.MASKS:
            assert batch.MASKS[name](stack).tolist() == verdicts, name


def test_mask_pool_has_both_outcomes_for_every_mask():
    seen = {name: set() for name in (*batch.MASKS, "translatable")}
    for n in range(2, 7):
        stack = stack_of(mask_pool(n))
        for name, mask in batch.MASKS.items():
            seen[name].update(mask(stack).tolist())
        for k in range(1, n):
            seen["translatable"].update(batch.translatable_mask(stack, k).tolist())
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


def single_cell_changes(n: int, name: str):
    """Every single-cell change of the stock tables that pass name, with
    check's verdict and the slab of its least witness (None on a pass)."""
    lead = SLAB_VARIABLES[name]
    for table in stock_tables(n):
        if not check(table, name)[0]:
            continue
        for i, j, value in itertools.product(range(1, n + 1), repeat=3):
            if value != table.rows[i - 1][j - 1]:
                changed = with_cell(table, i, j, value)
                ok, witness = check(changed, name)
                yield changed, ok, None if ok else witness.elements[:lead]


@pytest.mark.parametrize("name", sorted(SLAB_VARIABLES))
def test_sieved_masks_match_check_on_single_cell_changes(monkeypatch, name):
    # A change failing only in the last slab exists for the three identities
    # below.  The others fail in mirrored pairs of tuples (swap i and z in the
    # modular laws, j and w in medial, i and z in paramedial, (i, j) and
    # (w, z) in alterable), and the mirror of a last-slab failure lies in an
    # earlier slab or is trivially true; for them the test asks for first
    # failures past the first slab, which the sieve reaches only by
    # carrying the survivors of earlier slabs.
    monkeypatch.setattr(batch, "ROW_CHUNK", 4)
    lead = SLAB_VARIABLES[name]
    for n in range(2, 6):
        cases = list(single_cell_changes(n, name))
        got = batch.MASKS[name](stack_of([table for table, _, _ in cases]))
        assert got.tolist() == [ok for _, ok, _ in cases], (name, n)
        assert all(assert_check_agrees(table, name) == ok for table, ok, _ in cases)
        if n > 2:
            slabs = {slab for _, _, slab in cases if slab is not None}
            if name in ("associative", "left-distributive", "right-distributive"):
                assert (n,) * lead in slabs, (name, n)
            assert max(slabs) > (1,) * lead, (name, n)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_masks_take_an_empty_stack(n):
    empty = np.zeros((0, n, n), dtype=np.int8)
    for mask in (*batch.MASKS.values(), lambda tables: batch.translatable_mask(tables, 1)):
        got = mask(empty)
        assert got.shape == (0,) and got.dtype == bool


def literal_eas(rows: np.ndarray, n: int, k: int):
    """The sequence forms over the whole (x, y, z) cube at once, one row
    per table, exactly as first written: the reference for _eas_masks."""
    x = np.arange(1, n + 1).reshape(n, 1, 1)
    y = np.arange(1, n + 1).reshape(1, n, 1)
    z = np.arange(1, n + 1).reshape(1, 1, n)
    values = rows.astype(np.int32) + 1
    b = values.shape[0]
    inner_xy = values[:, ((k - k * x + y - 1) % n).reshape(-1)].reshape(b, n, n, 1)
    inner_yz = values[:, ((k - k * y + z - 1) % n).reshape(-1)].reshape(b, 1, n, n)
    lhs_idx = ((k - k * inner_xy + z - 1) % n).reshape(b, -1)
    rhs_idx = ((k - k * x + inner_yz - 1) % n).reshape(b, -1)
    lhs = np.take_along_axis(values, lhs_idx, axis=1)
    rhs = np.take_along_axis(values, rhs_idx, axis=1)
    left = (z - k * inner_xy - 1) % n
    right = (inner_yz - k * x - 1) % n
    return (lhs == rhs).all(axis=1), (left == right).all(axis=(1, 2, 3))


@pytest.mark.parametrize("n", range(1, 6))
def test_eas_masks_match_the_literal_formula(fresh_memo, monkeypatch, n):
    monkeypatch.setattr(batch, "ROW_CHUNK", 97)
    rows = batch.row_array(n, False)
    perm = np.flatnonzero((np.sort(rows, axis=1) == np.arange(n)).all(axis=1))
    assert perm.size == math.factorial(n)
    outcomes = set()
    for k in range(0, n + 1):
        eas, ee1 = _eas_masks(rows, n, k, perm)
        want_eas, want_ee1 = literal_eas(rows, n, k)
        assert (eas == want_eas).all(), k
        assert (ee1 == want_ee1[perm]).all(), k
        outcomes.update(eas.tolist())
    assert outcomes == ({True} if n == 1 else {True, False})


def sorted_distinct(stack: np.ndarray, axis: int) -> np.ndarray:
    n = stack.shape[axis]
    return (np.sort(stack, axis=axis) == np.arange(n).reshape((n,) + (1,) * (stack.ndim - 1 - axis))).all(axis=axis)


@pytest.mark.parametrize("n", range(1, 6))
def test_distinct_matches_the_sort_test_on_every_row(fresh_memo, monkeypatch, n):
    monkeypatch.setattr(batch, "ROW_CHUNK", 97)
    rows = batch.row_array(n, False)
    assert (batch._distinct(rows, 1) == sorted_distinct(rows, 1)).all()
    assert batch._distinct(rows, 1).sum() == math.factorial(n)
    for k in range(n):
        tables = batch.product_tables(rows, k)
        for axis in (1, 2):
            assert (batch._distinct(tables, axis) == sorted_distinct(tables, axis)).all(), (k, axis)


@pytest.mark.parametrize("n", [9, 15, 16, 40, 63, 64, 70])
def test_distinct_matches_the_sort_test_across_the_dtype_switches(monkeypatch, n):
    monkeypatch.setattr(batch, "ROW_CHUNK", 7)
    rng = np.random.default_rng(n)
    stack = rng.integers(0, n, (30, n, n)).astype(np.int8)
    latin = np.array([[rng.permutation(n) for _ in range(n)] for _ in range(10)], dtype=np.int8)
    stack[:10] = latin  # every row holds n distinct values
    stack[10:20] = latin.transpose(0, 2, 1)  # every column does
    stack[0, 3, 0] = stack[0, 3, 1]  # but one row of the first table repeats a value
    for axis in (1, 2):
        got = batch._distinct(stack, axis)
        assert (got == sorted_distinct(stack, axis)).all(), axis
        assert got.any() and not got.all(), axis
    rows = stack[:, 0, :]
    assert (batch._distinct(rows, 1) == sorted_distinct(rows, 1)).all()
