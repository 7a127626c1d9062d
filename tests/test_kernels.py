"""The numpy cell sweeps against independent brute-force loops.

Every oracle here is a plain nested loop over 1-based cells written in this
file, so a kernel that gathers the wrong axis or picks the wrong first
counterexample disagrees with it.  Witnesses must match exactly: the
kernels promise the lexicographically least counterexample.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import multiprocessing
import random
import re
import tracemalloc

import numpy as np
import pytest

from translatable import batch, properties, search, translation
from translatable.campaigns import THEOREMS, _eas_masks, _perm_alterable_mask
from translatable.cli import main
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
    PreconditionError,
    TranslatableError,
    VerificationError,
    Witness,
)
from translatable.properties import check
from translatable.search import SequenceFilter, enumerate_sequences, verify
from translatable.structure import _verify_component_group, decompose, iso_left_unitary
from translatable.translation import _rotation_holds, detect, is_translatable, table_from_sequence


def random_table(rng: random.Random, n: int, values: int | None = None) -> CayleyTable:
    top = values or n
    return CayleyTable(n, tuple(tuple(rng.randint(1, top) for _ in range(n)) for _ in range(n)))


def with_cell(table: CayleyTable, i: int, j: int, value: int) -> CayleyTable:
    rows = (table.grid + 1).tolist()
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
    rows = (table.grid + 1).tolist()

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
    value = rng.choice([v for v in range(1, n + 1) if v != base.entry(i, j)])
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


def test_a_witness_is_never_taken_from_a_cell_where_the_identity_holds():
    m = table_from_sequence(cancellative_semigroups(6, 2)[0]).grid
    with pytest.raises(VerificationError, match="associative holds at the cell"):
        properties._witness("associative", m, (0, 1, 2))


def test_associative_single_cell_perturbations():
    rng = random.Random(7)
    for n, k in ((6, 2), (12, 3), (20, 4)):
        base = table_from_sequence(cancellative_semigroups(n, k)[0])
        for _ in range(25):
            assert_associative_agrees(random_cell_change(rng, base))


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_a_slab_read_in_row_blocks_keeps_the_least_witness(monkeypatch, rows):
    # A slab is compared _SCAN_CELLS // n rows of x at a time.  Cut into
    # blocks of one, two or three rows, verdicts and least witnesses are
    # still those of brute force, wherever the first bad cell falls.  In a
    # left-zero band with cell (i, j) changed, x = i is the least failing x.
    rng = random.Random(rows)
    tables = [random_table(rng, n, values) for n in range(1, 13) for values in (n, min(n, 2))]
    tables += perturbed_first_rows(6)
    for n in range(2, 11):
        left_zero = next(bands(n))
        tables += [left_zero] + [random_cell_change(rng, left_zero) for _ in range(2 * n)]
    late = 0
    for table in tables:
        monkeypatch.setattr(translation, "_SCAN_CELLS", rows * table.n)
        elements = assert_associative_agrees(table)
        late += elements is not None and elements[0] > rows
    assert late > 0


def test_of_grid_takes_a_fresh_grid_as_the_table():
    grid = np.array([[1, 0], [0, 1]], dtype=np.int16)
    table = CayleyTable._of_grid(grid)
    assert table.grid is grid and not grid.flags.writeable
    assert table == CayleyTable(2, [[2, 1], [1, 2]])
    wide = CayleyTable._of_grid(np.array([[1, 0], [0, 1]], dtype=np.int64))
    assert wide.grid.dtype == np.int16 and wide == table
    for bad in ([[0, 2], [1, 0]], [[-1, 0], [0, 1]], [[0, 1]], [[0.0, 1.0], [1.0, 0.0]]):
        with pytest.raises(VerificationError):
            CayleyTable._of_grid(np.array(bad))


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

    def spy(m, y):
        seen.append(y)
        return slab(m, y)

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
    have, members, columns, gens = [False] * table.n, [], [], []
    for y in order:
        if not have[y]:
            gens.append(y)
            properties._add_generator(table.grid, have, members, columns, y)
        assert columns == [table.grid[:, g].tolist() for g in gens]
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


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_first_failure_takes_each_variable_from_its_domain(name):
    # _first_failure, the one evaluation of an identity on one table, over
    # any range or fixed value per variable: the least failing cell there,
    # every variable in place, as the oracle loop over those domains finds.
    rng = random.Random(32)
    arity, sides = ORACLE[name]
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 6)
        table = random_table(rng, n, rng.choice((2, n)))
        rows = (table.grid + 1).tolist()
        domains = []
        for _ in range(arity):
            start = rng.randrange(n)
            domains.append(start if rng.random() < 0.3 else range(start, rng.randint(start + 1, n)))
        cells = itertools.product(*([d] if isinstance(d, int) else d for d in domains))
        want = next((cell for cell in cells if len(set(
            sides(lambda a, b: rows[a - 1][b - 1], *(v + 1 for v in cell)))) > 1), None)
        assert properties._first_failure(properties.IDENTITIES[name], table.grid, domains) == want, domains
        outcomes.add(want is None)
    assert outcomes == {True, False}


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
            for start in range(0, rows.shape[0], translation.ROW_CHUNK):
                stack = batch.product_tables(rows[start:start + translation.ROW_CHUNK], k)
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
    # Every step at n = 12..15 (below 12 check sweeps the whole grid and
    # takes no slab), each with two seeded rows and one affine row
    # c*j + e, whose table is medial: check returns the full sweep's least
    # witness, or passes, evaluating no more than the n**3 cells of its
    # slab.  The full sweep's first block there is the whole n**4 grid.
    rng = random.Random(56)
    rows = []
    for n in range(12, 16):
        for k in range(1, n):
            rows += [(n, k, tuple(rng.randint(1, n) for _ in range(n))) for _ in range(2)]
            c, e = rng.randrange(n), rng.randrange(n)
            rows.append((n, k, tuple((c * j + e) % n + 1 for j in range(n))))
    tables = [table_from_sequence(KSequence(n, k, row)) for n, k, row in rows]
    expected = [properties._least_witness("medial", table.grid) for table in tables]
    assert sum(w is not None for w in expected) > len(tables) / 2
    assert any(w is None for w in expected)
    cells = count_cells(monkeypatch)
    for table, witness in zip(tables, expected):
        cells[0] = 0
        assert check(table, "medial") == (witness is None, witness)
        assert 0 < cells[0] <= table.n ** 3, (table.n, cells[0])


def test_orders_to_11_sweep_medial_and_paramedial_without_detect(monkeypatch):
    # There one sweep of the whole grid is cheaper than detect and a slab;
    # from order 12 on translatable tables take the slab again.
    rng = random.Random(11)
    tables = {
        n: [table_from_sequence(KSequence(n, rng.randrange(1, n), tuple(rng.randint(1, n) for _ in range(n))))
            for _ in range(20)]
        for n in (2, 5, 11, 12)
    }
    tables[11].append(table_from_sequence(KSequence(11, 10, tuple(range(1, 12)))))
    expected = {
        (n, name): [properties._least_witness(name, t.grid) for t in tables[n]]
        for n in tables for name in properties._SLAB_AXES
    }
    assert any(w is None for w in expected[11, "medial"]) and any(expected[11, "medial"])
    calls = []

    def spy(table):
        calls.append(table.n)
        return detect(table)

    monkeypatch.setattr(properties, "detect", spy)
    for (n, name), witnesses in expected.items():
        assert [check(t, name) for t in tables[n]] == [(w is None, w) for w in witnesses], (n, name)
    assert set(calls) == {12}


def test_failing_medial_takes_its_witness_from_the_slab_past_order_11(monkeypatch):
    # As test_failing_medial_takes_its_witness_from_the_slab, at orders
    # where the slab is used.
    rng = random.Random(12)
    tables = [
        table_from_sequence(KSequence(n, rng.randrange(1, n), tuple(rng.randint(1, n) for _ in range(n))))
        for n in (12, 16, 20) for _ in range(15)
    ]
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


# -- the other properties -----------------------------------------------------


# The properties of properties._CHECKERS that are not in IDENTITIES, each a
# plain loop over 1-based rows (rows[i - 1][j - 1] = i*j) that scans lines
# and cells in the order the checker promises, giving (verdict, Witness).


def first_duplicate(values):
    seen = {}
    for pos, v in enumerate(values, start=1):
        if v in seen:
            return seen[v], pos
        seen[v] = pos
    return None


def brute_cancellative(lines, name):
    for i, line in enumerate(lines, start=1):
        dup = first_duplicate(line)
        if dup is not None:
            j1, j2 = dup
            return False, Witness(name, (i, j1, j2), j1, j2)
    return True, None


def brute_solvable(lines, name):
    n = len(lines)
    for a, line in enumerate(lines, start=1):
        if len(set(line)) != n:
            b = min(set(range(1, n + 1)) - set(line))
            return False, Witness(name, (a, b), line[0], b)
    return True, None


def brute_quasigroup(rows, cols):
    ok, witness = brute_solvable(rows, "quasigroup")
    return brute_solvable(cols, "quasigroup") if ok else (ok, witness)


def brute_unitary(rows, name):
    n = len(rows)
    lefts = [e for e in range(1, n + 1) if rows[e - 1] == list(range(1, n + 1))]
    for e in lefts:
        if name == "left-unitary" or all(rows[x - 1][e - 1] == x for x in range(1, n + 1)):
            return True, None
    if not lefts:
        row = rows[0]
        x = next(x for x in range(1, n + 1) if row[x - 1] != x)
        return False, Witness(name, (1, x), row[x - 1], x)
    e = lefts[0]
    x = next(x for x in range(1, n + 1) if rows[x - 1][e - 1] != x)
    return False, Witness(name, (e, x), rows[x - 1][e - 1], x)


def brute_anticommutative(rows):
    n = len(rows)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rows[i - 1][j - 1] == rows[j - 1][i - 1]:
                return False, Witness("anticommutative", (i, j), i, j)
    return True, None


def brute_left_regular(rows):
    n = len(rows)
    for j in range(1, n + 1):
        jj = rows[j - 1][j - 1]
        if all(rows[x - 1][jj - 1] != j for x in range(1, n + 1)):
            return False, Witness("left-regular", (j,), rows[0][jj - 1], j)
    return True, None


def brute_right_regular(rows):
    n = len(rows)
    for j in range(1, n + 1):
        jj = rows[j - 1][j - 1]
        if all(rows[jj - 1][y - 1] != j for y in range(1, n + 1)):
            return False, Witness("right-regular", (j,), rows[jj - 1][0], j)
    return True, None


def brute_regular(rows, name="regular"):
    n = len(rows)
    for i in range(1, n + 1):
        if all(rows[rows[i - 1][x - 1] - 1][i - 1] != i for x in range(1, n + 1)):
            return False, Witness(name, (i,), rows[rows[i - 1][0] - 1][i - 1], i)
    return True, None


def brute_intra_regular(rows):
    n = len(rows)
    for i in range(1, n + 1):
        heads = {rows[rows[x - 1][i - 1] - 1][i - 1] for x in range(1, n + 1)}
        if all(rows[h - 1][y - 1] != i for h in heads for y in range(1, n + 1)):
            h0 = rows[rows[0][i - 1] - 1][i - 1]
            return False, Witness("intra-regular", (i,), rows[h0 - 1][0], i)
    return True, None


def brute_orthodox(rows):
    ok, witness = brute_regular(rows, "orthodox")
    if not ok:
        return ok, witness
    ids = [i for i in range(1, len(rows) + 1) if rows[i - 1][i - 1] == i]
    for e in ids:
        for f in ids:
            ef = rows[e - 1][f - 1]
            sq = rows[ef - 1][ef - 1]
            if sq != ef:
                return False, Witness("orthodox", (e, f), sq, ef)
    return True, None


def brute_clifford_right(rows):
    n = len(rows)
    for i in range(1, n + 1):
        right = set(rows[i - 1])
        for j in range(1, n + 1):
            ji = rows[j - 1][i - 1]
            if ji not in right:
                return False, Witness("clifford-right", (i, j), ji, rows[i - 1][0])
    return True, None


def brute_clifford_left(rows):
    n = len(rows)
    for i in range(1, n + 1):
        left = {rows[x - 1][i - 1] for x in range(1, n + 1)}
        for j in range(1, n + 1):
            ij = rows[i - 1][j - 1]
            if ij not in left:
                return False, Witness("clifford-left", (i, j), ij, rows[0][i - 1])
    return True, None


# name -> oracle of (rows, columns), both lists of 1-based lines.
BRUTE = {
    "left-cancellative": lambda rows, cols: brute_cancellative(rows, "left-cancellative"),
    "right-cancellative": lambda rows, cols: brute_cancellative(cols, "right-cancellative"),
    "right-solvable": lambda rows, cols: brute_solvable(rows, "right-solvable"),
    "left-solvable": lambda rows, cols: brute_solvable(cols, "left-solvable"),
    "quasigroup": brute_quasigroup,
    "left-unitary": lambda rows, cols: brute_unitary(rows, "left-unitary"),
    "unitary": lambda rows, cols: brute_unitary(rows, "unitary"),
    "anticommutative": lambda rows, cols: brute_anticommutative(rows),
    "left-regular": lambda rows, cols: brute_left_regular(rows),
    "right-regular": lambda rows, cols: brute_right_regular(rows),
    "regular": lambda rows, cols: brute_regular(rows),
    "intra-regular": lambda rows, cols: brute_intra_regular(rows),
    "orthodox": lambda rows, cols: brute_orthodox(rows),
    "clifford-left": lambda rows, cols: brute_clifford_left(rows),
    "clifford-right": lambda rows, cols: brute_clifford_right(rows),
}


def brute_property(table: CayleyTable, name: str):
    rows = (table.grid + 1).tolist()
    return BRUTE[name](rows, [list(col) for col in zip(*rows)])


def property_pool():
    """Random tables up to order 8 and at order 70, translatable tables of
    permutation and of arbitrary first rows, every cancellative semigroup up
    to order 24, bands, constant tables, semilattices and cyclic groups."""
    rng = random.Random(15)
    for n in range(1, 9):
        for values in (n, min(n, 2), min(n, 3)):
            for _ in range(20):
                yield random_table(rng, n, values)
        for k in range(1, n):
            for _ in range(3):
                yield table_from_sequence(KSequence(n, k, tuple(rng.sample(range(1, n + 1), n))))
                yield table_from_sequence(KSequence(n, k, tuple(rng.randint(1, n) for _ in range(n))))
    for n in range(2, 25):
        for k in range(1, n):
            for seq in cancellative_semigroups(n, k):
                yield table_from_sequence(seq)
    for n in (1, 2, 5, 9):
        yield from bands(n)
        yield from semilattices_and_cyclic_groups(n)
    # Past order 63 properties._distinct sorts instead of or-ing bits.
    yield random_table(rng, 70, 3)
    yield table_from_sequence(KSequence(70, 9, tuple(rng.sample(range(1, 71), 70))))


def test_brute_oracles_cover_every_other_property():
    assert set(BRUTE) == set(properties.PROPERTY_NAMES) - set(properties.IDENTITIES)


@pytest.mark.parametrize("name", sorted(BRUTE))
def test_other_properties_match_the_loop_oracles(name):
    # Each checker is called directly, so the semigroup-only ones also run
    # on the tables that are not associative.
    verdicts = set()
    for table in property_pool():
        got = properties._CHECKERS[name](table)
        assert got == brute_property(table, name), (name, table.grid.tolist())
        verdicts.add(got[0])
    assert verdicts == {True, False}, name


# -- enumeration ---------------------------------------------------------------


def brute_enumerate(n: int, k: int, filt: SequenceFilter):
    """The per-row loop: every first row in lexicographic order, its table
    built and each filter property checked on it; a semigroup-only property
    does not hold on a table that is not associative."""

    def holds(table, name):
        try:
            return check(table, name)[0]
        except PreconditionError:
            return False

    if filt.permutation_only:
        rows = itertools.permutations(range(1, n + 1))
    else:
        rows = itertools.product(range(1, n + 1), repeat=n)
    for row in rows:
        seq = KSequence(n, k, row)
        table = table_from_sequence(seq)
        if all(holds(table, name) for name in filt.required) and not any(
            holds(table, name) for name in filt.forbidden
        ):
            yield seq


def outcome(found):
    """The list a row enumeration yields, or the type and text of its refusal."""
    try:
        return list(found)
    except TranslatableError as exc:
        return type(exc), str(exc)


# Masked, semigroup-only and unmasked properties, required and forbidden,
# alone and mixed, and no filter at all.
ENUMERATION_FILTERS = [
    ((), ()),
    (("medial",), ()),
    (("left-regular",), ()),
    (("orthodox",), ("idempotent",)),
    (("anticommutative",), ()),
    ((), ("associative",)),
    ((), ("left-regular", "anticommutative")),
    (("right-solvable", "clifford-left"), ()),
    (("clifford-left",), ("unitary",)),
    (("left-unitary", "intra-regular"), ("idempotent",)),
]


@pytest.mark.parametrize("permutation_only", [False, True])
def test_enumerate_matches_the_per_row_loop(permutation_only):
    # Every order to 4 at every step, the invalid steps 0 and n included.
    # Over all rows every filter keeps some row.
    kept = set()
    for n in range(1, 5):
        for k in range(0, n + 1):
            for required, forbidden in ENUMERATION_FILTERS:
                filt = SequenceFilter(permutation_only, required, forbidden)
                want = outcome(brute_enumerate(n, k, filt))
                assert outcome(enumerate_sequences(n, k, filt)) == want, (n, k, filt)
                if isinstance(want, list) and want:
                    kept.add((required, forbidden))
    if not permutation_only:
        assert kept == set(ENUMERATION_FILTERS)


# -- translatability ----------------------------------------------------------


def brute_steps(table: CayleyTable) -> frozenset[int]:
    n, rows = table.n, table.grid.tolist()
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
            yield with_cell(table, i, j, table.entry(i, j) % n + 1)
            # Rows 1 and 2 still agree with step k, so only the check on the
            # whole grid can see this change.
            yield with_cell(table, n, j, table.entry(n, j) % n + 1)


@pytest.mark.parametrize("n", range(1, 10))
def test_product_tables_read_the_first_row_at_j_minus_k_i(n):
    # Cell (i, j) of table b is rows[b, (j - k*i) mod n], at step 0, every
    # step and one above n, for no row, one row, a strided and a reversed
    # view of a row stack, in two dtypes; the batch axis stays innermost.
    stack = np.random.default_rng(n).integers(0, n, size=(46, n))
    for dtype in (np.int8, np.int16):
        whole = stack.astype(dtype)
        for rows in (whole[:0], whole[:1], whole[::2], whole[:, ::-1]):
            for k in (0, *range(1, n), n + 2):
                tables = batch.product_tables(rows, k)
                assert tables.shape == (len(rows), n, n) and tables.dtype == dtype
                assert tables.transpose(1, 2, 0).flags.c_contiguous
                expected = [[[row[(j - k * i) % n] for j in range(n)] for i in range(n)] for row in rows.tolist()]
                assert tables.tolist() == expected, (n, k)


@pytest.mark.parametrize("let_through", [None, 2, 1], ids=["first-cell", "every-other-table", "every-table"])
def test_step_verdicts_match_the_mask_at_every_step(fresh_memo, monkeypatch, let_through):
    # On permutation rows a step's first cell T[0][0] = T[1][k*] holds on
    # every table or on none, and only the steps where it holds on some
    # table reach the row pairs.  Widened to let every other table through,
    # or every table, it sends every step to the row pairs, which decide
    # alone; the verdicts stay the same, one np.bool_ a step.
    expected = {}
    for n in range(2, 8):
        rows = batch.row_array(n, True)
        for k in range(1, n):
            tables = batch.product_tables(rows, k)
            for transposed, stack in ((False, tables), (True, tables.transpose(0, 2, 1))):
                expected[n, k, transposed] = [batch.translatable_mask(stack, kstar) for kstar in range(1, n)]
    real_first, real_rows = translation._first_cell_holds, translation._rotation_holds
    called = []

    def counted(chunk, rows, k):
        called.append(int(k))
        return real_rows(chunk, rows, k)

    def widened(tables, steps):
        return real_first(tables, steps) | (np.arange(len(tables)) % let_through == 0)

    if let_through:
        monkeypatch.setattr(translation, "_first_cell_holds", widened)
    monkeypatch.setattr(translation, "_rotation_holds", counted)
    for (n, k, transposed), masks in expected.items():
        called.clear()
        steps = batch.step_verdicts(n, k, transposed)
        assert sorted(steps) == list(range(1, n))
        for kstar, mask in enumerate(masks, start=1):
            assert type(steps[kstar]) is np.bool_ and (steps[kstar] == mask).all(), (n, k, transposed, kstar)
        if not let_through:
            assert set(called) == {kstar for kstar, mask in enumerate(masks, start=1) if mask.any()}
        else:
            assert set(called) == set(range(1, n))


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
            yield with_cell(table, i, j, table.entry(i, j) % n + 1)


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
    changed = with_cell(table, n, 5, table.entry(n, 5) % n + 1)
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


def test_component_check_names_the_first_non_associative_triple():
    # Every swap of two cells inside a row of a component: the message names
    # the row-major least failing (x, y, z) of comp, found by a loop.
    seq = cancellative_semigroups(12, 3)[0]
    table = table_from_sequence(seq)
    dec = decompose(table, seq)
    comp, e, gen = dec.components[0], min(dec.idempotents), dec.generators[0]
    cases = 0
    for x, a, b in itertools.product(comp, comp, comp):
        if a >= b:
            continue
        grid = table.grid.copy()
        grid[x - 1, a - 1], grid[x - 1, b - 1] = grid[x - 1, b - 1], grid[x - 1, a - 1]
        rows = grid.tolist()
        first = next(
            ((p, q, r) for p, q, r in itertools.product(comp, repeat=3)
             if rows[rows[p - 1][q - 1]][r - 1] != rows[p - 1][rows[q - 1][r - 1]]),
            None,
        )
        if first is None:
            continue
        cases += 1
        want = re.escape(f"component {comp} is not associative at ({first[0]},{first[1]},{first[2]})")
        with pytest.raises(VerificationError, match=want):
            _verify_component_group(grid, comp, e, gen)
    assert cases > 0


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
    tq, tg = ((table_from_sequence(seq).grid + 1).tolist() for seq in (seq_q, seq_g))
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


# -- verify worker pool -------------------------------------------------------


def usable_cpus(monkeypatch, cpus: int | None) -> None:
    """Give this process `cpus` CPUs to run on; None stands for a platform
    with no affinity mask whose CPU count is unknown."""
    if cpus is None:
        monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize(
    ("jobs", "cpus", "workers"),
    [(2, 2, 2), (4, 2, 2), (3, 8, 3), (2, 1, None), (2, None, None)],
)
def test_one_worker_pool_serves_every_campaign_of_a_verify_command(monkeypatch, capsys, jobs, cpus, workers):
    # Three campaigns under --jobs start one pool between them, of no more
    # workers than CPUs, or none when that leaves one, and write the serial
    # bytes.  The command takes its pool down whether it passes or is
    # refused inside a worker: no child process is left, and stderr holds
    # only the summary line or the refusal line.
    started = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    usable_cpus(monkeypatch, cpus)
    argv = ["verify", "--theorem", "scaled-residues", "--theorem", "alterable-cancellative-step",
            "--theorem", "idempotent-quasigroup"]
    assert main([*argv, "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main([*argv, "--jobs", str(jobs)]) == 0
    out, err = capsys.readouterr()
    assert out == serial
    assert started == ([workers] if workers else [])
    assert multiprocessing.active_children() == []
    assert re.fullmatch(r"3 campaign\(s\), 0 failing, \d+\.\ds\n", err)
    # pair-union writes its lines up to order 1024, then an instance past
    # that bound is refused, in a worker when there is a pool.
    assert main(["verify", "--theorem", "pair-union", "--max-n", "3000", "--jobs", str(jobs)]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 22
    assert started == ([workers] * 2 if workers else [])
    assert multiprocessing.active_children() == []
    assert err == "translatable: order 1200 exceeds the bound 1024\n"


def test_verify_keeps_at_most_two_instances_per_worker_in_flight(monkeypatch, capsys):
    # Each submission sees how many earlier ones have not finished.  A result
    # the parent has taken is finished, so this counts what the parent holds.
    futures, in_flight = [], []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            in_flight.append(1 + sum(not future.done() for future in futures))
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    usable_cpus(monkeypatch, 2)
    argv = ["verify", "--theorem", "scaled-residues", "--max-n", "60"]
    assert main([*argv, "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert len(in_flight) == 354
    assert max(in_flight) <= 2 * 2
    assert main([*argv, "--jobs", "1"]) == 0
    assert capsys.readouterr().out == parallel


def test_a_library_verify_call_ends_the_pool_it_started(monkeypatch):
    usable_cpus(monkeypatch, 2)
    serial = verify("dual-step", max_n=6)
    parallel = verify("dual-step", max_n=6, jobs=3)
    assert multiprocessing.active_children() == []
    assert parallel.results == serial.results
    # Inside a scope its pool serves every call, and ends with the scope.
    with search.workers(3):
        verify("dual-step", max_n=6, jobs=3)
        assert multiprocessing.active_children()
        assert verify("dual-step", max_n=6, jobs=3).results == serial.results
    assert multiprocessing.active_children() == []


# -- row spaces and whole-space masks -----------------------------------------


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
    for array in (rows, verdicts):
        with pytest.raises(ValueError):
            array[0] = array[1]
    # Every step is uniform on permutation rows: an immutable np.bool_ each.
    duals = batch.step_verdicts(5, 2, True)
    assert sorted(duals) == [1, 2, 3, 4]
    assert all(type(step) is np.bool_ for step in duals.values())
    assert all(batch.step_verdicts(5, 2, True)[kstar] is step for kstar, step in duals.items())
    batch.clear_memo()
    assert batch.row_array(5, True) is not rows


def _prime_above(m: int) -> int:
    p = m + 1
    while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


def test_space_verdicts_match_the_mask_on_fresh_tables(fresh_memo, monkeypatch):
    # Whole-space sweeps go in row blocks; here a block is a prime number of
    # rows above n, so it never divides the space and the last block is short.
    perm_spaces = [(n, k, True) for n in range(2, 8) for k in range(1, n)]
    for n, k, perm in [(4, 1, False), (5, 3, False)] + perm_spaces + [(8, 3, True), (8, 7, True)]:
        rows = batch.row_array(n, perm)
        size = _prime_above(max(n, len(rows) // 7))
        monkeypatch.setattr(batch, "_BLOCK_CELLS", size * n * n)
        sizes = [len(block) for block in batch._row_blocks(rows)]
        assert sizes == [size] * (len(rows) // size) + [len(rows) % size]
        tables = batch.product_tables(rows, k)
        for name in ("associative", "alterable"):
            expected = batch.MASKS[name](tables)
            assert (batch.space_verdicts(name, n, k, perm) == expected).all()
        if perm:
            for transposed, stack in ((False, tables), (True, tables.transpose(0, 2, 1))):
                steps = batch.step_verdicts(n, k, transposed)
                assert sorted(steps) == list(range(1, n))
                for kstar, verdicts in steps.items():
                    assert (verdicts == batch.translatable_mask(stack, kstar)).all()


def test_neutral_masks_agree_with_check_table_by_table(fresh_memo):
    # Every translatable table of order 3, including groups, semigroups with
    # several left neutrals and tables with none.
    rows = batch.row_array(3, False)
    tables = np.concatenate([batch.product_tables(rows, k) for k in (1, 2)])
    for mask, name in ((batch.left_neutral_mask, "left-unitary"), (batch.unitary_mask, "unitary")):
        expected = [check(CayleyTable(3, (grid + 1).tolist()), name)[0] for grid in tables]
        assert mask(tables).tolist() == expected
        assert any(expected) and not all(expected)


def test_anticommutative_mask_agrees_with_check_table_by_table(fresh_memo):
    # Every translatable table of orders 3 and 4, some anticommutative.
    for n in (3, 4):
        rows = batch.row_array(n, False)
        tables = np.concatenate([batch.product_tables(rows, k) for k in range(1, n)])
        expected = [check(CayleyTable(n, (grid + 1).tolist()), "anticommutative")[0] for grid in tables]
        assert batch.MASKS["anticommutative"](tables).tolist() == expected
        assert any(expected) and not all(expected)


def test_enumerate_decides_anticommutative_on_the_stack(fresh_memo, monkeypatch):
    # 46,656 tables at (6, 5), none anticommutative, and not one `check`.
    def refuse(table, name):
        raise AssertionError(f"check was called for {name}")

    monkeypatch.setattr(search, "check", refuse)
    assert list(enumerate_sequences(6, 5, SequenceFilter(required=("anticommutative",)))) == []


def test_dual_verdicts_at_order_nine_stay_small(fresh_memo):
    # A whole-space dual sweep generates the 9! permutation rows one block at
    # a time and holds one block of tables at a time.  On permutation rows
    # every step is uniform, so the memo keeps one np.bool_ a step; what stays
    # held is the memoised permutations of 8 values (315 KiB), the tail of
    # every block.  Measured: 1.76 MiB peak and 0.35 MiB held.
    tracemalloc.start()
    try:
        batch.step_verdicts(9, 2, True)
        _, peak = tracemalloc.get_traced_memory()
        for k in range(1, 9):
            batch.step_verdicts(9, k, True)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 2**20
    assert held < 0.5 * 2**20
    assert all(type(step) is np.bool_ for k in range(1, 9) for step in batch._VERDICTS[("steps", 9, k, True)])
    assert (9, True) not in batch._ROWS


def test_dual_campaigns_never_build_the_order_nine_permutation_space(fresh_memo):
    for name in ("dual-step", "dual-links"):
        campaign = THEOREMS[name]
        assert campaign.default_max_n == 9
        for inst in campaign.instances(campaign.default_max_n):
            assert campaign.result(inst).status == "pass", (name, inst)
    assert (9, True) not in batch._ROWS and (8, True) in batch._ROWS


@pytest.mark.parametrize("flipped", [0, 400, 719])
def test_a_step_the_tables_disagree_on_is_kept_table_by_table(fresh_memo, monkeypatch, flipped):
    # Left cancellative tables have one step each, so without the flip every
    # step is uniform; flipping one table's verdict at every step makes each
    # step disagree from the first block, a middle one or the last, and be
    # kept as a read-only array of the whole space.
    n, k = 6, 5
    rows = batch.row_array(n, True)
    real = batch._translatable

    def flip_one(tables, steps):
        return real(tables, steps) ^ (tables[:, 0] == rows[flipped]).all(axis=1)

    monkeypatch.setattr(batch, "_BLOCK_CELLS", 97 * n * n)
    monkeypatch.setattr(batch, "_translatable", flip_one)
    steps = batch.step_verdicts(n, k, False)
    tables = batch.product_tables(rows, k)
    for kstar in range(1, n):
        assert steps[kstar] is batch._VERDICTS[("steps", n, k, False)][kstar - 1]
        assert isinstance(steps[kstar], np.ndarray) and not steps[kstar].flags.writeable
        expected = real(tables, [kstar])[0]
        assert expected.all() if kstar == k else not expected.any()
        expected[flipped] ^= True
        assert steps[kstar].tolist() == expected.tolist()


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_blocks_concatenate_to_the_row_space(fresh_memo, monkeypatch, n):
    # Both block sizes of test_space_verdicts_match_the_mask_on_fresh_tables:
    # the default one and a prime number of rows above n.
    expected = [list(p) for p in itertools.permutations(range(n))]
    for width in range(1, n + 1):
        assert np.concatenate(list(batch._first_value_blocks(n, width))).tolist() == expected
    for size in (None, _prime_above(max(n, len(expected) // 7))):
        if size:
            monkeypatch.setattr(batch, "_BLOCK_CELLS", size * n * n)
        blocks = list(batch._space_rows(n, True))
        assert np.concatenate([rows for _, rows in blocks]).tolist() == expected
        assert [start for start, _ in blocks] == [0, *itertools.accumulate(len(rows) for _, rows in blocks[:-1])]
        assert all(len(rows) * n * n <= max(batch._BLOCK_CELLS, n * n) for _, rows in blocks)
    assert (n, True) not in batch._ROWS


@pytest.mark.parametrize("perm", [True, False])
def test_row_at_unranks_every_row(fresh_memo, perm):
    for n in range(1, 7):
        rows = batch.row_array(n, perm)
        assert [batch.row_at(n, perm, b).tolist() for b in range(len(rows))] == rows.tolist()
    batch.clear_memo()
    assert batch.row_at(9, True, 362879).tolist() == list(range(8, -1, -1))
    assert batch.row_at(9, True, 1).tolist() == [0, 1, 2, 3, 4, 5, 6, 8, 7]
    assert batch.row_at(7, False, 7**7 - 2).tolist() == [6] * 6 + [5]
    assert not batch._ROWS


def test_row_space_budget_refuses_before_allocating(fresh_memo, monkeypatch, capsys):
    # No refused space is generated, nor the order-9 permutation space: the
    # dual-step sweeps up to n = 9 go one first value at a time.
    def refusing(generate, limit):
        def guarded(n, *args):
            if n >= limit:
                raise AssertionError(f"a row space at n = {n} was generated")
            return generate(n, *args)
        return guarded

    monkeypatch.setattr(batch, "_permutations", refusing(batch._permutations, 9))
    monkeypatch.setattr(batch, "_first_value_blocks", refusing(batch._first_value_blocks, 10))
    monkeypatch.setattr(batch, "_all_rows", refusing(batch._all_rows, 8))
    with pytest.raises(BoundError, match=r"permutation row space at n = 10 .* budget of 67108864"):
        batch.row_array(10, True)
    with pytest.raises(BoundError, match=r"full row space at n = 8 .* budget of 67108864"):
        batch.row_array(8, False)
    for sweep in (lambda: batch.step_verdicts(10, 3, True), lambda: next(batch._space_rows(10, True))):
        with pytest.raises(BoundError, match=r"permutation row space at n = 10 needs 362880000 table cells"):
            sweep()
    assert not batch._ROWS
    assert main(["verify", "--theorem", "dual-step", "--max-n", "10"]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 36 and '"n":10' not in out
    assert err == (
        "translatable: permutation row space at n = 10 needs 362880000 table cells, "
        "over the row-space budget of 67108864\n"
    )


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
        got = _perm_alterable_mask([rows], n, k)
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
            got = _perm_alterable_mask([rows], n, k)
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
    n, rows = table.n, table.grid.tolist()
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
            pool.append(with_cell(table, n, j, table.entry(n, j) % n + 1))
    return pool


def stack_of(tables) -> np.ndarray:
    return np.array([table.grid for table in tables], dtype=np.int8)


@pytest.mark.parametrize("chunk", [3, translation.ROW_CHUNK])
@pytest.mark.parametrize("n", range(1, 7))
def test_every_mask_matches_check_and_the_rotation_loop(monkeypatch, n, chunk):
    monkeypatch.setattr(translation, "ROW_CHUNK", chunk)
    pool = mask_pool(n)
    stack = stack_of(pool)
    for name, mask in batch.MASKS.items():
        got = mask(stack)
        assert got.dtype == bool
        assert got.tolist() == [check(table, name)[0] for table in pool], name
    for k in range(0, n + 2):
        got = batch.translatable_mask(stack, k)
        assert got.tolist() == [translatable_by_loop(table, k) for table in pool], k


@pytest.mark.parametrize("chunk", [3, 97])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_first_cell_probe_matches_the_rotation_loop_at_the_edges(fresh_memo, monkeypatch, n, chunk):
    # The probe reads T[1 % n][k % n]: order 1, k = 0 and k >= n all wrap.
    # Every first row at every step, some with one cell changed, shuffled so
    # that the tables passing the probe fall on both sides of chunk edges
    # (translatable_mask takes ROW_CHUNK * n tables a chunk).
    monkeypatch.setattr(translation, "ROW_CHUNK", chunk)
    rng = np.random.default_rng(n)
    rows = batch.row_array(n, False)
    stack = np.concatenate([batch.product_tables(rows, k) for k in range(n)])
    changed = rng.random(len(stack)) < 0.3
    stack[changed, n - 1, rng.integers(n)] = rng.integers(n, size=changed.sum())
    stack = stack[rng.permutation(len(stack))]
    assert len(stack) > chunk * n or n < 4
    pool = [CayleyTable(n, grid + 1) for grid in stack]
    outcomes = set()
    for k in (0, 1, n - 1, n, n + 1, 2 * n + 1):
        got = batch.translatable_mask(stack, k)
        assert got.tolist() == [translatable_by_loop(table, k) for table in pool], k
        outcomes.update(got.tolist())
    assert outcomes == ({True} if n == 1 else {True, False})


@pytest.mark.parametrize("chunk", [3, 97])
def test_perm_alterable_sieve_matches_every_position_pair(monkeypatch, chunk):
    # Rows of few values, so that many pass a pair and go on to the next,
    # across chunk edges (ROW_CHUNK * n * n rows a chunk); and the spaces
    # with no pair of two positions, where every row passes.
    monkeypatch.setattr(translation, "ROW_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    no_pairs = {(1, 0), (1, 1), (2, 1), (5, 2), (5, 3)}
    for n in range(1, 7):
        rows = np.concatenate([
            rng.integers(0, 2, size=(chunk * n * n + 50, n), dtype=np.int8),
            rng.integers(0, n, size=(60, n), dtype=np.int8),
            np.zeros((5, n), dtype=np.int8),
            np.array([rng.permutation(n) for _ in range(20)], dtype=np.int8),
        ])
        rows = rows[rng.permutation(len(rows))]
        for k in range(0, n + 1):
            got = _perm_alterable_mask([rows], n, k)
            assert (got == positional_alterable(rows, n, k)).all(), (n, k)
            assert got.all() == ((n, k) in no_pairs), (n, k)


def test_translatable_mask_compares_no_rows_once_the_first_cell_fails_everywhere(fresh_memo, monkeypatch):
    # On permutation rows the step-k tables pass T[0][0] == T[1][s] at no
    # step s other than k mod n, so no pair of rows is ever compared; at
    # k + n every row of every table but the last is compared once.
    calls = []

    def counted(chunk, rows, k):
        calls.append(len(chunk) * len(rows))
        return _rotation_holds(chunk, rows, k)

    monkeypatch.setattr(translation, "_rotation_holds", counted)
    for n, k in ((5, 2), (7, 3), (8, 5)):
        tables = batch.product_tables(batch.row_array(n, True), k)
        for step in range(1, n):
            if step != k:
                assert not batch.translatable_mask(tables, step).any()
        assert calls == [], (n, k)
        assert batch.translatable_mask(tables, k + n).all()
        assert calls and sum(calls) == (n - 1) * len(tables)
        calls.clear()


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
            if value != table.entry(i, j):
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
    monkeypatch.setattr(translation, "ROW_CHUNK", 4)
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
    monkeypatch.setattr(translation, "ROW_CHUNK", 97)
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
    monkeypatch.setattr(translation, "ROW_CHUNK", 97)
    rows = batch.row_array(n, False)
    assert (properties._distinct(rows, 1) == sorted_distinct(rows, 1)).all()
    assert properties._distinct(rows, 1).sum() == math.factorial(n)
    for k in range(n):
        tables = batch.product_tables(rows, k)
        for axis in (1, 2):
            assert (properties._distinct(tables, axis) == sorted_distinct(tables, axis)).all(), (k, axis)


@pytest.mark.parametrize("n", [9, 15, 16, 40, 63, 64, 70])
def test_distinct_matches_the_sort_test_across_the_dtype_switches(monkeypatch, n):
    monkeypatch.setattr(translation, "ROW_CHUNK", 7)
    rng = np.random.default_rng(n)
    stack = rng.integers(0, n, (30, n, n)).astype(np.int8)
    latin = np.array([[rng.permutation(n) for _ in range(n)] for _ in range(10)], dtype=np.int8)
    stack[:10] = latin  # every row holds n distinct values
    stack[10:20] = latin.transpose(0, 2, 1)  # every column does
    stack[0, 3, 0] = stack[0, 3, 1]  # but one row of the first table repeats a value
    for axis in (1, 2):
        got = properties._distinct(stack, axis)
        assert (got == sorted_distinct(stack, axis)).all(), axis
        assert got.any() and not got.all(), axis
    rows = stack[:, 0, :]
    assert (properties._distinct(rows, 1) == sorted_distinct(rows, 1)).all()
