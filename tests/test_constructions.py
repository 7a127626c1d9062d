"""Stock families: generated tables against their defining conditions."""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np
import pytest

from translatable import constructions
from translatable.campaigns import THEOREMS
from translatable.constructions import (
    UnionSpec,
    block_product_table,
    cancellative_semigroups,
    constant_column_semigroups,
    embed,
    idempotent_groupoid,
    idempotent_positions,
    left_unitary_groupoid,
    pair_union,
    union_same_step,
    union_shifted_step,
)
from translatable.core import (
    CayleyTable,
    ConstructionError,
    InvalidInputError,
    KSequence,
    mod_rep,
)
from translatable.properties import check, semigroup_criterion
from translatable.translation import detect, is_translatable, table_from_sequence


def brute_associative(table: CayleyTable) -> bool:
    r = range(1, table.n + 1)
    return all(
        table.entry(table.entry(x, y), z) == table.entry(x, table.entry(y, z))
        for x in r
        for y in r
        for z in r
    )


def test_left_unitary_first_row_is_identity():
    seq = left_unitary_groupoid(6, 2)
    assert seq.seq == (1, 2, 3, 4, 5, 6)
    table = table_from_sequence(seq)
    assert table.row(1) == (1, 2, 3, 4, 5, 6)
    assert check(table, "left-unitary")[0]


def test_left_unitary_rejects_bad_step():
    with pytest.raises(InvalidInputError):
        left_unitary_groupoid(6, 6)
    with pytest.raises(InvalidInputError):
        left_unitary_groupoid(6, 0)


def test_idempotent_family_golden():
    assert idempotent_groupoid(4, 2).seq == (1, 4, 3, 2)
    table = table_from_sequence(idempotent_groupoid(4, 2))
    assert check(table, "idempotent")[0]
    assert detect(table) == frozenset({2})


def test_idempotent_positions_cover_when_coprime():
    for n in range(2, 12):
        for k in range(2, n):
            if gcd(k - 1, n) == 1:
                positions = idempotent_positions(n, k)
                assert sorted(positions) == list(range(1, n + 1))
                seq = idempotent_groupoid(n, k)
                assert check(table_from_sequence(seq), "idempotent")[0]


def test_idempotent_obstruction_reported():
    with pytest.raises(ConstructionError) as info:
        idempotent_groupoid(6, 3)
    assert info.value.obstruction is not None
    with pytest.raises(ConstructionError):
        idempotent_groupoid(9, 4)  # gcd(3, 9) = 3


def test_no_idempotent_table_at_step_one():
    # gcd(k-1, n) = n at k = 1, so the position map always collides
    for n in range(2, 8):
        with pytest.raises(ConstructionError):
            idempotent_groupoid(n, 1)


def test_cancellative_semigroups_golden_six_two():
    found = cancellative_semigroups(6, 2)
    assert [s.seq for s in found] == [
        (1, 2, 3, 4, 5, 6),
        (3, 4, 5, 6, 1, 2),
        (5, 6, 1, 2, 3, 4),
    ]
    for seq in found:
        table = table_from_sequence(seq)
        assert brute_associative(table)
        assert check(table, "left-cancellative")[0]


def test_cancellative_semigroups_exhaustive_oracle():
    # the constructed list is exactly the permutation rows passing brute force
    for n in range(2, 8):
        for k in range(1, n):
            expected = sorted(
                values
                for values in itertools.permutations(range(1, n + 1))
                if brute_associative(table_from_sequence(KSequence(n, k, values)))
            )
            produced = sorted(s.seq for s in cancellative_semigroups(n, k))
            assert produced == expected, (n, k)


def test_cancellative_semigroups_count_is_gcd():
    for n in range(2, 13):
        for k in range(1, n):
            found = cancellative_semigroups(n, k)
            if mod_rep(k * k + k, n) != n:
                assert found == []
            else:
                assert len(found) == gcd(1 + k, n)
                assert tuple(range(1, n + 1)) in {s.seq for s in found}


def test_block_product_equals_left_unitary_table():
    for k in (2, 3, 4, 5, 6):
        n = k * k + k
        assert block_product_table(k) == table_from_sequence(left_unitary_groupoid(n, k))


def test_block_product_column_multiplicity():
    # solvable column equations have exactly k solutions apiece
    for k in (2, 3, 4):
        table = block_product_table(k)
        n = table.n
        for j in range(1, n + 1):
            column = table.column(j)
            counts = {v: column.count(v) for v in set(column)}
            assert set(counts.values()) == {k}
            assert len(counts) == n // k


def test_constant_column_counts_are_stable():
    assert len(constant_column_semigroups(6, 3)) == 38
    assert len(constant_column_semigroups(12, 6)) == 10156
    assert len(constant_column_semigroups(10, 5)) == 1402


def test_constant_column_direct_oracle_order_six():
    # every first row whose table is associative with all rows equal
    expected = set()
    n, k = 6, 3
    for values in itertools.product(range(1, n + 1), repeat=n):
        seq = KSequence(n, k, values)
        table = table_from_sequence(seq)
        if (table.grid == table.grid[0]).all() and brute_associative(table):
            expected.add(values)
    assert {s.seq for s in constant_column_semigroups(n, k)} == expected


def test_constant_column_known_families_present():
    families = {
        (12, 6): [
            (12, 12, 9, 10, 9, 12, 12, 12, 9, 10, 9, 12),
            (1, 1, 1, 10, 11, 10, 1, 1, 1, 10, 11, 10),
            (5, 8, 8, 8, 5, 6, 5, 8, 8, 8, 5, 6),
        ],
        (6, 3): [
            (1, 3, 3, 1, 3, 3),
            (2, 2, 6, 2, 2, 6),
            (1, 5, 1, 1, 5, 1),
        ],
        (10, 5): [
            (1, 5, 4, 4, 5, 1, 5, 4, 4, 5),
            (4, 3, 3, 4, 10, 4, 3, 3, 4, 10),
            (1, 2, 8, 2, 1, 1, 2, 8, 2, 1),
        ],
    }
    for (n, k), rows in families.items():
        produced = {s.seq for s in constant_column_semigroups(n, k)}
        for row in rows:
            assert row in produced, (n, k, row)


def test_constant_column_value_spread_bound():
    for n, k in [(6, 3), (10, 5), (8, 4), (9, 3)]:
        for seq in constant_column_semigroups(n, k):
            assert len(set(seq.seq)) <= gcd(k, n)


def test_embed_preserves_products():
    for n in range(2, 7):
        for k in range(1, n):
            seq = KSequence(n, k, tuple(range(1, n + 1)))
            small = table_from_sequence(seq)
            for t in (1, 2, 3):
                big, phi = embed(seq, t)
                assert big.n == n * (t + 1)
                assert is_translatable(big, k)
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        assert big.entry(phi[x], phi[y]) == phi[small.entry(x, y)]


def test_embed_mapping_is_arithmetic():
    seq = KSequence(4, 3, (1, 2, 3, 4))
    big, phi = embed(seq, 1)
    assert big.n == 8
    assert phi == {1: 1, 2: 3, 3: 5, 4: 7}
    assert detect(big) == frozenset({3})


def test_union_spec_validation():
    with pytest.raises(ConstructionError):
        UnionSpec(6, 3, 2)  # t must divide k
    with pytest.raises(InvalidInputError):
        UnionSpec(6, 2, 0)
    spec = UnionSpec(12, 8, 2)
    assert spec.q == 4


def test_union_same_step_flagship():
    union = union_same_step(UnionSpec(12, 8, 2))
    table = union.table
    assert table.n == 24 and union.step == 8
    assert is_translatable(table, 8)
    assert table == table_from_sequence(left_unitary_groupoid(24, 8))
    copies = union.copies()
    assert copies[0] == (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23)
    assert copies[1] == (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24)


def test_union_same_step_requires_criterion_order():
    with pytest.raises(ConstructionError):
        union_same_step(UnionSpec(6, 2, 2))  # 2 + 4 is not 0 mod 12


def test_union_shifted_step_small():
    union = union_shifted_step(UnionSpec(6, 2, 2))
    assert union.table.n == 12
    assert union.step == 8  # k + (t-1)n
    assert union.table == table_from_sequence(left_unitary_groupoid(12, 8))


def test_union_shifted_step_needs_square_sum_order():
    with pytest.raises(ConstructionError):
        union_shifted_step(UnionSpec(8, 2, 2))  # n must be k + k^2


def test_pair_union_goldens():
    union = pair_union(2)
    assert union.table.n == 12 and union.step == 8
    union = pair_union(4)
    assert union.table.n == 40 and union.step == 24
    assert is_translatable(union.table, 24)


def test_pair_union_rejects_odd_step():
    with pytest.raises(ConstructionError):
        pair_union(3)


def test_pair_union_copies_are_left_ideals():
    union = pair_union(2)
    table = union.table
    for members in union.copies():
        inside = set(members)
        for x in range(1, table.n + 1):
            for y in members:
                assert table.entry(x, y) in inside


def test_union_component_rows_pass_criterion():
    union = union_same_step(UnionSpec(12, 8, 2))
    for members in union.copies():
        # relabel the copy through its position order and re-detect the step
        index = {m: p for p, m in enumerate(members, start=1)}
        local = tuple(
            tuple(index[union.table.entry(a, b)] for b in members) for a in members
        )
        small = CayleyTable(len(members), local)
        steps = detect(small)
        assert steps, members
        k = min(steps)
        seq = KSequence(small.n, k, small.row(1))
        assert semigroup_criterion(seq)


def reference_union_cells(n: int, t: int, local_index) -> np.ndarray:
    """The int64 fill of a union's 1-based cells from local_index(i, r, s),
    the local index of i_r * j_s, as the unions were built before they were
    filled in their own dtype; kept as the oracle."""
    elements = np.arange(t * n)
    copy, local = elements % t + 1, elements // t + 1
    products = local_index(copy[:, None], local[:, None], local)
    return t * (products - 1) + copy


def union_cases():
    """(build, reference) for every union the three union campaigns reach at
    their default bounds, and a few shifted-step unions by name."""
    def same(n, k, t):
        q = k // t
        return (lambda: union_same_step(UnionSpec(n, k, t)),
                lambda: reference_union_cells(n, t, lambda i, r, s: mod_rep(k - k * r + q - q * i + s, n)))

    def shifted(n, k, t):
        q = k // t
        return (lambda: union_shifted_step(UnionSpec(n, k, t)),
                lambda: reference_union_cells(n, t, lambda i, r, s: mod_rep(k - k * r + k * q * (i - 1) + s, n)))

    def pair(n, k):
        q = k // 2
        return (lambda: pair_union(k), lambda: reference_union_cells(n, 2, lambda i, r, s: np.where(
            i == 1, mod_rep(k - k * r + s, n), mod_rep(k * (1 + q) - k * r + s, n))))

    def reached(theorem):
        campaign = THEOREMS[theorem]
        return campaign.instances(campaign.default_max_n)

    cases = {("same", *inst): same(*inst) for inst in reached("union-same-step")}
    named = [(600, 24, 1), (552, 23, 1), (72, 8, 8), (110, 10, 5)]
    cases.update({("shifted", *inst): shifted(*inst) for inst in [*reached("union-shifted-step"), *named]})
    cases.update({("pair", n, k): pair(n, k) for n, k in reached("pair-union") if k % 2 == 0})
    return cases


def test_unions_match_the_int64_reference_fill():
    cases = union_cases()
    assert len(cases) > 200 and ("shifted", 600, 24, 1) in cases and ("pair", 72, 8) in cases
    for case, (build, reference) in cases.items():
        table = build().table
        assert table.grid.dtype == np.int16
        assert np.array_equal(table.grid + 1, reference()), case


def test_union_fill_reaches_no_value_past_its_dtype_choice(monkeypatch):
    # The fill asks for a dtype holding max(2n - 1, tn), the largest value
    # its arithmetic reaches; int8, which holds exactly up to 127, is then
    # enough for every union whose maximum is at most 127.
    asked = []

    def int8(top):
        asked.append(top)
        assert top <= 127
        return np.int8

    monkeypatch.setattr(constructions, "_cell_dtype", int8)
    checked = 0
    for case, (build, reference) in union_cases().items():
        n, t = case[1], (2 if case[0] == "pair" else case[3])
        if max(2 * n - 1, t * n) > 127:
            continue
        asked.clear()
        assert np.array_equal(build().table.grid + 1, reference()), case
        assert max(2 * n - 1, t * n) in asked, case
        checked += 1
    assert checked > 100
