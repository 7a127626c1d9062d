"""Representatives, orderings and the serialization round trip."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from translatable.core import (
    BoundError,
    CayleyTable,
    InvalidInputError,
    KSequence,
    Ordering,
    ParseError,
    mod_rep,
    parse_sequence,
    parse_table,
    reorder,
    serialize,
)


def test_mod_rep_window():
    assert [mod_rep(x, 4) for x in range(-4, 9)] == [4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]


def test_mod_rep_fixed_points():
    for n in range(1, 10):
        for x in range(1, n + 1):
            assert mod_rep(x, n) == x


@given(st.integers(-10**6, 10**6), st.integers(1, 500))
def test_mod_rep_is_congruent_and_in_range(x, n):
    r = mod_rep(x, n)
    assert 1 <= r <= n
    assert (r - x) % n == 0


@given(st.integers(-1000, 1000), st.integers(2, 60), st.integers(1, 6))
def test_mod_rep_scaling_identities(x, n, t):
    # the two scaling facts the glued unions lean on
    assert mod_rep(t * x, t * n) == t * mod_rep(x, n)
    assert mod_rep(t * (x - 1), t * n) == t * mod_rep(mod_rep(x, n) - 1, n)


def test_sequence_validation():
    KSequence(4, 2, (1, 4, 3, 2))
    with pytest.raises(InvalidInputError):
        KSequence(4, 0, (1, 2, 3, 4))
    with pytest.raises(InvalidInputError):
        KSequence(4, 4, (1, 2, 3, 4))
    with pytest.raises(InvalidInputError):
        KSequence(4, 2, (1, 2, 3))
    with pytest.raises(InvalidInputError):
        KSequence(4, 2, (1, 2, 3, 5))
    with pytest.raises(InvalidInputError):
        KSequence(1, 1, (1,))


def test_sequence_permutation_flag():
    assert KSequence(4, 2, (2, 3, 4, 1)).is_permutation()
    assert not KSequence(4, 2, (1, 1, 2, 2)).is_permutation()


def test_table_validation():
    CayleyTable(2, ((1, 2), (2, 1)))
    with pytest.raises(InvalidInputError):
        CayleyTable(2, ((1, 2),))
    with pytest.raises(InvalidInputError):
        CayleyTable(2, ((1, 2), (2, 3)))
    with pytest.raises(InvalidInputError, match=r"entry at \(1, 1\) is 1.5, not an integer"):
        CayleyTable(2, ((1.5, 2), (2, 1)))
    # Outside the int16 storage too: refused by value, never wrapped round.
    with pytest.raises(InvalidInputError, match=r"entry at \(2, 2\) is 65537, outside 1..2"):
        CayleyTable(2, ((1, 2), (2, 65537)))


def test_table_equality_and_hash_follow_the_cells():
    cells = ((1, 2), (2, 1))
    tables = [
        CayleyTable(2, cells),
        CayleyTable(2, [list(row) for row in cells]),
        CayleyTable(2, np.array(cells)),
    ]
    for table in tables:
        assert table == tables[0] and hash(table) == hash(tables[0])
    assert len(set(tables)) == 1
    assert tables[0] != CayleyTable(2, ((1, 2), (2, 2)))
    assert CayleyTable(1, ((1,),)) != CayleyTable(2, ((1, 1), (1, 1)))
    assert (tables[0] == cells) is False
    assert (tables[0] == "table") is False
    copy = pickle.loads(pickle.dumps(tables[0]))
    assert copy == tables[0] and not copy.grid.flags.writeable


def test_entry_is_one_based():
    table = CayleyTable(3, ((2, 3, 1), (3, 1, 2), (1, 2, 3)))
    assert table.entry(1, 1) == 2
    assert table.entry(3, 2) == 2
    assert table.row(2) == (3, 1, 2)
    assert table.column(3) == (1, 2, 3)
    with pytest.raises(IndexError):
        table.entry(0, 1)
    with pytest.raises(IndexError):
        table.entry(1, 4)


def test_ordering_compose_inverse():
    p = Ordering((2, 3, 1))
    q = p.inverse()
    assert p.compose(q).perm == Ordering.identity(3).perm
    assert q.compose(p).perm == Ordering.identity(3).perm
    assert p.apply(1) == 2 and q.apply(2) == 1


def test_ordering_rejects_non_permutation():
    with pytest.raises(InvalidInputError):
        Ordering((1, 1, 2))


def test_reorder_relabels_positions_not_values():
    table = CayleyTable(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
    moved = reorder(table, Ordering((2, 3, 1)))
    # position (1,1) now shows 2*2
    assert moved.entry(1, 1) == table.entry(2, 2)
    assert moved.entry(3, 2) == table.entry(1, 3)


@given(st.integers(2, 6), st.data())
def test_serialize_parse_round_trip_table(n, data):
    rows = tuple(
        tuple(data.draw(st.integers(1, n)) for _ in range(n)) for _ in range(n)
    )
    table = CayleyTable(n, rows)
    for fmt in ("json", "text"):
        assert parse_table(serialize(table, fmt)) == table


@given(st.integers(2, 6), st.data())
def test_serialize_parse_round_trip_sequence(n, data):
    k = data.draw(st.integers(1, n - 1))
    seq = KSequence(n, k, tuple(data.draw(st.integers(1, n)) for _ in range(n)))
    for fmt in ("json", "text"):
        assert parse_sequence(serialize(seq, fmt)) == seq


def test_serialized_json_is_compact_with_newline():
    seq = KSequence(3, 1, (1, 2, 3))
    text = serialize(seq, "json")
    assert text.endswith("\n") and " " not in text
    assert json.loads(text) == {"n": 3, "k": 1, "seq": [1, 2, 3]}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_table("1 2\n2 x\n")
    assert info.value.line == 2 and info.value.column == 2
    with pytest.raises(ParseError):
        parse_table("{not json")
    with pytest.raises(ParseError):
        parse_sequence('{"n":3,"k":1}')


def test_parse_errors_name_the_first_bad_field_of_a_large_table():
    n = 1024
    lines = [" ".join(["1"] * n)] * n
    lines[699] = "1 2 x 4 y" + " 1" * (n - 5)
    with pytest.raises(ParseError) as info:
        parse_table("\n".join(lines))
    assert str(info.value) == "expected an integer, got 'x' (line 700, column 3)"
    with pytest.raises(ParseError) as info:
        parse_table('{"n":2,"table":[[1,2],[1,true,"x"]]}')
    assert str(info.value) == "row must contain integers, got True"


@pytest.mark.parametrize("n", [1, 9, 10, 100, 1024])
def test_serialized_table_bytes_are_those_of_its_rows(n):
    rng = np.random.default_rng(n)
    table = CayleyTable(n, rng.integers(1, n + 1, (n, n)))
    rows = [list(row) for row in table.rows]
    assert serialize(table, "json") == json.dumps({"n": n, "table": rows}, separators=(",", ":")) + "\n"
    assert serialize(table, "text") == "".join(" ".join(map(str, row)) + "\n" for row in rows)


def test_parse_table_rejects_bad_shapes():
    with pytest.raises(InvalidInputError):
        parse_table("1 2 3\n1 2 3\n")  # 2 rows of width 3
    with pytest.raises(ParseError):
        parse_table("")


def test_bound_error_is_translatable_error():
    from translatable.core import TranslatableError

    assert issubclass(BoundError, TranslatableError)
    assert issubclass(InvalidInputError, ValueError)
