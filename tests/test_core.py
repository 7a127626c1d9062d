"""Representatives, orderings and the serialization round trip."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from translatable import core
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


def first_bad_cell_by_loop(n, cells) -> str:
    for i, row in enumerate(cells, start=1):
        for j, value in enumerate(row, start=1):
            if not 1 <= value <= n:
                return f"entry at ({i}, {j}) is {value}, outside 1..{n}"
    raise AssertionError("no bad cell")


class NoCellLoop:
    """Integer cells that numpy can read in bulk but Python cannot iterate."""

    def __init__(self, grid):
        self.grid = grid

    def __len__(self):
        return len(self.grid)

    def __array__(self, dtype=None, copy=None):
        return self.grid

    def __getitem__(self, i):
        return self.grid[i]

    def __iter__(self):
        raise AssertionError("the cell loop ran")


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int64, np.uint64])
def test_an_out_of_range_integer_cell_is_named_without_the_cell_loop(dtype):
    rng = np.random.default_rng(7)
    for n, bad in [(1, [(0, 0)]), (5, [(4, 4)]), (9, [(3, 8), (6, 0)]), (100, [(99, 99), (99, 98)])]:
        grid = rng.integers(1, n + 1, (n, n)).astype(dtype)
        for i, j in bad:
            grid[i, j] = 0 if (i + j) % 2 or dtype in (np.int8, np.uint8) else n + 1
        want = first_bad_cell_by_loop(n, grid.tolist())
        for cells in (NoCellLoop(grid), grid.tolist()):
            with pytest.raises(InvalidInputError) as info:
                CayleyTable(n, cells)
            assert str(info.value) == want


def test_a_bool_cell_among_integers_is_named_as_given():
    # numpy reads these as int64; the cell loop names the cell False, not 0.
    with pytest.raises(InvalidInputError, match=r"^entry at \(1, 2\) is False, outside 1..2$"):
        CayleyTable(2, [[1, False], [1, 1]])
    with pytest.raises(InvalidInputError, match=r"^entry at \(2, 1\) is 3, outside 1..2$"):
        CayleyTable(2, [[True, 2], [3, False]])


def test_an_out_of_range_cell_of_an_order_1024_array_is_named():
    grid = np.ones((1024, 1024), dtype=np.int64)
    grid[-1, -1] = 1025
    with pytest.raises(InvalidInputError, match=r"^entry at \(1024, 1024\) is 1025, outside 1..1024$"):
        CayleyTable(1024, NoCellLoop(grid))


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


# -- parse_table against the field-by-field reader it replaced ----------------


def loop_parse_table(text: str, fmt: str | None = None) -> CayleyTable:
    """parse_table as it was before the array path, kept as the oracle."""

    def json_payload(text):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
        if not isinstance(payload, dict):
            raise ParseError("expected a JSON object")
        return payload

    def int_list(values, what):
        if not isinstance(values, list):
            raise ParseError(f"{what} must be a list")
        if set(map(type, values)) <= {int}:
            return values
        for v in values:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ParseError(f"{what} must contain integers, got {v!r}")
        return values

    fmt = fmt or ("json" if text.lstrip().startswith("{") else "text")
    if fmt == "json":
        payload = json_payload(text)
        if set(payload) != {"n", "table"}:
            raise ParseError(f"table object needs keys n and table, got {sorted(payload)}")
        n = payload["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ParseError(f"n must be an integer, got {n!r}")
        rows = payload["table"]
        if not isinstance(rows, list):
            raise ParseError("table must be a list of rows")
        return CayleyTable(n, [int_list(row, "row") for row in rows])
    if fmt == "text":
        rows = []
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ParseError("empty table input")
        for lineno, line in enumerate(lines, start=1):
            fields = line.split()
            try:
                rows.append(list(map(int, fields)))
            except ValueError:
                # Name the first field that is not an integer.
                for colno, field in enumerate(fields, start=1):
                    try:
                        int(field)
                    except ValueError:
                        raise ParseError(
                            f"expected an integer, got {field!r}", line=lineno, column=colno
                        ) from None
        return CayleyTable(len(rows), rows)
    raise InvalidInputError(f"unknown format {fmt!r}, expected 'json' or 'text'")


def outcome(parse, text, fmt=None):
    """The table's cells, or the error's type, text and position."""
    try:
        table = parse(text, fmt)
    except Exception as exc:  # the oracle decides which errors are expected
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return table.n, table.grid.tobytes()


def square(n: int, seed: int) -> CayleyTable:
    return CayleyTable(n, np.random.default_rng(seed).integers(1, n + 1, (n, n)))


def big_inputs():
    """Plain input at orders 1, 2, 66 and 1024, and below 1024 one-field
    changes of it."""
    for n in (1, 2, 66, 1024):
        table = square(n, n)
        text, compact = serialize(table, "text"), serialize(table, "json")
        yield from (text, compact, text.replace("\n", "\r\n"))
        head, tail = compact[: compact.rindex("]]")].rsplit(",", 1)[0] + ("," if n > 1 else "["), "]]}"
        if n == 1024:
            continue
        yield text[:-1] + " 0\n"  # one field too many in the last row
        yield text.replace("\n", " \n\t\n", 1)  # a whitespace-only line
        yield compact.replace("]", ",1]", 1)  # first row too wide
        last = text.rsplit(" ", 1)[0] if n > 1 else ""
        for field in ("0", str(n + 1), "+1", "x", "18446744073709551617", "0" * 25 + "1"):
            yield last + (" " if last else "") + field + "\n"
            yield head + field + tail


SMALL_INPUTS = [
    # text: line ends, tabs, blank and whitespace-only lines
    "1 2\n2 1\n", "1 2\r\n2 1\r\n", "1 2\r2 1\r", "1 2\r\n2 1", "1\t2\n\t2  1\t\n",
    "\n\n1 2\n   \n2 1\n\t\n", "  1   2  \n 2 1", "1 2\n\r\n2 1\n", "1 2\n2 1\r",
    # text: signs, zeros and long integers
    "01 2\n2 001\n", "+1 2\n2 1\n", "-1 2\n2 1\n", "0 2\n2 1\n", "3 2\n2 1\n",
    "18446744073709551617 2\n2 1\n", "99999999999999999999 1\n1 1\n",
    "00000000000000000000001 2\n2 1\n", "1_0 1\n1 1\n", "1+2\n2 1\n", "2-1\n1 2\n",
    # text: Unicode digits and whitespace beyond the plain grammar
    "١ 2\n2 1\n", "１ 2\n2 1\n", "1\x0b2\n2 1\n", "1 2\x0b2 1\n", "1\x0c2\n2 1\n",
    "1 2\x0c2 1", "1 2\n2 1\n", "1 2 2 1", "1 2\x852 1",
    # text: ragged, wrong row count, empty
    "1 2\n2\n", "1 2 3\n1 2 3\n", "1 2\n2 1\n1 2\n", "1\n", "", "   \n\n", "1 x\n", "1 2\n2 1 x\n",
    # JSON: layouts other than the compact one
    '{"n":2,"table":[[1,2],[2,1]]}', '{"n":2,"table":[[1,2],[2,1]]}\n \t\r\n',
    json.dumps({"n": 2, "table": [[1, 2], [2, 1]]}, indent=2), '{"n": 2, "table": [[1, 2], [2, 1]]}',
    '  {"n":2,"table":[[1,2],[2,1]]}', '{"table":[[1,2],[2,1]],"n":2}',
    '{"n":2,"n":2,"table":[[1,2],[2,1]]}', '{"n":2,"table":[[1,2],[2,1]],"x":1}',
    '{"n":2,"table":[[1,2]],"table":[[1,2],[2,1]]}',
    # JSON: values and rows that are not plain
    '{"n":2,"table":[[true,2],[2,1]]}', '{"n":2,"table":[[1.0,2],[2,1]]}', '{"n":2,"table":[[1e0,2],[2,1]]}',
    '{"n":2,"table":[[1e2,2],[2,1]]}', '{"n":2,"table":[[01,2],[2,1]]}', '{"n":2,"table":[[0,2],[2,1]]}',
    '{"n":2,"table":[[-1,2],[2,1]]}', '{"n":2,"table":[[3,2],[2,1]]}', '{"n":02,"table":[[1,2],[2,1]]}',
    '{"n":2,"table":[[],[]]}', '{"n":2,"table":[]}', '{"n":2,"table":[[1,2],[]]}',
    '{"n":2,"table":[[[1],2],[2,1]]}', '{"n":2,"table":[[1,2],[2,1]],[[1]]}', '{"n":2,"table":[[1,2]],[[2,1]]}',
    '{"n":2,"table":[[1,2],[2,1]]}x', '{"n":2,"table":[[1,2],[2,1]]}}', '{"n":2,"table":[[1,2],[2,1]]]}',
    '{"n":2,"table":[[1,,2],[2,1]]}', '{"n":2,"table":[[,1,2],[2,1]]}', '{"n":2,"table":[[1,2,],[2,1]]}',
    '{"n":2,"table":[[1,2],,[2,1]]}', '{"n":2,"table":[[1,2]],[2,1]]}', '{"n":2,"table":[[1,2],[2,1]]}\x0c',
    '{"n":2,"table":[[1,2],[2],[1]]}', '{"n":2,"table":[[1],2,[1]]}', '{"n":2,"table":[[1,2],2,[1]]}',
    '{"n":2,"table":[[1,2],[2,1]],"table":[[1]]}', '{"n":"2","table":[[1,2],[2,1]]}',
    '{"n":true,"table":[[1,2],[2,1]]}', '{"n":0,"table":[[1]]}', '{"n":-2,"table":[[1,2],[2,1]]}',
    '{"n":3,"table":[[1,2],[2,1]]}', '{"n":1,"table":[[1,2],[2,1]]}', '{"n":2,"table":[[1,2,1],[2,1]]}',
    '{"n":1,"table":[[1]]}', '{"n":1,"table":[[]]}', '{"n":2,"table":[[18446744073709551617,2],[2,1]]}',
    '{"n":99999999999999999999,"table":[[1]]}', '{"n":2000,"table":[[1]]}', '["n",2]', "{not json",
]


@pytest.mark.parametrize("fmt", [None, "json", "text"])
def test_parse_table_matches_the_field_by_field_reader(fmt):
    for text in SMALL_INPUTS:
        assert outcome(parse_table, text, fmt) == outcome(loop_parse_table, text, fmt), text
    assert outcome(parse_table, "1", "yaml") == outcome(loop_parse_table, "1", "yaml")


def test_parse_table_matches_the_field_by_field_reader_at_large_orders():
    for text in big_inputs():
        assert outcome(parse_table, text) == outcome(loop_parse_table, text), text[:80]


@pytest.mark.parametrize("n", [1, 2, 66, 1024])
def test_plain_input_takes_the_array_path(monkeypatch, n):
    def refuse(text, fmt):
        raise AssertionError("read field by field")

    monkeypatch.setattr(core, "_parse_fields", refuse)
    table = square(n, n + 1)
    text = serialize(table, "text")
    for plain in (text, text.replace("\n", "\r\n"), serialize(table, "json"), "\t\n" + text.replace(" ", " \t ")):
        assert parse_table(plain) == table


def test_an_order_over_the_bound_is_refused_before_any_cell_is_read(monkeypatch):
    monkeypatch.setenv("TRANSLATABLE_MAX_ORDER", "8")
    rows = [[1] * 9] * 9
    inputs = (
        "\n".join(" ".join(map(str, row)) for row in rows),
        json.dumps({"n": 9, "table": rows}, separators=(",", ":")),
    )
    expected = [outcome(loop_parse_table, text) for text in inputs]
    assert expected == [(BoundError, "order 9 exceeds the bound 8", None, None)] * 2

    def refuse(data, n):
        raise AssertionError("cells converted")

    monkeypatch.setattr(core, "_cell_array", refuse)
    assert [outcome(parse_table, text) for text in inputs] == expected
