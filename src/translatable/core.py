"""Exact modular arithmetic and the basic value types.

Everything here works on 1-based residues: the class of 0 modulo n is
represented by n itself, so computed values always land in 1..n.  A Cayley
table is a full n-by-n multiplication grid over the elements 1..n, stored
once, as its one representation: a read-only 0-based array (the one
exception to 1-based values here), from which `entry`, `row` and `column`
read 1-based cells, rows and columns.  A step sequence is a first row
together with the rotation step k, and an ordering is a permutation used
to present the same grid with rows and columns rearranged.  All types are
immutable after construction and safe to share across worker processes.

`parse_table` reads a table in the plain grammar (ASCII digit fields
separated by spaces and tabs, one row a line, or the compact JSON that
`serialize` writes) from its bytes into an array in numpy, without a
Python int per cell.  Any other input is read field by field, which
accepts the same tables and names the first bad field, so both routes
give the same table, or the same error, on the same input.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
from dataclasses import InitVar, dataclass, field

import numpy as np

DEFAULT_MAX_ORDER = 1024

_MAX_ORDER_ENV = "TRANSLATABLE_MAX_ORDER"


class TranslatableError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(TranslatableError, ValueError):
    """A value breaks a structural invariant (order, closure, permutation)."""


class ParseError(TranslatableError, ValueError):
    """Serialized input could not be decoded.  Carries a position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


class PreconditionError(TranslatableError):
    """An operation was applied to input that fails its prerequisite."""

    def __init__(self, message: str, prerequisite: str | None = None):
        super().__init__(message)
        self.prerequisite = prerequisite


class ConstructionError(TranslatableError):
    """The requested object does not exist; the message names the obstruction."""

    def __init__(self, message: str, obstruction: str | None = None):
        super().__init__(message)
        self.obstruction = obstruction or message


class BoundError(TranslatableError):
    """Planned work exceeds a resource bound; the message names both."""


class VerificationError(TranslatableError):
    """An internal cross-check that must always hold came out false."""


def max_order() -> int:
    """Largest admitted table order; override with TRANSLATABLE_MAX_ORDER."""
    raw = os.environ.get(_MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise InvalidInputError(f"{_MAX_ORDER_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise InvalidInputError(f"{_MAX_ORDER_ENV} must be positive, got {value}")
    return value


def mod_rep(x: int, n: int) -> int:
    """Representative of x modulo n taken from 1..n (0 is written as n)."""
    if n < 1:
        raise InvalidInputError(f"modulus must be positive, got {n}")
    return (x - 1) % n + 1


def _check_order(n: int) -> None:
    if n < 1:
        raise InvalidInputError(f"order must be at least 1, got {n}")
    bound = max_order()
    if n > bound:
        raise BoundError(f"order {n} exceeds the bound {bound}")


def _check_cost(plan: str, estimate: int, unit: str, bound_name: str, bound: int) -> None:
    """Refuse work whose estimate passes its bound, before any of it is done,
    naming both; an estimate of over 15 digits is written as about 10^d."""
    if estimate > bound:
        shown = estimate if estimate < 10**15 else f"about 10^{int(math.log10(estimate))}"
        raise BoundError(f"{plan} needs {shown} {unit}, over the {bound_name} of {bound}")


def _cell_dtype(top: int) -> type:
    """int16 if it holds every value up to top, else int32."""
    return np.int16 if top < 1 << 15 else np.int32


def _check_step(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"step must satisfy 1 <= k <= n-1, got k={k} for n={n}")


@dataclass(frozen=True, eq=False)
class CayleyTable:
    """An n-by-n multiplication table over 1..n, built from n rows of 1-based
    cells (tuples, lists or an array), or by _of_grid from a 0-based grid a
    builder has just made, and stored once, as `grid`: a read-only 0-based
    array, int16 below order 32768, which is how the package reads cells.

    `grid` is the table's only representation: `entry`, `row` and `column`
    read 1-based cells, rows and columns from it.  Tables are equal, and
    hash alike, when their cells agree.
    """

    n: int
    cells: InitVar[object]
    grid: np.ndarray = field(init=False)

    def __post_init__(self, cells) -> None:
        n = self.n
        _check_order(n)
        if len(cells) != n:
            raise InvalidInputError(f"expected {n} rows, got {len(cells)}")
        # Bulk check first; the cell loop only runs to name the first bad
        # row or cell in row-major order.
        try:
            grid = np.asarray(cells)
        except ValueError:  # ragged rows
            grid = np.empty(0)
        valid = grid.shape == (n, n) and grid.dtype.kind in "biu" and grid.min() >= 1 and grid.max() <= n
        if not valid and grid.shape == (n, n) and grid.dtype.kind in "iu":
            # Every cell is an integer, so the first bad one is out of range.
            # It is named as given (False, not 0), as the cell loop names it.
            i, j = divmod(int(((grid < 1) | (grid > n)).argmax()), n)
            raise InvalidInputError(f"entry at ({i + 1}, {j + 1}) is {cells[i][j]}, outside 1..{n}")
        if not valid:
            for i, row in enumerate(cells, start=1):
                if len(row) != n:
                    raise InvalidInputError(f"row {i} has {len(row)} entries, expected {n}")
                for j, value in enumerate(row, start=1):
                    if not isinstance(value, numbers.Integral):
                        raise InvalidInputError(f"entry at ({i}, {j}) is {value!r}, not an integer")
                    if not 1 <= value <= n:
                        raise InvalidInputError(f"entry at ({i}, {j}) is {value}, outside 1..{n}")
            grid = np.array(cells, dtype=np.int64)  # integral objects numpy left untyped
        grid = np.subtract(grid, 1, dtype=_cell_dtype(n))
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    @classmethod
    def _of_grid(cls, grid: np.ndarray) -> CayleyTable:
        """The table of a 0-based integer grid that a builder has just made:
        taken as it is if it is in the cell dtype (else cast once), not
        copied from 1-based cells, and made read-only.  Its shape and values
        are checked."""
        n = len(grid)
        _check_order(n)
        if grid.shape != (n, n) or grid.dtype.kind not in "iu" or grid.min() < 0 or grid.max() >= n:
            raise VerificationError(f"not a 0-based grid of order {n}")
        grid = grid.astype(_cell_dtype(n), copy=False)
        grid.flags.writeable = False
        table = cls.__new__(cls)
        object.__setattr__(table, "n", n)
        object.__setattr__(table, "grid", grid)
        return table

    def __eq__(self, other) -> bool:
        return isinstance(other, CayleyTable) and np.array_equal(self.grid, other.grid)

    def __hash__(self) -> int:
        return hash((self.n, self.grid.tobytes()))

    def __reduce__(self):
        # Unpickle through __init__, so that grid comes back read-only.
        return CayleyTable, (self.n, self.grid + 1)

    def entry(self, i: int, j: int) -> int:
        """Product of i and j (both 1-based)."""
        if not 1 <= i <= self.n or not 1 <= j <= self.n:
            raise IndexError(f"({i}, {j}) outside 1..{self.n}")
        return int(self.grid[i - 1, j - 1]) + 1

    def row(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise IndexError(f"row {i} outside 1..{self.n}")
        return tuple((self.grid[i - 1] + 1).tolist())

    def column(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.n:
            raise IndexError(f"column {j} outside 1..{self.n}")
        return tuple((self.grid[:, j - 1] + 1).tolist())


@dataclass(frozen=True)
class KSequence:
    """A first row a_1..a_n together with the rotation step k."""

    n: int
    k: int
    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_order(self.n)
        _check_step(self.n, self.k)
        if len(self.seq) != self.n:
            raise InvalidInputError(f"sequence has {len(self.seq)} entries, expected {self.n}")
        for pos, value in enumerate(self.seq, start=1):
            if not 1 <= value <= self.n:
                raise InvalidInputError(f"a_{pos} = {value} is outside 1..{self.n}")

    @classmethod
    def of(cls, n: int, k: int, seq) -> KSequence:
        return cls(n, k, tuple(int(v) for v in seq))

    def is_permutation(self) -> bool:
        return len(set(self.seq)) == self.n


@dataclass(frozen=True)
class Ordering:
    """A permutation of 1..n listing the elements in presentation order."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        _check_order(n)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise InvalidInputError(f"{self.perm} is not a permutation of 1..{n}")

    @classmethod
    def identity(cls, n: int) -> Ordering:
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.perm)

    def apply(self, i: int) -> int:
        """Element sitting at position i."""
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} outside 1..{self.n}")
        return self.perm[i - 1]

    def inverse(self) -> Ordering:
        inv = [0] * self.n
        for pos, element in enumerate(self.perm, start=1):
            inv[element - 1] = pos
        return Ordering(tuple(inv))

    def compose(self, other: Ordering) -> Ordering:
        """Ordering mapping position i to self.apply(other.apply(i))."""
        if self.n != other.n:
            raise InvalidInputError("cannot compose orderings of different sizes")
        return Ordering(tuple(self.perm[p - 1] for p in other.perm))


@dataclass(frozen=True)
class Witness:
    """A counterexample: the named identity evaluates to lhs != rhs there."""

    tag: str
    elements: tuple[int, ...]
    lhs: int
    rhs: int

    def as_dict(self) -> dict:
        return {"tag": self.tag, "elements": list(self.elements), "lhs": self.lhs, "rhs": self.rhs}


def reorder(table: CayleyTable, ordering: Ordering) -> CayleyTable:
    """Present the same grid under a new ordering.

    Row r and column c of the result show the product of the elements at
    positions r and c of the ordering; entries keep their original labels.
    """
    if ordering.n != table.n:
        raise InvalidInputError(
            f"ordering on {ordering.n} elements cannot present a table of order {table.n}"
        )
    perm = np.array(ordering.perm) - 1
    return CayleyTable._of_grid(table.grid[np.ix_(perm, perm)])


def _cell_bytes(table: CayleyTable, sep: bytes) -> bytes:
    """Each cell's decimal digits, then sep, or a line end in a row's last
    column.  Looked up rather than formatted once per cell: one zero-padded
    row of bytes per value and ending, taken for every cell at once, and the
    padding dropped."""
    n = table.n
    width = len(str(n)) + 1
    lookup = b"".join((b"%d" % v + end).ljust(width, b"\0") for end in (sep, b"\n") for v in range(1, n + 1))
    rows = np.frombuffer(lookup, np.uint8).reshape(2 * n, width)
    cells = np.take(rows, table.grid, axis=0)   # [row, column, byte]
    cells[:, -1] = np.take(rows, table.grid[:, -1] + n, axis=0)
    return cells.tobytes().translate(None, b"\0")


def serialize(obj: CayleyTable | KSequence, fmt: str = "json") -> str:
    """Canonical representation of a table or sequence, stable byte for byte."""
    if fmt == "json":
        if isinstance(obj, CayleyTable):
            # The bytes of json.dumps({"n": n, "table": rows}, separators=(",", ":")).
            rows = _cell_bytes(obj, b",")[:-1].replace(b"\n", b"],[")
            return '{"n":%d,"table":[[%s]]}\n' % (obj.n, rows.decode())
        if isinstance(obj, KSequence):
            payload = {"n": obj.n, "k": obj.k, "seq": list(obj.seq)}
            return json.dumps(payload, separators=(",", ":")) + "\n"
        raise InvalidInputError(f"cannot serialize {type(obj).__name__}")
    if fmt == "text":
        if isinstance(obj, CayleyTable):
            return _cell_bytes(obj, b" ").decode()
        if isinstance(obj, KSequence):
            return f"{obj.n} {obj.k} : " + " ".join(str(v) for v in obj.seq) + "\n"
        raise InvalidInputError(f"cannot serialize {type(obj).__name__}")
    raise InvalidInputError(f"unknown format {fmt!r}, expected 'json' or 'text'")


def _sniff_format(text: str) -> str:
    stripped = text.lstrip()
    return "json" if stripped.startswith("{") else "text"


def _json_payload(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
    if not isinstance(payload, dict):
        raise ParseError("expected a JSON object")
    return payload


def _int_list(values, what: str) -> list[int]:
    if not isinstance(values, list):
        raise ParseError(f"{what} must be a list")
    if set(map(type, values)) <= {int}:
        return values
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParseError(f"{what} must contain integers, got {v!r}")
    return values


# The plain grammar, which parse_table reads straight into an array: text
# of ASCII digits, spaces, tabs and \n or \r\n line ends, and the compact
# JSON that serialize writes.  Everything else is read field by field.
_TEXT_BYTES = b"0123456789 \t\n"
_JSON_HEAD = re.compile(rb'\{"n":([1-9][0-9]{0,17}),"table":\[\[')
_JSON_ROW_BYTES = b"0123456789,[]"
# JSON rows as text lines: 1,2],[2,1 becomes "1 2\n \t2 1".
_JSON_AS_TEXT = bytes.maketrans(b",[]", b" \t\n")


def parse_table(text: str, fmt: str | None = None) -> CayleyTable:
    """Read a table from its JSON or line-per-row text form.

    Input in the plain grammar goes from bytes to an array in numpy; any
    other input, and any table the array path does not take as it stands,
    is read field by field, which names the first bad field.  Both give the
    same table, or the same error, on the same input.
    """
    fmt = fmt or _sniff_format(text)
    if fmt not in ("json", "text"):
        raise InvalidInputError(f"unknown format {fmt!r}, expected 'json' or 'text'")
    grid = _plain_grid(text, fmt)
    if grid is not None:
        return CayleyTable(len(grid), grid)
    return _parse_fields(text, fmt)


def _plain_grid(text: str, fmt: str) -> np.ndarray | None:
    """The cells of a table in the plain grammar as an int64 (n, n) array;
    None when the input is not plain, its rows are not n rows of n fields,
    or a value does not fit in int64.

    The one error it raises is the BoundError for an order over the bound,
    before any cell is converted: plain input is well-formed and all its
    fields are integers, so that is the first error _parse_fields raises
    on it too.  A value outside 1..n is left for CayleyTable to name, as
    it names it on the rows _parse_fields reads.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if fmt == "json":
        head = _JSON_HEAD.match(data)
        rows = data.rstrip(b" \t\n\r")
        if head is None or not rows.endswith(b"]]}"):
            return None
        rows = rows[head.end():-3]
        if rows.translate(None, _JSON_ROW_BYTES):
            return None
        data = rows.translate(_JSON_AS_TEXT)
    else:
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n")
        if data.translate(None, _TEXT_BYTES):
            return None
    chars = np.frombuffer(data, np.uint8)
    digit = chars >= ord("0")
    starts = np.flatnonzero(digit[1:] > digit[:-1]) + 1
    if digit[:1].any():
        starts = np.concatenate(([0], starts))
    breaks = np.flatnonzero(chars == ord("\n"))
    # In JSON one comma (now " ") or row break "],[" (now "\n \t") between each
    # two fields, none starting with 0.  Once the rows start and end with a
    # digit and each break has one on both sides, the other gaps hold the
    # other non-digit bytes: one each if the counts agree, a space if no tab
    # is left.  The clip only moves bytes of a break ending the rows: it fails.
    if fmt == "json":
        around = np.take(chars, breaks[:, None] + np.arange(-1, 4), mode="clip")   # [break, byte -1..3]
        if not (
            len(chars) and digit[0] and digit[-1]
            and (around[:, 1:4] == np.frombuffer(b"\n \t", np.uint8)).all() and (around[:, [0, 4]] >= ord("0")).all()
            and len(chars) - np.count_nonzero(digit) == len(starts) - 1 + 2 * len(breaks)
            and np.count_nonzero(chars == ord("\t")) == len(breaks)
            and not (chars[starts] == ord("0")).any()
        ):
            return None
    per_line = np.diff(np.searchsorted(starts, breaks), prepend=0, append=len(starts))
    widths = per_line[per_line > 0]
    n = int(head[1]) if fmt == "json" else len(widths)
    if n == 0:
        return None
    _check_order(n)
    if len(widths) != n or (widths != n).any():
        return None
    grid = _cell_array(data, n)
    # A value with more digits than int64 holds reads as its maximum.
    return grid if grid.max() < np.iinfo(np.int64).max else None


def _cell_array(data: bytes, n: int) -> np.ndarray:
    """The n * n integers of data, separated by whitespace, row by row."""
    return np.fromstring(data, np.int64, count=n * n, sep=" ").reshape(n, n)


def _parse_fields(text: str, fmt: str) -> CayleyTable:
    """parse_table one field at a time, naming the first bad one."""
    if fmt == "json":
        payload = _json_payload(text)
        if set(payload) != {"n", "table"}:
            raise ParseError(f"table object needs keys n and table, got {sorted(payload)}")
        n = payload["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ParseError(f"n must be an integer, got {n!r}")
        rows = payload["table"]
        if not isinstance(rows, list):
            raise ParseError("table must be a list of rows")
        return CayleyTable(n, [_int_list(row, "row") for row in rows])
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


def parse_sequence(text: str, fmt: str | None = None) -> KSequence:
    """Read a step sequence from its JSON or "n k : a_1 .. a_n" text form."""
    fmt = fmt or _sniff_format(text)
    if fmt == "json":
        payload = _json_payload(text)
        if set(payload) != {"n", "k", "seq"}:
            raise ParseError(f"sequence object needs keys n, k and seq, got {sorted(payload)}")
        for key in ("n", "k"):
            if isinstance(payload[key], bool) or not isinstance(payload[key], int):
                raise ParseError(f"{key} must be an integer, got {payload[key]!r}")
        return KSequence(payload["n"], payload["k"], tuple(_int_list(payload["seq"], "seq")))
    if fmt == "text":
        line = text.strip()
        if not line:
            raise ParseError("empty sequence input")
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError("sequence text needs the form 'n k : a_1 .. a_n'", line=1)
        try:
            n, k = (int(f) for f in head.split())
        except ValueError:
            raise ParseError(f"expected 'n k' before the colon, got {head.strip()!r}", line=1) from None
        try:
            seq = tuple(int(f) for f in tail.split())
        except ValueError:
            raise ParseError("sequence entries must be integers", line=1) from None
        return KSequence(n, k, seq)
    raise InvalidInputError(f"unknown format {fmt!r}, expected 'json' or 'text'")
