"""Exact modular arithmetic and the basic value types.

Everything here works on 1-based residues: the class of 0 modulo n is
represented by n itself, so computed values always land in 1..n.  A Cayley
table is a full n-by-n multiplication grid over the elements 1..n, a step
sequence is a first row together with the rotation step k, and an ordering
is a permutation used to present the same grid with rows and columns
rearranged.  All types are immutable after construction and safe to share
across worker processes.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import cached_property

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
    """A table or enumeration exceeds the configured resource bound."""


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


def _check_step(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise InvalidInputError(f"step must satisfy 1 <= k <= n-1, got k={k} for n={n}")


@dataclass(frozen=True)
class CayleyTable:
    """An n-by-n multiplication table over 1..n, row-major and 1-based."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_order(self.n)
        if len(self.rows) != self.n:
            raise InvalidInputError(f"expected {self.n} rows, got {len(self.rows)}")
        # Bulk check first: row lengths, then the least and largest of the
        # distinct values.  The cell loop below only runs to name the first
        # bad cell in row-major order.
        if set(map(len, self.rows)) == {self.n}:
            values = set().union(*self.rows)
            if min(values) >= 1 and max(values) <= self.n:
                return
        for i, row in enumerate(self.rows, start=1):
            if len(row) != self.n:
                raise InvalidInputError(f"row {i} has {len(row)} entries, expected {self.n}")
            for j, value in enumerate(row, start=1):
                if not 1 <= value <= self.n:
                    raise InvalidInputError(
                        f"entry at ({i}, {j}) is {value}, outside 1..{self.n}"
                    )

    @classmethod
    def from_rows(cls, rows) -> CayleyTable:
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        return cls(len(rows), rows)

    @cached_property
    def grid(self) -> np.ndarray:
        """The cells as a read-only 0-based array (int16 below order 32768), built once."""
        dtype = np.int16 if self.n < 32768 else np.int32
        cells = np.fromiter(itertools.chain.from_iterable(self.rows), dtype, self.n * self.n)
        cells -= 1
        cells.flags.writeable = False
        return cells.reshape(self.n, self.n)

    def entry(self, i: int, j: int) -> int:
        """Product of i and j (both 1-based)."""
        if not 1 <= i <= self.n or not 1 <= j <= self.n:
            raise IndexError(f"({i}, {j}) outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise IndexError(f"row {i} outside 1..{self.n}")
        return self.rows[i - 1]

    def column(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.n:
            raise IndexError(f"column {j} outside 1..{self.n}")
        return tuple(row[j - 1] for row in self.rows)


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
    perm = ordering.perm
    return CayleyTable(
        table.n,
        tuple(tuple(table.rows[p - 1][q - 1] for q in perm) for p in perm),
    )


def serialize(obj: CayleyTable | KSequence, fmt: str = "json") -> str:
    """Canonical representation of a table or sequence, stable byte for byte."""
    if fmt == "json":
        if isinstance(obj, CayleyTable):
            payload = {"n": obj.n, "table": [list(row) for row in obj.rows]}
        elif isinstance(obj, KSequence):
            payload = {"n": obj.n, "k": obj.k, "seq": list(obj.seq)}
        else:
            raise InvalidInputError(f"cannot serialize {type(obj).__name__}")
        return json.dumps(payload, separators=(",", ":")) + "\n"
    if fmt == "text":
        if isinstance(obj, CayleyTable):
            return "".join(" ".join(str(v) for v in row) + "\n" for row in obj.rows)
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
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParseError(f"{what} must contain integers, got {v!r}")
        out.append(v)
    return out


def parse_table(text: str, fmt: str | None = None) -> CayleyTable:
    """Read a table from its JSON or line-per-row text form."""
    fmt = fmt or _sniff_format(text)
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
        return CayleyTable(n, tuple(tuple(_int_list(row, "row")) for row in rows))
    if fmt == "text":
        rows = []
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ParseError("empty table input")
        for lineno, line in enumerate(lines, start=1):
            fields = line.split()
            row = []
            for colno, field in enumerate(fields, start=1):
                try:
                    row.append(int(field))
                except ValueError:
                    raise ParseError(
                        f"expected an integer, got {field!r}", line=lineno, column=colno
                    ) from None
            rows.append(tuple(row))
        return CayleyTable(len(rows), tuple(rows))
    raise InvalidInputError(f"unknown format {fmt!r}, expected 'json' or 'text'")


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
