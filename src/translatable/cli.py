"""Command-line front end for the library.

Each subcommand reads exact integer data, runs one library operation and
prints a deterministic rendering, text by default or JSON with --format
json.  Each subcommand and construct variant declares the flags it reads,
the ones it needs as required, and takes a single-valued flag once.  Exit
status 0 means the operation succeeded with a positive answer, 1 that the
mathematics said no (a checked identity fails, no translation step exists,
a construction is obstructed, a search finds nothing), 2 that the
invocation itself was unusable (argparse's refusals included, each one
"translatable: <command>: ..." line) and 3 that the program failed
internally, a fault in the code rather than an answer.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
import traceback

from .constructions import (
    LabeledUnion,
    UnionSpec,
    block_product_table,
    cancellative_semigroups,
    constant_column_semigroups,
    embed,
    idempotent_groupoid,
    left_unitary_groupoid,
    pair_union,
    union_same_step,
    union_shifted_step,
)
from .core import (
    BoundError,
    CayleyTable,
    ConstructionError,
    InvalidInputError,
    KSequence,
    ParseError,
    PreconditionError,
    TranslatableError,
    parse_table,
    serialize,
)
from .properties import (
    LCOND_NAMES,
    PROPERTY_NAMES,
    idempotent_elements,
    lcond_check,
    report,
)
from .campaigns import THEOREMS
from .search import SequenceFilter, campaign_ids, catalog, enumerate_sequences, verify, workers
from .structure import decompose, ideals, iso_idempotent, iso_left_unitary, iso_to_cyclic
from .translation import (
    all_rotated_presentations,
    detect,
    dual,
    dual_step,
    table_from_sequence,
)

# Each construct variant, the flags it needs and its builder, which reads
# them from the parsed arguments; embed also takes an optional --n, checked
# against its --seq.  _cmd_construct renders what a builder returns by its
# type.
CONSTRUCT_VARIANTS = {
    "left-unitary": (("--n", "--k"), lambda a: left_unitary_groupoid(a.n, a.k)),
    "idempotent": (("--n", "--k"), lambda a: idempotent_groupoid(a.n, a.k)),
    "cancellative-semigroups": (("--n", "--k"), lambda a: cancellative_semigroups(a.n, a.k)),
    "block-product": (("--k",), lambda a: block_product_table(a.k)),
    "constant-column": (("--n", "--k"), lambda a: constant_column_semigroups(a.n, a.k)),
    "embed": (("--t", "--k", "--seq"), lambda a: embed(_sequence_from_args(a), a.t)),
    "union-same-step": (("--n", "--k", "--t"), lambda a: union_same_step(UnionSpec(a.n, a.k, a.t))),
    "union-shifted-step": (("--n", "--k", "--t"), lambda a: union_shifted_step(UnionSpec(a.n, a.k, a.t))),
    "pair-union": (("--k",), lambda a: pair_union(a.k)),
}

OK = 0
NEGATIVE = 1
USAGE = 2
INTERNAL = 3


def _json_line(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _ints(raw: str, what: str) -> tuple[int, ...]:
    fields = raw.replace(",", " ").split()
    values = []
    for field in fields:
        try:
            values.append(int(field))
        except ValueError:
            raise InvalidInputError(f"{what} must hold integers, got {field!r}") from None
    if not values:
        raise InvalidInputError(f"{what} is empty")
    return tuple(values)


def _sequence_from_args(args, raw: str | None = None) -> KSequence:
    """The KSequence of raw, by default the command's --seq, at its --k."""
    values = _ints(args.seq if raw is None else raw, "--seq")
    n = args.n if args.n is not None else len(values)
    if n != len(values):
        raise InvalidInputError(f"--n {n} does not match the {len(values)} values in --seq")
    return KSequence(n, args.k, values)


def _table_from_args(args) -> CayleyTable:
    if args.table:
        ignored = [f"--{name}" for name in ("n", "k", "seq") if getattr(args, name) is not None]
        if ignored:
            raise InvalidInputError(f"{args.command} --table takes no {' or '.join(ignored)}")
        if args.table == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.table, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise InvalidInputError(f"cannot read {args.table}: {exc.strerror}") from None
        return parse_table(text)
    if args.seq is None or args.k is None:
        raise InvalidInputError(f"{args.command} needs --table or --k/--seq")
    return table_from_sequence(_sequence_from_args(args))


@contextlib.contextmanager
def _output(args):
    """The --out file, opened for this command, or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            yield handle
    else:
        yield sys.stdout


def _emit(args, text, payload: dict | None = None, table: CayleyTable | None = None) -> None:
    """Write text, or under --format json the payload as one JSON line.  A
    table or a first row given as text stands for both: serialize writes it
    in the format.  A table given apart is rendered only in the format
    written: its text after the text, its rows as the payload's last key."""
    if isinstance(text, (CayleyTable, KSequence)):
        text = serialize(text, args.format)
    elif payload is not None and args.format == "json":
        text = _json_line(payload if table is None else {**payload, "table": (table.grid + 1).tolist()})
    elif table is not None:
        text += serialize(table, "text")
    with _output(args) as handle:
        handle.write(text)


def _emit_sequences(args, seqs) -> int:
    """Each first row on a line of its own, or one JSON line listing them."""
    head = {"n": seqs[0].n, "k": seqs[0].k} if seqs else {}
    payload = {**head, "count": len(seqs), "seqs": [list(s.seq) for s in seqs]}
    _emit(args, "".join(serialize(s, "text") for s in seqs), payload)
    return OK if seqs else NEGATIVE


# -- subcommands -------------------------------------------------------------


def _cmd_build(args) -> int:
    _emit(args, table_from_sequence(_sequence_from_args(args)))
    return OK


def _cmd_detect(args) -> int:
    table = _table_from_args(args)
    steps = sorted(detect(table))
    text = " ".join(str(s) for s in steps) + "\n" if steps else "none\n"
    _emit(args, text, {"n": table.n, "steps": steps})
    return OK if steps else NEGATIVE


def _cmd_check(args) -> int:
    table = _table_from_args(args)
    names = list(args.property) if args.property else None
    verdicts = report(table, names)
    results = {
        name: {"holds": ok, "witness": w.as_dict() if w else None}
        for name, (ok, w) in verdicts.items()
    }
    lines = []
    for name, (ok, witness) in verdicts.items():
        if ok:
            lines.append(f"{name}: yes\n")
        else:
            at = " ".join(str(e) for e in witness.elements)
            lines.append(f"{name}: no ({witness.tag} at {at}: {witness.lhs} != {witness.rhs})\n")
    _emit(args, "".join(lines), {"n": table.n, "results": results})
    return OK if all(ok for ok, _ in verdicts.values()) else NEGATIVE


def _cmd_lcond(args) -> int:
    seq = _sequence_from_args(args)
    names = list(args.property) if args.property else list(LCOND_NAMES)
    verdicts = {name: lcond_check(seq, name) for name in names}
    text = "".join(f"{name}: {'yes' if ok else 'no'}\n" for name, ok in verdicts.items())
    _emit(args, text, {"n": seq.n, "k": seq.k, "results": verdicts})
    return OK if all(verdicts.values()) else NEGATIVE


def _cmd_construct(args) -> int:
    built = CONSTRUCT_VARIANTS[args.variant][1](args)
    if isinstance(built, (CayleyTable, KSequence)):
        _emit(args, built)
    elif isinstance(built, list):
        return _emit_sequences(args, built)
    elif isinstance(built, LabeledUnion):
        table, spec = built.table, built.spec
        lines = [f"order: {table.n}\n", f"step: {built.step}\n"]
        for i, members in enumerate(built.copies(), start=1):
            lines.append(f"copy {i}: " + " ".join(str(m) for m in members) + "\n")
        payload = {
            "n": spec.n,
            "k": spec.k,
            "t": spec.t,
            "order": table.n,
            "step": built.step,
            "copies": [list(c) for c in built.copies()],
        }
        _emit(args, "".join(lines), payload, table)
    else:
        table, mapping = built  # embed
        pairs = " ".join(f"{s}->{mapping[s]}" for s in sorted(mapping))
        payload = {
            "n": table.n,
            "t": args.t,
            "mapping": [[s, mapping[s]] for s in sorted(mapping)],
        }
        _emit(args, f"map: {pairs}\n", payload, table)
    return OK


def _cmd_dual(args) -> int:
    if args.table or args.seq:
        _emit(args, dual(_table_from_args(args)))
        return OK
    if args.n is None or args.k is None:
        raise InvalidInputError("dual needs --table, --k/--seq or --n/--k")
    step = dual_step(args.n, args.k)
    tail = " (alterable)" if step.alterable else ""
    text = "kstar: none\n" if step.kstar is None else f"kstar: {step.kstar}{tail}\n"
    _emit(args, text, {"n": step.n, "k": step.k, "kstar": step.kstar, "alterable": step.alterable})
    return OK if step.kstar is not None else NEGATIVE


def _cmd_rotate(args) -> int:
    seq = _sequence_from_args(args)
    rotations = all_rotated_presentations(seq)
    lines = []
    for ordering, rotated in rotations:
        left = " ".join(str(p) for p in ordering.perm)
        right = " ".join(str(v) for v in rotated.seq)
        lines.append(f"{left} | {right}\n")
    listed = [{"ordering": list(o.perm), "seq": list(s.seq)} for o, s in rotations]
    _emit(args, "".join(lines), {"n": seq.n, "k": seq.k, "rotations": listed})
    return OK


def _cmd_decompose(args) -> int:
    seq = _sequence_from_args(args)
    table = table_from_sequence(seq)
    dec = decompose(table, seq)
    lines = [
        f"m: {dec.m}\n",
        f"t: {dec.t}\n",
        "idempotents: " + " ".join(str(e) for e in sorted(dec.idempotents)) + "\n",
    ]
    for comp, gen in zip(dec.components, dec.generators):
        members = " ".join(str(c) for c in comp)
        lines.append(f"component: {members} (generator {gen})\n")
    payload = {
        "n": seq.n,
        "k": seq.k,
        "m": dec.m,
        "t": dec.t,
        "idempotents": sorted(dec.idempotents),
        "components": [list(c) for c in dec.components],
        "generators": list(dec.generators),
    }
    _emit(args, "".join(lines), payload)
    return OK


def _cmd_idempotents(args) -> int:
    table = _table_from_args(args)
    found = list(idempotent_elements(table))
    text = " ".join(str(e) for e in found) + "\n" if found else "none\n"
    _emit(args, text, {"n": table.n, "idempotents": found})
    return OK if found else NEGATIVE


def _mapping_payload(args, n: int, iso) -> int:
    if iso is None:
        _emit(args, "none\n", {"kind": args.kind, "n": n, "mapping": None})
        return NEGATIVE
    pairs = " ".join(f"{x}->{iso.mapping[x - 1]}" for x in range(1, n + 1))
    # An iso_* function returns a map only once it holds on every product.
    payload = {"kind": args.kind, "n": n, "mapping": list(iso.mapping), "verified": True}
    _emit(args, f"map: {pairs}\n", payload)
    return OK


def _cmd_iso(args) -> int:
    rows = args.seq or []
    if args.kind == "cyclic":
        if len(rows) > 1:
            raise InvalidInputError(f"iso --kind cyclic takes --seq once, not {len(rows)} times")
        args.seq = rows[0] if rows else None
        table = _table_from_args(args)
        return _mapping_payload(args, table.n, iso_to_cyclic(table))
    if args.table:
        raise InvalidInputError(f"iso --kind {args.kind} reads two --seq rows, not --table")
    if len(rows) != 2 or args.k is None:
        raise InvalidInputError(f"iso --kind {args.kind} needs --k and --seq twice, source then target")
    first, second = (_sequence_from_args(args, raw) for raw in rows)
    builder = iso_idempotent if args.kind == "idempotent" else iso_left_unitary
    return _mapping_payload(args, first.n, builder(first, second))


def _cmd_ideals(args) -> int:
    table = _table_from_args(args)
    found = ideals(table, args.side)
    lines = []
    for ideal in found:
        members = " ".join(str(e) for e in ideal.elements)
        tail = " (semiprime)" if ideal.semiprime else ""
        lines.append(f"{members}{tail}\n")
    listed = [{"elements": list(i.elements), "semiprime": i.semiprime} for i in found]
    _emit(args, "".join(lines), {"n": table.n, "side": args.side, "ideals": listed})
    return OK


def _cmd_enumerate(args) -> int:
    filt = SequenceFilter(
        permutation_only=args.permutation_only,
        required=tuple(args.require or ()),
        forbidden=tuple(args.forbid or ()),
    )
    return _emit_sequences(args, list(enumerate_sequences(args.n, args.k, filt)))


def _cmd_catalog(args) -> int:
    census = catalog(args.n, args.permutation_only)
    entries = sorted((k, tuple(sorted(flags)), count) for (k, flags), count in census.items())
    lines = []
    for k, flags, count in entries:
        label = ",".join(flags) if flags else "-"
        lines.append(f"k={k} [{label}] {count}\n")
    listed = [{"k": k, "flags": list(flags), "count": count} for k, flags, count in entries]
    _emit(args, "".join(lines), {"n": args.n, "entries": listed})
    return OK


def _cmd_verify(args) -> int:
    names = list(args.theorem)
    if names == ["list"]:
        _emit(args, "".join(f"{cid}: {THEOREMS[cid].summary}\n" for cid in campaign_ids()))
        return OK
    # Every id is checked before the first campaign writes a line.
    for name in names:
        if name not in THEOREMS:
            alone = " (list is taken only alone)" if name == "list" else ""
            raise InvalidInputError(f"unknown campaign {name!r}{alone}")
    started = time.perf_counter()
    failed = 0
    with _output(args) as handle, workers(args.jobs):

        def write(payload: dict) -> None:
            handle.write(_json_line(payload))
            handle.flush()

        for name in names:
            rep = verify(
                name,
                max_n=args.max_n,
                jobs=args.jobs,
                on_result=lambda result: write(result.as_dict()),
            )
            write({"theorem": rep.theorem_id, "instances": rep.instances_checked,
                   "failures": len(rep.failures), "status": "pass" if rep.passed else "fail"})
            if not rep.passed:
                failed += 1
    elapsed = time.perf_counter() - started
    print(f"{len(names)} campaign(s), {failed} failing, {elapsed:.1f}s", file=sys.stderr)
    return OK if failed == 0 else NEGATIVE


# -- parser ------------------------------------------------------------------


class _Once(argparse.Action):
    """Store a single-valued flag, refusing it a second time."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given twice")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals reach main() as InvalidInputError, naming the command.

    A flag is taken only as spelled (--t must not read as --table), a flag
    given before the command or variant it belongs to is refused by name,
    and the innermost parser refuses what is left over.
    """

    _leading = None  # the dest of this parser's command or variant positional

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.register("action", None, _Once)

    def add_subparsers(self, **kwargs):
        self._leading = kwargs["dest"]
        return super().add_subparsers(**kwargs)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        flag = args[0].partition("=")[0] if args else ""
        is_flag = flag[:1] == "-" and not flag[1:2].isdigit()
        if self._leading and is_flag and flag not in self._option_string_actions:
            # Else argparse reads the flag's value as the command or variant.
            self.error(f"{flag} must come after the {self._leading}")
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra

    def error(self, message):
        command = self.prog.partition(" ")[2]
        raise InvalidInputError(f"{command}: {message}" if command else message)


# One parser serves every main() call, since parse_args keeps no state in
# it.  It is built on the first call, not at import, so that it holds none
# of the heap while a process prepares large inputs before its first
# command: built at import, its 24 parsers (about 120 KiB) left the
# single-table benchmark about 1 MiB more peak RSS in every run.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="translatable",
        description="Exact tools for groupoids whose rows advance by a fixed step.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--n": {"type": int, "help": "order of the groupoid"},
        "--k": {"type": int, "help": "translation step"},
        "--seq": {"metavar": "VALUES", "help": "first row, comma or space separated"},
        "--t": {"type": int, "help": "copies to glue, or scale factor for embed"},
        "--table": {"metavar": "FILE", "help": "table file, '-' for stdin"},
    }

    # A command declares only the flags it reads, the ones it needs as
    # required, so argparse refuses the rest.
    def common(p, *needs, reads=()):
        for flag in needs + reads:
            p.add_argument(flag, required=flag in needs, **flags[flag])
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
        return p

    table = ("--n", "--k", "--seq", "--table")  # a table file, or a first row and step
    row = ("--k", "--seq")

    common(sub.add_parser("build", help="table from a first row and step"), *row, reads=("--n",))
    common(sub.add_parser("detect", help="every step the table is translatable by"), reads=table)
    p = common(sub.add_parser("check", help="test identities on a table"), reads=table)
    p.add_argument("--property", action="append", choices=PROPERTY_NAMES, metavar="NAME")
    p = common(sub.add_parser("lcond", help="closed-form identity tests on a first row"), *row, reads=("--n",))
    p.add_argument("--property", action="append", choices=LCOND_NAMES, metavar="NAME")
    variants = sub.add_parser("construct", help="build one of the stock families").add_subparsers(
        dest="variant", required=True
    )
    for variant, (needs, _) in CONSTRUCT_VARIANTS.items():
        common(variants.add_parser(variant), *needs, reads=("--n",) if variant == "embed" else ())
    common(sub.add_parser("dual", help="transposed table, or the dual step for n and k"), reads=table)
    common(sub.add_parser("rotate", help="all rotated presentations of a first row"), *row, reads=("--n",))
    p = sub.add_parser("decompose", help="split a cancellative semigroup into cyclic groups")
    common(p, *row, reads=("--n",))
    common(sub.add_parser("idempotents", help="elements with x*x = x"), reads=table)
    p = sub.add_parser("iso", help="explicit isomorphism between two presentations")
    common(p, reads=("--n", "--k", "--table"))
    p.add_argument("--kind", choices=("idempotent", "left-unitary", "cyclic"), required=True)
    p.add_argument("--seq", action="append", metavar="VALUES",
                   help="first row; twice, source then target, for idempotent and left-unitary")
    p = common(sub.add_parser("ideals", help="principal one-sided ideals"), reads=table)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p = common(sub.add_parser("enumerate", help="first rows passing a property filter"), "--n", "--k")
    p.add_argument("--permutation-only", action="store_true")
    p.add_argument("--require", action="append", choices=PROPERTY_NAMES, metavar="NAME")
    p.add_argument("--forbid", action="append", choices=PROPERTY_NAMES, metavar="NAME")
    p = common(sub.add_parser("catalog", help="census of property fingerprints at one order"), "--n")
    p.add_argument("--permutation-only", action="store_true")
    p = sub.add_parser("verify", help="run an exhaustive verification campaign")
    p.add_argument("--theorem", action="append", required=True, metavar="ID")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", metavar="FILE")

    return parser


HANDLERS = {
    "build": _cmd_build,
    "detect": _cmd_detect,
    "check": _cmd_check,
    "lcond": _cmd_lcond,
    "construct": _cmd_construct,
    "dual": _cmd_dual,
    "rotate": _cmd_rotate,
    "decompose": _cmd_decompose,
    "idempotents": _cmd_idempotents,
    "iso": _cmd_iso,
    "ideals": _cmd_ideals,
    "enumerate": _cmd_enumerate,
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return HANDLERS[args.command](args)
    except ConstructionError as exc:
        print(f"translatable: {exc}", file=sys.stderr)
        return NEGATIVE
    except (ParseError, PreconditionError, BoundError, InvalidInputError) as exc:
        print(f"translatable: {exc}", file=sys.stderr)
        return USAGE
    except TranslatableError as exc:
        print(f"translatable: {exc}", file=sys.stderr)
        return NEGATIVE
    except MemoryError as exc:
        # An input too large for this machine's memory is unusable, not a "no".
        detail = f": {exc}" if str(exc) else ""
        print(f"translatable: out of memory{detail}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        # A fault in the program must not read as "the mathematics said no";
        # its traceback is kept for whoever mends it.
        traceback.print_exc()
        detail = f": {exc}" if str(exc) else ""
        print(f"translatable: internal error: {type(exc).__name__}{detail}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
