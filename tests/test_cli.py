"""Exit codes, output shapes and determinism of the command line."""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from translatable import batch, cli, properties, search, structure
from translatable.cli import main
from translatable.properties import left_unitary_characterize

Z4_TEXT = "1 2 3 4\n2 3 4 1\n3 4 1 2\n4 1 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_text_golden(capsys):
    code, out, _ = run(capsys, "build", "--k", "3", "--seq", "1 2 3 4")
    assert code == 0
    assert out == Z4_TEXT


def test_build_json_golden(capsys):
    code, out, _ = run(capsys, "build", "--k", "3", "--seq", "1,2,3,4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 4,
        "table": [[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2], [4, 1, 2, 3]],
    }


def test_detect_positive_and_negative(capsys, tmp_path):
    code, out, _ = run(capsys, "detect", "--k", "3", "--seq", "1 2 3 4")
    assert (code, out) == (0, "3\n")
    blocked = tmp_path / "reordered.txt"
    blocked.write_text("1 3 4 2\n3 1 2 4\n4 2 3 1\n2 4 1 3\n")
    code, out, _ = run(capsys, "detect", "--table", str(blocked))
    assert (code, out) == (1, "none\n")
    code, out, _ = run(capsys, "detect", "--table", str(blocked), "--format", "json")
    assert code == 1
    assert json.loads(out) == {"n": 4, "steps": []}


def test_detect_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(Z4_TEXT))
    code, out, _ = run(capsys, "detect", "--table", "-")
    assert (code, out) == (0, "3\n")


def test_check_verdicts_and_exit(capsys):
    code, out, _ = run(
        capsys, "check", "--k", "3", "--seq", "1 2 3 4", "--property", "commutative"
    )
    assert code == 0 and out == "commutative: yes\n"
    code, out, _ = run(
        capsys,
        "check",
        "--k",
        "3",
        "--seq",
        "1 2 3 4",
        "--property",
        "idempotent",
        "--format",
        "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["results"]["idempotent"]["holds"] is False
    assert payload["results"]["idempotent"]["witness"]["lhs"] == 3


def test_check_rejects_unknown_property(capsys):
    code, out, err = run(capsys, "check", "--k", "3", "--seq", "1 2 3 4", "--property", "warm")
    assert (code, out) == (2, "")
    assert err.startswith("translatable: check: ") and "--property" in err


def test_lcond_requires_permutation_row(capsys):
    code, _, err = run(capsys, "lcond", "--k", "2", "--seq", "1 1 2 2")
    assert code == 2
    assert "permutation" in err


@pytest.mark.parametrize("command", ["check", "lcond"])
@pytest.mark.parametrize("name", ["medial", "alterable"])
def test_four_variable_identities_refuse_order_67_before_any_work(capsys, monkeypatch, command, name):
    row = " ".join(map(str, range(1, 68)))
    code, out, err = run(capsys, command, "--k", "66", "--seq", row, "--property", name)
    if command == "lcond":
        # The closed forms are decided on three planes at every order.
        holds = left_unitary_characterize(67, 66)[name]
        assert (code, out, err) == (0 if holds else 1, f"{name}: {'yes' if holds else 'no'}\n", "")
        return
    assert (code, out) == (2, "")
    assert err == (
        f"translatable: {name} scan at order 67 needs 20151121 cells, "
        "over the four-variable scan limit of 20000000\n"
    )
    # Listed after a property that check could decide, the identity is still
    # refused before any verdict: at order 1024 left-modular alone takes
    # seconds.
    calls = []
    original = properties.check
    monkeypatch.setattr(properties, "check", lambda *args: calls.append(args) or original(*args))
    row = " ".join(map(str, range(1, 1025)))
    code, out, err = run(capsys, command, "--k", "1023", "--seq", row, "--property", "left-modular", "--property", name)
    assert (code, out, len(calls)) == (2, "", 0)
    assert err == (
        f"translatable: {name} scan at order 1024 needs 1099511627776 cells, "
        "over the four-variable scan limit of 20000000\n"
    )


def test_construct_obstruction_exits_one(capsys):
    code, _, err = run(capsys, "construct", "idempotent", "--n", "6", "--k", "3")
    assert code == 1
    assert "collide" in err


def test_construct_cancellative_list(capsys):
    code, out, _ = run(
        capsys, "construct", "cancellative-semigroups", "--n", "6", "--k", "2"
    )
    assert code == 0
    assert out.splitlines() == [
        "6 2 : 1 2 3 4 5 6",
        "6 2 : 3 4 5 6 1 2",
        "6 2 : 5 6 1 2 3 4",
    ]
    code, out, _ = run(
        capsys, "construct", "cancellative-semigroups", "--n", "5", "--k", "2"
    )
    assert code == 1 and out == ""


def test_construct_union_payload(capsys):
    code, out, _ = run(
        capsys,
        "construct",
        "union-same-step",
        "--n",
        "12",
        "--k",
        "8",
        "--t",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 24 and payload["step"] == 8
    assert len(payload["copies"]) == 2


def test_missing_flags_exit_two(capsys):
    code, _, err = run(capsys, "construct", "left-unitary", "--k", "2")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "build", "--seq", "1 2 3")
    assert code == 2 and "--k" in err
    code, _, err = run(capsys, "build", "--k", "1", "--seq", "1 2 x")
    assert code == 2


# Each asks for a table far past the bound (block-product k = 3000 is
# order 9003000, about 590 TiB of cells), which is refused before any of
# it is built.
@pytest.mark.parametrize(
    "argv",
    [
        ("block-product", "--k", "3000"),
        ("union-same-step", "--n", "1000000", "--k", "999999", "--t", "1"),
        ("union-same-step", "--n", "1024", "--k", "1023", "--t", "1023"),
        ("pair-union", "--k", "3000"),
        ("embed", "--t", str(10**12), "--k", "1", "--seq", "1 2"),
    ],
)
def test_constructions_past_the_order_bound_exit_two(capsys, argv):
    code, out, err = run(capsys, "construct", *argv)
    assert code == 2 and out == ""
    assert "exceeds the bound" in err


@pytest.mark.parametrize("message", ["Unable to allocate 29.4 MiB for an array", ""])
def test_memory_error_exits_two_without_a_traceback(capsys, monkeypatch, message):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setitem(cli.HANDLERS, "build", exhausted)
    code, out, err = run(capsys, "build", "--k", "3", "--seq", "1 2 3 4")
    assert code == 2 and out == ""
    assert err == f"translatable: out of memory{': ' + message if message else ''}\n"


def broken_build(message):
    def patch(monkeypatch):
        def broken(args):
            raise RuntimeError(message)

        monkeypatch.setitem(cli.HANDLERS, "build", broken)

    return patch


def broken_products(monkeypatch):
    # The library's own check of its cyclic map finds a wrong product.
    monkeypatch.setattr(structure, "_first_broken_product", lambda *args: (1, 2))


@pytest.mark.parametrize(("argv", "patch", "frame", "last"), [
    (("build", "--k", "3", "--seq", "1 2 3 4"), broken_build(""), "in broken", "RuntimeError"),
    (("build", "--k", "3", "--seq", "1 2 3 4"), broken_build("table cache corrupt"), "in broken",
     "RuntimeError: table cache corrupt"),
    (("iso", "--kind", "cyclic", "--k", "3", "--seq", "1 2 3 4"), broken_products, "in iso_to_cyclic",
     "VerificationError: cyclic map fails on the product 1*2"),
], ids=["runtime-error", "runtime-error-with-message", "verification-error"])
def test_internal_error_exits_three_and_names_the_exception(capsys, monkeypatch, argv, patch, frame, last):
    patch(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("Traceback (most recent call last):\n") and frame in err
    assert err.endswith(f"\ntranslatable: internal error: {last}\n")


def test_one_parser_serves_independent_calls(capsys):
    calls = [
        (("build", "--k", "3", "--seq", "1 2 3 4", "--format", "json"), 0, '{"n":4,'),
        (("build", "--k", "3", "--seq", "1 2 3 4"), 0, Z4_TEXT),
        (("check", "--k", "3", "--seq", "1 2 3 4", "--property", "commutative"), 0, "commutative: yes\n"),
        (("check", "--k", "3", "--seq", "1 2 3 4", "--property", "idempotent"), 1, "idempotent: no"),
        (("dual", "--n", "7", "--k", "3"), 0, "kstar: 5\n"),
        (("check", "--k", "3", "--seq", "1 2 3 4", "--property", "commutative"), 0, "commutative: yes\n"),
    ]
    for argv, want_code, want_out in calls:
        code, out, _ = run(capsys, *argv)
        assert code == want_code and out.startswith(want_out), argv
    # A flag given to one call (append or --format) does not leak into the next.
    code, out, _ = run(capsys, "check", "--k", "3", "--seq", "1 2 3 4")
    assert code == 1 and out.startswith("idempotent: no") and "commutative: yes" in out
    assert cli._parser.cache_info().currsize == 1 and cli._parser.cache_info().misses == 1


def test_dual_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "dual", "--n", "7", "--k", "3")
    assert (code, out) == (0, "kstar: 5\n")
    # Given a table, or a first row and step, dual writes the transpose.
    table = tmp_path / "t.txt"
    table.write_text("1 4 3 2\n3 2 1 4\n1 4 3 2\n3 2 1 4\n")
    transpose = "1 3 1 3\n4 2 4 2\n3 1 3 1\n2 4 2 4\n"
    assert run(capsys, "dual", "--table", str(table)) == (0, transpose, "")
    assert run(capsys, "dual", "--k", "2", "--seq", "1 4 3 2") == (0, transpose, "")
    code, out, _ = run(capsys, "dual", "--n", "6", "--k", "2")
    assert (code, out) == (1, "kstar: none\n")
    code, out, _ = run(capsys, "dual", "--n", "5", "--k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 5, "k": 2, "kstar": 3, "alterable": True}


def test_decompose_golden(capsys):
    code, out, _ = run(
        capsys, "decompose", "--k", "2", "--seq", "1 2 3 4 5 6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3 and payload["t"] == 2
    assert payload["idempotents"] == [1, 4]
    assert payload["components"] == [[1, 3, 5], [2, 4, 6]]


def test_idempotents_golden_bytes_and_exit(capsys):
    for seq, k, text, payload, code in (
        ("1 2 3 4 5 6", "2", "1 4\n", '{"n":6,"idempotents":[1,4]}\n', 0),
        ("2 1 1", "2", "none\n", '{"n":3,"idempotents":[]}\n', 1),
    ):
        assert run(capsys, "idempotents", "--k", k, "--seq", seq)[:2] == (code, text)
        assert run(capsys, "idempotents", "--k", k, "--seq", seq, "--format", "json")[:2] == (code, payload)


def test_iso_golden_and_negative(capsys):
    code, out, _ = run(
        capsys,
        "iso",
        "--kind",
        "left-unitary",
        "--k",
        "2",
        "--seq",
        "1 2 3 4 5 6",
        "--seq",
        "3 4 5 6 1 2",
    )
    assert code == 0
    assert out == "map: 1->5 2->6 3->1 4->2 5->3 6->4\n"
    code, out, _ = run(capsys, "iso", "--kind", "cyclic", "--k", "2", "--seq", "1 2 3 4 5 6")
    assert (code, out) == (1, "none\n")


@pytest.mark.parametrize(
    ("args", "golden"),
    [
        (
            ["--kind", "left-unitary", "--k", "2", "--seq", "1 2 3 4 5 6", "--seq", "3 4 5 6 1 2"],
            '{"kind":"left-unitary","n":6,"mapping":[5,6,1,2,3,4],"verified":true}\n',
        ),
        (
            ["--kind", "cyclic", "--k", "5", "--seq", "1 2 3 4 5 6"],
            '{"kind":"cyclic","n":6,"mapping":[1,2,3,4,5,6],"verified":true}\n',
        ),
    ],
)
def test_iso_json_golden(capsys, args, golden):
    assert run(capsys, "iso", *args, "--format", "json")[:2] == (0, golden)


@pytest.mark.parametrize(("argv", "flag"), [
    (("build", "--k", "3", "--seq", "1 2 3 4", "--seq", "9 9"), "--seq"),
    (("detect", "--k", "3", "--seq", "1 2 3 4", "--seq", "1 2 3 4"), "--seq"),
    (("construct", "embed", "--t", "2", "--k", "1", "--seq", "1 2", "--seq", "2 1"), "--seq"),
    (("iso", "--kind", "cyclic", "--k", "3", "--seq", "1 2 3 4", "--seq", "1 2 3 4"), "--seq"),
    (("detect", "--table", "Z4", "--k", "3"), "--k"),
    (("check", "--table", "Z4", "--seq", "1 2 3 4"), "--seq"),
    (("dual", "--table", "Z4", "--n", "4"), "--n"),
    (("iso", "--kind", "left-unitary", "--table", "Z4", "--k", "2", "--seq", "1 2", "--seq", "2 1"), "--table"),
])
def test_commands_refuse_a_flag_they_would_ignore(capsys, tmp_path, argv, flag):
    z4 = tmp_path / "z4.txt"
    z4.write_text(Z4_TEXT)
    code, out, err = run(capsys, *(str(z4) if arg == "Z4" else arg for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"translatable: {argv[0]}") and flag in err


@pytest.mark.parametrize(("argv", "message"), [
    (("build", "--k", "1", "--seq", ""), "--seq is empty"),
    (("build", "--n", "4", "--k", "1", "--seq", "1 2 3"), "--n 4 does not match the 3 values in --seq"),
    (("detect", "--table", "MISSING"), "cannot read MISSING: No such file or directory"),
    (("detect",), "detect needs --table or --k/--seq"),
    (("dual",), "dual needs --table, --k/--seq or --n/--k"),
])
def test_unusable_input_exits_two_with_one_line(capsys, tmp_path, argv, message):
    missing = str(tmp_path / "missing.txt")
    argv = [missing if arg == "MISSING" else arg for arg in argv]
    assert run(capsys, *argv) == (2, "", f"translatable: {message.replace('MISSING', missing)}\n")


# Each construct variant with the flags it needs, and a value for every flag.
CONSTRUCT_ARGV = {
    "left-unitary": ("--n", "4", "--k", "1"),
    "idempotent": ("--n", "5", "--k", "3"),
    "cancellative-semigroups": ("--n", "6", "--k", "2"),
    "block-product": ("--k", "2"),
    "constant-column": ("--n", "4", "--k", "2"),
    "embed": ("--t", "2", "--n", "2", "--k", "1", "--seq", "1 2"),
    "union-same-step": ("--n", "12", "--k", "8", "--t", "2"),
    "union-shifted-step": ("--n", "12", "--k", "8", "--t", "2"),
    "pair-union": ("--k", "2"),
}
FLAG_VALUES = {"--n": "7", "--k": "2", "--seq": "9 9", "--t": "5"}


@pytest.mark.parametrize(("variant", "flag"), [
    (variant, flag) for variant, argv in CONSTRUCT_ARGV.items() for flag in FLAG_VALUES if flag not in argv
])
def test_construct_refuses_a_flag_its_variant_never_reads(capsys, variant, flag):
    assert run(capsys, "construct", variant, *CONSTRUCT_ARGV[variant])[0] in (0, 1)
    code, out, err = run(capsys, "construct", variant, *CONSTRUCT_ARGV[variant], flag, FLAG_VALUES[flag])
    assert (code, out) == (2, "")
    assert err.startswith(f"translatable: construct {variant}: ") and flag in err


@pytest.mark.parametrize(("argv", "message"), [
    (("construct", "--format", "json", "left-unitary", "--n", "3", "--k", "1"),
     "translatable: construct: --format must come after the variant\n"),
    (("construct", "--n=3", "left-unitary", "--k", "1"), "translatable: construct: --n must come after the variant\n"),
    (("--format", "json", "build", "--k", "1", "--seq", "1"), "translatable: --format must come after the command\n"),
])
def test_a_flag_before_its_variant_or_command_is_named(capsys, argv, message):
    # Not "invalid choice: 'json'": argparse would read the flag's value as the variant.
    assert run(capsys, *argv) == (2, "", message)


def test_iso_needs_two_sequences(capsys):
    code, _, err = run(capsys, "iso", "--kind", "left-unitary", "--k", "2", "--seq", "1 2 3 4 5 6")
    assert code == 2 and "twice" in err


# Every flag of the command line with a value it accepts (None for a switch).
ALL_FLAGS = {
    "--n": "4", "--k": "1", "--seq": "1 2 3 4", "--t": "2", "--table": "Z4", "--format": "json",
    "--out": "OUT", "--property": "associative", "--kind": "cyclic", "--side": "left",
    "--permutation-only": None, "--require": "associative", "--forbid": "associative",
    "--theorem": "unique-step", "--max-n": "3", "--jobs": "1",
}
OUTPUT = {"--format", "--out"}
TABLE = {"--n", "--k", "--seq", "--table"} | OUTPUT
ROW = {"--n", "--k", "--seq"} | OUTPUT


def _construct(variant, needs, optional=frozenset()):
    return CONSTRUCT_ARGV[variant], needs, needs | optional | OUTPUT, set()


# Each command or construct variant: an invocation of it that runs, the flags
# it needs, the single-valued flags it declares, and the flags it declares
# that may repeat.  Written out here, not read from the parser, so that a
# declaration that changes shows up as a failing case.
COMMAND_FLAGS = {
    "build": (("--k", "3", "--seq", "1 2 3 4"), {"--k", "--seq"}, ROW, set()),
    "detect": (("--table", "Z4"), set(), TABLE, set()),
    "check": (("--table", "Z4"), set(), TABLE, {"--property"}),
    "lcond": (("--k", "3", "--seq", "1 2 3 4"), {"--k", "--seq"}, ROW, {"--property"}),
    "dual": (("--n", "7", "--k", "3"), set(), TABLE, set()),
    "rotate": (("--k", "3", "--seq", "1 4 3 2"), {"--k", "--seq"}, ROW, set()),
    "decompose": (("--k", "2", "--seq", "1 2 3 4 5 6"), {"--k", "--seq"}, ROW, set()),
    "idempotents": (("--table", "Z4"), set(), TABLE, set()),
    "iso": (("--kind", "cyclic", "--table", "Z4"), {"--kind"}, {"--n", "--k", "--table", "--kind"} | OUTPUT,
            {"--seq"}),
    "ideals": (("--table", "Z4"), set(), TABLE | {"--side"}, set()),
    "enumerate": (("--n", "4", "--k", "1"), {"--n", "--k"}, {"--n", "--k"} | OUTPUT,
                  {"--permutation-only", "--require", "--forbid"}),
    "catalog": (("--n", "3"), {"--n"}, {"--n"} | OUTPUT, {"--permutation-only"}),
    "verify": (("--theorem", "unique-step", "--max-n", "3"), {"--theorem"}, {"--max-n", "--jobs", "--out"},
               {"--theorem"}),
    "construct left-unitary": _construct("left-unitary", {"--n", "--k"}),
    "construct idempotent": _construct("idempotent", {"--n", "--k"}),
    "construct cancellative-semigroups": _construct("cancellative-semigroups", {"--n", "--k"}),
    "construct block-product": _construct("block-product", {"--k"}),
    "construct constant-column": _construct("constant-column", {"--n", "--k"}),
    "construct embed": _construct("embed", {"--t", "--k", "--seq"}, optional={"--n"}),
    "construct union-same-step": _construct("union-same-step", {"--n", "--k", "--t"}),
    "construct union-shifted-step": _construct("union-shifted-step", {"--n", "--k", "--t"}),
    "construct pair-union": _construct("pair-union", {"--k"}),
}


def _refusals():
    for command, (argv, needs, single, many) in COMMAND_FLAGS.items():
        for flag in sorted(ALL_FLAGS.keys() - single - many):
            yield command, "undeclared", flag
        for flag in sorted(single):
            yield command, "repeated", flag
        for flag in sorted(needs):
            yield command, "missing", flag


def _with_flag(argv, flag):
    value = ALL_FLAGS[flag]
    return (*argv, flag) if value is None else (*argv, flag, value)


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_flag_matrix_invocations_run_as_written(capsys, tmp_path, command):
    z4 = tmp_path / "z4.txt"
    z4.write_text(Z4_TEXT)
    argv = [str(z4) if arg == "Z4" else arg for arg in COMMAND_FLAGS[command][0]]
    assert run(capsys, *command.split(), *argv)[0] in (0, 1)


@pytest.mark.parametrize(("command", "case", "flag"), list(_refusals()))
def test_every_refused_flag_exits_two_with_one_line(capsys, tmp_path, command, case, flag):
    argv, _, _, _ = COMMAND_FLAGS[command]
    if case == "undeclared":
        argv = _with_flag(argv, flag)
    elif case == "repeated":
        argv = _with_flag(argv if flag in argv else _with_flag(argv, flag), flag)
    else:
        at = argv.index(flag)
        argv = argv[:at] + argv[at + 2:]
    z4, target = tmp_path / "z4.txt", tmp_path / "out.txt"
    z4.write_text(Z4_TEXT)
    argv = [str(z4) if arg == "Z4" else str(target) if arg == "OUT" else arg for arg in argv]
    code, out, err = run(capsys, *command.split(), *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"translatable: {command}: ") and err.count("\n") == 1, err
    assert re.search(rf"(?<![\w-]){flag}(?![\w-])", err), err
    assert not target.exists()


@pytest.mark.parametrize("argv", [(), ("build",), ("construct",), ("construct", "embed")])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {' '.join(('translatable', *argv))} ")


IDEALS_GOLDENS = {
    "left": (
        "1 3 5 (semiprime)\n2 4 6 (semiprime)\n1 2 3 4 5 6 (semiprime)\n",
        '{"n":6,"side":"left","ideals":[{"elements":[1,3,5],"semiprime":true},'
        '{"elements":[2,4,6],"semiprime":true},{"elements":[1,2,3,4,5,6],"semiprime":true}]}\n',
    ),
    "right": (
        "1 2 3 4 5 6 (semiprime)\n",
        '{"n":6,"side":"right","ideals":[{"elements":[1,2,3,4,5,6],"semiprime":true}]}\n',
    ),
}


@pytest.mark.parametrize("side", IDEALS_GOLDENS)
def test_ideals_golden_bytes(capsys, side):
    text, payload = IDEALS_GOLDENS[side]
    argv = ("ideals", "--k", "2", "--seq", "1 2 3 4 5 6", "--side", side)
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--format", "json") == (0, payload, "")
    if side == "left":  # the default side
        assert run(capsys, *argv[:-2]) == (0, text, "")


@pytest.mark.parametrize(("seq", "message"), [
    ("2 1 1", "ideal enumeration needs an associative table; fails at (1, 1, 2)"),
    (" ".join(["1"] * 17), "left ideal enumeration at order 17 over 17 principal ideals needs 2228207 "
                           "member cells, over the ideal budget of 1048576"),
])
def test_ideals_refuse_a_table_they_cannot_enumerate(capsys, seq, message):
    k = "2" if seq == "2 1 1" else "1"
    assert run(capsys, "ideals", "--k", k, "--seq", seq) == (2, "", f"translatable: {message}\n")


def test_enumerate_and_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--n",
        "6",
        "--k",
        "2",
        "--permutation-only",
        "--require",
        "associative",
    )
    assert code == 0 and len(out.splitlines()) == 3
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--k", "3", "--require", "idempotent")
    assert code == 1 and out == ""
    code, _, err = run(capsys, "enumerate", "--n", "10", "--k", "2", "--permutation-only")
    assert code == 2 and "permutation row space at n = 10 needs 362880000 table cells" in err


def _ones(n):
    return " ".join(["1"] * n)


def _scan(name, n, cells):
    return f"{name} scan at order {n} needs {cells} cells, over the four-variable scan limit of 20000000"


_ROW_BUDGET = "over the row-space budget of 67108864"
_CYCLIC_1024 = " ".join(map(str, range(1, 1025)))


@pytest.mark.parametrize(("argv", "message"), [
    (("build", "--k", "1", "--seq", _ones(1025)), "order 1025 exceeds the bound 1024"),
    (("enumerate", "--n", "10", "--k", "2", "--permutation-only"),
     f"permutation row space at n = 10 needs 362880000 table cells, {_ROW_BUDGET}"),
    (("enumerate", "--n", "8", "--k", "3"), f"full row space at n = 8 needs 1073741824 table cells, {_ROW_BUDGET}"),
    (("enumerate", "--n", "1024", "--k", "1"),
     f"full row space at n = 1024 needs about 10^3088 table cells, {_ROW_BUDGET}"),
    (("catalog", "--n", "8"), f"full row space at n = 8 needs 1073741824 table cells, {_ROW_BUDGET}"),
    (("check", "--k", "66", "--seq", " ".join(map(str, range(1, 68))), "--property", "medial"),
     _scan("medial", 67, 20151121)),
    (("check", "--k", "66", "--seq", " ".join(map(str, range(1, 68)))), _scan("paramedial", 67, 20151121)),
    (("check", "--k", "1023", "--seq", _CYCLIC_1024, "--property", "medial"), _scan("medial", 1024, 1099511627776)),
    (("check", "--k", "1023", "--seq", _CYCLIC_1024), _scan("paramedial", 1024, 1099511627776)),
    (("ideals", "--k", "1", "--seq", _ones(17)),
     "left ideal enumeration at order 17 over 17 principal ideals needs 2228207 member cells, "
     "over the ideal budget of 1048576"),
    (("ideals", "--k", "1", "--seq", _ones(1024), "--side", "right"),
     "right ideal enumeration at order 1024 over 1024 principal ideals needs about 10^311 member cells, "
     "over the ideal budget of 1048576"),
], ids=["build-1025", "enumerate-perm-10", "enumerate-full-8", "enumerate-full-1024", "catalog-8",
        "check-medial-67", "report-67", "check-medial-1024", "report-1024", "ideals-17", "ideals-1024"])
def test_every_refusal_names_its_estimate_and_bound_before_any_work(capsys, argv, message):
    # Exit 2, nothing on stdout, one short stderr line naming the estimate
    # and the bound, and no more than 4 MiB traced: the table a command
    # reads, and nothing of the work it refuses.
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"translatable: {message}\n")
    assert len(err) <= 200
    assert peak < 4 * 2**20


@pytest.mark.parametrize("command", ["catalog", "enumerate"])
@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("perm", [(), ("--permutation-only",)])
def test_row_sweeps_refuse_orders_below_one(capsys, command, n, perm):
    step = ("--k", "1") if command == "enumerate" else ()
    code, out, err = run(capsys, command, "--n", n, *step, *perm)
    assert code == 2 and out == ""
    assert f"order must be at least 1, got {n}" in err


@pytest.mark.parametrize("argv", [
    ("catalog", "--n", "4", "--k", "9"),
    ("catalog", "--n", "4", "--seq", "x"),
    ("enumerate", "--n", "4", "--k", "1", "--seq", "x"),
])
def test_row_sweeps_refuse_options_they_do_not_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"translatable: {argv[0]}: ") and argv[-2] in err


# SHA-256 of stdout, exit code and line count of three row enumerations, as
# the per-row loop (test_kernels.brute_enumerate) gives them.
ENUMERATION_GOLDENS = [
    (("--n", "6", "--k", "5", "--require", "medial"),
     "f0d8b45526c2de0c8c68af4661f42faa8a1350d6c0abe174f45dda7c8369a313", 0, 450),
    (("--n", "8", "--k", "3", "--permutation-only", "--require", "paramedial"),
     "d44a414b764cd5d2c40bab12459640d3ca55abbb124bd645696208593f087962", 0, 32),
    (("--n", "6", "--k", "1", "--require", "idempotent"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1, 0),
]


@pytest.mark.parametrize(
    "argv,digest,want,lines", ENUMERATION_GOLDENS, ids=["medial", "paramedial", "idempotent"]
)
def test_enumerate_keeps_the_per_row_loop_bytes(capsys, argv, digest, want, lines):
    code, out, _ = run(capsys, "enumerate", *argv)
    assert (code, len(out.splitlines())) == (want, lines)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,k", [(4, 0), (4, 9), (1, 1)])
def test_enumerate_refuses_a_bad_step_before_any_row(capsys, n, k):
    code, out, err = run(capsys, "enumerate", "--n", str(n), "--k", str(k), "--require", "idempotent")
    assert code == 2 and out == ""
    assert f"step must satisfy 1 <= k <= n-1, got k={k} for n={n}" in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "6", "--k", "1", "--require", "idempotent"),
    ("catalog", "--n", "6"),
])
def test_row_sweeps_refuse_orders_over_the_order_bound(capsys, monkeypatch, argv):
    monkeypatch.setenv("TRANSLATABLE_MAX_ORDER", "5")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "order 6 exceeds the bound 5" in err


def test_catalog_deterministic_bytes(capsys):
    first = run(capsys, "catalog", "--n", "4")
    second = run(capsys, "catalog", "--n", "4")
    assert first == second
    assert first[0] == 0
    assert "k=2 [idempotent,left-cancellative,permutation] 1" in first[1]


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "table.txt"
    code, out, _ = run(
        capsys, "build", "--k", "3", "--seq", "1 2 3 4", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text() == Z4_TEXT


def test_verify_stream_and_summary(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "unique-step", "--max-n", "4")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1] == {
        "theorem": "unique-step",
        "instances": 6,
        "failures": 0,
        "status": "pass",
    }
    assert all(entry["status"] == "pass" for entry in lines[:-1])
    assert "1 campaign(s), 0 failing" in err


def test_verify_expected_fail_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "idempotent-existence", "--max-n", "6"
    )
    assert code == 0
    statuses = {json.loads(line).get("status") for line in out.splitlines()}
    assert "expected-fail" in statuses


def test_verify_memo_lives_for_one_command(capsys):
    argv = ("verify", "--theorem", "semigroup-criterion", "--theorem", "dual-step", "--max-n", "5")
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert not batch._ROWS and not batch._VERDICTS
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_serial_verify_sweeps_each_dual_space_once_per_command(capsys, monkeypatch):
    # Both campaigns read step_verdicts(n, k, True) for every instance; the
    # second reads what the first memoised, since the command's one scope
    # empties the memo only as it opens and as it closes.  No other sweep
    # (dual-links' alterable masks) runs twice either.  A memoised sweep is
    # stored once under its memo key as it ends, and every one but
    # step_verdicts' is one _blocks call from sweep_verdicts; dual-links'
    # position mask is one unmemoised _blocks call an instance.
    sweeps = collections.Counter()
    blocks_calls = collections.defaultdict(list)
    real = batch._blocks

    class CountingMemo(dict):
        def __setitem__(self, key, value):
            sweeps[key] += 1
            super().__setitem__(key, value)

    def counting(space, verdicts_of):
        blocks_calls[verdicts_of.__qualname__.split(".")[0]].append(space.key)
        return real(space, verdicts_of)

    monkeypatch.setattr(batch, "_VERDICTS", CountingMemo())
    monkeypatch.setattr(batch, "_blocks", counting)
    code, out, _ = run(capsys, "verify", "--theorem", "dual-step", "--theorem", "dual-links", "--max-n", "7")
    assert code == 0 and len(out.splitlines()) == 2 * (21 + 1)
    assert set(sweeps.values()) == {1}
    assert sorted(blocks_calls["sweep_verdicts"]) == sorted(key[2:] for key in sweeps if key[0] != "steps")
    assert sorted(blocks_calls["_perm_alterable_mask"]) == [(n, True) for n in range(2, 8) for _ in range(1, n)]
    assert blocks_calls.keys() == {"sweep_verdicts", "_perm_alterable_mask"}
    steps = {key[1:] for key in sweeps if key[0] == "steps"}
    assert steps == {(n, k, True) for n in range(2, 8) for k in range(1, n)}


def _stat(pid: int) -> tuple[str, int]:
    """A process's state letter and parent pid from /proc; ("X", 0) once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return "X", 0
    return state, int(ppid)


def _alive(pid: int) -> bool:
    return _stat(pid)[0] not in "XZ"


def _children(parent: int) -> list[int]:
    return [pid for pid in map(int, filter(str.isdigit, os.listdir("/proc")))
            if _stat(pid)[1] == parent and _alive(pid)]


@pytest.mark.skipif(
    not os.path.isdir("/proc") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="reads processes from Linux /proc and needs two usable CPUs",
)
def test_sigterm_ends_a_parallel_verify_and_its_workers():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    command = subprocess.Popen(
        [sys.executable, "-m", "translatable.cli", "verify", "--theorem", "scaled-residues",
         "--max-n", "20000", "--jobs", "2", "--out", os.devnull],
        env=env,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers := _children(command.pid)) < 2:
            assert command.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        command.send_signal(signal.SIGTERM)
        assert command.wait(timeout=30) in (-signal.SIGTERM, 128 + signal.SIGTERM)
        deadline = time.monotonic() + 10
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        command.kill()
        command.wait()
        for pid in filter(_alive, workers):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_verify_dual_campaigns_ignore_the_job_count(capsys):
    argv = ("verify", "--theorem", "dual-step", "--theorem", "dual-links", "--max-n", "7")
    serial = run(capsys, *argv, "--jobs", "1")
    parallel = run(capsys, *argv, "--jobs", "2")
    assert serial[0] == parallel[0] == 0
    assert serial[1] == parallel[1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_refuses_an_oversized_row_space(capsys, monkeypatch, jobs):
    monkeypatch.setattr(batch, "ROW_CELL_BUDGET", 100)
    code, finished, _ = run(capsys, "verify", "--theorem", "semigroup-criterion", "--max-n", "3")
    assert code == 0
    tracemalloc.start()
    try:
        code = main(["verify", "--theorem", "semigroup-criterion", "--max-n", "4", "--jobs", jobs])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    # The n = 2 and n = 3 instance lines were streamed before n = 4 was
    # refused, the same bytes when the refusal is pickled back from a worker.
    assert code == 2
    assert out.splitlines() == finished.splitlines()[:-1]
    assert [(entry["n"], entry["k"]) for entry in map(json.loads, out.splitlines())] == [
        (2, 1), (3, 1), (3, 2)
    ]
    assert err == (
        "translatable: permutation row space at n = 4 needs 384 table cells, over the row-space budget of 100\n"
    )
    assert peak < 4 * 2**20
    assert not batch._ROWS and not batch._VERDICTS


def test_verify_streams_into_the_out_file_before_a_refusal(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(batch, "ROW_CELL_BUDGET", 100)
    target = tmp_path / "verify.jsonl"
    code, out, _ = run(
        capsys, "verify", "--theorem", "semigroup-criterion", "--max-n", "4", "--out", str(target)
    )
    assert code == 2 and out == ""
    assert [json.loads(line)["n"] for line in target.read_text().splitlines()] == [2, 3, 3]


def test_verify_writes_each_line_as_its_instance_finishes(capsys, monkeypatch):
    seen = []
    real_run = search.THEOREMS["unique-step"].run

    def run_instance(instance):
        seen.append(capsys.readouterr().out.count("\n"))
        return real_run(instance)

    monkeypatch.setitem(
        search.THEOREMS,
        "unique-step",
        dataclasses.replace(search.THEOREMS["unique-step"], run=run_instance),
    )
    code, _, _ = run(capsys, "verify", "--theorem", "unique-step", "--max-n", "4")
    assert code == 0
    # Each instance starts after the previous one's line was written.
    assert seen == [0] + [1] * 5


def test_verify_refuses_a_format_flag(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "unique-step", "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith("translatable: verify: ") and "--format" in err


@pytest.mark.parametrize("theorems", [("unique-step", "nope"), ("unique-step", "list"), ("list", "list")])
def test_verify_checks_every_campaign_id_before_the_first_runs(capsys, theorems):
    argv = [arg for cid in theorems for arg in ("--theorem", cid)]
    code, out, err = run(capsys, "verify", *argv, "--max-n", "3")
    assert (code, out) == (2, "")
    assert err.startswith(f"translatable: unknown campaign {theorems[1]!r}")


def test_verify_unknown_campaign(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "warm")
    assert code == 2 and "unknown campaign" in err


def test_verify_list_is_complete(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "list")
    assert code == 0
    assert len(out.splitlines()) == 50


def test_rotate_text_shape(capsys):
    code, out, _ = run(capsys, "rotate", "--k", "3", "--seq", "1 4 3 2")
    assert code == 0
    assert out.splitlines()[0] == "1 2 3 4 | 1 4 3 2"
    assert len(out.splitlines()) == 4
