"""Identity checks: definitional sweeps against first-row closed forms."""

from __future__ import annotations

import itertools
from math import gcd

import pytest

from translatable import properties
from translatable.constructions import cancellative_semigroups
from translatable.core import (
    CayleyTable,
    InvalidInputError,
    KSequence,
    PreconditionError,
    mod_rep,
)
from translatable.properties import (
    LCOND_NAMES,
    LEFT_UNITARY_NAMES,
    PROPERTY_NAMES,
    check,
    idempotent_elements,
    lcond_check,
    left_neutral,
    left_neutral_elements,
    left_unitary_characterize,
    report,
    semigroup_criterion,
)
from translatable.translation import table_from_sequence


def brute_associative(table: CayleyTable) -> bool:
    r = range(1, table.n + 1)
    return all(
        table.entry(table.entry(x, y), z) == table.entry(x, table.entry(y, z))
        for x in r
        for y in r
        for z in r
    )


def test_check_rejects_unknown_name():
    table = table_from_sequence(KSequence(3, 1, (1, 2, 3)))
    with pytest.raises(InvalidInputError):
        check(table, "warm")


def test_witnesses_are_real_counterexamples():
    table = table_from_sequence(KSequence(4, 2, (2, 1, 3, 3)))
    for name in ("commutative", "idempotent", "left-cancellative"):
        ok, witness = check(table, name)
        if not ok:
            assert witness is not None
            assert witness.lhs != witness.rhs


def test_semigroup_only_names_guarded():
    # a non-associative quasigroup: regularity-style checks must refuse
    table = table_from_sequence(KSequence(4, 2, (1, 4, 3, 2)))
    assert not check(table, "associative")[0]
    with pytest.raises(PreconditionError):
        check(table, "orthodox")


def test_report_skips_semigroup_names_on_non_semigroups():
    table = table_from_sequence(KSequence(4, 2, (1, 4, 3, 2)))
    verdicts = report(table)
    assert "orthodox" not in verdicts
    assert "medial" in verdicts
    full = report(table_from_sequence(KSequence(4, 3, (1, 2, 3, 4))))
    assert set(full) == set(PROPERTY_NAMES)


def count_associativity_runs(monkeypatch) -> list[int]:
    runs = []
    scan = properties._check_associative

    def spy(table):
        runs.append(table.n)
        return scan(table)

    monkeypatch.setattr(properties, "_check_associative", spy)
    monkeypatch.setitem(properties._CHECKERS, "associative", spy)
    return runs


@pytest.mark.parametrize("seq", [cancellative_semigroups(12, 3)[0], KSequence(4, 2, (1, 4, 3, 2))])
def test_report_decides_associativity_once(monkeypatch, seq):
    table = table_from_sequence(seq)
    expected = {name: check(table, name) for name in report(table)}
    runs = count_associativity_runs(monkeypatch)
    assert report(table) == expected
    assert runs == [table.n]
    runs.clear()
    assert report(table, ["medial", "idempotent"]) == {n: expected[n] for n in ("medial", "idempotent")}
    assert runs == []


def test_report_keeps_the_errors_of_check_in_name_order():
    table = table_from_sequence(KSequence(4, 2, (1, 4, 3, 2)))
    with pytest.raises(PreconditionError):
        report(table, ["medial", "orthodox", "warm"])
    with pytest.raises(InvalidInputError):
        report(table, ["medial", "warm", "orthodox"])


def test_closed_forms_match_cell_sweeps_exhaustively():
    for n, k in [(4, 2), (5, 3)]:
        for values in itertools.product(range(1, n + 1), repeat=n):
            seq = KSequence(n, k, values)
            if not seq.is_permutation():
                continue
            table = table_from_sequence(seq)
            for name in LCOND_NAMES:
                assert lcond_check(seq, name) == check(table, name)[0], (values, name)


def test_closed_forms_require_permutation_rows():
    with pytest.raises(PreconditionError):
        lcond_check(KSequence(4, 2, (1, 1, 2, 2)), "medial")


def test_commutative_iff_top_step():
    for n in range(2, 8):
        for k in range(1, n):
            seq = KSequence(n, k, tuple(range(1, n + 1)))
            assert lcond_check(seq, "commutative") == (k == n - 1)


def test_left_unitary_characterization_table():
    # spot rows of the closed-form dictionary
    facts = left_unitary_characterize(6, 2)
    assert facts["medial"] and not facts["right-distributive"]
    assert facts["associative"]  # 2 + 4 = 6 = 0 mod 6
    assert not facts["right-modular"]
    facts = left_unitary_characterize(5, 4)
    assert facts["right-modular"] and facts["paramedial"]
    assert left_unitary_characterize(5, 2)["alterable"]  # 2*2 = 4 = n-1


def test_left_unitary_characterization_against_tables():
    for n in range(2, 10):
        for k in range(1, n):
            seq = KSequence(n, k, tuple(range(1, n + 1)))
            table = table_from_sequence(seq)
            facts = left_unitary_characterize(n, k)
            for name in LEFT_UNITARY_NAMES:
                assert facts[name] == check(table, name)[0], (n, k, name)


def test_criterion_matches_brute_force_midsize():
    n = 6
    for k in range(1, n):
        for values in itertools.permutations(range(1, n + 1)):
            seq = KSequence(n, k, values)
            table = table_from_sequence(seq)
            assert semigroup_criterion(seq) == brute_associative(table), (k, values)


def test_criterion_requires_permutation_row():
    with pytest.raises(PreconditionError):
        semigroup_criterion(KSequence(4, 2, (1, 1, 3, 3)))


def test_criterion_closed_form_shape():
    # a criterion pass forces a_i = [i - k - k*a_k]_n
    n, k = 6, 2
    for values in itertools.permutations(range(1, n + 1)):
        seq = KSequence(n, k, values)
        if semigroup_criterion(seq):
            ak = values[k - 1]
            assert values == tuple(mod_rep(i - k - k * ak, n) for i in range(1, n + 1))


def test_left_neutral_formula():
    for seq in (
        KSequence(6, 2, (1, 2, 3, 4, 5, 6)),
        KSequence(6, 2, (3, 4, 5, 6, 1, 2)),
        KSequence(6, 2, (5, 6, 1, 2, 3, 4)),
    ):
        e = left_neutral(seq)
        table = table_from_sequence(seq)
        assert table.row(e) == tuple(range(1, seq.n + 1))
        assert e in left_neutral_elements(table)


def test_idempotent_elements_listing():
    table = table_from_sequence(KSequence(6, 2, (3, 4, 5, 6, 1, 2)))
    assert idempotent_elements(table) == (2, 5)


def test_left_unitary_never_fully_distributive():
    for n in range(2, 13):
        for k in range(1, n):
            facts = left_unitary_characterize(n, k)
            assert not facts["right-distributive"]
            assert not facts["strongly-elastic"]
            assert facts["medial"]


def test_alterable_closed_form():
    # alterable exactly when k*k = n-1 mod n, on cancellative tables
    for n in range(2, 9):
        for k in range(1, n):
            seq = KSequence(n, k, tuple(range(1, n + 1)))
            table = table_from_sequence(seq)
            assert check(table, "alterable")[0] == ((k * k) % n == n - 1), (n, k)


def test_idempotent_quasigroup_window():
    # the idempotent families are quasigroups exactly when gcd(k, n) = 1
    from translatable.constructions import idempotent_groupoid

    for n in range(2, 10):
        for k in range(2, n):
            if gcd(k - 1, n) != 1:
                continue
            table = table_from_sequence(idempotent_groupoid(n, k))
            assert check(table, "quasigroup")[0] == (gcd(k, n) == 1)
