"""Identity checks: definitional sweeps against first-row closed forms."""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np
import pytest

from translatable import batch, properties, translation
from translatable.campaigns import _run_modular_conditions
from translatable.constructions import cancellative_semigroups
from translatable.core import (
    BoundError,
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
    lcond_verdicts,
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
    with pytest.raises(InvalidInputError, match="no closed-form condition for 'warm'"):
        lcond_check(KSequence(3, 1, (1, 2, 3)), "warm")


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
    # Past the order wall a four-variable identity is refused before the
    # others are checked, but after an unknown name listed before it.
    big = table_from_sequence(KSequence(67, 1, tuple(range(1, 68))))
    with pytest.raises(InvalidInputError):
        report(big, ["idempotent", "warm", "medial"])
    with pytest.raises(BoundError):
        report(big, ["regular", "medial", "warm"])


def test_closed_forms_match_cell_sweeps_exhaustively():
    for n, k in [(4, 2), (5, 3)]:
        for values in itertools.product(range(1, n + 1), repeat=n):
            seq = KSequence(n, k, values)
            if not seq.is_permutation():
                continue
            table = table_from_sequence(seq)
            for name in LCOND_NAMES:
                assert lcond_check(seq, name) == check(table, name)[0], (values, name)


def generator_lcond(seq: KSequence, name: str) -> bool:
    """The closed forms as Python generators over 1-based index tuples, as
    lcond_check evaluated them before the numpy forms: the oracle for them."""
    n, k, a = seq.n, seq.k, seq.seq

    def prod(i, j):
        return a[(k - k * i + j - 1) % n]

    rng = range(1, n + 1)
    if name == "idempotent":
        return all(a[(k - k * i + i - 1) % n] == i for i in rng)
    if name == "elastic":
        return all(
            mod_rep(i + k * i, n) == mod_rep(prod(j, i) + k * prod(i, j), n)
            for i in rng
            for j in rng
        )
    if name == "strongly-elastic":
        return generator_lcond(seq, "elastic") and all(
            mod_rep(i + k * prod(j, i), n) == mod_rep(j + k * prod(i, j), n)
            for i in rng
            for j in rng
        )
    if name == "bookend":
        return all(
            a[(k - k * prod(j, i) + prod(i, j) - 1) % n] == i for i in rng for j in rng
        )
    if name == "left-distributive":
        return all(
            mod_rep(prod(i, j) + k * prod(s, i), n) == mod_rep(prod(s, j) + k * s, n)
            for i in rng
            for j in rng
            for s in rng
        )
    if name == "right-distributive":
        return all(
            mod_rep(s + k * prod(i, s), n) == mod_rep(prod(j, s) + k * prod(i, j), n)
            for i in rng
            for j in rng
            for s in rng
        )
    if name == "medial":
        return all(
            mod_rep(prod(w, z) + k * prod(i, w), n) == mod_rep(prod(j, z) + k * prod(i, j), n)
            for i in rng
            for j in rng
            for w in rng
            for z in rng
        )
    if name == "alterable":
        return all(
            mod_rep(w + k * z, n) == mod_rep(i + k * j, n)
            for i in rng
            for j in rng
            for w in rng
            for z in rng
            if mod_rep(j + k * w, n) == mod_rep(z + k * i, n)
        )
    if name == "commutative":
        return k == n - 1
    if name == "associative":
        return all(
            mod_rep(i + k * j, n) == mod_rep(prod(s, i) + k * prod(j, s), n)
            for i in rng
            for j in rng
            for s in rng
        )
    raise AssertionError(name)


def oracle_verdicts(rows, k, name) -> list[bool]:
    n = rows.shape[1]
    return [generator_lcond(KSequence(n, k, tuple(int(v) + 1 for v in row)), name) for row in rows]


def seeded_permutations(n: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    return np.array([rng.permutation(n) for _ in range(count)], dtype=np.int8)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_stacks_match_the_generator_forms_on_every_row(n):
    rows = batch.row_array(n, True)
    for k in range(1, n):
        for name in LCOND_NAMES:
            assert lcond_verdicts(rows, k, name).tolist() == oracle_verdicts(rows, k, name), (k, name)


@pytest.mark.parametrize("n", [7, 8])
def test_closed_form_stacks_match_the_generator_forms_on_seeded_rows(n):
    rows = seeded_permutations(n, 500)
    rows[0] = np.arange(n)  # the left unitary row passes the most forms
    for k in range(1, n):
        for name in LCOND_NAMES:
            assert lcond_verdicts(rows, k, name).tolist() == oracle_verdicts(rows, k, name), (k, name)


@pytest.mark.parametrize("n", range(2, 6))
def test_lcond_check_is_the_one_row_stack(n):
    rows = batch.row_array(n, True)
    for k in range(1, n):
        for name in LCOND_NAMES:
            want = oracle_verdicts(rows, k, name)
            assert [lcond_check(KSequence(n, k, tuple(int(v) + 1 for v in row)), name) for row in rows] == want


def test_closed_form_verdicts_do_not_depend_on_the_blocks(monkeypatch):
    n = 7
    rows = seeded_permutations(n, 300)
    rows[0] = np.arange(n)
    want = {(k, name): lcond_verdicts(rows, k, name) for k in range(1, n) for name in LCOND_NAMES}
    # Four rows a chunk.
    monkeypatch.setattr(translation, "ROW_CHUNK", 4)
    monkeypatch.setattr(properties, "_VECTOR_CELL_LIMIT", 4 * n * n)
    for (k, name), verdicts in want.items():
        assert (lcond_verdicts(rows, k, name) == verdicts).all(), (k, name)


@pytest.mark.parametrize("n", range(1, 9))
def test_three_variable_closed_forms_have_no_third_mixed_difference(n):
    # lcond_verdicts decides these forms on the planes x = 0, y = 0, z = 0,
    # which is exact only when F(x,y,z) is fixed by its values there.
    rows = seeded_permutations(n, 20)
    rows[0] = np.arange(n)
    grids = np.ix_(range(n), range(n), range(n))
    for name, (arity, form) in properties._CLOSED_FORMS.items():
        if arity != 3:
            continue
        for k in range(n):
            for a in rows.astype(np.intp):
                for value in form(lambda x, y: a[(y - k * x) % n], k, *grids):
                    f = np.broadcast_to(value, (n, n, n))
                    mixed = (f - f[:, :, :1] - f[:, :1] - f[:1] + f[:, :1, :1] + f[:1, :, :1] + f[:1, :1]
                             - f[:1, :1, :1])
                    assert not (mixed % n).any(), (name, k, a.tolist())


@pytest.mark.parametrize("n, steps", [(67, (1, 2, 66)), (1024, (1, 512, 1023))])
def test_closed_forms_on_the_left_unitary_row_past_order_66(n, steps):
    for k in steps:
        seq = KSequence(n, k, tuple(range(1, n + 1)))
        facts = left_unitary_characterize(n, k)
        for name in set(LCOND_NAMES) & set(LEFT_UNITARY_NAMES):
            assert lcond_check(seq, name) == facts[name], (k, name)


@pytest.mark.parametrize("n", [67, 128])
def test_closed_forms_match_cell_sweeps_on_seeded_rows_past_order_66(n):
    rows = seeded_permutations(n, 3)
    rows[0] = np.arange(n)
    for k in (1, n // 2, n - 1):
        for row in rows:
            seq = KSequence(n, k, tuple(int(v) + 1 for v in row))
            table = table_from_sequence(seq)
            for name in ("idempotent", "elastic", "bookend", "left-distributive", "right-distributive",
                         "commutative", "associative"):
                assert lcond_check(seq, name) == check(table, name)[0], (k, row.tolist(), name)


def flipped_mask(mask, rows):
    def patched(tables):
        got = mask(tables).copy()
        got[rows] = ~got[rows]
        return got
    return patched


@pytest.mark.parametrize("flips", [
    {("bookend", 0), ("associative", 9), ("idempotent", 17), ("medial", 9)},
    {("associative", 9), ("idempotent", 17), ("medial", 9)},
    {("idempotent", 17)},
    set(),
])
@pytest.mark.parametrize("n, k", [(6, 5), (5, 2), (4, 3)])
def test_modular_conditions_reports_the_failure_the_row_loop_found(fresh_memo, monkeypatch, n, k, flips):
    for name in {name for name, _ in flips}:
        monkeypatch.setitem(batch.MASKS, name, flipped_mask(batch.MASKS[name], [b for m, b in flips if m == name]))
    rows = batch.row_array(n, True)
    tables = batch.product_tables(rows, k)
    masks = {name: batch.MASKS[name](tables) for name in LCOND_NAMES}
    want = None
    for b, row in enumerate(rows):
        seq = KSequence(n, k, tuple(int(v) + 1 for v in row))
        name = next((name for name in LCOND_NAMES if generator_lcond(seq, name) != masks[name][b]), None)
        if name is not None:
            want = {"row": list(seq.seq), "property": name,
                    "closed-form": generator_lcond(seq, name), "table": bool(masks[name][b])}
            break
    assert _run_modular_conditions((n, k)) == (("pass", None) if want is None else ("fail", want))


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
