"""Enumeration, the property census and the campaign runner."""

from __future__ import annotations

import math

import pytest

from translatable import batch
from translatable.campaigns import THEOREMS
from translatable.core import BoundError, InvalidInputError, KSequence
from translatable.properties import lcond_verdicts
from translatable.search import (
    SequenceFilter,
    campaign_ids,
    catalog,
    catalog_count,
    enumerate_sequences,
    verify,
    workers,
)


def test_registry_ids_unique_and_described():
    ids = campaign_ids()
    assert len(ids) == len(set(ids)) == 50
    for cid in ids:
        campaign = THEOREMS[cid]
        assert campaign.summary
        assert campaign.default_max_n >= 2


def test_enumerate_associative_permutation_rows():
    filt = SequenceFilter(permutation_only=True, required=("associative",))
    found = [s.seq for s in enumerate_sequences(6, 2, filt)]
    assert found == [
        (1, 2, 3, 4, 5, 6),
        (3, 4, 5, 6, 1, 2),
        (5, 6, 1, 2, 3, 4),
    ]


def test_enumerate_idempotent_rows():
    filt = SequenceFilter(required=("idempotent",))
    assert [s.seq for s in enumerate_sequences(4, 2, filt)] == [(1, 4, 3, 2)]
    assert list(enumerate_sequences(6, 3, filt)) == []


def test_enumerate_forbidden_filters():
    # commutativity needs k = n-1, so forbidding it keeps all three semigroups
    filt = SequenceFilter(
        permutation_only=True, required=("associative",), forbidden=("commutative",)
    )
    assert len(list(enumerate_sequences(6, 2, filt))) == 3
    # and requiring it empties the permutation search but not the full one
    assert list(enumerate_sequences(6, 2, SequenceFilter(True, ("commutative",)))) == []
    full = list(enumerate_sequences(4, 2, SequenceFilter(required=("commutative",))))
    assert KSequence(4, 2, (1, 1, 1, 1)) in full


def test_enumerate_is_lexicographic_and_lazy():
    gen = enumerate_sequences(3, 1, SequenceFilter())
    first = next(gen)
    assert first.seq == (1, 1, 1)
    rest = list(gen)
    assert len(rest) == 26
    assert rest[-1].seq == (3, 3, 3)


def test_enumeration_bounds():
    with pytest.raises(BoundError, match="full row space at n = 8 needs 1073741824 table cells"):
        list(enumerate_sequences(8, 2, SequenceFilter()))
    with pytest.raises(BoundError, match="permutation row space at n = 10 needs 362880000 table cells"):
        list(enumerate_sequences(10, 2, SequenceFilter(permutation_only=True)))


def test_enumeration_reaches_the_permutation_rows_verify_sweeps(fresh_memo):
    # The widest permutation space, set against the closed form for medial
    # on every order-9 permutation row.
    rows = batch.row_array(9, True)
    closed = (rows[lcond_verdicts(rows, 5, "medial")] + 1).tolist()
    found = enumerate_sequences(9, 5, SequenceFilter(permutation_only=True, required=("medial",)))
    assert [list(s.seq) for s in found] == closed
    assert len(closed) == 54


@pytest.mark.parametrize(("n", "permutation_only", "size"), [(7, False, 7**7), (9, True, math.factorial(9))])
def test_catalog_counts_every_row_of_the_widest_spaces(fresh_memo, n, permutation_only, size):
    census = catalog(n, permutation_only)
    for k in range(1, n):
        assert sum(count for (step, _), count in census.items() if step == k) == size
        assert catalog_count(census, k, {"permutation"}) == math.factorial(n)


def test_filter_validation():
    with pytest.raises(InvalidInputError):
        SequenceFilter(required=("warm",))
    with pytest.raises(InvalidInputError):
        SequenceFilter(required=("medial",), forbidden=("medial",))


def test_catalog_goldens():
    census4 = catalog(4)
    assert catalog_count(census4, 2, {"idempotent"}) == 1
    census5 = catalog(5)
    assert catalog_count(census5, 1, {"idempotent"}) == 0
    census6 = catalog(6, permutation_only=True)
    assert catalog_count(census6, 2, {"permutation", "associative"}) == 3


def test_catalog_is_deterministic():
    assert catalog(5) == catalog(5)
    assert catalog(4, permutation_only=True) == catalog(4, permutation_only=True)


def test_catalog_count_rejects_unknown_flags():
    census = catalog(4)
    with pytest.raises(InvalidInputError):
        catalog_count(census, 2, {"warm"})


def test_catalog_total_matches_search_space():
    n = 4
    census = catalog(n)
    for k in range(1, n):
        total = sum(count for (kk, _), count in census.items() if kk == k)
        assert total == n**n


def test_verify_smoke_and_overrides():
    report = verify("unique-step", max_n=4)
    assert report.passed
    assert report.instances_checked == 6  # (n, k) pairs with 2 <= n <= 4
    assert report.elapsed >= 0.0
    smaller = verify("unique-step", max_n=3)
    assert smaller.instances_checked < report.instances_checked


def test_a_library_verify_call_leaves_no_memo():
    # The outermost scope empties batch's memo as it opens and as it
    # closes; the scope a verify call opens inside it leaves the memo be.
    batch.row_array(4, True)
    with workers(1):
        assert not batch._ROWS and not batch._VERDICTS
        verify("dual-step", max_n=6)
        assert batch._VERDICTS
    assert not batch._ROWS and not batch._VERDICTS
    # A call outside any scope is its own outermost scope.
    batch.space_verdicts("associative", 4, 1, True)
    report = verify("dual-step", max_n=6)
    assert report.passed and report.instances_checked == 15
    assert not batch._ROWS and not batch._VERDICTS


def test_verify_serial_equals_parallel():
    serial, parallel = [], []
    verify("dual-step", max_n=6, jobs=1, on_result=serial.append)
    verify("dual-step", max_n=6, jobs=3, on_result=parallel.append)
    assert serial == parallel


def test_verify_expected_fail_is_not_failure():
    results = []
    report = verify("idempotent-existence", max_n=6, on_result=results.append)
    statuses = {r.status for r in results}
    assert "expected-fail" in statuses
    assert report.passed


def test_verify_argument_validation():
    with pytest.raises(InvalidInputError):
        verify("warm")
    with pytest.raises(InvalidInputError):
        verify("unique-step", max_n=1)
    with pytest.raises(InvalidInputError):
        verify("unique-step", jobs=0)


def test_instance_results_are_serializable():
    results = []
    verify("left-neutral-element", max_n=4, on_result=results.append)
    for result in results:
        payload = result.as_dict()
        assert set(payload) == {"theorem", "n", "k", "status", "witness"}
        assert payload["theorem"] == "left-neutral-element"
