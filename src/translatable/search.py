"""Row enumeration, property census, and the campaign runner.

enumerate_sequences and catalog sweep a row space that verify would sweep
(batch._space_size refuses the rest) as (B, n, n) stacks of step-k tables
through the batch masks; enumerate_sequences sieves each row block through
its filter, masked properties first, and a property with no mask (the
semigroup-only ones) costs one `check` per table still alive.  catalog
counts tables per exact property fingerprint, one row block at a time
(batch._blocks).  verify replays one named campaign and collects
per-instance results, handing each to a callback as its instance finishes;
with jobs > 1 instances are spread over worker processes while keeping the
serial result order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import batch
from .campaigns import THEOREMS, Campaign, InstanceResult
from .core import CayleyTable, InvalidInputError, KSequence, _check_order, _check_step
from .properties import NEEDS_ASSOCIATIVITY, PROPERTY_NAMES, _distinct, check
from .translation import _sieve

CATALOG_FLAGS = (
    "permutation",
    "idempotent",
    "associative",
    "left-cancellative",
    "quasigroup",
    "commutative",
)


@dataclass(frozen=True)
class SequenceFilter:
    """Which generated tables an enumeration keeps."""

    permutation_only: bool = False
    required: tuple[str, ...] = ()
    forbidden: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in (*self.required, *self.forbidden):
            if name not in PROPERTY_NAMES:
                raise InvalidInputError(f"unknown property {name!r}")
        overlap = set(self.required) & set(self.forbidden)
        if overlap:
            raise InvalidInputError(
                f"properties both required and forbidden: {', '.join(sorted(overlap))}"
            )


def _passes(tables: np.ndarray, test: tuple[str, bool]) -> np.ndarray:
    """Whether the named property's verdict on each table of a (B, n, n)
    stack is the wanted one, test being (name, wanted).  The verdict is the
    property's batch mask if it has one, else `check` table by table; a
    semigroup-only property holds on no non-associative table."""
    name, wanted = test
    if name in batch.MASKS:
        return batch.MASKS[name](tables) == wanted
    ok = batch.associative_mask(tables) if name in NEEDS_ASSOCIATIVITY else np.ones(len(tables), bool)
    for b in np.flatnonzero(ok):
        ok[b] = check(CayleyTable(tables.shape[1], tables[b] + 1), name)[0]
    return ok == wanted


def enumerate_sequences(n: int, k: int, filt: SequenceFilter | None = None) -> Iterator[KSequence]:
    """First rows, in lexicographic order, whose tables pass the filter."""
    filt = filt or SequenceFilter()
    _check_order(n)
    _check_step(n, k)
    tests = [(name, True) for name in filt.required] + [(name, False) for name in filt.forbidden]
    tests.sort(key=lambda test: test[0] not in batch.MASKS)
    for _, rows in batch._space_rows(n, filt.permutation_only):
        keep = _sieve(batch.product_tables(rows, k), _passes, tests)
        for row in (rows[keep] + 1).tolist():
            yield KSequence(n, k, tuple(row))


def catalog(n: int, permutation_only: bool = False) -> dict[tuple[int, frozenset[str]], int]:
    """Count tables per step and exact property fingerprint.

    Keys are (k, flags) where flags is the exact set of catalog flags the
    table carries; values are row counts.  Entries with count zero are
    dropped.
    """
    _check_order(n)
    perm = _distinct(batch.row_array(n, permutation_only), 1)
    census: dict[tuple[int, frozenset[str]], int] = {}

    def flags(tables):
        return np.stack([batch.MASKS[name](tables) for name in CATALOG_FLAGS[1:]])

    for k in range(1, n):
        bits = perm.astype(np.int64)
        for pos, verdicts in enumerate(batch._blocks(n, k, permutation_only, flags), start=1):
            bits |= verdicts.astype(np.int64) << pos
        counts = np.bincount(bits, minlength=1 << len(CATALOG_FLAGS))
        for code in np.flatnonzero(counts):
            named = frozenset(
                name for pos, name in enumerate(CATALOG_FLAGS) if code >> pos & 1
            )
            census[(k, named)] = int(counts[code])
    return census


def catalog_count(census: dict[tuple[int, frozenset[str]], int], k: int, flags) -> int:
    """Tables at step k whose fingerprint contains all the given flags."""
    wanted = frozenset(flags)
    unknown = wanted - set(CATALOG_FLAGS)
    if unknown:
        raise InvalidInputError(f"flags outside the catalog: {', '.join(sorted(unknown))}")
    return sum(
        count for (step, named), count in census.items()
        if step == k and wanted <= named
    )


@dataclass(frozen=True)
class CampaignReport:
    """Everything verify learned about one campaign."""

    theorem_id: str
    instances_checked: int
    failures: tuple[InstanceResult, ...]
    elapsed: float
    results: tuple[InstanceResult, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def campaign_ids() -> list[str]:
    return list(THEOREMS)


def _campaign(theorem_id: str) -> Campaign:
    try:
        return THEOREMS[theorem_id]
    except KeyError:
        raise InvalidInputError(f"unknown campaign {theorem_id!r}") from None


def _run_instance(theorem_id: str, instance: tuple) -> InstanceResult:
    return THEOREMS[theorem_id].result(instance)


def _worker_count(jobs: int, instances: int, cpus: int | None) -> int:
    """Processes worth starting: never more than the CPUs or the instances."""
    return max(1, min(jobs, cpus or 1, instances))


def _results(campaign: Campaign, instances: list[tuple], jobs: int) -> Iterator[InstanceResult]:
    """Every instance's result in instance order, each as its instance finishes."""
    workers = _worker_count(jobs, len(instances), os.cpu_count())
    if workers == 1:
        yield from map(campaign.result, instances)
        return
    # Imported where the pool starts: at import it cost every command about
    # 470 KiB (sockets, pickling, process machinery) that only --jobs > 1 uses.
    from concurrent.futures import ProcessPoolExecutor

    # When an instance raises (a BoundError, say), map cancels the instances not
    # started and the pool lets the running ones end: killing a worker, as Pool's
    # terminate() does, can leave the result queue locked and hang the parent.
    with ProcessPoolExecutor(workers) as pool:
        yield from pool.map(_run_instance, [campaign.theorem_id] * len(instances), instances)


def verify(
    theorem_id: str,
    max_n: int | None = None,
    jobs: int = 1,
    on_result: Callable[[InstanceResult], None] | None = None,
) -> CampaignReport:
    """Replay one campaign up to max_n and report per-instance outcomes.

    on_result, when given, sees each result as soon as its instance
    finishes, in the same order as the report's results.
    """
    campaign = _campaign(theorem_id)
    if max_n is None:
        max_n = campaign.default_max_n
    if max_n < 2:
        raise InvalidInputError(f"max_n must be at least 2, got {max_n}")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be positive, got {jobs}")
    instances = campaign.instances(max_n)
    started = time.perf_counter()
    results = []
    for result in _results(campaign, instances, jobs):
        results.append(result)
        if on_result is not None:
            on_result(result)
    elapsed = time.perf_counter() - started
    failures = tuple(result for result in results if result.status == "fail")
    return CampaignReport(
        theorem_id=theorem_id,
        instances_checked=len(results),
        failures=failures,
        elapsed=elapsed,
        results=tuple(results),
    )
