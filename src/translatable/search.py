"""Row enumeration, property census, and the campaign runner.

enumerate_sequences walks candidate first rows in lexicographic order and
keeps the ones whose generated table matches a property filter.  catalog
counts tables per exact property fingerprint.  verify replays one named
campaign and collects per-instance results, handing each to a callback as
its instance finishes; with jobs > 1 instances are spread over worker
processes while keeping the serial result order.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import batch
from .campaigns import THEOREMS, Campaign, InstanceResult
from .core import BoundError, InvalidInputError, KSequence, PreconditionError
from .properties import PROPERTY_NAMES, check
from .translation import table_from_sequence

PERMUTATION_BOUND = 8
FULL_BOUND = 6

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


def _holds(table, name: str) -> bool:
    try:
        return check(table, name)[0]
    except PreconditionError:
        return False


def _check_enumeration_bound(n: int, permutation_only: bool) -> None:
    if n < 1:
        raise InvalidInputError(f"order must be at least 1, got {n}")
    limit = PERMUTATION_BOUND if permutation_only else FULL_BOUND
    kind = "permutation rows" if permutation_only else "all rows"
    if n > limit:
        raise BoundError(f"enumeration over {kind} stops at n = {limit}, got {n}")


def enumerate_sequences(n: int, k: int, filt: SequenceFilter | None = None) -> Iterator[KSequence]:
    """First rows, in lexicographic order, whose tables pass the filter."""
    filt = filt or SequenceFilter()
    _check_enumeration_bound(n, filt.permutation_only)
    if filt.permutation_only:
        rows = itertools.permutations(range(1, n + 1))
    else:
        rows = itertools.product(range(1, n + 1), repeat=n)
    for row in rows:
        seq = KSequence(n, k, tuple(row))
        table = table_from_sequence(seq)
        if all(_holds(table, name) for name in filt.required) and not any(
            _holds(table, name) for name in filt.forbidden
        ):
            yield seq


def catalog(n: int, permutation_only: bool = False) -> dict[tuple[int, frozenset[str]], int]:
    """Count tables per step and exact property fingerprint.

    Keys are (k, flags) where flags is the exact set of catalog flags the
    table carries; values are row counts.  Entries with count zero are
    dropped.
    """
    _check_enumeration_bound(n, permutation_only)
    rows = batch.row_array(n, permutation_only)
    perm = batch._distinct(rows, 1)
    census: dict[tuple[int, frozenset[str]], int] = {}
    for k in range(1, n):
        tables = batch.product_tables(rows, k)
        flags = {
            "permutation": perm,
            "idempotent": batch.idempotent_mask(tables),
            "associative": batch.associative_mask(tables),
            "left-cancellative": batch.left_cancellative_mask(tables),
            "quasigroup": batch.quasigroup_mask(tables),
            "commutative": batch.commutative_mask(tables),
        }
        bits = np.zeros(rows.shape[0], dtype=np.int64)
        for pos, name in enumerate(CATALOG_FLAGS):
            bits |= flags[name].astype(np.int64) << pos
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


def _run_instance(arg: tuple[str, tuple]) -> list[InstanceResult]:
    theorem_id, instance = arg
    return THEOREMS[theorem_id].run(instance)


def _worker_count(jobs: int, instances: int, cpus: int | None) -> int:
    """Processes worth starting: never more than the CPUs or the instances."""
    return max(1, min(jobs, cpus or 1, instances))


def _results(campaign: Campaign, instances: list[tuple], jobs: int) -> Iterator[InstanceResult]:
    """Every instance's results in instance order, each as its instance finishes."""
    workers = _worker_count(jobs, len(instances), os.cpu_count())
    if workers == 1:
        for instance in instances:
            yield from campaign.run(instance)
        return
    with multiprocessing.Pool(workers) as pool:
        tasks = [(campaign.theorem_id, inst) for inst in instances]
        for chunk in pool.imap(_run_instance, tasks):
            yield from chunk


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
