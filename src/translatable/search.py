"""Row enumeration, property census, and the campaign runner.

enumerate_sequences and catalog sweep a row space that verify would sweep
(batch._space_size refuses the rest) as (B, n, n) stacks of step-k tables
through the batch masks; enumerate_sequences sieves each row block through
its filter, masked properties first, and a property with no mask (the
semigroup-only ones) costs one `check` per table still alive.  catalog
counts tables per exact property fingerprint, one row block at a time
(batch._blocks).  verify replays one named campaign, hands each result to a
callback as its instance finishes and keeps only the failing ones; with
jobs > 1 instances are spread over worker processes while keeping the
serial result order.  A verify run's state lives as long as the outermost
`workers` scope: batch's memo, emptied when that scope opens and when it
closes, and under jobs > 1 one pool of processes, each worker with its own
memo.  A verify call made outside any scope opens one for itself.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from contextvars import ContextVar
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


# The outermost open `workers` scope: its pool, or None, and how many instances it may have in flight.
_scope: ContextVar[tuple | None] = ContextVar("translatable.search.scope", default=None)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def workers(jobs: int) -> Iterator[None]:
    """The scope of a verify run; one opened inside another uses the outer
    one.  It empties batch's memo as it opens and as it closes, so the verify
    calls inside share row spaces and whole-space verdicts and leave none
    behind.  With jobs > 1 on two or more usable CPUs it also holds a pool of
    min(jobs, CPUs) processes, each keeping its memo between calls, and
    SIGTERM to the main thread raises SystemExit(143) so that the scope
    unwinds: instances not started are cancelled, running ones finish."""
    if _scope.get() is not None:
        yield
        return
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    count = min(jobs, cpus)
    pool = None
    batch.clear_memo()
    with contextlib.ExitStack() as stack:
        stack.callback(batch.clear_memo)
        if count > 1:
            # Imported where the pool starts: at import they cost every command about
            # 470 KiB (sockets, pickling, process machinery) and 0.8 ms that only --jobs > 1 uses.
            import signal
            from concurrent.futures import ProcessPoolExecutor

            if threading.current_thread() is threading.main_thread():
                stack.callback(signal.signal, signal.SIGTERM, signal.signal(signal.SIGTERM, _terminate))
            pool = ProcessPoolExecutor(count)
            # Killing a running worker instead, as Pool's terminate() does, can
            # leave the result queue locked and hang the parent.
            stack.callback(pool.shutdown, cancel_futures=True)
        stack.callback(_scope.reset, _scope.set((pool, 2 * count)))
        yield


def _results(campaign: Campaign, instances: list[tuple], jobs: int) -> Iterator[InstanceResult]:
    """Every instance's result in instance order, each as its instance
    finishes, on the open scope's pool if it has one and jobs > 1."""
    pool, window = _scope.get()
    if pool is None or jobs == 1:
        yield from map(campaign.result, instances)
        return
    pending = []
    try:
        for instance in instances:
            if len(pending) == window:
                yield pending.pop(0).result()
            pending.append(pool.submit(campaign.result, instance))
        while pending:
            yield pending.pop(0).result()
    finally:
        # Once an instance raises, or the caller stops early, none not started runs.
        for future in pending:
            future.cancel()


def verify(
    theorem_id: str,
    max_n: int | None = None,
    jobs: int = 1,
    on_result: Callable[[InstanceResult], None] | None = None,
) -> CampaignReport:
    """Replay one campaign up to max_n; report how many instances ran and which failed.

    on_result, when given, sees each result as soon as its instance
    finishes, in instance order.
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
    checked, failures = 0, []
    with workers(jobs):
        for result in _results(campaign, instances, jobs):
            checked += 1
            if result.status == "fail":
                failures.append(result)
            if on_result is not None:
                on_result(result)
    return CampaignReport(theorem_id, checked, tuple(failures), time.perf_counter() - started)
