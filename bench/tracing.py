"""Spans around the package's layer boundaries, recorded from outside it.

The package's modules bind each other's functions with ``from .x import y``,
so wrapping ``x.y`` alone would miss every call made through another
module's copy of the name.  ``Tracer.install`` therefore rebinds each
wrapped function wherever a ``translatable`` module holds it: as a module
attribute or as a value of a module-level dict (``batch.MASKS``,
``properties._CHECKERS``).  Nothing under ``src/`` is edited.

A span is (name, start, end, parent, op).  Its name is the layer, followed
by ``/detail`` where a layer covers several functions or campaigns.  Spans
are kept in compact arrays while the run lasts and summarised, and written
out, when it ends.  Every span opened while an operation boundary (a CLI
invocation or a campaign instance) is open carries that operation's id.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import sys
import time
import zlib
from array import array

import numpy as np

# (module, attribute, layer).  A dotted attribute names a method patched on
# its class, which reaches every caller without rebinding.
WRAPPED = (
    ("core", "parse_table", "core.parse_table"),
    ("core", "serialize", "core.serialize"),
    ("core", "CayleyTable.__post_init__", "core.CayleyTable"),
    ("core", "KSequence.__post_init__", "core.KSequence"),
    ("translation", "table_from_sequence", "translation.table_from_sequence"),
    ("translation", "detect", "translation.detect"),
    ("translation", "is_translatable", "translation.is_translatable"),
    ("batch", "row_array", "batch.row_array"),
    ("batch", "product_tables", "batch.product_tables"),
    ("properties", "check", "properties.check"),
    # The associativity scan itself, however it is reached: through check,
    # report's pre-pass, or the prerequisite of a semigroup-only identity.
    ("properties", "_check_associative", "properties.check.associative"),
    ("properties", "report", "properties.report"),
    ("properties", "semigroup_criterion", "properties.closed_form"),
    ("properties", "lcond_check", "properties.closed_form"),
    ("properties", "left_unitary_characterize", "properties.closed_form"),
    ("constructions", "union_same_step", "constructions.union"),
    ("constructions", "union_shifted_step", "constructions.union"),
    ("constructions", "pair_union", "constructions.union"),
    ("constructions", "left_unitary_groupoid", "constructions.family"),
    ("constructions", "idempotent_groupoid", "constructions.family"),
    ("constructions", "cancellative_semigroups", "constructions.family"),
    ("constructions", "block_product_table", "constructions.family"),
    ("constructions", "constant_column_semigroups", "constructions.family"),
    ("constructions", "embed", "constructions.family"),
    ("structure", "decompose", "structure.decompose"),
    ("structure", "iso_idempotent", "structure.iso"),
    ("structure", "iso_left_unitary", "structure.iso"),
    ("structure", "iso_to_cyclic", "structure.iso"),
    ("structure", "ideals", "structure.ideals"),
    ("search", "verify", "search.verify"),
    ("cli", "main", "cli.main"),
)
# Besides WRAPPED, every batch function named *_mask is wrapped under this
# layer, and every campaign's runner under the instance layer.
MASK_LAYER = "batch.mask"
INSTANCE_LAYER = "campaigns.instance"
NAMED_MASKS = ("associative_mask", "translatable_mask", "alterable_mask")
# Spans that start a new operation id.
OPERATIONS = ("cli.main", INSTANCE_LAYER)
# The tracer's own hashing of call inputs is a child span, so that it is
# taken out of the enclosing layer's self time.
HASH_SPAN = "trace.hash"
KEY_SAMPLE = 2048

# Which spans each workload must reach at least once, and which layers it
# must never reach.  A wrapper that sees no call where one is predicted
# usually means a `from .x import y` copy of the name was not rebound.
# Every wrapped function is predicted on some workload, except the masks
# that only `enumerate` and `catalog` reach (UNREACHED_MASKS).
VERIFY_SPANS = ("cli.main", "search.verify", INSTANCE_LAYER)
UNREACHED_MASKS = ("left_modular_mask", "right_modular_mask", "paramedial_mask")
PREDICTED = {
    "verify-rowspace": VERIFY_SPANS + (
        "batch.row_array", "batch.product_tables", "translation.detect",
        "properties.closed_form/lcond_check", "structure.iso/iso_idempotent",
    ),
    "verify-constructions": VERIFY_SPANS + (
        "core.CayleyTable", "core.KSequence", "translation.table_from_sequence",
        "translation.is_translatable", "properties.check", "properties.check.associative",
        "properties.closed_form/semigroup_criterion",
        "properties.closed_form/left_unitary_characterize",
        "structure.decompose", "structure.ideals", "structure.iso/iso_left_unitary",
        "structure.iso/iso_to_cyclic",
        *(f"constructions.union/{f}" for f in ("union_same_step", "union_shifted_step", "pair_union")),
        *(f"constructions.family/{f}" for f in (
            "left_unitary_groupoid", "idempotent_groupoid", "cancellative_semigroups",
            "block_product_table", "constant_column_semigroups", "embed",
        )),
    ),
    "single-table": (
        "cli.main", "core.parse_table", "core.serialize", "core.CayleyTable", "core.KSequence",
        "translation.table_from_sequence", "translation.detect", "properties.check",
        "properties.check.associative", "properties.report", "structure.decompose",
    ),
}
BYPASSED = {
    "verify-rowspace": (),
    "verify-constructions": ("batch.",),
    "single-table": ("batch.",),
}


# -- arithmetic ----------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (p in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(count: int, min_beyond: int = 10) -> float | None:
    """Highest percentile of TAIL_LADDER with at least min_beyond samples beyond it."""
    for p in TAIL_LADDER:
        if count * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            return p
    return None


def summarize(values) -> dict:
    """Median, count and the highest percentile the count supports."""
    if not values:
        return {"median": None, "count": 0}
    out = {"median": percentile(values, 50.0), "count": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def covered_length(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[idx], ends[idx]))
    out = []
    for idx, (s, e) in enumerate(zip(starts, ends)):
        kids = children.get(idx)
        out.append(e - s - (covered_length(kids, s, e) if kids else 0.0))
    return out


def distinct_ratio(keys) -> float:
    """Distinct call inputs over calls; 0 when there were no calls."""
    keys = list(keys)
    return len(set(keys)) / len(keys) if keys else 0.0


def array_key(*parts) -> tuple:
    """Key of a call's inputs for counting distinct ones.

    An array counts by shape, dtype and the CRC-32 of up to KEY_SAMPLE of
    its leading-axis slices taken at even spacing.  Hashing every byte
    would read about 4.6 GB of mostly strided mask input in the row-space
    run and more than double its traced wall time; stacks of one shape
    that agree on the whole sample are, in these campaigns, the same stack.
    """
    key = []
    for part in parts:
        if isinstance(part, np.ndarray):
            step = max(1, -(-part.shape[0] // KEY_SAMPLE)) if part.ndim else 1
            sample = np.ascontiguousarray(part[::step] if part.ndim else part)
            key.append((part.shape, part.dtype.str, zlib.crc32(memoryview(sample).cast("B"))))
        else:
            key.append(part)
    return tuple(key)


# -- recording -----------------------------------------------------------------


class Tracer:
    """Records spans and per-call data for the wrapped functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._is_op: list[bool] = []
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self._ops: list[int] = []
        self._next_op = 0
        self.keys: dict[str, list[tuple]] = {}
        self.counts: dict[str, int] = {}
        self.campaigns: list[str] = []
        self.masks: list[str] = []
        self._restore: list[tuple[object, object, object, bool]] = []

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._is_op.append(name.split("/")[0] in OPERATIONS)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.start)
        name_id = self._name_id(name)
        if self._is_op[name_id]:
            self._ops.append(self._next_op)
            self._next_op += 1
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._ops[-1] if self._ops else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if self._is_op[self.name[idx]]:
            self._ops.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def hashed_key(self, layer: str, *parts) -> None:
        idx = self.open(HASH_SPAN)
        try:
            self.keys.setdefault(layer, []).append(array_key(*parts))
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, after=None, tag=None):
        """fn inside a span; after(result, args, kwargs) runs once it closes."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name if tag is None else f"{name}/{tag(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------------

    def _rebind(self, package, original, replacement) -> int:
        hits = 0
        prefix = package.__name__ + "."
        for modname, module in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original, False))
                    setattr(module, attr, replacement)
                    hits += 1
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._restore.append((value, key, original, True))
                            value[key] = replacement
                            hits += 1
        return hits

    def _install(self, package, modname, attr, name, after=None, tag=None) -> None:
        module = importlib.import_module(f"{package.__name__}.{modname}")
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            self._restore.append((owner, method, original, False))
            setattr(owner, method, self.wrap(original, name, after, tag))
            return
        original = getattr(module, attr)
        if self._rebind(package, original, self.wrap(original, name, after, tag)) == 0:
            raise RuntimeError(f"{modname}.{attr} is bound nowhere")

    def install(self, package) -> None:
        """Wrap every function in WRAPPED, every batch mask and every campaign."""
        afters = {
            "batch.row_array": self._after_row_array,
            "batch.product_tables": self._after_product_tables,
            "properties.check": self._after_check,
        }
        shared: dict[str, bool] = {}
        for _, _, layer in WRAPPED:
            shared[layer] = layer in shared
        for modname, attr, layer in WRAPPED:
            name = f"{layer}/{attr}" if shared[layer] else layer
            tag = _theorem_tag if layer == "search.verify" else None
            self._install(package, modname, attr, name, afters.get(layer), tag)
        batch = importlib.import_module(f"{package.__name__}.batch")
        for attr in sorted(vars(batch)):
            if attr.endswith("_mask") and callable(getattr(batch, attr)):
                self._install(package, "batch", attr, f"{MASK_LAYER}/{attr}", self._mask_after(attr))
                self.masks.append(attr)
        registry = importlib.import_module(f"{package.__name__}.campaigns").THEOREMS
        for theorem_id, campaign in list(registry.items()):
            run = self.wrap(campaign.run, f"{INSTANCE_LAYER}/{theorem_id}")
            self._restore.append((registry, theorem_id, campaign, True))
            registry[theorem_id] = dataclasses.replace(campaign, run=run)
            self.campaigns.append(theorem_id)

    def uninstall(self) -> None:
        for owner, attr, original, is_item in reversed(self._restore):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _after_row_array(self, result, args, kwargs):
        self.count("batch.row_array.rows", int(result.shape[0]))
        self.hashed_key("batch.row_array", *args, *sorted(kwargs.items()))

    def _after_product_tables(self, result, args, kwargs):
        self.count("batch.product_tables.cells", int(result.size))

    def _mask_after(self, attr):
        def after(result, args, kwargs):
            self.count("batch.mask.tables", int(args[0].shape[0]))
            self.hashed_key(MASK_LAYER, attr, *args, *sorted(kwargs.items()))

        return after

    def _after_check(self, result, args, kwargs):
        if not result[0]:
            self.count("properties.check.fails")

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines [name, start, end, parent, op], times from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for idx in range(len(self.start)):
                handle.write(json.dumps([
                    self.names[self.name[idx]],
                    round(self.start[idx] - origin, 9),
                    round(self.end[idx] - origin, 9),
                    self.parent[idx],
                    self.op[idx],
                ]) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to a bare call, measured on a no-op."""
    tracer = Tracer()

    def bare():
        return None

    traced = tracer.wrap(bare, "calibration")
    started = time.perf_counter()
    for _ in range(calls):
        bare()
    middle = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, ((time.perf_counter() - middle) - (middle - started)) / calls)


def overhead_estimate(tracer: Tracer) -> float:
    """Time tracing added to a pass: its spans at the measured per-call cost,
    plus the hashing of call inputs, which has spans of its own."""
    hash_id = tracer._name_ids.get(HASH_SPAN, -1)
    hashes = [e - s for n, s, e in zip(tracer.name, tracer.start, tracer.end) if n == hash_id]
    return (len(tracer.start) - len(hashes)) * span_cost() + sum(hashes)


def _theorem_tag(args, kwargs):
    return kwargs.get("theorem_id", args[0] if args else "")


# -- summary -------------------------------------------------------------------


def span_totals(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, summed self seconds and every duration."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out: dict[str, dict] = {}
    for idx, own in enumerate(selfs):
        entry = out.setdefault(
            tracer.names[tracer.name[idx]], {"calls": 0, "self_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["self_s"] += own
        entry["durations"].append(tracer.end[idx] - tracer.start[idx])
    return out


CALLS_AND_SELF = (
    "core.parse_table", "core.serialize", "core.CayleyTable", "core.KSequence",
    "translation.table_from_sequence", "translation.detect", "translation.is_translatable",
    "batch.row_array", "batch.product_tables", MASK_LAYER,
    "properties.check", "properties.report", "properties.closed_form",
    "constructions.union", "constructions.family",
    "structure.decompose", "structure.iso", "structure.ideals",
    INSTANCE_LAYER, "search.verify", "cli.main",
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, zero where the layer saw no call."""
    by_name: dict[str, dict] = {}
    for name, entry in span_totals(tracer).items():
        by_name[name] = entry
        if "/" in name:
            layer = by_name.setdefault(name.split("/")[0], {"calls": 0, "self_s": 0.0, "durations": []})
            layer["calls"] += entry["calls"]
            layer["self_s"] += entry["self_s"]
            layer["durations"] += entry["durations"]
    empty = {"calls": 0, "self_s": 0.0, "durations": []}

    def get(name):
        return by_name.get(name, empty)

    out: dict[str, tuple[float, str]] = {}
    for layer in CALLS_AND_SELF:
        out[f"{layer}.calls"] = (get(layer)["calls"], "count")
        out[f"{layer}.self_s"] = (get(layer)["self_s"], "s")
    out["batch.row_array.rows"] = (tracer.counts.get("batch.row_array.rows", 0), "count")
    out["batch.row_array.distinct_ratio"] = (distinct_ratio(tracer.keys.get("batch.row_array", ())), "ratio")
    out["batch.product_tables.cells"] = (tracer.counts.get("batch.product_tables.cells", 0), "count")
    out["batch.mask.tables"] = (tracer.counts.get("batch.mask.tables", 0), "count")
    out["batch.mask.distinct_ratio"] = (distinct_ratio(tracer.keys.get(MASK_LAYER, ())), "ratio")
    for mask in NAMED_MASKS:
        out[f"batch.{mask}.self_s"] = (get(f"{MASK_LAYER}/{mask}")["self_s"], "s")
    checks = get("properties.check")["calls"]
    fails = tracer.counts.get("properties.check.fails", 0)
    out["properties.check.fail_share"] = (fails / checks if checks else 0.0, "ratio")
    out["properties.check.associative.self_s"] = (get("properties.check.associative")["self_s"], "s")
    durations = get(INSTANCE_LAYER)["durations"]
    for p in (50, 90):
        out[f"{INSTANCE_LAYER}.p{p}_s"] = (percentile(durations, p) if durations else 0.0, "s")
    for theorem_id in tracer.campaigns:
        out[f"campaigns.{theorem_id}.s"] = (sum(get(f"search.verify/{theorem_id}")["durations"]), "s")
    return out


def coverage_problems(tracer: Tracer, workload: str, campaign_ids) -> list[str]:
    """Predicted spans that saw no call, and bypassed layers that saw one."""
    seen: dict[str, int] = {}
    for name_id in tracer.name:
        name = tracer.names[name_id]
        seen[name] = seen.get(name, 0) + 1
    problems = []
    wanted = PREDICTED[workload] + tuple(f"{INSTANCE_LAYER}/{cid}" for cid in campaign_ids)
    if workload == "verify-rowspace":
        wanted += tuple(f"{MASK_LAYER}/{m}" for m in tracer.masks if m not in UNREACHED_MASKS)
    for span in wanted:
        if not any(name == span or name.startswith(span + "/") for name in seen):
            problems.append(f"no call reached {span} on {workload}")
    for prefix in BYPASSED[workload]:
        hits = sum(calls for name, calls in seen.items() if name.startswith(prefix))
        if hits:
            problems.append(f"{hits} calls reached {prefix}* on {workload}, predicted none")
    return problems
