"""Tests for the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (9, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tracing.tail_percentile(count) == expected


def test_summarize_reports_median_count_and_supported_tail():
    values = [float(v) for v in range(1, 101)]
    out = tracing.summarize(values)
    assert out["count"] == 100
    assert out["median"] == pytest.approx(50.5)
    assert out["p90"] == pytest.approx(90.1)
    assert set(tracing.summarize([1.0, 2.0, 3.0])) == {"median", "count"}


def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [4, 6] extends the
    # union to [1, 6], and [9, 12] leaks past the parent's end.
    starts = [0.0, 1.0, 2.0, 4.0, 9.0]
    ends = [10.0, 3.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0, 0]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1:] == pytest.approx([2.0, 3.0, 2.0, 3.0])


def test_self_time_counts_only_direct_children():
    # root [0, 10] > child [2, 8] > grandchild [3, 7]
    selfs = tracing.self_times([0.0, 2.0, 3.0], [10.0, 8.0, 7.0], [-1, 0, 1])
    assert selfs == pytest.approx([4.0, 2.0, 4.0])


def test_distinct_ratio_on_a_hand_built_call_log():
    tracer = tracing.Tracer()
    stack = np.arange(24, dtype=np.int8).reshape(2, 3, 4)
    mask = tracer.wrap(lambda tables: tables.sum(), "batch.mask/x", tracer._mask_after("x"))
    mask(stack)
    mask(stack.copy())          # same content, another object: not distinct
    mask(stack[:, ::-1])        # strided view with other content: distinct
    mask(stack + 1)             # other content: distinct
    assert tracing.distinct_ratio(tracer.keys[tracing.MASK_LAYER]) == pytest.approx(3 / 4)
    assert tracer.counts["batch.mask.tables"] == 8
    assert tracing.distinct_ratio([]) == 0.0


def test_tracer_rebinds_imported_copies_and_restores_them(tmp_path):
    import translatable
    from translatable import cli, core, translation

    original = core.serialize
    tracer = tracing.Tracer()
    tracer.install(translatable)
    try:
        assert cli.serialize is not original and core.serialize is not original
        cli.main(["build", "--k", "2", "--seq", "1 2 3", "--out", str(tmp_path / "t.txt")])
    finally:
        tracer.uninstall()
    assert cli.serialize is original and core.serialize is original
    assert not hasattr(translation.CayleyTable.__post_init__, "__wrapped__")
    names = {tracer.names[i] for i in tracer.name}
    assert {"cli.main", "core.serialize", "core.KSequence", "translation.table_from_sequence"} <= names
    ops = {tracer.op[i] for i in range(len(tracer.start))}
    assert ops == {0}


def test_benchmark_json_names_every_per_layer_metric():
    import translatable

    tracer = tracing.Tracer()
    tracer.campaigns = list(translatable.campaigns.THEOREMS)
    names = set(tracing.layer_metrics(tracer)) | {"trace.overhead_s"}
    names |= {f"latency.{kind.replace('-', '_')}_s" for kind in workloads.COMMANDS}
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["per_layer"]} == names
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_recorded_verify_statuses_follow_the_seed_rule():
    expected = workloads.load_expected()
    for workload in ("verify-rowspace", "verify-constructions"):
        assert workloads.status_problems(expected[workload]["campaigns"]) == []
    existence = expected["verify-rowspace"]["campaigns"]["idempotent-existence"]
    assert existence["statuses"] == {"expected-fail": 21, "pass": 34}
    assert len(expected["verify-rowspace"]["campaigns"]) == len(workloads.ROWSPACE) == 24
    assert len(expected["verify-constructions"]["campaigns"]) == 26


def test_oracles_on_a_small_table():
    grid = workloads.product_table([1, 2, 3, 4, 5, 6], 2)
    assert grid[0].tolist() == [1, 2, 3, 4, 5, 6]
    assert grid[1].tolist() == [5, 6, 1, 2, 3, 4]
    assert workloads.translation_steps(grid) == [2]
    constant = np.ones((4, 4), dtype=np.int64)
    assert workloads.translation_steps(constant) == [1, 2, 3]
    assert workloads.associativity_witness(grid) is None  # n=6, k=2 semigroup row
    bad = grid.copy()
    bad[0, 0] = 2
    assert workloads.associativity_witness(bad)[:3] == (1, 1, 1)
