"""Record the expected outputs that workloads.py cannot derive by itself.

    python3 bench/record.py

Runs every verify workload once and every pooled single-table input once
through ``translatable.cli.main`` and writes exit codes and SHA-256
digests to ``bench/expected.json``.  Run it only on a commit whose
outputs are known to be right; the benchmark then holds every later
commit to them.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import WORK, load_package


def invoke(main, argv) -> dict:
    out = WORK / "record.txt"
    code = main(argv + ["--out", str(out)])
    return {"exit": code, "sha256": workloads.sha256(out.read_bytes()), "text": out.read_text()}


def main() -> int:
    package = load_package()
    cli_main = package.cli.main
    WORK.mkdir(parents=True, exist_ok=True)
    expected: dict = {}
    for workload in ("verify-rowspace", "verify-constructions"):
        ids = workloads.campaign_ids(workload, package.campaigns.THEOREMS)
        got = invoke(cli_main, workloads.verify_argv(ids))
        campaigns = workloads.split_verify_output(got["text"])
        if list(campaigns) != ids:
            sys.exit(f"record: {workload} reported {list(campaigns)}, expected {ids}")
        for problem in workloads.status_problems(campaigns):
            sys.exit(f"record: {problem}")
        expected[workload] = {"exit": got["exit"], "sha256": got["sha256"], "campaigns": campaigns}
    single: dict = {"report": {}, "report-random": {}, "decompose": {}}
    for pick, seq in enumerate(package.cancellative_semigroups(*workloads.REPORT)):
        argv = ["check", "--k", str(seq.k), "--seq", workloads.seq_text(seq.seq)]
        single["report"][str(pick)] = _strip(invoke(cli_main, argv))
    for pick in range(workloads.REPORT_RANDOM_POOL):
        k, row = workloads.random_report_row(pick)
        argv = ["check", "--k", str(k), "--seq", workloads.seq_text(row)]
        single["report-random"][str(pick)] = _strip(invoke(cli_main, argv))
    for pick, seq in enumerate(package.cancellative_semigroups(*workloads.SEMIGROUP)):
        argv = ["decompose", "--k", str(seq.k), "--seq", workloads.seq_text(seq.seq)]
        single["decompose"][str(pick)] = _strip(invoke(cli_main, argv))
    expected["single-table"] = single
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def _strip(record: dict) -> dict:
    return {"exit": record["exit"], "sha256": record["sha256"]}


if __name__ == "__main__":
    sys.exit(main())
