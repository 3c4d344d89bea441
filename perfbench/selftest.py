"""Fast self-test of the benchmark harness (a few seconds).

    PYTHONPATH=src python3 perfbench/selftest.py

Checks that seeded inputs are deterministic, that self time is span time
minus child spans on a synthetic trace, and that a wrong expected output is
counted as a failed op instead of aborting the run.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import catalogue as cat
import workloads
from tracer import NO_PARENT, self_times, summarise


def describe(op) -> object:
    if isinstance(op, workloads.SearchOp):
        return tuple(op.entry["primes"]), op.entry["bound"]
    return tuple(op.argv)


def passes(workload: str, seed: int, golden: dict, n: int = 3) -> list:
    wl = workloads.WORKLOADS[workload][0](golden, seed)
    return [[describe(op) for op in wl.make_pass()] for _ in range(n)]


def test_seeded_inputs(golden: dict) -> None:
    for workload in workloads.WORKLOADS:
        first = passes(workload, 7, golden)
        assert first == passes(workload, 7, golden), f"{workload}: same seed, different inputs"
        assert first != passes(workload, 8, golden), f"{workload}: seed has no effect"


def test_self_time() -> None:
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    names = ["a", "b", "c", "d"]
    name = np.array([0, 1, 2, 3], dtype=np.int32)
    parent = np.array([NO_PARENT, 0, 1, 0], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]
    summary = summarise(names, name, parent, start, end)
    assert summary["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert summary["b"]["self_s"] == 2.0


def test_wrong_output_counts_as_failed(golden: dict) -> None:
    entry = copy.deepcopy(golden["search"]["dense"][0])
    good = workloads.SearchOp(copy.deepcopy(entry))
    entry["sha256"] = "0" * 64
    bad = workloads.SearchOp(entry)
    tally = workloads.run_ops([good, bad])
    assert (tally["attempted"], tally["failed"]) == (2, 1), tally

    argv = cat.CLI_SLOTS["admits_pos"][0]
    want = dict(golden["cli"][cat.argv_key(argv)])
    want["code"] = 1 - want["code"]
    tally = workloads.run_ops([workloads.CliOp(argv, want)])
    assert tally["failed"] == 1, tally

    argv = next(a for a in cat.CLI_SLOTS["survey"] if cat.written_files(a))
    want = dict(golden["cli"][cat.argv_key(argv)])
    want["files"] = {path: "0" * 64 for path in want["files"]}
    tally = workloads.run_ops([workloads.CliOp(argv, want)])
    assert tally["failed"] == 1, tally

    tally = workloads.run_ops([good, bad, good])
    metrics = workloads.end_to_end(tally)
    assert metrics["samples"] == 3 and tally["failed"] == 1


def main() -> int:
    golden = cat.load_golden()
    test_seeded_inputs(golden)
    test_self_time()
    test_wrong_output_counts_as_failed(golden)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
