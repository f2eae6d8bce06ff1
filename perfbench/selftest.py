"""Harness self-test: every workload at tiny sizes, untraced and traced.

Usage (from the repository root): python3 perfbench/selftest.py

Exercises instance generation, the output checks (including outputs that
must be rejected), the traced pass and the result JSON in a few seconds.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import random
import sys

import checks
import instances
import jobs
import run


def expect_rejected(check, out, **kwargs) -> None:
    try:
        check(out, **kwargs)
    except checks.CheckFailed:
        return
    raise AssertionError(f"{check.__name__} accepted a wrong output")


def negative_checks() -> None:
    """Outputs a broken program could print must fail their checks."""
    empty = {"n": 6, "edges": []}
    expect_rejected(checks.check_extremal, {"value": 6, "explored": 1, "witness": empty},
                    mode="star", n=6, s=2, value=7)
    c6 = {"n": 6, "edges": [list(e) for e in checks.C6_EDGES]}
    expect_rejected(checks.check_extremal, {"value": 6, "explored": 1, "witness": c6},
                    mode="star", n=6, s=2, value=6)
    spec, expected = instances.tree_instance(2, random.Random(0))
    copies = [[0, 0, 0, 0, 0]] * expected["count"]
    expect_rejected(checks.check_tree, {"count": expected["count"], "copies": copies},
                    spec=spec, expected=expected)
    spec, expected = instances.asym_instance(20, 50, 6, random.Random(0))
    expect_rejected(checks.check_asym, {"found": False, "mapping": None, "trace": []},
                    spec=spec, expected=expected)
    cert = {"a": 2, "b": 5, "base": {"kind": "theta", "len": 3}, "reductions": 2, "l": 2,
            "s0": 8, "exponent": "8/5", "verified": True}
    expect_rejected(checks.check_realize, cert, a=2, b=5, l=2)


def main() -> int:
    bench = run.BENCH
    want = {0: {m["name"] for m in bench["end_to_end"]},
            1: {m["name"] for m in bench["per_layer"]}}
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
    negative_checks()
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            result, record = run.measure(workload, seed=1, seconds=0, trace=bool(trace), tiny=True)
            json.loads(json.dumps(result))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, record["failures"]
            got = set(result["metrics"])
            assert got == want[trace], (workload, trace, got ^ want[trace])
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"{workload} trace={trace}: ok, {result['attempted']} jobs, "
                  f"passes {record['passes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
