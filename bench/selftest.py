"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at its smallest size, untraced and traced, and checks
that the result line names exactly the metrics of BENCHMARK.json with their
units and that no op failed.  Then checks that the harness counts a wrong
expected count as a failure of each op of its pair, and a search that runs
out of budget as one failed op, without stopping the pass.  Takes about ten
seconds.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from brandt import BudgetExceeded, enumerate_homs  # noqa: E402
from run import WORKLOADS  # noqa: E402
from worker import EXPECTED, Runner  # noqa: E402
from workloads import setup_hom_search, run_hom_search  # noqa: E402


def check(ok, message):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def tiny_runs():
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            tag = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{tag} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{tag}: result keys {sorted(result)}",
            )
            check(result["correct"] and result["failed"] == 0, f"{tag}: {proc.stderr}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared_metrics(kind), f"{tag}: metrics differ from BENCHMARK.json")
            if trace:
                check(result["metrics"]["failed_frac"]["value"] == 0, f"{tag}: failed_frac")
            print(f"ok  {tag}: {result['attempted']} ops, {len(got)} metrics")


def wrong_expected_count_fails_its_ops():
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    inputs = setup_hom_search(random.Random(0), tiny=True)
    a, b = inputs["pairs"][0][:2]
    wrong = copy.deepcopy(expected)
    wrong["hom-search"][f"{a}|{b}"] += 1
    runner = Runner(trace=False)
    run_hom_search(runner, inputs, wrong)
    failed = [ok for _, ok in runner.ops].count(False)
    runs = sum(pair[:2] == (a, b) for pair in inputs["pairs"])
    check(failed == runs, f"a wrong expected count failed {failed} ops, not {runs}")
    check("expected" in runner.errors[0], f"unexpected error text {runner.errors}")
    print(f"ok  a wrong expected count fails the {runs} ops of its pair, and only those")


def budget_exceeded_fails_one_op():
    inputs = setup_hom_search(random.Random(0), tiny=True)
    A = inputs["isos"][0][1]
    runner = Runner(trace=True)
    with runner.op():
        runner.call("homs.enumerate_homs", enumerate_homs, A, A, budget=1)
    with runner.op():
        runner.call("homs.enumerate_homs", enumerate_homs, A, A)
    check([ok for _, ok in runner.ops] == [False, True], f"ops {runner.ops}")
    check(BudgetExceeded.__name__ in runner.errors[0], f"errors {runner.errors}")
    check(runner.spans[1][5] == BudgetExceeded.__name__ and runner.spans[1][6], "span")
    print("ok  BudgetExceeded is one failed op and the pass goes on")


def main():
    tiny_runs()
    wrong_expected_count_fails_its_ops()
    budget_exceeded_fails_one_op()
    print("selftest passed")


if __name__ == "__main__":
    main()
