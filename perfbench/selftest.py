"""Self-tests for the benchmark itself (not part of the library's test suite).

    python3 perfbench/selftest.py

1. Tiny mode runs all three workloads, untraced and traced, with correct
   outputs, the metric names of BENCHMARK.json, and a passing
   trace-coverage check.
2. A deliberately wrong oracle expectation (``--fault``, which lives in
   the benchmark, never in phaseq) is counted as a failure on every
   workload.
3. Two seeds give different inputs with identical operation counts, and
   the same seed gives identical inputs.
4. A repeat of the same seed gives identical output digests, and a
   differing digest fails the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import spec  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace=0, *flags):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_runs():
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    layers = {m["name"] for m in BENCH["per_layer"]}
    assert e2e == set(spec.END_TO_END)
    for workload in spec.WORKLOADS:
        for trace, names in ((0, e2e), (1, layers)):
            out, result = run(workload, 3, trace)
            assert result["correct"] and result["failed"] == 0, out
            assert set(result["metrics"]) == names, workload
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), out


def test_fault_is_counted():
    for workload in spec.WORKLOADS:
        out, result = run(workload, 3, 0, "--fault")
        assert not result["correct"] and result["failed"] >= 1, out
        assert "FAIL" in out


def describe(workload, seed, tiny):
    ops = workloads.make_round(workload, seed, 0, tiny)
    return [op.label for op in ops], Counter(type(op).__name__ for op in ops)


def test_seeds_change_inputs_not_counts():
    for workload in spec.WORKLOADS:
        for tiny in (True, False):
            labels1, counts1 = describe(workload, 1, tiny)
            labels2, counts2 = describe(workload, 2, tiny)
            assert counts1 == counts2, workload
            assert describe(workload, 1, tiny)[0] == labels1, workload
            # tiny wigner has too few seeded choices to differ for every pair
            if not tiny:
                assert labels1 != labels2, workload


def test_repeat_gives_same_digests():
    # the second run compares its round digests with the first run's
    for _ in range(2):
        out, result = run("grid-ops", 11, 0)
        assert result["correct"], out
    # a stored digest that differs must fail the run
    stores = list((ROOT / ".perfbench_out" / "digests").glob("*-grid-ops-11-tiny.json"))
    for store in stores:
        store.write_text(json.dumps({"0": "0" * 64}))
    out, result = run("grid-ops", 11, 0)
    for store in stores:
        store.unlink()
    assert not result["correct"] and "digest differs" in out, out


def main() -> int:
    tests = [test_seeds_change_inputs_not_counts, test_tiny_runs,
             test_fault_is_counted, test_repeat_gives_same_digests]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {str(exc)[-2000:]}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
