"""Workload names, metric names and the mapping between them.

This module imports nothing from phaseq, so the parent process of the
benchmark can use it without paying the library's import cost.

The end-to-end metrics in BENCHMARK.json are the same six names on every
workload. Three of them are generic, and each workload gives them its own
meaning:

    op_ms.p50 / op_ms.p90   latency of the workload's unit operation
    work_per_s              work units completed per second of busy time

``DISPLAY`` lists the workload-specific names under which the same
numbers are printed for a human reader (``star_trial_ms.p50`` and so on).
"""

WORKLOADS = ("exact", "wigner", "grid-ops")

# op kind whose latency is op_ms, and op kind whose work rate is work_per_s
LATENCY_KIND = {"exact": "trial", "wigner": "wigner", "grid-ops": "call"}
WORK_KIND = {"exact": "sweep", "wigner": "wigner", "grid-ops": "dump"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "work_per_s": "items/s",
}

# (display name, unit, generic metric, scale from the generic value)
DISPLAY = {
    "exact": [
        ("star_trial_ms.p50", "ms", "op_ms.p50", 1.0),
        ("star_trial_ms.p90", "ms", "op_ms.p90", 1.0),
        ("identities_per_s", "1/s", "work_per_s", 1.0),
    ],
    "wigner": [
        ("wigner_s.p50", "s", "op_ms.p50", 1e-3),
        ("wigner_s.max", "s", "op_ms.p90", 1e-3),
        ("wigner_points_per_s", "1/s", "work_per_s", 1.0),
    ],
    "grid-ops": [
        ("call_ms.p50", "ms", "op_ms.p50", 1.0),
        ("call_ms.p90", "ms", "op_ms.p90", 1.0),
        ("dump_mb_per_s", "MB/s", "work_per_s", 1e-6),
    ],
}

# median time of worker.SpeedProbe on the reference host; every run's
# times are scaled to this probe speed
NOMINAL_PROBE_S = 0.0015

# repeats of the fresh-process set-up; setup_s is their median
SETUP_REPEATS = 5

# the benchmark must exit within this many seconds
RUN_LIMIT_S = 175.0
