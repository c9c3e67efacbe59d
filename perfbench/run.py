"""phaseq benchmark: one seeded workload, measured end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {exact,wigner,grid-ops} --seed N \
        --seconds S --trace {0,1} [--tiny] [--fault]

Each workload runs in a fresh Python process as a closed loop with one
client. With ``--trace 0`` the set-up is repeated in ``SETUP_REPEATS``
fresh processes, the last of which then measures whole rounds for
``--seconds`` seconds; the end-to-end metrics are printed. With
``--trace 1`` round 0 runs once untraced and once traced, and the
per-layer metrics are printed. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--tiny`` shrinks every workload for the self-tests; ``--fault`` makes
one oracle expectation deliberately wrong, to show it is counted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import spec
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_key() -> str:
    """Hash of the library and benchmark sources: the identity of a commit here."""
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {name: "1" for name in THREAD_VARS},
        "fft": "numpy.fft (pocketfft, single-threaded)",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, result: Path, deadline: float):
    """Start a worker; returns (seconds until READY without the probe's own
    time, median probe time during set-up, process)."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--result", str(result), "--scratch", str(OUT / "tmp"),
        "--spans", str(OUT / "trace" / f"{args.workload}-seed{args.seed}.spans.tsv"),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.fault:
        cmd.append("--fault")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    # kills a worker that hangs, also while this process waits on its output
    proc.killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    proc.killer.daemon = True
    proc.killer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    probe = proc.stdout.readline().split()
    if line.strip() != "READY" or len(probe) != 3 or probe[0] != "PROBE":
        finish(proc)
        raise RuntimeError(f"worker ({mode}) did not become ready")
    return ready - float(probe[1]), float(probe[2]), proc


def finish(proc):
    """Wait for a worker to end; raise if it failed or was killed at the deadline."""
    proc.wait()
    proc.killer.cancel()
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exit {proc.returncode}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Scale:
    """Per-interval clean time and speed factor from the probe samples.

    An interval's clean time is its length minus the probe samples that
    started inside it. Its factor is NOMINAL_PROBE_S over the median probe
    time inside it (at least three samples), else over the probe time
    interpolated at its midpoint. With ``scaled`` false the factor is 1.
    """

    def __init__(self, probe, scaled: bool):
        samples = sorted(probe)
        self.starts = np.array([t for t, _ in samples])
        self.times = np.array([d for _, d in samples])
        self.cumulative = np.concatenate([[0.0], np.cumsum(self.times)])
        self.scaled = scaled

    def __call__(self, start: float, end: float):
        lo, hi = np.searchsorted(self.starts, [start, end])
        clean = (end - start) - (self.cumulative[hi] - self.cumulative[lo])
        if not self.scaled:
            return clean, 1.0
        if hi - lo >= 3:
            probe = float(np.median(self.times[lo:hi]))
        else:
            probe = float(np.interp(0.5 * (start + end), self.starts, self.times))
        return clean, spec.NOMINAL_PROBE_S / probe


def end_to_end(workload: str, result: dict, setups, scaled: bool):
    """End-to-end metrics and the latency sample count.

    Operation times leave out the speed probe's own time. With ``scaled``,
    each is multiplied by its interval's speed factor (see Scale), which
    divides out the host's speed swings; rates are divided by it.
    """
    scale = Scale(result["probe"], scaled)
    if scaled:
        setup = [ready * spec.NOMINAL_PROBE_S / probe for ready, probe in setups]
    else:
        setup = [ready for ready, _ in setups]
    latency, work, busy, walls = [], 0.0, 0.0, []
    for r in result["rounds"]:
        wall = 0.0
        for kind, t0, t1, units, ok, start, end in r["ops"]:
            clean, factor = scale(start, end)
            wall += clean * factor
            if not ok:
                continue
            clean, factor = scale(t0, t1)
            if kind == spec.LATENCY_KIND[workload]:
                latency.append(clean * factor * 1e3)
            if kind == spec.WORK_KIND[workload]:
                work += units
                busy += clean * factor
        walls.append(wall)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_ms.p50": statistics.median(latency) if latency else 0.0,
        "op_ms.p90": percentile(latency, 0.9) if latency else 0.0,
        "work_per_s": work / busy if busy else 0.0,
    }
    return values, len(latency)


def check_determinism(args, rounds) -> list:
    """Compare round digests with earlier runs of the same sources and seed."""
    key = f"{source_key()}-{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}"
    store = OUT / "digests" / f"{key}.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    problems = []
    for index, digest in rounds:
        previous = seen.setdefault(str(index), digest)
        if previous != digest:
            problems.append(f"round {index}: output digest differs from an earlier run")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return problems


def coverage_problems(workload: str, metrics: dict) -> list:
    """Layers a workload must call, and layers it must bypass."""
    problems = []
    for name in tracer.EXPECTED_CALLS[workload]:
        if metrics[f"{name}.calls"] == 0:
            problems.append(f"{name} was not called on {workload}")
    for name in tracer.BYPASSED[workload]:
        if metrics[f"{name}.calls"] != 0:
            problems.append(f"{name} was called on {workload}, which should bypass it")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--fault", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "phaseq" / "__init__.py").is_file():
        return fail(f"no phaseq sources under {ROOT / 'src'}")
    deadline = time.monotonic() + spec.RUN_LIMIT_S
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{args.workload}-{args.seed}-{os.getpid()}.json"

    try:
        setups = []
        mode = "trace" if args.trace else "measure"
        repeats = 1 if args.trace else spec.SETUP_REPEATS
        for _ in range(repeats - 1):
            ready, probe, proc = spawn(args, "setup", result_path, deadline)
            finish(proc)
            setups.append((ready, probe))
        ready, probe, proc = spawn(args, mode, result_path, deadline)
        setups.append((ready, probe))
        finish(proc)
        result = json.loads(result_path.read_text())
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc))
    finally:
        result_path.unlink(missing_ok=True)

    rounds = result["rounds"]
    problems = list(result["failures"])
    failed = result["failure_count"]
    attempted = sum(len(r["ops"]) for r in rounds)
    determinism = check_determinism(args, list(enumerate(r["digest"] for r in rounds)))
    problems += determinism
    failed += len(determinism)

    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"ops {attempted} tiny {args.tiny}")

    if args.trace:
        trace = result["trace"]
        attempted += len(trace["ops"])
        if trace["digest"] != rounds[0]["digest"]:
            problems.append("traced round 0 output differs from untraced round 0")
            failed += 1
        metrics = dict(trace["metrics"])
        metrics["trace.wall_s"] = trace["wall_s"]
        metrics["trace.overhead_s"] = trace["wall_s"] - rounds[0]["wall_s"]
        coverage = coverage_problems(args.workload, metrics)
        problems += coverage
        failed += len(coverage)
        units = {m["name"]: m["unit"] for m in tracer.per_layer_metrics()}
        print(f"# untraced wall_s {rounds[0]['wall_s']:.4f} s, traced wall_s "
              f"{trace['wall_s']:.4f} s, spans written to {trace['spans_file']}")
    else:
        metrics, samples = end_to_end(args.workload, result, setups, scaled=True)
        raw, _ = end_to_end(args.workload, result, setups, scaled=False)
        units = dict(spec.END_TO_END)
        probe_s = [s for _, s in result["probe"]]
        print(f"# speed probe: median {statistics.median(probe_s) * 1e3:.4f} ms over "
              f"{len(probe_s)} samples; times are scaled to a "
              f"{spec.NOMINAL_PROBE_S * 1e3:g} ms probe")
        print(f"# unscaled {json.dumps(raw)}")
        for name, unit, generic, scale in spec.DISPLAY[args.workload]:
            print(f"{name} = {metrics[generic] * scale:.6g} {unit}  [{generic}, n={samples}]")
        print(f"fail_ratio = {failed / max(attempted, 1):.6g} ratio")

    for problem in problems:
        print(f"FAIL {problem}")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
