"""One workload in one fresh Python process.

Run by ``run.py``; not meant to be started by hand. The process imports
phaseq from the checkout's ``src`` directory, builds the seeded inputs,
makes one untimed warm-up call of each operation class and prints
``READY``, then ``PROBE <seconds> <median>``: the speed probe's total
and median sample time during set-up. With ``--mode setup`` it stops there. With ``--mode measure`` it
runs whole rounds of operations, one at a time, until ``--seconds`` have
passed, with the speed probe sampling from a timer signal. With ``--mode
trace`` it runs round 0 once untraced and once traced. The result goes
to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

MAX_FAILURE_MESSAGES = 20


class SpeedProbe:
    """Fixed reference work, timed every 0.1 s from a timer signal.

    On a shared host this process's speed swings by 10-15 % within
    seconds, and a long operation sees several swings. The probe runs
    inside operations (the handler fires between bytecodes) and records
    (start, seconds) samples; run.py subtracts the probe's own time from
    each operation and divides out the speed its samples show. The probe
    mixes exact rational arithmetic on small dicts with FFTs and complex
    exponentials on small grids, like the workloads, and uses no phaseq code, so a library change cannot
    move it.
    """

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.samples = []  # (start, seconds)
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((32, 32)) + 0j
        self._phase = rng.standard_normal((96, 96))
        self._keys = [tuple(int(x) for x in rng.integers(0, 3, 8)) for _ in range(12)]
        self._coeffs = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(12)]
        self._fftn, self._ifftn = np.fft.fftn, np.fft.ifftn

    def _work(self):
        out = {}
        for k1, c1 in zip(self._keys, self._coeffs):
            for k2, c2 in zip(self._keys, self._coeffs):
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0) + c1 * c2
        for _ in range(2):
            self._ifftn(self._fftn(self._small))
        self._ifftn(self._phase * np.exp(1j * self._phase))
        return out

    def sample(self, *_):
        # a collection the workload's allocations trigger must not land in
        # a probe sample
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_workloads():
    """Import phaseq from the checkout's src directory, then the workloads."""
    sys.path.insert(0, str(ROOT / "src"))
    import phaseq

    if not Path(phaseq.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"phaseq was imported from {phaseq.__file__}, not from {ROOT / 'src'}")
    import workloads

    return workloads


def run_round(workloads, ops, ctx, tracer=None):
    """Run ops one after another; returns the round record and failure messages.

    Each op record is [kind, timed_start, timed_end, work, ok, start, end]
    in perf_counter seconds.
    """
    records, digests, failures = [], [], []
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        begun = time.perf_counter()
        try:
            outcome = op.run(ctx)
        except Exception as exc:  # any error is a failed operation, not a crash
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            failures.append(f"{op.label}: {detail}")
            records.append([op.kind, begun, begun, 0.0, False, begun, time.perf_counter()])
            digests.append("failed")
            continue
        t0, t1 = outcome.timed
        records.append([op.kind, t0, t1, outcome.work, True, begun, time.perf_counter()])
        digests.append(outcome.digest)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "ops": records, "digest": workloads.digest(*digests)}, failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--fault", action="store_true")
    args = ap.parse_args(argv)

    # the probe samples set-up too, so run.py can scale setup_s
    probe = SpeedProbe()
    probe.start()
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch))
    try:
        workloads = import_workloads()
        ctx = workloads.Context(tmp, fault=args.fault)
        first = workloads.make_round(args.workload, args.seed, 0, args.tiny)
        workloads.warm_up(args.workload, workloads.Context(tmp))
        print("READY", flush=True)
        setup = [d for _, d in probe.samples] or [probe.sample() or probe.samples[-1][1]]
        print(f"PROBE {sum(setup)!r} {statistics.median(setup)!r}", flush=True)
        if args.mode != "measure":
            probe.stop()
        if args.mode == "setup":
            return 0

        rounds, failures, trace = [], [], None
        if args.mode == "measure":
            start = time.perf_counter()
            ops = first
            while True:
                record, failed = run_round(workloads, ops, ctx)
                rounds.append(record)
                failures += failed
                if time.perf_counter() - start >= args.seconds:
                    break
                ops = workloads.make_round(args.workload, args.seed, len(rounds), args.tiny)
        else:
            from tracer import Tracer

            record, failed = run_round(workloads, first, ctx)
            rounds.append(record)
            failures += failed
            tracer = Tracer()
            tracer.install()
            try:
                traced, failed = run_round(workloads, first, ctx, tracer)
            finally:
                tracer.uninstall()
            failures += failed
            spans = Path(args.spans)
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans)
            trace = {
                "metrics": tracer.metrics(),
                "wall_s": traced["wall_s"],
                "digest": traced["digest"],
                "ops": traced["ops"],
                "spans_file": str(spans.relative_to(ROOT)),
            }

        result = {
            "rounds": rounds,
            "failures": failures[:MAX_FAILURE_MESSAGES],
            "failure_count": len(failures),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "probe": probe.samples,
            "trace": trace,
        }
        Path(args.result).write_text(json.dumps(result))
        return 0
    finally:
        probe.stop()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
