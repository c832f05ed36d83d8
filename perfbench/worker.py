"""One workload process: set up, warm up, then run timed or counted ops.

Started by ``run.py`` in a fresh interpreter so that set-up time and peak
resident memory belong to this workload alone.  Prints one JSON object.

Timed mode (``--seconds``) runs whole blocks of ops from ``--start`` until
the time is up.  Counted mode (``--ops``) runs exactly that many ops from
op 1, optionally under the tracer, so its call counts repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import mimocast from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mimocast
    if not Path(mimocast.__file__).resolve().is_relative_to(src):
        raise ImportError(f"mimocast imported from {mimocast.__file__}, not {src}")
    return mimocast


def _environment(mimocast) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "mimocast": getattr(mimocast, "__version__", None),
    }


# Every REFERENCE_EVERY_S of the timed phase, at a block boundary, the
# worker spends about REFERENCE_SHARE of the time since the last sample
# timing the reference kernel.  Each op's latency is scaled to nominal
# machine speed by the kernel times sampled just before and just after it.
REFERENCE_EVERY_S = 0.5
REFERENCE_SHARE = 0.05
REFERENCE_NOMINAL_S = 0.010


def reference_kernel() -> float:
    """Time a fixed mix of interpreted arithmetic, small BLAS calls and
    small-object churn, the three kinds of work the workloads do.

    On a shared 2-vCPU VM the speed of a core drifts by tens of percent
    within a minute; the ratio of op time to this kernel's time drifts far
    less.  Takes about 10 ms on an unloaded 2.1 GHz core.
    """
    import numpy as np
    x = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 15001):
        acc += math.sqrt(i) / i
    for _ in range(150):
        acc += float((x @ x).trace())
    rows = [(float(i), i * 0.5, (i, i + 1)) for i in range(8000)]
    acc += sum(a * b for a, b, _ in rows)
    by_key = {key: -a for a, _, key in rows}
    rows.sort(key=lambda r: by_key[r[2]])
    return time.perf_counter() - t0


class Runner:
    """Runs and checks ops, keeping the tallies the parent aggregates."""

    def __init__(self, workload, untraced=contextlib.nullcontext):
        self.workload = workload
        self.untraced = untraced
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.sample_index: list[int] = []   # reference sample preceding each op
        self.samples: list[float] = []      # mean kernel time per sample
        self.units = 0
        self.counters: dict[str, int] = {}

    def checked(self, produce) -> bytes:
        """Run one checked unit; record a failure on exception or bad output."""
        self.attempted += 1
        try:
            outcome = produce()
        except Exception:  # one failed op must not end the run
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=3))
            return b""
        if outcome.failures:
            self.failed += 1
            self.failures.extend(outcome.failures)
        return outcome.output

    def op(self, i: int, timed: bool) -> bytes:
        def produce():
            req = self.workload.request(i)
            t0 = time.perf_counter()
            result = self.workload.run(req)
            dt = time.perf_counter() - t0
            with self.untraced():
                outcome = self.workload.check(req, result)
            if timed:
                self.latencies.append(dt)
                self.sample_index.append(len(self.samples) - 1)
                self.units += outcome.units
                for k, v in outcome.counters.items():
                    self.counters[k] = self.counters.get(k, 0) + v
            return outcome
        return self.checked(produce)

    def sample_speed(self, since: float):
        n = max(2, round(REFERENCE_SHARE * since / REFERENCE_NOMINAL_S))
        self.samples.append(sum(reference_kernel() for _ in range(n)) / n)

    def scaled_latencies(self) -> list[float]:
        """Latencies at nominal speed, from the samples around each op."""
        return [dt * 2 * REFERENCE_NOMINAL_S / (self.samples[k] + self.samples[k + 1])
                for dt, k in zip(self.latencies, self.sample_index)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() in the parent just before this process started")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--ops", type=int)
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    mimocast = _import_program()
    from layers import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, tracer.paused if tracer else contextlib.nullcontext)
    fixed = hashlib.sha256()
    with tracer or contextlib.nullcontext():
        wall0 = time.perf_counter()
        warm = hashlib.sha256()
        warm.update(runner.checked(workload.setup))
        warm.update(runner.op(0, timed=False))
        ready = time.monotonic()
        if args.ops is not None:
            for i in range(args.start, args.start + args.ops):
                fixed.update(runner.op(i, timed=True))
            nxt = args.start + args.ops
        else:
            nxt, deadline = args.start, ready + args.seconds
            runner.sample_speed(0.0)
            last = time.monotonic()
            while True:
                for _ in range(workload.block):
                    runner.op(nxt, timed=True)
                    nxt += 1
                now = time.monotonic()
                if now - last >= REFERENCE_EVERY_S or now >= deadline:
                    runner.sample_speed(now - last)
                    last = time.monotonic()
                if now >= deadline:
                    break
        timed_s = time.monotonic() - ready
        wall_s = time.perf_counter() - wall0

    result = {
        "setup_s": ready - args.t0,
        "timed_s": timed_s,
        "wall_s": wall_s,
        "next": nxt,
        "latencies": runner.latencies,
        "speed_samples": runner.samples,
        "units": runner.units,
        "counters": runner.counters,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warmup_sha256": warm.hexdigest(),
        "environment": _environment(mimocast),
    }
    if args.ops is not None:
        result["fixed_ops_sha256"] = fixed.hexdigest()
    else:
        result["scaled_latencies"] = runner.scaled_latencies()
    if tracer:
        result["layers"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                            "absent": tracer.absent}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
