"""Seeded benchmark for mimocast.

    python3 perfbench/run.py --workload figure-grid --seed 1 --seconds 24 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``figure-grid``, ``operating-point`` and ``mc-paper-cell``.  The load is
one closed-loop client: each op starts when the previous one returns.
Every workload process runs with BLAS and OpenMP pinned to one thread.

``--trace 0`` measures the end-to-end metrics.  The timed phase is split
over SETUPS fresh processes run one after another; each sets up (import,
scenario, one untimed warm-up op) and then runs its share of the op
stream.  ``setup_s`` and ``peak_rss_mb`` are medians over the processes,
op latencies are pooled, and throughput is work units over the seconds
spent inside program calls.

On a shared 2-vCPU VM the speed of a core drifts by tens of percent
within a minute.  So each process also times a fixed reference
kernel between op blocks (``worker.reference_kernel``), and every reported
time is scaled to nominal speed: multiplied by REFERENCE_NOMINAL_S over
the kernel time measured around it.  Unscaled figures are printed as notes.

``--trace 1`` measures the per-layer metrics.  It runs a fixed number of
ops in four processes, untraced, traced, traced, untraced, so call counts
repeat exactly for a given seed (the two traced counts must agree), and
reports each layer's calls and mean self time plus ``trace_overhead``
(mean traced wall time over mean untraced, minus 1).

The last line of standard output is the result object; the line before it
holds provenance (environment, commit, output digests), which is kept out
of the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import COUNTERS, LAYERS
from worker import REFERENCE_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figure-grid", "operating-point", "mc-paper-cell")
SETUPS = 3
TRACED_OPS = {"figure-grid": 2, "operating-point": 30, "mc-paper-cell": 2}
Z_PASS_SHARE = 0.95
DEADLINE_S = 170.0
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(workload: str, seed: int, workdir: str, deadline: float, *extra: str) -> dict:
    env = {**os.environ, **PINS}
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir, "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} worker ran past the deadline") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies: list[float]):
    """Highest standard percentile with at least 10 ops beyond it, or None."""
    n = len(latencies)
    for pct in (99.9, 99.0, 95.0, 90.0):
        if n * (1 - pct / 100) >= 10:
            rank = math.ceil(pct / 100 * n)
            return pct, sorted(latencies)[rank - 1]
    return None


def _git() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"commit": None, "dirty": None}
        return {"commit": git("rev-parse", "HEAD").stdout.strip(),
                "dirty": bool(git("status", "--porcelain").stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def _gate(runs: list[dict], workload: str) -> list[str]:
    """Run-level checks, which together count as one checked unit."""
    problems = []
    if len({r["warmup_sha256"] for r in runs}) != 1:
        problems.append("set-up and warm-up outputs differ between processes")
    if workload == "mc-paper-cell":
        total = sum(r["counters"].get("z_total", 0) for r in runs)
        within = sum(r["counters"].get("z_within", 0) for r in runs)
        if not total or within / total < Z_PASS_SHARE:
            problems.append(f"pooled |z| <= 3 share {within}/{total} below {Z_PASS_SHARE}")
    return problems


def _end_to_end(runs: list[dict]) -> tuple[dict, list[str]]:
    lat = [x for r in runs for x in r["scaled_latencies"]]
    raw = [x for r in runs for x in r["latencies"]]
    units = sum(r["units"] for r in runs)
    scale = [REFERENCE_NOMINAL_S / statistics.median(r["speed_samples"]) for r in runs]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] * f for r, f in zip(runs, scale)), "s"),
        "throughput": (units / sum(lat), "units/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    tail = _tail(lat)
    targets = sum(r["counters"].get("targets", 0) for r in runs)
    notes = [f"ops {len(lat)}",
             f"op_tail_ms p{tail[0]:g} {tail[1] * 1e3:.3f} ms" if tail
             else f"op_tail_ms omitted: {len(lat)} ops leave fewer than 10 beyond p90",
             f"speed scale to nominal {statistics.median(scale):.3f} "
             f"(per process {min(scale):.3f}-{max(scale):.3f}); unscaled: "
             f"setup_s {statistics.median(r['setup_s'] for r in runs):.4g} s, "
             f"throughput {units / sum(raw):.6g} units/s, "
             f"op_p50_ms {statistics.median(raw) * 1e3:.6g} ms"]
    if targets:
        beyond = sum(r["counters"].get("targets_beyond_rtol", 0) for r in runs)
        notes.append(f"target selections beyond 1e-7 relative of their target: "
                     f"{beyond} of {targets} (each checked within 1e-10*P in the split)")
    return metrics, notes


def _per_layer(runs: list[dict]) -> tuple[dict, list[str]]:
    plain, traced = runs[0::3], runs[1:3]
    layers = traced[0]["layers"]
    self_s = {name: statistics.mean(r["layers"]["self_s"][name] for r in traced)
              for name, *_ in LAYERS}
    wall = statistics.mean(r["wall_s"] for r in traced)
    metrics = {}
    for name, *_ in LAYERS:
        metrics[f"{name}.calls"] = (layers["calls"][name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    c = traced[0]["counters"]
    trials = c.get("trials", 0)
    metrics["montecarlo.trials"] = (trials, "count")
    metrics["montecarlo.discard_ratio"] = (c.get("discarded", 0) / trials if trials else 0.0,
                                           "ratio")
    metrics["cli.bytes_written"] = (c.get("cli_bytes", 0), "bytes")
    metrics["trace_overhead"] = (wall / statistics.mean(r["wall_s"] for r in plain) - 1.0,
                                 "ratio")
    notes = [f"{name}: self {100 * self_s[name] / wall:.1f}% "
             f"of traced wall; should move {moves} on {on}"
             for name, _, moves, on in LAYERS if layers["calls"][name]]
    notes += [f"{name}: should move {moves} on {on}" for name, _, _, moves, on in COUNTERS]
    notes += [f"absent at this commit: {name}" for name in layers["absent"]]
    return metrics, notes


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "mimocast" / "__init__.py").is_file():
        raise BenchError(f"no mimocast sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=f"_out-{workload}-", dir=HERE)
    try:
        if trace:
            ops = ["--ops", str(TRACED_OPS[workload])]
            # ABBA order, so drift in machine speed cancels in the overhead.
            runs = [_worker(workload, seed, workdir, deadline, *ops, *flag)
                    for flag in ([], ["--trace"], ["--trace"], [])]
            metrics, notes = _per_layer(runs)
            problems = _gate(runs, workload)
            if len({r["fixed_ops_sha256"] for r in runs}) != 1:
                problems.append("traced outputs differ from untraced outputs")
            if runs[1]["layers"]["calls"] != runs[2]["layers"]["calls"]:
                problems.append("call counts differ between two traced runs")
        else:
            runs, start = [], 1
            for _ in range(SETUPS):
                r = _worker(workload, seed, workdir, deadline,
                            "--seconds", repr(seconds / SETUPS), "--start", str(start))
                runs.append(r)
                start = r["next"]
            metrics, notes = _end_to_end(runs)
            problems = _gate(runs, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Checked units: each process's set-up and ops, plus the run-level gate.
    attempted = sum(r["attempted"] for r in runs) + 1
    failed = sum(r["failed"] for r in runs) + bool(problems)
    failures = [f for r in runs for f in r["failures"]] + problems
    notes.append(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} checked units)")
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": runs[0]["environment"], "git": _git(),
        "outputs_sha256": runs[0]["warmup_sha256"],
        "failures": failures[:10],
    }
    if trace:
        provenance["fixed_ops_sha256"] = runs[-1]["fixed_ops_sha256"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, {"provenance": provenance, "notes": notes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Seeded mimocast benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    for note in info["notes"]:
        print(f"{args.workload} {note}")
    print(json.dumps(info["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
