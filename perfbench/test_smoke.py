"""Smoke test of the benchmark's own code, at its shortest settings.

Runs each workload for one traced op in a worker process, the full
command once per mode on the cheapest workload, and the command in a
checkout that has no program sources.  Takes about 20 s on 2 CPUs.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from layers import LAYERS, layer_metric_specs

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# The public function each workload calls directly, so its layer must count.
ENTRY_LAYER = {"figure-grid": "cli.main", "operating-point": "pareto.select",
               "mc-paper-cell": "montecarlo.validate"}


def _command(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_what_the_code_measures():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == layer_metric_specs()
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_traced_op_runs_clean(workload, tmp_path):
    result = run._worker(workload, 0, str(tmp_path), time.monotonic() + 170,
                         "--ops", "1", "--trace")
    assert result["failures"] == []
    assert result["attempted"] == 3          # set-up, warm-up, one op
    assert result["units"] > 0 and len(result["latencies"]) == 1
    calls = result["layers"]["calls"]
    assert set(calls) == {name for name, *_ in LAYERS}
    assert calls[ENTRY_LAYER[workload]] > 0
    untouched = {"figure-grid": ("pareto.", "montecarlo."),
                 "operating-point": ("montecarlo.", "cli."),
                 "mc-paper-cell": ("pareto.", "cli.", "allocation.")}[workload]
    assert all(n == 0 for name, n in calls.items() if name.startswith(untouched))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_the_contract(trace, section):
    proc = _command("--workload", "operating-point", "--seed", "1", "--seconds", "1",
                    "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, provenance, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert len(json.loads(provenance)["outputs_sha256"]) == 64


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out*", "__pycache__"))
    proc = _command("--workload", "operating-point", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
