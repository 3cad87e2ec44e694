"""The scan scripts run end to end at tiny size, and the benchmark's traced names exist and
its seed-0 units give their reference digests."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "ledger_growth.py": ["--max-log-n", "4", "--c", "3"],
    "snap_collision_scan.py": ["--pairs", "1"],
    "telescope_error_scan.py": ["--width", "2", "--trials", "1"],
}


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script]],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_bench_traced_names_resolve():
    # bench/run.py rebinds each "module.function" in TRACED to time it, so renaming one
    # breaks its traced runs, which no other test starts
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    [traced] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]]
    assert traced
    for name in traced:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"prpd.{module}"), function, None)), name


BENCH_DIGESTS = json.loads((ROOT / "bench" / "reference.json").read_text())["digests"]


def bench_workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload", sorted(BENCH_DIGESTS))
def test_bench_units_match_reference(workload):
    # one pool cycle at seed 0, each unit checked as bench/run.py checks it: a change to a
    # unit's exact output fails the benchmark's digest check, which no other test runs
    wl = bench_workloads()[workload](0)
    digests = []
    for j in range(wl.pool_size):
        digest, within, _ = wl.check(j, wl.unit(j))
        assert within, f"{workload} unit {j} breaks its bound"
        digests.append(digest)
    assert digests == BENCH_DIGESTS[workload]["0"]
