"""The scan scripts run end to end at tiny size, and the benchmark's traced names exist."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "ledger_growth.py": ["--max-log-n", "4"],
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
