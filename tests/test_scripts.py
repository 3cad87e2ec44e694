"""The scan scripts run end to end at tiny size; nothing else imports them."""

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
