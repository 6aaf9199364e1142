"""Every script under scripts/ still imports what it needs and parses its flags.

Nothing else runs the scripts, so a removed or renamed name in `src/` that a
script imports would otherwise go unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert {"beta_sweep.py", "gen_suite.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(script), "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout
