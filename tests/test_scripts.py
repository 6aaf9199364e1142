"""Every script under scripts/ still imports what it needs and parses its
flags, and `gen_suite` writes instances that load.

Nothing else runs the scripts, so a removed or renamed name in `src/` that a
script imports would otherwise go unnoticed.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twodst.io import load_instance

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


def test_gen_suite_writes_loadable_instances(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("gen_suite", ROOT / "scripts" / "gen_suite.py")
    gen_suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_suite)
    assert gen_suite.main([str(tmp_path), "--count", "12", "--seed", "1"]) == 0
    capsys.readouterr()
    written = sorted(tmp_path.iterdir())
    assert len(written) == 12 and all(p.suffix == ".json" for p in written)
    for path in written:
        inst = load_instance(path)
        assert f"_h{inst.num_terminals}." in path.name
