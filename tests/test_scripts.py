"""The repository scripts still run against the library."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "outerstring" / "fixtures"


def test_calibrate_figures_check_only():
    """Every captioned relation of the four figure transcriptions holds,
    and a check-only run writes no fixture."""
    before = {p.name: p.read_bytes() for p in FIXTURES.iterdir()}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "calibrate_figures.py"), "--check-only"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("all captioned relations hold") == 4
    assert {p.name: p.read_bytes() for p in FIXTURES.iterdir()} == before
