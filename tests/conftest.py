import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# The command-line tests start `python -m outerstring.cli` in child
# processes; they find the package the same way without an install.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))

from outerstring.geom import curve, validate_family


@pytest.fixture
def abc_family():
    """Three curves: a and b cross at (3/4, 3/4); c is disjoint from both."""
    return validate_family([
        curve("a", (0, 0), (3, 3)),
        curve("b", (1, 0), (0, 3)),
        curve("c", (2, 0), (2, "1/2")),
    ])


@pytest.fixture
def nest_family():
    """Triangle: u and v cross at (0,3), s crosses v at (3,3) and u at (3,4)."""
    return validate_family([
        curve("u", (0, 0), (0, 4), (6, 4)),
        curve("s", (3, 0), (3, 5)),
        curve("v", (6, 0), (6, 3), (-1, 3)),
    ])


def nest_with(*extra):
    return validate_family([
        curve("u", (0, 0), (0, 4), (6, 4)),
        curve("s", (3, 0), (3, 5)),
        curve("v", (6, 0), (6, 3), (-1, 3)),
        *extra,
    ])
