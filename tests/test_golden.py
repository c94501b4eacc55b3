"""Golden reports: each command line of ``tests/golden`` gives the recorded bytes.

Exit code, stdout, stderr and every file written are compared exactly, never
at a tolerance.  A change that is meant to move them rewrites the files with
``tests/golden/regen.py``, which prints the intervals that moved.  The
``simulate`` goldens hold for the numpy version recorded in their files:
numpy's random streams may change between its feature releases.
"""

import json

import numpy as np
import pytest

from golden.regen import cases, run_case


@pytest.mark.parametrize("path", cases(), ids=lambda p: p.stem)
def test_golden(path, tmp_path):
    case = json.loads(path.read_text(encoding="utf-8"))
    got = run_case(case, tmp_path)
    drawn = f" (recorded under numpy {case['numpy']}, running {np.__version__})" if "numpy" in case else ""
    for field in ("exit", "stderr", "stdout", "files"):
        assert got[field] == case[field], f"{path.name}: {field} differs{drawn}"
