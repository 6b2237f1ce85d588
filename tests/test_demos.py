"""Each demo's stdout, byte for byte, against the output recorded in
``tests/demo_outputs/<demo>.txt``.

A refactor must keep the demos' output unchanged, as it keeps the golden
envelopes.  The printed floats come from the platform's ``math.log``,
``math.exp`` and ``math.sqrt``, so, as with the envelopes, another C
library can move their last digits.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recorded_output():
    recorded = sorted((ROOT / "tests" / "demo_outputs").glob("*.txt"))
    assert [p.stem for p in recorded] == [p.stem for p in DEMOS]
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_is_unchanged(demo):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (ROOT / "tests" / "demo_outputs" / (demo.stem + ".txt")).read_bytes()
    assert proc.stdout == expected
