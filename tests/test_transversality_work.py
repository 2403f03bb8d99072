"""The transversality check is bounded by its measured work, not its subset count.

One subset of size k costs one ``solve_affine`` of about k^2 * d0 steps, so
12 breaklines in d0 = 8 (4,004 subsets, 1,212,288 units) must be refused up
front, while 20 breaklines in d0 = 3 (6,175 subsets, 265,620 units) pass.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relugeo
from relugeo.errors import CapExceeded
from relugeo.network import Breakline
from relugeo.synthesis import check_transversality


def general_position(d0, n):
    """n hyperplanes sum_j i^j x_j = i^d0; no d0+1 of them share a point."""
    return [{"d": [i**j for j in range(d0)], "q": str(i**d0)} for i in range(1, n + 1)]


def breaklines(d0, n):
    return [Breakline(tuple(b["d"]), b["q"]) for b in general_position(d0, n)]


def test_synth_on_12_breaklines_in_d0_8_exits_2_quickly(tmp_path):
    spec = tmp_path / "spec.json"
    expr = "relu(affine([1,0,0,0,0,0,0,0],0))"
    spec.write_text(json.dumps({"expr": expr, "breaklines": general_position(8, 12)}))
    env = dict(os.environ, PYTHONPATH=str(Path(relugeo.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "relugeo.cli", "synth", str(spec)],
        capture_output=True,
        text=True,
        timeout=15,
        env=env,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: 1212288 units of work exceed the transversality cap of 350000\n"


@pytest.mark.parametrize("d0, n", [(4, 15), (5, 13), (12, 11)])
def test_work_over_the_cap_is_refused(d0, n):
    with pytest.raises(CapExceeded, match="transversality cap"):
        check_transversality(breaklines(d0, n))


def test_twenty_breaklines_in_d0_3_pass():
    assert check_transversality(breaklines(3, 20)) is None
