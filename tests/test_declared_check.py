"""The declared breaklines of a spec are checked once, in linear time.

``synthesis._check_declared`` raises, last index first, NotTransversal for a
breakline that repeats an earlier one and DimensionMismatch for one outside
Q^d0.  It must raise exactly what the per-index loop it replaces raised (the
same exception type, message and violation), on lists with repeats, mixed
dimensions and both faults at one index, and an unchecked flat spec, which
has no breakline cap, must stay fast with many declared breaklines.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import relugeo
from relugeo.errors import DimensionMismatch
from relugeo.network import Breakline
from relugeo.synthesis import _check_declared, _repeated

# few directions and offsets, so lists repeat a breakline often
DIRECTIONS = [(1,), (1, 0), (0, 1), (1, -1), (1, 0, 0), (0, 1, -1)]
OFFSETS = [0, 1, Fraction(1, 2)]
breaklines = st.builds(Breakline, st.sampled_from(DIRECTIONS), st.sampled_from(OFFSETS))


def per_index(breaklines, d0):
    """The check as a loop over every index: O(n^2) in the breaklines."""
    for i in reversed(range(len(breaklines))):
        _repeated(breaklines, i)
        if breaklines[i].d0 != d0:
            raise DimensionMismatch(f"point has length {breaklines[i].d0}, leaf expects {d0}")


def outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type, message and violation are the outcome
        return type(exc).__name__, str(exc), getattr(exc, "violation", None)
    return "ok"


@settings(max_examples=300, deadline=None)
@given(st.lists(breaklines, max_size=8), st.integers(1, 3))
def test_linear_check_raises_what_the_per_index_loop_raises(declared, d0):
    assert outcome(_check_declared, declared, d0) == outcome(per_index, declared, d0)


@settings(max_examples=100, deadline=None)
@given(st.lists(breaklines, max_size=8), st.integers(1, 3))
def test_first_indices_of_a_clean_declaration(declared, d0):
    declared = [bl for bl in dict.fromkeys(declared) if bl.d0 == d0]
    assert _check_declared(declared, d0) == {bl: i for i, bl in enumerate(declared)}


def test_both_faults_at_one_index_raise_the_repeat():
    bl = Breakline((1,), 0)
    err = outcome(_check_declared, [Breakline((1, 0), 0), bl, bl], 2)
    assert err == outcome(per_index, [Breakline((1, 0), 0), bl, bl], 2)
    assert err[:2] == ("NotTransversal", "breaklines [2, 3] meet with linearly dependent normals")


def test_many_unchecked_breaklines_exit_0_quickly(tmp_path):
    # 20,000 declared breaklines, two of them kinked: 0.4 s in process on a
    # 2-CPU x86-64 host, where a check per index against every other took
    # over 120 s at 2,000
    lines = [{"d": [1, 0], "q": "0"}, {"d": [1, 1], "q": "1"}]
    lines += [{"d": [1, 2], "q": str(q)} for q in range(19_998)]
    spec = {"expr": "relu(affine([1,0],0)) + 2*relu(affine([1,1],-1))", "breaklines": lines}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(Path(relugeo.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "relugeo.cli", "synth", str(path), "--unchecked"],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    kinks = [(n["d"], n["q"], n["kink"]) for n in json.loads(proc.stdout)["neurons"]]
    assert kinks == [([1, 0], "0", "1"), ([1, 1], "1", "2")]
