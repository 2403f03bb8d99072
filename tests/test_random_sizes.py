"""`random` and `random_net` reject non-positive sizes and bounds by name."""

import contextlib
import io

import pytest

from relugeo.cli import run
from relugeo.errors import DimensionMismatch
from relugeo.network import random_net


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--d0", "-400", "--d1", "-400"], "d0 and d1 must be at least 1"),
        (["--d0", "0", "--d1", "3"], "d0 and d1 must be at least 1"),
        (["--d0", "3000", "--d1", "-3000"], "d0 and d1 must be at least 1"),
        (["--d0", "2", "--d1", "3", "--bound", "0"], "coefficient bound must be at least 1"),
        (["--d0", "2", "--d1", "3", "--bound", "-3"], "coefficient bound must be at least 1"),
    ],
)
def test_cli_names_the_bad_size(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["random", *argv])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("bound", [0, -3])
def test_random_net_rejects_bound_below_one(bound):
    with pytest.raises(ValueError, match="coefficient bound must be at least 1"):
        random_net(2, 3, 0, bound)


def test_random_net_rejects_sizes_before_bound():
    with pytest.raises(DimensionMismatch, match="d0 and d1 must be at least 1"):
        random_net(-400, -400, 0, 0)


def test_bound_one_still_draws():
    net = random_net(2, 3, 5, 1)
    assert all(abs(w) <= 1 for row in net.w1 for w in row)
