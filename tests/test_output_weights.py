"""W2 held as reduced integer pairs.

``ShallowNet`` reads W2 as one block: ``exact.block_parts`` when every entry
is a plain literal, ``exact.rat_parts`` entry by entry when one is not (a
Fraction, an int, a padded string).  Either way each entry is reduced with one
gcd, so "2/4", "1/2" and ``Fraction(1, 2)`` give one net: equal, hash equal,
the same ``w2`` Fractions and the same ``repr`` as when W2 was a tuple of
Fractions.
A zero entry ("0", "-0/3") is still a degenerate neuron, named by its index.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from relugeo import network
from relugeo.canonical import _as_form, equivalence
from relugeo.cli import run
from relugeo.errors import DegenerateNeuron
from relugeo.network import ShallowNet, evaluate_net

from test_raw_net import reference_evaluate_net

F = Fraction
HALVES = ["2/4", "1/2", F(1, 2), "4/8"]


def net(half, d1, at, odd=False):
    """d1 > 1 neurons in d0 = 2 whose W2 entry ``at`` is ``half``; with ``odd``
    the entry before it (cyclically) is the int 3, so W2 is read by ``rat_parts``."""
    w1 = [[str(j % 5 + 1), f"-{j % 3}/2"] for j in range(d1)]
    b1 = [f"{j % 7 - 3}/3" for j in range(d1)]
    w2 = [f"{j % 4 + 1}/{j % 3 + 1}" for j in range(d1)]
    w2[at] = half
    if odd:
        w2[at - 1] = 3
    return w1, b1, w2, "-5/10"


@pytest.mark.parametrize("odd", [False, True], ids=["block", "row-by-row"])
@pytest.mark.parametrize("d1, at", [(2, 0), (64, 63), (65, 64), (129, 0)])
def test_equal_literals_make_equal_nets(d1, at, odd, monkeypatch):
    calls = []
    rat_parts = network.rat_parts
    monkeypatch.setattr(network, "rat_parts", lambda e: calls.append(e) or rat_parts(e))
    nets = [ShallowNet(*net(half, d1, at, odd)) for half in HALVES]
    # W2's d1 entries (and no W1 block) go through rat_parts exactly when asked
    # to, or when W2 holds a Fraction
    assert len(calls) == d1 * sum(odd or isinstance(half, F) for half in HALVES)
    first = nets[0]
    for other in nets[1:]:
        assert other == first and hash(other) == hash(first)
        assert repr(other) == repr(first)
    assert first.w2[at] == F(1, 2)
    assert all(type(e) is F for e in first.w2)
    assert first._w2[at] == (1, 2)
    assert [F(n, d) for n, d in first._w2] == list(first.w2)
    assert all((n, d) == (e.numerator, e.denominator) for (n, d), e in zip(first._w2, first.w2))
    x = ("7/3", "-1/2")
    expected = reference_evaluate_net(first.w1, first.b1, first.w2, first.b2, [F(e) for e in x])
    assert evaluate_net(first, x) == expected


def test_repr_is_the_fraction_format():
    a = ShallowNet([["1", "-2/4"], ["0", "3"]], ["1/3", "-0/3"], ["2/4", "-6/4"], "-10/4")
    b = ShallowNet([[1, F(-1, 2)], [0, 3]], [F(1, 3), 0], [F(1, 2), F(-3, 2)], F(-5, 2))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == (
        "ShallowNet(w1=((Fraction(1, 1), Fraction(-1, 2)), (Fraction(0, 1), Fraction(3, 1))), "
        "b1=(Fraction(1, 3), Fraction(0, 1)), w2=(Fraction(1, 2), Fraction(-3, 2)), "
        "b2=Fraction(-5, 2))"
    )
    assert a != ShallowNet([["1", "-2/4"], ["0", "3"]], ["1/3", "0"], ["2/4", "-3/4"], "-10/4")


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("zero", ["0", "-0/3", "0/7", F(0)], ids=repr)
@pytest.mark.parametrize("odd", [False, True], ids=["block", "row-by-row"])
@pytest.mark.parametrize("d1, at", [(2, 0), (65, 63), (65, 64), (129, 128)])
def test_zero_entry_is_a_degenerate_neuron(d1, at, odd, zero, tmp_path):
    weights = net(zero, d1, at, odd)
    n = ShallowNet(*weights)
    assert n._w2[at] == (0, 1) and n.w2[at] == 0
    expected = DegenerateNeuron(at + 1)
    for path in (lambda: _as_form(n), lambda: equivalence(n, n), lambda: network.effective_tuple(n)):
        with pytest.raises(DegenerateNeuron) as got:
            path()
        assert got.value.args == expected.args
    if isinstance(zero, F):
        return  # JSON holds strings
    w1, b1, w2, b2 = weights
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"W1": w1, "b1": b1, "W2": [str(e) for e in w2], "b2": b2}))
    message = f"error: {expected}\n"
    assert cli(["canon", str(path)]) == (2, "", message)
    assert cli(["equiv", str(path), str(path)]) == (2, "", message)
    # the neuron is constant zero: eval is the reference value
    x = ("1/2", "-3")
    code, out, err = cli(["eval", str(path), "--x=" + ",".join(x)])
    assert (code, err) == (0, "")
    assert F(out) == reference_evaluate_net(n.w1, n.b1, n.w2, n.b2, [F(e) for e in x])
