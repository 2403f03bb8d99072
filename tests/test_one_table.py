"""Minimality reads each form once and eliminates each direction group once.

``enumerate_minimal`` builds one table of integer running sums per form
(``minimality._corrections``) and runs one elimination (``minimality._span``)
per direction group it examines: () for case I, then (m,) for each distinct
breakline direction m, then each pair (m, m').  The same elimination gives the
group's hits and its split-kink rows.  The counts go through the module
globals, so every caller inside ``minimality`` is counted.
"""

from fractions import Fraction
from math import comb

import pytest

from relugeo import minimality
from relugeo.canonical import CanonicalForm
from relugeo.minimality import classify, compute_J, compute_J_pair, compute_J_single
from relugeo.minimality import enumerate_minimal
from relugeo.network import Breakline


def form(terms, affine):
    """A canonical form from (direction, offset, kink) rows and an affine part."""
    rows = tuple((Breakline(d, Fraction(q)), Fraction(k)) for d, q, k in terms)
    return CanonicalForm(rows, tuple(map(Fraction, affine)), Fraction(0), len(affine))


FORMS = {
    ("I", 2): form([((1, -1), -1, -2), ((1, 0), 0, -1), ((1, 1), 1, -2), ((1, 2), 0, 2)], (3, -2)),
    ("I", 3): form(
        [((1, 0, 0), 1, -2), ((1, 0, 2), 1, -1), ((1, 1, 0), -1, 2), ((2, -1, 0), 1, -2)],
        (1, 0, 2),
    ),
    ("II", 2): form([((0, 1), 0, 3), ((1, 0), 0, 1), ((1, 0), 1, -2)], ("1/7", 0)),
    ("II", 3): form(
        [((0, 1, -2), -1, 3), ((0, 1, 0), -1, -2), ((1, 0, 0), 1, 2), ((1, 0, 2), -1, 2)],
        (-1, 0, 2),
    ),
    ("III", 2): form([((0, 1), 1, -2), ((1, -1), 1, 3), ((1, 2), -1, 3), ((2, 1), 1, -1)], (1, -3)),
    ("III", 3): form(
        [((0, 1, 1), 1, -1), ((1, 0, 1), 0, -2), ((1, 1, 0), -1, 2), ((1, 2, 1), 0, 1)],
        (1, 3, 1),
    ),
    # case III with no duplicated-pair family: no group has hits
    ("III", "3-no-pairs"): form(
        [((0, 2, 1), "1/2", 2), ((2, -1, -1), 2, -3), ((2, 1, -1), -1, 6), ((3, -1, 3), "1/3", -2)],
        ("-28/97", "25/97", "56/97"),
    ),
}


@pytest.fixture
def calls(monkeypatch):
    """Calls of ``_corrections`` and ``_span`` through the module globals."""
    calls = {"_corrections": 0, "_span": 0}
    for name in calls:
        inner = getattr(minimality, name)

        def counted(*args, inner=inner, name=name):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(minimality, name, counted)
    return calls


def groups(cf, case):
    """Direction groups examined up to the first case with a family."""
    k = len({bl.direction for bl in cf.breaklines})
    return {"I": 1, "II": 1 + k, "III": 1 + k + comb(k, 2)}[case]


@pytest.mark.parametrize("key", list(FORMS), ids=lambda key: f"case{key[0]}-d{key[1]}")
@pytest.mark.parametrize("entry", [enumerate_minimal, classify])
def test_one_table_per_form_and_one_elimination_per_group(calls, entry, key):
    cf = FORMS[key]
    case = key[0]
    assert classify(cf).case == case
    calls.update(_corrections=0, _span=0)
    entry(cf)
    assert calls == {"_corrections": 1, "_span": groups(cf, case)}


@pytest.mark.parametrize("key", list(FORMS), ids=lambda key: f"case{key[0]}-d{key[1]}")
def test_each_public_scan_reads_the_same_kernel_once(calls, key):
    cf = FORMS[key]
    dirs = sorted({bl.direction for bl in cf.breaklines})
    for scan, gens in ((compute_J, ()), (compute_J_single, dirs[:1]), (compute_J_pair, dirs[:2])):
        calls.update(_corrections=0, _span=0)
        scan(cf, *gens)
        assert calls == {"_corrections": 1, "_span": 1}
