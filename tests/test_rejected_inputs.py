"""Inputs the flat read-off and the jump probe reject instead of misreading.

A flat expression whose affine leaves disagree on dimension raises
``expr_dim``'s DimensionMismatch in ``flat_form`` and ``flat_breaklines``, as
``evaluator`` does, instead of truncating rows to the shortest leaf.  A jump
probe with a step that is not positive raises ValueError instead of returning
the negated jump or dividing by zero.
"""

from fractions import Fraction

import pytest

from relugeo.errors import DimensionMismatch
from relugeo.network import Breakline
from relugeo.pwa import evaluator, expr_dim, flat_breaklines, flat_form, parse_pwa
from relugeo.synthesis import jump_vector

MIXED = [
    "affine([1],0) + affine([1,1],2)",
    "relu(affine([1],0)) + relu(affine([1,1],0))",
    "max(affine([1,0],0), affine([1],1))",
    "relu(affine([1],0) + affine([-1,1],0))",
    "2 * min(affine([1,2,3],0), affine([0,1],0)) + affine([1],0)",
]


@pytest.mark.parametrize("text", MIXED)
@pytest.mark.parametrize("read", [flat_form, flat_breaklines, evaluator])
def test_mixed_dimensions_raise_expr_dims_error(read, text):
    e = parse_pwa(text)
    with pytest.raises(DimensionMismatch) as want:
        expr_dim(e)
    with pytest.raises(DimensionMismatch) as got:
        read(e)
    assert str(got.value) == str(want.value)


RELU = evaluator(parse_pwa("relu(affine([1],0))"))
AT_ZERO = Breakline((1,), 0)


@pytest.mark.parametrize("step", [-1, 0, Fraction(-1, 2), "0", "-3/4"])
def test_non_positive_step_raises_value_error(step):
    with pytest.raises(ValueError, match="^the step must be positive, got "):
        jump_vector(RELU, AT_ZERO, (0,), step=step)


@pytest.mark.parametrize("step", [1, Fraction(1, 3), "5"])
def test_positive_steps_read_the_jump(step):
    assert jump_vector(RELU, AT_ZERO, (0,), step=step) == (1,)
