"""The package's reachable refusals, one row each: the call, the exception
type and the message it raises.  Each row is a guard no other test runs."""

import re

import pytest

from coadinv.charpoly import bordered, interp_coeffs
from coadinv.exactmat import Mat, pfaffian, scalar
from coadinv.liealg import (Algebra, DualPoint, GroupElem, Rng, cayley, coad, k_bracket,
                            sample_int_mat)

ROW = Mat([[1, 2]])  # a 1x2 matrix
ONE = Mat([[1]])

REFUSALS = [
    # exactmat
    ("Mat([])", lambda: Mat([]), ValueError, "matrix needs at least one row and one column"),
    ("Mat([[]])", lambda: Mat([[]]), ValueError,
     "matrix needs at least one row and one column"),
    ("Mat.zero(0, 2)", lambda: Mat.zero(0, 2), ValueError,
     "matrix needs at least one row and one column"),
    ("trace 1x2", lambda: ROW.trace(), ValueError, "trace of a non-square matrix"),
    ("add 1x1 1x2", lambda: ONE + ROW, ValueError, "dimension mismatch in add: 1x1 vs 1x2"),
    ("sub 1x1 1x2", lambda: ONE - ROW, ValueError, "dimension mismatch in sub: 1x1 vs 1x2"),
    ("Mat + 1", lambda: ONE + 1, TypeError, None),
    ("Mat - 1", lambda: ONE - 1, TypeError, None),
    ("Mat * str", lambda: ONE * "x", TypeError, None),
    ("str * Mat", lambda: "x" * ONE, TypeError, None),
    ("scalar 1x2", lambda: scalar(ROW), ValueError, "expected a 1x1 matrix, got 1x2"),
    ("pfaffian 1x2", lambda: pfaffian(ROW), ValueError, "pfaffian of a non-square matrix"),
    # charpoly
    ("interp_coeffs([])", lambda: interp_coeffs([]), ValueError, "need at least one value"),
    ("bordered 1x2 core", lambda: bordered(ROW, ONE, ONE, 0), ValueError,
     "bordered needs a square core"),
    ("bordered 2x1 wstar", lambda: bordered(Mat.identity(2), Mat.zero(2, 1), Mat.zero(2, 1), 0),
     ValueError, "bordered needs a 1 x n row"),
    # liealg
    ("glvv ell", lambda: Algebra("glvv", 3).ell, ValueError, "ell is only defined for io/iso"),
    ("point family", lambda: DualPoint(ONE, ONE, ONE, family="nope"), ValueError,
     "unknown algebra family 'nope'"),
    ("point y 1x2", lambda: DualPoint(ROW, ONE), ValueError, "y must be square"),
    ("element g 1x2", lambda: GroupElem(ROW, ONE), ValueError, "g must be square"),
    ("empty range", lambda: Rng(1).int_between(3, 2), ValueError, "empty range"),
    ("wide range", lambda: Rng(1).int_between(0, 2 ** 64), ValueError, "range wider than 2^64"),
    ("sample no rows", lambda: sample_int_mat(Rng(1), 0, 1, 3), ValueError,
     "matrix needs at least one row and one column"),
    ("cayley non-skew", lambda: cayley(Mat.identity(2)), ValueError,
     "cayley needs a skew matrix"),
    ("coad sizes", lambda: coad(GroupElem(Mat.identity(2), Mat.zero(2, 1)),
                                DualPoint(Mat.zero(3, 3), Mat.zero(1, 3))),
     ValueError, "size mismatch between element and point"),
    ("k_bracket sizes", lambda: k_bracket(Mat.identity(2), Mat.identity(3)), ValueError,
     "k_bracket needs equal square matrices"),
]


@pytest.mark.parametrize("call, exc, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    if message is not None:
        assert str(info.value) == message
    else:
        assert re.match("unsupported operand|can't multiply", str(info.value))


def test_shape_and_type_mismatches_compare_false():
    # no refusal: a non-square matrix is not skew, and a matrix is no number
    assert ROW.is_skew() is False
    assert (ONE == 1) is False
