"""The storage contract of ``Matrix.data``, shared by the tests."""

from fractions import Fraction

from bihomcheck.scalars import Scalar


def assert_canonical(rows):
    """No stored zero, an int for an integral constant, a Fraction only when
    the denominator is not 1, and a Scalar only for a non-constant."""
    for row in rows:
        for x in row.values():
            if type(x) is int:
                assert x != 0
            elif type(x) is Fraction:
                # the slot, not the property: tests that trace calls into
                # the fractions module must not see this check
                assert x._denominator != 1
            else:
                assert type(x) is Scalar and x.value is None
