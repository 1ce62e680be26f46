"""Every Matrix built while the tests run is checked to be stored
canonically (see ``storage.assert_canonical``), so a caller that hands
``Matrix.from_dicts`` a Scalar constant or a zero fails the test that
exercised it."""

import pytest

from bihomcheck.linalg import Matrix
from storage import assert_canonical


@pytest.fixture(autouse=True, scope="session")
def canonical_matrix_storage():
    set_ = Matrix._set

    def checked(self, rows, cols, data, params):
        assert_canonical(data)
        set_(self, rows, cols, data, params)

    Matrix._set = checked
    yield
    Matrix._set = set_
