import pytest

from toricbott.exactmath import QMatrix


def _sparse(rows, cols=None) -> QMatrix:
    """The QMatrix of the dense integer ``rows``, zeros dropped; ``cols``
    defaults to the length of the first row (0 for no rows)."""
    if cols is None:
        cols = len(rows[0]) if rows else 0
    return QMatrix(len(rows), cols,
                   tuple(tuple((j, x) for j, x in enumerate(row) if x != 0) for row in rows))


@pytest.fixture(scope="session")
def dense():
    """Builds a QMatrix from dense rows: ``dense(rows)`` or ``dense(rows, cols)``."""
    return _sparse
