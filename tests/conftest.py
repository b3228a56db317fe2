import pytest

from toricbott.danilov import _engine
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


def _brute_box(f, s) -> dict:
    """The weight support of the sheaf spec ``s`` listed by the one weight
    loop ``_Engine.box_run`` over a box strictly larger than the support box:
    the support box widened by 1 on each side, or (-1, 1) per coordinate when
    no pattern has cohomology."""
    eng = _engine(f)
    merged = eng.merged(s.p, s.logset)
    support = eng.support_box(s.p, merged, s.twist)
    if support is None:
        bounds = tuple((-1, 1) for _ in range(f.dim))
    else:
        bounds = tuple((lo - 1, hi + 1) for lo, hi in support)
    return eng.box_run(s.p, merged, s.twist, bounds)


@pytest.fixture(scope="session")
def brute_box():
    """Lists a sheaf spec's weights over a box beyond its support box:
    ``brute_box(f, s)`` is {m: h^0..h^r}."""
    return _brute_box
