import itertools
from fractions import Fraction
from math import ceil, floor

import pytest

from toricbott.danilov import DEAD, FREE, RESTRICTED, _engine
from toricbott.exactmath import QMatrix, det


def _sparse(rows, cols=None) -> QMatrix:
    """The QMatrix of the dense integer ``rows``, zeros dropped; ``cols``
    defaults to the length of the first row (0 for no rows)."""
    if cols is None:
        cols = len(rows[0]) if rows else 0
    return QMatrix(len(rows), cols,
                   tuple(tuple((j, x) for j, x in enumerate(row) if x != 0) for row in rows))


@pytest.fixture
def wrong_h0(monkeypatch):
    """A negative control: ``wrong_h0(hit)`` makes every cohomology lookup
    read h^0 at p = 0 one higher wherever ``hit(fan, logset, twist)``."""
    import toricbott.danilov as danilov

    original = danilov._log_dims

    def patch(hit):
        def off_by_one(f, ps, logset, twist):
            dims = original(f, ps, logset, twist)
            if ps[0] == 0 and hit(f, logset, twist):
                dims = ((dims[0][0] + 1,) + dims[0][1:],) + dims[1:]
            return dims

        monkeypatch.setattr(danilov, "_log_dims", off_by_one)

    return patch


@pytest.fixture(scope="session")
def dense():
    """Builds a QMatrix from dense rows: ``dense(rows)`` or ``dense(rows, cols)``."""
    return _sparse


# --- an enumeration reference written apart from the engine's walk ----------

def _margins(f, twist, m) -> list:
    """The margins <m, u_rho> + t_rho of the rays at the point m, whose
    coordinates may be ints or Fractions."""
    return [sum(a * b for a, b in zip(m, ray)) + t for ray, t in zip(f.rays, twist)]


def _oracle_state(merged, c):
    """The state of the margin c: DEAD for c <= -1, FREE for c >= 1 (c >= 0
    on a merged ray), RESTRICTED for c = 0, and None strictly between those
    levels.  On a merged ray this is the rule of a pass with the ray's level
    1 dropped."""
    if c <= -1:
        return DEAD
    if c >= 1 or (merged and c >= 0):
        return FREE
    if c == 0:
        return RESTRICTED
    return None


def _cramer_vertices(f, merged, twist) -> set:
    """Arrangement vertices, as tuples of Fractions, by Cramer's rule on
    every r-subset of level hyperplanes: levels -1 and 0 on a merged ray,
    -1, 0 and 1 on any other."""
    hyperplanes = [(i, lv - twist[i]) for i in range(f.n_rays)
                   for lv in ((-1, 0) if merged[i] else (-1, 0, 1))]
    vertices = set()
    for combo in itertools.combinations(hyperplanes, f.dim):
        rows = [list(f.rays[i]) for i, _ in combo]
        d = det(rows)
        if d:
            vertices.add(tuple(
                Fraction(det([row[:col] + [b] + row[col + 1:] for row, (_, b) in zip(rows, combo)]),
                         d)
                for col in range(f.dim)))
    return vertices


def _brute_box(f, s) -> dict:
    """The weight support of the sheaf spec ``s``, {m: h^0..h^r}, by listing
    every weight of a box strictly larger than the support box: the integer
    box of the Cramer vertices whose merged oracle states have cohomology,
    widened by 1 on each side, or (-1, 1) per coordinate when none has.
    Each weight's state comes from its margins by ``_oracle_state``; the
    engine gives only the cohomology of a pattern."""
    eng = _engine(f)
    merged = [s.p == 0 or i in s.logset for i in range(f.n_rays)]

    def states(m):
        return tuple(map(_oracle_state, merged, _margins(f, s.twist, m)))

    corners = [v for v in _cramer_vertices(f, merged, s.twist)
               if None not in (st := states(v)) and any(eng.state_cohomology(s.p, st))]
    bounds = [(min(ceil(v[k]) for v in corners) - 1, max(floor(v[k]) for v in corners) + 1)
              if corners else (-1, 1) for k in range(f.dim)]
    support = {}
    for m in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)):
        if any(dims := eng.state_cohomology(s.p, states(m))):
            support[m] = dims
    return support


@pytest.fixture(scope="session")
def brute_box():
    """Lists a sheaf spec's weights over a box beyond its support box:
    ``brute_box(f, s)`` is {m: h^0..h^r}."""
    return _brute_box


@pytest.fixture(scope="session")
def oracle_state():
    """The margin state rule written apart from the engine:
    ``oracle_state(merged, c)``."""
    return _oracle_state


@pytest.fixture(scope="session")
def cramer_vertices():
    """The level arrangement's vertices by Cramer's rule:
    ``cramer_vertices(f, merged, twist)`` is a set of Fraction tuples."""
    return _cramer_vertices

