"""Exact integer linear algebra and strict-inequality LP feasibility.

Every kernel works on integer rows, and no number is ever rounded.  The
differentials of a complex are sparse: ``QMatrix`` keeps each row's nonzero
entries only, and ``rank`` is a sparse fraction-free elimination that pivots
on the shortest row, on a +-1 entry when it has one, and divides a row that a
larger pivot updated by its content (the unit-pivot-first strategy of Dumas,
Saunders and Villard, On efficient sparse integer matrix Smith normal form
computations, J. Symbolic Comput. 2001).  Determinants and the LP share one dense
fraction-free update, whose every division is exact: determinants by Bareiss
elimination, and the LP by a simplex tableau of integer rows over one common
denominator (integer pivoting as in Edmonds and in Avis's lrs).  A stdlib
``fractions.Fraction`` appears only in an LP's returned witness (an entry
that happens to be integral is kept as a plain ``int``).  No floating point
appears anywhere; ranks and LP verdicts are exact yes/no facts, so there is
no tolerance to tune.

``json_ints`` is the package's one integer test: every reader of numbers
(fans, divisors, sheaf specs, weights, boxes, certificates, and the matrices
and LPs here) passes them through it, so a float, bool or Fraction is a
ValueError naming the entry instead of a silently truncated number.

The package's LP questions all have nonnegative unknowns (the hypothesis
weights d, the coefficients of an ample divisor, a point's coordinates over
a cone's rays), so there is one LP form: ``lp_feasible_strict`` finds
x >= 0 with a.x < b on strict rows and a.x <= b on the rest.  A caller with
free unknowns splits each as x = u - v, as ``polyhedron_bounded`` does.  The
solver is a dense two-phase tableau simplex with Bland's rule.  With exact
pivots, cycling is the only possible failure mode and Bland's rule rules it
out.  Problem sizes in this package are tiny (tens of rows), so a dense
tableau is the right tool.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence


class ComplexNotExactlyComposable(ValueError):
    """Consecutive differentials of a complex do not compose to zero."""


class EmptyInput(ValueError):
    """The operation requires a nonempty polyhedron."""


class UnboundedAuxiliary(RuntimeError):
    """The simplex met an unbounded direction; eps <= 1 forbids this."""


def json_ints(values, what: str) -> tuple:
    """``values`` as a tuple; ValueError naming the first entry that is not
    an ``int`` (a bool, float, Fraction or string), described as ``what``,
    and ValueError if ``values`` is not a sequence at all or is a string,
    bytes or mapping, whose iteration would read characters or keys."""
    # the type test first: the ABC test would cost every tuple and list
    if type(values) not in (tuple, list) and isinstance(values, (str, bytes, Mapping)):
        raise ValueError(f"{what} values must come as a list, not {type(values).__name__}")
    try:
        values = tuple(values)
    except TypeError as exc:
        raise ValueError(f"{what} values must come as a list: {exc}") from exc
    if not {int}.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) is not int)
        raise ValueError(f"{what} {bad!r} is not an integer; all must be integers")
    return values


@dataclass(frozen=True)
class QMatrix:
    """Sparse integer matrix: one differential of a ChainComplex.

    ``entries`` holds one tuple per row of (column, value) pairs, the row's
    nonzero entries; a column missing from a row is a zero.  The shape is
    carried explicitly so that a map to or from a zero term keeps its column
    or row count.  Every column and value must be an ``int``, every column
    in range(cols) and at most once in its row, and no value zero.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("need one sparse row per matrix row")
        try:
            pairs = list(itertools.chain.from_iterable(self.entries))
            columns, values = zip(*pairs, strict=True) if pairs else ((), ())
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matrix rows must hold (column, value) pairs: {exc}") from exc
        json_ints(columns + values, "matrix entry")
        if columns and (min(columns) < 0 or max(columns) >= self.cols):
            raise ValueError(f"matrix column out of range(0, {self.cols})")
        if 0 in values:
            raise ValueError("a sparse matrix row stores a zero")
        if sum(map(len, map(dict, self.entries))) != len(pairs):
            raise ValueError("a sparse matrix row stores a column twice")


def _eliminate(row: list, prow: list, pivot: int, factor: int, prev: int, start: int):
    """row[j] = (pivot * row[j] - factor * prow[j]) / prev for j >= start, in
    place: the fraction-free step of Bareiss and of the integer simplex.

    Sylvester's identity makes every division exact; a remainder means the
    elimination went wrong.
    """
    for j in range(start, len(row)):
        q, rem = divmod(pivot * row[j] - factor * prow[j], prev)
        if rem:
            raise AssertionError("inexact fraction-free division")
        row[j] = q


def _bareiss(mat: list, ncols: int) -> tuple:
    """Fraction-free (Bareiss) row echelon form of the integer rows ``mat``,
    in place.  Returns (rank, sign of the row permutation, last pivot); for
    a nonsingular square matrix the last pivot is the determinant up to that
    sign."""
    nrows = len(mat)
    r = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        pivot = mat[r][col]
        rowr = mat[r]
        for i in range(r + 1, nrows):
            rowi = mat[i]
            _eliminate(rowi, rowr, pivot, rowi[col], prev, col + 1)
            rowi[col] = 0
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r, sign, prev


def rank(m: QMatrix) -> int:
    """Rank of a sparse integer matrix by sparse fraction-free elimination.

    Each step takes a shortest remaining row as the pivot row and pivots on
    one of its +-1 entries if it has one (the one whose column the fewest
    other rows hold), else on its smallest entry p.  Every other row holding
    the pivot column, with value v there, becomes p * row - v * pivot row
    and, unless p = +-1, is divided by the gcd of its entries; the pivot row
    then leaves.  A +-1 pivot updates by row - p * v * pivot row instead,
    the same row up to sign, so its entries grow by addition only.
    """
    rows = [dict(row) for row in m.entries]
    holders: dict = {}      # column -> indices of the remaining rows holding it
    for i, row in enumerate(rows):
        for col in row:
            if col in holders:
                holders[col].add(i)
            else:
                holders[col] = {i}
    queue = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(queue)
    found = 0
    while queue:
        size, i = heapq.heappop(queue)
        prow = rows[i]
        if size != len(prow):
            continue        # a stale entry: the row has changed or left
        rows[i] = {}
        found += 1
        col, fewest = None, None
        for c, v in prow.items():
            if (v == 1 or v == -1) and (fewest is None or len(holders[c]) < fewest):
                col, fewest = c, len(holders[c])
        if col is None:
            col = min(prow, key=lambda c: abs(prow[c]))
        pivot = prow.pop(col)
        unit = pivot == 1 or pivot == -1
        for c in prow:
            holders[c].discard(i)
        targets = holders.pop(col)
        targets.discard(i)
        for j in targets:
            row = rows[j]
            factor = row.pop(col)
            if unit:
                factor *= pivot
            else:
                for c in row:
                    row[c] *= pivot
            for c, v in prow.items():
                value = row.get(c, 0) - factor * v
                if value:
                    if c not in row:
                        holders[c].add(j)
                    row[c] = value
                else:
                    del row[c]
                    holders[c].discard(j)
            if row:
                if not unit:
                    g = gcd(*row.values())
                    if g != 1:
                        for c in row:
                            row[c] //= g
                heapq.heappush(queue, (len(row), j))
    return found


def det(rows) -> int:
    """Exact determinant of a square integer matrix given as a list of rows,
    by fraction-free (Bareiss) elimination; the empty matrix has det 1."""
    n = len(rows)
    full_rank, sign, last = _bareiss([list(row) for row in rows], n)
    return sign * last if full_rank == n else 0


@dataclass(frozen=True)
class ChainComplex:
    """Cochain complex d_i : C^i -> C^{i+1} given by its differentials.

    Term dimensions are carried explicitly so that single-term complexes
    (no differentials at all) are still well-defined.
    """

    dims: tuple
    differentials: tuple

    def __post_init__(self):
        if len(self.dims) != len(self.differentials) + 1:
            raise ValueError("need exactly one more term than differential")
        for i, d in enumerate(self.differentials):
            if d.cols != self.dims[i] or d.rows != self.dims[i + 1]:
                raise ValueError(f"differential {i} has shape {d.rows}x{d.cols}, "
                                 f"expected {self.dims[i + 1]}x{self.dims[i]}")


def cohomology_dims(c: ChainComplex) -> list:
    """Exact cohomology dimensions h^i = dim ker d_i - rank d_{i-1}.

    d_{i+1} d_i = 0 is checked first, row by row on the sparse rows: each
    row of d_{i+1} combines the rows of d_i, and a nonzero combination raises
    ComplexNotExactlyComposable.
    """
    for i in range(len(c.differentials) - 1):
        # each row of d_{i+1} d_i is a combination of the sparse rows of d_i
        inner = c.differentials[i].entries
        for coeffs in c.differentials[i + 1].entries:
            acc: dict = {}
            for k, a in coeffs:
                for col, v in inner[k]:
                    acc[col] = acc.get(col, 0) + a * v
            if any(acc.values()):
                raise ComplexNotExactlyComposable(f"d_{i + 1} . d_{i} != 0")
    ranks = [rank(d) for d in c.differentials]
    out = []
    for i, dim in enumerate(c.dims):
        r_out = ranks[i] if i < len(ranks) else 0
        r_in = ranks[i - 1] if i > 0 else 0
        h = dim - r_out - r_in
        if h < 0:
            raise AssertionError(f"negative cohomology dimension h^{i} = {h}")
        out.append(h)
    return out


def _pivot(tableau, basis, row, col, den) -> int:
    """Pivot on tableau[row][col]; returns the new common denominator.

    The rows hold den times the simplex tableau (right-hand side last), with
    den = |det B| > 0 for the basis B, so every other row becomes
    (p * row - row[col] * prow) / den exactly and den becomes |p|.  Only
    driving an artificial out of a degenerate row meets a negative pivot;
    the tableau is then negated to keep den positive.
    """
    prow = tableau[row]
    p = prow[col]
    for i, other in enumerate(tableau):
        if i != row:
            _eliminate(other, prow, p, other[col], den, 0)
    basis[row] = col
    if p < 0:
        for other in tableau:
            other[:] = [-x for x in other]
    return abs(p)


def _objective(cost, tableau, basis, den) -> list:
    """den times the reduced costs of ``cost`` at the current basis, and
    -den times the objective value last."""
    obj = [den * x for x in cost] + [0]
    for j, row in zip(basis, tableau):
        if cost[j]:
            obj = [o - cost[j] * x for o, x in zip(obj, row)]
    return obj


def _run_simplex(tableau, basis, den) -> int:
    """Minimize over the current basic feasible tableau (Bland's rule), whose
    last row is the objective; returns the final common denominator."""
    obj = tableau[-1]
    while True:
        entering = next((j for j in range(len(obj) - 1) if obj[j] < 0), None)
        if entering is None:
            return den
        leave = None
        for i in range(len(basis)):
            t = tableau[i][entering]
            if t > 0:
                if leave is None:
                    leave = i
                    continue
                # the ratios rhs / t of row i and of the best row, cross-multiplied
                here = tableau[i][-1] * tableau[leave][entering]
                best = tableau[leave][-1] * t
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise UnboundedAuxiliary("eps <= 1 should bound the auxiliary LP")
        den = _pivot(tableau, basis, leave, entering, den)


def lp_feasible_strict(a: Sequence[Sequence], b: Sequence,
                       strict: Optional[Sequence[bool]] = None):
    """Witness x >= 0 with a.x < b on strict rows and a.x <= b on the rest,
    or None; every row is strict when ``strict`` is None.

    ``a`` is a list of integer coefficient rows, one entry per unknown.  The
    open system is decided by maximizing a slack eps >= 0 with
    a.x + eps <= b on strict rows and eps <= 1 (an exact two-phase simplex,
    with x and eps nonnegative): the system is feasible iff the optimum eps
    is positive, and the witness then satisfies every strict row with exact
    slack >= eps.  Entries of the witness are ``Fraction``s, or plain
    ``int``s where integral.
    """
    a = [list(json_ints(row, "LP coefficient")) for row in a]
    json_ints(b, "LP right-hand side")
    m = len(a)
    n = len(a[0]) if a else 0
    if strict is None:
        strict = [True] * m
    if len(b) != m or len(strict) != m or any(len(row) != n for row in a):
        raise ValueError(f"LP needs {m} right-hand sides and strict flags, "
                         f"and {n} coefficients per row")
    # unknowns x and eps, one slack per row, and an artificial per row whose
    # right-hand side is negative (its slack cannot start basic)
    rows = [row + [int(s)] for row, s in zip(a, strict)] + [[0] * n + [1]]
    rhs = list(b) + [1]
    m += 1
    nvars = n + 1
    ncols = nvars + m
    flipped = [i for i in range(m) if rhs[i] < 0]
    basis = [nvars + i for i in range(m)]
    tableau = []
    for i in range(m):
        row = rows[i] + [0] * (m + len(flipped))
        row[nvars + i] = 1
        row.append(rhs[i])
        if rhs[i] < 0:
            row = [-x for x in row]
            basis[i] = ncols + flipped.index(i)
            row[basis[i]] = 1
        tableau.append(row)
    den = 1
    if flipped:
        tableau.append(_objective([0] * ncols + [1] * len(flipped), tableau, basis, den))
        den = _run_simplex(tableau, basis, den)
        # the objective's last entry is -den times the artificials' sum
        if tableau.pop()[-1] < 0:
            return None
        for i in range(len(basis) - 1, -1, -1):
            if basis[i] >= ncols:
                # The row has a nonzero entry among the first ncols columns:
                # it is a nonzero combination of the rows of [+-A | +-I], and
                # the slack identity block keeps those rows independent.
                piv = next(j for j in range(ncols) if tableau[i][j] != 0)
                den = _pivot(tableau, basis, i, piv, den)
        for row in tableau:
            del row[ncols:-1]
    # minimize -eps; the objective's last entry is then den times eps
    tableau.append(_objective([0] * n + [-1] + [0] * m, tableau, basis, den))
    den = _run_simplex(tableau, basis, den)
    if tableau[-1][-1] <= 0:
        return None
    values = {j: row[-1] for j, row in zip(basis, tableau)}
    witness = [Fraction(values.get(j, 0), den) for j in range(n)]
    return [q.numerator if q.denominator == 1 else q for q in witness]


def polyhedron_bounded(a: Sequence[Sequence], b: Sequence) -> bool:
    """True iff the nonempty polyhedron {x : a.x <= b} is bounded, for a
    list of coefficient rows ``a``.

    The unknowns are free, so each is split as x = u - v with u, v >= 0.
    Boundedness is equivalent to the recession cone {x : a.x <= 0} being
    trivial, that is, to no x in it having +-x_i > 0: one strict
    feasibility test per signed coordinate direction.
    """
    a = [json_ints(row, "LP coefficient") for row in a]
    split = [list(row) + [-x for x in row] for row in a]
    if lp_feasible_strict(split, b, [False] * len(split)) is None:
        raise EmptyInput("polyhedron is empty")
    ncols = len(a[0]) if a else 0
    for i in range(ncols):
        for sign in (1, -1):
            direction = [0] * (2 * ncols)
            direction[i], direction[ncols + i] = -sign, sign
            if lp_feasible_strict(split + [direction], [0] * (len(split) + 1),
                                  [False] * len(split) + [True]) is not None:
                return False
    return True
