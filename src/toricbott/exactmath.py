"""Exact integer linear algebra and strict-inequality LP feasibility.

Ranks and determinants are taken of integer matrices by fraction-free
(Bareiss) elimination, whose every division is exact; the LP works over
stdlib ``fractions.Fraction`` (a value that happens to be integral is kept
as a plain ``int``).  No floating point appears anywhere; ranks and LP
verdicts are exact yes/no facts, so there is no tolerance to tune.

The LP solver is a dense two-phase tableau simplex with Bland's rule.  With
exact pivots, cycling is the only possible failure mode and Bland's rule
rules it out.  Problem sizes in this package are tiny (tens of rows), so a
dense tableau is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


class ComplexNotExactlyComposable(ValueError):
    """Consecutive differentials of a complex do not compose to zero."""


class EmptyInput(ValueError):
    """The operation requires a nonempty polyhedron."""


class UnboundedAuxiliary(RuntimeError):
    """The slack-maximization LP reported unbounded; eps <= 1 forbids this."""


def as_rational(x):
    """Normalize a number to ``int`` when integral, ``Fraction`` otherwise."""
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


@dataclass(frozen=True)
class QMatrix:
    """Dense row-major integer matrix: one differential of a ChainComplex.

    The shape is carried explicitly so that a map to or from a zero term
    keeps its column or row count.  Every entry must be an ``int``.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows or any(
            len(row) != self.cols for row in self.entries
        ):
            raise ValueError("entry count must equal rows x cols")
        if any(type(x) is not int for row in self.entries for x in row):
            raise ValueError("matrix entries must be integers")


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
            factor = mat[i][col]
            rowi = mat[i]
            for j in range(col + 1, ncols):
                # Sylvester's identity makes every Bareiss division exact;
                # a remainder means the elimination went wrong.
                q, rem = divmod(pivot * rowi[j] - factor * rowr[j], prev)
                if rem:
                    raise AssertionError("inexact Bareiss division")
                rowi[j] = q
            rowi[col] = 0
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r, sign, prev


def rank(m: QMatrix) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    return _bareiss([list(row) for row in m.entries], m.cols)[0]


def det(rows) -> int:
    """Exact determinant of a square integer matrix given as a list of rows.

    Closed forms up to 3 x 3 (the hot path: wedge minors of the cohomology
    engine and dual bases of surface and threefold cones), fraction-free
    Bareiss elimination beyond.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
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

    d_{i+1} d_i = 0 is checked first, row by row: each row of d_{i+1}
    combines the rows of d_i, and a nonzero combination raises
    ComplexNotExactlyComposable.
    """
    for i in range(len(c.differentials) - 1):
        # each row of d_{i+1} d_i is a combination of the rows of d_i
        inner = c.differentials[i].entries
        for coeffs in c.differentials[i + 1].entries:
            acc = [0] * c.dims[i]
            for a, row in zip(coeffs, inner):
                if a:
                    acc = [x + a * y for x, y in zip(acc, row)]
            if any(acc):
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


class _Unbounded(Exception):
    pass


def _pivot(tableau, rhs, basis, row, col):
    pivot = tableau[row][col]
    inv = Fraction(1) / pivot
    tableau[row] = [x * inv for x in tableau[row]]
    rhs[row] *= inv
    prow = tableau[row]
    for i in range(len(tableau)):
        if i == row:
            continue
        factor = tableau[i][col]
        if factor:
            tableau[i] = [a - factor * b for a, b in zip(tableau[i], prow)]
            rhs[i] -= factor * rhs[row]
    basis[row] = col


def _run_simplex(tableau, rhs, basis, cost):
    """Minimize cost over the current basic feasible tableau (Bland's rule)."""
    ncols = len(cost)
    while True:
        cb = [cost[b] for b in basis]
        support = [i for i, v in enumerate(cb) if v]
        entering = None
        for j in range(ncols):
            red = cost[j]
            for i in support:
                t = tableau[i][j]
                if t:
                    red -= cb[i] * t
            if red < 0:
                entering = j
                break
        if entering is None:
            return sum(cb[i] * rhs[i] for i in support)
        leave = None
        best = None
        for i in range(len(basis)):
            t = tableau[i][entering]
            if t > 0:
                ratio = rhs[i] / t
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise _Unbounded
        _pivot(tableau, rhs, basis, leave, entering)


def lp_max(a_rows, b, c, nonneg: bool = False):
    """Maximize c.x subject to a_rows.x <= b (exact two-phase simplex).

    Returns (status, x, value) with status one of "optimal", "infeasible",
    "unbounded".  Variables are free by default and split x = u - v
    internally; with ``nonneg`` they are constrained to x >= 0 instead,
    which halves the tableau.
    """
    m = len(a_rows)
    n = len(c)
    F0 = Fraction(0)
    nsplit = n if nonneg else 2 * n
    ncols = nsplit + m
    tableau = []
    rhs = []
    flipped = []
    for i in range(m):
        coeffs = [Fraction(x) for x in a_rows[i]]
        row = coeffs + ([] if nonneg else [-x for x in coeffs]) + [F0] * m
        row[nsplit + i] = Fraction(1)
        bi = Fraction(b[i])
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
            flipped.append(i)
        tableau.append(row)
        rhs.append(bi)
    # Phase I is only needed where the slack cannot start basic, i.e. on
    # sign-flipped rows; artificials are added just there.
    basis = [nsplit + i for i in range(m)]
    if flipped:
        for pos, i in enumerate(flipped):
            for k in range(m):
                tableau[k].append(Fraction(1 if k == i else 0))
            basis[i] = ncols + pos
        cost1 = [F0] * ncols + [Fraction(1)] * len(flipped)
        val = _run_simplex(tableau, rhs, basis, cost1)
        if val > 0:
            return "infeasible", None, None
        for i in range(len(basis) - 1, -1, -1):
            if basis[i] >= ncols:
                piv = next((j for j in range(ncols) if tableau[i][j] != 0), None)
                if piv is None:
                    del tableau[i]
                    del rhs[i]
                    del basis[i]
                else:
                    _pivot(tableau, rhs, basis, i, piv)
        for row in tableau:
            del row[ncols:]
    cost2 = [-Fraction(x) for x in c]
    if not nonneg:
        cost2 += [Fraction(x) for x in c]
    cost2 += [F0] * m
    try:
        val2 = _run_simplex(tableau, rhs, basis, cost2)
    except _Unbounded:
        return "unbounded", None, None
    values = {basis[i]: rhs[i] for i in range(len(basis))}
    if nonneg:
        x = [as_rational(values.get(j, F0)) for j in range(n)]
    else:
        x = [as_rational(values.get(j, F0) - values.get(n + j, F0)) for j in range(n)]
    return "optimal", x, as_rational(-val2)


def lp_feasible_strict(a: Sequence[Sequence], b: Sequence,
                       strict: Optional[Sequence[bool]] = None, nonneg: bool = False):
    """Witness for {a.x < b on strict rows, a.x <= b on the rest}, or None.

    ``a`` is a list of coefficient rows.  Feasibility of the open system is
    decided by maximizing a slack eps with a.x + eps <= b on strict rows and
    eps <= 1; the system is feasible iff the optimum eps is positive, and the
    witness then satisfies every strict row with exact slack >= eps.
    ``nonneg`` restricts the witness to x >= 0.
    """
    nvars = len(a[0]) if a else 0
    if strict is None:
        strict = [True] * len(a)
    if len(strict) != len(a) or len(b) != len(a):
        raise ValueError("row count mismatch")
    rows = [list(row) + [int(is_strict)] for row, is_strict in zip(a, strict)]
    rows.append([0] * nvars + [1])
    status, x, value = lp_max(rows, list(b) + [1], [0] * nvars + [1], nonneg=nonneg)
    if status == "infeasible":
        return None
    if status == "unbounded":
        raise UnboundedAuxiliary("eps <= 1 should bound the auxiliary LP")
    return x[:nvars] if value > 0 else None


def polyhedron_bounded(a: Sequence[Sequence], b: Sequence) -> bool:
    """True iff the nonempty polyhedron {x : a.x <= b} is bounded, for a
    list of coefficient rows ``a``.

    Boundedness is equivalent to the recession cone {x : a.x <= 0} being
    trivial, decided by one LP per signed coordinate direction.
    """
    ncols = len(a[0]) if a else 0
    status, _, _ = lp_max(a, b, [0] * ncols)
    if status == "infeasible":
        raise EmptyInput("polyhedron is empty")
    zero_rhs = [0] * len(a)
    for i in range(ncols):
        for sign in (1, -1):
            direction = [0] * ncols
            direction[i] = sign
            status, _, value = lp_max(list(a) + [direction], zero_rhs + [1], direction)
            if status == "unbounded" or (status == "optimal" and value > 0):
                return False
    return True
