import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbott.exactmath import (
    ChainComplex,
    ComplexNotExactlyComposable,
    EmptyInput,
    QMatrix,
    _bareiss,
    cohomology_dims,
    det,
    json_ints,
    lp_feasible_strict,
    polyhedron_bounded,
    rank,
)


def test_rank_identity(dense):
    assert rank(dense(((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 3


def test_rank_zero(dense):
    assert rank(dense(((0, 0), (0, 0)))) == 0


def test_rank_proportional_rows(dense):
    assert rank(dense([[1, 2], [2, 4]])) == 1


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, True])
def test_matrix_rejects_non_integer_entries(dense, entry):
    with pytest.raises(ValueError, match="integers"):
        dense(((1, entry),))


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_equals_rank_of_transpose(dense, rows):
    assert rank(dense(rows)) == rank(dense(list(zip(*rows))))


def _naive_rank(rows) -> int:
    """Rank by plain Gaussian elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            factor = mat[i][col] / mat[r][col]
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


bareiss_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from((0, 1, -1, 2, -2, 3)), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=500, deadline=None)
@given(bareiss_matrices)
def test_rank_matches_naive_fraction_elimination(dense, rows):
    assert rank(dense(rows)) == _naive_rank(rows)


def test_rank_matches_naive_on_seeded_samples(dense):
    # the shapes and entries of the property test, drawn uniformly: about one
    # matrix in a hundred needs every Bareiss row update to be done
    rng = random.Random(0)
    for _ in range(5000):
        rows = [[rng.choice((0, 1, -1, 2, -2, 3)) for _ in range(rng.randint(1, 5))]]
        rows += [[rng.choice((0, 1, -1, 2, -2, 3)) for _ in rows[0]]
                 for _ in range(rng.randint(0, 4))]
        assert rank(dense(rows)) == _naive_rank(rows), rows


def test_rank_row_with_zero_factor_is_still_scaled(dense):
    # the row below the first pivot has a zero in the pivot column; skipping
    # its Bareiss update made a later division truncate and gave rank 2
    assert rank(dense([[0, -1, 0, -1], [0, 0, -1, -2], [3, -1, 0, -1]])) == 3


def _bareiss_rank(rows, ncols) -> int:
    """The dense fraction-free (Bareiss) rank, the oracle for the sparse one."""
    return _bareiss([list(row) for row in rows], ncols)[0]


def _random_rows(rng) -> tuple:
    """(rows, ncols): a seeded integer matrix of up to 9 x 9, often mostly
    zero, with entries up to +-7 and at times no +-1 entry at all (so every
    pivot is a non-unit and the gcd step has work), zero rows, and rows that
    combine two others (so the rank falls short of the shape)."""
    nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
    density = rng.choice((0.1, 0.25, 0.5, 1.0))
    values = rng.choice(((1, -1), range(-2, 3), range(-7, 8), (2, -3, 4, -5, 6, 7, -7)))
    rows = [[rng.choice(values) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    for k in range(nrows):
        roll = rng.random()
        if roll < 0.1:
            rows[k] = [0] * ncols
        elif roll < 0.3 and nrows > 2:
            i, j = rng.sample(range(nrows), 2)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows, ncols


def test_sparse_rank_matches_the_dense_and_naive_oracles(dense):
    rng = random.Random(1729)
    shapes = {"0 x n": 0, "n x 0": 0, "deficient": 0, "no unit": 0}
    for _ in range(4000):
        rows, ncols = _random_rows(rng)
        expected = _naive_rank(rows)
        assert rank(dense(rows, ncols)) == _bareiss_rank(rows, ncols) == expected, rows
        shapes["0 x n"] += not rows and ncols > 0
        shapes["n x 0"] += bool(rows) and ncols == 0
        shapes["deficient"] += 0 < expected < min(len(rows), ncols)
        shapes["no unit"] += expected > 0 and not any(x in (1, -1) for row in rows for x in row)
    assert min(shapes.values()) > 20, shapes


def test_sparse_rank_of_a_transpose_and_a_shuffle(dense):
    # neither the order of the rows nor that of the columns can move the rank
    rng = random.Random(31)
    for _ in range(1000):
        rows, ncols = _random_rows(rng)
        expected = rank(dense(rows, ncols))
        assert rank(dense([list(col) for col in zip(*rows)], len(rows))) == expected
        perm = rng.sample(range(ncols), ncols)
        shuffled = [[row[j] for j in perm] for row in rng.sample(rows, len(rows))]
        assert rank(dense(shuffled, ncols)) == expected


@pytest.mark.parametrize("rows, cols, cause", [
    ((((0, 0.5),),), 2, "integer"),
    ((((0, True),),), 2, "integer"),
    ((((1.0, 3),),), 2, "integer"),
    ((((2, 1),),), 2, "out of range"),
    ((((-1, 1),),), 2, "out of range"),
    ((((0, 0),),), 2, "zero"),
    ((((0, 1), (0, 2)),), 2, "twice"),
    ((((0, 1, 2),),), 2, "pairs"),
    (((0, 1),), 2, "pairs"),
    (((), ()), 2, "one sparse row"),
], ids=["float", "bool", "float column", "column past the end", "negative column",
        "stored zero", "column twice", "triple", "bare pair", "row count"])
def test_matrix_validation(rows, cols, cause):
    with pytest.raises(ValueError, match=cause):
        QMatrix(1, cols, rows)


def _naive_det(rows):
    """Determinant by plain Gaussian elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            result = -result
        result *= mat[col][col]
        for i in range(col + 1, n):
            factor = mat[i][col] / mat[col][col]
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[col])]
    return result


square_matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((0, 1, -1, 2, -2, 3)), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=300, deadline=None)
@given(square_matrices)
def test_det_matches_naive_fraction_elimination(rows):
    assert det(rows) == _naive_det(rows)


def test_det_matches_naive_on_seeded_samples():
    # every size 0..8; about a third are made singular by replacing a row
    # with a combination of two others (or by a zero row)
    rng = random.Random(0)
    singular = 0
    for _ in range(3000):
        n = rng.randint(0, 8)
        rows = [[rng.choice((0, 1, -1, 2, -2, 3)) for _ in range(n)] for _ in range(n)]
        if n and rng.random() < 0.35:
            i, j, k = (rng.randrange(n) for _ in range(3))
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[k] = [0] * n if k in (i, j) else [a * x + b * y for x, y in zip(rows[i], rows[j])]
        expected = _naive_det(rows)
        singular += expected == 0
        assert det(rows) == expected, rows
    assert singular > 500


def test_det_small_cases():
    assert det([]) == 1
    assert det([[-4]]) == -4
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert det([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 0, 1, 0]]) == 0
    assert det([[2 * int(i == j) for j in range(5)] for i in range(5)]) == 32


def test_negative_cohomology_dimension_is_an_error(monkeypatch, dense):
    import toricbott.exactmath as exactmath

    monkeypatch.setattr(exactmath, "rank", lambda m: 2)
    with pytest.raises(AssertionError, match="negative cohomology"):
        cohomology_dims(ChainComplex((1, 1), (dense(((1,),)),)))


def test_cohomology_exact_complex(dense):
    c = ChainComplex((1, 1), (dense(((1,),)),))
    assert cohomology_dims(c) == [0, 0]


def test_cohomology_zero_differential(dense):
    c = ChainComplex((1, 1), (dense(((0,),)),))
    assert cohomology_dims(c) == [1, 1]


def test_cohomology_surjection(dense):
    # Q^2 --[1 1]--> Q has a 1-dimensional kernel and no cokernel.
    c = ChainComplex((2, 1), (dense(((1, 1),)),))
    assert cohomology_dims(c) == [1, 0]


def test_cohomology_rejects_bad_composition(dense):
    d0 = dense(((1, 0), (0, 1)))
    d1 = dense(((1, 0), (0, 1)))
    with pytest.raises(ComplexNotExactlyComposable):
        cohomology_dims(ChainComplex((2, 2, 2), (d0, d1)))


def test_cohomology_rejects_a_product_nonzero_only_in_its_last_entry(dense):
    d0 = dense(((1, 0), (0, 1)))
    d1 = dense(((0, 0), (0, 1)))
    with pytest.raises(ComplexNotExactlyComposable):
        cohomology_dims(ChainComplex((2, 2, 2), (d0, d1)))


def test_cohomology_accepts_cancelling_nonzero_entries(dense):
    # d1 . d0 = [[1 - 1]]: every term is nonzero, the sum is not
    d0 = dense(((1,), (1,)))
    d1 = dense(((1, -1),))
    assert cohomology_dims(ChainComplex((1, 2, 1), (d0, d1))) == [0, 0, 0]


def test_complex_needs_one_more_term_than_differential(dense):
    with pytest.raises(ValueError, match="one more term than differential"):
        ChainComplex((1, 1, 1), (dense(((1,),)),))


def test_complex_refuses_a_differential_of_the_wrong_shape(dense):
    with pytest.raises(ValueError, match=r"differential 0 has shape 1x2, expected 1x1"):
        ChainComplex((1, 1), (dense(((1, 0),)),))


def test_single_term_complex():
    c = ChainComplex((3,), ())
    assert cohomology_dims(c) == [3]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=4))
def test_zero_complex_returns_term_dims(dense, dims):
    diffs = tuple(
        dense(((0,) * dims[i],) * dims[i + 1], dims[i])
        for i in range(len(dims) - 1)
    )
    c = ChainComplex(tuple(dims), diffs)
    assert cohomology_dims(c) == list(dims)


def _left_kernel_basis(rows):
    """Independent little Gaussian elimination for the tests only."""
    if not rows:
        return []
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(len(rows))]
         for i, row in enumerate(rows)]
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        piv = next((i for i in range(pivot_row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[pivot_row], m[piv] = m[piv], m[pivot_row]
        pv = m[pivot_row][col]
        m[pivot_row] = [x / pv for x in m[pivot_row]]
        for i in range(len(m)):
            if i != pivot_row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[pivot_row])]
        pivot_row += 1
    return [row[ncols:] for row in m[pivot_row:]]


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.integers(0, 3), st.randoms(use_true_random=False))
def test_euler_characteristic_invariance(dense, rows, extra, rnd):
    # Random two-step complex: d1 rows live in the left kernel of d0.
    d0 = dense(rows)
    kernel = _left_kernel_basis(rows)
    combos = []
    for _ in range(extra + 1):
        combo = [Fraction(0)] * d0.rows
        for vec in kernel:
            w = rnd.randint(-3, 3)
            combo = [a + w * b for a, b in zip(combo, vec)]
        # clearing denominators scales the row and keeps the row space
        mult = lcm(*(x.denominator for x in combo))
        combos.append([int(x * mult) for x in combo])
    d1 = dense(combos)
    c = ChainComplex((d0.cols, d0.rows, d1.rows), (d0, d1))
    h = cohomology_dims(c)
    assert sum((-1) ** i * d for i, d in enumerate(c.dims)) == sum(
        (-1) ** i * x for i, x in enumerate(h)
    )


def test_strict_lp_open_interval():
    w = lp_feasible_strict([[1], [-1]], [1, 0])
    assert w is not None
    assert 0 < w[0] < 1


def test_strict_lp_empty():
    assert lp_feasible_strict([[1], [-1]], [0, 0]) is None


def test_strict_lp_mixed_rows():
    a = [[1, 1], [-1, 0], [0, -1]]
    w = lp_feasible_strict(a, [1, 0, 0], [True, False, False])
    assert w is not None
    x, y = w
    assert x + y < 1 and x >= 0 and y >= 0


def _fourier_motzkin_feasible(rows) -> bool:
    """Naive oracle: is {a.x < b on strict rows, a.x <= b on the rest}
    feasible?  ``rows`` holds (a, b, strict) triples.

    Fourier-Motzkin elimination over Fraction: eliminating x_k combines
    every row with a positive x_k coefficient with every row with a negative
    one, each scaled to cancel x_k, and a combination with a strict row is
    strict.  Once no variable is left, every row must read 0 < b or 0 <= b.
    """
    rows = [([Fraction(x) for x in a], Fraction(b), strict) for a, b, strict in rows]
    nvars = len(rows[0][0]) if rows else 0
    for k in range(nvars):
        upper = [r for r in rows if r[0][k] > 0]
        lower = [r for r in rows if r[0][k] < 0]
        rows = [r for r in rows if r[0][k] == 0]
        for ua, ub, ustrict in upper:
            for la, lb, lstrict in lower:
                s, t = ua[k], -la[k]
                rows.append(([x / s + y / t for x, y in zip(ua, la)], ub / s + lb / t,
                             ustrict or lstrict))
    return all(b > 0 if strict else b >= 0 for _, b, strict in rows)


def test_fourier_motzkin_oracle_on_known_systems():
    assert _fourier_motzkin_feasible([([1], 1, True), ([-1], 0, True)])
    assert not _fourier_motzkin_feasible([([1], 0, True), ([-1], 0, False)])
    assert _fourier_motzkin_feasible([([1], 0, False), ([-1], 0, False)])
    assert not _fourier_motzkin_feasible([([1, 1], 1, False), ([-1, 0], -1, False),
                                          ([0, -1], 0, True)])


def _systems(with_strict: bool):
    """At most 6 integer rows (a, b, strict) over 1 to 3 variables."""
    def row(n):
        return st.tuples(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         st.integers(-4, 4),
                         st.booleans() if with_strict else st.just(False))

    return st.integers(1, 3).flatmap(lambda n: st.lists(row(n), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_systems(with_strict=True), st.booleans())
def test_strict_lp_witness_satisfies_rows_exactly(rows, free):
    # the verdict must match the oracle, so a wrong None fails too.  The LP's
    # unknowns are nonnegative, which the oracle sees as the rows -x_i <= 0;
    # free unknowns are split as x = u - v over the rows [a, -a], and the
    # witness is mapped back to u - v
    a = [r for r, _, _ in rows]
    b = [bi for _, bi, _ in rows]
    strict = [s for _, _, s in rows]
    n = len(a[0])
    if free:
        w = lp_feasible_strict([r + [-x for x in r] for r in a], b, strict)
        w = None if w is None else [u - v for u, v in zip(w[:n], w[n:])]
    else:
        rows = rows + [([-int(i == j) for j in range(n)], 0, False) for i in range(n)]
        w = lp_feasible_strict(a, b, strict)
    assert (w is not None) == _fourier_motzkin_feasible(rows)
    if w is None:
        return
    for (coeffs, bi, is_strict) in rows:
        value = sum(c * x for c, x in zip(coeffs, w))
        if is_strict:
            assert value < bi
        else:
            assert value <= bi


@settings(max_examples=200, deadline=None)
@given(_systems(with_strict=False))
def test_polyhedron_bounded_matches_fourier_motzkin(rows):
    a = [r for r, _, _ in rows]
    b = [bi for _, bi, _ in rows]
    if not _fourier_motzkin_feasible(rows):
        with pytest.raises(EmptyInput):
            polyhedron_bounded(a, b)
        return
    # the recession cone {a.x <= 0} is nontrivial iff some +-x_i > 0 in it
    n = len(a[0])
    cone = [(r, 0, False) for r in a]
    recedes = any(
        _fourier_motzkin_feasible(cone + [([-sign * int(i == j) for j in range(n)], 0, True)])
        for i in range(n) for sign in (1, -1)
    )
    assert polyhedron_bounded(a, b) == (not recedes)


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, True])
def test_lp_rejects_non_integer_data(entry):
    for call in (lambda: lp_feasible_strict([[entry]], [1]),
                 lambda: lp_feasible_strict([[1]], [entry]),
                 lambda: lp_feasible_strict([[1, entry]], [1]),
                 lambda: polyhedron_bounded([[1], [-1]], [entry, 0])):
        with pytest.raises(ValueError, match="integers"):
            call()


def test_lp_rejects_ragged_rows():
    # a row of the wrong length used to shift the slack columns:
    # {x < 1, -x < 0} with the second row given as [-1, 3] answered x = -3/2
    with pytest.raises(ValueError, match="coefficients per row"):
        lp_feasible_strict([[1], [-1, 3]], [1, 0])
    with pytest.raises(ValueError, match="coefficients per row"):
        lp_feasible_strict([[1, 5], [-1]], [1, 0])
    with pytest.raises(ValueError, match="right-hand sides"):
        lp_feasible_strict([[1], [-1]], [1])
    with pytest.raises(ValueError, match="strict flags"):
        lp_feasible_strict([[1], [-1]], [1, 0], [True])
    with pytest.raises(ValueError, match="coefficients per row"):
        polyhedron_bounded([[1, 0], [-1]], [1, 0])


def test_bounded_unit_square():
    a = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    assert polyhedron_bounded(a, [1, 0, 1, 0])


def test_unbounded_half_plane():
    assert not polyhedron_bounded([[-1, 0]], [0])


def test_bounded_simplex():
    a = [[-1, 0], [0, -1], [1, 1]]
    assert polyhedron_bounded(a, [0, 0, 5])


def test_bounded_rejects_empty():
    a = [[1], [-1]]
    with pytest.raises(EmptyInput):
        polyhedron_bounded(a, [-1, 0])


def test_strict_lp_infeasible_through_phase_one():
    # {x <= -1, x >= 0}: the flipped row needs an artificial, and Phase I
    # cannot drive the artificials' sum to zero
    assert lp_feasible_strict([[1], [-1]], [-1, 0], [False, False]) is None


def test_strict_lp_drives_an_artificial_out_with_a_negative_pivot():
    # {x <= 2, -x <= -2, x >= 0} is the point 2: Phase I leaves the
    # artificial of the flipped row basic at level 0, and the pivot that
    # drives it out is negative; without negating the tableau to keep its
    # denominator positive, Phase II meets an unbounded column
    assert lp_feasible_strict([[1], [-1]], [2, -2], [False, False]) == [2]


@pytest.mark.parametrize("values", [{}, "", "12", b"\x01", {1: 2}])
def test_json_ints_refuses_a_string_bytes_or_mapping(values):
    # iterating one would read characters, bytes or keys as the entries:
    # {} and "" were read as the empty list, b"\x01" as [1]
    with pytest.raises(ValueError, match="log ray values must come as a list"):
        json_ints(values, "log ray")
