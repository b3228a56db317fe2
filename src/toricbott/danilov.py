"""Cohomology of twisted log differential forms on smooth complete toric varieties.

The engine computes H^k(X, Omega^p_X(log D') (x) O(T)) for any ray subset D'
and integral invariant twist T, one torus weight at a time.  At a weight m
the cohomology is that of the complex on the cone poset of the fan,

    C^i = sum over cones tau with dim tau = r - i of the sections over U_tau,

whose differential restricts each cone's sections to each of its facets,
tau without one ray rho, with the simplicial incidence sign
(-1)^(position of rho in sorted tau).
The cones of a complete simplicial fan triangulate the sphere, so this
complex computes the same cohomology as the Cech complex of the
maximal-cone cover with one term per cone instead of one per subset of
maximal cones (Eisenbud-Mustata-Stillman, Cohomology on toric varieties
and local cohomology with monomial supports, J. Symbolic Comput. 2000;
Cox-Little-Schenck, Toric Varieties, ch. 9).

The key structural fact making this tractable: the log forms along the full
boundary trivialize, so over any chart the weight-m section space embeds
into the constant vector space wedge^p M_Q.  In the dual basis of a maximal
cone sigma containing the chart's cone tau, the space is spanned by exactly
the basis wedges I contained in sigma's rays with

    c_rho >= 1  for rho in tau(1) with rho in I and rho not in D',
    c_rho >= 0  for every other rho in tau(1),

where c_rho = <m, u_rho> + t_rho is the weight's margin along rho.  These
per-ray conditions are not taken on faith: the suite cross-checks them
against line-bundle cohomology, trivial-bundle reduction, Serre duality and
the A^1 model (t^m dlog t regular iff m >= 1).

The complex at weight m depends only on the clipped margin pattern
(c < 0, c = 0, c >= 1) per ray, so weights are enumerated by chambers of the
margin-level hyperplane arrangement and each pattern's cohomology is
computed once.  A brute-force bounding-box mode exists for cross-validation.

The cached dimension lookups (``line_bundle_cohomology``, ``log_spec_dims``)
key on the class of the twist modulo principal divisors, so linearly
equivalent twists share one chamber enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, floor, gcd
from typing import Dict, Optional, Sequence

from .exactmath import ChainComplex, QMatrix, cohomology_dims, polyhedron_bounded
from .divisors import (
    InvariantDivisor,
    hypothesis_feasible,
    ray_divisor,
    rayset_divisor,
    require_witness,
    restrict_to_stratum,
    zero_divisor,
)
from .fan import Fan, NotACone, _dual_basis, is_cone, require_smooth_complete, stratum_fan


class UnboundedCohomologyChamber(RuntimeError):
    """A nonzero-cohomology margin pattern sits on an unbounded chamber;
    this signals a non-complete fan or an internal error."""


class HypothesisNotVerified(RuntimeError):
    """verify_vanishing was called without a hypothesis witness."""


class ChartConditionFails(ValueError):
    """No maximal cone whose complement rays all carry log poles."""


# Per-ray states of a weight, derived from the clipped margin pattern.
DEAD, RESTRICTED, FREE = 0, 1, 2


@dataclass(frozen=True)
class LogFormSheafSpec:
    """(p, logset, twist) describing Omega^p(log D') (x) O(T)."""

    p: int
    logset: frozenset
    twist: tuple

    def __post_init__(self):
        object.__setattr__(self, "logset", frozenset(int(i) for i in self.logset))
        object.__setattr__(self, "twist", tuple(int(t) for t in self.twist))
        if self.p < 0:
            raise ValueError("form degree must be nonnegative")


def sheaf_spec(p: int, logset: Sequence[int], twist) -> LogFormSheafSpec:
    coeffs = twist.coeffs if isinstance(twist, InvariantDivisor) else tuple(twist)
    if any(not isinstance(c, int) for c in coeffs):
        raise ValueError("twist must be integral")
    return LogFormSheafSpec(int(p), frozenset(logset), tuple(coeffs))


@dataclass(frozen=True)
class WeightConditions:
    """A weight together with its per-ray margins c_rho = <m, u_rho> + t_rho."""

    weight: tuple
    margins: tuple


def weight_conditions(f: Fan, twist: Sequence[int], m: Sequence[int]) -> WeightConditions:
    m = tuple(int(x) for x in m)
    margins = tuple(
        sum(mk * uk for mk, uk in zip(m, ray)) + t for ray, t in zip(f.rays, twist)
    )
    return WeightConditions(m, margins)


@dataclass(frozen=True)
class SectionBasis:
    """Weight-m section space as a subspace of wedge^p M_Q.

    ``allowed`` lists the admissible dual-basis index sets (by ray index of
    the completing cone); ``vectors`` are their coordinates in the standard
    basis of wedge^p M_Q, ordered by ``wedge_index_sets``.
    """

    completion: tuple
    allowed: tuple
    vectors: tuple

    @property
    def dim(self) -> int:
        return len(self.allowed)


def _euler(dims: Sequence[int]) -> int:
    return sum((-1) ** k * v for k, v in enumerate(dims))


@dataclass(frozen=True)
class CohomologyResult:
    """Dimensions h^0..h^r with per-weight support."""

    dims: tuple
    weight_support: dict
    euler: int

    def __post_init__(self):
        sums = [0] * len(self.dims)
        for wdims in self.weight_support.values():
            for k, v in enumerate(wdims):
                sums[k] += v
        if tuple(sums) != tuple(self.dims):
            raise ValueError("dims do not match weight support")
        if self.euler != _euler(self.dims):
            raise ValueError("euler characteristic mismatch")


def _result_from_support(r: int, support: Dict[tuple, tuple]) -> CohomologyResult:
    dims = [0] * (r + 1)
    for wdims in support.values():
        for k, v in enumerate(wdims):
            dims[k] += v
    return CohomologyResult(tuple(dims), support, _euler(dims))


def _det_int(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows[0]
        d, e, f_ = rows[1]
        g, h, i = rows[2]
        return a * (e * i - f_ * h) - b * (d * i - f_ * g) + c * (d * h - e * g)
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det_int(minor)
    return total


class _Engine:
    """Per-fan caches: the cone poset with facet incidences, dual bases,
    wedge minors, pattern cohomology.

    ``levels[i]`` lists the cones of dimension r - i as (tau, completion,
    facets): ``completion`` is the lowest-index maximal cone containing tau,
    whose dual basis expresses the sections over tau, and ``facets`` pairs
    each facet's index in ``levels[i + 1]`` with its incidence sign.
    """

    def __init__(self, fan: Fan):
        require_smooth_complete(fan)
        self.fan = fan
        self.r = fan.dim
        self.n = fan.n_rays
        cones = fan.max_cones
        self.duals = [_dual_basis(fan, c) for c in cones]
        raysets = [frozenset(c) for c in cones]
        by_dim = [sorted({tau for c in cones for tau in itertools.combinations(c, k)})
                  for k in range(self.r + 1)]
        self.completion = {
            tau: next(ci for ci, rs in enumerate(raysets) if rs.issuperset(tau))
            for level in by_dim for tau in level
        }
        position = {tau: idx for level in by_dim for idx, tau in enumerate(level)}
        self.levels = [
            [(tau, self.completion[tau],
              tuple((position[tau[:t] + tau[t + 1:]], -1 if t % 2 else 1)
                    for t in range(len(tau))))
             for tau in level]
            for level in reversed(by_dim)
        ]
        self._minors: dict = {}
        self._state_coh: dict = {}
        self._bounded: dict = {}
        self._kmat: dict = {}

    def _change(self, a: int, b: int):
        key = (a, b)
        if key not in self._kmat:
            cone_b = self.fan.max_cones[b]
            self._kmat[key] = [
                [sum(mi[k] * self.fan.rays[rb][k] for k in range(self.r)) for rb in cone_b]
                for mi in self.duals[a]
            ]
        return self._kmat[key]

    def _minor(self, a: int, b: int, i_pos: tuple, j_pos: tuple) -> int:
        key = (a, b, i_pos, j_pos)
        if key not in self._minors:
            kmat = self._change(a, b)
            sub = [[kmat[i][j] for j in j_pos] for i in i_pos]
            self._minors[key] = _det_int(sub)
        return self._minors[key]

    def _allowed(self, p: int, tau: tuple, comp: int, states: tuple):
        if any(states[ray] == DEAD for ray in tau):
            return ()
        cone = self.fan.max_cones[comp]
        blocked = [pos for pos, ray in enumerate(cone) if ray in tau and states[ray] == RESTRICTED]
        if not blocked:
            return tuple(itertools.combinations(range(self.r), p))
        blocked_set = set(blocked)
        return tuple(
            I for I in itertools.combinations(range(self.r), p) if not blocked_set & set(I)
        )

    def state_cohomology(self, p: int, states: tuple) -> tuple:
        """h^0..h^r at one margin pattern, from the cone-poset complex."""
        key = (p, states)
        cached = self._state_coh.get(key)
        if cached is not None:
            return cached
        r = self.r
        if p > r:
            result = (0,) * (r + 1)
            self._state_coh[key] = result
            return result
        allowed = [[self._allowed(p, tau, comp, states) for tau, comp, _ in level]
                   for level in self.levels]
        offsets = [list(itertools.accumulate((len(a) for a in lev), initial=0))
                   for lev in allowed]
        level_dims = [offs[-1] for offs in offsets]
        diffs = []
        full = tuple(itertools.combinations(range(r), p))
        for i in range(r):
            rows_ = [[0] * level_dims[i] for _ in range(level_dims[i + 1])]
            dst_index = [{J: jj for jj, J in enumerate(b)} for b in allowed[i + 1]]
            for s_idx, (_tau, comp_a, facets) in enumerate(self.levels[i]):
                allowed_a = allowed[i][s_idx]
                if not allowed_a:
                    continue
                base_col = offsets[i][s_idx]
                for d_idx, sign in facets:
                    allowed_b_index = dst_index[d_idx]
                    if not allowed_b_index:
                        raise AssertionError("section space shrank along an inclusion")
                    comp_b = self.levels[i + 1][d_idx][1]
                    row_off = offsets[i + 1][d_idx]
                    for ii, I in enumerate(allowed_a):
                        for J in full:
                            val = self._minor(comp_a, comp_b, I, J)
                            if val == 0:
                                continue
                            jj = allowed_b_index.get(J)
                            if jj is None:
                                raise AssertionError(
                                    "inclusion image leaves the allowed section space"
                                )
                            rows_[row_off + jj][base_col + ii] += sign * val
            diffs.append(
                QMatrix(level_dims[i + 1], level_dims[i], tuple(tuple(row) for row in rows_))
            )
        complex_ = ChainComplex(tuple(level_dims), tuple(diffs))
        h = cohomology_dims(complex_)
        for k in range(r + 1, len(h)):
            if h[k] != 0:
                raise AssertionError(f"nonzero cohomology in degree {k} > dim")
        result = tuple(h)
        self._state_coh[key] = result
        return result

    def margins(self, twist: tuple, m: tuple) -> tuple:
        return tuple(
            sum(mk * uk for mk, uk in zip(m, ray)) + t
            for ray, t in zip(self.fan.rays, twist)
        )

    def states_from_margins(self, p: int, logset: frozenset, margins: tuple) -> tuple:
        out = []
        for i, c in enumerate(margins):
            if c < 0:
                out.append(DEAD)
            elif c == 0:
                out.append(FREE if (p == 0 or i in logset) else RESTRICTED)
            else:
                out.append(FREE)
        return tuple(out)

    def pattern_bounded(self, states: tuple) -> bool:
        key = states
        cached = self._bounded.get(key)
        if cached is not None:
            return cached
        rows = []
        for i, st in enumerate(states):
            ray = list(self.fan.rays[i])
            if st == DEAD:
                rows.append(ray)
            elif st == RESTRICTED:
                rows.append(ray)
                rows.append([-x for x in ray])
            else:
                rows.append([-x for x in ray])
        result = polyhedron_bounded(QMatrix.from_rows(rows), [0] * len(rows))
        self._bounded[key] = result
        return result

    def chamber_run(self, spec: LogFormSheafSpec):
        """Enumerate contributing weights chamber by chamber.

        Every nonempty margin-pattern region of a complete fan is line-free
        (the rays span), hence has a vertex of the level arrangement; so
        collecting arrangement vertices discovers every realizable pattern.
        """
        p, logset, twist = spec.p, spec.logset, spec.twist
        r = self.r
        if r == 0:
            dims = self.state_cohomology(p, ())
            support = {(): dims} if any(dims) else {}
            return support, (() if support else None)
        hyperplanes = []
        for i in range(self.n):
            merged = p == 0 or i in logset
            levels = (-1, 0) if merged else (-1, 0, 1)
            for lv in levels:
                hyperplanes.append((i, lv - twist[i]))
        vertices = set()
        for combo in itertools.combinations(hyperplanes, r):
            rows = [list(self.fan.rays[i]) for i, _ in combo]
            rhs = [val for _, val in combo]
            d = _det_int(rows)
            if d == 0:
                continue
            nums = []
            for col in range(r):
                rep = [row[:col] + [b] + row[col + 1:] for row, b in zip(rows, rhs)]
                nums.append(_det_int(rep))
            if d < 0:
                d = -d
                nums = [-x for x in nums]
            g = d
            for x in nums:
                g = gcd(g, abs(x))
            vertices.add((tuple(x // g for x in nums), d // g))
        patterns: Dict[tuple, list] = {}
        for nums, den in vertices:
            states = []
            ok = True
            for i in range(self.n):
                ray = self.fan.rays[i]
                s = sum(nk * uk for nk, uk in zip(nums, ray)) + den * twist[i]
                merged = p == 0 or i in logset
                if s <= -den:
                    states.append(DEAD)
                elif merged and s >= 0:
                    states.append(FREE)
                elif not merged and s == 0:
                    states.append(RESTRICTED)
                elif not merged and s >= den:
                    states.append(FREE)
                else:
                    ok = False
                    break
            if ok:
                patterns.setdefault(tuple(states), []).append((nums, den))
        support: Dict[tuple, tuple] = {}
        box_union = None
        for states, verts in patterns.items():
            dims = self.state_cohomology(p, states)
            if not any(dims):
                continue
            if not self.pattern_bounded(states):
                raise UnboundedCohomologyChamber(
                    "nonzero cohomology pattern on an unbounded chamber; "
                    "the fan is not complete or the engine is inconsistent"
                )
            los, his = [], []
            for coord in range(r):
                values = [Fraction(nums[coord], den) for nums, den in verts]
                los.append(ceil(min(values)))
                his.append(floor(max(values)))
            if box_union is None:
                box_union = [list(pair) for pair in zip(los, his)]
            else:
                for coord in range(r):
                    box_union[coord][0] = min(box_union[coord][0], los[coord])
                    box_union[coord][1] = max(box_union[coord][1], his[coord])
            volume = 1
            for lo, hi in zip(los, his):
                volume *= max(0, hi - lo + 1)
            if volume > 5_000_000:
                raise RuntimeError("chamber lattice box is unreasonably large")
            for m in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
                margins = self.margins(twist, m)
                if self.states_from_margins(p, logset, margins) == states:
                    support[m] = dims
        box = tuple(tuple(pair) for pair in box_union) if box_union is not None else None
        return support, box

    def box_run(self, spec: LogFormSheafSpec, bounds) -> Dict[tuple, tuple]:
        p, logset, twist = spec.p, spec.logset, spec.twist
        if self.r == 0:
            dims = self.state_cohomology(p, ())
            return {(): dims} if any(dims) else {}
        support: Dict[tuple, tuple] = {}
        for m in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)):
            margins = self.margins(twist, m)
            states = self.states_from_margins(p, logset, margins)
            dims = self.state_cohomology(p, states)
            if any(dims):
                support[m] = dims
        return support


@lru_cache(maxsize=None)
def _engine(f: Fan) -> _Engine:
    return _Engine(f)


def _check_spec(f: Fan, s: LogFormSheafSpec) -> None:
    if len(s.twist) != f.n_rays:
        raise ValueError("twist length does not match the fan")
    if not s.logset <= set(range(f.n_rays)):
        raise ValueError("logset contains invalid ray indices")


def weight_sections(f: Fan, s: LogFormSheafSpec, tau: Sequence[int], m: Sequence[int]) -> SectionBasis:
    """Section space of the sheaf at weight m over the chart of tau.

    The chart cone is completed to the lowest-index maximal cone sigma; the
    returned vectors express the admissible dual-basis wedges in the
    standard basis of wedge^p M_Q.
    """
    _check_spec(f, s)
    eng = _engine(f)
    tau = tuple(sorted(tau))
    if not is_cone(f, tau):
        raise NotACone(f"{tau} does not span a cone of the fan")
    comp = eng.completion[tau]
    margins = eng.margins(s.twist, tuple(int(x) for x in m))
    states = eng.states_from_margins(s.p, s.logset, margins)
    allowed_pos = eng._allowed(s.p, tau, comp, states)
    cone = f.max_cones[comp]
    duals = eng.duals[comp]
    full = tuple(itertools.combinations(range(f.dim), s.p))
    vectors = []
    for I in allowed_pos:
        rows = [duals[i] for i in I]
        vectors.append(tuple(_det_int([[rows[a][j] for j in J] for a in range(len(I))])
                             for J in full))
    allowed_rays = tuple(tuple(cone[i] for i in I) for I in allowed_pos)
    return SectionBasis(cone, allowed_rays, tuple(vectors))


def wedge_index_sets(r: int, p: int) -> tuple:
    """Ordering of the standard basis of wedge^p M_Q used by SectionBasis."""
    return tuple(itertools.combinations(range(r), p))


def cech_cohomology(
    f: Fan,
    s: LogFormSheafSpec,
    mode: str = "chamber",
    box: Optional[Sequence] = None,
) -> CohomologyResult:
    """Total cohomology of the sheaf, weight by weight.

    mode="chamber" enumerates realizable margin patterns from the level
    arrangement; mode="box" brute-forces all weights in the explicit
    per-coordinate integer box (required argument in that mode).
    """
    _check_spec(f, s)
    eng = _engine(f)
    if mode == "chamber":
        support, _ = eng.chamber_run(s)
    elif mode == "box":
        if box is None:
            raise ValueError("box mode requires explicit bounds")
        bounds = tuple((int(lo), int(hi)) for lo, hi in box)
        if len(bounds) != f.dim:
            raise ValueError("box must have one (lo, hi) pair per dimension")
        support = eng.box_run(s, bounds)
    else:
        raise ValueError(f"unknown weight enumeration mode {mode!r}")
    return _result_from_support(f.dim, support)


def chamber_support_box(f: Fan, s: LogFormSheafSpec) -> Optional[tuple]:
    """Bounding box of all nonzero-cohomology chambers (None if there are none).

    Any brute-force box containing this one is provably sufficient."""
    _check_spec(f, s)
    _, box = _engine(f).chamber_run(s)
    return box


def _class_representative(f: Fan, twist: tuple) -> tuple:
    """T - div(chi^m0), the twist's representative that vanishes on the rays
    of ``max_cones[0]``; m0 = sum of t_rho dual_rho over those rays.

    The margin of weight m under T is the margin of m + m0 under the
    representative, so both have the same dims at shifted weights.
    """
    if len(twist) != f.n_rays:
        raise ValueError("twist length does not match the fan")
    eng = _engine(f)
    duals = eng.duals[0]
    m0 = [sum(twist[ray] * duals[pos][k] for pos, ray in enumerate(f.max_cones[0]))
          for k in range(f.dim)]
    return eng.margins(twist, tuple(-x for x in m0))


@lru_cache(maxsize=None)
def _cech_dims(f: Fan, p: int, logset: frozenset, twist: tuple) -> tuple:
    """h^0..h^r for a class representative twist (see _class_representative)."""
    support, _ = _engine(f).chamber_run(LogFormSheafSpec(p, logset, twist))
    return _result_from_support(f.dim, support).dims


def line_bundle_cohomology(f: Fan, d: InvariantDivisor) -> tuple:
    """h^0..h^r of O(D) for an integral invariant divisor."""
    if not d.integral:
        raise ValueError("line bundle needs an integral divisor")
    return _cech_dims(f, 0, frozenset(), _class_representative(f, d.coeffs))


def log_spec_dims(f: Fan, p: int, dprime: Sequence[int], twist: InvariantDivisor) -> tuple:
    if not twist.integral:
        raise ValueError("twist must be integral")
    return _cech_dims(f, p, frozenset(dprime), _class_representative(f, twist.coeffs))


@dataclass(frozen=True)
class VanishingReport:
    """Outcome of the direct vanishing check across all form degrees."""

    passed: bool
    violations: tuple          # (p, k, dim) with k >= 1 and dim != 0
    per_p: tuple               # per_p[p] = dims tuple h^0..h^r
    witness: Optional[tuple]
    hypothesis_checked: bool


def verify_vanishing(
    f: Fan,
    dprime: Sequence[int],
    l: InvariantDivisor,
    witness: Optional[Sequence] = None,
    unchecked: bool = False,
) -> VanishingReport:
    """Check h^k(Omega^p(log D')(-D') (x) L) = 0 for all p and k >= 1.

    Requires a hypothesis witness (found via the LP if not supplied) unless
    ``unchecked`` is set, which runs the engine as a negative control.
    """
    require_smooth_complete(f)
    dprime = tuple(sorted(set(dprime)))
    if not l.integral:
        raise ValueError("l must be integral")
    checked = False
    if witness is None and not unchecked:
        witness = hypothesis_feasible(f, l, dprime)
        if witness is None:
            raise HypothesisNotVerified(
                "hypothesis LP is infeasible; pass unchecked=True for a negative control"
            )
        checked = True
    elif witness is not None:
        require_witness(f, l, dprime, witness)
        checked = True
    twist = l - rayset_divisor(f, dprime)
    per_p = []
    violations = []
    for p in range(f.dim + 1):
        dims = log_spec_dims(f, p, dprime, twist)
        per_p.append(dims)
        for k in range(1, len(dims)):
            if dims[k] != 0:
                violations.append((p, k, dims[k]))
    return VanishingReport(
        not violations,
        tuple(violations),
        tuple(per_p),
        tuple(witness) if witness is not None else None,
        checked,
    )


@dataclass(frozen=True)
class HodgeCountReport:
    passed: bool
    s: int
    sums: tuple
    expected: tuple
    higher_vanishing_ok: bool
    table: tuple               # table[p][q]


def hodge_count_check(f: Fan, dprime: Sequence[int]) -> HodgeCountReport:
    """Check sum_{p+q=k} h^q(Omega^p(log D')) = C(s, k) and h^{q>0} = 0.

    Requires the complement of D' to lie in one chart: some maximal cone
    sigma with (rays not in sigma) contained in D'; then s = |D' & sigma(1)|
    counts the removed coordinate hyperplanes of that chart.
    """
    require_smooth_complete(f)
    dset = frozenset(dprime)
    all_rays = set(range(f.n_rays))
    candidates = [c for c in f.max_cones if (all_rays - set(c)) <= dset]
    if not candidates:
        raise ChartConditionFails("no chart contains the complement of D'")
    s_values = {len(dset & set(c)) for c in candidates}
    if len(s_values) != 1:
        raise AssertionError("chart count s should not depend on the chart")
    s = s_values.pop()
    r = f.dim
    zero = zero_divisor(f)
    table = tuple(
        log_spec_dims(f, p, sorted(dset), zero) for p in range(r + 1)
    )
    higher_ok = all(table[p][q] == 0 for p in range(r + 1) for q in range(1, r + 1))
    sums = []
    expected = []
    for k in range(2 * r + 1):
        total = sum(
            table[p][k - p] for p in range(r + 1) if 0 <= k - p <= r
        )
        sums.append(total)
        expected.append(comb(s, k))
    passed = higher_ok and sums == expected
    return HodgeCountReport(passed, s, tuple(sums), tuple(expected), higher_ok, table)


@dataclass(frozen=True)
class EulerAdditivityReport:
    passed: bool
    per_p: tuple               # (p, chi_mid, chi_sub, chi_quotient)


def euler_additivity_check(
    f: Fan, dprime: Sequence[int], h: int, l: InvariantDivisor
) -> EulerAdditivityReport:
    """chi additivity across the residue sequence adding the component h.

    For each p, chi of Omega^p(log D')(-D') (x) L must equal the sum of the
    chis of the two outer terms, all three computed independently."""
    require_smooth_complete(f)
    dprime = tuple(sorted(set(dprime)))
    if not 0 <= h < f.n_rays:
        raise ValueError(f"ray index {h} out of range")
    if h in dprime:
        raise ValueError("h must not already carry a log pole")
    if not l.integral:
        raise ValueError("l must be integral")
    mid_twist = l - rayset_divisor(f, dprime)
    sub_twist = mid_twist - ray_divisor(f, h)
    sp = stratum_fan(f, (h,))
    adjacent = set(sp.adjacent)
    logset_h = tuple(sorted(sp.map_ray(i) for i in dprime if i in adjacent))
    twist_h = restrict_to_stratum(f, mid_twist, (h,))
    rows = []
    ok = True
    for p in range(f.dim + 1):
        chi_mid = _euler(log_spec_dims(f, p, dprime, mid_twist))
        chi_sub = _euler(log_spec_dims(f, p, dprime + (h,), sub_twist))
        chi_quot = _euler(log_spec_dims(sp.fan, p, logset_h, twist_h))
        rows.append((p, chi_mid, chi_sub, chi_quot))
        if chi_mid != chi_sub + chi_quot:
            ok = False
    return EulerAdditivityReport(ok, tuple(rows))
