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

So every weight's complex is a subcomplex of one ambient complex per form
degree p (``_Engine.ambient``, built on first use): one term per wedge, a
cone tau and a dual-basis index set I of tau's completion.  Each wedge
carries a bitmask of tau's rays, a bitmask of its blockable rays (the rays
of I that lie in tau), and its nonzero images under the facet restrictions,
signed minors of the change of dual basis.  A weight's margin pattern is a
DEAD mask (c <= -1) and a RESTRICTED mask (c = 0 on a ray whose condition
reads c >= 1 there); a wedge spans sections iff its tau mask misses DEAD and
its blockable mask misses RESTRICTED.  ``_Engine.sections`` is that one
section rule, and a pattern's complex is the sparse slice of the ambient one
on the kept wedges.  An image of a kept wedge on a dropped one is an error,
and d o d = 0 is checked on every slice.

The complex at weight m depends only on the clipped margin pattern
(c < 0, c = 0, c >= 1) per ray, so each pattern's cohomology is computed
once.  The vertices of the margin-level hyperplane arrangement find every
realizable pattern; those with cohomology are bounded, hence the hulls of
their vertices.  Boundedness is read from the sign masks of the vertex
solvers' rows (``_Engine.pattern_bounded``), with no LP.  The patterns
partition the lattice weights, so the totals are h^k = sum over patterns
of count * h^k(pattern).  ``_Engine.slices`` is the one lattice walk: it
walks the coordinates of a pattern's closed polytope within the bounding
box of its vertices, tests each margin row at the last coordinate the row
reads, and yields each last coordinate's interval.  ``_Engine.count`` sums
the intervals' lengths, so no weight is listed for a total, and
``_Engine.weights`` lists their points for ``cech_cohomology``, which
reports each weight with cohomology.  The weight cap applies to the support
box of a listing, the bounding box of the vertices of every pattern it
lists, and for a total to the box of first r - 1 coordinates that a count
runs over.  ``_Engine.column`` is the one rule turning margins into fine ray
states (c = 0 RESTRICTED, FREE for c >= 1), one ray's margins at a time, at
the arrangement vertices; a lattice weight's state is that of the fine
cell its walk lists it from.  A weight's pattern in form degree p with log
set D' is its fine pattern with RESTRICTED turned FREE on the rays of
``_Engine.merged`` (all for p = 0, D' for p >= 1), and ``_Engine.coarsen``
is the one rule that does so, for every caller.  A vertex puts the rays of
a nonsingular r-subset S on chosen levels.  Once per fan and per such S the
engine tabulates each ray's twist-free margins over every level choice; a
twist moves all of them by one offset per ray, so each solver keeps, per
ray, one table from that offset to the ray's states over every choice,
filled by ``column`` on first use and shared by every form degree and log
set.  A pass reads one column per ray and zips the columns into each
vertex's pattern.  Only the vertices of patterns with cohomology are solved
for their coordinates, from the adjugate and |det| of S's ray matrix.

There is one pass shape, with no ray merged.  The counted totals read one
pass per twist class (``_Engine.cells``): it counts each fine cell that
some coarsening gives cohomology (``_Engine.useful``), and the one cached
lookup ``_log_dims`` (read through ``_Engine.dims`` by every entry point
and check below) sums count * h^k(coarsened cell) for any p and D'.  The
twist is taken modulo principal divisors, so linearly equivalent twists
share the pass; ``cech_cohomology`` reads the pass at its own twist,
hulls each fine pattern whose coarsening has cohomology and lists its
weights with the walk.  An automorphism of
the fan induces one of X carrying D_rho to D_pi(rho)
(``fan.automorphisms``), and with it the complex and the region of weights
of a margin pattern onto those of the moved pattern.  So a twist class's
cells answer every image of it, and a pattern's cohomology and usefulness
every image of the pattern: one pass, one complex and one usefulness test
per orbit under the fan's automorphism group.  The one rule
``_Engine.orbit`` lists the distinct images, each moved once by the per-fan
table ``fan.movers``, and the pattern caches store each result once per
image.  Within a pass, an automorphism that fixes the twist class (its
stabilizer) carries each cell onto a cell of the same pass whose region is
the moved one shifted by a lattice weight, so one cell per stabilizer orbit
is hulled and counted, and the pass's table is stored once per image class.

``verify_vanishing`` checks the theorem's vanishing with the hypothesis
witness it is given and solves no LP for one: the ``thm11`` sweep and the
CLI decide the hypothesis and pass their witness on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from operator import mul
from typing import Dict, Optional, Sequence

from .exactmath import ChainComplex, QMatrix, cohomology_dims, det, json_ints
from .divisors import (
    InvariantDivisor,
    class_representative,
    ray_divisor,
    rayset_divisor,
    require_witness,
    restrict_to_stratum,
    sorted_logset,
    zero_divisor,
)
from .fan import (Fan, _dual_pairings, _scaled_dual_basis, movers, require_smooth_complete,
                  stratum_fan)


class UnboundedCohomologyChamber(RuntimeError):
    """A nonzero-cohomology margin pattern sits on an unbounded chamber;
    this signals a non-complete fan or an internal error."""


class HypothesisNotVerified(RuntimeError):
    """verify_vanishing was called with neither a hypothesis witness nor
    ``unchecked``; it solves no LP to find a witness."""


class ChartConditionFails(ValueError):
    """No maximal cone whose complement rays all carry log poles."""


class WeightBoxTooLarge(ValueError):
    """The support box of ``cech_cohomology``, the bounding box of the
    cells it lists, holds more weights than one call enumerates.  The total
    dims count weights instead, and meet this cap only on the box of first
    r - 1 coordinates that a pattern's count runs over."""


# Per-ray states of a weight, derived from the clipped margin pattern.
DEAD, RESTRICTED, FREE = 0, 1, 2

# Most lattice weights one listing's support box, or one count's box of prefixes, may hold.
_MAX_BOX_WEIGHTS = 5_000_000


def _require_box_size(bounds) -> None:
    """WeightBoxTooLarge if the box of (lo, hi) pairs holds more than
    _MAX_BOX_WEIGHTS lattice weights."""
    if prod(max(0, hi - lo + 1) for lo, hi in bounds) > _MAX_BOX_WEIGHTS:
        raise WeightBoxTooLarge(f"box {bounds} holds more than {_MAX_BOX_WEIGHTS} weights")


@dataclass(frozen=True)
class LogFormSheafSpec:
    """(p, logset, twist) describing Omega^p(log D') (x) O(T).

    p, the log-set entries and the twist entries must be ints (not bools or
    floats); anything else is a ValueError rather than a truncated number.
    """

    p: int
    logset: frozenset
    twist: tuple

    def __post_init__(self):
        json_ints([self.p], "form degree")
        object.__setattr__(self, "logset", frozenset(json_ints(self.logset, "log ray")))
        object.__setattr__(self, "twist", json_ints(self.twist, "twist entry"))
        if self.p < 0:
            raise ValueError("form degree must be nonnegative")


def sheaf_spec(p: int, logset: Sequence[int], twist) -> LogFormSheafSpec:
    coeffs = twist.coeffs if isinstance(twist, InvariantDivisor) else twist
    return LogFormSheafSpec(p, logset, coeffs)


def euler_characteristic(dims: Sequence[int]) -> int:
    return sum((-1) ** k * v for k, v in enumerate(dims))


def _total(r: int, dims_list) -> tuple:
    """Entrywise sum of h^0..h^r tuples ((0,) * (r + 1) for none); ValueError
    if one has another length."""
    return tuple(map(sum, zip((0,) * (r + 1), *dims_list, strict=True)))


@dataclass(frozen=True)
class CohomologyResult:
    """Dimensions h^0..h^r with per-weight support."""

    dims: tuple
    weight_support: dict
    euler: int

    def __post_init__(self):
        if _total(len(self.dims) - 1, self.weight_support.values()) != tuple(self.dims):
            raise ValueError("dims do not match weight support")
        if self.euler != euler_characteristic(self.dims):
            raise ValueError("euler characteristic mismatch")


class _Engine:
    """Per-fan caches: the cone poset with facet incidences, the vertex
    solvers of the level arrangement with the sign masks of their rows
    (``edges``) and, per solver and ray, the table of fine state columns per
    twist offset that ``chamber_patterns`` fills on first use, the ambient
    complex per form degree, the cohomology per (p, pattern) and the
    usefulness per fine pattern (``useful``), each stored once per distinct
    image under the fan's automorphisms
    (``orbit``), the counted fine cells per twist class (``cells``), counted
    once per orbit of the class's stabilizer and stored once per image
    class, and the total dims per (degrees, flags, twist class).
    Boundedness reads ``edges`` and solves no LP.  ``_engine.cache_clear()``
    drops the engine, tables and all.

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
        # Per nonsingular r-subset S of rays, a solver (S, |det S|, rays,
        # vertices).  Per ray j, the triple (pairing, zero, table): the margins
        # <row_k, u_j> over k in S, where row_k is a row of
        # fan._scaled_dual_basis(S) (|det S| times the inverse ray matrix);
        # |det S| times the ray's margins at twist 0 over every level choice,
        # sum_k level_k <row_k, u_j>; and the table that ``chamber_patterns``
        # fills, {twist offset: the ray's states over every level choice}.
        # Per level choice in {-1, 0, 1}^S, its vertex ((S, |det S|, rows as
        # columns), levels), solved by ``point``.
        # Row k is orthogonal to the r - 1 rays of S other than k; ``edges``
        # holds, per row and in both orientations, the ray masks (pos, neg)
        # where its pairing is > 0 and where it is < 0.
        self.solvers = []
        edges = set()
        for subset in itertools.combinations(range(self.n), self.r):
            scale, rows = _scaled_dual_basis(fan, subset)
            if scale:
                values = [tuple(sum(map(mul, row, ray)) for ray in fan.rays) for row in rows]
                for vals in values:
                    pos = sum(1 << j for j, x in enumerate(vals) if x > 0)
                    neg = sum(1 << j for j, x in enumerate(vals) if x < 0)
                    edges.update(((pos, neg), (neg, pos)))
                all_levels = tuple(itertools.product((-1, 0, 1), repeat=self.r))
                rays = tuple(
                    (pairing, tuple(sum(map(mul, levels, pairing)) for levels in all_levels), {})
                    for pairing in zip(*values))
                solver = (subset, scale, tuple(zip(*rows)))
                self.solvers.append((subset, scale, rays,
                                     tuple((solver, levels) for levels in all_levels)))
        self.edges = tuple(sorted(edges))
        self._ambient: dict = {}
        self._state_coh: dict = {}
        self._useful: dict = {}
        self._cells: dict = {}
        self._dims: dict = {}

    def ambient(self, p: int) -> list:
        """The ambient complex of form degree p, built on first use: per
        level, per wedge (tau, I), the triple (tau mask, blockable mask,
        images).

        The wedges of a level run over its cones tau in order and, within
        each, over the position sets I in ``itertools.combinations(range(r),
        p)`` of tau's completion sigma: wedge I is the dual-basis section
        wedge_{i in I} u*_{sigma[i]}.  The tau mask has a bit per ray of tau;
        the blockable mask one per ray sigma[i], i in I, that lies in tau;
        the images list (wedge index in the next level, nonzero value) of
        the restriction to each facet of tau, signed minors of the change
        from sigma's dual basis to the facet's completion's.
        """
        table = self._ambient.get(p)
        if table is not None:
            return table
        full = tuple(itertools.combinations(range(self.r), p))
        minors: dict = {}   # (a, b) -> the p-th compound of the change of basis
        table = []
        for i, level in enumerate(self.levels):
            wedges = []
            for tau, comp_a, facets in level:
                cone = self.fan.max_cones[comp_a]
                tau_mask = sum(1 << ray for ray in tau)
                pairings = _dual_pairings(self.fan, comp_a)
                for ii, I in enumerate(full):
                    images = []
                    for d_idx, sign in facets:
                        comp_b = self.levels[i + 1][d_idx][1]
                        if (comp_a, comp_b) not in minors:
                            cone_b = self.fan.max_cones[comp_b]
                            minors[comp_a, comp_b] = [
                                [det([[pairings[a][cone_b[b]] for b in J] for a in K])
                                 for J in full]
                                for K in full]
                        images += [(d_idx * len(full) + jj, sign * val)
                                   for jj, val in enumerate(minors[comp_a, comp_b][ii]) if val]
                    blockable = sum(1 << cone[pos] for pos in I if cone[pos] in tau)
                    wedges.append((tau_mask, blockable, tuple(images)))
            table.append(wedges)
        self._ambient[p] = table
        return table

    def sections(self, p: int, states: tuple) -> list:
        """The one section rule: per level of ``ambient(p)``, {wedge index:
        basis index} of the wedges spanning the sections at the margin
        pattern ``states``.  A wedge is kept iff its cone has no DEAD ray
        and no blockable ray of it is RESTRICTED."""
        dead = sum(1 << ray for ray, st in enumerate(states) if st == DEAD)
        restricted = sum(1 << ray for ray, st in enumerate(states) if st == RESTRICTED)
        out = []
        for wedges in self.ambient(p):
            kept = [w for w, (tau_mask, blockable, _) in enumerate(wedges)
                    if not (tau_mask & dead or blockable & restricted)]
            out.append(dict(zip(kept, range(len(kept)))))
        return out

    def orbit(self, per_ray: tuple) -> set:
        """The one orbit rule of the caches: the distinct images of the
        per-ray tuple under the fan's automorphisms, read from the table
        ``fan.movers``, the given tuple itself included.

        Moving v to v o pi is the action of pi^-1, which carries D_rho to
        D_pi^-1(rho).  A sheaf, a weight's complex and its region of weights
        are carried onto those of the image, so a result computed for the
        tuple holds for each of them.
        """
        return {move(per_ray) for move in movers(self.fan)}

    def state_cohomology(self, p: int, states: tuple) -> tuple:
        """h^0..h^r at one margin pattern, from the cone-poset complex
        sliced out of ``ambient(p)``; one complex per orbit of patterns."""
        cached = self._state_coh.get((p, states))
        if cached is not None:
            return cached
        table = self.ambient(p)
        kept = self.sections(p, states)
        diffs = []
        for i in range(self.r):
            rows_ = [[] for _ in kept[i + 1]]
            wedges, targets = table[i], kept[i + 1]
            for w, col in kept[i].items():
                for t, val in wedges[w][2]:
                    jj = targets.get(t)
                    if jj is None:
                        raise AssertionError("inclusion image leaves the allowed section space")
                    rows_[jj].append((col, val))
            diffs.append(QMatrix(len(targets), len(kept[i]), tuple(map(tuple, rows_))))
        complex_ = ChainComplex(tuple(map(len, kept)), tuple(diffs))
        result = tuple(cohomology_dims(complex_))
        for moved in self.orbit(states):
            self._state_coh[(p, moved)] = result
        return result

    def merged(self, p: int, logset: frozenset) -> tuple:
        """Per ray: True where the levels 0 and 1 give the same state (p = 0,
        or the ray carries a log pole), so ``coarsen`` turns a zero margin
        FREE."""
        return tuple(p == 0 or i in logset for i in range(self.n))

    @staticmethod
    def column(nums, den: int) -> tuple:
        """The one state rule: per margin num/den (den > 0) of one ray at the
        arrangement vertices, its fine state, or None when the margin lies
        strictly between two levels.

        c <= -1 is DEAD, c = 0 is RESTRICTED and c >= 1 is FREE.  A form
        degree and log set read the fine states through ``coarsen``.
        """
        return tuple(DEAD if num <= -den else FREE if num >= den else
                     RESTRICTED if num == 0 else None for num in nums)

    @staticmethod
    def coarsen(merged, states: tuple) -> tuple:
        """The one coarsening rule: the fine ``states`` with RESTRICTED
        turned FREE on the rays flagged in ``merged``, where a zero margin
        blocks no section; ``states`` itself when no ray is flagged."""
        if not any(merged):
            return states
        return tuple(FREE if mg and st == RESTRICTED else st for mg, st in zip(merged, states))

    def pattern_bounded(self, states: tuple) -> bool:
        """Whether the weights with margin pattern ``states`` form a bounded
        region, read from the engine's table ``edges``; no LP runs.

        The region's recession cone is {v : <v, u> <= 0 on DEAD rays, = 0 on
        RESTRICTED ones, >= 0 on FREE ones}.  It is pointed, because the rays
        span, so it is nonzero iff it has an extreme ray, which lies on r - 1
        independent hyperplanes u^perp (Schrijver, Theory of Linear and
        Integer Programming, ch. 8).  Those r - 1 rays lie in a nonsingular
        r-subset S, so the extreme ray is +-row_k of S's solver for the ray k
        of S outside them, and whether it lies in the cone reads only its
        signs on the rays, which ``edges`` holds: some entry (pos, neg) has
        pos missing DEAD and neg missing FREE, and neither meeting
        RESTRICTED.
        """
        free = sum(1 << i for i, st in enumerate(states) if st == FREE)
        dead = sum(1 << i for i, st in enumerate(states) if st == DEAD)
        return all(pos & ~free or neg & ~dead for pos, neg in self.edges)

    def chamber_patterns(self, twist: tuple) -> Dict[tuple, list]:
        """Realizable fine margin patterns (see ``column``), each with the
        arrangement vertices whose pattern it is, as (solver, levels) (see
        ``point``).

        Every nonempty margin-pattern region of a complete fan is line-free
        (the rays span), hence has a vertex of the level arrangement; so
        collecting arrangement vertices discovers every realizable pattern.
        A vertex puts the rays of a solver's S on chosen levels:
        <m, u_j> = level_j - t_j for j in S.  Ray j's margin times |det S| is
        the choice's twist-free margin plus the twist's offset
        |det S| t_j - sum_{k in S} t_k <row_k, u_j>, one per solver and ray
        (0 on the rays of S), so the ray's states over every level choice are
        one column of the solver's table, read by ``column`` on first use of
        the offset, whatever the form degree and log set that read the pass.
        Zipping the solver's vertices with the rays' columns gives one tuple
        per choice, its vertex and then its pattern; a tuple holding a None
        (a ray between levels) is skipped.  With no rays the tuple is the
        vertex alone, so the point fan's one choice has the pattern ().  A
        vertex on more than r level hyperplanes is listed once per solver
        through it.
        """
        patterns: Dict[tuple, list] = {}
        for subset, den, rays, vertices in self.solvers:
            on_s = [twist[i] for i in subset]
            columns = []
            for t, (pairing, zero, table) in zip(twist, rays):
                offset = den * t - sum(map(mul, on_s, pairing))
                column = table.get(offset)
                if column is None:
                    column = table[offset] = self.column([x + offset for x in zero], den)
                columns.append(column)
            for item in zip(vertices, *columns):
                if None not in item:
                    patterns.setdefault(item[1:], []).append(item[0])
        return patterns

    @staticmethod
    def point(vertex: tuple, twist: tuple) -> tuple:
        """(nums, den) with m = nums/den, den = |det S| > 0, of a vertex
        (solver, levels) of ``chamber_patterns``: m = sum_k (level_k - t_k)
        row_k / |det S| over the rays k of S; not reduced by the gcd."""
        (subset, den, cols), levels = vertex
        rhs = [lv - twist[i] for lv, i in zip(levels, subset)]
        return tuple(sum(map(mul, rhs, col)) for col in cols), den

    def hull(self, states: tuple, verts: list, twist: tuple) -> list:
        """The vertices ``verts`` of a pattern with cohomology, solved as
        (nums, den).  Its region is bounded (else UnboundedCohomologyChamber),
        so it is their hull; no other vertex is solved."""
        if not self.pattern_bounded(states):
            raise UnboundedCohomologyChamber(
                "nonzero cohomology pattern on an unbounded chamber; "
                "the fan is not complete or the engine is inconsistent"
            )
        return [self.point(v, twist) for v in verts]

    def _integer_box(self, points) -> tuple:
        """Per coordinate, (lo, hi) of the lattice weights in the bounding box
        of the points (nums, den)."""
        return tuple((min(-(-nums[k] // den) for nums, den in points),
                      max(nums[k] // den for nums, den in points)) for k in range(self.r))

    def slices(self, twist: tuple, states: tuple, box: tuple):
        """The one lattice walk: each last-coordinate slice (prefix, lo, hi)
        of the lattice weights with the margin pattern ``states``, the
        weights prefix + (x,) for lo <= x <= hi.  They are the integer points
        of the pattern's closed polytope, c_j <= -1 on DEAD rays, c_j = 0 on
        RESTRICTED ones and c_j >= 1 on FREE ones, which is bounded and lies
        in ``box``, the integer box of its vertices (``_integer_box``).

        The first r - 1 coordinates are walked in order within the box.
        Each condition <row, m> >= bound is tested at the coordinate of its
        row's last nonzero entry, as an exact floor or ceiling on that
        coordinate given the partial sums of the ones before it, so a failed
        condition prunes the whole slice behind it, and the last
        coordinate's interval is yielded whole.  With no coordinate (the
        point fan) the one weight () is the slice ((), 0, 0), whose point
        ``weights`` cuts to length r.
        """
        # Condition c reads <rows[c], m> >= rests[c]; ``tested[k]`` lists
        # (c, rows[c][k]) for the rows whose last nonzero entry is at k.
        rows, rests = [], []
        tested = [[] for _ in range(self.r)]
        for ray, t, st in zip(self.fan.rays, twist, states):
            last = self.r - 1
            while not ray[last]:
                last -= 1
            if st != DEAD:
                tested[last].append((len(rows), ray[last]))
                rows.append(ray)
                rests.append((st == FREE) - t)
            if st != FREE:
                tested[last].append((len(rows), -ray[last]))
                rows.append(tuple(-x for x in ray))
                rests.append(t + (st == DEAD))

        def walk(k: int, prefix: tuple, rest: list):
            # slices with m[:k] = prefix; rest[c] is rests[c] minus the
            # partial sum of row c over the prefix
            if k == self.r:
                yield prefix, 0, 0
                return
            lo, hi = box[k]
            for c, a in tested[k]:
                if a > 0:
                    lo = max(lo, -(-rest[c] // a))
                else:
                    hi = min(hi, rest[c] // a)
            if k == self.r - 1:
                if lo <= hi:
                    yield prefix, lo, hi
                return
            for x in range(lo, hi + 1):
                yield from walk(k + 1, prefix + (x,),
                                [b - row[k] * x for b, row in zip(rest, rows)])

        return walk(0, (), rests)

    def count(self, twist: tuple, states: tuple, box: tuple) -> int:
        """Lattice weights with the margin pattern ``states`` in ``box``:
        the lengths of the ``slices`` summed, so the walk runs over the box
        of the first r - 1 coordinates, which ``cells`` holds to the weight
        cap, and no weight is listed."""
        return sum(hi - lo + 1 for _, lo, hi in self.slices(twist, states, box))

    def weights(self, twist: tuple, states: tuple, box: tuple):
        """The lattice weights with the margin pattern ``states`` in ``box``,
        listed from the ``slices`` of the one walk."""
        for prefix, lo, hi in self.slices(twist, states, box):
            for x in range(lo, hi + 1):
                yield (prefix + (x,))[:self.r]

    def useful(self, states: tuple) -> bool:
        """Whether some coarsening of the fine pattern ``states`` has
        cohomology: RESTRICTED turned FREE on every ray for p = 0, on any
        subset of those rays for p >= 1.  Stored once per image (``orbit``),
        so it is tested once per orbit of patterns."""
        cached = self._useful.get(states)
        if cached is None:
            # the last coarsening turns every RESTRICTED ray FREE, as p = 0 reads it
            coarse = [self.coarsen(merged, states) for merged in itertools.product(
                *((False, True) if st == RESTRICTED else (False,) for st in states))]
            cached = any(self.state_cohomology(0, coarse[-1])) or any(
                any(self.state_cohomology(p, c)) for c in coarse for p in range(1, self.r + 1))
            for moved in self.orbit(states):
                self._useful[moved] = cached
        return cached

    def cells(self, twist: tuple) -> tuple:
        """(fine pattern, lattice count) of each ``useful`` cell of one pass
        with no ray merged, at a class representative twist.  Such a cell
        lies in a coarsened pattern's bounded region (``hull``); cells with
        no weight are dropped.

        One loop over ``fan.movers`` finds the stabilizer of the twist
        class (the movers whose image class is the twist itself) and one
        mover per other image class.  A stabilizer element carries the
        region of a cell onto that of the moved cell, shifted by a lattice
        weight, so only one cell per stabilizer orbit is hulled and counted,
        and its images share the count.  Every counted cell's box of first
        r - 1 coordinates is held to the weight cap before the first count,
        so a twist too large to count is WeightBoxTooLarge at once.  The
        table is stored once per image class, moved by that class's mover.
        """
        cached = self._cells.get(twist)
        if cached is not None:
            return cached
        stabilizer, image_movers = [], {}
        for move in movers(self.fan):
            image = class_representative(self.fan, move(twist))
            if image == twist:
                stabilizer.append(move)
            else:
                image_movers.setdefault(image, move)
        if not stabilizer:
            raise ValueError(f"twist {twist} is not a class representative")
        kept, seen = [], set()
        for states, verts in self.chamber_patterns(twist).items():
            if states in seen:
                continue
            images = {move(states) for move in stabilizer}
            seen |= images
            if self.useful(states):
                box = self._integer_box(self.hull(states, verts, twist))
                _require_box_size(box[:-1])
                kept.append((states, box, images))
        table = tuple((image, weights) for states, box, images in kept
                      if (weights := self.count(twist, states, box)) for image in images)
        self._cells[twist] = table
        for image, move in image_movers.items():
            self._cells[image] = tuple((move(states), weights) for states, weights in table)
        return table

    def dims(self, degrees: tuple, merged: tuple, twist: tuple) -> tuple:
        """h^0..h^r for each form degree in ``degrees``, all with the ray
        flags ``merged``, at a class representative twist: each of the
        twist's ``cells`` adds its count times the cohomology of its pattern
        coarsened on the merged rays, and no weight is listed.
        """
        key = (degrees, merged, twist)
        cached = self._dims.get(key)
        if cached is None:
            coarse = [(weights, self.coarsen(merged, states))
                      for states, weights in self.cells(twist)]
            cached = self._dims[key] = tuple(
                _total(self.r, ([weights * h for h in self.state_cohomology(p, states)]
                                for weights, states in coarse))
                for p in degrees)
        return cached


@lru_cache(maxsize=None)
def _engine(f: Fan) -> _Engine:
    return _Engine(f)


def cech_cohomology(f: Fan, s: LogFormSheafSpec) -> CohomologyResult:
    """Total cohomology of the sheaf, weight by weight.

    Each fine pattern of the arrangement pass at the twist whose coarsening
    has cohomology in form degree p is hulled (``_Engine.hull``), and its
    lattice weights are listed by the one walk that also counts the totals
    (``_Engine.weights``), each with its coarsened pattern's cohomology.
    A support box, the integer box of all those vertices, of more than
    5,000,000 weights is WeightBoxTooLarge, raised before any weight is
    listed; the counted totals of ``log_spec_dims`` list no weight.
    """
    if len(s.twist) != f.n_rays:
        raise ValueError("twist length does not match the fan")
    sorted_logset(f, s.logset)
    eng = _engine(f)
    merged = eng.merged(s.p, s.logset)
    cells = [(states, h, eng.hull(states, verts, s.twist))
             for states, verts in eng.chamber_patterns(s.twist).items()
             if any(h := eng.state_cohomology(s.p, eng.coarsen(merged, states)))]
    if cells:
        _require_box_size(eng._integer_box([pt for *_, corners in cells for pt in corners]))
    support = {m: h for states, h, corners in cells
               for m in eng.weights(s.twist, states, eng._integer_box(corners))}
    dims = _total(f.dim, support.values())
    return CohomologyResult(dims, support, euler_characteristic(dims))


def _log_dims(f: Fan, ps: Sequence[int], dprime: frozenset, twist: tuple) -> tuple:
    """h^0..h^r of Omega^p(log D') (x) O(T) for each p >= 0 in ``ps``
    (zero for p > r), looked up by the twist's class.

    The twist is reduced to its class representative once, and each
    form-degree group that ``ps`` meets (p = 0 alone, and every p >= 1,
    which share their ray flags) is read with one ``_Engine.dims`` lookup.
    """
    eng = _engine(f)
    representative = class_representative(f, twist)
    dims = {}
    for degrees in ((0,), tuple(range(1, f.dim + 1))):
        if any(p in degrees for p in ps):
            dims.update(zip(degrees, eng.dims(degrees, eng.merged(degrees[0], dprime),
                                              representative)))
    zero = (0,) * (f.dim + 1)
    return tuple(dims.get(p, zero) for p in ps)


def line_bundle_cohomology(f: Fan, d: InvariantDivisor) -> tuple:
    """h^0..h^r of O(D) for an invariant divisor."""
    return _log_dims(f, (0,), frozenset(), d.coeffs)[0]


def log_spec_dims(f: Fan, p: int, dprime: Sequence[int], twist: InvariantDivisor) -> tuple:
    """h^0..h^r of Omega^p(log D') (x) O(T), looked up by the twist's class;
    p is checked as ``LogFormSheafSpec`` checks it (an int, not a bool or
    float, and nonnegative), else ValueError."""
    spec = sheaf_spec(p, dprime, twist)
    return _log_dims(f, (spec.p,), frozenset(sorted_logset(f, dprime)), spec.twist)[0]


@dataclass(frozen=True)
class VanishingReport:
    """Outcome of the direct vanishing check across all form degrees."""

    passed: bool
    violations: tuple          # (p, k, dim) with k >= 1 and dim != 0
    per_p: tuple               # per_p[p] = dims tuple h^0..h^r
    witness: Optional[tuple]

    @property
    def hypothesis_checked(self) -> bool:
        """Whether a hypothesis witness was checked: every path that has a
        witness checks it."""
        return self.witness is not None


def verify_vanishing(
    f: Fan,
    dprime: Sequence[int],
    l: InvariantDivisor,
    witness: Optional[Sequence] = None,
    unchecked: bool = False,
) -> VanishingReport:
    """Check h^k(Omega^p(log D')(-D') (x) L) = 0 for all p and k >= 1.

    Requires a hypothesis witness, which is checked and not searched for:
    the ``thm11`` sweep or the CLI decides the hypothesis and passes its
    witness on.  ``unchecked`` instead runs the engine as a negative
    control.  Each path checks D' once: the witness check or
    ``sorted_logset``.
    """
    require_smooth_complete(f)
    if witness is not None:
        require_witness(f, l, dprime, witness)
    elif unchecked:
        sorted_logset(f, dprime)
    else:
        raise HypothesisNotVerified(
            "no hypothesis witness; pass unchecked=True for a negative control")
    dprime = frozenset(dprime)
    twist = l - rayset_divisor(f, dprime)
    per_p = _log_dims(f, range(f.dim + 1), dprime, twist.coeffs)
    violations = tuple((p, k, dims[k]) for p, dims in enumerate(per_p)
                       for k in range(1, len(dims)) if dims[k] != 0)
    return VanishingReport(
        not violations,
        violations,
        per_p,
        tuple(witness) if witness is not None else None,
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
    dset = frozenset(sorted_logset(f, dprime))
    all_rays = set(range(f.n_rays))
    candidates = [c for c in f.max_cones if (all_rays - set(c)) <= dset]
    if not candidates:
        raise ChartConditionFails("no chart contains the complement of D'")
    s_values = {len(dset & set(c)) for c in candidates}
    if len(s_values) != 1:
        raise AssertionError("chart count s should not depend on the chart")
    s = s_values.pop()
    r = f.dim
    table = _log_dims(f, range(r + 1), dset, zero_divisor(f).coeffs)
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
    dprime = sorted_logset(f, dprime)
    if h in dprime:
        raise ValueError("h must not already carry a log pole")
    mid_twist = l - rayset_divisor(f, dprime)
    sub_twist = mid_twist - ray_divisor(f, h)
    sp = stratum_fan(f, (h,))
    twist_h = restrict_to_stratum(f, mid_twist, (h,))
    ps = range(f.dim + 1)
    mids = _log_dims(f, ps, frozenset(dprime), mid_twist.coeffs)
    subs = _log_dims(f, ps, frozenset(dprime + (h,)), sub_twist.coeffs)
    quots = _log_dims(sp.fan, ps, frozenset(sp.restrict_logset(dprime)), twist_h.coeffs)
    rows = []
    ok = True
    for p, mid, sub, quot in zip(ps, mids, subs, quots):
        chi_mid, chi_sub, chi_quot = map(euler_characteristic, (mid, sub, quot))
        rows.append((p, chi_mid, chi_sub, chi_quot))
        if chi_mid != chi_sub + chi_quot:
            ok = False
    return EulerAdditivityReport(ok, tuple(rows))
