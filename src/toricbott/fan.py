"""Combinatorial model of smooth complete toric varieties.

A fan is stored as primitive integer rays plus maximal cones given by ray
index sets.  Only simplicial full-dimensional maximal cones are
representable; together with the unit-determinant check this restricts the
package to smooth varieties, which is exactly the intended scope.

Fans are immutable values: blowups and strata return new fans.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import itemgetter, mul
from typing import Dict, Sequence

from .exactmath import det, json_ints, lp_feasible_strict


class FanError(ValueError):
    """Base class for fan-related failures."""


class MalformedInput(FanError):
    """Structurally invalid fan data (non-primitive rays, bad cone sizes...)."""


class NotACone(FanError):
    """The given ray set does not span a cone of the fan."""


class UnknownFamily(FanError):
    """Unknown builtin fan family."""


@dataclass(frozen=True)
class Fan:
    """Rays plus maximal cones in the cocharacter lattice Z^dim; hashed once,
    at construction, since every per-fan cache is keyed on the fan.

    The dimension, ray entries and cone indices must be ints (not bools or
    floats); anything else is MalformedInput rather than a truncated number.
    """

    dim: int
    rays: tuple
    max_cones: tuple

    def __post_init__(self):
        try:
            json_ints([self.dim], "fan dimension")
            object.__setattr__(self, "rays", tuple(json_ints(r, "ray entry") for r in self.rays))
            object.__setattr__(self, "max_cones", tuple(tuple(sorted(json_ints(c, "cone index")))
                                                        for c in self.max_cones))
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"bad fan data: {exc}") from exc
        object.__setattr__(self, "_hash", hash((self.dim, self.rays, self.max_cones)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_rays(self) -> int:
        return len(self.rays)


@dataclass(frozen=True)
class Wall:
    """A shared codimension-one face of two maximal cones.

    Indexes the torus-invariant curve C_tau; ``u_extra`` / ``u_extra_prime``
    are the ray indices completing tau inside sigma / sigma_prime.
    """

    tau: tuple
    sigma: int
    sigma_prime: int
    u_extra: int
    u_extra_prime: int


@dataclass(frozen=True)
class FanDiagnostics:
    smooth: bool
    complete: bool
    fan_axioms: bool
    reasons: tuple

    @property
    def ok(self) -> bool:
        return self.smooth and self.complete and self.fan_axioms


def _check_structure(f: Fan) -> None:
    if f.dim < 0:
        raise MalformedInput("negative dimension")
    seen = set()
    for ray in f.rays:
        if len(ray) != f.dim:
            raise MalformedInput(f"ray {ray} has wrong length")
        g = 0
        for x in ray:
            g = gcd(g, abs(x))
        if g != 1:
            raise MalformedInput(f"ray {ray} is not primitive")
        if ray in seen:
            raise MalformedInput(f"duplicate ray {ray}")
        seen.add(ray)
    if not f.max_cones:
        raise MalformedInput("fan has no maximal cones")
    used = set()
    cone_sets = set()
    for cone in f.max_cones:
        if len(cone) != f.dim:
            raise MalformedInput(f"maximal cone {cone} has size {len(cone)}, expected {f.dim}")
        if len(set(cone)) != len(cone):
            raise MalformedInput(f"repeated ray index in cone {cone}")
        for i in cone:
            if not 0 <= i < f.n_rays:
                raise MalformedInput(f"ray index {i} out of range")
        if cone in cone_sets:
            raise MalformedInput(f"duplicate maximal cone {cone}")
        cone_sets.add(cone)
        used.update(cone)
    if used != set(range(f.n_rays)):
        raise MalformedInput("some ray is not used by any maximal cone")


@lru_cache(maxsize=None)
def _scaled_dual_basis(f: Fan, cone: tuple) -> tuple:
    """(|det|, rows m_i with <m_i, u_j> = |det| delta_ij) for the cone's rays.

    The rows are sign(det) times the integer adjugate of the ray matrix, i.e.
    |det| times its inverse; they cut out the same cone as the dual basis.
    """
    rays = [f.rays[i] for i in cone]
    d = det(rays)
    sign = -1 if d < 0 else 1
    n = len(rays)
    rows = tuple(
        tuple(sign * (-1) ** (i + k)
              * det([r[:k] + r[k + 1:] for j, r in enumerate(rays) if j != i])
              for k in range(n))
        for i in range(n)
    )
    return abs(d), rows


def _dual_basis(f: Fan, cone: tuple) -> tuple:
    """Integer dual basis of a unimodular cone: <m_i, u_j> = delta_ij."""
    scale, rows = _scaled_dual_basis(f, cone)
    if scale != 1:
        raise FanError("cone ray matrix is not unimodular")
    return rows


@lru_cache(maxsize=None)
def _dual_pairings(f: Fan, cone: int) -> tuple:
    """Rows <m_i, u_rho> over every ray rho, for the dual basis m_i of the
    maximal cone ``max_cones[cone]``.

    Row i is div(chi^{m_i}): 1 at the cone's i-th ray, 0 at its other rays.
    Every change between a cone's dual coordinates and the rays reads this
    table.
    """
    return tuple(tuple(sum(map(mul, m, ray)) for ray in f.rays)
                 for m in _dual_basis(f, f.max_cones[cone]))


@lru_cache(maxsize=None)
def automorphisms(f: Fan) -> tuple:
    """Ray permutations pi, pi[rho] = pi(rho), of the lattice automorphisms
    g with g u_rho = u_pi(rho) that map the fan onto itself; sorted, so the
    identity comes first.

    Such a g sends the rays of ``max_cones[0]`` to the rays of a maximal
    cone in some order, and that order fixes it: u_rho = sum_i table[i][rho]
    u_i over cone 0's rays u_i (the dual pairing table of cone 0), so
    g u_rho = sum_i table[i][rho] g(u_i).  Each candidate is kept when every
    image is a ray and every maximal cone maps to a maximal cone.  The
    automorphism of X that g induces carries D_rho to D_pi(rho)
    (Cox-Little-Schenck, Toric Varieties, Thm 3.3.4).
    """
    require_smooth_complete(f)
    columns = tuple(zip(*_dual_pairings(f, 0)))
    index = {ray: i for i, ray in enumerate(f.rays)}
    cones = set(f.max_cones)
    out = set()
    for cone in f.max_cones:
        for order in itertools.permutations(cone):
            images = [f.rays[i] for i in order]
            perm = tuple(index.get(tuple(sum(map(mul, col, coords)) for coords in zip(*images)))
                         for col in columns)
            if None not in perm and all(tuple(sorted(perm[i] for i in c)) in cones
                                        for c in f.max_cones):
                out.add(perm)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def movers(f: Fan) -> tuple:
    """Per automorphism pi (``automorphisms``), the map v -> v o pi on
    per-ray tuples: an ``operator.itemgetter``, and ``tuple`` for the
    identity.  Over the group these maps list every image of a tuple."""
    identity = tuple(range(f.n_rays))
    return tuple(tuple if perm == identity else itemgetter(*perm) for perm in automorphisms(f))


def _facet_incidence(f: Fan) -> Dict[tuple, list]:
    facets: Dict[tuple, list] = {}
    for ci, cone in enumerate(f.max_cones):
        for drop in cone:
            facet = tuple(i for i in cone if i != drop)
            facets.setdefault(facet, []).append(ci)
    return facets


def _pairwise_face_check(f: Fan) -> bool:
    """LP check that every pairwise intersection is the common-ray face.

    A point of a simplicial cone sigma is sum_i y_i u_i over its rays, with
    y >= 0, and it lies in sigma' = {x : M x >= 0}, M the scaled dual basis
    of sigma', iff M U y >= 0 for the ray matrix U of sigma.  The
    intersection equals cone(sigma(1) & sigma'(1)) iff no such y has
    sum y_i > 0 over the rays of sigma outside sigma', which is one strict
    feasibility test over y >= 0.  One test per unordered pair suffices:
    if no point of the intersection is positive at a ray of sigma outside
    sigma', the intersection is cone(shared rays), a face of both cones, so
    the test with the two cones swapped finds no such point either.
    """
    duals = [_scaled_dual_basis(f, c)[1] for c in f.max_cones]
    for a, b in itertools.combinations(range(len(f.max_cones)), 2):
        rows = [[-sum(map(mul, m, f.rays[i])) for i in f.max_cones[a]] for m in duals[b]]
        rows.append([-int(i not in f.max_cones[b]) for i in f.max_cones[a]])
        if lp_feasible_strict(rows, [0] * (f.dim + 1), [False] * f.dim + [True]) is not None:
            return False
    return True


@lru_cache(maxsize=None)
def validate(f: Fan) -> FanDiagnostics:
    """Smoothness, completeness and fan-axiom diagnostics.

    Raises MalformedInput for structurally broken data; soft geometric
    failures come back as False flags with reasons.
    """
    _check_structure(f)
    reasons = []
    dets = [_scaled_dual_basis(f, c)[0] for c in f.max_cones]  # |det| per cone
    smooth = all(d == 1 for d in dets)
    if not smooth:
        bad = [c for c, d in zip(f.max_cones, dets) if d != 1]
        reasons.append(f"non-unimodular maximal cones: {bad}")

    simplicial = all(d != 0 for d in dets)
    fan_axioms = False
    if simplicial:
        fan_axioms = _pairwise_face_check(f)
        if not fan_axioms:
            reasons.append("two maximal cones overlap beyond their common ray face")
    else:
        reasons.append("degenerate maximal cone; fan axioms not checkable")

    # Facet pairing, wall connectivity and the pairwise-face check make the
    # cones a closed connected pseudomanifold embedded in the sphere, which
    # therefore covers it.
    complete = True
    facets = _facet_incidence(f)
    for facet, cones in facets.items():
        if len(cones) != 2:
            complete = False
            reasons.append(f"facet {facet} lies in {len(cones)} maximal cones")
            break
    if complete:
        adjacency = {i: set() for i in range(len(f.max_cones))}
        for cones in facets.values():
            adjacency[cones[0]].add(cones[1])
            adjacency[cones[1]].add(cones[0])
        seen = {0}
        stack = [0]
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(f.max_cones):
            complete = False
            reasons.append("wall-adjacency graph is disconnected")
    return FanDiagnostics(smooth, complete, fan_axioms, tuple(reasons))


def require_smooth_complete(f: Fan) -> None:
    diag = validate(f)
    if not diag.ok:
        raise FanError(f"fan is not smooth/complete/valid: {diag.reasons}")


def _cone_indices(tau: Sequence[int]) -> tuple:
    """tau as a sorted tuple; MalformedInput if an index is not an int (a
    bool or float), which a set or cache would take for another index."""
    try:
        return tuple(sorted(json_ints(tau, "cone index")))
    except ValueError as exc:
        raise MalformedInput(f"bad cone: {exc}") from exc


def is_cone(f: Fan, tau: Sequence[int]) -> bool:
    """Faces of simplicial cones are the ray subsets of maximal cones.  A
    ray index that is not an int (a bool or float) is MalformedInput."""
    tau = _cone_indices(tau)
    return len(set(tau)) == len(tau) and any(set(c).issuperset(tau) for c in f.max_cones)


def walls(f: Fan) -> tuple:
    """One Wall per shared codimension-one face of a complete fan."""
    require_smooth_complete(f)
    facets = _facet_incidence(f)
    out = []
    for facet in sorted(facets):
        a, b = sorted(facets[facet])
        extra_a = next(i for i in f.max_cones[a] if i not in facet)
        extra_b = next(i for i in f.max_cones[b] if i not in facet)
        out.append(Wall(facet, a, b, extra_a, extra_b))
    return tuple(out)


def star_subdivision(f: Fan, tau: Sequence[int]) -> Fan:
    """Star subdivision at the cone spanned by tau (toric blowup).

    Adds the primitivized ray sum of tau and subdivides every maximal cone
    containing tau.  Smoothness and completeness are preserved for smooth
    input with |tau| >= 2; subdividing a single ray would only duplicate it.
    A cone index that is not an int (a bool or float) is MalformedInput.
    """
    if not validate(f).smooth:
        raise FanError("star subdivision requires a smooth fan")
    if not is_cone(f, tau):
        raise NotACone(f"{tuple(tau)} does not span a cone of the fan")
    tau = tuple(sorted(tau))
    if len(tau) < 2:
        raise MalformedInput("star subdivision at a single ray duplicates the ray")
    new_ray = tuple(sum(f.rays[i][k] for i in tau) for k in range(f.dim))
    g = 0
    for x in new_ray:
        g = gcd(g, abs(x))
    new_ray = tuple(x // g for x in new_ray)
    if new_ray in f.rays:
        raise MalformedInput(f"subdivision ray {new_ray} already present")
    new_index = f.n_rays
    cones = []
    for cone in f.max_cones:
        if set(tau) <= set(cone):
            for drop in tau:
                cones.append(tuple(sorted([i for i in cone if i != drop] + [new_index])))
        else:
            cones.append(cone)
    return Fan(f.dim, f.rays + (new_ray,), tuple(cones))


@dataclass(frozen=True)
class StratumProjection:
    """Fan of the stratum V(tau) in the quotient lattice N/<tau>.

    ``adjacent[k]`` is the ambient ray that projects onto stratum ray k;
    ``base_cone`` is the maximal cone containing tau whose dual basis
    splits the quotient (see ``stratum_fan``).
    """

    fan: Fan
    adjacent: tuple
    base_cone: int

    def restrict_logset(self, logset: Sequence[int]) -> tuple:
        """The stratum rays whose ambient rays lie in ``logset``: the log
        set that the quotient of the residue sequence carries on V(tau)."""
        logset = set(logset)
        return tuple(k for k, i in enumerate(self.adjacent) if i in logset)


def stratum_fan(f: Fan, tau: Sequence[int]) -> StratumProjection:
    """Fan of the closed stratum V(tau) in the quotient lattice N/<tau>.

    A ray index that is not an int (a bool or float) is MalformedInput: the
    cache behind this check would take 0.0 or False for ray 0 and True for
    ray 1.
    """
    return _stratum_fan(f, _cone_indices(tau))


@lru_cache(maxsize=None)
def _stratum_fan(f: Fan, tau: tuple) -> StratumProjection:
    """``stratum_fan`` at a sorted tuple of int ray indices.

    The rows of the base cone's dual pairing table at the rays outside tau
    give coordinates on N/<tau>; the adjacent rays project onto them.
    """
    require_smooth_complete(f)
    if tau == ():
        return StratumProjection(f, tuple(range(f.n_rays)), 0)
    if not is_cone(f, tau):
        raise NotACone(f"{tau} does not span a cone of the fan")
    base = next(ci for ci, c in enumerate(f.max_cones) if set(tau) <= set(c))
    table = _dual_pairings(f, base)
    proj_rows = [table[pos] for pos, ray in enumerate(f.max_cones[base]) if ray not in tau]
    star = [c for c in f.max_cones if set(tau) <= set(c)]
    adjacent = tuple(sorted({i for c in star for i in c if i not in tau}))
    images = tuple(tuple(row[i] for row in proj_rows) for i in adjacent)
    index_of = {i: k for k, i in enumerate(adjacent)}
    cones = tuple(
        tuple(sorted(index_of[i] for i in c if i not in tau)) for c in star
    )
    out = Fan(f.dim - len(tau), images, cones)
    # also rejects a projected ray that is not primitive or repeats another
    require_smooth_complete(out)
    return StratumProjection(out, adjacent, base)


def projective_space(r: int) -> Fan:
    if r < 1:
        raise UnknownFamily("projective_space needs r >= 1")
    rays = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    rays.append(tuple(-1 for _ in range(r)))
    cones = [tuple(sorted(c)) for c in itertools.combinations(range(r + 1), r)]
    return Fan(r, tuple(rays), tuple(cones))


def hirzebruch(a: int) -> Fan:
    if a < 0:
        raise UnknownFamily("hirzebruch needs a >= 0")
    rays = ((1, 0), (0, 1), (-1, a), (0, -1))
    cones = ((0, 1), (1, 2), (2, 3), (0, 3))
    return Fan(2, rays, cones)


def product(f1: Fan, f2: Fan) -> Fan:
    zeros1 = (0,) * f1.dim
    zeros2 = (0,) * f2.dim
    rays = tuple(r + zeros2 for r in f1.rays) + tuple(zeros1 + r for r in f2.rays)
    shift = f1.n_rays
    cones = tuple(
        tuple(sorted(c1 + tuple(i + shift for i in c2)))
        for c1 in f1.max_cones
        for c2 in f2.max_cones
    )
    return Fan(f1.dim + f2.dim, rays, cones)


def builtin(name: str, **params) -> Fan:
    """Standard fan families by name (CLI entry point): projective_space
    takes ``dim`` and hirzebruch ``param``, an int; MalformedInput if it is
    missing or not an int, or if another parameter is given."""
    families = {"projective_space": (projective_space, "dim"), "hirzebruch": (hirzebruch, "param")}
    if name not in families:
        raise UnknownFamily(f"unknown builtin family {name!r}")
    make, key = families[name]
    if set(params) - {key}:
        raise MalformedInput(f"builtin family {name!r} takes only {key!r}, "
                             f"not {sorted(set(params) - {key})}")
    try:
        (value,) = json_ints([params[key]], key)
    except (KeyError, ValueError) as exc:
        raise MalformedInput(f"builtin family {name!r} needs an integer {key!r}") from exc
    return make(value)


def fan_to_dict(f: Fan) -> dict:
    return {
        "dim": f.dim,
        "rays": [list(r) for r in f.rays],
        "max_cones": [list(c) for c in f.max_cones],
    }


def fan_from_dict(data: dict) -> Fan:
    try:
        fan = Fan(data["dim"], data["rays"], data["max_cones"])
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad fan data: {exc}") from exc
    _check_structure(fan)
    return fan


@lru_cache(maxsize=None)
def fan_hash(f: Fan) -> str:
    """Stable content hash of the fan (used in certificates)."""
    blob = json.dumps(fan_to_dict(f), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
