"""Degenerate parallel-velocity sets and their tube geometry.

For a primitive lattice direction l0, the degenerate set L(l0) collects
the phase points whose disk velocities stay parallel to l0 for all
time.  Each disk of such an orbit is confined to a closed line on the
torus and drags an open tube of half-width r around it; the component
structure of the collision graph constrains how those tubes may
coincide, overlap, or must stay disjoint.  This module enumerates the
admissible directions (norm at most 1/(4r)), tests membership over a
finite horizon, audits the tube constraints, measures a surrogate
distance from the set, and checks the exceptional radius equalities
that make the tube packing degenerate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .events import TrajectorySegment, simulate, symbolic_sequence
from .geometry import PhaseState, SystemParams, _lattice_pair
from .neutral import collision_graph

# A velocity field counts as parallel to l0 when the mass-metric norm
# of its perpendicular part stays below this.
PARALLEL_TOL = 1e-10

# Two tube center lines coincide below this offset distance; open tubes
# are disjoint when the offset distance clears 2r by at least this.
OFFSET_TOL = 1e-9

RADIUS_MATCH_TOL = 1e-12

# The survey first simulates its horizon capped at
# _SETTLE_EVENTS_PER_DISK events per disk beyond the first, which is
# enough for a generic orbit to refute every direction and connect its
# collision graph; an orbit not settled by then is simulated uncapped.
_SETTLE_EVENTS_PER_DISK = 4


@dataclass(frozen=True)
class LatticeDirection:
    """Primitive integer direction (a, b) with canonical sign.

    Canonical sign means a > 0, or a = 0 and b > 0, so no two distinct
    instances are parallel.
    """

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise ValidationError("lattice direction needs integer entries")
        g = math.gcd(abs(self.a), abs(self.b))
        if g == 0:
            raise ValidationError("lattice direction must be nonzero")
        if g != 1:
            raise ValidationError(
                f"lattice direction ({self.a}, {self.b}) is not primitive; "
                f"reduce by gcd {g}")
        if not (self.a > 0 or (self.a == 0 and self.b > 0)):
            raise ValidationError(
                f"lattice direction ({self.a}, {self.b}) is not in canonical "
                "sign (a > 0, or a = 0 and b > 0)")

    @classmethod
    def from_vector(cls, l0) -> "LatticeDirection":
        """Coerce a pair of integers, flipping to the canonical sign."""
        if isinstance(l0, cls):
            return l0
        a, b = _lattice_pair(l0)
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        return cls(a, b)

    @property
    def norm(self) -> float:
        return math.hypot(self.a, self.b)

    @property
    def norm_sq(self) -> int:
        return self.a * self.a + self.b * self.b

    @property
    def width(self) -> float:
        """Width of the torus across the tube direction: 1/norm."""
        return 1.0 / self.norm

    @property
    def vector(self) -> np.ndarray:
        return np.array([float(self.a), float(self.b)])

    def as_tuple(self) -> tuple[int, int]:
        return (self.a, self.b)


def admissible_directions(r: float) -> tuple[LatticeDirection, ...]:
    """All primitive directions with norm at most 1/(4r).

    Sorted by norm, ties broken lexicographically on (a, b).
    """
    if r <= 0.0:
        raise ValidationError("radius must be positive")
    bound = 1.0 / (4.0 * r)
    bound_sq = bound * bound
    amax = int(math.floor(bound))
    out = []
    for a in range(0, amax + 1):
        for b in range(-amax, amax + 1):
            if a == 0 and b <= 0:
                continue
            if math.gcd(a, abs(b)) != 1:
                continue
            if a * a + b * b <= bound_sq:
                out.append(LatticeDirection(a, b))
    out.sort(key=lambda l: (l.norm, l.a, l.b))
    return tuple(out)


def _perp_norms(v_blocks: np.ndarray, l: LatticeDirection,
                params: SystemParams) -> np.ndarray:
    """Mass-metric perpendicular speed for each leading axis entry.

    The parallel projection divides by the integer norm square before
    scaling back, so exactly parallel axis-aligned velocities give an
    exact zero.
    """
    lv = l.vector
    dots = v_blocks @ lv
    perp = v_blocks - dots[..., None] * (lv / l.norm_sq)
    sq = np.einsum("...nc,n->...", perp * perp, params.mass_array)
    return np.sqrt(sq)


def perpendicular_speed(state: PhaseState, l0, params: SystemParams) -> float:
    """Mass-metric norm of the velocity components orthogonal to l0."""
    l = LatticeDirection.from_vector(l0)
    v = np.asarray(state.v, dtype=float).reshape(params.n, 2)
    return float(_perp_norms(v[None], l, params)[0])


def _perp_history(traj: TrajectorySegment,
                  l: LatticeDirection) -> np.ndarray:
    """Perpendicular speeds over the orbit's whole velocity history.

    Velocities only change at collisions, so the history is the initial
    velocities, each collision's outgoing ones and the final ones,
    stacked in that order; row 0 is the initial state's.
    """
    v = np.concatenate([traj.initial.v[None], traj.ev_v_post,
                        traj.final.v[None]])
    return _perp_norms(v, l, traj.params)


def in_L(state: PhaseState, l0, params: SystemParams, *,
         horizon: float = 100.0) -> bool:
    """Whether all velocities stay parallel to l0 across the horizon.

    Velocities only change at collisions, so the check samples the
    initial state, every post-collision snapshot, and the final state.
    An initial velocity off l0 refutes the direction without a run;
    otherwise the whole horizon is simulated in one engine call.
    """
    l = LatticeDirection.from_vector(l0)
    if perpendicular_speed(state, l, params) > PARALLEL_TOL:
        return False
    perp = _perp_history(simulate(state, horizon, params), l)
    return bool(perp.max() <= PARALLEL_TOL)


def _tube_offset(q_disk, l: LatticeDirection) -> float:
    """Perpendicular coset coordinate of the disk's line, in [0, width)."""
    c = (-l.b * float(q_disk[0]) + l.a * float(q_disk[1])) / l.norm
    return c % l.width


def _offset_distance(c1: float, c2: float, width: float) -> float:
    d = abs(c1 - c2) % width
    return min(d, width - d)


def _audit_tubes(state: PhaseState, l: LatticeDirection,
                 params: SystemParams, components, offsets, pairs) -> dict:
    """JSON-ready tube audit from the survey's pair rows (i, j, offset
    distance, same component, size of the larger component): tubes of
    one component must coincide, tubes of distinct components with two
    or more members between them be disjoint, and the tubes of two
    singletons be disjoint or carry equal velocities."""
    v = state.v
    two_r = 2.0 * params.radius
    coincide_bad, disjoint_bad, singleton_bad = [], [], []
    for i, j, d, same, largest in pairs:
        if same:
            if d > OFFSET_TOL:
                coincide_bad.append([i, j])
            continue
        disjoint = d >= two_r - OFFSET_TOL
        if largest >= 2:
            if not disjoint:
                disjoint_bad.append([i, j])
        elif not (disjoint
                  or float(np.hypot(*(v[i] - v[j]))) <= PARALLEL_TOL):
            singleton_bad.append([i, j])
    return {
        "direction": list(l.as_tuple()),
        "width": l.width,
        "tubes": [{"disk": i, "offset": c, "half_width": params.radius}
                  for i, c in enumerate(offsets)],
        "components": [list(c) for c in components],
        "coincide_ok": not coincide_bad,
        "coincide_violations": coincide_bad,
        "disjoint_ok": not disjoint_bad,
        "disjoint_violations": disjoint_bad,
        "singleton_ok": not singleton_bad,
        "singleton_violations": singleton_bad,
    }


@dataclass(frozen=True)
class RadiusFlags:
    """Exceptional radius equalities for one direction.

    length_matches lists group sizes h with 2rh equal to the direction
    norm (a group of h disks exactly fills the closed line); width
    matches list sizes k with 2rk equal to the torus width across the
    direction (k tubes exactly tile the torus).
    """

    direction: LatticeDirection
    radius: float
    norm: float
    width: float
    length_matches: tuple[int, ...]
    width_matches: tuple[int, ...]

    @property
    def degenerate(self) -> bool:
        return bool(self.length_matches or self.width_matches)

    def to_dict(self) -> dict:
        return {
            "direction": list(self.direction.as_tuple()),
            "radius": self.radius,
            "norm": self.norm,
            "width": self.width,
            "length_matches": list(self.length_matches),
            "width_matches": list(self.width_matches),
            "degenerate": self.degenerate,
        }


def _group_matches(two_r: float, target: float,
                   max_group: int) -> tuple[int, ...]:
    """The h in 1..max_group with |2r h - target| <= RADIUS_MATCH_TOL.

    Only h within tol / 2r of target / 2r can match, so only those are
    tested; one integer more on each side, and a relative 1e-15 of the
    centre, cover the rounding of the window's ends and of 2r h.
    """
    centre = target / two_r
    half = RADIUS_MATCH_TOL / two_r + 1.0 + 1e-15 * centre
    if math.isfinite(centre + half):
        first = max(1, math.ceil(centre - half))
        last = min(max_group, math.floor(centre + half))
    else:  # a radius so small that the window overflows: test every h
        first, last = 1, max_group
    return tuple(h for h in range(first, last + 1)
                 if abs(two_r * h - target) <= RADIUS_MATCH_TOL)


def degenerate_radius_check(params: SystemParams, l0, *,
                            max_group: int | None = None) -> RadiusFlags:
    """Flag group sizes whose diameter sum matches the tube geometry.

    Checks |2rh - norm| and |2rk - width| against a 1e-12 tolerance for
    h, k up to max_group (defaults to the disk count).
    """
    l = LatticeDirection.from_vector(l0)
    r = params.radius
    if max_group is None:
        max_group = params.n
    if max_group < 1:
        raise ValidationError("max_group must be at least 1")
    return RadiusFlags(direction=l, radius=r, norm=l.norm, width=l.width,
                       length_matches=_group_matches(2.0 * r, l.norm, max_group),
                       width_matches=_group_matches(2.0 * r, l.width, max_group))


def degeneracy_report(state: PhaseState, params: SystemParams, *,
                      l0=None, horizon: float = 100.0,
                      max_group: int | None = None) -> dict:
    """JSON-ready degeneracy survey of a state.

    Covers the admissible directions for the configured radius (or the
    one given direction): membership verdict, surrogate distance,
    radius flags, and the tube audit for members.

    Membership and the components of the collision graph (proper
    collisions only) are read from one orbit, first simulated under an
    event cap of 4(N - 1).  The answer is settled there when every
    target direction is refuted, by the initial velocities or by a
    post-collision one, and the graph is connected; neither can change
    later, so the report equals that of the full horizon.  Otherwise,
    as for every member, the whole horizon is simulated.  A numerical
    failure of the engine after the cap of a settled orbit (drift,
    cascade or overlap) is not raised, since those events are never
    simulated.

    Each direction reads the orbit's velocity history once: the maximum
    of its perpendicular speeds decides membership, and the initial one
    enters the distance.  One pass over the disk pairs serves both the
    distance and the tube audit.
    """
    directions = admissible_directions(params.radius)
    if l0 is not None:
        targets = [LatticeDirection.from_vector(l0)]
    else:
        targets = list(directions)
    n = params.n

    def read(traj):
        return ([_perp_history(traj, l) for l in targets],
                collision_graph(symbolic_sequence(traj), n))

    # The orbit does not depend on the direction.  The cap leaves t_max,
    # and so the engine's chunk schedule, unchanged, so the capped run is
    # a bitwise prefix of the full one; a single disk has no pair, and
    # its run needs a cap of at least 1.  A run the cap stopped is run
    # again to the horizon unless the answer is settled.
    traj = simulate(state, horizon, params,
                    max_events=max(1, _SETTLE_EVENTS_PER_DISK * (n - 1)))
    perps, graph = read(traj)
    if traj.stopped_by_count and (
            not graph.connected
            or any(p.max() <= PARALLEL_TOL for p in perps)):
        traj = simulate(state, horizon, params)
        perps, graph = read(traj)
    label = graph.label
    sizes = [len(graph.components[c]) for c in label]
    two_r = 2.0 * params.radius
    entries = []
    for l, perp in zip(targets, perps):
        member = bool(perp.max() <= PARALLEL_TOL)
        offsets = [_tube_offset(q, l) for q in state.q]
        pairs = [(i, j, _offset_distance(offsets[i], offsets[j], l.width),
                  label[i] == label[j], max(sizes[i], sizes[j]))
                 for i in range(n) for j in range(i + 1, n)]
        overlap = 0.0
        for _, _, d, same, largest in pairs:
            if not same and largest >= 2:
                overlap += max(0.0, two_r - d)
        entry = {
            "direction": list(l.as_tuple()),
            "member": member,
            "distance": float(perp[0]) + overlap,
            "radius_flags": degenerate_radius_check(
                params, l, max_group=max_group).to_dict(),
        }
        if member:
            entry["tubes"] = _audit_tubes(state, l, params, graph.components,
                                          offsets, pairs)
        entries.append(entry)
    return {
        "radius": params.radius,
        "admissible_directions": [list(l.as_tuple()) for l in directions],
        "horizon": horizon,
        "entries": entries,
    }
