"""Core model: N hard disks of arbitrary masses on the flat unit 2-torus.

Configuration space is the product of N copies of [0,1)^2 minus the
pairwise overlap cylinders; the kinetic-energy (mass) metric

    <u, w> = sum_i m_i <u_i, w_i>

is used for every inner product, norm, orthogonality and reflection in
the package.  Vectors over the disk system are held either as (N, 2)
arrays of per-disk blocks or flattened to length 2N in the order
(x_0, y_0, x_1, y_1, ...); helpers below accept both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import FeasibilityError, ValidationError
from .rng import make_generator


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across simulation and analysis."""

    collision_root_tol: float = 1e-12   # |distance - 2r| at a resolved contact
    tangency_tol: float = 1e-10        # cos(phi) at or below this is tangential
    double_event_tol: float = 1e-12    # events closer than this may be double
    rank_rel_tol: float = 1e-8         # relative cut for rank decisions


@dataclass(frozen=True)
class SystemParams:
    """Masses, common disk radius and tolerances of one disk system."""

    masses: tuple[float, ...]
    radius: float
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def n(self) -> int:
        return len(self.masses)

    @cached_property
    def mass_array(self) -> np.ndarray:
        a = np.array(self.masses, dtype=float)
        a.setflags(write=False)
        return a

    @cached_property
    def mass_weights(self) -> np.ndarray:
        """Per-coordinate weights for flattened vectors, length 2N."""
        w = np.repeat(self.mass_array, 2)
        w.setflags(write=False)
        return w

    @cached_property
    def total_mass(self) -> float:
        return float(self.mass_array.sum())


@dataclass(frozen=True)
class PhaseState:
    """Positions in [0,1)^2 and velocities of the N disks.

    Arrays are copied and frozen on construction; a state is a value,
    never mutated in place.
    """

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        v = np.array(self.v, dtype=float)
        if q.shape != v.shape or q.ndim != 2 or q.shape[1] != 2:
            raise ValueError(f"expected matching (N, 2) arrays, got {q.shape} and {v.shape}")
        q.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    status: str                 # "ok" | "warning"
    messages: tuple[str, ...] = ()


def _flat(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return u.reshape(-1) if u.ndim > 1 else u


def mass_inner(u, w, params: SystemParams) -> float:
    """Mass-metric inner product of two system vectors."""
    uf, wf = _flat(u), _flat(w)
    if uf.shape != wf.shape or uf.shape != (2 * params.n,):
        raise ValueError(
            f"expected two vectors of {2 * params.n} coordinates, "
            f"got {uf.shape} and {wf.shape}")
    return float(np.dot(params.mass_weights * uf, wf))


def mass_norm(u, params: SystemParams) -> float:
    return math.sqrt(max(mass_inner(u, u, params), 0.0))


def project_to_Z(u, params: SystemParams) -> np.ndarray:
    """Project onto the zero-total-momentum subspace Z.

    Subtracts the mass-weighted mean from every block; this is the
    mass-metric orthogonal projection.  Output has the shape of the
    input ((N,2) or flat 2N).
    """
    u = np.asarray(u, dtype=float)
    blocks = u.reshape(params.n, 2)
    mean = params.mass_array @ blocks / params.total_mass
    out = blocks - mean
    return out if u.ndim > 1 else out.reshape(-1)


@lru_cache
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)``, built once per N."""
    iu, ju = np.triu_indices(n, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _pair_gaps(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-image distances of every pair i < j of the (N, 2) positions q.

    Returns ``(gaps, i, j)`` in ``np.triu_indices`` order.  Per axis
    rint(d) is the integer nearest the difference d, and d - rint(d) is
    exact: it is d itself when rint(d) = 0, else a Sterbenz subtraction.
    So |d - rint(d)| is the shortest lift of d, and each gap is the
    min-image distance bit for bit, as a search over the neighbouring
    images would find it.  hypot ignores signs, so the absolute value is
    left to it.
    """
    iu, ju = _pair_indices(q.shape[0])
    z = np.ascontiguousarray(q, dtype=float).view(complex)[:, 0]
    d = (z[iu] - z[ju]).view(float)
    d -= np.rint(d)
    return np.hypot(d[0::2], d[1::2]), iu, ju


def min_gap(state: PhaseState, params: SystemParams) -> tuple[float, tuple[int, int]]:
    """Smallest pairwise min-image distance and the pair attaining it.

    Ties go to the first pair in (i, j) order.
    """
    gaps, iu, ju = _pair_gaps(state.q)
    if not gaps.size:
        return math.inf, (0, 1)
    k = int(np.argmin(gaps))
    return float(gaps[k]), (int(iu[k]), int(ju[k]))


def energy(state: PhaseState, params: SystemParams) -> float:
    return 0.5 * float(np.sum(params.mass_array[:, None] * state.v**2))


def momentum(state: PhaseState, params: SystemParams) -> np.ndarray:
    return params.mass_array @ state.v


def validate_params(params: SystemParams) -> ValidationReport:
    """Check masses and radius; density beyond one row is a warning only."""
    if params.n < 2:
        raise ValidationError(f"need at least 2 disks, got {params.n}")
    for k, m in enumerate(params.masses):
        if not (m > 0.0) or not math.isfinite(m):
            raise ValidationError(f"mass of disk {k} must be positive, got {m}")
    if not (params.radius > 0.0) or not math.isfinite(params.radius):
        raise ValidationError(f"radius must be positive, got {params.radius}")
    occupancy = params.n * 2.0 * params.radius
    if occupancy < 1.0:
        return ValidationReport("ok")
    return ValidationReport(
        "warning",
        (f"dense packing: N*2r = {occupancy:g} >= 1; "
         "states may be hard or impossible to sample",))


def _lattice_pair(l0) -> tuple[int, int]:
    """A lattice direction l0 as two integers, not both zero; anything
    else raises ``ValidationError``."""
    l0 = tuple(l0)
    if len(l0) != 2:
        raise ValidationError(f"l0 must have two entries, got {l0}")
    if not all(float(c).is_integer() for c in l0):
        raise ValidationError(f"l0 entries must be integers, got {l0}")
    if not any(l0):
        raise ValidationError("l0 must be a nonzero lattice direction")
    return int(l0[0]), int(l0[1])


def validate_state(state: PhaseState, params: SystemParams) -> None:
    """Raise ValidationError unless the state is admissible.

    The state must hold N disks with finite coordinates, positions in
    [0,1)^2 and no overlap beyond 100 * collision_root_tol.  Total
    momentum and kinetic energy are not checked: any velocities may be
    simulated.
    """
    if state.n != params.n:
        raise ValidationError(f"state has {state.n} disks, params have {params.n}")
    if not np.all(np.isfinite(state.q)) or not np.all(np.isfinite(state.v)):
        raise ValidationError("non-finite phase coordinates")
    if np.any(state.q < 0.0) or np.any(state.q >= 1.0):
        raise ValidationError("positions must lie in [0,1)^2")
    gap, pair = min_gap(state, params)
    slack = 100.0 * params.tolerances.collision_root_tol
    if gap < 2.0 * params.radius - slack:
        raise ValidationError(
            f"disks {pair} overlap: distance {gap:.17g} < 2r = {2 * params.radius:.17g}")


# Position draws of sample_state before it gives up on a packing.
_SAMPLE_TRIES = 10000


def sample_state(seed: int, params: SystemParams, *,
                 stream: int = 0) -> PhaseState:
    """Draw a reproducible admissible state on the standard shell.

    Positions are sampled by rejection until all min-image gaps clear
    2r; velocities are isotropic in the mass metric, projected to zero
    total momentum and rescaled to kinetic energy 1/2.  Distinct
    streams give independent draws for the same seed.
    """
    report = validate_params(params)
    rng = make_generator(seed, stream)
    two_r = 2.0 * params.radius
    for _ in range(_SAMPLE_TRIES):
        q = rng.random((params.n, 2))
        if not np.any(_pair_gaps(q)[0] <= two_r):
            break
    else:
        raise FeasibilityError(
            f"no admissible configuration in {_SAMPLE_TRIES} draws "
            f"(N = {params.n}, r = {params.radius:g}; status: {report.status})")
    while True:
        v = rng.standard_normal((params.n, 2)) / np.sqrt(params.mass_array)[:, None]
        v = project_to_Z(v, params)
        norm = math.sqrt(float(np.sum(params.mass_array[:, None] * v**2)))
        if norm > 1e-8:
            break
    return PhaseState(q, v / norm)


@dataclass(frozen=True)
class ReducedSpace:
    """Zero-total-momentum subspace Z with a mass-orthonormal basis."""

    dimension: int
    basis: np.ndarray      # (2N, 2(N-1)), mass-orthonormal columns


def reduced_space(params: SystemParams) -> ReducedSpace:
    n = params.n
    root_m = np.sqrt(params.mass_array)
    # Euclidean-orthonormal basis of the hyperplane orthogonal to sqrt(m)
    # in R^N; dividing rows by sqrt(m) makes it mass-orthonormal in the
    # original coordinates.
    a = np.eye(n) - np.outer(root_m, root_m) / float(root_m @ root_m)
    u, svals, _ = np.linalg.svd(a)
    cols = u[:, : n - 1] / root_m[:, None]
    basis = np.zeros((2 * n, 2 * (n - 1)))
    for k in range(n - 1):
        basis[0::2, 2 * k] = cols[:, k]
        basis[1::2, 2 * k + 1] = cols[:, k]
    basis.setflags(write=False)
    return ReducedSpace(2 * (n - 1), basis)


def _null_of_row(g: np.ndarray) -> np.ndarray:
    """Orthonormal basis (m, m - 1) of the vectors orthogonal to g: the
    last columns of the Householder reflection that sends g to an axis."""
    h = g / np.linalg.norm(g)
    h[0] += math.copysign(1.0, h[0])
    refl = np.eye(g.size) - np.outer(h, h) / abs(h[0])
    return refl[:, 1:]


def transverse_basis(v, params: SystemParams) -> np.ndarray:
    """Mass-orthonormal basis of {v}^perp inside Z, dimension 2(N-1)-1:
    Z's basis times the complement of v's coordinates on it.  A velocity
    whose part in Z is below rank_rel_tol of its norm (a state at rest,
    or every disk moving alike) raises ``ValidationError``."""
    zb = reduced_space(params).basis
    vf = _flat(v)
    coords = (zb.T * params.mass_weights) @ vf
    cut = params.tolerances.rank_rel_tol * mass_norm(vf, params)
    if not np.linalg.norm(coords) > cut:
        raise ValidationError("transverse_basis needs a velocity with a part "
                              "in Z; a state at rest or a pure translation "
                              "has none")
    return zb @ _null_of_row(coords)
