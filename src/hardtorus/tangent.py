"""Transport of tangent and normal vectors along trajectories.

A tangent vector is a pair (dq, dv) of system vectors; free flight
shears dq by t*dv, and a collision acts by the mass-metric reflection
R in the contact normal plus a rank-one scattering term built from the
cylinder curvature at the contact.  With every operator expressed in
the mass metric the transported pair is exactly the derivative of the
flow map in plain phase coordinates, which is what the finite
difference tests check.

Normal vectors (z, w) transport by the adjoint (inverse-transpose)
rule: w is the configuration component, z the momentum-like one, and
the form <z, w> never increases along the flow.

``identify=True`` composes the collision reflections back into the
initial frame, under which the flow direction (v, 0) is literally
fixed and the velocity direction never moves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSegmentError, TangentialFrameError
from .events import TrajectorySegment, resolve_collision
from .geometry import (PhaseState, SystemParams, mass_inner, reduced_space)


@dataclass(frozen=True)
class TangentVector:
    """Flattened (dq, dv) pair, length 2N each."""

    dq: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        dq = np.array(self.dq, dtype=float).reshape(-1)
        dv = np.array(self.dv, dtype=float).reshape(-1)
        if dq.shape != dv.shape:
            raise ValueError("dq and dv must have equal length")
        dq.setflags(write=False)
        dv.setflags(write=False)
        object.__setattr__(self, "dq", dq)
        object.__setattr__(self, "dv", dv)


@dataclass(frozen=True)
class NormalVector:
    """Flattened (z, w) pair transported by the adjoint rule."""

    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        z = np.array(self.z, dtype=float).reshape(-1)
        w = np.array(self.w, dtype=float).reshape(-1)
        if z.shape != w.shape:
            raise ValueError("z and w must have equal length")
        z.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)


def q_of(obj, params: SystemParams) -> float:
    """Mass-metric pairing; on tangent vectors this is the expansion
    form <dq, dv>, on normal vectors <z, w>."""
    if isinstance(obj, TangentVector):
        return mass_inner(obj.dq, obj.dv, params)
    if isinstance(obj, NormalVector):
        return mass_inner(obj.z, obj.w, params)
    raise ValueError(f"expected a tangent or normal vector, got {type(obj).__name__}")


def reverse_normal(n: NormalVector) -> NormalVector:
    """Velocity involution on normal data; flips the form exactly."""
    return NormalVector(n.z, -n.w)


class CollisionFrame:
    """Operators of one collision in the mass metric.

    nu is the unit configuration normal of the contact, w_hat the unit
    tangent of the cylinder base circle; reflect is R, curvature the
    rank-one operator with eigenvalue 1/base_radius on w_hat.  The
    projections along the incoming and outgoing velocities convert
    between velocity-transverse vectors and the contact hyperplane.
    All apply methods accept a flat vector or a (2N, k) stack.
    """

    def __init__(self, i: int, j: int, u, v_pre, v_post, params: SystemParams):
        self.i, self.j = int(i), int(j)
        self.params = params
        mi, mj = params.masses[self.i], params.masses[self.j]
        self.mi, self.mj = mi, mj
        s = math.sqrt(1.0 / mi + 1.0 / mj)
        self.s = s
        n2 = 2 * params.n
        self.u = np.asarray(u, dtype=float)
        self.perp = np.array([-self.u[1], self.u[0]])
        self.mw = params.mass_weights
        nu = np.zeros(n2)
        nu[2 * self.i: 2 * self.i + 2] = self.u / (mi * s)
        nu[2 * self.j: 2 * self.j + 2] = -self.u / (mj * s)
        self.nu = nu
        wh = np.zeros(n2)
        wh[2 * self.i: 2 * self.i + 2] = self.perp / (mi * s)
        wh[2 * self.j: 2 * self.j + 2] = -self.perp / (mj * s)
        self.w_hat = wh
        self.base_radius = 2.0 * params.radius * math.sqrt(mi * mj / (mi + mj))
        self.v_pre = np.asarray(v_pre, dtype=float).reshape(-1)
        self.v_post = np.asarray(v_post, dtype=float).reshape(-1)
        # Cosines pinned to the frame's own inner product so that the
        # boundary projections send v_pre and v_post to exact zero.
        self.cos_pre = -float(self.dot_nu(self.v_pre))
        self.cos_phi = float(self.dot_nu(self.v_post))
        if min(self.cos_phi, self.cos_pre) <= params.tolerances.tangency_tol:
            raise TangentialFrameError(
                f"collision of ({self.i}, {self.j}) is tangential: "
                f"cos_phi = {self.cos_phi:.3g}")

    def _pair_delta(self, x):
        """Block difference x_i - x_j; exact zero on equal blocks, which
        keeps vectors flat along the cylinder generator exactly flat."""
        return (x[2 * self.i: 2 * self.i + 2] - x[2 * self.j: 2 * self.j + 2])

    def dot_nu(self, x):
        d = self._pair_delta(x)
        return (self.u[0] * d[0] + self.u[1] * d[1]) / self.s

    def dot_what(self, x):
        d = self._pair_delta(x)
        return (self.perp[0] * d[0] + self.perp[1] * d[1]) / self.s

    def _dot(self, a, x):
        return (self.mw * a) @ x

    def reflect(self, x):
        # Impulse form, replicating the elastic exchange operation for
        # operation: reflect(v_pre) reproduces v_post bitwise, so the
        # flow direction transports through collisions without noise
        # for downstream hyperbolicity to amplify.
        d = self._pair_delta(x)
        rad = self.u[0] * d[0] + self.u[1] * d[1]
        g = 2.0 * rad / (self.mi + self.mj)
        out = np.array(x)
        i2, j2 = 2 * self.i, 2 * self.j
        out[i2] -= self.mj * g * self.u[0]
        out[i2 + 1] -= self.mj * g * self.u[1]
        out[j2] += self.mi * g * self.u[0]
        out[j2 + 1] += self.mi * g * self.u[1]
        return out

    def curvature(self, x):
        return np.multiply.outer(self.w_hat, self.dot_what(x) / self.base_radius)

    def to_boundary_pre(self, x):
        """Project onto the contact hyperplane along the incoming velocity."""
        c = self.dot_nu(x) / self.cos_pre
        return x + np.multiply.outer(self.v_pre, c)

    def from_boundary_pre(self, y):
        c = self._dot(self.v_pre, y) / self.cos_pre
        return y + np.multiply.outer(self.nu, c)

    def to_boundary_post(self, x):
        c = self.dot_nu(x) / self.cos_phi
        return x - np.multiply.outer(self.v_post, c)

    def from_boundary_post(self, y):
        c = self._dot(self.v_post, y) / self.cos_phi
        return y - np.multiply.outer(self.nu, c)

    def scatter_pre(self, xq):
        """2 cos(phi) V* K V applied to a pre-collision dq."""
        return (2.0 * self.cos_phi) * self.from_boundary_pre(
            self.curvature(self.to_boundary_pre(xq)))

    def scatter_post(self, xq):
        """2 cos(phi) V1* K V1 applied to a post-collision dq."""
        return (2.0 * self.cos_phi) * self.from_boundary_post(
            self.curvature(self.to_boundary_post(xq)))

    def reflection_matrix(self) -> np.ndarray:
        return np.eye(self.nu.size) - 2.0 * np.outer(self.nu, self.mw * self.nu)


def collision_frame(state: PhaseState, i: int, j: int, image,
                    params: SystemParams) -> CollisionFrame:
    """Frame at a contact configuration; velocities in ``state`` are the
    incoming ones and the elastic exchange is applied internally."""
    i, j = min(i, j), max(i, j)
    post = resolve_collision(state, i, j, image, params)
    d = state.q[i] - state.q[j] + np.asarray(image, dtype=float)
    u = d / math.hypot(d[0], d[1])
    return CollisionFrame(i, j, u, state.v, post.v, params)


def frame_for_event(traj: TrajectorySegment, k: int) -> CollisionFrame:
    return CollisionFrame(
        int(traj.ev_pair[k, 0]), int(traj.ev_pair[k, 1]), traj.ev_u[k],
        traj.ev_v_pre[k], traj.ev_v_post[k], traj.params)


def _apply_event(frame, xq, xv):
    """Push (xq, xv) through one collision (incoming side given)."""
    return frame.reflect(xq), frame.reflect(xv + frame.scatter_pre(xq))


def _apply_event_inverse(frame, xq, xv):
    """Exact inverse of ``_apply_event`` (outgoing side given)."""
    return frame.reflect(xq), frame.reflect(xv) - frame.reflect(frame.scatter_post(xq))


def _walk(traj: TrajectorySegment, t_from: float | None = None,
          t_to: float | None = None, *, flagged: bool = False):
    """The one loop that crosses collisions, as a sequence of flights.

    Yields (t_a, t_b, k, frame) per flight from t_a to t_b: a flight
    that ends on event k carries its frame, built once, and the closing
    flight to t_to (default: the segment end) has k = frame = None.
    Callers apply their own flight and collision arithmetic.

    Without t_from the walk starts from the initial state and crosses
    every event up to t_to, one at t = 0 included.  With t_from, vectors
    sit on the outgoing side of an event time (searchsorted's "right"):
    forward walks cross t_from < t_k <= t_to in order, backward walks
    t_to < t_k <= t_from in reverse, so a walk that ends on an event
    time ends on its outgoing side either way.  Segments with flagged
    (tangential or double) events are refused unless ``flagged``, which
    yields their flights with frame None.
    """
    if traj.singular and not flagged:
        raise SingularSegmentError(
            "segment carries singular events; transport refused")
    ev_t = traj.ev_t
    if t_to is None:
        t_to = traj.t_end
    if t_from is None:
        t_from, first = 0.0, 0
    else:
        first = int(np.searchsorted(ev_t, t_from, side="right"))
    if min(t_from, t_to) < 0.0 or max(t_from, t_to) > traj.t_end:
        raise ValueError(f"[{t_from:g}, {t_to:g}] outside segment span")
    last = int(np.searchsorted(ev_t, t_to, side="right"))
    if t_to >= t_from:
        order = range(first, last)
    else:
        order = range(first - 1, last - 1, -1)
    t = t_from
    for k in order:
        t_k = float(ev_t[k])
        yield t, t_k, k, None if traj.ev_flags[k] else frame_for_event(traj, k)
        t = t_k
    yield t, t_to, None, None


def transport_between(traj: TrajectorySegment, xq, xv, t_from: float, t_to: float):
    """Carry stacked (xq, xv) payloads from t_from to t_to, either way.

    Vectors are understood in plain phase coordinates at the source
    time (post-collision side at an event time) and arrive in plain
    coordinates at the target time.
    """
    step = _apply_event if t_to >= t_from else _apply_event_inverse
    for t_a, t_b, k, frame in _walk(traj, t_from, t_to):
        xq = xq + (t_b - t_a) * xv
        if frame is not None:
            xq, xv = step(frame, xq, xv)
    return xq, xv


def propagate_tangent(traj: TrajectorySegment, tau: TangentVector,
                      times=None, *, identify: bool = False) -> list[TangentVector]:
    """Transport tau from the segment start to each requested time.

    Times must be nondecreasing; default is the segment end.  At an
    event time the output is on the outgoing side.  With ``identify``
    the output is pulled back through the accumulated collision
    reflections into the initial frame.
    """
    if times is None:
        times = [traj.t_end]
    times = [float(t) for t in times]
    if any(b < a for a, b in zip([0.0] + times, times)):
        raise ValueError("times must be nondecreasing and nonnegative")
    out = []
    if not times:
        return out
    xq, xv = np.array(tau.dq), np.array(tau.dv)
    pull = np.eye(xq.size) if identify else None
    for t_a, t_b, k, frame in _walk(traj, t_to=times[-1]):
        t = t_a
        # stops before the event's time; the closing flight takes the rest
        while len(out) < len(times) and (k is None or times[len(out)] < t_b):
            xq = xq + (times[len(out)] - t) * xv
            t = times[len(out)]
            if identify:
                out.append(TangentVector(pull @ xq, pull @ xv))
            else:
                out.append(TangentVector(xq, xv))
        if k is None:
            break
        xq = xq + (t_b - t) * xv
        xq, xv = _apply_event(frame, xq, xv)
        if identify:
            pull = pull @ frame.reflection_matrix()
    return out


@dataclass(frozen=True)
class TangentMapResult:
    """Matrix of the end-to-end tangent map on Z + Z.

    Coordinates are the mass-orthonormal product basis (configuration
    block first), so determinants and singular values are the
    mass-metric ones.
    """

    matrix: np.ndarray
    basis: np.ndarray       # (2N, 2(N-1)) configuration-space basis of Z
    identify: bool


def tangent_map(traj: TrajectorySegment, *, identify: bool = False) -> TangentMapResult:
    params = traj.params
    zb = reduced_space(params).basis
    d = zb.shape[1]
    xq = np.hstack([zb, np.zeros_like(zb)])
    xv = np.hstack([np.zeros_like(zb), zb])
    pull = np.eye(zb.shape[0])
    for t_a, t_b, k, frame in _walk(traj):
        xq = xq + (t_b - t_a) * xv
        if frame is not None:
            xq, xv = _apply_event(frame, xq, xv)
            if identify:
                pull = pull @ frame.reflection_matrix()
    if identify:
        xq = pull @ xq
        xv = pull @ xv
    mw = params.mass_weights
    proj = zb.T * mw
    mat = np.block([[proj @ xq[:, :d], proj @ xq[:, d:]],
                    [proj @ xv[:, :d], proj @ xv[:, d:]]])
    return TangentMapResult(mat, zb, identify)


@dataclass(frozen=True)
class NormalTransportResult:
    """Normal vector transported along a segment, renormalized at events.

    Per event k the records give the form value just before and just
    after the collision in one common scale, then the running vector is
    rescaled to unit norm and the removed factor accumulates in
    ``log_scale``.  ``q_start``/``zz_start`` give the form and the
    squared z-norm at the start of the following free flight, in the
    renormalized scale, so each flight obeys
    q_pre[k+1] = q_start[k] - dt * zz_start[k] exactly.
    """

    times: np.ndarray
    q_pre: np.ndarray
    q_post: np.ndarray
    log_scale: np.ndarray
    q_start: np.ndarray
    zz_start: np.ndarray
    q_initial: float
    zz_initial: float
    final: NormalVector
    final_log_scale: float
    final_q: float


def propagate_normal(traj: TrajectorySegment, n0: NormalVector) -> NormalTransportResult:
    params = traj.params
    mw = params.mass_weights
    v0 = traj.initial.v.reshape(-1)
    for name, vec in (("z", n0.z), ("w", n0.w)):
        if abs((mw * vec) @ v0) > 1e-8 * max(1.0, float(np.abs(vec).max())):
            raise ValueError(f"normal component {name} not transverse to the velocity")
    z = np.array(n0.z)
    w = np.array(n0.w)
    log_scale = 0.0
    times, q_pre, q_post, logs, q_start, zz_start = [], [], [], [], [], []
    q_initial = float((mw * z) @ w)
    zz_initial = float((mw * z) @ z)
    for t_a, t_b, k, frame in _walk(traj):
        w = w - (t_b - t_a) * z
        if frame is None:
            break
        q_pre.append(float((mw * z) @ w))
        rw = frame.reflect(w)
        z = frame.reflect(z) - frame.scatter_post(rw)
        w = rw
        q_post.append(float((mw * z) @ w))
        scale = math.sqrt(float((mw * z) @ z + (mw * w) @ w))
        z /= scale
        w /= scale
        log_scale += math.log(scale)
        times.append(t_b)
        logs.append(log_scale)
        q_start.append(float((mw * z) @ w))
        zz_start.append(float((mw * z) @ z))
    return NormalTransportResult(
        times=np.array(times), q_pre=np.array(q_pre), q_post=np.array(q_post),
        log_scale=np.array(logs), q_start=np.array(q_start),
        zz_start=np.array(zz_start), q_initial=q_initial, zz_initial=zz_initial,
        final=NormalVector(z, w), final_log_scale=log_scale,
        final_q=float((mw * z) @ w))
