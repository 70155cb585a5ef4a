"""Transport of tangent and normal vectors along trajectories.

A tangent vector is a pair (dq, dv) of system vectors; free flight
shears dq by t*dv, and a collision acts by the mass-metric reflection
R in the contact normal plus a scattering term from the curvature of
the cylinder the pair meets on.  That curvature lives only along the
cylinder's base circle, so the term is rank one on the colliding
pair's rows, along a tangent the collision table computes once per
event.  With every operator expressed in the mass metric the
transported pair is exactly the derivative of the flow map in plain
phase coordinates, which is what the finite difference tests check.

Every walk follows one flight rule: a vector at t inside a flight from
t_a is (dq + (t - t_a) dv, dv) of the flight's start vector, never
chained through earlier stops, so walks that stop at equal times agree
bit for bit.

Normal vectors (z, w) transport by the adjoint (inverse-transpose)
rule: w is the configuration component, z the momentum-like one, and
the form <z, w> never increases along the flow.  The tangent map is
symplectic for <dq, dv'> - <dq', dv> in the mass metric, so its
inverse transpose is the map itself turned by that form: a normal
vector moves as the tangent vector (dq, dv) = (w, -z) does, and the
normal transport reuses the tangent's flight and collision steps
instead of a collision rule of its own.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NumericalFailureError, SingularSegmentError,
                     TangentialFrameError)
from .events import TrajectorySegment, _event_error, _frozen
from .geometry import SystemParams, mass_inner


def _freeze_pair(obj, a: str, b: str) -> None:
    """Store fields a and b as read-only flat float copies of one length."""
    x, y = (np.array(getattr(obj, f), dtype=float).reshape(-1) for f in (a, b))
    if x.shape != y.shape:
        raise ValueError(f"{a} and {b} must have equal length")
    for name, arr in ((a, x), (b, y)):
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class TangentVector:
    """Flattened (dq, dv) pair, length 2N each."""

    dq: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        _freeze_pair(self, "dq", "dv")


@dataclass(frozen=True)
class NormalVector:
    """Flattened (z, w) pair transported by the adjoint rule."""

    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        _freeze_pair(self, "z", "w")


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


# Events per slice of the collision table: each slice's temporaries,
# Python rows and stack of 8x8 blocks stay a few hundred kB however long
# the segment is.
_TABLE_CHUNK = 256


class _CollisionTable:
    """Per-event collision data of one segment, one slice at a time.

    ``row`` gives an event's frame data as Python numbers, the form the
    frames compute with: the pair, mi, mj, s, the base radius, cos_pre
    and cos_phi, then u, perp, the slid tangent and w, the incoming
    relative velocity.  The slid tangent is the base-circle tangent perp
    slid along u until it is transverse to w; the event's scattering
    term acts along it.  The event's tangent map acts on the colliding
    pair's eight rows of a (4N, m) stack in mass-orthonormal coordinates
    (dq rows first) as the 8x8 ``block`` [[A, 0], [B, A]], with A the
    reflection and B = A S the pre-collision scattering: the pair-local
    collision map of Dellago, Posch & Hoover (PRE 53, 1485, 1996).

    ``_load`` computes a slice of ``_TABLE_CHUNK`` events in one
    vectorised pass on first use, by the same elementwise IEEE operations
    as an event-by-event evaluation, so every frame reads the bits it
    would compute on its own.  Only the slice last asked for is kept, so
    a forward walk holds one slice at a time; its block stack is built on
    the first ``block`` request, so walks that only apply the operators
    never pay for it.  Events within the tangency tolerance are masked:
    nothing is divided by their cosines, their slid tangents stay NaN,
    and flagged events' blocks stay NaN too.  Block stacks and ``rows``
    arrays are read-only, since every frame of the table shares them.
    The walker reads the event times and flags from the lists ``times``
    and ``flagged``, and the segment's ``singular`` from here too.
    """

    def __init__(self, traj: TrajectorySegment):
        self.params = traj.params
        self.tangency_tol = traj.params.tolerances.tangency_tol
        self.pair, self.u, self.flags = traj.ev_pair, traj.ev_u, traj.ev_flags
        self.cosphi = traj.ev_cosphi
        self.v_pre, self.v_post = traj.ev_v_pre, traj.ev_v_post
        self.times, self.flagged = traj.ev_t.tolist(), traj.ev_flags.tolist()
        self.singular = any(self.flagged)
        self._rows, self._start = {}, -1

    def _load(self, k: int) -> int:
        """Hold event k's slice, computing it unless held; return its start.

        cos_pre is the engine's recorded ``ev_cosphi``, -(u . w) / s from
        the same floats, so (u . w) / s over cos_pre is exactly -1 and the
        frame's scattering, which projects along w by that ratio, sends
        v_pre to exact zero."""
        a = k - k % _TABLE_CHUNK
        if a == self._start:
            return a
        ev = slice(a, a + _TABLE_CHUNK)
        i, j = self.pair[ev].T
        at = np.arange(len(i))
        mi, mj = self.params.mass_array[i], self.params.mass_array[j]
        u, cos_pre = self.u[ev], self.cosphi[ev]
        w = self.v_pre[ev][at, i] - self.v_pre[ev][at, j]
        w_post = self.v_post[ev][at, i] - self.v_post[ev][at, j]
        s = np.sqrt(1.0 / mi + 1.0 / mj)
        base = 2.0 * self.params.radius * np.sqrt(mi * mj / (mi + mj))
        cos_phi = (u[:, 0] * w_post[:, 0] + u[:, 1] * w_post[:, 1]) / s
        perp = np.stack([-u[:, 1], u[:, 0]], axis=1)
        # t = perp + u (w . perp) / (s cos_pre)
        ok = np.minimum(cos_pre, cos_phi) > self.tangency_tol
        slid = np.full((len(i), 2), np.nan)
        uo, po, wo = u[ok], perp[ok], w[ok]
        slid[ok] = po + uo * ((wo[:, 0] * po[:, 0] + wo[:, 1] * po[:, 1])
                              / (s[ok] * cos_pre[ok]))[:, None]
        self._lines = list(zip(i.tolist(), j.tolist(), *np.column_stack(
            [mi, mj, s, base, cos_pre, cos_phi, u, perp, slid, w]).T.tolist()))
        ok &= self.flags[ev] == 0
        self._start, self._stack = a, None
        self._slice = (ok, mi, mj, s, base, cos_phi, u, slid)
        return a

    def row(self, k: int) -> tuple:
        """Event k as one flat tuple of Python numbers (see the class
        docstring for the order), read from its slice's rows."""
        a = self._load(k)
        return self._lines[k - a]

    def rows(self, i: int, j: int) -> np.ndarray:
        """dq then dv rows of disks i and j in a (4N, m) stack."""
        out = self._rows.get((i, j))
        if out is None:
            i2, j2, n2 = 2 * i, 2 * j, 2 * self.params.n
            out = self._rows[(i, j)] = _frozen(np.array(
                [i2, i2 + 1, j2, j2 + 1,
                 n2 + i2, n2 + i2 + 1, n2 + j2, n2 + j2 + 1]))
        return out

    def block(self, k: int) -> np.ndarray:
        """Read-only view of event k's 8x8 block in its slice's stack."""
        a = self._load(k)
        if self._stack is None:
            ok, *arrays = self._slice
            low = np.full((len(ok), 4, 8), np.nan)
            low[ok] = _blocks(*(x[ok] for x in arrays))
            stack = np.zeros((len(ok), 8, 8))
            stack[:, 4:] = low
            stack[:, :4, :4] = low[:, :, 4:]
            self._stack = _frozen(stack)
        return self._stack[k - a]


def _blocks(mi, mj, s, base, cos_phi, u, t):
    """Lower halves [B, A] of the 8x8 blocks of events given as arrays,
    one entry (or row of u and of the slid tangent t) per event."""
    ri, rj = np.sqrt(mi)[:, None], np.sqrt(mj)[:, None]
    # unit contact normal in scaled pair coordinates; A = I - 2 n n^T
    nh = np.concatenate([rj * u, -ri * u], axis=1) / np.sqrt(mi + mj)[:, None]
    refl = np.eye(4) - 2.0 * nh[:, :, None] * nh[:, None, :]
    # S = c t t^T along the slid tangent t
    ct = np.concatenate([t / ri, -t / rj], axis=1)
    coef = 2.0 * cos_phi / (s * s * base)
    act = ct - 2.0 * nh * (nh * ct).sum(axis=1)[:, None]
    low = np.empty((len(mi), 4, 8))
    low[:, :, :4] = coef[:, None, None] * act[:, :, None] * ct[:, None, :]
    low[:, :, 4:] = refl
    return low


def _table(traj: TrajectorySegment) -> _CollisionTable:
    """The segment's collision table, built on first use and kept on the
    segment outside its dataclass fields, so ``simulate`` never builds
    one and a copy made with ``dataclasses.replace`` builds its own."""
    table = traj.__dict__.get("_collision_table")
    if table is None:
        table = _CollisionTable(traj)
        object.__setattr__(traj, "_collision_table", table)
    return table


class CollisionFrame:
    """Operators of one collision in the mass metric.

    The disks meet on a cylinder whose base circle, of radius
    ``base_radius``, lies in the pair's relative coordinate, so the
    scattering term is rank one and acts on rows i and j alone: it
    reads a pre-collision vector's pair difference d = x_i - x_j,
    projects it onto the contact line along the incoming relative
    velocity, and writes a multiple of the event's one slid tangent
    back.  ``scatter_amplitude`` gives that multiple k, and the term's
    form <U, S U> on a mass-orthonormal basis U is k k^T / kappa, kappa =
    2 cos(phi) / base_radius.  The outgoing side needs no rule of its
    own: its term is the reflection of the incoming term of the
    reflected vector.
    ``reflect`` is the mass-metric reflection R in the contact normal.
    All apply methods accept a flat vector or a (2N, k) stack, by one
    code path that reads and writes only the pair's four entries (rows).

    A frame reads its table row (see ``_CollisionTable.row``) into its
    slots when it is built: the pair, the six scalars and the vectors'
    entries as Python numbers, which the apply methods compute with.
    ``v_pre`` and ``v_post`` are read-only array views of the table's
    shared storage.  ``rows`` and ``block`` give its pair-block map on
    (4N, m) stacks in mass-orthonormal coordinates (see
    ``_CollisionTable``); ``rows`` comes from a per-pair cache and
    ``block`` is a view into its slice's stack.
    """

    __slots__ = ("_table", "_k", "i", "j", "mi", "mj", "s", "base_radius",
                 "cos_pre", "cos_phi", "_ux", "_uy", "_px", "_py", "_tx", "_ty",
                 "_wx", "_wy")

    def __init__(self, table: _CollisionTable, k: int):
        self._table, self._k = table, k
        (self.i, self.j, self.mi, self.mj, self.s, self.base_radius,
         self.cos_pre, self.cos_phi, self._ux, self._uy, self._px, self._py,
         self._tx, self._ty, self._wx, self._wy) = table.row(k)
        if min(self.cos_phi, self.cos_pre) <= table.tangency_tol:
            raise TangentialFrameError(
                f"collision of ({self.i}, {self.j}) is tangential: "
                f"cos_phi = {self.cos_phi:.3g}")

    v_pre = property(lambda f: f._table.v_pre[f._k].reshape(-1))
    v_post = property(lambda f: f._table.v_post[f._k].reshape(-1))

    @property
    def rows(self):
        """dq then dv rows of disks i and j in a (4N, m) stack."""
        return self._table.rows(self.i, self.j)

    @property
    def block(self):
        """8x8 map [[A, 0], [B, A]] of the collision on ``rows``."""
        return self._table.block(self._k)

    def reflect(self, x):
        # Impulse form, replicating the elastic exchange operation for
        # operation: reflect(v_pre) reproduces v_post bitwise, so the
        # flow direction transports through collisions without noise
        # for downstream hyperbolicity to amplify.  The pair differences
        # x_i - x_j are exact zero on equal blocks, which keeps vectors
        # flat along the cylinder generator exactly flat.
        i2, j2 = 2 * self.i, 2 * self.j
        ux, uy = self._ux, self._uy
        rad = ux * (x[i2] - x[j2]) + uy * (x[i2 + 1] - x[j2 + 1])
        g = 2.0 * rad / (self.mi + self.mj)
        gi, gj = self.mj * g, self.mi * g
        out = np.array(x)
        out[i2] -= gi * ux
        out[i2 + 1] -= gi * uy
        out[j2] += gj * ux
        out[j2 + 1] += gj * uy
        return out

    def scatter_amplitude(self, xq):
        """Amplitude k of a pre-collision dq's scattering term along the
        slid tangent.  Projecting d along the incoming relative velocity w
        divides (u . d) / s by the very cosine the table computed from w,
        so v_pre, and with it the flow direction, scatters to exact zero."""
        i2, j2 = 2 * self.i, 2 * self.j
        ux, uy, px, py = self._ux, self._uy, self._px, self._py
        wx, wy = self._wx, self._wy
        d0, d1 = xq[i2] - xq[j2], xq[i2 + 1] - xq[j2 + 1]
        c = (ux * d0 + uy * d1) / self.s / self.cos_pre
        return ((2.0 * self.cos_phi) * (px * (d0 + wx * c) + py * (d1 + wy * c))
                / (self.s * self.base_radius))

    def scatter_pre(self, xq):
        """Scattering term 2 cos(phi) V* K V: amplitude times slid tangent."""
        i2, j2 = 2 * self.i, 2 * self.j
        tx, ty = self._tx, self._ty
        amp = self.scatter_amplitude(xq)
        ci, cj = self.mi * self.s, self.mj * self.s
        out = np.zeros(np.shape(xq))
        out[i2], out[i2 + 1] = tx * amp / ci, ty * amp / ci
        out[j2], out[j2 + 1] = -(tx * amp) / cj, -(ty * amp) / cj
        return out


def frame_for_event(traj: TrajectorySegment, k: int) -> CollisionFrame:
    """Frame of event k, read from the segment's collision table."""
    return CollisionFrame(_table(traj), k)


def _apply_event(frame, xq, xv):
    """Push (xq, xv) through one collision (incoming side given)."""
    return frame.reflect(xq), frame.reflect(xv + frame.scatter_pre(xq))


def _frame_failure(traj: TrajectorySegment, k: int,
                   what: str) -> NumericalFailureError:
    """Typed failure naming event k of the record, its time and its pair."""
    return _event_error(NumericalFailureError, what, k, float(traj.ev_t[k]),
                        *traj.ev_pair[k].tolist())


# numpy error state of a walk that carries vectors, entered once around
# its loop (never inside ``_walk``, which yields): an overflow leaves an
# inf or NaN for ``_check_finite`` to refuse, not a RuntimeWarning.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _check_finite(traj: TrajectorySegment, k: int, *vectors):
    """Refuse a transport whose vectors left the floats at event k."""
    for x in vectors:
        if not np.isfinite(x).all():
            raise _frame_failure(traj, k, "non-finite transported vector")


def _walk(traj: TrajectorySegment, t_from: float | None = None,
          t_to: float | None = None, *, flagged: bool = False):
    """The one loop that crosses collisions, as a sequence of flights.

    Yields (t_a, t_b, k, frame) per flight from t_a to t_b: a flight
    that ends on event k carries its frame, built once, and the closing
    flight to t_to (default: the segment end) has k = frame = None.
    Callers apply their own flight and collision arithmetic.

    Without t_from the walk starts from the initial state and crosses
    every event up to t_to, one at t = 0 included.  With t_from, vectors
    sit on the outgoing side of an event time (bisect's "right"): the
    walk crosses t_from < t_k <= t_to in order, and ends on the outgoing
    side of an event at t_to.  Segments with flagged (tangential or
    double) events are refused unless ``flagged``, which yields their
    flights with frame None.  A t_to before t_from, or either outside
    [0, t_end] (NaN included), raises ``ValueError``.  The event times,
    flags and ``singular`` come from the segment's collision table.
    """
    table = _table(traj)
    if table.singular and not flagged:
        raise SingularSegmentError(
            "segment carries singular events; transport refused")
    times, t_end = table.times, traj.t_end
    if t_to is None:
        t_to = t_end
    if t_from is None:
        t_from, first = 0.0, 0
    else:
        first = bisect.bisect_right(times, t_from)
    if not (0.0 <= t_from <= t_end and 0.0 <= t_to <= t_end):
        raise ValueError(f"[{t_from:g}, {t_to:g}] outside segment span")
    if t_to < t_from:
        raise ValueError(f"walks run forward only: {t_to:g} < {t_from:g}")
    t = t_from
    for k in range(first, bisect.bisect_right(times, t_to)):
        t_k = times[k]
        yield t, t_k, k, None if table.flagged[k] else frame_for_event(traj, k)
        t = t_k
    yield t, t_to, None, None


def transport_between(traj: TrajectorySegment, xq, xv, t_from: float, t_to: float):
    """Carry stacked (xq, xv) payloads forward from t_from to t_to.

    Vectors are understood in plain phase coordinates at the source
    time (post-collision side at an event time) and arrive in plain
    coordinates at the target time.  ``_walk`` refuses a t_to before
    t_from with ``ValueError``.  The walk runs under ``_QUIET``.
    """
    with np.errstate(**_QUIET):
        for t_a, t_b, k, frame in _walk(traj, t_from, t_to):
            xq = xq + (t_b - t_a) * xv
            if frame is not None:
                xq, xv = _apply_event(frame, xq, xv)
                _check_finite(traj, k, xq, xv)
    return xq, xv


def _carry(traj: TrajectorySegment, dq, dv, t_to: float | None = None):
    """Carry (dq, dv) forward from the initial state, one flight at a time.

    Returns the flights of ``_walk`` stacked: their ends t_a and t_b,
    the flat (dq, dv) at each start as rows of sq and sv, and per
    collision the term scatter_pre(dq_end) it adds to dv.  Each outgoing
    vector is checked finite, under ``_QUIET``.
    """
    t_a, t_b, sq, sv, scatter = [], [], [dq], [dv], []
    with np.errstate(**_QUIET):
        for a, b, k, frame in _walk(traj, t_to=t_to):
            t_a.append(a)
            t_b.append(b)
            if frame is None:
                break
            dq_end = dq + (b - a) * dv
            scatter.append(frame.scatter_pre(dq_end))
            dq, dv = frame.reflect(dq_end), frame.reflect(dv + scatter[-1])
            _check_finite(traj, k, dq, dv)
            sq.append(dq)
            sv.append(dv)
    sq, sv = np.array(sq), np.array(sv)
    return (np.array(t_a), np.array(t_b), sq, sv,
            np.array(scatter, dtype=float).reshape(len(scatter), sq.shape[1]))


def propagate_tangent(traj: TrajectorySegment, tau: TangentVector,
                      times) -> list[TangentVector]:
    """Transport tau from the segment start to each requested time.

    Times must be nondecreasing.  At an event time the output is on
    the outgoing side.  Each stop is taken from its flight's start by
    the flight rule, in one stacked step, so the stops carry the bits
    of ``q_evolution_audit``'s rows at the same times.  The vectors' dq
    and dv are read-only rows of one stacked array per component.
    """
    times = np.array([float(t) for t in times])
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if np.any(np.diff(times, prepend=0.0) < 0.0):
        raise ValueError("times must be nondecreasing and nonnegative")
    if not times.size:
        return []
    t_a, _, sq, sv, _ = _carry(traj, tau.dq, tau.dv, float(times[-1]))
    # the flight holding each stop; at an event time, the outgoing one
    f = np.searchsorted(traj.ev_t, times, side="right")
    dv = sv[f]
    return _tangent_rows(sq[f] + (times - t_a[f])[:, None] * dv, dv)


def _tangent_rows(dq: np.ndarray, dv: np.ndarray) -> list[TangentVector]:
    """One TangentVector per row of stacked (rows, 2N) arrays.

    The arrays are made read-only and each vector holds row views of
    them, so no row is copied as ``TangentVector(dq, dv)`` would.
    """
    dq.setflags(write=False)
    dv.setflags(write=False)
    rows = []
    for a, b in zip(dq, dv):
        tau = object.__new__(TangentVector)
        tau.__dict__.update(dq=a, dv=b)
        rows.append(tau)
    return rows


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
    # (w, -z) is a tangent vector: the tangent's flight and collision
    # steps move it (see the module docstring)
    for t_a, t_b, k, frame in _walk(traj):
        w = w - (t_b - t_a) * z
        if frame is None:
            break
        q_pre.append(float((mw * z) @ w))
        w, mz = _apply_event(frame, w, -z)
        z = -mz
        q_post.append(float((mw * z) @ w))
        scale = math.sqrt(float((mw * z) @ z + (mw * w) @ w))
        z /= scale
        w /= scale
        _check_finite(traj, k, z, w)
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
