"""Event-driven collision dynamics.

Free flight is exact; the only events are binary disk collisions,
located as roots of the pairwise distance condition over candidate
lattice images and resolved by elastic momentum exchange along the
contact line.  Prediction works in time chunks: every pair is solved
against all lattice images reachable within the chunk horizon, the
earliest admissible root per pair enters a priority queue, and after
each collision only the pairs touching the two participants are
re-predicted.  Ties in the queue break lexicographically on the pair.

An image l is reachable within horizon h when |x| <= |w|*h + 2r, where
x = dq + l is the lifted relative position and w the relative
velocity: a contact at 0 <= t0 <= h has |x + w*t0| = 2r, so by the
triangle inequality |x| <= 2r + |w|*t0, and a root clamped up to 0
belongs to a pair that overlaps now, |x| < 2r.  No image beyond that
bound can hold an admissible root, so the root solve visits only the
images within it.
"""
from __future__ import annotations

import heapq
import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, StateCorruptionError
from .geometry import PhaseState, SystemParams, validate_state

TANGENTIAL_BIT = 1
DOUBLE_BIT = 2

FLAG_REGULAR = "regular"
FLAG_TANGENTIAL = "tangential"
FLAG_DOUBLE = "double"

# Numerical guards, in trajectory time units.  A freshly resolved pair
# cannot re-collide sooner than _SELF_GUARD (it must first travel to
# another lattice image); roots this small for the same pair are
# root-finder echoes of the contact just resolved.
_SELF_GUARD = 1e-9
_NEG_ROOT_SLACK = 1e-9
_CASCADE_LIMIT = 64
# Absolute slack on the reach bound of _earliest_root, in length units.
# It covers the roundoff of |x + w*t0| at an accepted root.  Near
# grazing the Newton polish divides by a slope of about
# sqrt(discriminant); for a nonzero discriminant that keeps the error
# below about 1e-8.  (At a discriminant of exactly zero the polish step
# has no useful bound, and no finite slack would cover it.)
_REACH_SLACK = 1e-6


def _flag_label(bits: int) -> str:
    if bits & DOUBLE_BIT:
        return FLAG_DOUBLE
    if bits & TANGENTIAL_BIT:
        return FLAG_TANGENTIAL
    return FLAG_REGULAR


def _earliest_root(dx, dy, wx, wy, horizon, two_r, guard):
    """Earliest admissible contact of one pair within the horizon.

    The relative position dx, dy may be any lift; the lattice images
    examined are those with |x| <= |w|*h + 2r (plus a roundoff slack),
    where x = (dx + lx, dy + ly), w = (wx, wy) and h the horizon.  The
    bound is exact: a root t0 in [0, h] puts x + w*t0 on the contact
    circle |x + w*t0| = 2r, so |x| <= 2r + |w|*t0; a root in
    [-_NEG_ROOT_SLACK, 0) of an approaching pair means the disks overlap
    now, |x| < 2r.  No image outside the bound can hold an admissible
    root.
    Returns (t, lx, ly, discriminant) or None.  ``guard`` is the lower
    time cutoff; small negative roots (a contact within rounding of
    "now", still approaching) clamp to zero when the guard admits them.
    """
    a = wx * wx + wy * wy
    if a == 0.0 or horizon <= 0.0:
        return None
    four_r2 = two_r * two_r
    reach = math.sqrt(a) * horizon + two_r + _REACH_SLACK
    reach2 = reach * reach
    best = None
    for lx in range(math.ceil(-reach - dx), math.floor(reach - dx) + 1):
        x = dx + lx
        xx = x * x
        if xx > reach2:
            continue
        for ly in range(math.ceil(-reach - dy), math.floor(reach - dy) + 1):
            y = dy + ly
            rr = xx + y * y
            if rr > reach2:
                continue
            b = x * wx + y * wy
            if b >= 0.0:
                continue  # receding from this image for all t >= 0
            c = rr - four_r2
            disc = b * b - a * c
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            t0 = c / (sq - b)  # stable smaller root; -b > 0 here
            slope = b + a * t0
            if slope != 0.0:
                f = (x + wx * t0) ** 2 + (y + wy * t0) ** 2 - four_r2
                t0 -= f / (2.0 * slope)
            if t0 < 0.0:
                if t0 < -_NEG_ROOT_SLACK:
                    continue
                t0 = 0.0
            if t0 <= guard or t0 > horizon:
                continue
            if best is None or (t0, lx, ly) < (best[0], best[1], best[2]):
                best = (t0, lx, ly, disc)
    return best


def resolve_collision(state: PhaseState, i: int, j: int, image, params: SystemParams,
                      *, contact_tol: float = 1e-9) -> PhaseState:
    """Elastic exchange along the contact line; positions unchanged."""
    if i == j:
        raise ValueError("a disk cannot collide with itself")
    i, j = min(i, j), max(i, j)
    two_r = 2.0 * params.radius
    d = state.q[i] - state.q[j] + np.asarray(image, dtype=float)
    dist = math.hypot(d[0], d[1])
    if abs(dist - two_r) > contact_tol:
        raise ValueError(
            f"disks ({i}, {j}) not in contact: distance {dist:.17g} vs 2r = {two_r:.17g}")
    ux, uy = d[0] / dist, d[1] / dist
    dv = state.v[i] - state.v[j]
    rad = float(dv[0] * ux + dv[1] * uy)
    if rad > 1e-12:
        raise ValueError(f"pair ({i}, {j}) separating: radial velocity {rad:.3g} > 0")
    mi, mj = params.masses[i], params.masses[j]
    g = 2.0 * rad / (mi + mj)
    v = np.array(state.v)
    v[i, 0] -= mj * g * ux
    v[i, 1] -= mj * g * uy
    v[j, 0] += mi * g * ux
    v[j, 1] += mi * g * uy
    return PhaseState(state.q, v)


@dataclass(frozen=True)
class TrajectorySegment:
    """A simulated stretch [0, T] with its full event record.

    Per-event arrays carry everything needed to replay the trajectory
    or drive tangent-space transport: time, pair, lattice image,
    contact direction, angle, flags, and snapshots of positions and of
    all velocities just before and just after the exchange.

    ``simulate`` stores the velocities once, as one (k + 1, N, 2) array
    whose row 0 is the initial velocities and row m + 1 the velocities
    leaving event m; ``ev_v_pre`` and ``ev_v_post`` are its ``[:-1]``
    and ``[1:]`` views.  Every record array is read-only, so nothing
    can write through one view into the other; copy one to change it.
    """

    initial: PhaseState
    final: PhaseState
    t_end: float
    params: SystemParams
    ev_t: np.ndarray        # (k,)
    ev_pair: np.ndarray     # (k, 2) int
    ev_image: np.ndarray    # (k, 2) int
    ev_u: np.ndarray        # (k, 2)
    ev_cosphi: np.ndarray   # (k,)
    ev_flags: np.ndarray    # (k,) uint8 bitmask
    ev_q: np.ndarray        # (k, N, 2) positions at contact (wrapped)
    ev_v_pre: np.ndarray    # (k, N, 2)
    ev_v_post: np.ndarray   # (k, N, 2)
    max_energy_drift: float
    max_momentum_drift: float
    stopped_by_count: bool = False

    @property
    def n_events(self) -> int:
        return int(self.ev_t.shape[0])

    @property
    def singular(self) -> bool:
        return bool(np.any(self.ev_flags != 0))

    @property
    def min_cos_phi(self) -> float:
        return float(self.ev_cosphi.min()) if self.n_events else math.inf

    def state_at(self, t: float) -> PhaseState:
        """State at time t in [0, T]; at an event time, post-collision."""
        if not 0.0 <= t <= self.t_end:
            raise ValueError(f"t = {t:g} outside [0, {self.t_end:g}]")
        idx = int(np.searchsorted(self.ev_t, t, side="right")) - 1
        if idx < 0:
            q0, v, t0 = self.initial.q, self.initial.v, 0.0
        else:
            q0, v, t0 = self.ev_q[idx], self.ev_v_post[idx], float(self.ev_t[idx])
        q = (q0 + (t - t0) * v) % 1.0
        q[q >= 1.0] -= 1.0
        return PhaseState(q, v)


def reverse_state(state: PhaseState) -> PhaseState:
    """Velocity involution; running it, simulating, and reversing again
    retraces a trajectory backwards."""
    return PhaseState(state.q, -state.v)


def symbolic_sequence(traj: TrajectorySegment) -> tuple[tuple[int, int], ...]:
    """Time-ordered colliding pairs; tangential events are omitted."""
    out = []
    for k in range(traj.n_events):
        if int(traj.ev_flags[k]) & TANGENTIAL_BIT:
            continue
        out.append((int(traj.ev_pair[k, 0]), int(traj.ev_pair[k, 1])))
    return tuple(out)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _disk_rows(bx: array, by: array, rows: int, n: int) -> np.ndarray:
    """Read-only (rows, N, 2) array from flat x and y buffers."""
    out = np.empty((rows, n, 2))
    out[:, :, 0] = np.frombuffer(bx).reshape(rows, n)
    out[:, :, 1] = np.frombuffer(by).reshape(rows, n)
    return _frozen(out)


def simulate(state: PhaseState, t_max: float, params: SystemParams, *,
             max_events: int | None = None) -> TrajectorySegment:
    """Evolve the state for t_max time units (or until max_events).

    Energy and momentum are drift-checked at every event against the
    entry values; relative energy drift or absolute momentum drift
    beyond 1e-9 aborts with a numerical failure.
    """
    if t_max < 0.0:
        raise ValueError("t_max must be nonnegative; reverse via reverse_state")
    validate_state(state, params, require_shell=False)
    n = params.n
    m = [float(x) for x in params.masses]
    two_r = 2.0 * params.radius
    tol = params.tolerances
    contact_tol = tol.collision_root_tol

    qx = [float(x) for x in state.q[:, 0]]
    qy = [float(x) for x in state.q[:, 1]]
    vx = [float(x) for x in state.v[:, 0]]
    vy = [float(x) for x in state.v[:, 1]]

    e0 = 0.5 * sum(m[k] * (vx[k] * vx[k] + vy[k] * vy[k]) for k in range(n))
    px0 = sum(m[k] * vx[k] for k in range(n))
    py0 = sum(m[k] * vy[k] for k in range(n))
    e_scale = max(abs(e0), 1e-300)
    max_e_drift = 0.0
    max_p_drift = 0.0

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs_of = [[] for _ in range(n)]
    for (i, j) in pairs:
        pairs_of[i].append((i, j))
        pairs_of[j].append((i, j))

    rows_t, rows_pair, rows_image, rows_u, rows_cos, rows_flag = [], [], [], [], [], []
    # positions and velocities go to flat per-coordinate buffers, N
    # floats per event each; the velocity buffers open with the initial
    # velocities, event 0's incoming ones
    rec_qx, rec_qy = array("d"), array("d")
    rec_vx, rec_vy = array("d", vx), array("d", vy)

    counters = [0] * n
    heap: list[tuple] = []

    def push_pair(i, j, t_now, t_block, guard):
        dx, dy = qx[i] - qx[j], qy[i] - qy[j]
        wx, wy = vx[i] - vx[j], vy[i] - vy[j]
        hit = _earliest_root(dx, dy, wx, wy, t_block - t_now, two_r, guard)
        if hit is not None:
            heapq.heappush(heap, (t_now + hit[0], i, j, hit[1], hit[2],
                                  counters[i], counters[j]))

    def chunk_length():
        vmax = max(math.hypot(vx[k], vy[k]) for k in range(n))
        if vmax <= 0.0:
            return 1.0
        return min(1.0, max(0.05, 0.25 / vmax))

    t_now = 0.0
    t_block = min(chunk_length(), t_max)
    for (i, j) in pairs:
        push_pair(i, j, 0.0, t_block, guard=-1.0)

    n_events = 0
    cascade = 0
    last_t = -1.0
    stopped = False

    while True:
        ev = None
        while heap:
            cand = heapq.heappop(heap)
            if counters[cand[1]] == cand[5] and counters[cand[2]] == cand[6]:
                ev = cand
                break
        if ev is None:
            dt = t_block - t_now
            for k in range(n):
                x = (qx[k] + dt * vx[k]) % 1.0
                y = (qy[k] + dt * vy[k]) % 1.0
                qx[k] = x if x < 1.0 else 0.0
                qy[k] = y if y < 1.0 else 0.0
            t_now = t_block
            if t_block >= t_max:
                break
            t_block = min(t_now + chunk_length(), t_max)
            for (i, j) in pairs:
                push_pair(i, j, t_now, t_block, guard=0.0)
            continue

        t_ev, i, j = ev[0], ev[1], ev[2]
        dt = t_ev - t_now
        for k in range(n):
            x = (qx[k] + dt * vx[k]) % 1.0
            y = (qy[k] + dt * vy[k]) % 1.0
            qx[k] = x if x < 1.0 else 0.0
            qy[k] = y if y < 1.0 else 0.0
        t_now = t_ev

        # contact vector from the wrapped positions; at contact the
        # touching image is a minimal one, so a 3x3 stencil suffices
        dx0, dy0 = qx[i] - qx[j], qy[i] - qy[j]
        wx, wy = vx[i] - vx[j], vy[i] - vy[j]
        best = None
        kx0, ky0 = -math.floor(dx0), -math.floor(dy0)
        for lx in (kx0 - 1, kx0, kx0 + 1):
            x = dx0 + lx
            for ly in (ky0 - 1, ky0, ky0 + 1):
                y = dy0 + ly
                r2 = x * x + y * y
                if best is None or (r2, lx, ly) < best:
                    best = (r2, lx, ly)
        _, lx, ly = best
        cx, cy = dx0 + lx, dy0 + ly

        # safety polish: re-center the contact on the current flight
        for _ in range(3):
            dist = math.hypot(cx, cy)
            gap = dist - two_r
            if abs(gap) <= contact_tol:
                break
            slope = cx * wx + cy * wy
            if slope == 0.0:
                break
            tau = -(dist * dist - two_r * two_r) / (2.0 * slope)
            for k in range(n):
                qx[k] += tau * vx[k]
                qy[k] += tau * vy[k]
            t_now += tau
            t_ev = t_now
            cx, cy = qx[i] - qx[j] + lx, qy[i] - qy[j] + ly
        dist = math.hypot(cx, cy)
        if abs(dist - two_r) > 1e3 * contact_tol:
            raise StateCorruptionError(
                f"contact of ({i}, {j}) at t = {t_ev:.17g} off by "
                f"{dist - two_r:.3g}")

        ux, uy = cx / dist, cy / dist
        rad = wx * ux + wy * uy
        s_red = math.sqrt(1.0 / m[i] + 1.0 / m[j])
        cos_phi = -rad / s_red

        g = 2.0 * rad / (m[i] + m[j])
        vx[i] -= m[j] * g * ux
        vy[i] -= m[j] * g * uy
        vx[j] += m[i] * g * ux
        vy[j] += m[i] * g * uy

        flag = TANGENTIAL_BIT if cos_phi <= tol.tangency_tol else 0
        if rows_t and t_ev - rows_t[-1] <= tol.double_event_tol and \
                {i, j} & set(rows_pair[-1]):
            flag |= DOUBLE_BIT
            rows_flag[-1] |= DOUBLE_BIT
        rows_t.append(t_ev)
        rows_pair.append((i, j))
        rows_image.append((lx, ly))
        rows_u.append((ux, uy))
        rows_cos.append(cos_phi)
        rows_flag.append(flag)
        rec_qx.extend(qx)
        rec_qy.extend(qy)
        rec_vx.extend(vx)
        rec_vy.extend(vy)

        e = 0.5 * sum(m[k] * (vx[k] * vx[k] + vy[k] * vy[k]) for k in range(n))
        px = sum(m[k] * vx[k] for k in range(n))
        py = sum(m[k] * vy[k] for k in range(n))
        e_drift = abs(e - e0) / e_scale
        p_drift = max(abs(px - px0), abs(py - py0))
        max_e_drift = max(max_e_drift, e_drift)
        max_p_drift = max(max_p_drift, p_drift)
        if e_drift > 1e-9 or p_drift > 1e-9:
            raise NumericalFailureError(
                f"conservation drift at event {n_events} (t = {t_ev:.17g}): "
                f"energy {e_drift:.3g}, momentum {p_drift:.3g}")

        counters[i] += 1
        counters[j] += 1
        n_events += 1
        cascade = cascade + 1 if t_ev == last_t else 0
        last_t = t_ev
        if cascade > _CASCADE_LIMIT:
            raise NumericalFailureError(
                f"collision cascade: {cascade} events at t = {t_ev:.17g}")
        if max_events is not None and n_events >= max_events:
            stopped = True
            break
        for (a, b) in pairs_of[i]:
            push_pair(a, b, t_now, t_block, _SELF_GUARD if (a, b) == (i, j) else -1.0)
        for (a, b) in pairs_of[j]:
            if a != i:
                push_pair(a, b, t_now, t_block, -1.0)

    t_end = t_now
    final = PhaseState(np.column_stack([qx, qy]), np.column_stack([vx, vy]))
    k = n_events
    # each buffer pair is freed before the next array is built
    ev_q = _disk_rows(rec_qx, rec_qy, k, n)
    del rec_qx, rec_qy
    # velocities change only at events, so each event's incoming
    # velocities are the previous event's outgoing ones: one array of
    # k + 1 rows serves both sides
    ev_v = _disk_rows(rec_vx, rec_vy, k + 1, n)
    del rec_vx, rec_vy
    return TrajectorySegment(
        initial=state, final=final, t_end=t_end, params=params,
        ev_t=_frozen(np.array(rows_t, dtype=float)),
        ev_pair=_frozen(np.array(rows_pair, dtype=np.int64).reshape(k, 2)),
        ev_image=_frozen(np.array(rows_image, dtype=np.int64).reshape(k, 2)),
        ev_u=_frozen(np.array(rows_u, dtype=float).reshape(k, 2)),
        ev_cosphi=_frozen(np.array(rows_cos, dtype=float)),
        ev_flags=_frozen(np.array(rows_flag, dtype=np.uint8)),
        ev_q=ev_q,
        ev_v_pre=ev_v[:-1],
        ev_v_post=ev_v[1:],
        max_energy_drift=max_e_drift,
        max_momentum_drift=max_p_drift,
        stopped_by_count=stopped)


# --- event log round-trip -------------------------------------------------

# One line per event, keys in canonical_json's sorted order.
_EVENT_LINE = ('{"cos_phi":%s,"flag":"%s","i":%d,"j":%d,"l":[%d,%d],"t":%s,'
               '"u":[%s,%s],"v_i_post":[%s,%s],"v_i_pre":[%s,%s],'
               '"v_j_post":[%s,%s],"v_j_pre":[%s,%s]}\n')


def write_events_jsonl(traj: TrajectorySegment, path) -> None:
    """Write the event log as JSON lines, straight from the record arrays.

    Each line is the canonical JSON (sorted keys, 17-digit floats) of
    the event's time, pair i < j, lattice image l, contact direction u,
    cos_phi, flag label, and the pair's incoming and outgoing
    velocities.
    """
    from .serialize import fmt17
    rows = np.arange(traj.n_events)
    di, dj = traj.ev_pair[:, 0], traj.ev_pair[:, 1]
    floats = np.column_stack([
        traj.ev_cosphi, traj.ev_t, traj.ev_u,
        traj.ev_v_post[rows, di], traj.ev_v_pre[rows, di],
        traj.ev_v_post[rows, dj], traj.ev_v_pre[rows, dj]]).tolist()
    ints = np.column_stack([traj.ev_pair, traj.ev_image]).tolist()
    labels = map(_flag_label, traj.ev_flags.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        for f, (i, j, lx, ly), label in zip(floats, ints, labels):
            cos_phi, t, *vecs = map(fmt17, f)
            fh.write(_EVENT_LINE % (cos_phi, label, i, j, lx, ly, t, *vecs))


def read_events_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
