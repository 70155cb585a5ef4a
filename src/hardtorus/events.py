"""Event-driven collision dynamics.

Free flight is exact; the only events are binary disk collisions,
located as roots of the pairwise distance condition over candidate
lattice images and resolved by elastic momentum exchange along the
contact line.  The contact image of an event is the nearest image of
the wrapped positions, -rint(q_i - q_j) per axis, the rule of _screen
and geometry._pair_gaps; an exact half-integer tie goes to even, and
needs a disk touching two images of its partner at once, so 2r >= 1/2.
Prediction works in time chunks: every pair is solved against all
lattice images reachable within the chunk horizon, the earliest
admissible time per pair enters a priority queue, and after each
collision only the pairs touching the two participants are
re-predicted.  Ties in the queue break lexicographically on the pair.

An image l is reachable within horizon h when |x| <= |w|*h + 2r, where
x = dq + l is the lifted relative position and w the relative
velocity: a contact at 0 <= t0 <= h has |x + w*t0| = 2r, so by the
triangle inequality |x| <= 2r + |w|*t0, and a root clamped up to 0
belongs to a pair that overlaps now, |x| < 2r.  No image beyond that
bound can hold an admissible root, so the root solve visits only the
images within it.

Every prediction pass (the first, each chunk boundary, and the 2N - 3
re-predictions after an event) solves one candidate list of pairs.  A
list of at least _SCREEN_MIN_PAIRS pairs is first screened in one numpy
pass, which drops every pair whose nearest image lies beyond the solve's
reach, widened by a relative 1e-9.  After the event of (i, j) the screen
takes two disk rows, the differences of i and of j to every disk, and
masks the self entries and row j's copy of (i, j).  A chunk-boundary
sweep adds the line-of-approach test: below a reach of 1/2 the solve
visits the nearest image alone, and a root puts the line x + w*t within
2r + _REACH_SLACK of the origin, so a pair whose line passes farther is
dropped (see _screen).  The screens cannot change a result: a dropped
pair's solve would have returned None; the survivors are solved from
the same Python floats, horizon and guard as without the screen; no
numpy value reaches a solve, the queue or the record; and since queue
keys are distinct, the pop order does not depend on the push order.

At a chunk boundary every pair is solved with guard -1, so a pair that
touches and approaches at the boundary instant is found there.  Only a
pair resolved at that same instant keeps _SELF_GUARD, which refuses the
echo of its own contact.
"""
from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from itertools import chain, compress

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
# below about 1e-8.  At a discriminant of exactly zero the root is the
# tangency itself and is not polished.
_REACH_SLACK = 1e-6
# Candidate lists at least this long are screened before the root solve
# (see _screen); shorter ones go straight to it, where the numpy pass
# costs more than the solves it saves.  The rule is per list: the 2N - 3
# re-predictions after an event are screened from N = 14 on, the
# N(N - 1)/2 pairs of a sweep from N = 8.  In interleaved timings at
# N = 5-16, screened lists of 15-19 pairs ran 3-8 % slower, 21 pairs
# about even and 28 or more faster.
_SCREEN_MIN_PAIRS = 24
# Relative margin on the screen's reach, far above the roundoff by which
# its reach and the solve's can differ.
_SCREEN_MARGIN = 1e-9


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
    Returns the earliest admissible time or None; the event finds the
    image from the wrapped positions.  ``guard`` is the lower time
    cutoff; small negative roots (a contact within rounding of "now",
    still approaching) clamp to zero when the guard admits them.
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
            # at a graze (sq = 0) the slope is roundoff and a polish step
            # could move the root anywhere: keep the tangency c / (-b)
            if sq != 0.0 and slope != 0.0:
                f = (x + wx * t0) ** 2 + (y + wy * t0) ** 2 - four_r2
                t0 -= f / (2.0 * slope)
            if t0 < 0.0:
                if t0 < -_NEG_ROOT_SLACK:
                    continue
                t0 = 0.0
            if t0 <= guard or t0 > horizon:
                continue
            if best is None or t0 < best:
                best = t0
    return best


def _screen(d, w, horizon, two_r, line=False):
    """Mask of the pairs whose root solve can find a contact.

    ``d`` and ``w`` are complex arrays of relative positions (any lift)
    and relative velocities.  The nearest lattice image, d - rint(d) per
    axis, has the smallest |x| of all images, so when it lies beyond the
    solve's reach |w|*h + 2r + _REACH_SLACK every image does, and
    _earliest_root returns None.  The reach is widened by _SCREEN_MARGIN,
    so no pair the solve could accept is dropped.

    ``line`` adds the line-of-approach test.  Each axis of the nearest
    image lies in [-1/2, 1/2], so every other image is at least 1/2
    away, and below a widened reach of 1/2 the solve visits the nearest
    image alone.  An accepted root t0 puts x + w*t0 on the contact
    circle, up to a polish error well below _REACH_SLACK, so the line
    x + w*t passes within 2r + _REACH_SLACK of the origin:
    |Im(conj(x)*w)| <= |w|*(2r + _REACH_SLACK).  A pair whose line
    passes farther, widened by the same margin, is dropped; a pair whose
    reach is at least 1/2 is kept whatever its line.
    """
    x = d.view(np.float64)
    near = (x - np.rint(x)).view(np.complex128)
    widen = 1.0 + _SCREEN_MARGIN
    speed = np.abs(w)
    reach = speed * (horizon * widen) + (two_r + _REACH_SLACK) * widen
    keep = np.abs(near) <= reach
    if line:
        keep &= (reach >= 0.5) | (np.abs((near.conj() * w).imag)
                                  <= speed * ((two_r + _REACH_SLACK) * widen))
    return keep


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
        return PhaseState(_wrap(q0 + (t - t0) * v), v)


def _wrap(q: np.ndarray) -> np.ndarray:
    """Positions taken into [0, 1)^2.  A coordinate just below 0 rounds
    to 1.0 under % 1.0, and is taken to 0 instead."""
    q = q % 1.0
    q[q >= 1.0] = 0.0
    return q


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


def _event_error(cls, what: str, k: int, t: float, i: int, j: int):
    """Typed failure naming event k, its time and its pair."""
    return cls(f"{what} at event {k} (t = {t:.17g}, pair ({i}, {j}))")


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
    beyond 1e-9 aborts with a numerical failure.  A negative or
    non-finite t_max, or a max_events below 1, raises ValueError.
    """
    if not 0.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max!r}; "
                         "reverse via reverse_state")
    if max_events is not None and max_events < 1:
        raise ValueError(f"max_events must be at least 1, got {max_events!r}")
    validate_state(state, params)
    n = params.n
    m = [float(x) for x in params.masses]
    two_r = 2.0 * params.radius
    tol = params.tolerances
    contact_tol = tol.collision_root_tol

    qx = [float(x) for x in state.q[:, 0]]
    qy = [float(x) for x in state.q[:, 1]]
    vx = [float(x) for x in state.v[:, 0]]
    vy = [float(x) for x in state.v[:, 1]]

    # per-disk terms of the drift audit; a collision changes only its
    # pair's terms, and every sum runs over all disks in index order
    e_terms = [m[k] * (vx[k] * vx[k] + vy[k] * vy[k]) for k in range(n)]
    px_terms = [m[k] * vx[k] for k in range(n)]
    py_terms = [m[k] * vy[k] for k in range(n)]
    e0 = 0.5 * sum(e_terms)
    px0 = sum(px_terms)
    py0 = sum(py_terms)
    e_scale = max(abs(e0), 1e-300)
    max_e_drift = 0.0
    max_p_drift = 0.0

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # row a holds the pair of disk a with each disk k, as (min, max); its
    # entry k = a is no pair and is always masked out
    pair_rows = [[(min(a, k), max(a, k)) for k in range(n)] for a in range(n)]

    rows_t, rows_pair, rows_image, rows_u, rows_cos, rows_flag = [], [], [], [], [], []
    # positions and velocities go to flat per-coordinate buffers, N
    # floats per event each; the velocity buffers open with the initial
    # velocities, event 0's incoming ones
    rec_qx, rec_qy = array("d"), array("d")
    rec_vx, rec_vy = array("d", vx), array("d", vy)

    counters = [0] * n
    heap: list[tuple] = []

    # complex mirrors for the screens, built only when the longest
    # candidate list, all pairs, is long enough to be screened: (2, L)
    # pair endpoints, the (2, 1) disks of an event's two rows (an index
    # array is cheaper to take with than a list), the positions (copied
    # in per screen) and the velocities (updated at each exchange)
    screening = len(pairs) >= _SCREEN_MIN_PAIRS
    if screening:
        ends = np.array(pairs, dtype=np.intp).T
        disks_ij = np.empty((2, 1), dtype=np.intp)
        q_buf = np.empty(2 * n)
        zq = q_buf.view(complex)
        zv = np.array(vx) + 1j * np.array(vy)

    def predict(cands, t_now, t_block, self_pair):
        """Push each candidate pair's earliest root within the horizon.

        ``self_pair`` (or (), none) is solved with _SELF_GUARD, every
        other pair with guard -1.
        """
        horizon = t_block - t_now
        for pair in cands:
            i, j = pair
            hit = _earliest_root(qx[i] - qx[j], qy[i] - qy[j],
                                 vx[i] - vx[j], vy[i] - vy[j], horizon, two_r,
                                 _SELF_GUARD if pair == self_pair else -1.0)
            if hit is not None:
                heapq.heappush(heap, (t_now + hit, i, j, counters[i], counters[j]))

    def sweep(t_now, t_block, self_pair):
        """Predict every pair, screened with the line test (see _screen).

        Only the sweep takes the line test: after an event its extra
        numpy passes cost more than the few solves it would save.
        """
        cands = pairs
        if len(pairs) >= _SCREEN_MIN_PAIRS:
            q_buf[0::2] = qx
            q_buf[1::2] = qy
            zd, zw = zq[ends], zv[ends]
            keep = _screen(zd[0] - zd[1], zw[0] - zw[1], t_block - t_now,
                           two_r, line=True)
            cands = compress(pairs, keep.tolist())
        predict(cands, t_now, t_block, self_pair)

    def chunk_length():
        vmax = max(map(math.hypot, vx, vy))
        if vmax <= 0.0:
            return 1.0
        return min(1.0, max(0.05, 0.25 / vmax))

    # the chunk length reads only the velocities, so it is computed once
    # per velocity change, at the first boundary that follows it
    chunk = chunk_length()
    t_now = 0.0
    t_block = min(chunk, t_max)
    sweep(0.0, t_block, ())

    n_events = 0
    cascade = 0
    last_t = -1.0
    stopped = False

    while True:
        ev = None
        while heap:
            cand = heapq.heappop(heap)
            if counters[cand[1]] == cand[3] and counters[cand[2]] == cand[4]:
                ev = cand
                break
        # free flight to the chunk boundary or to the event
        t_next = t_block if ev is None else ev[0]
        dt = t_next - t_now
        # _wrap's rule, one coordinate at a time
        for k in range(n):
            x = (qx[k] + dt * vx[k]) % 1.0
            y = (qy[k] + dt * vy[k]) % 1.0
            qx[k] = x if x < 1.0 else 0.0
            qy[k] = y if y < 1.0 else 0.0
        t_now = t_next
        if ev is None:
            if t_block >= t_max:
                break
            if chunk is None:
                chunk = chunk_length()
            t_block = min(t_now + chunk, t_max)
            # a pair resolved at this very instant keeps its echo guard;
            # every other pair may touch now
            sweep(t_now, t_block,
                  rows_pair[-1] if rows_t and rows_t[-1] == t_now else ())
            continue

        t_ev, i, j = ev[0], ev[1], ev[2]

        # the contact image: the nearest one (see the module docstring)
        dx0, dy0 = qx[i] - qx[j], qy[i] - qy[j]
        wx, wy = vx[i] - vx[j], vy[i] - vy[j]
        lx, ly = -round(dx0), -round(dy0)
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
            raise _event_error(StateCorruptionError,
                               f"contact off by {dist - two_r:.3g}",
                               n_events, t_ev, i, j)

        ux, uy = cx / dist, cy / dist
        rad = wx * ux + wy * uy
        s_red = math.sqrt(1.0 / m[i] + 1.0 / m[j])
        cos_phi = -rad / s_red

        g = 2.0 * rad / (m[i] + m[j])
        vx[i] -= m[j] * g * ux
        vy[i] -= m[j] * g * uy
        vx[j] += m[i] * g * ux
        vy[j] += m[i] * g * uy
        chunk = None
        if screening:
            zv[i] = complex(vx[i], vy[i])
            zv[j] = complex(vx[j], vy[j])

        flag = TANGENTIAL_BIT if cos_phi <= tol.tangency_tol else 0
        if rows_t and t_ev - rows_t[-1] <= tol.double_event_tol and \
                (i in rows_pair[-1] or j in rows_pair[-1]):
            flag |= DOUBLE_BIT
            rows_flag[-1] |= DOUBLE_BIT
        rows_t.append(t_ev)
        rows_pair.append((i, j))
        rows_image.append((lx, ly))
        rows_u.append((ux, uy))
        rows_cos.append(cos_phi)
        rows_flag.append(flag)
        rec_qx.fromlist(qx)
        rec_qy.fromlist(qy)
        rec_vx.fromlist(vx)
        rec_vy.fromlist(vy)

        for k in (i, j):
            e_terms[k] = m[k] * (vx[k] * vx[k] + vy[k] * vy[k])
            px_terms[k] = m[k] * vx[k]
            py_terms[k] = m[k] * vy[k]
        e = 0.5 * sum(e_terms)
        px = sum(px_terms)
        py = sum(py_terms)
        e_drift = abs(e - e0) / e_scale
        p_drift = max(abs(px - px0), abs(py - py0))
        max_e_drift = max(max_e_drift, e_drift)
        max_p_drift = max(max_p_drift, p_drift)
        if e_drift > 1e-9 or p_drift > 1e-9:
            raise _event_error(
                NumericalFailureError, f"conservation drift (energy "
                f"{e_drift:.3g}, momentum {p_drift:.3g})", n_events, t_ev, i, j)
        cascade = cascade + 1 if t_ev == last_t else 0
        last_t = t_ev
        if cascade > _CASCADE_LIMIT:
            raise _event_error(NumericalFailureError,
                               f"collision cascade of {cascade + 1} simultaneous events",
                               n_events, t_ev, i, j)

        counters[i] += 1
        counters[j] += 1
        n_events += 1
        if max_events is not None and n_events >= max_events:
            stopped = True
            break
        # the pairs of i and of j: both rows, less their self entries and
        # row j's copy of (i, j); a long list is screened as the two rows
        # of i's and j's differences to every disk
        if 2 * n - 3 >= _SCREEN_MIN_PAIRS:
            q_buf[0::2] = qx
            q_buf[1::2] = qy
            disks_ij[0, 0], disks_ij[1, 0] = i, j
            keep_i, keep_j = _screen(zq[disks_ij] - zq, zv[disks_ij] - zv,
                                     t_block - t_now, two_r).tolist()
        else:
            keep_i, keep_j = [True] * n, [True] * n
        keep_i[i] = keep_j[j] = keep_j[i] = False
        predict(chain(compress(pair_rows[i], keep_i), compress(pair_rows[j], keep_j)),
                t_now, t_block, (i, j))

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

# One line per event, keys in canonical_json's sorted order; "%.17g" is
# the 17-significant-digit form of serialize.fmt17.
_EVENT_LINE = ('{"cos_phi":%.17g,"flag":"%s","i":%d,"j":%d,"l":[%d,%d],"t":%.17g,'
               '"u":[%.17g,%.17g],"v_i_post":[%.17g,%.17g],"v_i_pre":[%.17g,%.17g],'
               '"v_j_post":[%.17g,%.17g],"v_j_pre":[%.17g,%.17g]}\n')


def write_events_jsonl(traj: TrajectorySegment, path) -> None:
    """Write the event log as JSON lines, straight from the record arrays.

    Each line is the canonical JSON (sorted keys, 17-digit floats) of
    the event's time, pair i < j, lattice image l, contact direction u,
    cos_phi, flag label, and the pair's incoming and outgoing
    velocities.  A non-finite value raises ValueError before anything
    is written, as fmt17 does.
    """
    rows = np.arange(traj.n_events)
    di, dj = traj.ev_pair[:, 0], traj.ev_pair[:, 1]
    floats = np.column_stack([
        traj.ev_cosphi, traj.ev_t, traj.ev_u,
        traj.ev_v_post[rows, di], traj.ev_v_pre[rows, di],
        traj.ev_v_post[rows, dj], traj.ev_v_pre[rows, dj]])
    if not np.isfinite(floats).all():
        bad = floats[~np.isfinite(floats)][0]
        raise ValueError(f"non-finite value {float(bad)!r} cannot be serialized")
    floats = floats.tolist()
    ints = np.column_stack([traj.ev_pair, traj.ev_image]).tolist()
    labels = map(_flag_label, traj.ev_flags.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        for (cos_phi, t, *vecs), (i, j, lx, ly), label in zip(
                floats, ints, labels):
            fh.write(_EVENT_LINE % (cos_phi, label, i, j, lx, ly, t, *vecs))
