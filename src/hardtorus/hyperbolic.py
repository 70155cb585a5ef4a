"""Quantitative hyperbolicity diagnostics.

The form Q(tau) = <dq, dv> drives everything here: it grows linearly
in free flight with slope ||dv||^2, jumps by a nonnegative amount at
every nondegenerate collision, and controls the growth of ||dq||
through d/dt ||dq||^2 = 2Q.  The curvature operator B is the matrix
of the map dq -> dv on the velocity-transverse part of the reduced
space.  Its inverse is what is carried: a free flight shifts it by
s*I, exactly, and a collision, which adds a rank-one scattering form
in a co-moving basis, updates it by rank one.  Along a free flight from the
attachment at t_n, the minimum eigenvalue is therefore closed form,
eig_min(B(t)) = 1 / (mu_n + t - t_n) with mu_n the top eigenvalue of
B(t_n)^-1 (Sinai 1970; Chernov & Sinai 1987).  From a positive lower
bound B(0) >= c0*I one gets the guaranteed expansion
||dq(t)|| >= (1 + c0*t) ||dq(0)||, checked here on sampled orbits.

Lyapunov exponents come from a chunked renormalized-frame estimate in
the mass metric with the flow and velocity directions projected out;
they are reported with batch standard errors and a pairing residual.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalFailureError, ValidationError
from .events import TrajectorySegment, simulate
from .geometry import (PhaseState, SystemParams, mass_inner, mass_norm,
                       reduced_space, transverse_basis)
from .rng import make_generator
from .tangent import (TangentVector, _carry, _frame_failure, _walk,
                      propagate_tangent)


# ---------------------------------------------------------------------------
# Q-form evolution audit


@dataclass(frozen=True)
class QEvolutionAudit:
    """Per-row samples of the audited tangent vector.

    The rows are the flights' samples in walk order, so a collision
    time has two rows: the last of the incoming flight and the first of
    the outgoing one.  ``collisions_before`` (collisions crossed before
    each row, the row's flight index) tells them apart, so collision k's
    jump of Q is read from ``q_values`` at its two rows.
    ``jump_formulas`` holds, per collision, the scattering form
    2 cos(phi) <V*KV dq, dq> that the jump must equal.  ``dq_rows`` and
    ``dv_rows`` are the read-only (rows, 2N) vectors the columns are
    taken from.
    """

    times: np.ndarray
    dq_rows: np.ndarray
    dv_rows: np.ndarray
    q_values: np.ndarray
    dq_norms: np.ndarray
    dv_norms: np.ndarray
    collisions_before: np.ndarray
    jump_formulas: np.ndarray
    # residuals are relative to the local scale of the quantities, so
    # they stay meaningful after orders of magnitude of growth
    max_flight_residual: float    # Q increment vs dt * ||dv||^2, per flight
    max_midpoint_residual: float  # d/dt ||dq||^2 = 2Q, midpoint rule
    max_jump_defect: float        # |jump - formula|
    min_jump_relative: float      # min jump / local |Q| scale
    min_jump: float

    @property
    def q_monotone(self) -> bool:
        q = self.q_values
        floor = -1e-12 * np.maximum(1.0, np.maximum(np.abs(q[1:]), np.abs(q[:-1])))
        return bool(np.all(np.diff(q) >= floor))


def _mass_dots(a: np.ndarray, b: np.ndarray, mw: np.ndarray) -> np.ndarray:
    """Row-wise mass inner products of two (rows, 2N) stacks.

    Each row goes through the same dot kernel as ``mass_inner``
    (a (1, 2N) @ (2N, 1) matmul is a plain dot), so every value carries
    the bits of the per-row call.
    """
    return np.matmul((mw * a)[:, None, :], b[:, :, None])[:, 0, 0]


def _mass_norms(a: np.ndarray, mw: np.ndarray) -> np.ndarray:
    """Row-wise ``mass_norm`` of a (rows, 2N) stack."""
    return np.sqrt(np.maximum(_mass_dots(a, a, mw), 0.0))


def _max_of(values: np.ndarray) -> float:
    """The running ``acc = max(acc, value)`` from acc = 0.0: NaN values
    never win a comparison, and fmax skips them too."""
    return float(np.fmax.reduce(values, initial=0.0))


def _local_scale(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(1.0, a, b) per row, NaN terms skipped as by ``max``."""
    return np.fmax(np.fmax(1.0, a), b)


def q_evolution_audit(traj: TrajectorySegment, tau0: TangentVector,
                      *, n_samples: int = 64) -> QEvolutionAudit:
    """Walk the trajectory recording (t, Q, ||dq||, ||dv||) and the
    scattering form of every collision, together with the residuals of
    the exact free-flight laws.  Between collisions dv is constant, so
    the Q increment is dt*||dv||^2 on the nose and ||dq||^2 is a
    quadratic, for which the midpoint rule is exact; both residuals are
    pure floating-point noise on a healthy transport.

    The rows are each flight's samples: its two ends and the grid points
    strictly inside it, at dq + (t - t_a) dv.  A collision's incoming row
    ends its flight and its outgoing row starts the next, so its jump of
    Q is the difference of the two rows' ``q_values`` and no record is
    kept per collision.  The forward carry gives the flight starts and
    the scattering terms, and refuses a non-finite vector with
    ``NumericalFailureError`` naming the event; the rows, jumps and
    residuals are then taken over whole stacks.  Rows whose squares
    overflow raise it too, naming the first collision whose outgoing
    squared norms do (else the last collision).
    """
    grid = np.linspace(0.0, traj.t_end, max(2, n_samples))
    flights = _carry(traj, tau0.dq, tau0.dv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _audit_of_flights(traj, grid, *flights)
    except FloatingPointError as exc:
        raise _range_failure(traj, np.arange(-1, flights[0].size - 1),
                             f"Q-form rows beyond the float range ({exc})",
                             *flights[2:4]) from exc


def _range_failure(traj: TrajectorySegment, events: np.ndarray, what: str,
                   *stacks: np.ndarray) -> NumericalFailureError:
    """Typed failure naming ``events[r]``, the event before row r, for the
    first row of the (rows, 2N) ``stacks`` whose summed squared mass
    norms leave the float range, else the last event; -1 names none."""
    mw = traj.params.mass_weights
    with np.errstate(over="ignore", invalid="ignore"):
        size = sum(_mass_dots(x, x, mw) for x in stacks)
    bad = np.flatnonzero(~np.isfinite(size))
    k = int(events[bad[0]]) if bad.size else traj.n_events - 1
    return _frame_failure(traj, k, what) if k >= 0 else NumericalFailureError(what)


def _audit_of_flights(traj, grid, ta, tb, sq, sv, scatter) -> QEvolutionAudit:
    """The audit's rows, jumps and residuals from the carry's flights."""
    mw = traj.params.mass_weights
    # the carry crosses every event in order
    n_ev = ta.size - 1

    # sample rows: flight f holds t_a, the grid points in (t_a, t_b), t_b;
    # a zero-length flight (a segment that ends on its last event) holds
    # its one time once
    lo = np.searchsorted(grid, ta, side="right")
    hi = np.maximum(np.searchsorted(grid, tb, side="left"), lo)
    size = np.where(tb > ta, hi - lo + 2, 1)
    first = np.cumsum(size) - size
    last = first + size - 1
    fl = np.repeat(np.arange(ta.size), size)
    at = np.arange(fl.size) - first[fl]
    # inner slots read the grid; the clipped end slots are overwritten
    t = grid[np.clip(lo[fl] + at - 1, 0, grid.size - 1)]
    t[first] = ta
    t[last] = tb
    dv_rows = sv[fl]
    dq_rows = sq[fl] + (t - ta[fl])[:, None] * dv_rows
    dq_rows.setflags(write=False)
    dv_rows.setflags(write=False)
    q_values = _mass_dots(dq_rows, dv_rows, mw)
    dq_norms = _mass_norms(dq_rows, mw)
    dv_norms = _mass_norms(dv_rows, mw)

    # midpoint rule, exact on the quadratic ||dq||^2, between consecutive
    # samples of one flight
    cur = np.flatnonzero(at > 0)
    prev = cur - 1
    step = t[cur] - t[prev]
    keep = step > 0
    cur, prev, step = cur[keep], prev[keep], step[keep]
    dv_cur = dv_rows[cur]
    mid = sq[fl[cur]] + (0.5 * (t[cur] + t[prev]) - ta[fl[cur]])[:, None] * dv_cur
    rhs = 2.0 * _mass_dots(mid, dv_cur, mw) * step
    n2 = dq_norms * dq_norms
    mid_res = _max_of(np.abs(n2[cur] - n2[prev] - rhs)
                      / _local_scale(n2[cur], n2[prev]))

    # Q increment over each whole flight against dt * ||dv||^2
    q_start = _mass_dots(sq, sv, mw)
    q_end = q_values[last]
    f_nv = dv_norms[first]
    flight_res = _max_of(np.abs(q_end - q_start - (tb - ta) * (f_nv * f_nv))
                         / _local_scale(np.abs(q_end), np.abs(q_start)))

    # a collision's Q jumps from its flight's last row to the next
    # flight's first
    q_pre, q_post = q_end[:n_ev], q_values[first[1:]]
    jump = q_post - q_pre
    formulas = _mass_dots(scatter, dq_rows[last[:n_ev]], mw)
    scale = _local_scale(np.abs(q_post), np.abs(q_pre))

    return QEvolutionAudit(
        times=t, dq_rows=dq_rows, dv_rows=dv_rows,
        q_values=q_values, dq_norms=dq_norms, dv_norms=dv_norms,
        collisions_before=fl, jump_formulas=formulas,
        max_flight_residual=flight_res, max_midpoint_residual=mid_res,
        max_jump_defect=_max_of(np.abs(jump - formulas) / scale),
        min_jump_relative=float((jump / scale).min()) if n_ev else 0.0,
        min_jump=float(jump.min()) if n_ev else 0.0)


# ---------------------------------------------------------------------------
# curvature operator


@dataclass(frozen=True)
class CurvatureOperator:
    """Symmetric operator B on the velocity-transverse reduced space.

    ``basis`` is a mass-orthonormal co-moving basis of that space and
    ``inverse`` the stored matrix of B^-1 in it; ``time`` is the
    attachment time (outgoing side when it coincides with a collision).
    ``matrix``, B itself, is computed once, on first use."""

    time: float
    basis: np.ndarray
    inverse: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        return np.linalg.inv(self.inverse)

    def apply(self, dq, params: SystemParams) -> np.ndarray:
        """dv = B dq for a configuration vector in the transverse space."""
        coeff = (self.basis.T * params.mass_weights) @ np.asarray(dq, dtype=float)
        return self.basis @ (self.matrix @ coeff)


@dataclass(frozen=True)
class CurvaturePath:
    """Attachment operators (initial, after each collision, final) plus
    the minimum eigenvalue of B on the ``n_samples`` grid.

    A time t after n collisions reads the attachment operators[n], and
    eig_min(B(t)) = 1 / (mu_n + (t - operators[n].time)), where mu_n is
    the top eigenvalue of operators[n].inverse: the free flight shifts
    the inverse by (t - t_n)*I.  One batched ``eigvalsh`` gives every
    mu_n, on first use."""

    operators: tuple[CurvatureOperator, ...]
    sample_times: np.ndarray
    sample_eig_min: np.ndarray

    def operator_at(self, t: float) -> CurvatureOperator:
        """Free-flight inverse shift from the last attachment <= t; a t
        outside [0, t_end], NaN included, raises ValueError."""
        times = [op.time for op in self.operators]
        if not 0.0 <= t <= times[-1]:
            raise ValueError(f"t = {t:g} outside [0, {times[-1]:g}]")
        return _shift(self.operators[np.searchsorted(times, t, "right") - 1], t)

    @property
    def min_eig_min(self) -> float:
        return float(self.sample_eig_min.min())

    @cached_property
    def _tops(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu_n, t_n) of every attachment n; the closing operator starts
        no flight."""
        attached = self.operators[:-1]
        tops = np.linalg.eigvalsh(np.stack([op.inverse for op in attached]))
        return tops[:, -1], np.array([op.time for op in attached])

    def _eig_min(self, crossed: np.ndarray, times: np.ndarray) -> np.ndarray:
        """eig_min(B) per row at ``times``, after ``crossed`` collisions."""
        tops, t_n = self._tops
        return 1.0 / (tops[crossed] + (times - t_n[crossed]))


def _shift(op: CurvatureOperator, t: float) -> CurvatureOperator:
    """Carry an attachment operator along its free flight to time t."""
    s = t - op.time
    if s == 0.0:
        return op
    return CurvatureOperator(time=t, basis=op.basis,
                             inverse=op.inverse + s * np.eye(len(op.inverse)))


def _as_operator_matrix(b0, dim: int) -> np.ndarray:
    b = np.array(b0, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValidationError("curvature operator must be finite")
    if np.isscalar(b0):
        return float(b0) * np.eye(dim)
    if b.shape != (dim, dim):
        raise ValueError(f"operator must be {dim}x{dim}, got {b.shape}")
    return b


def curvature_propagate(b0, traj: TrajectorySegment,
                        *, n_samples: int = 64) -> CurvaturePath:
    """Propagate the curvature operator along a nonsingular segment.

    Only M = B^-1 is carried, from one ``np.linalg.inv`` of b0.  A flight
    adds s*I, exactly.  A collision adds k k^T / kappa (see
    ``CollisionFrame``) to B in the co-moving basis U -> RU, so M takes
    the Sherman-Morrison update M - y y^T / (kappa + k^T y), y = M k.
    Both add exactly symmetric terms: M is symmetric bit for bit wherever
    inv(b0) is, as for any scalar b0.  The samples read the closed form
    of ``CurvaturePath`` on the ``n_samples`` grid, and a non-finite,
    nonsymmetric or non-positive b0 raises ``ValidationError``.
    """
    params = traj.params
    u = transverse_basis(traj.initial.v, params)
    dim = u.shape[1]
    b = _as_operator_matrix(b0, dim)
    if np.abs(b - b.T).max() > 1e-12 * max(1.0, np.abs(b).max()):
        raise ValidationError("curvature operator must be symmetric")
    eigs = np.linalg.eigvalsh(b)
    if eigs[0] <= 0.0:
        raise ValidationError(
            f"curvature operator must be positive definite; "
            f"min eigenvalue {eigs[0]:.3g}")

    ops = [CurvatureOperator(time=0.0, basis=u, inverse=np.linalg.inv(b))]
    eye = np.eye(dim)
    for _, t_b, _, frame in _walk(traj):
        if frame is None:
            break
        # the flight step of _shift; with s == 0 the attachment stays
        # as it is, since adding 0*I would turn its -0.0 entries to +0.0
        m, s = ops[-1].inverse, t_b - ops[-1].time
        if s != 0.0:
            m = m + s * eye
        k = frame.scatter_amplitude(u)
        y = m @ k
        kappa = 2.0 * frame.cos_phi / frame.base_radius
        m = m - np.multiply.outer(y, y) / (kappa + k @ y)
        u = frame.reflect(u)
        ops.append(CurvatureOperator(time=t_b, basis=u, inverse=m))
    ops.append(_shift(ops[-1], traj.t_end))

    grid = np.linspace(0.0, traj.t_end, max(2, n_samples))
    path = CurvaturePath(operators=tuple(ops), sample_times=grid,
                         sample_eig_min=np.empty(grid.size))
    path.sample_eig_min[:] = path._eig_min(
        np.searchsorted(traj.ev_t, grid, side="right"), grid)
    return path


def curvature_consistency(path: CurvaturePath, traj: TrajectorySegment,
                          *, seed: int = 0) -> float:
    """Worst relative error of dv(t) = B(t) dq(t) along a tangent vector
    started with dv(0) = B(0) dq(0) in the transverse space, at 16 times
    spread over the segment, event times excluded."""
    params = traj.params
    op0 = path.operators[0]
    rng = make_generator(seed, 41)
    coeff = rng.standard_normal(op0.basis.shape[1])
    dq0 = op0.basis @ coeff
    dv0 = op0.apply(dq0, params)
    safe = [t for t in np.linspace(0.0, traj.t_end, 16)
            if traj.n_events == 0
            or np.abs(traj.ev_t - t).min() > 1e-9 * max(1.0, traj.t_end)]
    taus = propagate_tangent(traj, TangentVector(dq0, dv0), safe)
    worst = 0.0
    for t, tau in zip(safe, taus):
        op = path.operator_at(t)
        pred = op.apply(tau.dq, params)
        err = mass_norm(pred - tau.dv, params) / mass_norm(tau.dv, params)
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# expansion bound


@dataclass(frozen=True)
class ExpansionCheck:
    min_ratio: float
    t_argmin: float
    times: np.ndarray
    ratios: np.ndarray

    @property
    def ok(self) -> bool:
        return self.min_ratio >= 1.0 - 1e-6


_EXPANSION_SAMPLES = 256      # sample times of the expansion check


def expansion_check(traj: TrajectorySegment, tau0: TangentVector,
                    c0: float) -> ExpansionCheck:
    """Minimum of ||dq(t)|| / ((1 + c0 t) ||dq(0)||) over 256 sampled times.

    The caller asserts dv(0) = B(0) dq(0) for some B(0) >= c0*I; what
    is actually verifiable from one vector is Q(0) >= 0, and a negative
    Q(0) (impossible for any positive semi-definite operator) or a c0
    outside (0, inf) is rejected as a usage error.  ``t_argmin`` is the
    earliest sample within 1e-12 * max(1, |min_ratio|) of the minimum,
    so a plateau of ratios equal up to roundoff (1 along the first
    flight of a cone seed dv = c0 dq) reports its start.  A sample
    whose squared norm leaves the float range raises
    ``NumericalFailureError`` naming the event its flight starts at.
    """
    params = traj.params
    norm0 = mass_norm(tau0.dq, params)
    if not 0.0 < c0 < math.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0:g}")
    if norm0 == 0.0:
        raise ValueError("dq(0) must be nonzero")
    q0 = mass_inner(tau0.dq, tau0.dv, params)
    if q0 < -1e-12 * norm0 * mass_norm(tau0.dv, params):
        raise ValueError(
            "Q(0) < 0: no positive semi-definite operator sends this "
            "dq(0) to this dv(0)")
    times = np.linspace(0.0, traj.t_end, _EXPANSION_SAMPLES)
    dq = np.array([tau.dq for tau in propagate_tangent(traj, tau0, times)])
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _mass_norms(dq, params.mass_weights)
    if not np.isfinite(norms).all():
        raise _range_failure(
            traj, np.searchsorted(traj.ev_t, times, side="right") - 1,
            "expansion rows beyond the float range", dq)
    ratios = norms / ((1.0 + c0 * times) * norm0)
    min_ratio = float(ratios[np.argmin(ratios)])
    near = ratios <= min_ratio + 1e-12 * max(1.0, abs(min_ratio))
    return ExpansionCheck(min_ratio=min_ratio,
                          t_argmin=float(times[np.argmax(near)]),
                          times=times, ratios=ratios)


# ---------------------------------------------------------------------------
# cone ratios


def _cone_ratios(x: np.ndarray, l0, params: SystemParams) -> np.ndarray:
    """Share of each row of a (rows, 2N) stack along the lattice direction.

    Each disk's block is projected on the unit vector e of l0, and a row
    reads the mass-metric norm of that projection over its own norm (0
    for a zero row).  l0 must be two integers, not both zero; anything
    else raises ``ValidationError``.
    """
    if not all(float(c).is_integer() for c in l0):
        raise ValidationError(f"l0 entries must be integers, got {tuple(l0)}")
    e = np.array([int(l0[0]), int(l0[1])], dtype=float)
    if not e.any():
        raise ValidationError("l0 must be a nonzero lattice direction")
    e /= math.hypot(e[0], e[1])
    mw = params.mass_weights
    par = ((x.reshape(len(x), -1, 2) @ e)[:, :, None] * e).reshape(x.shape)
    denom = _mass_norms(x, mw)
    return np.divide(_mass_norms(par, mw), denom, out=np.zeros_like(denom),
                     where=denom > 0.0)


# ---------------------------------------------------------------------------
# Lyapunov spectrum


@dataclass(frozen=True)
class LyapunovSpectrum:
    exponents: np.ndarray
    standard_errors: np.ndarray
    flow_exponent: float
    t_total: float
    n_collisions: int
    n_chunks: int
    n_restarts: int
    low_confidence: bool

    @property
    def sum_exponents(self) -> float:
        return float(self.exponents.sum())

    @property
    def pairing_residual(self) -> float:
        """Max |lambda_i + lambda_(m+1-i)| over opposite pairs."""
        lam = np.sort(self.exponents)[::-1]
        m = lam.size
        return float(max((abs(lam[i] + lam[m - 1 - i]) for i in range(m // 2)),
                         default=0.0))


def _project_out_flow(frame: np.ndarray, vy: np.ndarray) -> None:
    """Remove the flow (vy, 0) and then the velocity (0, vy) direction
    from the columns of a (4N, m) frame, in place.  Both directions are
    filled into one zero buffer, so each projection dots the same
    zero-padded vector as a freshly built one would."""
    n2 = vy.size
    excl = np.zeros(2 * n2)
    excl[:n2] = vy
    frame -= excl[:, None] * (excl @ frame)
    excl[:n2] = 0.0
    excl[n2:] = vy
    frame -= excl[:, None] * (excl @ frame)


def _mass_on_frame(rng, v, zy, scale, m: int) -> np.ndarray:
    """Random (4N, m) frame in Z + Z, mass-orthonormal, with the flow
    direction (v, 0) and the velocity direction (0, v) projected out;
    ``zy`` is the basis of Z times ``scale``, the roots of the mass
    weights, so its columns are Euclidean-orthonormal."""
    n2, dim = zy.shape
    vy = (np.asarray(v, dtype=float).reshape(-1) * scale)
    vy /= np.linalg.norm(vy)
    coeff = rng.standard_normal((2 * dim, m))
    frame = np.zeros((2 * n2, m))
    frame[:n2] = zy @ coeff[:dim]
    frame[n2:] = zy @ coeff[dim:]
    _project_out_flow(frame, vy)
    q, _ = np.linalg.qr(frame)
    return q


def lyapunov_spectrum(state: PhaseState, t_max: float, params: SystemParams,
                      *, reorth_interval: int = 10,
                      seed: int = 0) -> LyapunovSpectrum:
    """Chunked renormalized-frame Lyapunov estimate in the mass metric.

    The frame lives on the zero-momentum subspace in scaled (mass
    orthonormal) coordinates with the flow and velocity directions
    excluded, and is re-orthonormalized every ``reorth_interval``
    collisions (Benettin et al. 1980), or sooner once an entry passes
    1e6.  Each collision acts only on the colliding pair's eight rows of
    the frame, through the event's pair-block map from the segment's
    collision table (Dellago, Posch & Hoover 1996).  A flagged
    (tangential or double) event aborts the current accumulation chunk
    and restarts with a fresh frame.  A state at rest has no flow
    direction to exclude and raises ``ValidationError``.  A non-finite
    frame or a zero QR diagonal raises ``NumericalFailureError`` naming
    the event.  Standard errors are duration-weighted batch means over
    chunks, so they measure fluctuation, not systematic bias.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if reorth_interval < 1:
        raise ValueError("reorth_interval must be >= 1")
    m = 4 * (params.n - 1) - 2      # Z + Z minus the flow plane
    rng = make_generator(seed, 101)
    traj = simulate(state, t_max, params)
    scale = np.sqrt(params.mass_weights)
    # the flow exponent's norm, taken before anything divides by a
    # speed: a state at rest has no flow direction to exclude
    nrm0 = np.linalg.norm(scale * traj.initial.v.reshape(-1))
    if not nrm0 > 0.0:
        raise ValidationError("lyapunov_spectrum needs a moving state; "
                              "every velocity is zero")
    n2 = 2 * params.n
    zy = reduced_space(params).basis * scale[:, None]
    zy_t = zy.T

    frame = _mass_on_frame(rng, traj.initial.v, zy, scale, m)
    logs = np.zeros(m)
    chunk_rates: list[tuple[float, np.ndarray]] = []
    t_accum = 0.0
    n_restarts = 0

    def renormalize(fr_cols, k):
        """Project onto the reduced space minus the flow/velocity plane
        and orthonormalize; returns the frame and per-column log growth.
        Rounding during a strongly expanding stretch spills noise onto
        the neutral directions, where nothing damps it; the exact
        re-projection removes it before it can outgrow the contracting
        columns."""
        fr_cols[:n2] = zy @ (zy_t @ fr_cols[:n2])
        fr_cols[n2:] = zy @ (zy_t @ fr_cols[n2:])
        vy = traj.ev_v_post[k].reshape(-1) * scale
        _project_out_flow(fr_cols, vy / np.linalg.norm(vy))
        q, r = np.linalg.qr(fr_cols)
        diag = np.abs(np.diag(r))
        if np.any(diag == 0.0):
            raise _frame_failure(traj, k, "degenerate Lyapunov frame during QR")
        return q, np.log(diag)

    chunk_t0 = 0.0
    chunk_logs = np.zeros(m)
    events_in_chunk = 0
    for t_a, t_k, k, fr in _walk(traj, flagged=True):
        dt = t_k - t_a
        # free flight in scaled coordinates: dq += dt * dv
        frame[:n2] += dt * frame[n2:]
        if k is None:
            break
        if fr is None:
            # singular event: drop the partial chunk, restart downstream
            n_restarts += 1
            post_v = traj.ev_v_post[k].reshape(-1)
            frame = _mass_on_frame(rng, post_v, zy, scale, m)
            chunk_t0 = t_k
            chunk_logs = np.zeros(m)
            events_in_chunk = 0
            continue
        # take() gathers the rows as frame[rows] does, and np.dot makes
        # the same BLAS call as @, each with less dispatch per event
        rows = fr.rows
        frame[rows] = np.dot(fr.block, frame.take(rows, axis=0))
        events_in_chunk += 1
        close_chunk = events_in_chunk >= reorth_interval
        peak = float(np.abs(frame).max())
        if not math.isfinite(peak):
            raise _frame_failure(traj, k, "non-finite Lyapunov frame")
        # interim orthonormalization once the frame spread nears the
        # precision floor; its log growth telescopes into the chunk
        if close_chunk or peak > 1e6:
            frame, growth = renormalize(frame, k)
            chunk_logs += growth
        if close_chunk:
            span = t_k - chunk_t0
            logs += chunk_logs
            t_accum += span
            if span > 0.0:
                chunk_rates.append((span, chunk_logs / span))
            chunk_t0 = t_k
            chunk_logs = np.zeros(m)
            events_in_chunk = 0

    if t_accum <= 0.0:
        raise ValidationError(
            "no complete accumulation chunk; trajectory too short or "
            "too singular for the requested reorth_interval")
    exponents = logs / t_accum
    ses = np.zeros(m)
    if len(chunk_rates) >= 2:
        w = np.array([c[0] for c in chunk_rates])
        g = np.stack([c[1] for c in chunk_rates])
        wsum = w.sum()
        var = ((w[:, None] * (g - exponents) ** 2).sum(axis=0)
               / wsum / max(1, len(chunk_rates) - 1))
        ses = np.sqrt(var)

    # The tangent step carries the flow direction (v, 0) to the
    # recorded outgoing velocities bit for bit (reflect replicates the
    # exchange, and the scattering term of (v_pre, 0) is exactly zero),
    # so the flow exponent reads the record instead of transporting it.
    nrm1 = np.linalg.norm(scale * traj.final.v.reshape(-1))
    flow_exp = math.log(nrm1 / nrm0) / traj.t_end

    low_conf = (len(chunk_rates) < 8
                or traj.n_events < 4 * reorth_interval)
    return LyapunovSpectrum(
        exponents=np.sort(exponents)[::-1], standard_errors=np.sort(ses)[::-1],
        flow_exponent=float(flow_exp), t_total=float(t_accum),
        n_collisions=traj.n_events, n_chunks=len(chunk_rates),
        n_restarts=n_restarts, low_confidence=bool(low_conf))


# ---------------------------------------------------------------------------
# collision rate and path length


@dataclass(frozen=True)
class CollisionRateReport:
    count: int
    t_span: float
    rate: float
    c4: float
    window_rates: tuple[float, float]
    bound_ok: bool


def collision_rate(traj: TrajectorySegment) -> CollisionRateReport:
    """Collision count and rate, with a two-window stability verdict.

    ``bound_ok`` means the first- and second-half rates agree within
    10 percent (no accumulation); segments with fewer than 10 events
    carry no evidence of accumulation and pass trivially.  ``c4`` is
    the empirical constant count / max(t, 1).
    """
    t = traj.t_end
    count = traj.n_events
    rate = count / t if t > 0.0 else 0.0
    c4 = count / max(t, 1.0)
    half = 0.5 * t
    c1 = int(np.sum(traj.ev_t <= half))
    c2 = count - c1
    r1, r2 = (c1 / half, c2 / half) if half > 0.0 else (0.0, 0.0)
    if count < 10:
        ok = True
    else:
        ok = abs(r1 - r2) <= 0.1 * max(r1, r2)
    return CollisionRateReport(count=count, t_span=t, rate=rate, c4=c4,
                               window_rates=(r1, r2), bound_ok=ok)


# ---------------------------------------------------------------------------
# series and summary output


def hyperbolicity_series(traj: TrajectorySegment, audit: QEvolutionAudit, *,
                         path: CurvaturePath,
                         l0=None) -> dict[str, np.ndarray]:
    """Per-row arrays of an audit of ``traj``: t, Q, ||dq||, ||dv||, the
    minimum eigenvalue of B along ``path`` and, optionally, the cone
    ratios of the audit's own row vectors against l0.  Every column of a
    row is taken on the same side of a collision, the incoming one on a
    collision's first row."""
    series: dict[str, np.ndarray] = {
        "t": audit.times, "Q": audit.q_values,
        "dq_norm": audit.dq_norms, "dv_norm": audit.dv_norms,
        "b_eig_min": path._eig_min(audit.collisions_before, audit.times)}
    if l0 is not None:
        series["cone_ratio_q"] = _cone_ratios(audit.dq_rows, l0, traj.params)
        series["cone_ratio_v"] = _cone_ratios(audit.dv_rows, l0, traj.params)
    return series


def write_series_csv(path, series: dict) -> None:
    keys = list(series)
    rows = zip(*(np.asarray(series[k]).tolist() for k in keys))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        writer.writerows(rows)


def summary_dict(*, spectrum: LyapunovSpectrum | None = None,
                 rate: CollisionRateReport | None = None,
                 expansion: ExpansionCheck | None = None,
                 curvature: CurvaturePath | None = None) -> dict:
    """JSON-ready summary of whichever diagnostics were run."""
    out: dict = {}
    if spectrum is not None:
        out["lyapunov"] = {
            "exponents": [float(x) for x in spectrum.exponents],
            "standard_errors": [float(x) for x in spectrum.standard_errors],
            "flow_exponent": spectrum.flow_exponent,
            "sum_exponents": spectrum.sum_exponents,
            "pairing_residual": spectrum.pairing_residual,
            "t_total": spectrum.t_total,
            "n_collisions": spectrum.n_collisions,
            "n_chunks": spectrum.n_chunks,
            "n_restarts": spectrum.n_restarts,
            "low_confidence": spectrum.low_confidence,
        }
    if rate is not None:
        out["collision_rate"] = {
            "count": rate.count, "t_span": rate.t_span, "rate": rate.rate,
            "c4": rate.c4, "window_rates": list(rate.window_rates),
            "bound_ok": rate.bound_ok,
        }
    if expansion is not None:
        out["expansion"] = {
            "min_ratio": expansion.min_ratio, "t_argmin": expansion.t_argmin,
            "ok": expansion.ok,
        }
    if curvature is not None:
        out["curvature"] = {
            "min_eig_min": curvature.min_eig_min,
            "n_operators": len(curvature.operators),
        }
    return out
