"""Quantitative hyperbolicity diagnostics.

The form Q(tau) = <dq, dv> drives everything here: it grows linearly
in free flight with slope ||dv||^2, jumps by a nonnegative amount at
every nondegenerate collision, and controls the growth of ||dq||
through d/dt ||dq||^2 = 2Q.  The curvature operator B is the matrix
of the map dq -> dv on the velocity-transverse part of the reduced
space; between collisions its inverse shifts by s*I (exactly, which
is why the inverse is what gets propagated), and a collision adds the
scattering form in a co-moving basis.  From a positive lower bound
B(0) >= c0*I one gets the guaranteed expansion
||dq(t)|| >= (1 + c0*t) ||dq(0)||, checked here on sampled orbits.

Lyapunov exponents come from a chunked renormalized-frame estimate in
the mass metric with the flow and velocity directions projected out;
they are reported with batch standard errors and a pairing residual.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ValidationError
from .events import TrajectorySegment, simulate
from .geometry import (PhaseState, SystemParams, mass_inner, mass_norm,
                       min_image, reduced_space, transverse_basis)
from .rng import make_generator
from .tangent import TangentVector, _apply_event, _walk, propagate_tangent

__all__ = [
    "QEvolutionAudit", "JumpRecord", "q_evolution_audit",
    "CurvatureOperator", "CurvaturePath", "curvature_propagate",
    "curvature_consistency", "ExpansionCheck", "expansion_check",
    "ConeDecomposition", "cone_decompose",
    "LyapunovSpectrum", "lyapunov_spectrum",
    "CollisionRateReport", "collision_rate", "z_length",
    "write_series_csv", "hyperbolicity_series", "summary_dict",
]


# ---------------------------------------------------------------------------
# Q-form evolution audit


@dataclass(frozen=True)
class JumpRecord:
    """Q across one collision; ``formula`` is the scattering form
    2 cos(phi) <V*KV dq, dq> that the jump must equal."""

    t: float
    pair: tuple[int, int]
    q_pre: float
    q_post: float
    jump: float
    formula: float


@dataclass(frozen=True)
class QEvolutionAudit:
    """Per-row samples of the audited tangent vector.

    A collision time has rows on both sides of the collision;
    ``collisions_before`` (collisions crossed before each row) tells the
    incoming row from the outgoing ones.
    """

    times: np.ndarray
    q_values: np.ndarray
    dq_norms: np.ndarray
    dv_norms: np.ndarray
    collisions_before: np.ndarray
    jumps: tuple[JumpRecord, ...]
    # residuals are relative to the local scale of the quantities, so
    # they stay meaningful after orders of magnitude of growth
    max_flight_residual: float    # Q increment vs dt * ||dv||^2, per flight
    max_midpoint_residual: float  # d/dt ||dq||^2 = 2Q, midpoint rule
    max_jump_defect: float        # |jump - formula|
    min_jump_relative: float      # min jump / local |Q| scale

    @property
    def min_jump(self) -> float:
        return min((r.jump for r in self.jumps), default=0.0)

    @property
    def q_monotone(self) -> bool:
        q = self.q_values
        floor = -1e-12 * np.maximum(1.0, np.maximum(np.abs(q[1:]), np.abs(q[:-1])))
        return bool(np.all(np.diff(q) >= floor))


def q_evolution_audit(traj: TrajectorySegment, tau0: TangentVector,
                      *, n_samples: int = 64) -> QEvolutionAudit:
    """Walk the trajectory recording (t, Q, ||dq||, ||dv||) and the jump
    of Q at every collision, together with the residuals of the exact
    free-flight laws.  Between collisions dv is constant, so the Q
    increment is dt*||dv||^2 on the nose and ||dq||^2 is a quadratic,
    for which the midpoint rule is exact; both residuals are pure
    floating-point noise on a healthy transport."""
    params = traj.params
    dq = np.array(tau0.dq, dtype=float)
    dv = np.array(tau0.dv, dtype=float)
    grid = np.linspace(0.0, traj.t_end, max(2, n_samples))

    times, qs, nq, nv, crossed = [], [], [], [], []
    jumps = []
    flight_res = 0.0
    mid_res = 0.0
    jump_defect = 0.0

    def record(t, dq_t, dv_t):
        times.append(t)
        qs.append(mass_inner(dq_t, dv_t, params))
        nq.append(mass_norm(dq_t, params))
        nv.append(mass_norm(dv_t, params))
        crossed.append(len(jumps))

    for t_a, t_b, k, frame in _walk(traj):
        inner = grid[(grid > t_a) & (grid < t_b)]
        samples = np.r_[t_a, inner, t_b]
        prev_t, prev_dq = None, None
        for t in samples:
            dq_t = dq + (t - t_a) * dv
            record(t, dq_t, dv)
            if prev_t is not None and t > prev_t:
                # midpoint rule is exact on the quadratic ||dq||^2
                mid = dq + (0.5 * (t + prev_t) - t_a) * dv
                n2_new = mass_norm(dq_t, params) ** 2
                n2_old = mass_norm(prev_dq, params) ** 2
                rhs = 2.0 * mass_inner(mid, dv, params) * (t - prev_t)
                mid_res = max(mid_res, abs(n2_new - n2_old - rhs)
                              / max(1.0, n2_new, n2_old))
            prev_t, prev_dq = t, dq_t
        q_start = mass_inner(dq, dv, params)
        dq_end = dq + (t_b - t_a) * dv
        q_end = mass_inner(dq_end, dv, params)
        flight_res = max(flight_res, abs(
            q_end - q_start - (t_b - t_a) * mass_norm(dv, params) ** 2)
            / max(1.0, abs(q_end), abs(q_start)))
        if frame is None:
            break
        formula = mass_inner(frame.scatter_pre(dq_end), dq_end, params)
        dq_post, dv_post = _apply_event(frame, dq_end, dv)
        q_post = mass_inner(dq_post, dv_post, params)
        jumps.append(JumpRecord(t=t_b, pair=(frame.i, frame.j), q_pre=q_end,
                                q_post=q_post, jump=q_post - q_end,
                                formula=formula))
        jump_defect = max(jump_defect, abs((q_post - q_end) - formula)
                          / max(1.0, abs(q_post), abs(q_end)))
        record(t_b, dq_post, dv_post)
        dq, dv = dq_post, dv_post

    min_jump_rel = min(
        (r.jump / max(1.0, abs(r.q_pre), abs(r.q_post)) for r in jumps),
        default=0.0)
    return QEvolutionAudit(
        times=np.array(times), q_values=np.array(qs),
        dq_norms=np.array(nq), dv_norms=np.array(nv),
        collisions_before=np.array(crossed, dtype=int),
        jumps=tuple(jumps), max_flight_residual=flight_res,
        max_midpoint_residual=mid_res, max_jump_defect=jump_defect,
        min_jump_relative=min_jump_rel)


# ---------------------------------------------------------------------------
# curvature operator


@dataclass(frozen=True)
class CurvatureOperator:
    """Symmetric operator on the velocity-transverse reduced space.

    ``basis`` is a mass-orthonormal co-moving basis of that space and
    ``matrix`` the operator in it; ``time`` is the attachment time
    (outgoing side when it coincides with a collision)."""

    time: float
    basis: np.ndarray
    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @property
    def eig_min(self) -> float:
        return float(self.eigenvalues()[0])

    def apply(self, dq, params: SystemParams) -> np.ndarray:
        """dv = B dq for a configuration vector in the transverse space."""
        coeff = (self.basis.T * params.mass_weights) @ np.asarray(dq, dtype=float)
        return self.basis @ (self.matrix @ coeff)

    def symmetry_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.T).max())


@dataclass(frozen=True)
class CurvaturePath:
    """Attachment operators (initial, after each collision, final) plus
    a sampled minimum-eigenvalue curve along the flight intervals."""

    operators: tuple[CurvatureOperator, ...]
    sample_times: np.ndarray
    sample_eig_min: np.ndarray

    def operator_at(self, t: float) -> CurvatureOperator:
        """Free-flight inverse shift from the last attachment <= t."""
        idx = 0
        for k, op in enumerate(self.operators):
            if op.time <= t:
                idx = k
        return _shift(self.operators[idx], t)

    @property
    def min_eig_min(self) -> float:
        return float(self.sample_eig_min.min())


def _shift(op: CurvatureOperator, t: float) -> CurvatureOperator:
    """Carry an attachment operator along its free flight to time t."""
    s = t - op.time
    if s == 0.0:
        return op
    binv = np.linalg.inv(op.matrix) + s * np.eye(op.matrix.shape[0])
    b = np.linalg.inv(binv)
    return CurvatureOperator(time=t, basis=op.basis, matrix=0.5 * (b + b.T))


def _as_operator_matrix(b0, dim: int) -> np.ndarray:
    if np.isscalar(b0):
        return float(b0) * np.eye(dim)
    b = np.array(b0, dtype=float)
    if b.shape != (dim, dim):
        raise ValueError(f"operator must be {dim}x{dim}, got {b.shape}")
    return b


def curvature_propagate(b0, traj: TrajectorySegment,
                        *, n_samples: int = 64) -> CurvaturePath:
    """Propagate the curvature operator along a nonsingular segment.

    Between collisions the inverse shifts, B(t+s)^-1 = B(t)^-1 + s*I,
    which is exact and keeps positive operators positive.  A collision
    conjugates by the reflection and adds the scattering form; in the
    co-moving basis U -> RU the update is purely additive.  The matrix
    is symmetrized after every update.
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

    mw = params.mass_weights
    eye = np.eye(dim)
    binv = np.linalg.inv(b)
    ops = [CurvatureOperator(time=0.0, basis=u, matrix=b)]
    samp_t, samp_e = [], []
    grid = np.linspace(0.0, traj.t_end, max(2, n_samples))

    for t_a, t_b, k, frame in _walk(traj):
        for t in grid[(grid >= t_a) & (grid < t_b)]:
            # eig_min(B) through the better-conditioned inverse
            top = np.linalg.eigvalsh(binv + (t - t_a) * eye)[-1]
            samp_t.append(float(t))
            samp_e.append(1.0 / top)
        binv = binv + (t_b - t_a) * eye
        if frame is None:
            top = np.linalg.eigvalsh(binv)[-1]
            samp_t.append(t_b)
            samp_e.append(1.0 / top)
            b = np.linalg.inv(binv)
            ops.append(CurvatureOperator(time=t_b, basis=u,
                                         matrix=0.5 * (b + b.T)))
            break
        b = np.linalg.inv(binv)
        add = (u.T * mw) @ frame.scatter_pre(u)
        b = b + 0.5 * (add + add.T)
        b = 0.5 * (b + b.T)
        u = frame.reflect(u)
        binv = np.linalg.inv(b)
        ops.append(CurvatureOperator(time=t_b, basis=u, matrix=b))

    return CurvaturePath(operators=tuple(ops),
                         sample_times=np.array(samp_t),
                         sample_eig_min=np.array(samp_e))


def curvature_consistency(path: CurvaturePath, traj: TrajectorySegment,
                          *, seed: int = 0, n_times: int = 16) -> float:
    """Worst relative error of dv(t) = B(t) dq(t) along a tangent vector
    started with dv(0) = B(0) dq(0) in the transverse space."""
    params = traj.params
    op0 = path.operators[0]
    rng = make_generator(seed, 41)
    coeff = rng.standard_normal(op0.basis.shape[1])
    dq0 = op0.basis @ coeff
    dv0 = op0.basis @ (op0.matrix @ coeff)
    safe = [t for t in np.linspace(0.0, traj.t_end, n_times)
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


def expansion_check(traj: TrajectorySegment, tau0: TangentVector, c0: float,
                    *, n_samples: int = 256) -> ExpansionCheck:
    """Minimum of ||dq(t)|| / ((1 + c0 t) ||dq(0)||) over sampled times.

    The caller asserts dv(0) = B(0) dq(0) for some B(0) >= c0*I; what
    is actually verifiable from one vector is Q(0) >= 0, and a negative
    Q(0) (impossible for any positive semi-definite operator) or a
    nonpositive c0 is rejected as a usage error.
    """
    params = traj.params
    norm0 = mass_norm(tau0.dq, params)
    if c0 <= 0.0:
        raise ValueError(f"c0 must be positive, got {c0:g}")
    if norm0 == 0.0:
        raise ValueError("dq(0) must be nonzero")
    q0 = mass_inner(tau0.dq, tau0.dv, params)
    if q0 < -1e-12 * norm0 * mass_norm(tau0.dv, params):
        raise ValueError(
            "Q(0) < 0: no positive semi-definite operator sends this "
            "dq(0) to this dv(0)")
    times = np.linspace(0.0, traj.t_end, max(2, n_samples))
    taus = propagate_tangent(traj, tau0, times)
    ratios = np.array([mass_norm(tau.dq, params) / ((1.0 + c0 * t) * norm0)
                       for t, tau in zip(times, taus)])
    k = int(np.argmin(ratios))
    return ExpansionCheck(min_ratio=float(ratios[k]), t_argmin=float(times[k]),
                          times=times, ratios=ratios)


# ---------------------------------------------------------------------------
# cone decomposition


@dataclass(frozen=True)
class ConeDecomposition:
    """Per-disk split of a tangent vector against a lattice direction.

    Each disk's dq and dv block is resolved into the component along
    l0 and the exact remainder, so dq_par + dq_perp reproduces dq
    bitwise; ratios are mass-metric.
    """

    l0: tuple[int, int]
    dq_par: np.ndarray
    dq_perp: np.ndarray
    dv_par: np.ndarray
    dv_perp: np.ndarray
    ratio_q: float
    ratio_v: float

    @property
    def max_ratio(self) -> float:
        return max(self.ratio_q, self.ratio_v)


def cone_decompose(tau: TangentVector, l0, params: SystemParams) -> ConeDecomposition:
    l0 = (int(l0[0]), int(l0[1]))
    if l0 == (0, 0):
        raise ValueError("lattice direction must be nonzero")
    e = np.array(l0, dtype=float)
    e /= math.hypot(e[0], e[1])

    def split(x):
        blocks = np.asarray(x, dtype=float).reshape(-1, 2)
        par = np.outer(blocks @ e, e).reshape(-1)
        return par, np.asarray(x, dtype=float).reshape(-1) - par

    dq_par, dq_perp = split(tau.dq)
    dv_par, dv_perp = split(tau.dv)

    def ratio(par, full):
        denom = mass_norm(full, params)
        return float(mass_norm(par, params) / denom) if denom > 0.0 else 0.0

    return ConeDecomposition(
        l0=l0, dq_par=dq_par, dq_perp=dq_perp, dv_par=dv_par, dv_perp=dv_perp,
        ratio_q=ratio(dq_par, tau.dq), ratio_v=ratio(dv_par, tau.dv))


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


def _mass_on_frame(rng, v, params: SystemParams, m: int) -> np.ndarray:
    """Random (4N, m) frame in Z + Z, mass-orthonormal, with the flow
    direction (v, 0) and the velocity direction (0, v) projected out."""
    z = reduced_space(params)
    n2 = 2 * params.n
    scale = np.sqrt(params.mass_weights)
    vy = (np.asarray(v, dtype=float).reshape(-1) * scale)
    vy /= np.linalg.norm(vy)
    zy = z.basis * scale[:, None]           # Euclidean-orthonormal columns
    coeff = rng.standard_normal((2 * z.dimension, m))
    frame = np.zeros((2 * n2, m))
    frame[:n2] = zy @ coeff[: z.dimension]
    frame[n2:] = zy @ coeff[z.dimension:]
    for excl in (np.r_[vy, np.zeros(n2)], np.r_[np.zeros(n2), vy]):
        frame -= np.outer(excl, excl @ frame)
    q, _ = np.linalg.qr(frame)
    return q


def lyapunov_spectrum(state: PhaseState, t_max: float, params: SystemParams,
                      *, m_exponents: int | None = None,
                      reorth_interval: int = 10,
                      seed: int = 0) -> LyapunovSpectrum:
    """Chunked renormalized-frame Lyapunov estimate in the mass metric.

    The frame lives on the zero-momentum subspace in scaled (mass
    orthonormal) coordinates with the flow and velocity directions
    excluded, and is re-orthonormalized every ``reorth_interval``
    collisions.  A flagged (tangential or double) event aborts the
    current accumulation chunk and restarts with a fresh frame.
    Standard errors are duration-weighted batch means over chunks, so
    they measure fluctuation, not systematic bias.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if reorth_interval < 1:
        raise ValueError("reorth_interval must be >= 1")
    full = 4 * (params.n - 1) - 2
    m = full if m_exponents is None else int(m_exponents)
    if not 1 <= m <= full:
        raise ValueError(f"m_exponents must be in [1, {full}]")
    rng = make_generator(seed, 101)
    traj = simulate(state, t_max, params)
    n2 = 2 * params.n
    scale = np.sqrt(params.mass_weights)
    zy = reduced_space(params).basis * scale[:, None]

    frame = _mass_on_frame(rng, traj.initial.v, params, m)
    logs = np.zeros(m)
    chunk_rates: list[tuple[float, np.ndarray]] = []
    t_accum = 0.0
    n_restarts = 0

    def renormalize(fr_cols, v_now):
        """Project onto the reduced space minus the flow/velocity plane
        and orthonormalize; returns the frame and per-column log growth.
        Rounding during a strongly expanding stretch spills noise onto
        the neutral directions, where nothing damps it; the exact
        re-projection removes it before it can outgrow the contracting
        columns."""
        fr_cols[:n2] = zy @ (zy.T @ fr_cols[:n2])
        fr_cols[n2:] = zy @ (zy.T @ fr_cols[n2:])
        vy = v_now * scale
        vy = vy / np.linalg.norm(vy)
        for excl in (np.r_[vy, np.zeros(n2)], np.r_[np.zeros(n2), vy]):
            fr_cols -= np.outer(excl, excl @ fr_cols)
        q, r = np.linalg.qr(fr_cols)
        diag = np.abs(np.diag(r))
        if np.any(diag == 0.0):
            raise ValidationError("degenerate frame during QR")
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
            frame = _mass_on_frame(rng, post_v, params, m)
            chunk_t0 = t_k
            chunk_logs = np.zeros(m)
            events_in_chunk = 0
            continue
        xq = frame[:n2] / scale[:, None]
        xv = frame[n2:] / scale[:, None]
        xq, xv = _apply_event(fr, xq, xv)
        frame[:n2] = xq * scale[:, None]
        frame[n2:] = xv * scale[:, None]
        events_in_chunk += 1
        close_chunk = events_in_chunk >= reorth_interval
        # interim orthonormalization once the frame spread nears the
        # precision floor; its log growth telescopes into the chunk
        if close_chunk or np.abs(frame).max() > 1e6:
            frame, growth = renormalize(frame, traj.ev_v_post[k].reshape(-1))
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
    nrm0 = np.linalg.norm(scale * traj.initial.v.reshape(-1))
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


def z_length(curve, params: SystemParams) -> float:
    """Mass-metric configuration length of a sampled curve.

    Steps use the minimum torus image per disk; a per-disk step of
    0.1 or more is ambiguous on the unit torus and is refused.
    """
    states = list(curve)
    total = 0.0
    for a, b in zip(states, states[1:]):
        delta = np.asarray(b.q, dtype=float) - np.asarray(a.q, dtype=float)
        wrapped = np.empty_like(delta)
        for k in range(delta.shape[0]):
            wrapped[k], _ = min_image(delta[k])
        step = float(np.max(np.hypot(wrapped[:, 0], wrapped[:, 1])))
        if step >= 0.1:
            raise ResolutionError(
                f"configuration step {step:.3g} >= 0.1; sample the curve "
                "more finely")
        total += mass_norm(wrapped.reshape(-1), params)
    return total


# ---------------------------------------------------------------------------
# series and summary output


def hyperbolicity_series(traj: TrajectorySegment, tau0: TangentVector,
                         audit: QEvolutionAudit, *,
                         path: CurvaturePath | None = None,
                         l0=None) -> dict[str, np.ndarray]:
    """Per-row arrays of the audit of tau0: t, Q, ||dq||, ||dv||,
    optionally the minimum eigenvalue of B along ``path`` and the cone
    ratios against l0.  Every column of a row is taken on the same side
    of a collision, the incoming one on a collision's first row."""
    series: dict[str, np.ndarray] = {
        "t": audit.times, "Q": audit.q_values,
        "dq_norm": audit.dq_norms, "dv_norm": audit.dv_norms}
    crossed = audit.collisions_before
    if path is not None:
        # operators[n] is the attachment after n collisions
        series["b_eig_min"] = np.array([
            _shift(path.operators[n], float(t)).eig_min
            for n, t in zip(crossed, audit.times)])
    if l0 is not None:
        taus = propagate_tangent(traj, tau0, audit.times)
        # propagate_tangent lands on the outgoing side of a collision
        # time; a collision's first row takes the incoming side, which is
        # the previous row carried by its free flight
        for i in np.flatnonzero(crossed[1:] > crossed[:-1]):
            prev = taus[i - 1]
            dt = audit.times[i] - audit.times[i - 1]
            taus[i] = TangentVector(prev.dq + dt * prev.dv, prev.dv)
        cones = [cone_decompose(tau, l0, traj.params) for tau in taus]
        series["cone_ratio_q"] = np.array([c.ratio_q for c in cones])
        series["cone_ratio_v"] = np.array([c.ratio_v for c in cones])
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
