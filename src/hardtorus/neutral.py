"""Neutral spaces, advances, sufficiency, collision graphs, and the
two-parameter neutral translations.

A configuration direction W is neutral for a trajectory window [a, b]
when translating the configuration along W (to first order) leaves
every velocity of the window unchanged.  The neutral space always
contains the flow direction; a window whose neutral space is exactly
that line is called sufficient (hyperbolic).  The advance of a
collision measures how much its time shifts per unit of neutral
translation; advances are constant on connected components of the
collision graph, and on a connected graph equal advances force the
neutral vector to be parallel to the velocity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (IllConditionedAdvanceError, PerturbationTooLargeError,
                     SingularSegmentError, TangentialFrameError,
                     ValidationError)
from .events import TrajectorySegment, _wrap, simulate, symbolic_sequence
from .geometry import (PhaseState, SystemParams, _null_of_row, mass_inner,
                       mass_norm, reduced_space)
from .tangent import (_QUIET, _frame_failure, _walk, frame_for_event,
                      transport_between)

_EDGE_GUARD = 1e-6          # keep reference times away from collisions
_FD_STEP = 1e-6             # configuration shift of the finite-difference advance


def _check_window(traj: TrajectorySegment, a: float, b: float, t_ref: float):
    if not (0.0 <= a < b <= traj.t_end):
        raise ValueError(f"window [{a:g}, {b:g}] outside segment span")
    for name, t in (("a", a), ("b", b), ("t_ref", t_ref)):
        if traj.n_events and np.min(np.abs(traj.ev_t - t)) < _EDGE_GUARD:
            raise ValueError(f"{name} = {t:g} is too close to a collision moment")
    if not (a <= t_ref <= b):
        raise ValueError("t_ref must lie inside [a, b]")


@dataclass(frozen=True)
class NeutralSpaceResult:
    """Neutral space of a trajectory window.

    ``basis`` columns are mass-orthonormal vectors of Z attached at
    ``t_ref``, by a QR only when an event lies in (a, t_ref].  Each
    collision puts one linear condition on them; ``cut_margins`` holds,
    per condition that removed a direction and in walk order from a, the
    relative size of the violation it removed, and ``max_kept_residual``
    the largest relative violation left on the kept space.  Margins far
    above and residuals far below ``rank_rel_tol`` make the dimension
    trustworthy.
    """

    a: float
    b: float
    t_ref: float
    dimension: int
    basis: np.ndarray
    cut_margins: np.ndarray
    max_kept_residual: float
    flow_residual: float


def neutral_space(traj: TrajectorySegment, a: float, b: float, t_ref: float,
                  params: SystemParams) -> NeutralSpaceResult:
    """Neutral space of the window [a, b] attached at t_ref.

    A neutral W keeps every velocity, so at the collision of pair
    (i, j) its relative block W_i - W_j is parallel to the pair's
    relative velocity w, and crossing the collision adds
    alpha (v+ - v-), with alpha = w.(W_i - W_j) / |w|^2 the advance
    (Simanyi & Szasz, Ann. Math. 1999).  One forward sweep from a to b
    carries mass-orthonormal coefficients C on the basis of Z with the
    image B of their vectors, w incoming.  At each collision the
    condition g = perp(w).(B_i - B_j) / |w| is cut away when it exceeds
    rank_rel_tol * max(1, |B_i - B_j|), by restricting C and B to the
    null space of g; nothing is transported through the exponentially
    growing tangent map.  The basis is B as the sweep passes t_ref,
    restricted by the later cuts.  A state at rest has no flow line to
    compare the space with and raises ``ValidationError``.
    """
    _check_window(traj, a, b, t_ref)
    if not mass_norm(traj.initial.v.reshape(-1), params) > 0.0:
        raise ValidationError("neutral_space needs a moving state; "
                              "every velocity is zero")
    zb = reduced_space(params).basis
    tol = params.tolerances.rank_rel_tol
    coeffs, img = np.eye(zb.shape[1]), zb
    margins, kept, ref = [], 0.0, None
    for t_a, t_b, _, frame in _walk(traj, a, b):
        if ref is None and t_b >= t_ref:
            ref = (t_a, img, coeffs)
        if frame is None:
            break
        i, j = frame.i, frame.j
        w = frame.v_pre[2 * i: 2 * i + 2] - frame.v_pre[2 * j: 2 * j + 2]
        nw = math.hypot(w[0], w[1])
        delta = img[2 * i: 2 * i + 2] - img[2 * j: 2 * j + 2]
        g = (w[0] * delta[1] - w[1] * delta[0]) / nw
        scale = max(1.0, float(np.linalg.norm(delta)))
        rel = float(np.linalg.norm(g)) / scale
        if rel > tol:
            margins.append(rel)
            null = _null_of_row(g)
            coeffs, img, delta, g = (coeffs @ null, img @ null,
                                     delta @ null, g @ null)
            rel = float(np.linalg.norm(g)) / scale
        kept = max(kept, rel)
        alpha = (w @ delta) / (nw * nw)
        img = img + np.outer(frame.v_post - frame.v_pre, alpha)
    basis = zb @ coeffs
    t_snap, img_ref, coeffs_ref = ref
    if t_snap > a:  # the image at t_ref cut to coeffs_ref^T coeffs, in Z
        basis = zb @ np.linalg.qr((zb.T * params.mass_weights) @ img_ref
                                  @ (coeffs_ref.T @ coeffs))[0]
    dim = basis.shape[1]

    v_ref = traj.state_at(t_ref).v.reshape(-1)
    vn = mass_norm(v_ref, params)
    coeff = (basis.T * params.mass_weights) @ v_ref
    flow_residual = mass_norm(v_ref - basis @ coeff, params) / vn if dim else 1.0
    return NeutralSpaceResult(
        a=a, b=b, t_ref=t_ref, dimension=dim, basis=basis,
        cut_margins=np.array(margins), max_kept_residual=kept,
        flow_residual=flow_residual)


@dataclass(frozen=True)
class SufficiencyVerdict:
    verdict: str                     # sufficient | not_sufficient | undecidable
    result: NeutralSpaceResult


def is_sufficient(traj: TrajectorySegment,
                  params: SystemParams) -> SufficiencyVerdict:
    """Sufficient iff the neutral space of the whole segment is the flow
    line alone.

    The verdict is ``undecidable`` only when a rank decision sits near
    roundoff: a cut margin below 100 * rank_rel_tol, a kept residual
    above rank_rel_tol / 100, or no direction kept at all.  The window
    is [0, t_end], attached at 0; a segment that ends within _EDGE_GUARD
    after its last collision (as one stopped by max_events does) ends
    its window halfway between that collision and the one before it, or
    0 when it is the first.
    """
    b = traj.t_end
    last = traj.ev_t[-2:].tolist()
    if last and b - last[-1] < _EDGE_GUARD:
        b = 0.5 * (max([0.0] + last[:-1]) + last[-1])
    res = neutral_space(traj, 0.0, b, 0.0, params)
    tol = params.tolerances.rank_rel_tol
    if (res.dimension == 0 or res.max_kept_residual > tol / 100.0
            or np.any(res.cut_margins < 100.0 * tol)):
        return SufficiencyVerdict("undecidable", res)
    if res.dimension == 1:
        return SufficiencyVerdict("sufficient", res)
    return SufficiencyVerdict("not_sufficient", res)


def _pre_collision_vectors(traj: TrajectorySegment, W, t_ref: float,
                           ks) -> np.ndarray:
    """Incoming-side configuration parts of (W, 0) transported from t_ref.

    Row k holds the value at event k for every k in ``ks``, events after
    t_ref; other rows stay NaN.  One forward chain of transport_between
    calls reaches them.  It lands on the outgoing side of an event time,
    so the chain continues from there, and the reflection, the
    configuration half of the inverse collision step, exposes the
    incoming representation.  Each row equals a single transport from
    t_ref to its event.
    """
    w = np.asarray(W, dtype=float).reshape(-1)
    out = np.full((traj.n_events, w.size), np.nan)
    xq, xv = w.copy(), np.zeros_like(w)
    t = t_ref
    with np.errstate(**_QUIET):
        for k in sorted({int(k) for k in ks}):
            t_k = float(traj.ev_t[k])
            xq, xv = transport_between(traj, xq, xv, t, t_k)
            out[k] = frame_for_event(traj, k).reflect(xq)
            t = t_k
    return out


def advance(traj: TrajectorySegment, W, k, params: SystemParams,
            *, t_ref: float = 0.0, method: str = "closed_form"):
    """Advance of collision k with respect to the neutral direction W.

    closed_form solves the proportionality of the pre-collision
    configuration variation difference against the relative velocity in
    least squares; finite_difference re-simulates from configurations
    shifted by +-_FD_STEP*W and differences the collision time.  Both
    carry W forward from t_ref, so an event at or before t_ref raises
    ``ValueError``.  With an array of event indices for ``k`` the closed
    form returns an array of advances, one per index, from one sweep
    along the orbit.  None is inf or NaN: ``NumericalFailureError``
    names the event instead.
    """
    if traj.singular:
        raise SingularSegmentError("segment carries singular events")
    ks = np.asarray(k)
    scalar = ks.ndim == 0
    if not scalar and method == "finite_difference":
        raise ValueError("the finite-difference advance takes one event index")
    ks = ks.reshape(-1)
    terms = []
    for kk in ks:
        if not 0 <= kk < traj.n_events:
            raise ValueError(f"event index {kk} out of range")
        if not t_ref < float(traj.ev_t[kk]):
            raise ValueError(f"advance needs t_ref before the event; "
                             f"event {kk} is at t = {float(traj.ev_t[kk]):.17g}")
        i, j = int(traj.ev_pair[kk, 0]), int(traj.ev_pair[kk, 1])
        dv_rel = (traj.ev_v_pre[kk].reshape(-1, 2)[i]
                  - traj.ev_v_pre[kk].reshape(-1, 2)[j])
        nrm2 = float(dv_rel @ dv_rel)
        if nrm2 < 1e-8 ** 2:
            raise IllConditionedAdvanceError(
                f"relative velocity of pair ({i}, {j}) too small: "
                f"{math.sqrt(nrm2):.3g}")
        terms.append((i, j, dv_rel, nrm2))
    if method == "closed_form":
        pre = _pre_collision_vectors(traj, W, t_ref, ks)
        vals = []
        with np.errstate(**_QUIET):
            for kk, (i, j, dv_rel, nrm2) in zip(ks, terms):
                xq = pre[kk]
                dq_rel = xq.reshape(-1, 2)[i] - xq.reshape(-1, 2)[j]
                vals.append(float(dq_rel @ dv_rel) / nrm2)
                if not math.isfinite(vals[-1]):
                    raise _frame_failure(traj, int(kk), "non-finite advance")
        return vals[0] if scalar else np.array(vals)
    if method == "finite_difference":
        i, j = terms[0][:2]
        # state_at is on the outgoing side of an event time, so an event
        # at t_ref is behind the perturbed runs
        ref_state = traj.state_at(t_ref)
        w = np.asarray(W, dtype=float).reshape(-1, 2)
        n_before = int(np.searchsorted(traj.ev_t, t_ref, side="right"))
        k_local = k - n_before
        t_k = float(traj.ev_t[k])
        horizon = t_k - t_ref
        horizon += 0.5 * (float(traj.ev_t[k + 1]) - t_k) if k + 1 < traj.n_events \
            else 0.5 * (traj.t_end - t_k)
        times = []
        for sgn in (+1.0, -1.0):
            pert = PhaseState(q=_wrap(ref_state.q + sgn * _FD_STEP * w),
                              v=ref_state.v)
            try:
                seg = simulate(pert, horizon, params)
            except ValidationError as exc:
                # a pair in contact at t_ref that W moves apart overlaps
                # on the other side of the difference
                raise IllConditionedAdvanceError(
                    f"perturbed state is not admissible ({exc}); W moves "
                    f"disks in contact at t_ref") from exc
            if seg.n_events <= k_local or \
                    tuple(seg.ev_pair[k_local]) != (i, j):
                raise IllConditionedAdvanceError(
                    "perturbed trajectory lost the collision; W is not "
                    "neutral enough for the finite-difference advance")
            times.append(t_ref + float(seg.ev_t[k_local]))
        return (times[1] - times[0]) / (2.0 * _FD_STEP)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class CollisionGraph:
    """Collision graph of a symbolic sequence with component data."""

    n: int
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def connected(self) -> bool:
        return self.k == 1

    @property
    def richness(self) -> int:
        """Maximum number of consecutive disjoint windows of ``edges``
        with connected collision graphs, built greedily left to right
        (shortest windows): one union-find pass that starts afresh each
        time its window connects every disk."""
        count = 0
        parent, parts = list(range(self.n)), self.n
        for i, j in self.edges:
            ri, rj = _root(parent, i), _root(parent, j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
                parts -= 1
            if parts == 1:
                count += 1
                parent, parts = list(range(self.n)), self.n
        return count

    @property
    def label(self) -> tuple[int, ...]:
        """Each disk's index in ``components``."""
        out = [0] * self.n
        for ci, members in enumerate(self.components):
            for i in members:
                out[i] = ci
        return tuple(out)


def _root(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union_find_components(n: int, edges) -> tuple[tuple[int, ...], ...]:
    parent = list(range(n))
    for i, j in edges:
        ri, rj = _root(parent, i), _root(parent, j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(_root(parent, x), []).append(x)
    return tuple(tuple(sorted(g)) for g in
                 sorted(groups.values(), key=lambda g: g[0]))


def collision_graph(sigma, n: int) -> CollisionGraph:
    edges = tuple((min(i, j), max(i, j)) for i, j in sigma)
    return CollisionGraph(n=n, edges=edges,
                          components=_union_find_components(n, edges))


@dataclass(frozen=True)
class AdvanceReport:
    advances: np.ndarray                 # per event, closed form
    components: tuple[tuple[int, ...], ...]
    component_of_event: np.ndarray
    component_spread: np.ndarray         # max advance difference inside each
    graph_connected: bool
    parallel_residual: float             # distance of W from the flow line


def advance_report(traj: TrajectorySegment, W,
                   params: SystemParams) -> AdvanceReport:
    """Advances of every collision, grouped by collision-graph component,
    for W attached at time 0.

    Within one component all advances of a neutral W agree; when the
    whole graph is connected and they all agree, W can only be the flow
    direction, which ``parallel_residual`` quantifies.
    """
    graph = collision_graph(symbolic_sequence(traj), params.n)
    alphas = advance(traj, W, np.arange(traj.n_events), params)
    comp_of = np.array(graph.label, dtype=int)[traj.ev_pair[:, 0]]
    spread = np.zeros(len(graph.components))
    for ci in range(len(graph.components)):
        vals = alphas[comp_of == ci]
        if vals.size:
            spread[ci] = float(vals.max() - vals.min())
    w = np.asarray(W, dtype=float).reshape(-1)
    v = traj.state_at(0.0).v.reshape(-1)
    coeff = mass_inner(w, v, params) / mass_inner(v, v, params)
    resid = mass_norm(w - coeff * v, params) / max(mass_norm(w, params), 1e-300)
    return AdvanceReport(advances=alphas, components=graph.components,
                         component_of_event=comp_of, component_spread=spread,
                         graph_connected=graph.connected,
                         parallel_residual=resid)


def neutral_translate(state: PhaseState, w0, tau1: float, tau2: float,
                      params: SystemParams) -> PhaseState:
    """Two-parameter neutral translation of a phase point.

    The configuration slides along w0 for length tau1; hitting the
    boundary reflects both the sliding direction and the velocity in
    the contact tangent plane, exactly the billiard transport of the
    direction field.  The velocity becomes (v + tau2*w)/sqrt(1+tau2^2),
    with w the (possibly reflected) translation direction, keeping the
    energy at one half exactly.
    """
    w = np.asarray(w0, dtype=float).reshape(-1)
    v = state.v.reshape(-1)
    if abs(mass_norm(w, params) - 1.0) > 1e-8:
        raise ValueError("w0 must be a unit vector in the mass metric")
    if abs(mass_inner(w, v, params)) > 1e-8:
        raise ValueError("w0 must be mass-orthogonal to the velocity")
    v_new = v.copy()
    if tau1 != 0.0:
        sgn = math.copysign(1.0, tau1)
        sweep = simulate(PhaseState(q=state.q, v=sgn * w.reshape(-1, 2)),
                         abs(tau1), params)
        try:
            for _, _, _, frame in _walk(sweep):
                if frame is not None:
                    v_new = frame.reflect(v_new)
        except (SingularSegmentError, TangentialFrameError) as exc:
            raise PerturbationTooLargeError(
                f"configuration sweep crosses a singular contact: {exc}") from exc
        q_new = sweep.final.q
        w = sgn * sweep.final.v.reshape(-1)
    else:
        q_new = state.q
    scale = 1.0 / math.sqrt(1.0 + tau2 * tau2)
    return PhaseState(q=q_new, v=scale * (v_new + tau2 * w).reshape(-1, 2))


def neutral_report(traj: TrajectorySegment, params: SystemParams) -> dict:
    """JSON-ready summary of the window ``is_sufficient`` takes: dimension,
    cut margins and largest kept residual of the neutral space,
    sufficiency, per-collision advances of the neutral basis, and the
    components and richness of the one collision graph."""
    verdict = is_sufficient(traj, params)
    res = verdict.result
    graph = collision_graph(symbolic_sequence(traj), params.n)
    every = np.arange(traj.n_events)
    advances = []
    for col in range(res.dimension):
        try:
            vals = advance(traj, res.basis[:, col], every, params,
                           t_ref=res.t_ref).tolist()
        except IllConditionedAdvanceError:
            vals = None
        advances.append(vals)
    return {
        "window": {"a": res.a, "b": res.b, "t_ref": res.t_ref},
        "dimension": res.dimension,
        "cut_margins": res.cut_margins.tolist(),
        "max_kept_residual": res.max_kept_residual,
        "flow_residual": res.flow_residual,
        "verdict": verdict.verdict,
        "advances_per_basis_vector": advances,
        "components": [list(c) for c in graph.components],
        "richness": graph.richness,
        "n_events": traj.n_events,
    }
