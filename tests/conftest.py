"""Shared test helpers: certified finite-difference oracle and friends.

The finite-difference derivative of the flow map is only trustworthy
when every perturbed orbit undergoes the same collision sequence as the
base orbit and the Richardson levels agree; fd_tangent certifies both
and returns None otherwise, so callers can skip windows instead of
comparing against junk.
"""
from __future__ import annotations

import dataclasses
import decimal
import math

import numpy as np

from hardtorus import degenerate
from hardtorus.events import reverse_state, simulate, symbolic_sequence
from hardtorus.geometry import (PhaseState, SystemParams, mass_inner,
                                mass_norm, project_to_Z, reduced_space,
                                sample_state, transverse_basis)
from hardtorus.hyperbolic import (CurvatureOperator, CurvaturePath,
                                  ExpansionCheck, QEvolutionAudit,
                                  _as_operator_matrix)
from hardtorus.neutral import collision_graph
from hardtorus.rng import make_generator
from hardtorus.tangent import (_TABLE_CHUNK, NormalTransportResult,
                               NormalVector, TangentVector, _apply_event,
                               _CollisionTable, _walk, propagate_tangent)


def flow_endpoint(q0, v0, t, params, base_seq):
    """Endpoint of the flow, or None if the symbolic sequence changed."""
    st = PhaseState(q=np.asarray(q0).reshape(-1, 2) % 1.0,
                    v=np.asarray(v0).reshape(-1, 2))
    tr = simulate(st, t, params)
    if tr.singular or symbolic_sequence(tr) != base_seq:
        return None
    fin = tr.final
    return fin.q.reshape(-1), fin.v.reshape(-1)


def fd_tangent(base, dq, dv, t, params):
    """Certified three-level central-difference derivative of the flow.

    Steps 2e-7, 1e-7, 5e-8 with Richardson extrapolation; returns None
    unless all six perturbed orbits keep the base collision sequence
    and the two extrapolation levels agree to 2e-6 relative.
    """
    q0 = base.initial.q.reshape(-1)
    v0 = base.initial.v.reshape(-1)
    seq = symbolic_sequence(base)
    diff = {}
    for hh in (2e-7, 1e-7, 5e-8):
        plus = flow_endpoint(q0 + hh * dq, v0 + hh * dv, t, params, seq)
        minus = flow_endpoint(q0 - hh * dq, v0 - hh * dv, t, params, seq)
        if plus is None or minus is None:
            return None
        dqv = (plus[0] - minus[0] + 0.5) % 1.0 - 0.5
        diff[hh] = np.hstack([dqv, plus[1] - minus[1]]) / (2 * hh)
    r1 = (4 * diff[1e-7] - diff[2e-7]) / 3
    r2 = (4 * diff[5e-8] - diff[1e-7]) / 3
    if np.linalg.norm(r1 - r2) > 2e-6 * np.linalg.norm(r2):
        return None
    return r2


def certified_window(seed, *, min_cos=1e-3, min_events=5):
    """A short nonsingular segment ending between collisions, or None.

    Alternates N = 2 and N = 3 with unequal masses; the window closes
    shortly after the fifth collision so hyperbolic amplification stays
    small enough for finite differences.
    """
    n_disks = 2 + seed % 2
    params = SystemParams(masses=tuple(1.0 + 0.5 * k for k in range(n_disks)),
                          radius=0.15 if n_disks == 2 else 0.10)
    st = sample_state(100 + seed, params)
    probe = simulate(st, 12.0, params)
    if probe.singular or probe.n_events < min_events + 1 or \
            probe.min_cos_phi <= min_cos:
        return None
    tw = probe.ev_t[min_events - 1] + 0.03
    if probe.ev_t[min_events] - probe.ev_t[min_events - 1] < 0.06:
        tw = 0.5 * (probe.ev_t[min_events] + probe.ev_t[min_events - 1])
    base = simulate(st, tw, params)
    if base.singular or base.n_events < min_events or \
            base.min_cos_phi <= min_cos:
        return None
    return params, st, base, tw


def fd_check_window(seed):
    """Relative error of tangent transport against the oracle, or None."""
    built = certified_window(seed)
    if built is None:
        return None
    params, st, base, tw = built
    m2 = 2 * params.n
    prng = make_generator(17, seed)
    dq = project_to_Z(prng.standard_normal(m2), params)
    dv = project_to_Z(prng.standard_normal(m2), params)
    oracle = fd_tangent(base, dq, dv, tw, params)
    if oracle is None:
        return None
    out = propagate_tangent(base, TangentVector(dq, dv), [tw])[0]
    got = np.hstack([out.dq, out.dv])
    return float(np.linalg.norm(got - oracle) / np.linalg.norm(oracle))


def neutral_deviations(traj, w, a, b, t_ref, params, eps=1e-5):
    """Worst end-velocity deviation of the configuration shift w, at
    step eps and at eps/10.

    The state at t_ref, shifted by step * w, is re-simulated forward to
    b and, through the velocity involution, backward to a; the
    deviation is the mass norm of the velocity change at either end.
    A neutral w deviates at second order or at the roundoff floor, a
    non-neutral one at first order, so the ratio of the two values
    (about 10 for first order) tells them apart where one value alone
    cannot.  Roundoff in the shifted start grows with the orbit's
    Lyapunov exponent, so the floor rises with the window length.
    """
    ref = traj.state_at(t_ref)
    w = np.asarray(w, dtype=float).reshape(-1, 2)
    out = []
    for step in (eps, eps / 10.0):
        shifted = PhaseState(q=(ref.q + step * w) % 1.0, v=ref.v)
        v_b = simulate(shifted, b - t_ref, params).final.v
        worst = mass_norm(v_b - traj.state_at(b).v, params)
        if t_ref > a:
            back = simulate(reverse_state(shifted), t_ref - a, params)
            v_a = reverse_state(back.final).v
            worst = max(worst, mass_norm(v_a - traj.state_at(a).v, params))
        out.append(worst)
    return tuple(out)


# Exact dyadic set-ups with r = 1/8 (2r = 1/4), so the contacts of
# grazing_orbit and double_orbit happen at exactly t = 1/2.
P3_DYADIC = SystemParams(masses=(1.0, 1.3, 0.7), radius=0.125)


def clean_segments(params, t, count, start_seed=0, min_events=1):
    """First ``count`` nonsingular segments from consecutive seeds."""
    out = []
    seed = start_seed
    while len(out) < count and seed < start_seed + 20 * count:
        traj = simulate(sample_state(seed, params), t, params)
        seed += 1
        if traj.singular or traj.n_events < min_events:
            continue
        out.append(traj)
    assert len(out) == count
    return out


def grazing_orbit():
    """Disks 0 and 1 pass at exactly 2r and touch tangentially at t = 1/2,
    a flagged event; regular collisions follow."""
    state = PhaseState(q=[[0.25, 0.5], [0.75, 0.75], [0.25, 0.125]],
                       v=[[0.5, 0.0], [-0.5, 0.0], [-0.0625, 0.125]])
    return simulate(state, 20.0, P3_DYADIC)


def double_orbit():
    """Disks 0 and 2 reach the resting disk 1 together at t = 1/2, a
    double event; regular collisions follow."""
    state = PhaseState(q=[[0.125, 0.5], [0.5, 0.5], [0.5, 0.125]],
                       v=[[0.25, 0.0], [0.0, 0.0], [0.0, 0.25]])
    return simulate(state, 20.0, P3_DYADIC)


def boundary_orbit():
    """Disk 0 grazes disk 1 at t = 1/2, the end of the first prediction
    chunk, while disk 2 reaches disk 1 at that same instant; (1, 2) and
    then (0, 1) collide at t = 1/2 too."""
    state = PhaseState(q=[[0.25, 0.75], [0.5, 0.5], [0.5, 0.125]],
                       v=[[0.5, 0.0], [0.0, 0.0], [0.0, 0.25]])
    return simulate(state, 20.0, P3_DYADIC)


def contact_traj(t=12.0):
    """Three disks, 0 and 1 touching and approaching at t = 0, so the
    first collision happens exactly at the start."""
    params = SystemParams(masses=(1.0, 1.3, 0.7), radius=0.1)
    u = np.array([math.cos(0.3), math.sin(0.3)])
    q = np.array([[0.4, 0.5], [0.4, 0.5], [0.8, 0.2]])
    q[1] = q[0] - 2.0 * params.radius * u
    v = np.array([[-0.5, 0.2], [0.4, 0.3], [0.1, -0.7]])
    m = params.mass_array
    v -= (m[:, None] * v).sum(axis=0) / m.sum()
    v /= mass_norm(v, params)
    traj = simulate(PhaseState(q=q % 1.0, v=v), t, params)
    assert traj.ev_t[0] == 0.0 and not traj.singular
    return traj


def no_overlap_headroom(traj, tol=1e-9):
    """Certify that no two disks overlap anywhere along the trajectory.

    Between consecutive events every pair's relative position moves on
    a straight line x(s) = d + l + w*s, 0 <= s <= T, for each lattice
    image l.  Its closest approach to the origin is at
    s* = clip(-(d + l).w / |w|^2, 0, T), in closed form, so the check
    needs no time sampling.  Only images with |d + l| <= |w|*T + 2r can
    come within 2r; with d the nearest image, |d| <= 1/2 per axis, so
    they all lie in the box |l| <= floor(|w|*T + 2r + 1/2) per axis, and
    every image in that box is checked.  Asserts that each closest
    approach is at least 2r - tol and returns the smallest headroom,
    closest approach - 2r, over all pairs, flights and images.
    """
    params = traj.params
    two_r = 2.0 * params.radius
    a, b = np.triu_indices(params.n, k=1)
    starts = np.r_[0.0, traj.ev_t]
    ends = np.r_[traj.ev_t, traj.t_end]
    qs = np.concatenate([traj.initial.q[None], traj.ev_q])
    vs = np.concatenate([traj.initial.v[None], traj.ev_v_post])
    worst = np.inf
    for f in range(len(starts)):
        span = ends[f] - starts[f]
        d = qs[f, a] - qs[f, b]
        d -= np.rint(d)
        w = vs[f, a] - vs[f, b]
        ww = np.einsum("pk,pk->p", w, w)
        k = math.floor(math.sqrt(ww.max(initial=0.0)) * span + two_r + 0.5)
        grid = np.arange(-k, k + 1, dtype=float)
        lat = np.stack(np.meshgrid(grid, grid, indexing="ij"), -1).reshape(-1, 2)
        x = d[:, None, :] + lat[None, :, :]
        proj = -np.einsum("pmk,pk->pm", x, w)
        s = np.divide(proj, ww[:, None], out=np.zeros_like(proj),
                      where=ww[:, None] > 0.0)
        s = np.clip(s, 0.0, span)
        closest = np.hypot(*np.moveaxis(x + s[..., None] * w[:, None, :], -1, 0))
        m = np.unravel_index(np.argmin(closest), closest.shape)
        headroom = float(closest[m]) - two_r
        assert headroom >= -tol, (
            f"pair ({a[m[0]]}, {b[m[0]]}) overlaps by {-headroom:.3g} in the "
            f"flight [{starts[f]:.17g}, {ends[f]:.17g}]")
        worst = min(worst, headroom)
    return worst


# ---------------------------------------------------------------------------
# Per-pair torus and exchange oracles.  The library computes these inline
# or over all pairs at once (geometry._pair_gaps, the exchange inside
# events.simulate), and must match them bit for bit.

# Largest |distance - 2r| that ref_resolve_collision accepts as a contact.
_CONTACT_TOL = 1e-9


def ref_min_image(delta):
    """Shortest representative of a position difference on the torus.

    Returns ``(delta + l, l)`` with integer l minimising the Euclidean
    norm; exact ties pick the lexicographically smallest l.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {delta.shape}")
    out = np.empty(2)
    lat = np.empty(2, dtype=int)
    for axis in range(2):
        d = delta[axis]
        k0 = -math.floor(d)
        best = min((abs(d + k), k) for k in (k0 - 1, k0, k0 + 1))
        lat[axis] = best[1]
        out[axis] = d + best[1]
    return out, lat


def ref_torus_delta(qi, qj):
    """Min-image difference qi - qj with its lattice offset."""
    return ref_min_image(np.asarray(qi, dtype=float) - np.asarray(qj, dtype=float))


def ref_pair_distance(state, i, j):
    d, _ = ref_torus_delta(state.q[i], state.q[j])
    return float(np.hypot(d[0], d[1]))


def ref_resolve_collision(state, i, j, image, params):
    """Elastic exchange along the contact line; positions unchanged."""
    if i == j:
        raise ValueError("a disk cannot collide with itself")
    i, j = min(i, j), max(i, j)
    two_r = 2.0 * params.radius
    d = state.q[i] - state.q[j] + np.asarray(image, dtype=float)
    dist = math.hypot(d[0], d[1])
    if abs(dist - two_r) > _CONTACT_TOL:
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


def ref_decimal_events(state, params, n_events):
    """The first ``n_events`` collisions of the exact orbit through the
    state's floats, computed in 60-digit decimal arithmetic.

    Each step solves every pair against every lattice image that can
    reach contact within a horizon, doubled until some image holds an
    approaching root, and moves all disks to the earliest root.  The
    positions are wrapped into [0, 1): decimal ``%`` keeps the dividend's
    sign, so a negative remainder takes + 1.  The contact image is then
    read from the wrapped positions (the nearest image, as the engine
    reads it), not carried over from the solve's lift, and the pair
    exchanges momentum as in ``ref_resolve_collision``.  Returns one
    (t, (i, j), (lx, ly), q, v) per event, q and v the positions and
    velocities after it as lists of decimal [x, y] pairs.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        dec = decimal.Decimal
        m = [dec(float(x)) for x in params.masses]
        two_r = 2 * dec(float(params.radius))
        q = [[dec(float(c)) for c in row] for row in np.asarray(state.q)]
        v = [[dec(float(c)) for c in row] for row in np.asarray(state.v)]
        t, events = dec(0), []
        while len(events) < n_events:
            horizon, hit = dec("0.125"), None
            while hit is None:
                hit = _ref_decimal_root(q, v, two_r, horizon)
                horizon *= 2
            dt, i, j = hit
            t += dt
            for row, vel in zip(q, v):
                for c in (0, 1):
                    x = (row[c] + dt * vel[c]) % 1
                    row[c] = x + 1 if x < 0 else x
            dx, dy = q[i][0] - q[j][0], q[i][1] - q[j][1]
            _, lx, ly = min(((dx + a) ** 2 + (dy + b) ** 2, a, b)
                            for a in (-1, 0, 1) for b in (-1, 0, 1))
            cx, cy = dx + lx, dy + ly
            dist = (cx * cx + cy * cy).sqrt()
            ux, uy = cx / dist, cy / dist
            g = 2 * ((v[i][0] - v[j][0]) * ux
                     + (v[i][1] - v[j][1]) * uy) / (m[i] + m[j])
            v[i][0] -= m[j] * g * ux
            v[i][1] -= m[j] * g * uy
            v[j][0] += m[i] * g * ux
            v[j][1] += m[i] * g * uy
            events.append((t, (i, j), (lx, ly), [row[:] for row in q],
                           [row[:] for row in v]))
    return events


def _ref_decimal_root(q, v, two_r, horizon):
    """Earliest approaching contact (dt, i, j) with dt in (0, horizon],
    over every pair and every image within reach |w| horizon + 2r of it,
    or None."""
    best = None
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            dx, dy = q[i][0] - q[j][0], q[i][1] - q[j][1]
            wx, wy = v[i][0] - v[j][0], v[i][1] - v[j][1]
            a = wx * wx + wy * wy
            if a == 0:
                continue
            reach = a.sqrt() * horizon + two_r
            for lx in range(math.floor(-reach - dx), math.ceil(reach - dx) + 1):
                for ly in range(math.floor(-reach - dy),
                                math.ceil(reach - dy) + 1):
                    x, y = dx + lx, dy + ly
                    b = x * wx + y * wy
                    if b >= 0:
                        continue  # receding from this image
                    disc = b * b - a * (x * x + y * y - two_r * two_r)
                    if disc < 0:
                        continue
                    dt = (-b - disc.sqrt()) / a
                    if 0 < dt <= horizon and (best is None or dt < best[0]):
                        best = (dt, i, j)
    return best


def _is_float(x):
    return isinstance(x, (float, np.floating))


def assert_values_close(ref, got, *, rel, free=(), path=""):
    """Assert that two nested results agree value by value.

    Walks dicts (equal key sets), lists and tuples (equal lengths) and
    numpy arrays (equal shapes).  Non-float leaves must be equal; float
    leaves, and where either side is a float the pair, must agree to
    ``rel`` times the larger magnitude (NaN matches only NaN).  A path
    is the dotted chain of dict keys from the root, which list and array
    elements share with their container; paths named in ``free`` are not
    compared.
    """
    if path in free:
        return
    where = path or "<root>"
    if isinstance(ref, dict):
        assert isinstance(got, dict) and set(ref) == set(got), \
            f"{where}: keys {sorted(ref)} != {sorted(got)}"
        for key in ref:
            assert_values_close(ref[key], got[key], rel=rel, free=free,
                                path=f"{path}.{key}" if path else str(key))
    elif isinstance(ref, (list, tuple)):
        assert isinstance(got, (list, tuple)) and len(ref) == len(got), \
            f"{where}: lengths differ"
        for a, b in zip(ref, got):
            assert_values_close(a, b, rel=rel, free=free, path=path)
    elif isinstance(ref, np.ndarray) or isinstance(got, np.ndarray):
        a, b = np.asarray(ref), np.asarray(got)
        assert a.shape == b.shape, f"{where}: shapes {a.shape} != {b.shape}"
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            a, b = a.astype(float), b.astype(float)
            bound = rel * np.maximum(np.abs(a), np.abs(b))
            bad = ~((np.abs(a - b) <= bound) | (np.isnan(a) & np.isnan(b)))
            assert not bad.any(), \
                f"{where}: {a[bad][0]!r} != {b[bad][0]!r} (rel {rel:g})"
        else:
            assert np.array_equal(a, b), f"{where}: {a} != {b}"
    elif (_is_float(ref) or _is_float(got)) and not (
            isinstance(ref, bool) or isinstance(got, bool)):
        a, b = float(ref), float(got)
        assert (abs(a - b) <= rel * max(abs(a), abs(b))
                or (math.isnan(a) and math.isnan(b))), \
            f"{where}: {a!r} != {b!r} (rel {rel:g})"
    else:
        assert type(ref) is type(got) and ref == got, \
            f"{where}: {ref!r} != {got!r}"


def stalled_copy(traj, k):
    """traj with the pair of event k given equal incoming velocities, and
    the zero incidence cosine that such a pair has recorded."""
    i, j = traj.ev_pair[k]
    v_pre = traj.ev_v_pre.copy()
    v_pre[k, j] = v_pre[k, i]
    cosphi = traj.ev_cosphi.copy()
    cosphi[k] = 0.0
    return dataclasses.replace(traj, ev_v_pre=v_pre, ev_cosphi=cosphi)


def bfs_components(n, edges):
    """Reference connected components, sorted by smallest member."""
    adj = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, comps = set(), []
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            node = stack.pop()
            comp.append(node)
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


def ref_richness(n, sigma):
    """Reference richness: the greedy shortest windows, each decided
    connected by bfs_components on the window's own edges."""
    count, window = 0, []
    for pair in sigma:
        window.append(pair)
        if len(bfs_components(n, window)) == 1:
            count, window = count + 1, []
    return count


# ---------------------------------------------------------------------------
# Row-by-row reference diagnostics.  These are the per-row bodies of the
# audit diagnostics (one mass_inner / mass_norm / inv / eigvalsh call per
# row); the library computes the same columns over whole stacks and must
# match them bit for bit.


def ref_propagate_tangent(traj, tau, times):
    """Per-row propagate_tangent: one TangentVector built per time, each
    from its flight's start vector."""
    times = [float(t) for t in times]
    out = []
    xq, xv = np.array(tau.dq), np.array(tau.dv)
    for t_a, t_b, k, frame in _walk(traj, t_to=times[-1]):
        while len(out) < len(times) and (k is None or times[len(out)] < t_b):
            out.append(TangentVector(xq + (times[len(out)] - t_a) * xv, xv))
        if k is None:
            break
        xq, xv = _apply_event(frame, xq + (t_b - t_a) * xv, xv)
    return out


def ref_tangent_map(traj):
    """tangent_map's matrix from one _walk + _apply_event loop over the
    stacked basis of Z + Z."""
    params = traj.params
    zb = reduced_space(params).basis
    d = zb.shape[1]
    xq = np.hstack([zb, np.zeros_like(zb)])
    xv = np.hstack([np.zeros_like(zb), zb])
    for t_a, t_b, k, frame in _walk(traj):
        xq = xq + (t_b - t_a) * xv
        if frame is not None:
            xq, xv = _apply_event(frame, xq, xv)
    proj = zb.T * params.mass_weights
    return np.block([[proj @ xq[:, :d], proj @ xq[:, d:]],
                     [proj @ xv[:, :d], proj @ xv[:, d:]]])


def ref_q_evolution_audit(traj, tau0, *, n_samples=64):
    params = traj.params
    dq = np.array(tau0.dq, dtype=float)
    dv = np.array(tau0.dv, dtype=float)
    grid = np.linspace(0.0, traj.t_end, max(2, n_samples))

    times, rows_q, rows_v, qs, nq, nv, crossed = [], [], [], [], [], [], []
    jumps, formulas = [], []     # (q_pre, q_post, jump) and formula per collision
    flight_res = 0.0
    mid_res = 0.0
    jump_defect = 0.0

    def record(t, dq_t, dv_t):
        times.append(t)
        rows_q.append(dq_t)
        rows_v.append(dv_t)
        qs.append(mass_inner(dq_t, dv_t, params))
        nq.append(mass_norm(dq_t, params))
        nv.append(mass_norm(dv_t, params))
        crossed.append(len(jumps))

    for t_a, t_b, k, frame in _walk(traj):
        inner = grid[(grid > t_a) & (grid < t_b)]
        samples = np.r_[t_a, inner, t_b] if t_b > t_a else np.r_[t_a]
        prev_t, prev_dq = None, None
        for t in samples:
            dq_t = dq + (t - t_a) * dv
            record(t, dq_t, dv)
            if prev_t is not None and t > prev_t:
                mid = dq + (0.5 * (t + prev_t) - t_a) * dv
                n_new = mass_norm(dq_t, params)
                n_old = mass_norm(prev_dq, params)
                n2_new, n2_old = n_new * n_new, n_old * n_old
                rhs = 2.0 * mass_inner(mid, dv, params) * (t - prev_t)
                mid_res = max(mid_res, abs(n2_new - n2_old - rhs)
                              / max(1.0, n2_new, n2_old))
            prev_t, prev_dq = t, dq_t
        q_start = mass_inner(dq, dv, params)
        dq_end = dq + (t_b - t_a) * dv
        q_end = mass_inner(dq_end, dv, params)
        n_dv = mass_norm(dv, params)
        flight_res = max(flight_res, abs(
            q_end - q_start - (t_b - t_a) * (n_dv * n_dv))
            / max(1.0, abs(q_end), abs(q_start)))
        if frame is None:
            break
        formula = mass_inner(frame.scatter_pre(dq_end), dq_end, params)
        dq_post, dv_post = _apply_event(frame, dq_end, dv)
        q_post = mass_inner(dq_post, dv_post, params)
        jumps.append((q_end, q_post, q_post - q_end))
        formulas.append(formula)
        jump_defect = max(jump_defect, abs((q_post - q_end) - formula)
                          / max(1.0, abs(q_post), abs(q_end)))
        dq, dv = dq_post, dv_post

    min_jump_rel = min(
        (jump / max(1.0, abs(q_pre), abs(q_post))
         for q_pre, q_post, jump in jumps),
        default=0.0)
    return QEvolutionAudit(
        times=np.array(times), dq_rows=np.array(rows_q),
        dv_rows=np.array(rows_v), q_values=np.array(qs),
        dq_norms=np.array(nq), dv_norms=np.array(nv),
        collisions_before=np.array(crossed, dtype=int),
        jump_formulas=np.array(formulas), max_flight_residual=flight_res,
        max_midpoint_residual=mid_res, max_jump_defect=jump_defect,
        min_jump_relative=min_jump_rel,
        min_jump=min((jump for _, _, jump in jumps), default=0.0))


def ref_transverse_basis(v, params):
    """Mass-orthonormal basis of {v}^perp inside Z, by the projector
    form: a QR projector onto v's coordinates on Z's basis, then the
    SVD of its complement.  ``geometry.transverse_basis`` takes the
    Householder complement of the same coordinates instead; the two
    bases differ, but span the same space."""
    zb = reduced_space(params).basis
    vf = np.asarray(v, dtype=float).reshape(-1)
    scale = np.sqrt(params.mass_weights)
    vhat = vf / mass_norm(vf, params)
    coords = (zb * scale[:, None]).T @ (vhat * scale)[:, None]
    q, r = np.linalg.qr(coords)
    rank = int(np.sum(np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())))
    proj = q[:, :rank] @ q[:, :rank].T
    u, svals, _ = np.linalg.svd(np.eye(zb.shape[1]) - proj)
    return zb @ u[:, svals > 0.5]


def ref_curvature_propagate(b0, traj, *, n_samples=64):
    """The operator carried as B: each collision inverts the shifted
    inverse, adds the symmetrized scattering form of ``scatter_pre``,
    symmetrizes B and inverts it back."""
    params = traj.params
    u = transverse_basis(traj.initial.v, params)
    dim = u.shape[1]
    b = _as_operator_matrix(b0, dim)
    mw = params.mass_weights
    eye = np.eye(dim)
    binv = np.linalg.inv(b)
    ops = [CurvatureOperator(time=0.0, basis=u, inverse=binv)]
    for t_a, t_b, k, frame in _walk(traj):
        binv = binv + (t_b - t_a) * eye
        if frame is None:
            if t_b == ops[-1].time:
                ops.append(ops[-1])
            else:
                ops.append(CurvatureOperator(time=t_b, basis=u, inverse=binv))
            break
        b = np.linalg.inv(binv)
        add = (u.T * mw) @ frame.scatter_pre(u)
        b = b + 0.5 * (add + add.T)
        b = 0.5 * (b + b.T)
        u = frame.reflect(u)
        binv = np.linalg.inv(b)
        ops.append(CurvatureOperator(time=t_b, basis=u, inverse=binv))
    grid = np.linspace(0.0, traj.t_end, max(2, n_samples))
    samp_e = []
    for t in grid:
        # the attachment after every collision at or before t
        n = sum(1 for t_k in traj.ev_t if t_k <= t)
        samp_e.append(ref_eig_min_shifted(ops[n], float(t)))
    return CurvaturePath(operators=tuple(ops), sample_times=grid,
                         sample_eig_min=np.array(samp_e))


def ref_eig_min_shifted(op, t):
    """eig_min of the attachment operator carried by free flight to t:
    the flight shifts the inverse by (t - op.time)*I, so its top
    eigenvalue mu becomes mu + (t - op.time)."""
    top = np.linalg.eigvalsh(op.inverse)[-1]
    return float(1.0 / (top + (t - op.time)))


def curvature_entropy(path, t_total):
    """h_B = (1/T) sum_n log det(I + tau_n B_n) over the flights of
    ``path`` cut at T = t_total: a flight of length tau from an
    attachment whose inverse has eigenvalues mu_i grows the unstable
    front's configuration volume by prod_i (1 + tau / mu_i), and a
    collision keeps it, so h_B tends to the sum of the positive Lyapunov
    exponents (Pesin's formula)."""
    ops = path.operators[:-1]
    starts = np.array([op.time for op in ops])
    ends = np.append(starts[1:], path.operators[-1].time)
    tau = np.maximum(np.minimum(ends, t_total) - starts, 0.0)
    mu = np.linalg.eigvalsh(np.stack([op.inverse for op in ops]))
    return float(np.log1p(tau[:, None] / mu).sum()) / t_total


def curvature_exponents(path, t_total):
    """Positive Lyapunov exponents from the flights of ``path`` cut at
    T = t_total, largest first.  In the co-moving basis a collision
    keeps the unstable front's configuration coefficients, and a flight
    of length tau from an attachment with inverse M multiplies them by
    (M + tau I) M^-1, so the exponents are the growth rates of the
    running product of these factors, read from its QR (Benettin)."""
    ops = path.operators[:-1]
    starts = np.array([op.time for op in ops])
    ends = np.append(starts[1:], path.operators[-1].time)
    tau = np.maximum(np.minimum(ends, t_total) - starts, 0.0)
    inverses = np.stack([op.inverse for op in ops])
    eye = np.eye(inverses.shape[1])
    frame, logs = eye, np.zeros(len(eye))
    for m, b, s in zip(inverses, np.linalg.inv(inverses), tau):
        if s > 0.0:
            frame, r = np.linalg.qr((m + s * eye) @ (b @ frame))
            logs += np.log(np.abs(np.diag(r)))
    return np.sort(logs / t_total)[::-1]


def ref_expansion_check(traj, tau0, c0, *, n_samples=256):
    params = traj.params
    norm0 = mass_norm(tau0.dq, params)
    times = np.linspace(0.0, traj.t_end, max(2, n_samples))
    taus = ref_propagate_tangent(traj, tau0, times)
    ratios = np.array([mass_norm(tau.dq, params) / ((1.0 + c0 * t) * norm0)
                       for t, tau in zip(times, taus)])
    k = int(np.argmin(ratios))
    tol = 1e-12 * max(1.0, abs(ratios[k]))
    first = next(i for i, r in enumerate(ratios) if r <= ratios[k] + tol)
    return ExpansionCheck(min_ratio=float(ratios[k]),
                          t_argmin=float(times[first]),
                          times=times, ratios=ratios)


def ref_hyperbolicity_series(traj, audit, *, path, l0=None):
    series = {"t": audit.times, "Q": audit.q_values,
              "dq_norm": audit.dq_norms, "dv_norm": audit.dv_norms}
    series["b_eig_min"] = np.array([
        ref_eig_min_shifted(path.operators[n], float(t))
        for n, t in zip(audit.collisions_before, audit.times)])
    if l0 is not None:
        for name, rows in (("cone_ratio_q", audit.dq_rows),
                           ("cone_ratio_v", audit.dv_rows)):
            series[name] = np.array([ref_cone_ratio(x, l0, traj.params)
                                     for x in rows])
    return series


def ref_cone_ratio(x, l0, params):
    """Mass-metric share of one system vector along the lattice
    direction l0: each disk's block projected on the unit vector of l0."""
    e = np.array(l0, dtype=float)
    e /= math.hypot(e[0], e[1])
    x = np.asarray(x, dtype=float).reshape(-1)
    par = np.outer(x.reshape(-1, 2) @ e, e).reshape(-1)
    denom = mass_norm(x, params)
    return float(mass_norm(par, params) / denom) if denom > 0.0 else 0.0


def table_orbit(n):
    """Eventful orbit at N = 2, 3, 5 or 8 with unequal masses."""
    radius = {2: 0.1, 3: 0.1, 5: 0.08, 8: 0.06}[n]
    params = SystemParams(masses=tuple(np.linspace(0.5, 2.0, n)), radius=radius)
    traj = simulate(sample_state(1, params), 80.0, params)
    assert traj.n_events >= 20
    return traj


# ---------------------------------------------------------------------------
# Projection-form scattering.  This is the collision's scattering term
# as frames built it before it became pair-local: project dq onto the
# contact hyperplane along the side's velocity, apply the rank-one
# curvature operator with eigenvalue 1 / base_radius on the unit
# base-circle tangent w_hat, and project back along the unit contact
# normal nu.  The library's pair-local form must agree to roundoff.


def _ref_scatter(frame, xq, params, v, cos, sign):
    i2, j2 = 2 * frame.i, 2 * frame.j

    def pair_vector(a):
        out = np.zeros(2 * params.n)
        out[i2: i2 + 2] = a / (frame.mi * frame.s)
        out[j2: j2 + 2] = -a / (frame.mj * frame.s)
        return out

    def dot(a, x):
        d = x[i2: i2 + 2] - x[j2: j2 + 2]
        return (a[0] * d[0] + a[1] * d[1]) / frame.s

    u = frame._table.u[frame._k]
    perp = np.array([-u[1], u[0]])
    nu, w_hat = pair_vector(u), pair_vector(perp)
    y = xq + sign * np.multiply.outer(v, dot(u, xq) / cos)
    z = np.multiply.outer(w_hat, dot(perp, y) / frame.base_radius)
    c = ((params.mass_weights * v) @ z) / cos
    return (2.0 * frame.cos_phi) * (z + sign * np.multiply.outer(nu, c))


def ref_scatter_pre(frame, xq, params):
    """2 cos(phi) V* K V applied to a pre-collision dq."""
    return _ref_scatter(frame, xq, params, frame.v_pre, frame.cos_pre, 1.0)


def ref_scatter_post(frame, xq, params):
    """2 cos(phi) V1* K V1 applied to a post-collision dq."""
    return _ref_scatter(frame, xq, params, frame.v_post, frame.cos_phi, -1.0)


def ref_propagate_normal(traj, n0):
    """propagate_normal with its own collision rule: the outgoing-side
    scattering z <- R z - scatter_post(R w), then w <- R w, with the
    projection-form scattering.  The library instead moves (w, -z) by the
    tangent's incoming-side step; the two agree to roundoff."""
    params = traj.params
    mw = params.mass_weights
    z, w = np.array(n0.z), np.array(n0.w)
    log_scale = 0.0
    times, q_pre, q_post, logs, q_start, zz_start = [], [], [], [], [], []
    q_initial, zz_initial = float((mw * z) @ w), float((mw * z) @ z)
    for t_a, t_b, _, frame in _walk(traj):
        w = w - (t_b - t_a) * z
        if frame is None:
            break
        q_pre.append(float((mw * z) @ w))
        rw = frame.reflect(w)
        z = frame.reflect(z) - ref_scatter_post(frame, rw, params)
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


# ---------------------------------------------------------------------------
# Frame-per-event Lyapunov reference.  This is the Lyapunov step as it
# stood before frames became thin table views: the lower block halves
# are built for the whole segment at once, and each regular event gets
# a fresh rows array and an 8x8 block made from its lower half by three
# numpy calls.  The library must match it bit for bit.


def ref_block_low(traj):
    """Lower block halves [B, A] of every event, NaN where masked."""
    table = _CollisionTable(traj)
    out = np.full((traj.n_events, 4, 8), np.nan)
    tol = traj.params.tolerances.tangency_tol
    for a in range(0, traj.n_events, _TABLE_CHUNK):
        ev = np.arange(a, min(traj.n_events, a + _TABLE_CHUNK))
        cos_pre, cos_phi = table.scalars[ev, 4], table.scalars[ev, 5]
        ok = (traj.ev_flags[ev] == 0) & (np.minimum(cos_pre, cos_phi) > tol)
        if ok.any():
            out[ev[ok]] = table._blocks(ev[ok])
    return out


def _ref_project_out_flow(frame, vy):
    n2 = vy.size
    excl = np.zeros(2 * n2)
    excl[:n2] = vy
    frame -= np.outer(excl, excl @ frame)
    excl[:n2] = 0.0
    excl[n2:] = vy
    frame -= np.outer(excl, excl @ frame)


def _ref_mass_on_frame(rng, v, params, m):
    z = reduced_space(params)
    n2 = 2 * params.n
    scale = np.sqrt(params.mass_weights)
    vy = (np.asarray(v, dtype=float).reshape(-1) * scale)
    vy /= np.linalg.norm(vy)
    zy = z.basis * scale[:, None]
    coeff = rng.standard_normal((2 * z.dimension, m))
    frame = np.zeros((2 * n2, m))
    frame[:n2] = zy @ coeff[: z.dimension]
    frame[n2:] = zy @ coeff[z.dimension:]
    _ref_project_out_flow(frame, vy)
    q, _ = np.linalg.qr(frame)
    return q


def ref_lyapunov_spectrum(state, t_max, params, *, reorth_interval=10,
                          seed=0):
    """lyapunov_spectrum with one fresh frame, rows array and 8x8 block
    per regular event."""
    m = 4 * (params.n - 1) - 2
    rng = make_generator(seed, 101)
    traj = simulate(state, t_max, params)
    n2 = 2 * params.n
    scale = np.sqrt(params.mass_weights)
    zy = reduced_space(params).basis * scale[:, None]
    block_low = ref_block_low(traj) if traj.n_events else None

    frame = _ref_mass_on_frame(rng, traj.initial.v, params, m)
    logs = np.zeros(m)
    chunk_rates = []
    t_accum = 0.0
    n_restarts = 0

    def renormalize(fr_cols, k):
        fr_cols[:n2] = zy @ (zy.T @ fr_cols[:n2])
        fr_cols[n2:] = zy @ (zy.T @ fr_cols[n2:])
        vy = traj.ev_v_post[k].reshape(-1) * scale
        _ref_project_out_flow(fr_cols, vy / np.linalg.norm(vy))
        q, r = np.linalg.qr(fr_cols)
        return q, np.log(np.abs(np.diag(r)))

    chunk_t0 = 0.0
    chunk_logs = np.zeros(m)
    events_in_chunk = 0
    for t_a, t_k, k, fr in _walk(traj, flagged=True):
        frame[:n2] += (t_k - t_a) * frame[n2:]
        if k is None:
            break
        if fr is None:
            n_restarts += 1
            frame = _ref_mass_on_frame(rng, traj.ev_v_post[k].reshape(-1),
                                       params, m)
            chunk_t0 = t_k
            chunk_logs = np.zeros(m)
            events_in_chunk = 0
            continue
        i2, j2 = 2 * fr.i, 2 * fr.j
        rows = np.array([i2, i2 + 1, j2, j2 + 1,
                         n2 + i2, n2 + i2 + 1, n2 + j2, n2 + j2 + 1])
        low = block_low[k]
        block = np.zeros((8, 8))
        block[4:] = low
        block[:4, :4] = low[:, 4:]
        frame[rows] = block @ frame[rows]
        events_in_chunk += 1
        close_chunk = events_in_chunk >= reorth_interval
        if close_chunk or float(np.abs(frame).max()) > 1e6:
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

    exponents = logs / t_accum
    ses = np.zeros(m)
    if len(chunk_rates) >= 2:
        w = np.array([c[0] for c in chunk_rates])
        g = np.stack([c[1] for c in chunk_rates])
        var = ((w[:, None] * (g - exponents) ** 2).sum(axis=0)
               / w.sum() / max(1, len(chunk_rates) - 1))
        ses = np.sqrt(var)
    return (np.sort(exponents)[::-1], np.sort(ses)[::-1], len(chunk_rates),
            n_restarts)


# ---------------------------------------------------------------------------
# Covariance oracles: symmetries of the hard-disk flow on the square
# torus under which the engine's record maps bit for bit.

SYMMETRIES = ("swap", "relabel", "scale2", "scale_half")


def symmetry_image(state, params, t_max, symmetry):
    """A run's state, params and horizon mapped through one symmetry,
    with the map of a record (event times, pairs, positions at contact)
    onto the mapped run's record.

    - swap: the x <-> y exchange of the square torus;
    - relabel: the disk order reversed together with the masses;
    - scale2, scale_half: velocities times c = 2 or 1/2 and the horizon
      divided by c, exact in binary floating point.
    """
    n = params.n
    if symmetry == "swap":
        image = (PhaseState(state.q[:, ::-1], state.v[:, ::-1]), params, t_max)

        def record(traj):
            return traj.ev_t, traj.ev_pair, traj.ev_q[..., ::-1]
    elif symmetry == "relabel":
        image = (PhaseState(state.q[::-1], state.v[::-1]),
                 dataclasses.replace(params, masses=params.masses[::-1]),
                 t_max)

        def record(traj):
            return (traj.ev_t, np.sort(n - 1 - traj.ev_pair, axis=1),
                    traj.ev_q[:, ::-1])
    else:
        c = {"scale2": 2.0, "scale_half": 0.5}[symmetry]
        image = (PhaseState(state.q, c * state.v), params, t_max / c)

        def record(traj):
            return traj.ev_t / c, traj.ev_pair, traj.ev_q
    return image, record


# ---------------------------------------------------------------------------
# Full-horizon degeneracy references.  These are the survey and the
# membership test as they stood before the survey stopped simulating
# once its answer was settled: one engine run over the whole horizon,
# two parallelism audits per direction, and a tube pass each for the
# audit and the distance.  The library must give the same answers.


def ref_parallel_audit(state, l, params, traj):
    """Check parallelism at every velocity change of the simulated
    orbit ``traj`` started from ``state``."""
    worst = degenerate.perpendicular_speed(state, l, params)
    if traj.n_events:
        worst = max(worst, float(np.max(degenerate._perp_norms(
            traj.ev_v_post, l, params))))
    worst = max(worst, degenerate.perpendicular_speed(traj.final, l, params))
    return worst <= degenerate.PARALLEL_TOL


def ref_components(traj):
    """Collision-graph components of the horizon and each disk's label."""
    comps = collision_graph(symbolic_sequence(traj), traj.params.n).components
    label = {i: ci for ci, members in enumerate(comps) for i in members}
    return comps, label


def ref_audit_tubes(state, l, params, components):
    n = params.n
    comps, label = components
    q = np.asarray(state.q, dtype=float).reshape(n, 2)
    v = np.asarray(state.v, dtype=float).reshape(n, 2)
    offsets = [degenerate._tube_offset(q[i], l) for i in range(n)]
    tubes = [{"disk": i, "offset": offsets[i], "half_width": params.radius}
             for i in range(n)]
    two_r = 2.0 * params.radius
    coincide_bad, disjoint_bad, singleton_bad = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            d = degenerate._offset_distance(offsets[i], offsets[j], l.width)
            if label[i] == label[j]:
                if d > degenerate.OFFSET_TOL:
                    coincide_bad.append((i, j))
                continue
            sizes = (len(comps[label[i]]), len(comps[label[j]]))
            disjoint = d >= two_r - degenerate.OFFSET_TOL
            if max(sizes) >= 2:
                if not disjoint:
                    disjoint_bad.append((i, j))
            else:
                same_velocity = (float(np.hypot(*(v[i] - v[j])))
                                 <= degenerate.PARALLEL_TOL)
                if not (disjoint or same_velocity):
                    singleton_bad.append((i, j))
    return {
        "direction": list(l.as_tuple()), "width": l.width, "tubes": tubes,
        "components": [list(c) for c in comps],
        "coincide_ok": not coincide_bad,
        "coincide_violations": [list(p) for p in coincide_bad],
        "disjoint_ok": not disjoint_bad,
        "disjoint_violations": [list(p) for p in disjoint_bad],
        "singleton_ok": not singleton_bad,
        "singleton_violations": [list(p) for p in singleton_bad],
    }


def ref_surrogate(state, l, params, components):
    perp = degenerate.perpendicular_speed(state, l, params)
    comps, label = components
    q = np.asarray(state.q, dtype=float).reshape(params.n, 2)
    offsets = [degenerate._tube_offset(q[i], l) for i in range(params.n)]
    two_r = 2.0 * params.radius
    overlap = 0.0
    for i in range(params.n):
        for j in range(i + 1, params.n):
            if label[i] == label[j]:
                continue
            if max(len(comps[label[i]]), len(comps[label[j]])) < 2:
                continue
            d = degenerate._offset_distance(offsets[i], offsets[j], l.width)
            overlap += max(0.0, two_r - d)
    return perp + overlap


def ref_in_L(state, l0, params, *, horizon=100.0):
    l = degenerate.LatticeDirection.from_vector(l0)
    if degenerate.perpendicular_speed(state, l, params) > degenerate.PARALLEL_TOL:
        return False
    return ref_parallel_audit(state, l, params, simulate(state, horizon, params))


def ref_degeneracy_report(state, params, *, l0=None, horizon=100.0,
                          max_group=None):
    directions = degenerate.admissible_directions(params.radius)
    if l0 is not None:
        targets = [degenerate.LatticeDirection.from_vector(l0)]
    else:
        targets = list(directions)
    traj = simulate(state, horizon, params)
    components = ref_components(traj)
    entries = []
    for l in targets:
        ok = ref_parallel_audit(state, l, params, traj)
        entry = {
            "direction": list(l.as_tuple()),
            "member": ok,
            "distance": ref_surrogate(state, l, params, components),
            "radius_flags": degenerate.degenerate_radius_check(
                params, l, max_group=max_group).to_dict(),
        }
        if ok:
            entry["tubes"] = ref_audit_tubes(state, l, params, components)
        entries.append(entry)
    return {
        "radius": params.radius,
        "admissible_directions": [list(l.as_tuple()) for l in directions],
        "horizon": horizon,
        "entries": entries,
    }
