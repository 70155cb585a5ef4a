"""Shared test helpers: certified finite-difference oracle and friends.

The finite-difference derivative of the flow map is only trustworthy
when every perturbed orbit undergoes the same collision sequence as the
base orbit and the Richardson levels agree; fd_tangent certifies both
and returns None otherwise, so callers can skip windows instead of
comparing against junk.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from hardtorus.events import reverse_state, simulate, symbolic_sequence
from hardtorus.geometry import (PhaseState, SystemParams, mass_norm,
                                project_to_Z, sample_state)
from hardtorus.rng import make_generator
from hardtorus.tangent import TangentVector, propagate_tangent


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


def stalled_copy(traj, k):
    """traj with the pair of event k given equal incoming velocities."""
    i, j = traj.ev_pair[k]
    v_pre = traj.ev_v_pre.copy()
    v_pre[k, j] = v_pre[k, i]
    return dataclasses.replace(traj, ev_v_pre=v_pre)


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
