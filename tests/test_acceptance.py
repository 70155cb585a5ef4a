"""Acceptance gate: twelve checkable laws of the disk system.

Each test is one criterion at its stated tolerance, so a verbose run
reads as a pass/fail line per law.  Tolerances are fixed contracts,
not tuning knobs; see the per-test comments for what each one pins.
"""
import hashlib
import math
import time

import numpy as np
from conftest import clean_segments, fd_check_window

from hardtorus import cli
from hardtorus.degenerate import (admissible_directions,
                                  degenerate_radius_check, in_L,
                                  perpendicular_speed)
from hardtorus.events import reverse_state, simulate, symbolic_sequence
from hardtorus.geometry import (PhaseState, SystemParams, energy, mass_norm,
                                momentum, project_to_Z, sample_state,
                                transverse_basis)
from hardtorus.hyperbolic import (curvature_consistency, curvature_propagate,
                                  expansion_check, lyapunov_spectrum,
                                  q_evolution_audit)
from hardtorus.neutral import (advance, advance_report, is_sufficient,
                               neutral_space, neutral_translate)
from hardtorus.rng import make_generator
from hardtorus.tangent import (NormalVector, TangentVector, propagate_normal,
                               propagate_tangent, q_of, reverse_normal)

C = 1.0 / math.sqrt(2.0)
P3 = SystemParams(masses=(1.0, 2.0, 0.5), radius=0.1)
P2 = SystemParams(masses=(1.0, 1.0), radius=0.1)


def test_criterion_01_conservation():
    # N=3, random masses, 1e5 collisions: relative energy drift <= 1e-9,
    # absolute momentum drift <= 1e-12, runtime < 60 s
    rng = np.random.default_rng(2026)
    params = SystemParams(masses=tuple(0.5 + 1.5 * rng.random(3)),
                          radius=0.1)
    state = sample_state(1, params)
    t0 = time.perf_counter()
    traj = simulate(state, 1e9, params, max_events=100_000)
    elapsed = time.perf_counter() - t0
    assert traj.n_events == 100_000 and traj.stopped_by_count
    e0 = energy(state, params)
    assert abs(energy(traj.final, params) - e0) / e0 <= 1e-9
    assert np.abs(momentum(traj.final, params)
                  - momentum(state, params)).max() <= 1e-12
    assert elapsed < 60.0


def test_criterion_02_linearization_oracle():
    # 100 random nonsingular segments (N in {2,3}, >= 5 collisions,
    # min cos phi > 1e-3): transported tangent vs certified central
    # finite differences, relative error <= 1e-5
    errors = []
    seed = 0
    while len(errors) < 100 and seed < 400:
        err = fd_check_window(seed)
        if err is not None:
            errors.append(err)
        seed += 1
    assert len(errors) == 100
    assert max(errors) <= 1e-5


def test_criterion_03_q_monotonicity():
    # tangent Q nondecreasing (slack 1e-10), collision jumps >= -1e-12,
    # over an ensemble of 100 segments
    rng = make_generator(7, 0)
    segments = clean_segments(P3, 3.0, 100)
    for k, traj in enumerate(segments):
        tau = TangentVector(project_to_Z(rng.standard_normal(6), P3),
                            project_to_Z(rng.standard_normal(6), P3))
        audit = q_evolution_audit(traj, tau, n_samples=24)
        assert np.all(np.diff(audit.q_values) >= -1e-10)
        assert audit.min_jump >= -1e-12


def test_criterion_04_normal_transport():
    # normal-form Q nonincreasing: each free flight drops exactly
    # t * |z|^2 (to 1e-12), collisions never raise it, and the velocity
    # involution flips the form's sign exactly
    rng = make_generator(9, 0)
    for traj in clean_segments(P3, 4.0, 20, min_events=2):
        tb = transverse_basis(traj.initial.v, P3)
        n0 = NormalVector(tb @ rng.standard_normal(tb.shape[1]),
                          tb @ rng.standard_normal(tb.shape[1]))
        res = propagate_normal(traj, n0)
        assert abs(res.q_pre[0]
                   - (res.q_initial - res.times[0] * res.zz_initial)) <= 1e-12
        for k in range(len(res.times) - 1):
            dt = res.times[k + 1] - res.times[k]
            drop = res.q_start[k] - dt * res.zz_start[k]
            assert abs(res.q_pre[k + 1] - drop) <= 1e-12
        assert np.all(res.q_post <= res.q_pre + 1e-12)
        assert q_of(reverse_normal(n0), P3) == -q_of(n0, P3)


def test_criterion_05_curvature_laws():
    # free flight shifts the inverse operator exactly (1e-12); dv = B dq
    # stays consistent to 1e-6 over >= 10 collisions; from B(0) = c0 I
    # the minimum eigenvalue obeys c0/(1 + c0 t) - 1e-8 up to t = 100
    free = simulate(PhaseState(q=[[1 / 6, 0.1], [0.5, 0.3], [5 / 6, 0.7]],
                               v=[[0.0, 0.8], [0.0, -0.5], [0.0, 0.3]]),
                    4.0, P3)
    assert free.n_events == 0
    dim = transverse_basis(free.initial.v, P3).shape[1]
    rng = make_generator(10, 0)
    for _ in range(5):
        a = rng.standard_normal((dim, dim))
        b0 = a @ a.T + 0.5 * np.eye(dim)
        path = curvature_propagate(b0, free, n_samples=4)
        for t in (0.4, 1.3, 3.1):
            expect = np.linalg.inv(np.linalg.inv(b0) + t * np.eye(dim))
            got = path.operator_at(t).matrix
            assert np.abs(got - expect).max() <= \
                1e-12 * np.abs(expect).max() + 1e-12

    traj = simulate(sample_state(11, P3), 8.0, P3)
    assert traj.n_events >= 10 and not traj.singular
    path = curvature_propagate(1.0, traj, n_samples=64)
    assert curvature_consistency(path, traj, seed=2) <= 1e-6

    long_traj = simulate(sample_state(11, P3), 100.0, P3)
    assert not long_traj.singular
    path = curvature_propagate(1.0, long_traj, n_samples=256)
    bound = 1.0 / (1.0 + path.sample_times)
    assert float(np.min(path.sample_eig_min - bound)) >= -1e-8


def test_criterion_06_expansion_bound():
    # |dq(t)| / |dq(0)| >= (1 + c0 t)(1 - 1e-6) for seeds on the
    # curvature cone boundary dv = c0 dq, across 50 random orbits
    rng = make_generator(12, 0)
    for traj in clean_segments(P3, 3.0, 50, min_events=0):
        u0 = transverse_basis(traj.initial.v, P3)
        dq = u0 @ rng.standard_normal(u0.shape[1])
        res = expansion_check(traj, TangentVector(dq, dq), 1.0)
        assert res.min_ratio >= 1.0 - 1e-6


def test_criterion_07_neutral_spaces():
    # collisionless dimension 2(N-1) exactly; flow direction inside the
    # space (residual <= 1e-8); N=2 just past its first collision is
    # sufficient on >= 99% of 500 seeds; the two advance computations
    # agree to 1e-6; the flow direction advances by 1 +- 1e-8 everywhere
    free2 = simulate(PhaseState(q=[[0.25, 0.2], [0.75, 0.6]],
                                v=[[0.0, C], [0.0, -C]]), 3.0, P2)
    assert neutral_space(free2, 0.0, 3.0, 0.5, P2).dimension == 2
    free3 = simulate(PhaseState(q=[[1 / 6, 0.1], [0.5, 0.3], [5 / 6, 0.7]],
                                v=[[0.0, 0.8], [0.0, -0.5], [0.0, 0.3]]),
                     3.0, P3)
    assert neutral_space(free3, 0.0, 3.0, 0.5, P3).dimension == 4

    ok = total = 0
    for seed in range(500):
        state = sample_state(seed, P2)
        probe = simulate(state, 60.0, P2, max_events=1)
        if probe.n_events == 0:
            continue
        traj = simulate(state, float(probe.ev_t[0]) + 0.5, P2)
        if traj.singular:
            continue
        total += 1
        verdict = is_sufficient(traj, P2)
        if verdict.verdict == "sufficient":
            ok += 1
            assert verdict.result.flow_residual <= 1e-8
    assert total >= 450
    assert ok / total >= 0.99

    state = sample_state(3, P2)
    traj = simulate(state, 8.0, P2)
    assert not traj.singular
    v0 = state.v.reshape(-1)
    for k in range(traj.n_events):
        cf = advance(traj, v0, k, P2)
        assert abs(cf - 1.0) <= 1e-8
        if k < 4:
            fd = advance(traj, v0, k, P2, method="finite_difference")
            assert abs(cf - fd) <= 1e-6


def test_criterion_08_advance_component_law():
    # advances agree within each collision-graph component to 1e-6; on a
    # connected graph, equal advances pin W to the flow line (residual
    # <= 1e-6)
    state3 = PhaseState(q=[[0.25, 0.2], [0.25, 0.6], [0.75, 0.4]],
                        v=[[0.0, C], [0.0, -C], [0.0, 0.0]])
    p3 = SystemParams(masses=(1.0, 1.0, 1.0), radius=0.1)
    traj = simulate(state3, 6.0, p3)
    assert set(symbolic_sequence(traj)) == {(0, 1)}
    for raw in ([0, 0, 0, 0, 1, 0], [0, 1, 0, -1, 0, 0]):
        w = project_to_Z(np.asarray(raw, dtype=float), p3)
        w /= mass_norm(w, p3)
        rep = advance_report(traj, w, p3)
        assert not rep.graph_connected
        assert np.all(rep.component_spread <= 1e-6)

    state = sample_state(3, P2)
    traj2 = simulate(state, 8.0, P2)
    rep = advance_report(traj2, state.v.reshape(-1), P2)
    assert rep.graph_connected
    assert np.all(rep.component_spread <= 1e-6)
    assert rep.parallel_residual <= 1e-6


def test_criterion_09_neutral_trapezoid():
    # sliding tau1 + tilting tau2 then flowing for t matches flowing
    # first and translating after, to 1e-8, on 100 singularity-free
    # parameter triples
    p3 = SystemParams(masses=(1.0, 1.0, 1.0), radius=0.1)
    x0 = PhaseState(q=[[0.25, 0.2], [0.25, 0.6], [0.75, 0.4]],
                    v=[[0.0, C], [0.0, -C], [0.0, 0.0]])
    w0 = project_to_Z(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]), p3)
    w0 /= mass_norm(w0, p3)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        tau1, tau2 = (rng.random(2) * 0.06) * np.sign(rng.standard_normal())
        t = 0.5 + 1.5 * rng.random()
        lhs = simulate(neutral_translate(x0, w0, tau1, tau2, p3), t, p3).final
        t_star = t / math.sqrt(1.0 + tau2 * tau2)
        base = simulate(x0, t_star + 0.5, p3)
        x_star = base.state_at(t_star)
        wt = propagate_tangent(base, TangentVector(w0, np.zeros(6)),
                               [t_star])[0]
        w_star = wt.dq / mass_norm(wt.dq, p3)
        rhs = neutral_translate(x_star, w_star, tau1 + t_star * tau2,
                                tau2, p3)
        dq = np.abs((lhs.q - rhs.q + 0.5) % 1.0 - 0.5).max()
        dv = np.abs(lhs.v - rhs.v).max()
        worst = max(worst, dq, dv)
    assert worst <= 1e-8


def test_criterion_10_degenerate_sets():
    # constructed members keep perpendicular speed <= 1e-10 over t=100;
    # admissible directions match brute force for r in {0.05, 0.1, 0.2};
    # the radius flags fire exactly when a disk chain spans the period
    # or a tube stack spans the width
    members = [
        ((0, 1), P2, PhaseState(q=[[0.25, 0.0], [0.75, 0.0]],
                                v=[[0.0, C], [0.0, -C]])),
        ((0, 1), P2, PhaseState(q=[[0.5, 0.2], [0.5, 0.7]],
                                v=[[0.0, C], [0.0, -C]])),
        ((1, 0), P2, PhaseState(q=[[0.2, 0.25], [0.7, 0.75]],
                                v=[[C, 0.0], [-C, 0.0]])),
    ]
    e = np.array([1.0, 1.0]) / math.sqrt(2.0)
    perp = np.array([-e[1], e[0]]) * (0.5 / math.sqrt(2.0))
    members.append(((1, 1), P2,
                    PhaseState(q=[[0.3, 0.3], ((np.array([0.3, 0.3]) + perp)
                                               % 1.0)], v=[e, -e])))
    for l0, params, state in members:
        assert perpendicular_speed(state, l0, params) <= 1e-10
        assert in_L(state, l0, params, horizon=100.0)
        end = simulate(state, 100.0, params).final
        assert perpendicular_speed(end, l0, params) <= 1e-10

    for r in (0.05, 0.1, 0.2):
        got = {l.as_tuple() for l in admissible_directions(r)}
        bound = 1.0 / (4.0 * r)
        span = int(bound) + 1
        brute = set()
        for a in range(-span, span + 1):
            for b in range(-span, span + 1):
                if (a, b) == (0, 0) or math.gcd(abs(a), abs(b)) != 1:
                    continue
                ca, cb = (-a, -b) if (a < 0 or (a == 0 and b < 0)) else (a, b)
                if math.hypot(ca, cb) <= bound:
                    brute.add((ca, cb))
        assert got == brute

    fire = degenerate_radius_check(
        SystemParams(masses=(1.0, 1.0), radius=0.25), (1, 0), max_group=3)
    assert fire.length_matches == (2,) and fire.width_matches == (2,)
    assert fire.degenerate
    for r in (0.2499999, 0.2500001):
        quiet = degenerate_radius_check(
            SystemParams(masses=(1.0, 1.0), radius=r), (1, 0), max_group=3)
        assert not quiet.degenerate
    diag = degenerate_radius_check(
        SystemParams(masses=(1.0, 1.0), radius=math.sqrt(2.0) / 4.0),
        (1, 1), max_group=2)
    assert 2 in diag.length_matches
    assert 1 in diag.width_matches


def test_criterion_11_lyapunov_spectrum():
    # N=2, equal masses, r=0.1: positive top exponent at 3 sigma,
    # pairing within 2% of the top, flow exponent consistent with zero,
    # all inside a five-minute budget
    t0 = time.perf_counter()
    spec = lyapunov_spectrum(sample_state(3, P2), 2000.0, P2, seed=4)
    elapsed = time.perf_counter() - t0
    assert spec.exponents[0] > 3.0 * spec.standard_errors[0] > 0.0
    assert spec.pairing_residual <= 0.02 * spec.exponents[0]
    assert abs(spec.flow_exponent) <= 3.0 * spec.standard_errors[0]
    assert not spec.low_confidence
    assert elapsed < 300.0


def test_criterion_12_reversibility_and_determinism(tmp_path, monkeypatch):
    # velocity-reversed replay returns to the start within 1e-6 on
    # regular segments; summary artifacts hash identically across
    # reruns and across worker counts
    tested = 0
    for traj in clean_segments(P3, 3.0, 20, start_seed=100):
        if traj.min_cos_phi <= 1e-3:
            continue
        tested += 1
        back = simulate(reverse_state(traj.final), traj.t_end, P3)
        rec = reverse_state(back.final)
        dq = np.abs((rec.q - traj.initial.q + 0.5) % 1.0 - 0.5).max()
        dv = np.abs(rec.v - traj.initial.v).max()
        assert max(dq, dv) <= 1e-6
    assert tested >= 10

    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[system]\nmasses = 1.0, 1.5\nradius = 0.15\n"
                   "[run]\nseed = 3\nt_max = 6.0\n"
                   "[scan]\nradius_grid = 0.1, 0.12, 0.15\n")
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["scan", "--config", str(cfg),
                         "--out", str(out)]) == 0
        digests.append(hashlib.sha256(
            (out / "summary.json").read_bytes()).hexdigest())
    import os
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    out = tmp_path / "serial"
    assert cli.main(["scan", "--config", str(cfg),
                     "--out", str(out)]) == 0
    digests.append(hashlib.sha256(
        (out / "summary.json").read_bytes()).hexdigest())
    assert len(set(digests)) == 1
