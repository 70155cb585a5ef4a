import json
import math

import numpy as np
import pytest

from conftest import grazing_orbit
from hardtorus import tangent
from hardtorus.errors import ResolutionError, ValidationError
from hardtorus.events import simulate
from hardtorus.geometry import (PhaseState, SystemParams, mass_norm,
                                project_to_Z, sample_state, transverse_basis)
from hardtorus.hyperbolic import (cone_decompose, collision_rate,
                                  curvature_consistency, curvature_propagate,
                                  expansion_check, hyperbolicity_series,
                                  lyapunov_spectrum, q_evolution_audit,
                                  summary_dict, write_series_csv, z_length)
from hardtorus.rng import make_generator
from hardtorus.serialize import canonical_json
from hardtorus.tangent import (TangentVector, _apply_event, _walk,
                               propagate_tangent)

P3 = SystemParams(masses=(1.0, 2.0, 0.5), radius=0.1)
P2 = SystemParams(masses=(1.0, 1.0), radius=0.1)
FREE = SystemParams(masses=(1.0, 1.0), radius=0.05)


def eventful(seed=11, t=8.0):
    traj = simulate(sample_state(seed, P3), t, P3)
    assert traj.n_events >= 8 and not traj.singular
    return traj


def random_tau(stream=1):
    rng = make_generator(5, stream)
    return TangentVector(project_to_Z(rng.standard_normal(6), P3),
                         project_to_Z(rng.standard_normal(6), P3))


def free_segment(t=1.0):
    state = PhaseState(q=[[0.25, 0.25], [0.75, 0.75]],
                       v=[[0.0, 0.0], [0.0, 0.0]])
    traj = simulate(state, t, FREE)
    assert traj.n_events == 0
    return traj


def collisionless_3(t=4.0):
    state = PhaseState(q=[[1 / 6, 0.1], [0.5, 0.3], [5 / 6, 0.7]],
                       v=[[0.0, 0.8], [0.0, -0.5], [0.0, 0.3]])
    traj = simulate(state, t, P3)
    assert traj.n_events == 0
    return traj


class TestQEvolution:
    def test_audit_residuals(self):
        audit = q_evolution_audit(eventful(), random_tau(), n_samples=80)
        assert audit.max_flight_residual <= 1e-8
        assert audit.max_midpoint_residual <= 1e-8
        assert audit.max_jump_defect <= 1e-8
        assert audit.min_jump_relative >= -1e-12
        assert audit.q_monotone

    def test_frozen_free_flight_arithmetic(self):
        # Q(0) = 0.3 with |dv| = 0.2 grows to 0.3 + 1.0 * 0.04 = 0.34
        traj = free_segment()
        a = np.array([1.0, 0.0, -1.0, 0.0])
        dq = a / mass_norm(a, FREE) * 1.5
        dv = a / mass_norm(a, FREE) * 0.2
        audit = q_evolution_audit(traj, TangentVector(dq, dv))
        assert abs(audit.q_values[0] - 0.3) < 1e-12
        assert abs(audit.q_values[-1] - 0.34) < 1e-12

    def test_pure_configuration_vector_keeps_q_zero(self):
        traj = free_segment()
        dq = np.array([1.0, 0.0, -1.0, 0.0])
        audit = q_evolution_audit(traj, TangentVector(dq, np.zeros(4)))
        assert np.all(audit.q_values == 0.0)

    def test_jumps_nonnegative_across_ensemble(self):
        for seed in range(10):
            traj = simulate(sample_state(seed, P3), 4.0, P3)
            if traj.singular:
                continue
            audit = q_evolution_audit(traj, random_tau(stream=seed + 3),
                                      n_samples=32)
            assert audit.min_jump_relative >= -1e-12
            assert audit.q_monotone


class TestCurvature:
    def test_operator_shape_and_positivity(self):
        path = curvature_propagate(1.0, eventful(), n_samples=64)
        for op in path.operators:
            assert op.symmetry_defect() <= 1e-12
            assert op.eigenvalues()[0] >= -1e-12

    def test_lower_bound_from_identity_start(self):
        c0 = 1.0
        path = curvature_propagate(c0, eventful(), n_samples=64)
        bound = c0 / (1.0 + c0 * path.sample_times)
        assert float(np.min(path.sample_eig_min - bound)) >= -1e-8

    def test_free_flight_inverse_shift_frozen(self):
        state = PhaseState(q=[[0.25, 0.25], [0.75, 0.75]],
                           v=[[0.0, 0.3], [0.0, -0.3]])
        traj = simulate(state, 0.5, FREE)
        assert traj.n_events == 0
        path = curvature_propagate(2.0, traj, n_samples=2)
        b_end = path.operators[-1].matrix
        assert np.allclose(b_end, np.eye(b_end.shape[0]), atol=1e-12)

    def test_inverse_shift_exact_on_random_operator(self):
        traj = collisionless_3()
        rng = make_generator(9, 2)
        dim = transverse_basis(traj.initial.v, P3).shape[1]
        a = rng.standard_normal((dim, dim))
        b0 = a @ a.T + 0.5 * np.eye(dim)
        path = curvature_propagate(b0, traj, n_samples=4)
        for t in (0.3, 1.1, 2.7):
            expect = np.linalg.inv(np.linalg.inv(b0) + t * np.eye(dim))
            got = path.operator_at(t).matrix
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max() + 1e-12

    def test_consistency_with_tangent_transport(self):
        traj = eventful()
        assert traj.n_events >= 10
        path = curvature_propagate(1.0, traj, n_samples=64)
        assert curvature_consistency(path, traj, seed=2) <= 1e-6

    def test_singular_start_refused(self):
        with pytest.raises(ValidationError, match="positive definite"):
            curvature_propagate(0.0, eventful())

    def test_nonsymmetric_start_refused(self):
        traj = collisionless_3()
        dim = transverse_basis(traj.initial.v, P3).shape[1]
        b0 = np.eye(dim)
        b0[0, 1] = 0.5
        with pytest.raises(ValidationError, match="symmetric"):
            curvature_propagate(b0, traj)


class TestExpansion:
    def test_bound_holds_on_cone_seed(self):
        traj = eventful()
        u0 = transverse_basis(traj.initial.v, P3)
        dq = u0 @ make_generator(5, 2).standard_normal(u0.shape[1])
        res = expansion_check(traj, TangentVector(dq, dq), 1.0)
        assert res.ok
        assert res.min_ratio >= 1.0 - 1e-6

    def test_collisionless_equality(self):
        traj = free_segment()
        a = np.array([1.0, 0.0, -1.0, 0.0])
        dq = a / mass_norm(a, FREE)
        res = expansion_check(traj, TangentVector(dq, dq), 1.0)
        assert abs(res.min_ratio - 1.0) <= 1e-12

    def test_negative_control_fails(self):
        # doubling c0 overstates the guaranteed growth of this seed
        traj = free_segment()
        a = np.array([1.0, 0.0, -1.0, 0.0])
        dq = a / mass_norm(a, FREE)
        res = expansion_check(traj, TangentVector(dq, dq), 2.0)
        assert not res.ok

    def test_bound_across_random_orbits(self):
        for seed in range(8):
            traj = simulate(sample_state(seed, P3), 3.0, P3)
            if traj.singular:
                continue
            u0 = transverse_basis(traj.initial.v, P3)
            dq = u0 @ make_generator(6, seed).standard_normal(u0.shape[1])
            res = expansion_check(traj, TangentVector(dq, dq), 1.0)
            assert res.min_ratio >= 1.0 - 1e-6


class TestConeDecomposition:
    def test_allocation_identity(self):
        rng = make_generator(5, 1)
        tau = TangentVector(rng.standard_normal(6), rng.standard_normal(6))
        cd = cone_decompose(tau, (1, 0), P3)
        assert np.array_equal(cd.dq_par + cd.dq_perp, tau.dq)
        pyth = abs(mass_norm(cd.dq_par, P3) ** 2
                   + mass_norm(cd.dq_perp, P3) ** 2
                   - mass_norm(tau.dq, P3) ** 2)
        assert pyth <= 1e-12

    def test_parallel_vector_ratio_one(self):
        rng = make_generator(5, 3)
        e = np.array([2.0, 1.0]) / np.hypot(2.0, 1.0)
        blocks = np.outer(rng.standard_normal(3), e).reshape(-1)
        cd = cone_decompose(TangentVector(blocks, blocks), (2, 1), P3)
        assert abs(cd.ratio_q - 1.0) <= 1e-12
        assert abs(cd.ratio_v - 1.0) <= 1e-12

    def test_perpendicular_vector_ratio_zero(self):
        rng = make_generator(5, 4)
        e = np.array([2.0, 1.0]) / np.hypot(2.0, 1.0)
        blocks = np.outer(rng.standard_normal(3),
                          [-e[1], e[0]]).reshape(-1)
        cd = cone_decompose(TangentVector(blocks, blocks), (2, 1), P3)
        assert cd.max_ratio <= 1e-12

    def test_zero_direction_refused(self):
        with pytest.raises(ValueError, match="nonzero"):
            cone_decompose(TangentVector(np.zeros(6), np.zeros(6)),
                           (0, 0), P3)


class TestLyapunov:
    def test_two_disk_spectrum(self):
        spec = lyapunov_spectrum(sample_state(3, P2), 2000.0, P2, seed=4)
        assert spec.exponents[0] > 3.0 * spec.standard_errors[0] > 0.0
        assert spec.pairing_residual <= 0.02 * spec.exponents[0]
        assert abs(spec.flow_exponent) <= 1e-12
        assert not spec.low_confidence

    def test_one_frame_per_regular_event(self, monkeypatch):
        # one frame per regular event; the flow exponent needs none
        built = []
        original = tangent.frame_for_event

        def counting(traj, k):
            built.append(int(k))
            return original(traj, k)

        monkeypatch.setattr(tangent, "frame_for_event", counting)
        state = sample_state(3, P3)
        spec = lyapunov_spectrum(state, 50.0, P3, seed=4)
        traj = simulate(state, 50.0, P3)
        assert spec.n_collisions == traj.n_events > 0
        assert built == [k for k in range(traj.n_events)
                         if traj.ev_flags[k] == 0]

    @pytest.mark.parametrize("seed", [3, 5, 7, "grazing"])
    def test_flow_direction_is_outgoing_velocity(self, seed):
        # the flow vector (v, 0), carried through every collision by the
        # tangent step, is the recorded outgoing velocity bit for bit
        # with exactly zero dv, so the flow exponent can read the record
        if seed == "grazing":
            traj = grazing_orbit()
            assert traj.ev_flags[0] and not traj.ev_flags[1:].any()
        else:
            traj = simulate(sample_state(seed, P3), 50.0, P3)
            assert not traj.singular
        flow_q = traj.initial.v.reshape(-1).copy()
        flow_v = np.zeros_like(flow_q)
        crossed = restarts = 0
        for t_a, t_k, k, fr in _walk(traj, flagged=True):
            if k is None:
                break
            if fr is None:
                # no frame at a flagged event: resync from the record
                flow_q = traj.ev_v_post[k].reshape(-1).copy()
                restarts += 1
                continue
            flow_q = flow_q + (t_k - t_a) * flow_v
            flow_q, flow_v = _apply_event(fr, flow_q, flow_v)
            assert flow_q.tobytes() == traj.ev_v_post[k].reshape(-1).tobytes(), k
            assert np.all(flow_v == 0.0), k
            crossed += 1
        assert crossed > 20 and restarts == (seed == "grazing")
        assert flow_q.tobytes() == traj.final.v.reshape(-1).tobytes()

    def test_short_run_flags_low_confidence(self):
        spec = lyapunov_spectrum(sample_state(3, P2), 20.0, P2, seed=4)
        assert spec.low_confidence


class TestCollisionRate:
    def test_count_matches_trajectory(self):
        traj = eventful()
        cr = collision_rate(traj)
        assert cr.count == traj.n_events
        assert math.isclose(cr.rate, traj.n_events / traj.t_end)

    def test_collisionless(self):
        cr = collision_rate(free_segment())
        assert cr.count == 0 and cr.rate == 0.0 and cr.bound_ok

    def test_bouncer_rate(self):
        # after the first impact the pair shuttles across the long side
        # of the torus: period 2 * 0.3 / 1.0 = 0.6
        state = PhaseState(q=[[0.25, 0.5], [0.75, 0.5]],
                           v=[[0.5, 0.0], [-0.5, 0.0]])
        traj = simulate(state, 100.0, P2)
        cr = collision_rate(traj)
        assert abs(cr.rate - 1.0 / 0.6) <= 0.05
        assert abs(cr.count - int(100.0 / 0.6)) <= 1
        assert cr.bound_ok


class TestZLength:
    def test_positive_on_fine_curve(self):
        traj = eventful()
        states = [traj.state_at(t) for t in np.linspace(0.0, 1.0, 200)]
        assert z_length(states, P3) > 0.0

    def test_single_state_zero(self):
        assert z_length([eventful().initial], P3) == 0.0

    def test_coarse_curve_refused(self):
        traj = eventful()
        with pytest.raises(ResolutionError, match="more finely"):
            z_length([traj.state_at(0.0), traj.state_at(4.0)], P3)

    def test_frozen_step(self):
        qa = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
        sa = PhaseState(q=qa, v=np.zeros((3, 2)))
        sb = PhaseState(q=(qa + np.array([0.05, 0.0])) % 1.0,
                        v=np.zeros((3, 2)))
        step = np.zeros(6)
        step[0::2] = 0.05
        assert abs(z_length([sa, sb], P3) - mass_norm(step, P3)) <= 1e-15

    def test_polyline_additivity(self):
        traj = eventful()
        a, b, c = (traj.state_at(t) for t in (0.0, 0.03, 0.06))
        whole = z_length([a, b, c], P3)
        parts = z_length([a, b], P3) + z_length([b, c], P3)
        assert math.isclose(whole, parts, rel_tol=1e-15)


class TestSeriesAndSummary:
    def test_series_keys_and_csv(self, tmp_path):
        traj = eventful()
        tau = random_tau()
        audit = q_evolution_audit(traj, tau, n_samples=16)
        path = curvature_propagate(1.0, traj, n_samples=16)
        series = hyperbolicity_series(traj, tau, audit, path=path, l0=(1, 0))
        assert set(series) == {"t", "Q", "dq_norm", "dv_norm", "b_eig_min",
                               "cone_ratio_q", "cone_ratio_v"}
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        head = path.read_text().splitlines()[0]
        assert head == "t,Q,dq_norm,dv_norm,b_eig_min,cone_ratio_q,cone_ratio_v"

    def test_collision_rows_take_incoming_side(self):
        # each collision's first row pairs its pre-collision Q with the
        # pre-collision curvature and cone ratios, checked against the
        # transport stopped just short of the collision
        traj = eventful()
        tau = random_tau()
        audit = q_evolution_audit(traj, tau, n_samples=16)
        path = curvature_propagate(1.0, traj, n_samples=16)
        series = hyperbolicity_series(traj, tau, audit, path=path, l0=(1, 0))
        crossed = audit.collisions_before
        rows = np.flatnonzero(crossed[1:] > crossed[:-1])
        assert rows.size == traj.n_events
        for i in rows:
            t = float(series["t"][i])
            assert t == traj.ev_t[crossed[i]]
            assert series["Q"][i] == audit.jumps[crossed[i]].q_pre
            near = propagate_tangent(traj, tau, [t - 1e-9])[0]
            cone = cone_decompose(near, (1, 0), P3)
            assert math.isclose(series["cone_ratio_q"][i], cone.ratio_q,
                                rel_tol=1e-6, abs_tol=1e-9)
            assert math.isclose(series["cone_ratio_v"][i], cone.ratio_v,
                                rel_tol=1e-6, abs_tol=1e-9)
            assert math.isclose(series["b_eig_min"][i],
                                path.operator_at(t - 1e-9).eig_min,
                                rel_tol=1e-6)

    def test_summary_serializes(self):
        traj = eventful()
        spec = lyapunov_spectrum(sample_state(3, P2), 100.0, P2, seed=4)
        summ = summary_dict(spectrum=spec, rate=collision_rate(traj))
        text = canonical_json(summ)
        assert json.loads(text)["collision_rate"]["count"] == traj.n_events
        assert "lyapunov" in json.loads(text)
