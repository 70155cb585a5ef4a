import json
import math
import re

import numpy as np
import pytest

from conftest import (P3_DYADIC, curvature_entropy, curvature_exponents,
                      double_orbit, grazing_orbit, ref_cone_ratio,
                      ref_curvature_propagate,
                      ref_expansion_check, ref_hyperbolicity_series,
                      ref_lyapunov_spectrum, ref_q_evolution_audit,
                      ref_scatter_pre, table_orbit)
from hardtorus import cli, hyperbolic, tangent
from hardtorus.config import parse_config
from hardtorus.errors import (NumericalFailureError, SingularSegmentError,
                              ValidationError)
from hardtorus.events import simulate
from hardtorus.geometry import (PhaseState, SystemParams, mass_norm,
                                project_to_Z, reduced_space, sample_state,
                                transverse_basis)
from hardtorus.hyperbolic import (LyapunovSpectrum, collision_rate,
                                  curvature_consistency, curvature_propagate,
                                  expansion_check, hyperbolicity_series,
                                  lyapunov_spectrum, q_evolution_audit,
                                  summary_dict, write_series_csv)
from hardtorus.rng import make_generator
from hardtorus.serialize import canonical_json
from hardtorus.tangent import (TangentVector, _apply_event, _walk,
                               propagate_tangent, q_of)

P3 = SystemParams(masses=(1.0, 2.0, 0.5), radius=0.1)
P3M = SystemParams(masses=(1.0, 1.3, 0.7), radius=0.1)
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
            assert np.abs(op.matrix - op.matrix.T).max() <= 1e-12
            assert np.linalg.eigvalsh(op.matrix)[0] >= -1e-12

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_refused(self, bad):
        traj = collisionless_3()
        with pytest.raises(ValidationError, match="finite"):
            curvature_propagate(bad, traj)
        dim = transverse_basis(traj.initial.v, P3).shape[1]
        b0 = np.eye(dim)
        b0[1, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            curvature_propagate(b0, traj)

    def test_nonsymmetric_start_refused(self):
        traj = collisionless_3()
        dim = transverse_basis(traj.initial.v, P3).shape[1]
        b0 = np.eye(dim)
        b0[0, 1] = 0.5
        with pytest.raises(ValidationError, match="symmetric"):
            curvature_propagate(b0, traj)

    def test_operator_at_refuses_times_off_the_path(self):
        traj = eventful()
        path = curvature_propagate(1.0, traj, n_samples=16)
        for t in (-2.0, -1e-300, math.nan, traj.t_end * (1.0 + 1e-15), math.inf):
            with pytest.raises(ValueError, match="outside"):
                path.operator_at(t)
        # the last attachment at or before t: an event time reads the
        # operator attached on its outgoing side
        assert path.operator_at(0.0) is path.operators[0]
        assert path.operator_at(traj.t_end) is path.operators[-1]
        for k, t_k in enumerate(traj.ev_t.tolist()):
            assert path.operator_at(t_k) is path.operators[k + 1]

    def test_collision_is_rank_one_in_the_inverse(self):
        # on the co-moving basis U, the scattering form <U, S U> of both
        # the pair-local and the projection-form rule is k k^T / kappa, k
        # the frame's amplitude: the term the inverse's update adds
        worst = 0.0
        for seed in range(1, 41):
            traj = simulate(sample_state(seed, P3M), 20.0, P3M)
            u = transverse_basis(traj.initial.v, P3M)
            mw = P3M.mass_weights
            for _, _, _, frame in _walk(traj):
                if frame is None:
                    break
                k = frame.scatter_amplitude(u)
                want = np.multiply.outer(k, k) / (
                    2.0 * frame.cos_phi / frame.base_radius)
                scale = np.maximum(1.0, np.abs(want))
                for got in ((u.T * mw) @ frame.scatter_pre(u),
                            (u.T * mw) @ ref_scatter_pre(frame, u, P3M)):
                    worst = max(worst, float((np.abs(got - want) / scale).max()))
                u = frame.reflect(u)
        assert worst <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_entropy_identity(self, seed):
        # the curvature's volume growth against the sum of the positive
        # Lyapunov exponents, two computations that share only the
        # engine and the collision table
        state = sample_state(seed, P3M)
        traj = simulate(state, 750.0, P3M)
        path = curvature_propagate(1.0, traj)
        spec = lyapunov_spectrum(state, 750.0, P3M, seed=seed)
        assert spec.n_restarts == 0
        positive = spec.exponents[: spec.exponents.size // 2].sum()
        t_total = spec.t_total
        # each positive exponent from the flights of the same path; the
        # two estimates start from different transients, so the bound is
        # O(1/T): over seeds 1-200, T |d| reached 7.5
        each = curvature_exponents(path, t_total)
        assert each.size == spec.exponents.size // 2
        assert np.abs(each - spec.exponents[: each.size]).max() <= 10.0 / t_total
        assert abs(curvature_entropy(path, t_total) - positive) <= 8.0 / t_total


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

    def test_long_window_fails_naming_the_event(self):
        # seed 1 of the analysis_n3 system with the audit's seed vector:
        # the samples' squared norms pass the float range in the flight
        # after event 219 (t 164), where an inf ratio would read as a
        # bound kept
        config = parse_config("[system]\nmasses = 1.0, 1.3, 0.7\n"
                              "radius = 0.1\n[run]\nseed = 1\n")
        state = sample_state(1, P3M)
        traj = simulate(state, 200.0, P3M)
        tau0 = cli._audit_seed_vector(state, P3M, config)
        with pytest.raises(NumericalFailureError) as err:
            expansion_check(traj, tau0, config.c0)
        i, j = traj.ev_pair[219]
        assert str(err.value).startswith("expansion rows beyond the float range")
        assert str(err.value).endswith(
            f"at event 219 (t = {float(traj.ev_t[219]):.17g}, pair ({i}, {j}))")
        # a window ending before the overflow still checks
        short = simulate(state, 100.0, P3M)
        assert expansion_check(short, tau0, config.c0).ok

    @pytest.mark.parametrize("c0", [math.nan, math.inf, 0.0, -1.0])
    def test_c0_outside_open_half_line_refused(self, c0):
        traj = free_segment()
        a = np.array([1.0, 0.0, -1.0, 0.0])
        with pytest.raises(ValueError, match="c0 must be positive and finite"):
            expansion_check(traj, TangentVector(a, a), c0)

    def test_t_argmin_is_start_of_roundoff_plateau(self):
        # along a collisionless flight of the cone seed every ratio is 1
        # up to roundoff; the earliest sample is reported
        traj = free_segment()
        a = np.array([1.0, 0.0, -1.0, 0.0])
        dq = a / mass_norm(a, FREE)
        res = expansion_check(traj, TangentVector(dq, 0.7 * dq), 0.7)
        assert np.abs(res.ratios - 1.0).max() <= 1e-12
        assert res.t_argmin == 0.0
        assert res.min_ratio == res.ratios.min()

    def test_bound_across_random_orbits(self):
        for seed in range(8):
            traj = simulate(sample_state(seed, P3), 3.0, P3)
            if traj.singular:
                continue
            u0 = transverse_basis(traj.initial.v, P3)
            dq = u0 @ make_generator(6, seed).standard_normal(u0.shape[1])
            res = expansion_check(traj, TangentVector(dq, dq), 1.0)
            assert res.min_ratio >= 1.0 - 1e-6


def cone_ratios(dq, dv, l0):
    """The series' cone-ratio columns for the audit of (dq, dv) on a
    collisionless segment, whose rows are dq + t dv."""
    traj = collisionless_3()
    audit = q_evolution_audit(traj, TangentVector(dq, dv), n_samples=8)
    series = hyperbolicity_series(traj, audit,
                                  path=curvature_propagate(1.0, traj), l0=l0)
    return series["cone_ratio_q"], series["cone_ratio_v"]


class TestConeDecomposition:
    """The cone ratios of ``hyperbolicity_series``: the mass-metric share
    of each row along the lattice direction l0."""

    def test_allocation_identity(self):
        # turning every block by 90 degrees swaps the shares along and
        # across l0, so the two squared ratios add up to one
        tau = random_tau()
        turn = np.array([[0.0, -1.0], [1.0, 0.0]])
        turned = [(x.reshape(-1, 2) @ turn.T).reshape(-1) for x in (tau.dq, tau.dv)]
        for a, b in zip(cone_ratios(tau.dq, tau.dv, (2, 1)),
                        cone_ratios(*turned, (2, 1))):
            assert np.abs(a * a + b * b - 1.0).max() <= 1e-12

    def test_parallel_vector_ratio_one(self):
        rng = make_generator(5, 3)
        e = np.array([2.0, 1.0]) / np.hypot(2.0, 1.0)
        blocks = np.outer(rng.standard_normal(3), e).reshape(-1)
        for ratios in cone_ratios(blocks, blocks, (2, 1)):
            assert np.abs(ratios - 1.0).max() <= 1e-12

    def test_perpendicular_vector_ratio_zero(self):
        rng = make_generator(5, 4)
        e = np.array([2.0, 1.0]) / np.hypot(2.0, 1.0)
        blocks = np.outer(rng.standard_normal(3),
                          [-e[1], e[0]]).reshape(-1)
        for ratios in cone_ratios(blocks, blocks, (2, 1)):
            assert np.abs(ratios).max() <= 1e-12

    def test_zero_row_ratio_zero(self):
        # dq = 0 makes the first dq row zero; dv = 0 every dv row
        dq_ratios, dv_ratios = cone_ratios(np.zeros(6), np.zeros(6), (1, 0))
        assert not dq_ratios.any() and not dv_ratios.any()
        dq_ratios, _ = cone_ratios(np.zeros(6), random_tau().dv, (1, 0))
        assert dq_ratios[0] == 0.0 and dq_ratios[1:].all()

    def test_zero_direction_refused(self):
        with pytest.raises(ValueError, match="nonzero"):
            cone_ratios(np.zeros(6), np.zeros(6), (0, 0))

    @pytest.mark.parametrize("l0", [(1.7, 0.2), (0.5, 0.5), (1, 0.5),
                                    (math.nan, 1)])
    def test_non_integer_direction_refused(self, l0):
        with pytest.raises(ValidationError, match="l0"):
            cone_ratios(np.zeros(6), np.zeros(6), l0)

    def test_integer_inputs_keep_their_bits(self):
        tau = random_tau()
        want = cone_ratios(tau.dq, tau.dv, (2, 1))
        for l0 in ((np.int64(2), np.int64(1)), (2.0, 1.0), [2, 1]):
            for a, b in zip(cone_ratios(tau.dq, tau.dv, l0), want):
                assert a.tobytes() == b.tobytes()


def reference_lyapunov(state, t_max, params, *, reorth_interval=10, seed=0):
    """Reference: the whole-frame Lyapunov loop that pushes every
    collision through ``_apply_event`` in plain coordinates, rescaling
    the full (4N, m) frame at each event."""
    m = 4 * (params.n - 1) - 2
    rng = make_generator(seed, 101)
    traj = simulate(state, t_max, params)
    n2 = 2 * params.n
    scale = np.sqrt(params.mass_weights)
    zy = reduced_space(params).basis * scale[:, None]

    frame = hyperbolic._mass_on_frame(rng, traj.initial.v, zy, scale, m)
    logs = np.zeros(m)
    chunk_rates = []
    t_accum = 0.0
    n_restarts = 0

    def renormalize(fr_cols, v_now):
        fr_cols[:n2] = zy @ (zy.T @ fr_cols[:n2])
        fr_cols[n2:] = zy @ (zy.T @ fr_cols[n2:])
        vy = v_now * scale
        vy = vy / np.linalg.norm(vy)
        for excl in (np.r_[vy, np.zeros(n2)], np.r_[np.zeros(n2), vy]):
            fr_cols -= np.outer(excl, excl @ fr_cols)
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
            frame = hyperbolic._mass_on_frame(
                rng, traj.ev_v_post[k].reshape(-1), zy, scale, m)
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

    exponents = logs / t_accum
    w = np.array([c[0] for c in chunk_rates])
    g = np.stack([c[1] for c in chunk_rates])
    var = ((w[:, None] * (g - exponents) ** 2).sum(axis=0)
           / w.sum() / max(1, len(chunk_rates) - 1))
    nrm0 = np.linalg.norm(scale * traj.initial.v.reshape(-1))
    nrm1 = np.linalg.norm(scale * traj.final.v.reshape(-1))
    return LyapunovSpectrum(
        exponents=np.sort(exponents)[::-1],
        standard_errors=np.sort(np.sqrt(var))[::-1],
        flow_exponent=float(math.log(nrm1 / nrm0) / traj.t_end),
        t_total=float(t_accum), n_collisions=traj.n_events,
        n_chunks=len(chunk_rates), n_restarts=n_restarts,
        low_confidence=bool(len(chunk_rates) < 8
                            or traj.n_events < 4 * reorth_interval))


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

    @pytest.mark.parametrize("case", ["regular", "grazing"])
    def test_one_reduced_space_per_spectrum(self, monkeypatch, case):
        # the first frame and each restart's draw on the spectrum's own
        # reduced-space basis
        calls = []
        original = hyperbolic.reduced_space

        def counting(params):
            calls.append(params)
            return original(params)

        monkeypatch.setattr(hyperbolic, "reduced_space", counting)
        if case == "grazing":
            traj = grazing_orbit()
            spec = lyapunov_spectrum(traj.initial, traj.t_end, traj.params)
        else:
            spec = lyapunov_spectrum(sample_state(3, P3), 50.0, P3, seed=4)
        assert spec.n_restarts == (case == "grazing")
        assert len(calls) == 1

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

    @pytest.mark.parametrize("case", ["criterion_11", 1, 2, 3, "grazing"])
    def test_matches_whole_frame_reference(self, case):
        # the pair-block step moves the frame at roundoff, which chaos
        # amplifies in the contracting exponents; the expanding half
        # agrees to 1e-9 and every exponent to a twentieth of its error
        if case == "criterion_11":
            args = (sample_state(3, P2), 2000.0, P2)
            seed = 4
        elif case == "grazing":
            traj = grazing_orbit()
            args = (traj.initial, traj.t_end, traj.params)
            seed = 0
        else:
            # the lyapunov_n3 benchmark configuration, first member
            args = (sample_state(case, P3M, stream=0), 1500.0, P3M)
            seed = case
        got = lyapunov_spectrum(*args, seed=seed)
        want = reference_lyapunov(*args, seed=seed)
        m = want.exponents.size
        top = math.ceil(m / 2)
        assert np.abs(got.exponents[:top] - want.exponents[:top]).max() <= 1e-9
        assert np.all(np.abs(got.exponents - want.exponents)
                      <= 0.05 * want.standard_errors)
        for name in ("n_collisions", "n_chunks", "n_restarts",
                     "low_confidence", "flow_exponent"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.n_restarts == (case == "grazing")

    @pytest.mark.parametrize("case", [2, 3, 5, 8, "grazing", "lyapunov_n3"])
    def test_matches_frame_per_event_reference_bitwise(self, case):
        # thin table frames, per-slice block stacks and the renormalization
        # without np.outer run the same floating-point operations in the
        # same order as one fresh rows array and 8x8 block per event
        if case == "lyapunov_n3":
            # the benchmark configuration's first member, shortened
            args, seed = (sample_state(1, P3M, stream=0), 300.0, P3M), 1
        else:
            traj = grazing_orbit() if case == "grazing" else table_orbit(case)
            args, seed = (traj.initial, traj.t_end, traj.params), 0
        got = lyapunov_spectrum(*args, seed=seed)
        exps, ses, n_chunks, n_restarts = ref_lyapunov_spectrum(*args,
                                                                seed=seed)
        assert got.exponents.tobytes() == exps.tobytes()
        assert got.standard_errors.tobytes() == ses.tobytes()
        assert (got.n_chunks, got.n_restarts) == (n_chunks, n_restarts)
        assert n_chunks >= 2 and n_restarts == (case == "grazing")

    def test_state_at_rest_refused(self):
        # no flow direction and no speed: refused before any division,
        # which the RuntimeWarning filter of the test suite would catch
        state = PhaseState(q=[[0.25, 0.5], [0.75, 0.5], [0.5, 0.125]],
                           v=np.zeros((3, 2)))
        with pytest.raises(ValidationError, match="every velocity is zero"):
            lyapunov_spectrum(state, 50.0, P3, seed=4)

    @pytest.mark.parametrize("fault", ["nan", "zero_column"])
    def test_numerical_failure_names_event(self, fault, monkeypatch):
        # a NaN in the frame or a zero QR diagonal is a numerical failure
        # at an event, not a configuration error
        original = hyperbolic._mass_on_frame

        def faulty(*args):
            frame = original(*args)
            if fault == "nan":
                frame[0, 0] = np.nan
            else:
                frame[:, 1] = 0.0
            return frame

        monkeypatch.setattr(hyperbolic, "_mass_on_frame", faulty)
        state = sample_state(3, P3)
        traj = simulate(state, 50.0, P3)
        with pytest.raises(NumericalFailureError) as err:
            lyapunov_spectrum(state, 50.0, P3, seed=4)
        assert not isinstance(err.value, ValueError)
        msg = str(err.value)
        # the NaN shows at the first event; the zero column at the first
        # QR, which comes no later than the tenth event
        k = int(re.search(r"at event (\d+) ", msg).group(1))
        assert k == 0 if fault == "nan" else 0 <= k <= 9
        i, j = traj.ev_pair[k]
        assert f"at event {k} (t = {float(traj.ev_t[k]):.17g}, " \
               f"pair ({i}, {j}))" in msg
        assert ("non-finite" if fault == "nan" else "QR") in msg

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


class TestSeriesAndSummary:
    def test_series_keys_and_csv(self, tmp_path):
        traj = eventful()
        tau = random_tau()
        audit = q_evolution_audit(traj, tau, n_samples=16)
        path = curvature_propagate(1.0, traj, n_samples=16)
        series = hyperbolicity_series(traj, audit, path=path, l0=(1, 0))
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
        series = hyperbolicity_series(traj, audit, path=path, l0=(1, 0))
        crossed = audit.collisions_before
        rows = np.flatnonzero(crossed[1:] > crossed[:-1])
        assert rows.size == traj.n_events
        for i in rows:
            t = float(series["t"][i])
            assert t == traj.ev_t[crossed[i]]
            near = propagate_tangent(traj, tau, [t - 1e-9])[0]
            assert math.isclose(series["Q"][i], q_of(near, P3), rel_tol=1e-6,
                                abs_tol=1e-9)
            assert math.isclose(series["cone_ratio_q"][i],
                                ref_cone_ratio(near.dq, (1, 0), P3),
                                rel_tol=1e-6, abs_tol=1e-9)
            assert math.isclose(series["cone_ratio_v"][i],
                                ref_cone_ratio(near.dv, (1, 0), P3),
                                rel_tol=1e-6, abs_tol=1e-9)
            assert math.isclose(series["b_eig_min"][i],
                                np.linalg.eigvalsh(
                                    path.operator_at(t - 1e-9).matrix)[0],
                                rel_tol=1e-6)

    def test_summary_serializes(self):
        traj = eventful()
        spec = lyapunov_spectrum(sample_state(3, P2), 100.0, P2, seed=4)
        summ = summary_dict(spectrum=spec, rate=collision_rate(traj))
        text = canonical_json(summ)
        assert json.loads(text)["collision_rate"]["count"] == traj.n_events
        assert "lyapunov" in json.loads(text)


P5 = SystemParams(masses=(1.0, 1.3, 0.7, 1.1, 0.9), radius=0.08)


def bitwise(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def cone_seed(params, seed, c0=1.0):
    """The CLI's audit seed: a random momentum-zero dq with dv = c0 dq."""
    dq = project_to_Z(make_generator(seed, 7).standard_normal(2 * params.n),
                      params)
    return TangentVector(dq, c0 * dq)


def event_on_grid_point():
    """An N = 3 segment of length 2 t_e whose 65-point sample grid has
    its middle point exactly on the event time t_e."""
    state = sample_state(4, P3M)
    t_e = float(simulate(state, 20.0, P3M).ev_t[5])
    traj = simulate(state, 2.0 * t_e, P3M)
    assert traj.t_end == 2.0 * t_e and t_e in traj.ev_t
    assert np.linspace(0.0, traj.t_end, 65)[32] == t_e
    return traj, 65


def _segment(case):
    if case == "collisionless":
        traj = collisionless_3()
        return traj, 64
    if case == "event_on_grid":
        return event_on_grid_point()
    if case == "max_events":
        # stopped by max_events: the segment ends on its last event
        traj = simulate(sample_state(1, P3M), 20.0, P3M, max_events=6)
        assert traj.n_events == 6 and traj.t_end == traj.ev_t[-1]
        return traj, 64
    params, seed, t_max = {
        "n3_seed1": (P3M, 1, 20.0), "n3_seed2": (P3M, 2, 20.0),
        "n3_seed7": (P3M, 7, 20.0), "n3_seed13": (P3M, 13, 20.0),
        "n5_seed3": (P5, 3, 10.0)}[case]
    traj = simulate(sample_state(seed, params), t_max, params)
    assert traj.n_events >= 5 and not traj.singular
    return traj, 64


def near_double_orbit():
    """double_orbit with disk 2 held back by 1e-6: it reaches disk 1 about
    4e-6 after disk 0 does, two regular collisions with no grid point
    between them."""
    state = PhaseState(q=[[0.125, 0.5], [0.5, 0.5], [0.5, 0.125 - 1e-6]],
                       v=[[0.25, 0.0], [0.0, 0.0], [0.0, 0.25]])
    traj = simulate(state, 20.0, P3_DYADIC)
    assert not traj.singular and 0.0 < traj.ev_t[1] - traj.ev_t[0] < 1e-5
    return traj, 64


class TestAuditRows:
    """One row per side of each collision: the incoming flight's last
    sample and the outgoing flight's first."""

    @pytest.mark.parametrize("case", ["near_double", "event_on_grid",
                                      "n3_seed1", "max_events"])
    def test_each_collision_has_two_rows(self, case):
        traj, n_samples = (near_double_orbit() if case == "near_double"
                           else _segment(case))
        audit = q_evolution_audit(traj, cone_seed(traj.params, 1),
                                  n_samples=n_samples)
        crossed = audit.collisions_before
        for k, t_k in enumerate(traj.ev_t):
            rows = np.flatnonzero(audit.times == t_k)
            assert rows.size == 2 and rows[1] == rows[0] + 1
            assert crossed[rows].tolist() == [k, k + 1]
            # collision k's jump of Q, read from its two rows, is its
            # scattering form
            q_pre, q_post = audit.q_values[rows]
            assert abs(q_post - q_pre - audit.jump_formulas[k]) <= \
                1e-8 * max(1.0, abs(q_pre), abs(q_post))
        rows = np.column_stack([audit.times, audit.dq_rows, audit.dv_rows])
        assert not np.any(np.all(rows[1:] == rows[:-1], axis=1))

    def test_double_event_refused(self):
        # the collisions of a double event share one time; the audit
        # refuses the segment rather than order rows inside that instant
        traj = double_orbit()
        assert traj.singular
        with pytest.raises(SingularSegmentError):
            q_evolution_audit(traj, cone_seed(traj.params, 1))


class TestStackedMatchesRowReference:
    """The stacked diagnostics reproduce the row-by-row reference bodies
    (tests/conftest.py) bit for bit: every column, jump and residual."""

    CASES = ("n3_seed1", "n3_seed2", "n3_seed7", "n3_seed13", "n5_seed3",
             "collisionless", "event_on_grid", "max_events")

    @pytest.mark.parametrize("case", CASES)
    def test_q_evolution_audit(self, case):
        traj, n_samples = _segment(case)
        for tau in (cone_seed(traj.params, 1), cone_seed(traj.params, 2, c0=-0.5)):
            got = q_evolution_audit(traj, tau, n_samples=n_samples)
            ref = ref_q_evolution_audit(traj, tau, n_samples=n_samples)
            for name in ("times", "dq_rows", "dv_rows", "q_values",
                         "dq_norms", "dv_norms", "collisions_before"):
                assert bitwise(getattr(got, name), getattr(ref, name)), name
            assert got.jump_formulas.shape == (traj.n_events,)
            assert bitwise(got.jump_formulas, ref.jump_formulas)
            for name in ("max_flight_residual", "max_midpoint_residual",
                         "max_jump_defect", "min_jump_relative", "min_jump"):
                assert bitwise(getattr(got, name), getattr(ref, name)), name
            assert got.q_monotone == ref.q_monotone
            assert not (got.dq_rows.flags.writeable
                        or got.dv_rows.flags.writeable)

    @pytest.mark.parametrize("case", CASES)
    def test_audit_rows_are_the_propagated_rows(self, case):
        # one flight rule: propagate_tangent at the audit's times lands
        # on the audit's outgoing rows bit for bit, and each collision's
        # incoming row is its flight's start carried to the event, the
        # vector the collision is then applied to
        traj, n_samples = _segment(case)
        for tau in (cone_seed(traj.params, 1), cone_seed(traj.params, 2, c0=-0.5)):
            audit = q_evolution_audit(traj, tau, n_samples=n_samples)
            taus = propagate_tangent(traj, tau, audit.times)
            dq = np.array([x.dq for x in taus])
            dv = np.array([x.dv for x in taus])
            crossed = audit.collisions_before
            incoming = np.flatnonzero(crossed[1:] > crossed[:-1])
            assert incoming.size == traj.n_events
            out = np.setdiff1d(np.arange(crossed.size), incoming)
            assert bitwise(dq[out], audit.dq_rows[out])
            assert bitwise(dv[out], audit.dv_rows[out])
            for i in incoming:
                k = crossed[i]
                start = np.searchsorted(crossed, k)
                t_a = audit.times[start]
                assert audit.times[i] == traj.ev_t[k]
                carried = dq[start] + (audit.times[i] - t_a) * dv[start]
                assert bitwise(audit.dq_rows[i], carried)
                assert bitwise(audit.dv_rows[i], dv[start])
                post_q, post_v = _apply_event(tangent.frame_for_event(traj, k),
                                              carried, dv[start])
                assert bitwise(post_q, audit.dq_rows[i + 1])
                assert bitwise(post_v, audit.dv_rows[i + 1])

    @pytest.mark.parametrize("case", CASES)
    def test_curvature_propagate(self, case):
        # the rank-one update of the inverse against inverting B at every
        # collision: times and bases bit for bit, values to roundoff
        traj, n_samples = _segment(case)
        got = curvature_propagate(1.0, traj, n_samples=n_samples)
        ref = ref_curvature_propagate(1.0, traj, n_samples=n_samples)
        assert bitwise(got.sample_times, ref.sample_times)
        assert np.allclose(got.sample_eig_min, ref.sample_eig_min,
                           rtol=1e-11, atol=0.0)
        assert len(got.operators) == len(ref.operators)
        for a, b in zip(got.operators, ref.operators):
            assert a.time == b.time
            assert bitwise(a.basis, b.basis)
            assert (np.abs(a.inverse - b.inverse).max()
                    <= 1e-11 * np.abs(b.inverse).max())
            # no symmetrization: the shift and the update keep it exact
            assert bitwise(a.inverse, a.inverse.T)

    @pytest.mark.parametrize("case", CASES)
    def test_expansion_check(self, case, monkeypatch):
        # the case's grid, so that event_on_grid puts an event on a sample
        traj, n_samples = _segment(case)
        monkeypatch.setattr(hyperbolic, "_EXPANSION_SAMPLES", n_samples)
        tau = cone_seed(traj.params, 3, c0=0.5)
        got = expansion_check(traj, tau, 0.5)
        ref = ref_expansion_check(traj, tau, 0.5, n_samples=n_samples)
        for name in ("min_ratio", "t_argmin", "times", "ratios"):
            assert bitwise(getattr(got, name), getattr(ref, name)), name

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("with_path, l0", [
        (True, (1, 0)), (True, None), (False, (1, 2)), (False, None)])
    def test_hyperbolicity_series(self, case, with_path, l0):
        traj, n_samples = _segment(case)
        tau = cone_seed(traj.params, 4)
        audit = q_evolution_audit(traj, tau, n_samples=n_samples)
        if not with_path:
            # every series carries the curvature column, so its path is
            # a required argument
            with pytest.raises(TypeError, match="path"):
                hyperbolicity_series(traj, audit, l0=l0)
            return
        path = curvature_propagate(1.0, traj, n_samples=n_samples)
        got = hyperbolicity_series(traj, audit, path=path, l0=l0)
        ref = ref_hyperbolicity_series(traj, audit, path=path, l0=l0)
        assert list(got) == list(ref)
        for key in ref:
            assert bitwise(got[key], ref[key]), key

    @pytest.mark.parametrize("case", CASES)
    def test_curvature_samples_match_shifted_operators(self, case):
        # the closed form against the inverse-shift-invert-eigvalsh rule
        # it replaced, on the grid and on the audit's rows
        traj, n_samples = _segment(case)
        path = curvature_propagate(1.0, traj, n_samples=n_samples)
        audit = q_evolution_audit(traj, cone_seed(traj.params, 4),
                                  n_samples=n_samples)
        got = hyperbolicity_series(traj, audit, path=path)["b_eig_min"]
        crossed = np.searchsorted(traj.ev_t, path.sample_times, side="right")
        for rows, ns, values in (
                (path.sample_times, crossed, path.sample_eig_min),
                (audit.times, audit.collisions_before, got)):
            want = [np.linalg.eigvalsh(
                hyperbolic._shift(path.operators[n], float(t)).matrix)[0]
                for n, t in zip(ns, rows)]
            assert np.allclose(values, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", ["event_on_grid", "max_events"])
    def test_sample_times_are_the_grid(self, case):
        traj, n_samples = _segment(case)
        path = curvature_propagate(1.0, traj, n_samples=n_samples)
        grid = np.linspace(0.0, traj.t_end, n_samples)
        assert bitwise(path.sample_times, grid)
        assert path.sample_eig_min.shape == grid.shape
        assert path.operators[-1].time == traj.t_end
        assert len(path.operators) == traj.n_events + 2

    def test_two_eigvalsh_calls_per_path(self, monkeypatch):
        # the positivity check and one batched call over the attachments;
        # the series reads the same top eigenvalues
        traj, n_samples = _segment("n3_seed1")
        audit = q_evolution_audit(traj, cone_seed(traj.params, 4),
                                  n_samples=n_samples)
        calls = []
        real = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        path = curvature_propagate(1.0, traj, n_samples=n_samples)
        assert len(calls) == 2
        assert calls[1][0] == traj.n_events + 1
        hyperbolicity_series(traj, audit, path=path)
        assert len(calls) == 2

    def test_one_inv_call_per_path(self, monkeypatch):
        # the given B0 is inverted once; collisions update the inverse
        # and free flights shift it, so neither inverts anything
        traj, n_samples = _segment("n3_seed1")
        audit = q_evolution_audit(traj, cone_seed(traj.params, 4),
                                  n_samples=n_samples)
        calls = []
        real = np.linalg.inv

        def counted(a, *args, **kwargs):
            calls.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counted)
        path = curvature_propagate(2.0, traj, n_samples=n_samples)
        assert len(calls) == 1
        assert bitwise(calls[0], 2.0 * np.eye(len(calls[0])))
        hyperbolicity_series(traj, audit, path=path)
        for t in path.sample_times:
            op = path.operator_at(float(t))
            hyperbolic._shift(op, float(t) + 0.5)
        assert len(calls) == 1

    def test_propagated_rows_are_read_only_views(self):
        traj, _ = _segment("n3_seed1")
        taus = propagate_tangent(traj, cone_seed(P3M, 1), [0.0, 5.0, 5.0, 20.0])
        assert len(taus) == 4
        for tau in taus:
            assert not tau.dq.flags.writeable and not tau.dv.flags.writeable
        assert bitwise(taus[1].dq, taus[2].dq)
