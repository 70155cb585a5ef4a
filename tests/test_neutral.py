import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from conftest import (bfs_components, contact_traj, neutral_deviations,
                      ref_richness, stalled_copy)
from hypothesis import given, settings
from hypothesis import strategies as st

from hardtorus import neutral, tangent
from hardtorus.errors import (IllConditionedAdvanceError,
                              PerturbationTooLargeError, ValidationError)
from hardtorus.events import simulate, symbolic_sequence
from hardtorus.geometry import (PhaseState, SystemParams, Tolerances,
                                mass_inner, mass_norm, project_to_Z,
                                reduced_space, sample_state)
from hardtorus.neutral import (advance, advance_report, collision_graph,
                               is_sufficient, neutral_report, neutral_space,
                               neutral_translate)
from hardtorus.tangent import (TangentVector, frame_for_event,
                               propagate_tangent, transport_between)

C = 1.0 / math.sqrt(2.0)
P2 = SystemParams(masses=(1.0, 1.0), radius=0.1)
P2B = SystemParams(masses=(1.0, 1.5), radius=0.15)
P3 = SystemParams(masses=(1.0, 1.0, 1.0), radius=0.1)
P3M = SystemParams(masses=(1.0, 1.3, 0.7), radius=0.1)
P8 = SystemParams(masses=tuple(np.linspace(0.5, 2.0, 8)), radius=0.06)


def seed3_orbit(t_max):
    return simulate(sample_state(3, P3M), t_max, P3M)


def n8_orbit():
    """N = 8, seed 9, 18 events: a transported-basis SVD kept one
    direction besides the flow here, whose effect is first order."""
    return simulate(sample_state(9, P8), 5.0, P8)


def assert_decided(res, params):
    """Every cut far above roundoff, every kept residual far below."""
    tol = params.tolerances.rank_rel_tol
    assert np.all(res.cut_margins >= 100.0 * tol)
    assert res.max_kept_residual <= tol / 100.0


def tube_state():
    """Vertical bouncing pair next to a disk at rest: the collision
    graph stays ((0, 1), (2,)) and the neutral space is 3-dimensional."""
    return PhaseState(q=[[0.25, 0.2], [0.25, 0.6], [0.75, 0.4]],
                      v=[[0.0, C], [0.0, -C], [0.0, 0.0]])


def tube_traj(t=6.0):
    traj = simulate(tube_state(), t, P3)
    assert set(symbolic_sequence(traj)) == {(0, 1)}
    return traj


def unit_neutral(raw, params):
    w = project_to_Z(np.asarray(raw, dtype=float), params)
    return w / mass_norm(w, params)


def reference_pre_collision(traj, w, k, t_ref):
    """Incoming-side dq at event k from one transport out of t_ref: the
    configuration half of the inverse collision step, the reflection."""
    xq, _ = transport_between(traj, w.copy(), np.zeros_like(w), t_ref,
                              float(traj.ev_t[k]))
    return frame_for_event(traj, k).reflect(xq)


class TestNeutralSpace:
    def test_collisionless_dimension_two_disks(self):
        state = PhaseState(q=[[0.25, 0.2], [0.75, 0.6]],
                           v=[[0.0, C], [0.0, -C]])
        traj = simulate(state, 3.0, P2)
        assert traj.n_events == 0
        res = neutral_space(traj, 0.0, 3.0, 0.5, P2)
        assert res.dimension == 2
        assert res.flow_residual <= 1e-8
        assert res.cut_margins.size == 0 and res.max_kept_residual == 0.0
        assert is_sufficient(traj, P2).verdict == "not_sufficient"

    def test_collisionless_dimension_three_disks(self):
        state = PhaseState(q=[[1 / 6, 0.1], [0.5, 0.3], [5 / 6, 0.7]],
                           v=[[0.0, 0.8], [0.0, -0.5], [0.0, 0.3]])
        p = SystemParams(masses=(1.0, 2.0, 0.5), radius=0.1)
        traj = simulate(state, 4.0, p)
        assert traj.n_events == 0
        res = neutral_space(traj, 0.0, 4.0, 1.0, p)
        assert res.dimension == 4
        assert res.cut_margins.size == 0 and res.max_kept_residual == 0.0

    def test_state_at_rest_refused(self):
        # no flow line to compare with: refused up front, not a bare
        # division by the zero speed
        p = SystemParams(masses=(1.0, 1.3, 0.7), radius=0.1)
        state = PhaseState(q=[[0.25, 0.5], [0.75, 0.5], [0.5, 0.125]],
                           v=np.zeros((3, 2)))
        traj = simulate(state, 20.0, p)
        with pytest.raises(ValidationError, match="moving state"):
            neutral_space(traj, 0.0, 20.0, 0.0, p)
        with pytest.raises(ValidationError, match="moving state"):
            is_sufficient(traj, p)

    def test_two_disks_sufficient_after_collision(self):
        for seed in range(12):
            state = sample_state(seed, P2B)
            probe = simulate(state, 30.0, P2B, max_events=1)
            assert probe.n_events == 1
            traj = simulate(state, float(probe.ev_t[0]) + 0.5, P2B)
            verdict = is_sufficient(traj, P2B)
            assert verdict.verdict == "sufficient"
            assert verdict.result.dimension == 1
            assert verdict.result.flow_residual <= 1e-8
            assert_decided(verdict.result, P2B)

    def test_tube_scenario_not_sufficient(self):
        traj = tube_traj()
        res = neutral_space(traj, 0.0, 6.0, 0.05, P3)
        assert res.dimension == 3
        assert res.cut_margins.size == 1
        assert_decided(res, P3)
        assert is_sufficient(traj, P3).verdict == "not_sufficient"

    def test_attached_after_events(self):
        # the sweep from a passes seven events before t_ref and takes
        # the basis from its image there
        traj = seed3_orbit(20.0)
        t_ref = 0.5 * float(traj.ev_t[6] + traj.ev_t[7])
        res = neutral_space(traj, 0.0, 19.99, t_ref, P3M)
        assert res.dimension == 1
        assert res.flow_residual <= 1e-12
        assert_decided(res, P3M)

    def test_one_forward_walk(self, monkeypatch):
        calls = []

        def recording(traj, *span, **kwargs):
            calls.append(span)
            return tangent._walk(traj, *span, **kwargs)

        monkeypatch.setattr(neutral, "_walk", recording)
        traj = seed3_orbit(20.0)
        neutral_space(traj, 0.5, 19.99, 9.7, P3M)
        assert calls == [(0.5, 19.99)]


def svd_kernel(traj, b, params):
    """Kernel of the window [0, b] attached at 0 by the older route:
    transport the basis (W, 0) of Z to b and cut its velocity part at
    rank_rel_tol times the top singular value."""
    zb = reduced_space(params).basis
    _, xv = transport_between(traj, zb.copy(), np.zeros_like(zb), 0.0, b)
    _, svals, vt = np.linalg.svd((zb.T * params.mass_weights) @ xv)
    rank = int((svals >= params.tolerances.rank_rel_tol * svals[0]).sum())
    return zb @ vt[rank:].T


class TestNeutralSpaceGate:
    """Windows the transported-basis SVD could not decide, or decided
    wrongly, and the finite-difference oracle that settles them."""

    @pytest.mark.parametrize("t_max", [8.0, 20.0, 200.0])
    def test_seed3_windows_sufficient(self, t_max):
        verdict = is_sufficient(seed3_orbit(t_max), P3M)
        assert verdict.verdict == "sufficient"
        assert verdict.result.flow_residual <= 1e-12

    def test_default_window_of_a_count_stopped_segment(self):
        # a segment stopped by max_events ends on its last collision, so
        # the default window ends in the flight before that collision
        traj = simulate(sample_state(1, P3M), 100.0, P3M, max_events=12)
        verdict = is_sufficient(traj, P3M)
        assert verdict.verdict == "sufficient"
        assert traj.ev_t[-2] < verdict.result.b < traj.ev_t[-1]

    def test_n8_window_sufficient(self):
        traj = n8_orbit()
        assert traj.n_events == 18
        verdict = is_sufficient(traj, P8)
        assert verdict.verdict == "sufficient"
        assert verdict.result.flow_residual <= 1e-12

    def test_n8_extra_svd_direction_is_first_order(self):
        traj = n8_orbit()
        res = is_sufficient(traj, P8).result
        kernel = svd_kernel(traj, res.b, P8)
        assert kernel.shape[1] == 2
        # the kernel direction mass-orthogonal to the flow
        v = traj.state_at(res.t_ref).v.reshape(-1)
        c = (kernel.T * P8.mass_weights) @ v
        extra = kernel @ np.array([c[1], -c[0]])
        extra /= mass_norm(extra, P8)
        dev, dev10 = neutral_deviations(traj, extra, res.a, res.b,
                                        res.t_ref, P8)
        assert 5.0 <= dev / dev10 <= 20.0

    # windows short enough that the oracle's roundoff floor stays under
    # 1e-8 at both steps; on the seed-3 orbit it passes 1e-8 by t = 8.
    # The *_mid cases attach halfway between the window's two middle
    # events, so the sweep from a crosses events before t_ref and the
    # basis is orthonormalized from its image there; the oracle shifts
    # the state at t_ref and simulates it both ways, to b and back to a
    @pytest.mark.parametrize("case", ["seed3", "n8", "tube", "seed3_mid",
                                      "tube_mid"])
    def test_kept_vectors_pass_finite_differences(self, case):
        traj, params, t_ref = {"seed3": (seed3_orbit(5.0), P3M, 0.0),
                               "n8": (n8_orbit(), P8, 0.0),
                               "tube": (tube_traj(), P3, 0.05),
                               "seed3_mid": (seed3_orbit(5.0), P3M, None),
                               "tube_mid": (tube_traj(), P3, None)}[case]
        if t_ref is None:
            k = traj.n_events // 2
            t_ref = 0.5 * float(traj.ev_t[k - 1] + traj.ev_t[k])
        b = traj.t_end
        res = neutral_space(traj, 0.0, b, t_ref, params)
        assert res.dimension == (3 if case.startswith("tube") else 1)
        gram = (res.basis.T * params.mass_weights) @ res.basis
        assert np.abs(gram - np.eye(res.dimension)).max() <= 1e-14
        for col in res.basis.T:
            devs = neutral_deviations(traj, col, 0.0, b, t_ref, params)
            assert max(devs) <= 1e-8

    # the closed form carries W through the tangent map, which amplifies
    # the roundoff of W off the flow line, so these windows are short too
    @pytest.mark.parametrize("case", ["seed3", "n8", "two_disks"])
    def test_basis_advances_match_flow(self, case):
        traj, params = {"seed3": (seed3_orbit(5.0), P3M),
                        "n8": (n8_orbit(), P8),
                        "two_disks": (simulate(sample_state(3, P2B), 8.0, P2B),
                                      P2B)}[case]
        verdict = is_sufficient(traj, params)
        assert verdict.verdict == "sufficient"
        w = verdict.result.basis[:, 0]
        v = traj.state_at(0.0).v.reshape(-1)
        c = mass_inner(w, v, params) / mass_inner(v, v, params)
        every = np.arange(traj.n_events)
        got = advance(traj, w, every, params)
        assert np.abs(got - c * advance(traj, v, every, params)).max() <= 1e-12

    @pytest.mark.parametrize("case", ["margin", "residual", "empty"])
    def test_near_roundoff_decisions_undecidable(self, case):
        # n8's smallest cut margin is 7.4e-3 and seed 3's largest kept
        # residual 6.6e-16; at rank_rel_tol 1e-15 the n8 sweep cuts the
        # flow line too
        traj, params, tol = {"margin": (n8_orbit(), P8, 1e-4),
                             "residual": (seed3_orbit(8.0), P3M, 1e-14),
                             "empty": (n8_orbit(), P8, 1e-15)}[case]
        params = dataclasses.replace(
            params, tolerances=Tolerances(rank_rel_tol=tol))
        verdict = is_sufficient(traj, params)
        assert verdict.verdict == "undecidable"
        res = verdict.result
        if case == "empty":
            assert res.dimension == 0
        else:
            assert res.dimension == 1
            assert (res.cut_margins.min() < 100.0 * tol) == (case == "margin")
            assert (res.max_kept_residual > tol / 100.0) == (case == "residual")

    def test_analysis_windows_decided(self):
        # the N = 3 orbits of the benchmark's analysis workload
        for seed in range(1, 41):
            traj = simulate(sample_state(seed, P3M), 20.0, P3M)
            assert is_sufficient(traj, P3M).verdict != "undecidable", seed


class TestAdvance:
    def test_flow_direction_advances_one(self):
        state = sample_state(3, P2B)
        traj = simulate(state, 8.0, P2B)
        v0 = state.v.reshape(-1)
        for k in range(min(traj.n_events, 4)):
            assert abs(advance(traj, v0, k, P2B) - 1.0) <= 1e-8

    def test_methods_agree(self):
        state = sample_state(3, P2B)
        traj = simulate(state, 8.0, P2B)
        v0 = state.v.reshape(-1)
        W = is_sufficient(traj, P2B).result.basis[:, 0]
        for vec in (v0, W):
            for k in range(min(traj.n_events, 3)):
                cf = advance(traj, vec, k, P2B)
                fd = advance(traj, vec, k, P2B, method="finite_difference")
                assert abs(cf - fd) <= 1e-6

    def test_finite_difference_wraps_below_zero_to_zero(self):
        # q - eps*W lands 5e-17 below 0, which % 1.0 rounds to 1.0; the
        # perturbed positions are wrapped by the engine's rule instead
        state = PhaseState(q=[[1e-6 - 5e-17, 0.25], [0.5, 0.25]],
                           v=[[0.1, 0.0], [-0.1, 0.0]])
        traj = simulate(state, 2.0, P2)
        W = np.array([1.0, 0.0, 0.0, 0.0])
        assert advance(traj, W, 0, P2) == pytest.approx(5.0, abs=1e-12)
        fd = advance(traj, W, 0, P2, method="finite_difference")
        assert abs(fd - 5.0) <= 1e-6

    def test_finite_difference_from_an_event_time(self):
        # t_ref on event k - 1 starts on its outgoing side, as state_at
        # does, so collision k is the next one the perturbed runs meet.
        # W moves only the disk of pair k that pair k - 1 does not hold,
        # along pair k's relative velocity, so its advance at k is 1 and
        # neither perturbed state overlaps the pair in contact at t_ref.
        traj = simulate(sample_state(1, P3M), 20.0, P3M)
        for k in (3, 6):
            i, j = traj.ev_pair[k].tolist()
            assert set(traj.ev_pair[k - 1].tolist()) & {i, j} == {1}
            W = np.zeros((3, 2))
            W[j if i == 1 else i] = (-1.0 if i == 1 else 1.0) * (
                traj.ev_v_pre[k, i] - traj.ev_v_pre[k, j])
            W = W.reshape(-1)
            t_ref = float(traj.ev_t[k - 1])
            on = advance(traj, W, k, P3M, t_ref=t_ref,
                         method="finite_difference")
            after = advance(traj, W, k, P3M, t_ref=t_ref + 1e-3,
                            method="finite_difference")
            assert abs(on - after) <= 1e-6, k
            assert abs(on - advance(traj, W, k, P3M, t_ref=t_ref)) <= 1e-6, k
            for method in ("closed_form", "finite_difference"):
                with pytest.raises(ValueError, match="before the event"):
                    advance(traj, W, k, P3M, t_ref=float(traj.ev_t[k]),
                            method=method)
        # the flow direction moves the pair in contact at t_ref apart, so
        # one side of the difference overlaps it: a typed refusal
        for k in (4, 7):
            t_ref = float(traj.ev_t[k - 1])
            flow = traj.state_at(t_ref).v.reshape(-1)
            with pytest.raises(IllConditionedAdvanceError, match="overlap"):
                advance(traj, flow, k, P3M, t_ref=t_ref,
                        method="finite_difference")
            fd = advance(traj, flow, k, P3M, t_ref=t_ref + 1e-3,
                         method="finite_difference")
            assert abs(fd - 1.0) <= 1e-6, k

    def test_events_before_t_ref_refused(self):
        # both methods carry W forward from t_ref, so an event before it,
        # alone or in an index array, has no advance to report
        traj = simulate(sample_state(3, P2B), 8.0, P2B)
        t_ref = 0.5 * float(traj.ev_t[1] + traj.ev_t[2])
        W = traj.state_at(t_ref).v.reshape(-1)
        assert abs(advance(traj, W, 2, P2B, t_ref=t_ref) - 1.0) <= 1e-8
        for k in (1, [2, 0]):
            with pytest.raises(ValueError, match="before the event"):
                advance(traj, W, k, P2B, t_ref=t_ref)

    def test_closed_form_linear(self):
        traj = simulate(sample_state(3, P2B), 8.0, P2B)
        W = is_sufficient(traj, P2B).result.basis[:, 0]
        a1 = advance(traj, W, 0, P2B)
        assert abs(advance(traj, 3.0 * W, 0, P2B) - 3.0 * a1) <= 1e-12

    def test_event_index_checked(self):
        traj = tube_traj()
        with pytest.raises(ValueError, match="out of range"):
            advance(traj, np.zeros(6), traj.n_events, P3)

    def test_tube_transverse_family_has_zero_advance(self):
        traj = tube_traj()
        Wh = unit_neutral([0, 0, 0, 0, 1, 0], P3)
        for k in range(min(traj.n_events, 5)):
            assert abs(advance(traj, Wh, k, P3)) <= 1e-12

    def test_advances_agree_within_component(self):
        traj = tube_traj()
        Wv = unit_neutral([0, 1, 0, -1, 0, 0], P3)
        alphas = [advance(traj, Wv, k, P3) for k in range(traj.n_events)]
        assert max(alphas) - min(alphas) <= 1e-9

    def test_advance_report_components(self):
        traj = tube_traj()
        rep = advance_report(traj, unit_neutral([0, 0, 0, 0, 1, 0], P3), P3)
        assert rep.components == ((0, 1), (2,))
        assert not rep.graph_connected
        assert np.all(rep.component_spread <= 1e-6)
        assert rep.parallel_residual > 0.5

    def test_index_array_matches_scalar_calls(self):
        traj = simulate(sample_state(3, P2B), 8.0, P2B)
        W = is_sufficient(traj, P2B).result.basis[:, 0]
        n = traj.n_events
        assert n >= 3
        ks = np.array([n - 1, 0, n // 2, n // 2])
        got = advance(traj, W, ks, P2B)
        assert got.tolist() == [advance(traj, W, k, P2B) for k in ks]
        rep = advance_report(traj, W, P2B)
        assert rep.advances.tolist() == [advance(traj, W, k, P2B)
                                         for k in range(traj.n_events)]

    def test_index_array_checks(self):
        traj = tube_traj()
        with pytest.raises(ValueError, match="out of range"):
            advance(traj, np.zeros(6), [0, traj.n_events], P3)
        with pytest.raises(ValueError, match="one event index"):
            advance(traj, np.zeros(6), [0, 1], P3, method="finite_difference")

    def test_ill_conditioned_event_refused(self, monkeypatch):
        traj = simulate(sample_state(3, P3M), 20.0, P3M)
        verdict = is_sufficient(traj, P3M)
        stalled = stalled_copy(traj, 5)
        W = verdict.result.basis[:, 0]
        assert math.isfinite(advance(stalled, W, 4, P3M))
        with pytest.raises(IllConditionedAdvanceError):
            advance(stalled, W, 5, P3M)
        with pytest.raises(IllConditionedAdvanceError):
            advance(stalled, W, np.arange(traj.n_events), P3M)
        with pytest.raises(IllConditionedAdvanceError):
            advance_report(stalled, W, P3M)
        # the report keeps its rank verdict and drops every column's advances
        monkeypatch.setattr(neutral, "is_sufficient",
                            lambda *args, **kwargs: verdict)
        rep = neutral_report(stalled, P3M)
        assert rep["dimension"] == verdict.result.dimension > 0
        assert rep["advances_per_basis_vector"] == [None] * rep["dimension"]

    def test_connected_equal_advances_means_flow(self):
        # with one component, the only neutral direction whose advances
        # all agree is the flow line itself
        state = sample_state(3, P2B)
        traj = simulate(state, 8.0, P2B)
        rep = advance_report(traj, state.v.reshape(-1), P2B)
        assert rep.graph_connected
        assert np.all(rep.component_spread <= 1e-6)
        assert rep.parallel_residual <= 1e-6


class TestPreCollisionSweep:
    """One forward chain per vector gives, event by event after t_ref,
    exactly what a separate transport from t_ref followed by the inverse
    step gives."""

    @pytest.mark.parametrize("case", ["contact_start", "t_ref_zero",
                                      "t_ref_mid"])
    def test_sweep_matches_single_transports(self, case):
        if case == "contact_start":
            traj, params = contact_traj(), P3M
            t_ref = 0.0
        else:
            params = P3M
            traj = simulate(sample_state(3, params), 20.0, params)
            t_ref = 0.0 if case == "t_ref_zero" else \
                0.5 * float(traj.ev_t[6] + traj.ev_t[7])
        rng = np.random.default_rng(11)
        w = project_to_Z(rng.standard_normal(2 * params.n), params)
        after = np.flatnonzero(traj.ev_t > t_ref)
        assert after.size > 8
        sweep = neutral._pre_collision_vectors(traj, w, t_ref, after)
        assert not np.isnan(sweep[after]).any()
        ref = np.array([reference_pre_collision(traj, w, k, t_ref)
                        for k in after])
        assert np.array_equal(sweep[after], ref)

    def test_requested_rows_only(self):
        traj = contact_traj()
        assert traj.ev_t[0] == 0.0 < traj.ev_t[1]
        w = unit_neutral([1, 0, 0, 1, 0, 0], P3M)
        sweep = neutral._pre_collision_vectors(traj, w, 0.0, [1, 3])
        for k in (1, 3):
            assert np.array_equal(sweep[k],
                                  reference_pre_collision(traj, w, k, 0.0))
        assert np.isnan(np.delete(sweep, [1, 3], axis=0)).all()


class TestCollisionGraph:
    def test_frozen_examples(self):
        g = collision_graph([(0, 1), (1, 2)], 3)
        assert g.connected and g.k == 1
        g2 = collision_graph([], 3)
        assert g2.k == 3 and g2.components == ((0,), (1,), (2,))
        g3 = collision_graph([(0, 1), (0, 1)], 3)
        assert g3.k == 2 and g3.components == ((0, 1), (2,))

    @given(st.integers(2, 7),
           st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    max_size=12))
    @settings(max_examples=200)
    def test_components_match_bfs(self, n, raw):
        edges = [(min(i % n, j % n), max(i % n, j % n))
                 for i, j in raw if i % n != j % n]
        g = collision_graph(edges, n)
        assert g.components == bfs_components(n, edges)
        assert g.richness == ref_richness(n, edges)

    def test_richness(self):
        assert collision_graph(symbolic_sequence(tube_traj()), 3).richness == 0
        # at N = 2 every collision closes a window
        sigma = symbolic_sequence(simulate(sample_state(3, P2B), 8.0, P2B))
        assert collision_graph(sigma, 2).richness == len(sigma)

    @pytest.mark.parametrize("params, seed", [(P3M, 1), (P3M, 3), (P8, 9),
                                              (P8, 1)])
    def test_richness_of_orbits_matches_bfs_windows(self, params, seed):
        sigma = symbolic_sequence(simulate(sample_state(seed, params), 20.0,
                                           params))
        want = ref_richness(params.n, sigma)
        # windows of several events each, not one window per collision
        assert 0 < want and len(sigma) >= 2 * want + 1
        assert collision_graph(sigma, params.n).richness == want


def degenerate_member(l0, masses, q, speeds):
    """An exact member of L(l0): disk i sits at q[i] and moves along the
    unit vector of l0 with speed speeds[i] less the mass-weighted mean,
    so the total momentum is zero.  Disks in one tube meet head-on, with
    contact normals exactly +-l0, so the float orbit stays a member."""
    params = SystemParams(masses=masses, radius=0.1)
    m, s = np.array(masses), np.array(speeds)
    e = np.array(l0, dtype=float) / math.hypot(*l0)
    state = PhaseState(q=q, v=np.outer(s - (m @ s) / m.sum(), e))
    return params, state, e


# (l0, masses, positions, speeds), in the order of the tube groupings
# of MEMBER_IDS
MEMBER_IDS = ["01-2+1", "01-3", "01-1+1+1", "01-2+2", "01-3+2",
              "10-2+1+1", "10-2+2", "11-2+1", "11-3"]
DEGENERATE_MEMBERS = [
    ((0, 1), (1.0, 1.3, 0.7), [[0.25, 0.1], [0.25, 0.6], [0.75, 0.3]],
     [0.4, -0.3, 0.2]),
    ((0, 1), (1.0, 1.3, 0.7), [[0.5, 0.1], [0.5, 0.4], [0.5, 0.75]],
     [0.5, -0.2, 0.1]),
    ((0, 1), (1.0, 1.3, 0.7), [[1 / 6, 0.1], [0.5, 0.3], [5 / 6, 0.7]],
     [0.8, -0.5, 0.3]),
    ((0, 1), (1.0, 1.3, 0.7, 0.9),
     [[0.25, 0.1], [0.25, 0.6], [0.75, 0.3], [0.75, 0.8]],
     [0.4, -0.3, 0.2, -0.35]),
    ((0, 1), (1.0, 1.3, 0.7, 0.9, 1.1),
     [[0.25, 0.1], [0.25, 0.4], [0.25, 0.75], [0.75, 0.3], [0.75, 0.8]],
     [0.4, -0.3, 0.1, 0.2, -0.35]),
    ((1, 0), (1.0, 1.3, 0.7, 0.9),
     [[0.1, 0.2], [0.6, 0.2], [0.3, 0.5], [0.7, 0.8]],
     [0.4, -0.3, 0.2, -0.1]),
    ((1, 0), (1.0, 1.3, 0.7, 0.9),
     [[0.1, 0.2], [0.6, 0.2], [0.3, 0.7], [0.8, 0.7]],
     [0.4, -0.3, 0.2, -0.35]),
    ((1, 1), (1.0, 1.3, 0.7), [[0.2, 0.2], [0.65, 0.65], [0.6, 0.1]],
     [0.4, -0.3, 0.2]),
    ((1, 1), (1.0, 1.3, 0.7), [[0.1, 0.1], [0.45, 0.45], [0.8, 0.8]],
     [0.4, -0.3, 0.2]),
]


class TestDegenerateMembers:
    """On an exact member of L(l0) the neutral space is predictable: a
    slide of any one disk along l0 keeps every contact head-on, and a
    common perpendicular slide of one collision-graph component keeps
    that component's contacts, so after Z removes the two translations
    the dimension is N + k - 2.  The collisionless case k = N is
    criterion 07's 2(N - 1)."""

    @pytest.mark.parametrize("member", DEGENERATE_MEMBERS, ids=MEMBER_IDS)
    def test_dimension_is_n_plus_k_minus_2(self, member):
        params, state, e = degenerate_member(*member)
        t_end = 20.0
        traj = simulate(state, t_end, params)
        assert not traj.singular
        k = collision_graph(symbolic_sequence(traj), params.n).k
        res = neutral_space(traj, 0.0, t_end, 0.0, params)
        assert res.dimension == params.n + k - 2
        assert np.all(res.cut_margins >= 0.5)
        # the slides span what the dimension counts
        for i in range(params.n):
            slide = np.zeros((params.n, 2))
            slide[i] = e
            x = project_to_Z(slide.reshape(-1), params)
            kept = res.basis @ ((res.basis.T * params.mass_weights) @ x)
            assert mass_norm(x - kept, params) <= 1e-12 * mass_norm(x, params), i


class TestNeutralTranslate:
    def test_identity_at_zero(self):
        state = tube_state()
        Wh = unit_neutral([0, 0, 0, 0, 1, 0], P3)
        out = neutral_translate(state, Wh, 0.0, 0.0, P3)
        assert np.array_equal(out.q, state.q)
        assert np.array_equal(out.v, state.v)

    def test_energy_preserved_exactly(self):
        state = tube_state()
        Wh = unit_neutral([0, 0, 0, 0, 1, 0], P3)
        out = neutral_translate(state, Wh, 0.05, 0.3, P3)
        assert abs(0.5 * mass_norm(out.v, P3) ** 2 - 0.5) <= 1e-14

    def test_sweep_reflection(self):
        state = PhaseState(q=[[0.3, 0.5], [0.6, 0.5]],
                           v=[[0.0, C], [0.0, -C]])
        wB = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
        out = neutral_translate(state, wB, 0.12, 0.0, P2)
        gap = out.q[0] - out.q[1]
        assert math.hypot(gap[0], gap[1]) >= 2 * P2.radius - 1e-12
        assert np.allclose(out.v, state.v, atol=1e-12)
        # with tau2 != 0 the velocity leans on the sweep's final direction,
        # which the contact has reflected to -wB
        tau2 = 0.5
        leaned = neutral_translate(state, wB, 0.12, tau2, P2)
        assert np.array_equal(leaned.q, out.q)
        w_end = (math.sqrt(1.0 + tau2 * tau2) * leaned.v - out.v).reshape(-1) / tau2
        assert np.allclose(w_end, -wB, atol=1e-12)

    def test_input_checks(self):
        state = tube_state()
        with pytest.raises(ValueError, match="unit"):
            neutral_translate(state, np.full(6, 0.3), 0.1, 0.0, P3)
        v_dir = state.v.reshape(-1) / mass_norm(state.v, P3)
        with pytest.raises(ValueError, match="orthogonal"):
            neutral_translate(state, v_dir, 0.1, 0.0, P3)

    def test_singular_sweep_refused(self):
        # symmetric sweep drives both contacts simultaneously
        state = PhaseState(q=[[0.2, 0.2], [0.5, 0.2], [0.8, 0.2]],
                           v=[[0.0, C], [0.0, C], [0.0, C]])
        w = np.array([1.0, 0.0, 0.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
        with pytest.raises(PerturbationTooLargeError):
            neutral_translate(state, w, 0.25, 0.0, P3)


class TestCommutation:
    def test_translate_then_flow_matches_flow_then_translate(self):
        w0 = unit_neutral([0, 0, 0, 0, 1, 0], P3)
        x0 = tube_state()
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(20):
            tau1, tau2 = (rng.random(2) * 0.06) * np.sign(rng.standard_normal())
            t = 0.5 + 1.5 * rng.random()
            lhs = simulate(neutral_translate(x0, w0, tau1, tau2, P3),
                           t, P3).final
            t_star = t / math.sqrt(1.0 + tau2 * tau2)
            base = simulate(x0, t_star + 0.5, P3)
            x_star = base.state_at(t_star)
            wt = propagate_tangent(base, TangentVector(w0, np.zeros(6)),
                                   [t_star])[0]
            assert np.linalg.norm(wt.dv) <= 1e-12
            w_star = wt.dq / mass_norm(wt.dq, P3)
            rhs = neutral_translate(x_star, w_star,
                                    tau1 + t_star * tau2, tau2, P3)
            dq = np.abs((lhs.q - rhs.q + 0.5) % 1.0 - 0.5).max()
            dv = np.abs(lhs.v - rhs.v).max()
            worst = max(worst, dq, dv)
        assert worst <= 1e-8


class TestNeutralReport:
    def test_tube_report(self):
        rep = neutral_report(tube_traj(), P3)
        assert rep["dimension"] == 3
        assert rep["verdict"] == "not_sufficient"
        assert rep["components"] == [[0, 1], [2]]
        assert rep["richness"] == 0
        assert len(rep["advances_per_basis_vector"]) == 3

    def test_one_sequence_per_report(self, monkeypatch):
        # the graph's components and its richness come from one collision
        # sequence and one component search
        calls = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("symbolic_sequence", "_union_find_components"):
            monkeypatch.setattr(neutral, name,
                                counting(name, getattr(neutral, name)))
        rep = neutral_report(seed3_orbit(20.0), P3M)
        assert rep["richness"] > 1
        assert calls == {"symbolic_sequence": 1, "_union_find_components": 1}

    def test_frames_per_event_bounded(self, monkeypatch):
        # one sweep per basis column builds at most two frames per event
        # (one crossing, one inverse step), on top of the kernel's walk
        built = Counter()
        original = tangent.frame_for_event

        def counting(traj, k):
            built[int(k)] += 1
            return original(traj, k)

        monkeypatch.setattr(tangent, "frame_for_event", counting)
        monkeypatch.setattr(neutral, "frame_for_event", counting)
        traj = simulate(sample_state(3, P3M), 20.0, P3M)
        rep = neutral_report(traj, P3M)
        assert rep["dimension"] >= 1 and traj.n_events > 10
        assert all(vals is not None for vals in rep["advances_per_basis_vector"])
        assert set(built) == set(range(traj.n_events))
        assert max(built.values()) <= 2 * rep["dimension"] + 2

    def test_sufficient_report(self):
        traj = simulate(sample_state(3, P2B), 8.0, P2B)
        rep = neutral_report(traj, P2B)
        assert rep["verdict"] == "sufficient"
        assert rep["dimension"] == 1
        assert rep["flow_residual"] <= 1e-8
