import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardtorus.errors import ValidationError
from hardtorus.events import (read_events_jsonl, resolve_collision,
                              reverse_state, simulate, symbolic_sequence,
                              write_events_jsonl)
from hardtorus.geometry import (PhaseState, SystemParams, energy, min_gap,
                                momentum, sample_state)

P2 = SystemParams(masses=(1.0, 1.0), radius=0.1)
P3 = SystemParams(masses=(1.0, 2.0, 0.5), radius=0.1)


def head_on():
    return PhaseState(q=[[0.2, 0.5], [0.8, 0.5]],
                      v=[[0.1, 0.0], [-0.1, 0.0]])


def contact_state(u, v, r):
    """Two disks touching along unit direction u (from disk 1 to disk 0)."""
    q0 = np.array([0.5, 0.5])
    return PhaseState(q=[q0, q0 - 2.0 * r * np.asarray(u, dtype=float)], v=v)


class TestElasticExchange:
    def test_equal_masses_swap(self):
        st0 = contact_state([1.0, 0.0], [[-0.5, 0.0], [0.5, 0.0]], P2.radius)
        out = resolve_collision(st0, 0, 1, (0, 0), P2)
        assert np.allclose(out.v, [[0.5, 0.0], [-0.5, 0.0]])
        assert np.array_equal(out.q, st0.q)

    def test_one_three(self):
        p = SystemParams(masses=(1.0, 3.0), radius=0.1)
        st0 = contact_state([1.0, 0.0], [[-1.0, 0.0], [0.0, 0.0]], p.radius)
        out = resolve_collision(st0, 0, 1, (0, 0), p)
        assert np.allclose(out.v, [[0.5, 0.0], [-0.5, 0.0]])

    def test_grazing_no_exchange(self):
        st0 = contact_state([1.0, 0.0], [[0.0, 0.3], [0.0, -0.2]], P2.radius)
        out = resolve_collision(st0, 0, 1, (0, 0), P2)
        assert np.array_equal(out.v, st0.v)

    def test_separating_refused(self):
        st0 = contact_state([1.0, 0.0], [[0.5, 0.0], [-0.5, 0.0]], P2.radius)
        with pytest.raises(ValueError, match="separating"):
            resolve_collision(st0, 0, 1, (0, 0), P2)

    def test_not_in_contact_refused(self):
        st0 = PhaseState(q=[[0.2, 0.5], [0.8, 0.5]], v=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not in contact"):
            resolve_collision(st0, 0, 1, (0, 0), P2)

    def test_self_collision_refused(self):
        st0 = contact_state([1.0, 0.0], np.zeros((2, 2)), P2.radius)
        with pytest.raises(ValueError):
            resolve_collision(st0, 0, 0, (0, 0), P2)

    @given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(-1, 1),
           st.floats(0.01, 2), st.floats(0, 2 * math.pi))
    @settings(max_examples=100)
    def test_one_dimensional_closed_form(self, m1, m2, u2, gap, angle):
        # oblique contact reduces to the 1-D elastic law along the normal
        u1 = u2 - gap
        p = SystemParams(masses=(m1, m2), radius=0.1)
        u = np.array([math.cos(angle), math.sin(angle)])
        st0 = contact_state(u, [u1 * u, u2 * u], p.radius)
        out = resolve_collision(st0, 0, 1, (0, 0), p)
        w1 = ((m1 - m2) * u1 + 2 * m2 * u2) / (m1 + m2)
        w2 = ((m2 - m1) * u2 + 2 * m1 * u1) / (m1 + m2)
        assert np.allclose(out.v, [w1 * u, w2 * u], atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50)
    def test_conservation_and_microreversibility(self, seed):
        rng = np.random.default_rng(seed)
        m = tuple(0.2 + 2 * rng.random(2))
        p = SystemParams(masses=m, radius=0.1)
        angle = 2 * math.pi * rng.random()
        u = np.array([math.cos(angle), math.sin(angle)])
        v0 = rng.standard_normal((2, 2))
        rad = float((v0[0] - v0[1]) @ u)
        if rad > 0.0:
            v0 = v0[::-1].copy()
        st0 = contact_state(u, v0, p.radius)
        out = resolve_collision(st0, 0, 1, (0, 0), p)
        assert np.allclose(momentum(out, p), momentum(st0, p), atol=1e-12)
        assert math.isclose(energy(out, p), energy(st0, p),
                            rel_tol=1e-12, abs_tol=1e-12)
        back = resolve_collision(reverse_state(out), 0, 1, (0, 0), p)
        assert np.allclose(back.v, -st0.v, atol=1e-12)


class TestSimulate:
    def test_first_event_kinematics(self):
        p = SystemParams(masses=(1.0, 1.0), radius=0.05)
        traj = simulate(head_on(), 3.0, p)
        assert traj.n_events >= 1
        assert math.isclose(traj.ev_t[0], 2.5, abs_tol=1e-9)
        assert tuple(traj.ev_image[0]) == (0, 0)

    def test_bouncer_period(self):
        state = PhaseState(q=[[0.25, 0.5], [0.75, 0.5]],
                           v=[[0.5, 0.0], [-0.5, 0.0]])
        traj = simulate(state, 10.0, P2)
        assert math.isclose(traj.ev_t[0], 0.3, abs_tol=1e-9)
        gaps = np.diff(traj.ev_t)
        assert np.allclose(gaps, 0.6, atol=1e-9)

    def test_collisionless_tracks(self):
        c = 1.0 / math.sqrt(2)
        state = PhaseState(q=[[0.25, 0.0], [0.75, 0.0]],
                           v=[[0.0, c], [0.0, -c]])
        traj = simulate(state, 50.0, P2)
        assert traj.n_events == 0

    def test_determinism(self):
        state = sample_state(3, P3)
        a = simulate(state, 20.0, P3)
        b = simulate(state, 20.0, P3)
        assert np.array_equal(a.ev_t, b.ev_t)
        assert np.array_equal(a.ev_u, b.ev_u)
        assert np.array_equal(a.final.q, b.final.q)
        assert np.array_equal(a.final.v, b.final.v)

    def test_conservation_long_run(self):
        state = sample_state(5, P3)
        traj = simulate(state, 200.0, P3)
        assert traj.n_events > 100
        assert traj.max_energy_drift <= 1e-12
        assert traj.max_momentum_drift <= 1e-12

    def test_no_overlap_along_orbit(self):
        state = sample_state(9, P3)
        traj = simulate(state, 10.0, P3)
        for t in np.linspace(0.0, 10.0, 97):
            gap, _ = min_gap(traj.state_at(t), P3)
            assert gap >= 2 * P3.radius - 1e-9

    def test_event_times_increasing(self):
        state = sample_state(11, P3)
        traj = simulate(state, 50.0, P3)
        assert np.all(np.diff(traj.ev_t) > 0)

    def test_max_events(self):
        state = sample_state(5, P3)
        traj = simulate(state, 1e6, P3, max_events=25)
        assert traj.n_events == 25 and traj.stopped_by_count

    def test_reversibility(self):
        state = sample_state(13, P3)
        fwd = simulate(state, 3.0, P3)
        back = simulate(reverse_state(fwd.final), 3.0, P3)
        rec = reverse_state(back.final)
        assert np.allclose(rec.q, state.q, atol=1e-9)
        assert np.allclose(rec.v, state.v, atol=1e-9)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_energy_momentum_invariants(self, seed):
        state = sample_state(seed, P3)
        traj = simulate(state, 5.0, P3)
        assert math.isclose(energy(traj.final, P3), energy(state, P3),
                            rel_tol=1e-10)
        assert np.allclose(momentum(traj.final, P3), momentum(state, P3),
                           atol=1e-10)
        gap, _ = min_gap(traj.final, P3)
        assert gap >= 2 * P3.radius - 1e-9

    def test_state_validated(self):
        bad = PhaseState(q=[[0.5, 0.5], [0.55, 0.5]], v=np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            simulate(bad, 1.0, P2)


class TestSymbolicSequence:
    def test_empty(self):
        c = 1.0 / math.sqrt(2)
        state = PhaseState(q=[[0.25, 0.0], [0.75, 0.0]],
                           v=[[0.0, c], [0.0, -c]])
        assert symbolic_sequence(simulate(state, 5.0, P2)) == ()

    def test_pairs_sorted(self):
        traj = simulate(sample_state(3, P3), 20.0, P3)
        seq = symbolic_sequence(traj)
        assert len(seq) > 0
        assert all(i < j for i, j in seq)


class TestEventLogRoundTrip:
    def test_jsonl(self, tmp_path):
        traj = simulate(sample_state(3, P3), 10.0, P3)
        path = tmp_path / "events.jsonl"
        write_events_jsonl(traj, path)
        rows = read_events_jsonl(path)
        assert len(rows) == traj.n_events
        assert all(row["t"] == traj.ev_t[k] for k, row in enumerate(rows))
