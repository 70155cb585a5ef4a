import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import double_orbit, grazing_orbit
from hardtorus import events
from hardtorus.errors import ValidationError
from hardtorus.events import (_NEG_ROOT_SLACK, _SELF_GUARD, _earliest_root,
                              read_events_jsonl, resolve_collision,
                              reverse_state, simulate, symbolic_sequence,
                              write_events_jsonl)
from hardtorus.geometry import (PhaseState, SystemParams, energy, min_gap,
                                momentum, sample_state)
from hardtorus.serialize import canonical_json

P2 = SystemParams(masses=(1.0, 1.0), radius=0.1)
P3 = SystemParams(masses=(1.0, 2.0, 0.5), radius=0.1)
P32 = SystemParams(masses=tuple(1.0 + 0.05 * k for k in range(32)), radius=0.03)


def earliest_root_reference(dx, dy, wx, wy, horizon, two_r, guard):
    """The root solve over every image within |w|*h + 2r + 1.0.

    The same root arithmetic, clamp, guard and tie-break as
    ``events._earliest_root``; only the image enumeration is wider, by a
    whole lattice spacing.
    """
    a = wx * wx + wy * wy
    if a == 0.0 or horizon <= 0.0:
        return None
    four_r2 = two_r * two_r
    reach = math.sqrt(a) * horizon + two_r + 1.0
    reach2 = reach * reach
    best = None
    for lx in range(math.ceil(-reach - dx), math.floor(reach - dx) + 1):
        x = dx + lx
        xx = x * x
        if xx > reach2:
            continue
        for ly in range(math.ceil(-reach - dy), math.floor(reach - dy) + 1):
            y = dy + ly
            rr = xx + y * y
            if rr > reach2:
                continue
            b = x * wx + y * wy
            if b >= 0.0:
                continue
            c = rr - four_r2
            disc = b * b - a * c
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            t0 = c / (sq - b)
            slope = b + a * t0
            if slope != 0.0:
                f = (x + wx * t0) ** 2 + (y + wy * t0) ** 2 - four_r2
                t0 -= f / (2.0 * slope)
            if t0 < 0.0:
                if t0 < -_NEG_ROOT_SLACK:
                    continue
                t0 = 0.0
            if t0 <= guard or t0 > horizon:
                continue
            if best is None or (t0, lx, ly) < (best[0], best[1], best[2]):
                best = (t0, lx, ly, disc)
    return best


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


    @pytest.mark.parametrize("params, t_max", [(P3, 200.0), (P32, 20.0)],
                             ids=["n3", "n32"])
    def test_orbit_matches_reference_root_solve(self, monkeypatch, params, t_max):
        state = sample_state(1, params)
        fast = simulate(state, t_max, params)
        monkeypatch.setattr(events, "_earliest_root", earliest_root_reference)
        ref = simulate(state, t_max, params)
        assert fast.n_events > 100
        for name in ("ev_t", "ev_pair", "ev_image", "ev_u", "ev_cosphi",
                     "ev_flags", "ev_q", "ev_v_pre", "ev_v_post"):
            assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
        assert np.array_equal(fast.final.q, ref.final.q)
        assert np.array_equal(fast.final.v, ref.final.v)

    @pytest.mark.parametrize("params, t_max", [(P3, 200.0), (P32, 20.0)],
                             ids=["n3", "n32"])
    def test_incoming_velocities_are_previous_outgoing(self, params, t_max):
        traj = simulate(sample_state(2, params), t_max, params)
        assert traj.n_events > 100
        assert np.array_equal(traj.ev_v_pre[0], traj.initial.v)
        assert np.array_equal(traj.ev_v_pre[1:], traj.ev_v_post[:-1])
        # each event changes exactly the colliding pair's velocities
        for k in range(traj.n_events):
            moved = np.flatnonzero(np.any(traj.ev_v_pre[k] != traj.ev_v_post[k], axis=1))
            assert set(moved) <= set(traj.ev_pair[k])

    def test_no_events_record_shape(self):
        c = 1.0 / math.sqrt(2)
        state = PhaseState(q=[[0.25, 0.0], [0.75, 0.0]],
                           v=[[0.0, c], [0.0, -c]])
        traj = simulate(state, 5.0, P2)
        assert traj.ev_v_pre.shape == traj.ev_v_post.shape == (0, 2, 2)


def _contact_case(px, py, wx, wy, t_c, lx, ly):
    """A lift (dx, dy) whose image (lx, ly) touches at time t_c from the
    contact point (px, py)."""
    return px - wx * t_c - lx, py - wy * t_c - ly


GUARDS = st.sampled_from([-1.0, 0.0, _SELF_GUARD])


class TestEarliestRoot:
    """The reachable-image solve returns what the wide enumeration does."""

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
           st.floats(-3, 3), st.floats(0, 2), st.floats(0.01, 0.5), GUARDS)
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_on_random_lifts(self, dx, dy, wx, wy, h, two_r,
                                               guard):
        args = (dx, dy, wx, wy, h, two_r, guard)
        assert _earliest_root(*args) == earliest_root_reference(*args)

    @given(st.floats(0, 2 * math.pi), st.floats(-3, 3), st.floats(-3, 3),
           st.floats(0.01, 1), st.floats(-2e-9, 1.2), st.integers(-3, 3),
           st.integers(-3, 3), st.floats(0.01, 0.5), GUARDS)
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_near_contacts(self, angle, wx, wy, h, frac,
                                             lx, ly, two_r, guard):
        # contacts spread over [-2e-9, 1.2*h]: clamped roots, roots near
        # the horizon and roots just beyond it
        px, py = two_r * math.cos(angle), two_r * math.sin(angle)
        dx, dy = _contact_case(px, py, wx, wy, frac * h, lx, ly)
        args = (dx, dy, wx, wy, h, two_r, guard)
        assert _earliest_root(*args) == earliest_root_reference(*args)

    def test_contact_at_zero_clamps(self):
        # overlapping by 1e-12 and approaching: the root at t = -1e-12
        # clamps to 0 when the guard admits it
        args = (0.25 - 1e-12, 0.0, -1.0, 0.0, 0.5, 0.25)
        hit = _earliest_root(*args, -1.0)
        assert hit[:3] == (0.0, 0, 0)
        assert hit == earliest_root_reference(*args, -1.0)
        for guard in (0.0, _SELF_GUARD):
            assert _earliest_root(*args, guard) == earliest_root_reference(*args, guard)
            assert _earliest_root(*args, guard) is None
        # a fast pair that touched 5e-10 ago, solved over a tiny horizon
        args = (0.25 - 1e4 * 5e-10, 0.0, -1e4, 0.0, 1e-12, 0.25, -1.0)
        assert _earliest_root(*args)[:3] == (0.0, 0, 0)
        assert _earliest_root(*args) == earliest_root_reference(*args)

    def test_grazing_pass(self):
        # the relative path runs tangent to the contact circle at t = 0.5
        args = (0.5, 0.25, -1.0, 0.0, 1.0, 0.25, 0.0)
        hit = _earliest_root(*args)
        assert hit is not None and hit[1:3] == (0, 0)
        assert math.isclose(hit[0], 0.5, abs_tol=1e-6) and hit[3] < 1e-12
        assert hit == earliest_root_reference(*args)

    def test_root_exactly_at_horizon(self):
        # |x| = |w|*h + 2r exactly: the image sits on the reach bound
        args = (0.5, 0.0, -1.0, 0.0)
        hit = _earliest_root(*args, 0.25, 0.25, 0.0)
        assert hit == (0.25, 0, 0, 0.0625)
        assert hit == earliest_root_reference(*args, 0.25, 0.25, 0.0)
        h = math.nextafter(0.25, 0.0)
        assert _earliest_root(*args, h, 0.25, 0.0) is None
        assert earliest_root_reference(*args, h, 0.25, 0.0) is None


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
        assert len(rows) == traj.n_events > 0
        assert all(row["t"] == traj.ev_t[k] for k, row in enumerate(rows))
        for k, row in enumerate(rows):
            i, j = traj.ev_pair[k]
            assert row["flag"] == "regular" and not traj.ev_flags[k]
            assert (row["i"], row["j"]) == (i, j)
            assert row["l"] == traj.ev_image[k].tolist()
            assert row["u"] == traj.ev_u[k].tolist()
            assert row["cos_phi"] == traj.ev_cosphi[k]
            assert row["v_i_pre"] == traj.ev_v_pre[k, i].tolist()
            assert row["v_j_pre"] == traj.ev_v_pre[k, j].tolist()
            assert row["v_i_post"] == traj.ev_v_post[k, i].tolist()
            assert row["v_j_post"] == traj.ev_v_post[k, j].tolist()
            assert len(row) == 11


def no_event_orbit():
    c = 1.0 / math.sqrt(2)
    state = PhaseState(q=[[0.25, 0.0], [0.75, 0.0]], v=[[0.0, c], [0.0, -c]])
    return simulate(state, 5.0, P2)


def events_jsonl_reference(traj) -> str:
    """The event log as the per-event record path wrote it: one
    dictionary per event through ``canonical_json``."""
    labels = {0: "regular", 1: "tangential", 2: "double", 3: "double"}
    lines = []
    for k in range(traj.n_events):
        i, j = (int(x) for x in traj.ev_pair[k])
        record = {
            "t": float(traj.ev_t[k]), "i": i, "j": j,
            "l": [int(traj.ev_image[k, 0]), int(traj.ev_image[k, 1])],
            "u": [float(traj.ev_u[k, 0]), float(traj.ev_u[k, 1])],
            "cos_phi": float(traj.ev_cosphi[k]),
            "flag": labels[int(traj.ev_flags[k])],
            "v_i_pre": list(tuple(traj.ev_v_pre[k, i])),
            "v_j_pre": list(tuple(traj.ev_v_pre[k, j])),
            "v_i_post": list(tuple(traj.ev_v_post[k, i])),
            "v_j_post": list(tuple(traj.ev_v_post[k, j])),
        }
        lines.append(canonical_json(record) + "\n")
    return "".join(lines)


class TestEventLogWriter:
    """write_events_jsonl writes what the per-event record path wrote."""

    @pytest.mark.parametrize("make, flags", [
        (grazing_orbit, {"tangential"}),
        (double_orbit, {"double"}),
        (lambda: simulate(sample_state(2, P32), 20.0, P32), set()),
        (no_event_orbit, None),
    ], ids=["n3_tangential", "n3_double", "n32", "no_events"])
    def test_matches_reference(self, tmp_path, make, flags):
        traj = make()
        path = tmp_path / "events.jsonl"
        write_events_jsonl(traj, path)
        data = path.read_bytes()
        assert data == events_jsonl_reference(traj).encode("utf-8")
        if flags is None:
            assert traj.n_events == 0 and data == b""
            return
        rows = read_events_jsonl(path)
        assert {row["flag"] for row in rows} == flags | {"regular"}


RECORD_FIELDS = ("ev_t", "ev_pair", "ev_image", "ev_u", "ev_cosphi",
                 "ev_flags", "ev_q", "ev_v_pre", "ev_v_post")


class TestRecordMemory:
    def test_shared_read_only_record(self):
        traj = simulate(sample_state(2, P3), 20.0, P3)
        assert traj.n_events > 0
        assert np.shares_memory(traj.ev_v_pre, traj.ev_v_post)
        for name in RECORD_FIELDS:
            arr = getattr(traj, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[...] = 0
        assert {f.name for f in dataclasses.fields(traj)
                if f.name.startswith("ev_")} == set(RECORD_FIELDS)

    def test_simulate_peak_memory(self):
        # the record is the only O(kN) allocation that outlives the loop;
        # the peak while simulating stays within 3x its size, counting
        # the velocity rows that ev_v_pre and ev_v_post share once
        state = sample_state(1, P32)
        tracemalloc.start()
        try:
            traj = simulate(state, 20.0, P32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.n_events > 100
        record = (sum(getattr(traj, name).nbytes for name in RECORD_FIELDS)
                  - traj.ev_v_pre.nbytes + traj.initial.v.nbytes)
        assert peak <= 3 * record, (peak, record)
