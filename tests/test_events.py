import dataclasses
import decimal
import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (SYMMETRIES, boundary_orbit, double_orbit, grazing_orbit,
                      no_overlap_headroom, ref_decimal_events,
                      ref_resolve_collision, symmetry_image, table_orbit)
from hardtorus import events
from hardtorus.errors import (NumericalFailureError, StateCorruptionError,
                              ValidationError)
from hardtorus.events import (_NEG_ROOT_SLACK, _REACH_SLACK, _SELF_GUARD,
                              _earliest_root, _screen, reverse_state, simulate,
                              symbolic_sequence, write_events_jsonl)
from hardtorus.geometry import (PhaseState, SystemParams, energy, min_gap,
                                momentum, sample_state)
from hardtorus.serialize import canonical_json

P2 = SystemParams(masses=(1.0, 1.0), radius=0.1)
P3 = SystemParams(masses=(1.0, 2.0, 0.5), radius=0.1)
P5 = SystemParams(masses=tuple(1.0 + 0.05 * k for k in range(5)), radius=0.08)
P8 = SystemParams(masses=tuple(1.0 + 0.05 * k for k in range(8)), radius=0.06)
P32 = SystemParams(masses=tuple(1.0 + 0.05 * k for k in range(32)), radius=0.03)

RECORD_FIELDS = ("ev_t", "ev_pair", "ev_image", "ev_u", "ev_cosphi",
                 "ev_flags", "ev_q", "ev_v_pre", "ev_v_post")


def assert_same_orbit(a, b):
    """Every record field and the final state are bitwise equal."""
    for name in RECORD_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.final.q, b.final.q)
    assert np.array_equal(a.final.v, b.final.v)
    assert a.t_end == b.t_end


def earliest_root_reference(dx, dy, wx, wy, horizon, two_r, guard):
    """The root solve over every image within |w|*h + 2r + 1.0.

    The same root arithmetic, clamp and guard as ``events._earliest_root``
    over an image enumeration wider by a whole lattice spacing.  Returns
    (t, lx, ly, discriminant) of the earliest root, ties broken on the
    image, or None; the library returns the time alone.
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
            if sq != 0.0 and slope != 0.0:
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


def earliest_time_reference(*args):
    """The reference solve's earliest time, or None: all that
    ``events._earliest_root`` returns."""
    hit = earliest_root_reference(*args)
    return None if hit is None else hit[0]


def head_on():
    return PhaseState(q=[[0.2, 0.5], [0.8, 0.5]],
                      v=[[0.1, 0.0], [-0.1, 0.0]])


def contact_state(u, v, r):
    """Two disks touching along unit direction u (from disk 1 to disk 0)."""
    q0 = np.array([0.5, 0.5])
    return PhaseState(q=[q0, q0 - 2.0 * r * np.asarray(u, dtype=float)], v=v)


class TestElasticExchange:
    """The exchange rule, checked on the per-pair oracle
    ``ref_resolve_collision`` and, event by event, on the engine's own
    inline exchange."""

    @pytest.mark.parametrize("case", [2, 3, 5, 8, 32])
    def test_engine_matches_oracle_bitwise(self, case):
        if case == 32:
            traj = simulate(sample_state(1, P32), 5.0, P32)
        else:
            traj = table_orbit(case)
        assert traj.n_events >= 20
        for k in range(traj.n_events):
            i, j = traj.ev_pair[k].tolist()
            out = ref_resolve_collision(
                PhaseState(traj.ev_q[k], traj.ev_v_pre[k]), i, j,
                traj.ev_image[k], traj.params)
            assert out.v.tobytes() == traj.ev_v_post[k].tobytes(), k

    def test_equal_masses_swap(self):
        st0 = contact_state([1.0, 0.0], [[-0.5, 0.0], [0.5, 0.0]], P2.radius)
        out = ref_resolve_collision(st0, 0, 1, (0, 0), P2)
        assert np.allclose(out.v, [[0.5, 0.0], [-0.5, 0.0]])
        assert np.array_equal(out.q, st0.q)

    def test_one_three(self):
        p = SystemParams(masses=(1.0, 3.0), radius=0.1)
        st0 = contact_state([1.0, 0.0], [[-1.0, 0.0], [0.0, 0.0]], p.radius)
        out = ref_resolve_collision(st0, 0, 1, (0, 0), p)
        assert np.allclose(out.v, [[0.5, 0.0], [-0.5, 0.0]])

    def test_grazing_no_exchange(self):
        st0 = contact_state([1.0, 0.0], [[0.0, 0.3], [0.0, -0.2]], P2.radius)
        out = ref_resolve_collision(st0, 0, 1, (0, 0), P2)
        assert np.array_equal(out.v, st0.v)

    def test_separating_refused(self):
        st0 = contact_state([1.0, 0.0], [[0.5, 0.0], [-0.5, 0.0]], P2.radius)
        with pytest.raises(ValueError, match="separating"):
            ref_resolve_collision(st0, 0, 1, (0, 0), P2)

    def test_not_in_contact_refused(self):
        st0 = PhaseState(q=[[0.2, 0.5], [0.8, 0.5]], v=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not in contact"):
            ref_resolve_collision(st0, 0, 1, (0, 0), P2)

    def test_self_collision_refused(self):
        st0 = contact_state([1.0, 0.0], np.zeros((2, 2)), P2.radius)
        with pytest.raises(ValueError):
            ref_resolve_collision(st0, 0, 0, (0, 0), P2)

    @given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(-1, 1),
           st.floats(0.01, 2), st.floats(0, 2 * math.pi))
    @settings(max_examples=100)
    def test_one_dimensional_closed_form(self, m1, m2, u2, gap, angle):
        # oblique contact reduces to the 1-D elastic law along the normal
        u1 = u2 - gap
        p = SystemParams(masses=(m1, m2), radius=0.1)
        u = np.array([math.cos(angle), math.sin(angle)])
        st0 = contact_state(u, [u1 * u, u2 * u], p.radius)
        out = ref_resolve_collision(st0, 0, 1, (0, 0), p)
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
        out = ref_resolve_collision(st0, 0, 1, (0, 0), p)
        assert np.allclose(momentum(out, p), momentum(st0, p), atol=1e-12)
        assert math.isclose(energy(out, p), energy(st0, p),
                            rel_tol=1e-12, abs_tol=1e-12)
        back = ref_resolve_collision(reverse_state(out), 0, 1, (0, 0), p)
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

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, -1.0])
    def test_bad_t_max_refused(self, t_max):
        # a NaN horizon never ends the loop, and an infinite one only
        # ends on max_events
        with pytest.raises(ValueError, match="t_max must be finite"):
            simulate(sample_state(3, P3), t_max, P3, max_events=5)

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

    @pytest.mark.parametrize("seed", [5, 7])
    def test_capped_run_is_a_prefix(self, seed):
        # the cap leaves t_max and so the chunk schedule unchanged, so a
        # capped run is bit for bit the start of the full one; the
        # degeneracy survey reads capped runs in place of the full one
        full = simulate(sample_state(seed, P3), 100.0, P3)
        for cap in (1, 4, 8, 33):
            part = simulate(sample_state(seed, P3), 100.0, P3, max_events=cap)
            assert part.stopped_by_count and part.n_events == cap
            for field in ("ev_t", "ev_pair", "ev_image", "ev_u", "ev_cosphi",
                          "ev_flags", "ev_q", "ev_v_pre", "ev_v_post"):
                assert (getattr(part, field).tobytes()
                        == getattr(full, field)[:cap].tobytes()), field
            assert part.final.v.tobytes() == full.ev_v_post[cap - 1].tobytes()

    @pytest.mark.parametrize("max_events", [0, -3])
    def test_max_events_below_one_refused(self, max_events):
        # the count is checked after each resolved event, so a count
        # below 1 would still return one event
        with pytest.raises(ValueError, match="max_events must be at least 1"):
            simulate(sample_state(5, P3), 10.0, P3, max_events=max_events)

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


    @pytest.mark.parametrize("params, t_max", [
        (SystemParams(masses=(1.0, 1.3), radius=0.24), 200.0), (P3, 200.0),
        (P8, 40.0), (P32, 20.0)], ids=["n2_wide", "n3", "n8", "n32"])
    def test_image_is_the_nearest(self, params, t_max):
        # the contact image is -rint of the wrapped position difference
        traj = simulate(sample_state(1, params), t_max, params)
        assert traj.n_events > 100
        k = np.arange(traj.n_events)
        i, j = traj.ev_pair.T
        want = -np.rint(traj.ev_q[k, i] - traj.ev_q[k, j])
        assert np.array_equal(traj.ev_image, want)

    def test_refusals_name_the_event(self, monkeypatch):
        # every root at once: a pair far from contact fails the contact
        # check, a touching pair re-collides at one instant until the
        # cascade limit, and at speeds of 1e9 the momentum roundoff
        # exceeds the drift bound
        monkeypatch.setattr(events, "_earliest_root", lambda *args: 0.0)
        apart = PhaseState(q=[[0.3, 0.5], [0.7, 0.5]], v=[[0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(StateCorruptionError, match=re.escape(
                "contact off by 0.2 at event 0 (t = 0, pair (0, 1))")):
            simulate(apart, 1.0, P2)
        touching = SystemParams(masses=(1.0, 1.3), radius=0.125)
        for v, message in (
                ([[0.5, 0.1], [-0.25, 0.3]], re.escape(
                    "collision cascade of 66 simultaneous events at event 65 "
                    "(t = 0, pair (0, 1))")),
                ([[3e9, 0.3], [-2e9, 0.7]],
                 r"conservation drift \(energy \S+, momentum \S+\) "
                 r"at event \d+ \(t = 0, pair \(0, 1\)\)")):
            state = PhaseState(q=[[0.25, 0.5], [0.5, 0.5]], v=v)
            with pytest.raises(NumericalFailureError, match=message):
                simulate(state, 1.0, touching)

    @pytest.mark.parametrize("params, t_max", [(P3, 200.0), (P32, 20.0)],
                             ids=["n3", "n32"])
    def test_orbit_matches_reference_root_solve(self, monkeypatch, params, t_max):
        state = sample_state(1, params)
        fast = simulate(state, t_max, params)
        monkeypatch.setattr(events, "_earliest_root", earliest_time_reference)
        ref = simulate(state, t_max, params)
        assert fast.n_events > 100
        assert_same_orbit(fast, ref)

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
        assert _earliest_root(*args) == earliest_time_reference(*args)

    @given(st.floats(0, 2 * math.pi), st.floats(-3, 3), st.floats(-3, 3),
           st.floats(0.01, 1), st.floats(-2e-9, 1.2), st.integers(-3, 3),
           st.integers(-3, 3), st.floats(0.01, 0.5), GUARDS)
    @settings(max_examples=400, deadline=None)
    # an exact graze (discriminant 0) of image (-2, 1); see
    # test_exact_graze_keeps_tangency
    @example(angle=0.0, wx=0.0, wy=2.1731086932424866, h=0.06,
             frac=0.947688060589191, lx=-2, ly=1, two_r=0.01, guard=-1.0)
    def test_matches_reference_near_contacts(self, angle, wx, wy, h, frac,
                                             lx, ly, two_r, guard):
        # contacts spread over [-2e-9, 1.2*h]: clamped roots, roots near
        # the horizon and roots just beyond it
        px, py = two_r * math.cos(angle), two_r * math.sin(angle)
        dx, dy = _contact_case(px, py, wx, wy, frac * h, lx, ly)
        args = (dx, dy, wx, wy, h, two_r, guard)
        assert _earliest_root(*args) == earliest_time_reference(*args)

    def test_contact_at_zero_clamps(self):
        # overlapping by 1e-12 and approaching: the root at t = -1e-12
        # clamps to 0 when the guard admits it
        args = (0.25 - 1e-12, 0.0, -1.0, 0.0, 0.5, 0.25)
        assert earliest_root_reference(*args, -1.0)[:3] == (0.0, 0, 0)
        assert _earliest_root(*args, -1.0) == 0.0
        for guard in (0.0, _SELF_GUARD):
            assert earliest_time_reference(*args, guard) is None
            assert _earliest_root(*args, guard) is None
        # a fast pair that touched 5e-10 ago, solved over a tiny horizon
        args = (0.25 - 1e4 * 5e-10, 0.0, -1e4, 0.0, 1e-12, 0.25, -1.0)
        assert earliest_root_reference(*args)[:3] == (0.0, 0, 0)
        assert _earliest_root(*args) == 0.0

    def test_exact_graze_keeps_tangency(self):
        # the discriminant is exactly 0, so the slope is roundoff and a
        # polish step would move the root to t = 0.018, where the disks
        # are still about 0.08 apart; the tangency through image (-2, 1)
        # is the root
        args = (2.01, -1.123565749776909, 0.0, 2.1731086932424866, 0.06,
                0.01, -1.0)
        ref = earliest_root_reference(*args)
        assert ref[1:] == (-2, 1, 0.0)
        t = _earliest_root(*args)
        assert t == ref[0]
        assert math.isclose(t, 0.056861283635351416, rel_tol=1e-12)
        y = args[1] + 1 + args[3] * t
        assert abs(math.hypot(args[0] - 2, y) - 0.01) <= 1e-12

    def test_grazing_pass(self):
        # the relative path runs tangent to the contact circle at t = 0.5
        args = (0.5, 0.25, -1.0, 0.0, 1.0, 0.25, 0.0)
        ref = earliest_root_reference(*args)
        assert ref is not None and ref[1:3] == (0, 0) and ref[3] < 1e-12
        t = _earliest_root(*args)
        assert math.isclose(t, 0.5, abs_tol=1e-6)
        assert t == ref[0]

    def test_root_exactly_at_horizon(self):
        # |x| = |w|*h + 2r exactly: the image sits on the reach bound
        args = (0.5, 0.0, -1.0, 0.0)
        assert earliest_root_reference(*args, 0.25, 0.25, 0.0) == (0.25, 0, 0, 0.0625)
        assert _earliest_root(*args, 0.25, 0.25, 0.0) == 0.25
        h = math.nextafter(0.25, 0.0)
        assert _earliest_root(*args, h, 0.25, 0.0) is None
        assert earliest_root_reference(*args, h, 0.25, 0.0) is None


def screen_keeps(dx, dy, wx, wy, h, two_r, line=False):
    """_screen's verdict on one pair, with or without the line test."""
    return bool(_screen(np.array([complex(dx, dy)]), np.array([complex(wx, wy)]),
                        h, two_r, line)[0])


def both_screens_keep(*args):
    return screen_keeps(*args) and screen_keeps(*args, line=True)


class TestScreen:
    """The screen keeps every pair whose root solve finds a contact."""

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
           st.floats(-3, 3), st.floats(0, 2), st.floats(0.01, 0.5), GUARDS)
    @settings(max_examples=400, deadline=None)
    def test_keeps_every_root_on_random_lifts(self, dx, dy, wx, wy, h, two_r,
                                              guard):
        if _earliest_root(dx, dy, wx, wy, h, two_r, guard) is not None:
            assert both_screens_keep(dx, dy, wx, wy, h, two_r)

    @given(st.floats(-1e-3, 1e-3), st.floats(0.01, 3), st.floats(0, 2 * math.pi),
           st.floats(0.01, 1),
           st.one_of(st.floats(1 - 1e-6, 1 + 1e-6), st.floats(-2e-9, 1.2)),
           st.integers(-3, 3), st.integers(-3, 3), st.floats(0.01, 0.5), GUARDS)
    @settings(max_examples=400, deadline=None)
    def test_keeps_contacts_at_the_reach(self, tilt, speed, heading, h, frac,
                                         lx, ly, two_r, guard):
        # a contact point tilted slightly off head-on, reached at
        # frac * h: for frac near 1 the lift lies within roundoff of the
        # reach |w|*h + 2r, on either side
        wx, wy = speed * math.cos(heading), speed * math.sin(heading)
        px = -two_r * math.cos(heading + tilt)
        py = -two_r * math.sin(heading + tilt)
        dx, dy = _contact_case(px, py, wx, wy, frac * h, lx, ly)
        if _earliest_root(dx, dy, wx, wy, h, two_r, guard) is not None:
            assert both_screens_keep(dx, dy, wx, wy, h, two_r)

    @given(st.floats(-math.pi / 2, math.pi / 2), st.floats(0, 1),
           st.floats(0, 2 * math.pi), st.floats(0, 0.2), st.floats(-2e-9, 1.2),
           st.integers(-3, 3), st.integers(-3, 3), st.floats(0.01, 0.25),
           GUARDS)
    @settings(max_examples=400, deadline=None)
    def test_line_test_keeps_contacts_below_half_reach(self, tilt, speed,
                                                       heading, h, frac, lx, ly,
                                                       two_r, guard):
        # |w| <= 1, h <= 0.2 and 2r <= 0.25 keep the reach below 1/2,
        # where the line test applies; tilts up to a quarter turn put
        # the line anywhere from head-on to grazing
        wx, wy = speed * math.cos(heading), speed * math.sin(heading)
        px = -two_r * math.cos(heading + tilt)
        py = -two_r * math.sin(heading + tilt)
        dx, dy = _contact_case(px, py, wx, wy, frac * h, lx, ly)
        assert speed * h + two_r + _REACH_SLACK < 0.5
        if _earliest_root(dx, dy, wx, wy, h, two_r, guard) is not None:
            assert screen_keeps(dx, dy, wx, wy, h, two_r, line=True)

    def test_reach_edges(self):
        # head-on contact exactly at the horizon h = 1/8, |x| = |w|*h + 2r
        args = (-1.0, 0.0, 0.125, 0.25)
        assert earliest_root_reference(0.375, 0.0, *args, 0.0)[:3] == (0.125, 0, 0)
        assert _earliest_root(0.375, 0.0, *args, 0.0) == 0.125
        assert screen_keeps(0.375, 0.0, *args)
        # a lift on the solve's own reach bound is kept, one beyond it
        # by more than the margin is dropped
        assert screen_keeps(0.375 + _REACH_SLACK, 0.0, *args)
        assert not screen_keeps(0.375 + 2 * _REACH_SLACK, 0.0, *args)
        # the nearest image is what counts, whatever the lift
        assert screen_keeps(-2.625, 3.0, *args)
        assert not screen_keeps(-2.625 + 2 * _REACH_SLACK, 3.0, *args)
        # the line test, at a reach of 0.375: a line passing at exactly
        # 2r + _REACH_SLACK is kept, one beyond it by more than the
        # margin is dropped, though its image lies within the reach
        line = 0.25 + _REACH_SLACK
        assert screen_keeps(0.2, line, *args, line=True)
        assert screen_keeps(0.2, line + _REACH_SLACK, *args)
        assert not screen_keeps(0.2, line + _REACH_SLACK, *args, line=True)
        # at a reach of 1/2 or more the line test keeps every pair
        wide = (-1.0, 0.0, 0.25, 0.25)
        assert screen_keeps(0.2, 0.45, *wide, line=True)

    @pytest.mark.parametrize("params, t_max, min_pairs, screened", [
        (P3, 200.0, 1, True), (P5, 100.0, 1, True), (P32, 20.0, 10 ** 9, False),
        (P32, 250.0, 10 ** 9, False),
    ], ids=["n3_screened", "n5_screened", "n32_plain", "n32_whole_orbit"])
    def test_forced_path_matches_default(self, monkeypatch, params, t_max,
                                         min_pairs, screened):
        calls = []

        def counting_screen(*args, **kwargs):
            calls.append(1)
            return _screen(*args, **kwargs)

        monkeypatch.setattr(events, "_screen", counting_screen)
        state = sample_state(1, params)
        default = simulate(state, t_max, params)
        # the default path screens at N = 32 only
        assert bool(calls) is not screened
        calls.clear()
        monkeypatch.setattr(events, "_SCREEN_MIN_PAIRS", min_pairs)
        forced = simulate(state, t_max, params)
        assert bool(calls) is screened
        assert default.n_events > 100
        assert_same_orbit(default, forced)

    def test_solves_on_the_n32_orbit(self, monkeypatch):
        # the orbit of the simulate_n32 benchmark workload: a screen that
        # keeps more pairs than it should fails here by a count
        solves, roots = [], []

        def counting_root(*args):
            hit = _earliest_root(*args)
            solves.append(1)
            if hit is not None:
                roots.append(1)
            return hit

        monkeypatch.setattr(events, "_earliest_root", counting_root)
        traj = simulate(sample_state(1, P32), 250.0, P32)
        assert traj.n_events == 3007
        assert len(roots) == 4407
        assert len(solves) <= 21000


class TestNoOverlap:
    """The closed-form certificate holds along whole orbits."""

    @pytest.mark.parametrize("make", [
        lambda: simulate(sample_state(1, P3), 200.0, P3),
        lambda: simulate(sample_state(1, P8), 40.0, P8),
        lambda: simulate(sample_state(1, P32), 20.0, P32),
        grazing_orbit, double_orbit, boundary_orbit,
    ], ids=["n3", "n8", "n32", "n3_tangential", "n3_double", "n3_boundary"])
    def test_certificate(self, make):
        traj = make()
        # contacts touch at the events, so the headroom reaches zero
        assert no_overlap_headroom(traj) <= 1e-9

    def test_contact_at_chunk_boundary(self):
        # disk 0 grazes disk 1 at t = 1/2, where the first prediction
        # chunk ends, while disk 2 reaches disk 1 at that same instant
        traj = boundary_orbit()
        at_half = [tuple(p) for p, t in zip(traj.ev_pair.tolist(), traj.ev_t)
                   if t == 0.5]
        assert at_half == [(0, 1), (1, 2), (0, 1)]
        gap, _ = min_gap(traj.state_at(1.5), traj.params)
        assert gap >= 2 * traj.params.radius - 1e-9

    def test_certificate_detects_missed_contact(self):
        # the record up to t = 3/2 without the contact of (1, 2) at
        # t = 1/2: disks 1 and 2 pass through each other
        traj = boundary_orbit()
        cut = dataclasses.replace(traj, t_end=1.5, **{
            name: getattr(traj, name)[:1] for name in RECORD_FIELDS})
        with pytest.raises(AssertionError, match=r"pair \(1, 2\) overlaps"):
            no_overlap_headroom(cut)


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


def read_events_jsonl(path) -> list[dict]:
    """The event log's lines, each parsed as one JSON object."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


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

    @pytest.mark.parametrize("field", ["ev_t", "ev_u", "ev_v_post"])
    def test_non_finite_value_refused(self, tmp_path, field):
        traj = grazing_orbit()
        bad = getattr(traj, field).copy()
        # the last event's entry; for the velocities, those of its disk j
        bad[(-1, traj.ev_pair[-1, 1]) if field == "ev_v_post" else -1] = math.inf
        path = tmp_path / "events.jsonl"
        with pytest.raises(ValueError, match="non-finite value inf"):
            write_events_jsonl(dataclasses.replace(traj, **{field: bad}), path)
        assert not path.exists()


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


# The orbits of the covariance oracles: lyapunov_n3's parameters, an
# N = 8 system with unequal masses, and simulate_n32's parameters.
COVARIANCE_RUNS = {
    "n3": (SystemParams(masses=(1.0, 1.3, 0.7), radius=0.1), 1500.0),
    "n8": (SystemParams(masses=tuple(1.0 + 0.1 * k for k in range(8)),
                        radius=0.05), 200.0),
    "n32": (P32, 250.0),
}


@functools.lru_cache(maxsize=None)
def covariance_base(name):
    params, t_max = COVARIANCE_RUNS[name]
    state = sample_state(1, params)
    return state, params, t_max, simulate(state, t_max, params)


P3M = SystemParams(masses=(1.0, 1.3, 0.7), radius=0.1)
P8_REF = SystemParams(masses=tuple(1.0 + 0.1 * k for k in range(8)),
                      radius=0.05)


class TestDecimalReference:
    """The 60-digit decimal orbit (``ref_decimal_events``) against closed
    forms on hand orbits, and the float engine against it."""

    @staticmethod
    def dec(x):
        return decimal.Decimal(float(x))

    def test_head_on_pair(self):
        params = SystemParams(masses=(1.0, 3.0), radius=0.1)
        state = PhaseState(q=[[0.3, 0.5], [0.7, 0.5]],
                           v=[[1.0, 0.0], [-0.5, 0.0]])
        (t, pair, image, q, v), = ref_decimal_events(state, params, 1)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            d = self.dec
            # the gap 0.7 - 0.3 - 2r closes at the relative speed 1.5
            want_t = (d(0.7) - d(0.3) - 2 * d(0.1)) / d(1.5)
            assert abs(t - want_t) < d(1e-50)
            assert abs(q[0][0] - (d(0.3) + want_t)) < d(1e-50)
        assert pair == (0, 1) and image == (0, 0)
        # one-dimensional elastic exchange: (1 - 3) 1 + 2 * 3 * (-0.5)
        # over 4, and (3 - 1)(-0.5) + 2 * 1 over 4
        for got, want in zip((v[0][0], v[1][0], v[0][1], v[1][1]),
                             (-1.25, 0.25, 0.0, 0.0)):
            assert abs(got - self.dec(want)) < self.dec(1e-50)

    def test_pair_meeting_through_a_lattice_image(self):
        # disk 0 meets the (1, 1) image of disk 1 head-on along the
        # diagonal and crosses the corner of the torus first, so the
        # contact, read from the wrapped positions, is at image (0, 0)
        params = SystemParams(masses=(1.0, 2.0), radius=0.1)
        state = PhaseState(q=[[0.01, 0.01], [0.81, 0.81]],
                           v=[[-0.5, -0.5], [0.5, 0.5]])
        (t, pair, image, q, v), = ref_decimal_events(state, params, 1)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            d = self.dec
            # |x + w t| = sqrt(2) (x_c - t) = 2r, x_c = 0.01 - 0.81 + 1
            want_t = d(0.01) - d(0.81) + 1 - decimal.Decimal(2).sqrt() * d(0.1)
            assert abs(t - want_t) < d(1e-50)
            for c in (0, 1):
                assert abs(q[0][c] - (1 + d(0.01) - want_t / 2)) < d(1e-50)
                # 1-D exchange along the diagonal: 5/6 and -1/6
                assert abs(v[0][c] - decimal.Decimal(5) / 6) < d(1e-50)
                assert abs(v[1][c] + decimal.Decimal(1) / 6) < d(1e-50)
        assert pair == (0, 1) and image == (0, 0)
        traj = simulate(state, 0.2, params)
        assert traj.ev_pair[0].tolist() == [0, 1]
        assert traj.ev_image[0].tolist() == [0, 0]
        assert abs(traj.ev_t[0] - float(t)) <= 1e-15

    # at N = 3 the float orbit leaves the decimal one by 1e-9 at events
    # 8-12 (seeds 1-5), at N = 8 at events 19-26 (seeds 1-12)
    @pytest.mark.parametrize("params, seed, count",
                             [(P3M, s, 5) for s in range(1, 6)]
                             + [(P8_REF, s, 15) for s in range(1, 4)],
                             ids=[f"n3_seed{s}" for s in range(1, 6)]
                             + [f"n8_seed{s}" for s in range(1, 4)])
    def test_float_engine_follows_reference(self, params, seed, count):
        state = sample_state(seed, params)
        traj = simulate(state, 20.0, params)
        ref = ref_decimal_events(state, params, count)
        for k, (t, pair, image, _, _) in enumerate(ref):
            assert traj.ev_pair[k].tolist() == list(pair), k
            assert traj.ev_image[k].tolist() == list(image), k
            assert abs(traj.ev_t[k] - float(t)) <= 1e-9, k


class TestCovariance:
    """Whole orbits commute with the symmetries of the problem bit for
    bit: event times, mapped pairs and positions at contact.  Time
    scaling is checked at N = 3 only: the clamps of the chunk rule are
    absolute time constants, and at N = 8 and 32 they move the event
    times at roundoff."""

    @pytest.mark.parametrize("name, symmetry", [
        (name, symmetry) for name in COVARIANCE_RUNS
        for symmetry in SYMMETRIES
        if name == "n3" or not symmetry.startswith("scale")])
    def test_record_maps_bitwise(self, name, symmetry):
        state, params, t_max, traj = covariance_base(name)
        assert traj.n_events > 500
        (state2, params2, t_max2), record = symmetry_image(state, params,
                                                           t_max, symmetry)
        image = simulate(state2, t_max2, params2)
        assert image.n_events == traj.n_events
        for field, want, got in zip(("ev_t", "ev_pair", "ev_q"), record(traj),
                                    (image.ev_t, image.ev_pair, image.ev_q)):
            assert np.array_equal(want, got), field
