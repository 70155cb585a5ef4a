import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from conftest import (assert_values_close, clean_segments, contact_traj,
                      fd_check_window, grazing_orbit, ref_propagate_normal,
                      ref_propagate_tangent, ref_scatter_pre,
                      ref_tangent_map, stalled_copy, table_orbit)

from hardtorus import tangent
from hardtorus.errors import (NumericalFailureError, SingularSegmentError,
                              TangentialFrameError)
from hardtorus.events import TrajectorySegment, simulate
from hardtorus.geometry import (PhaseState, SystemParams, mass_norm,
                                reduced_space, sample_state, transverse_basis)
from hardtorus.hyperbolic import q_evolution_audit
from hardtorus.rng import make_generator
from hardtorus.tangent import (NormalVector, TangentVector, _apply_event,
                               _carry, _table, frame_for_event,
                               propagate_normal, propagate_tangent, q_of,
                               reverse_normal, transport_between)

P2 = SystemParams(masses=(1.0, 1.0), radius=0.1)
P3 = SystemParams(masses=(1.0, 2.0, 0.5), radius=0.1)
P3M = SystemParams(masses=(1.0, 1.3, 0.7), radius=0.1)


def eventful(seed=3, params=P3, t=8.0):
    traj = simulate(sample_state(seed, params), t, params)
    assert traj.n_events >= 3 and not traj.singular
    return traj


def resting(t=3.0):
    """Collisionless two-disk segment: every flight is free."""
    traj = simulate(PhaseState(q=[[0.25, 0.5], [0.75, 0.5]],
                               v=np.zeros((2, 2))), t, P2)
    assert traj.n_events == 0
    return traj


@functools.lru_cache(maxsize=None)
def table_frames():
    """Frames of every unflagged event of the N = 2, 3, 5 and 8 table
    orbits."""
    return tuple(frame_for_event(traj, k)
                 for traj in map(table_orbit, (2, 3, 5, 8))
                 for k in range(traj.n_events) if not traj.ev_flags[k])


class TestCollisionFrame:
    def setup_method(self):
        self.traj = eventful()
        self.frames = [frame_for_event(self.traj, k)
                       for k in range(self.traj.n_events)]

    def test_slid_tangents_transverse(self):
        # the slid tangent is perp moved along u, and transverse to the
        # incoming relative velocity
        table = _table(self.traj)
        for k, f in enumerate(self.frames):
            t, v, u = table.slid[k], f.v_pre, table.u[k]
            w = v[2 * f.i: 2 * f.i + 2] - v[2 * f.j: 2 * f.j + 2]
            assert abs(t @ w) <= 1e-12 * np.linalg.norm(t) * np.linalg.norm(w)
            slide = t - table.perp[k]
            assert abs(u[0] * slide[1] - u[1] * slide[0]) \
                <= 1e-15 * np.linalg.norm(t)

    def test_base_radius_matches_cylinder(self):
        for f in self.frames:
            mi, mj = P3.masses[f.i], P3.masses[f.j]
            assert f.base_radius == 2.0 * P3.radius * math.sqrt(mi * mj / (mi + mj))

    def test_reflect_is_mass_isometry_and_involution(self):
        rng = np.random.default_rng(0)
        for f in self.frames:
            x = rng.standard_normal(2 * P3.n)
            rx = f.reflect(x)
            assert math.isclose(mass_norm(rx, P3), mass_norm(x, P3),
                                rel_tol=1e-12)
            assert np.allclose(f.reflect(rx), x, atol=1e-12)

    def test_reflect_reproduces_exchange_bitwise(self):
        for f in self.frames + list(table_frames()):
            assert np.array_equal(f.reflect(f.v_pre), f.v_post)

    def test_scatter_kills_own_velocity(self):
        # exact zeros: the flow direction crosses every collision
        # unscattered, which criterion 07's flow advance and the
        # Lyapunov flow exponent rely on
        for f in self.frames + list(table_frames()):
            assert not np.any(f.scatter_pre(f.v_pre))

    def test_scatter_is_rank_one_on_pair(self):
        # the term lives on rows i and j, along the slid tangent, with
        # zero total momentum, and vanishes on vectors whose pair
        # difference is zero
        rng = np.random.default_rng(1)
        for f in self.frames + list(table_frames()):
            n2 = f.v_pre.size
            i2, j2 = 2 * f.i, 2 * f.j
            others = np.setdiff1d(np.arange(n2), [i2, i2 + 1, j2, j2 + 1])
            x = rng.standard_normal((n2, 4))
            out, t = f.scatter_pre(x), f._table.slid[f._k]
            assert not np.any(out[others])
            assert np.abs(t[0] * out[i2 + 1] - t[1] * out[i2]).max() \
                <= 1e-14 * np.abs(out).max()
            assert np.allclose(f.mi * out[i2: i2 + 2],
                               -f.mj * out[j2: j2 + 2], rtol=1e-14, atol=0.0)
            flat = x.copy()
            flat[j2: j2 + 2] = flat[i2: i2 + 2]
            assert not np.any(f.scatter_pre(flat))

    def test_grazing_contact_refused(self):
        traj = grazing_orbit()
        k = int(np.flatnonzero(traj.ev_flags)[0])
        with pytest.raises(TangentialFrameError):
            frame_for_event(traj, k)


def event_by_event_frame(traj, k):
    """Reference: the frame data of event k evaluated for that event
    alone, with the scalar arithmetic frames used before the table."""
    params = traj.params
    i, j = int(traj.ev_pair[k, 0]), int(traj.ev_pair[k, 1])
    mi, mj = params.masses[i], params.masses[j]
    s = math.sqrt(1.0 / mi + 1.0 / mj)
    u = np.asarray(traj.ev_u[k], dtype=float)
    perp = np.array([-u[1], u[0]])

    def dot_nu(x):
        x = np.asarray(x, dtype=float).reshape(-1)
        d = x[2 * i: 2 * i + 2] - x[2 * j: 2 * j + 2]
        return (u[0] * d[0] + u[1] * d[1]) / s

    cos_pre = -float(dot_nu(traj.ev_v_pre[k]))
    cos_phi = float(dot_nu(traj.ev_v_post[k]))
    w = traj.ev_v_pre[k, i] - traj.ev_v_pre[k, j]
    return {"i": i, "j": j, "mi": mi, "mj": mj, "s": s,
            "base_radius": 2.0 * params.radius * math.sqrt(mi * mj / (mi + mj)),
            "cos_pre": cos_pre, "cos_phi": cos_phi, "u": u, "perp": perp,
            "slid": perp + u * ((w[0] * perp[0] + w[1] * perp[1])
                                / (s * cos_pre))}


class TestCollisionTable:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_frames_match_event_by_event_bitwise(self, n):
        traj = table_orbit(n)
        table = _table(traj)
        for k in range(traj.n_events):
            if traj.ev_flags[k]:
                continue
            f = frame_for_event(traj, k)
            for name, want in event_by_event_frame(traj, k).items():
                got = (getattr(table, name)[k] if name in ("u", "perp", "slid")
                       else getattr(f, name))
                assert type(got) is type(want), (k, name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (k, name)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_scatter_matches_projection_form(self, n):
        # the pair-local scattering against the projection-form oracle,
        # on flat vectors and stacks
        traj = table_orbit(n)
        rng = np.random.default_rng(n)
        for k in range(traj.n_events):
            if traj.ev_flags[k]:
                continue
            f = frame_for_event(traj, k)
            for x in (rng.standard_normal(2 * n), rng.standard_normal((2 * n, 3))):
                got, want = f.scatter_pre(x), ref_scatter_pre(f, x, traj.params)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), k

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_block_matches_apply_event(self, n):
        # the pair block on a scaled (4N, m) stack is _apply_event in
        # plain coordinates, and leaves every other row untouched
        traj = table_orbit(n)
        if n == 8:
            assert traj.n_events > tangent._TABLE_CHUNK
        scale = np.sqrt(traj.params.mass_weights)[:, None]
        n2 = 2 * n
        rng = np.random.default_rng(n)
        worst = 0.0
        for k in range(traj.n_events):
            if traj.ev_flags[k]:
                continue
            f = frame_for_event(traj, k)
            y = rng.standard_normal((2 * n2, 5))
            xq, xv = _apply_event(f, y[:n2] / scale, y[n2:] / scale)
            want = np.vstack([xq * scale, xv * scale])
            got = y.copy()
            got[f.rows] = f.block @ y[f.rows]
            others = np.setdiff1d(np.arange(2 * n2), f.rows)
            assert np.array_equal(got[others], y[others]), k
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
        assert worst <= 1e-13

    def test_tangency_refused_per_event(self):
        traj = simulate(sample_state(3, P3M), 20.0, P3M)
        assert "_collision_table" not in vars(traj)
        assert [f.name for f in dataclasses.fields(TrajectorySegment)] == [
            "initial", "final", "t_end", "params", "ev_t", "ev_pair",
            "ev_image", "ev_u", "ev_cosphi", "ev_flags", "ev_q", "ev_v_pre",
            "ev_v_post", "max_energy_drift", "max_momentum_drift",
            "stopped_by_count"]
        stalled = stalled_copy(traj, 5)
        # a window that ends before the stalled event builds the whole
        # table and still transports, bit for bit as on the original
        t_mid = 0.5 * float(traj.ev_t[4] + traj.ev_t[5])
        rng = np.random.default_rng(8)
        xq, xv = rng.standard_normal(6), rng.standard_normal(6)
        got = transport_between(stalled, xq, xv, 0.0, t_mid)
        want = transport_between(traj, xq, xv, 0.0, t_mid)
        assert "_collision_table" in vars(stalled)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # the stalled event's slice of pair blocks builds too, with the
        # stalled event masked rather than divided by
        assert np.isfinite(frame_for_event(stalled, 4).block).all()
        with pytest.raises(TangentialFrameError):
            frame_for_event(stalled, 5)
        with pytest.raises(TangentialFrameError):
            transport_between(stalled, xq, xv, 0.0, traj.t_end)


    def test_table_storage_is_read_only(self):
        # every frame of an event views the same table storage, so a
        # write through one frame must not reach the next
        traj = simulate(sample_state(1, P3M), 20.0, P3M)
        assert not traj.ev_flags[2]
        f = frame_for_event(traj, 2)
        names = ("v_pre", "v_post", "block", "rows")
        want = {name: np.array(getattr(f, name)) for name in names}
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(f, name)[0] = 99
        table = vars(traj)["_collision_table"]
        for arr in (table.scalars, table.u, table.perp, table.slid):
            with pytest.raises(ValueError, match="read-only"):
                arr[2, 0] = 99.0
        fresh = frame_for_event(traj, 2)
        for name in names:
            assert getattr(fresh, name).tobytes() == want[name].tobytes(), name
        assert (fresh.cos_pre, fresh.cos_phi) == (f.cos_pre, f.cos_phi)

    @pytest.mark.parametrize("n", [3, 8])
    def test_blocks_follow_their_slice(self, n):
        # one block stack per slice of events: a block read after its
        # slice's stack was replaced still equals a fresh read
        traj = table_orbit(n)
        ks = [k for k in range(traj.n_events) if not traj.ev_flags[k]]
        first = [frame_for_event(traj, k).block for k in ks]
        for k, block in zip(reversed(ks), reversed(first)):
            assert frame_for_event(traj, k).block.tobytes() == block.tobytes()


    def test_kernels_serve_stacks_column_by_column(self):
        # one code path serves a flat vector and a (2N, k) stack: each
        # stack column carries the bits of the flat call on that column
        rng = np.random.default_rng(12)
        events = 0
        for traj in analysis_orbits():
            for k in range(traj.n_events):
                f = frame_for_event(traj, k)
                x = rng.standard_normal((2 * traj.params.n, 3))
                for fn in (f.reflect, f.scatter_amplitude, f.scatter_pre):
                    cols = np.stack([fn(x[:, c]) for c in range(3)], axis=-1)
                    assert cols.tobytes() == fn(x).tobytes(), (k, fn.__name__)
                events += 1
        assert events > 800

    def test_frame_rows_follow_their_slice(self):
        # frames read their scalars from one slice of Python rows at a
        # time; walked forward and then backward across the slice
        # boundaries, every frame reads its own event's bits
        traj = simulate(sample_state(1, P3M), 500.0, P3M)
        assert traj.n_events > 2 * tangent._TABLE_CHUNK and not traj.singular
        table = tangent._table(traj)
        w_pre = table._relative(table.v_pre, np.arange(traj.n_events))
        walked = []
        for t_from, t_to in ((None, None), (traj.t_end, 0.0)):
            for _, _, k, f in tangent._walk(traj, t_from, t_to):
                if f is None:
                    continue
                walked.append(k)
                assert [f.i, f.j] == table.pair[k].tolist(), k
                got = np.array([f.mi, f.mj, f.s, f.base_radius,
                                f.cos_pre, f.cos_phi])
                assert got.tobytes() == table.scalars[k].tobytes(), k
                for mine, want in (((f._ux, f._uy), table.u),
                                   ((f._px, f._py), table.perp),
                                   ((f._tx, f._ty), table.slid),
                                   ((f._wx, f._wy), w_pre)):
                    assert np.array(mine).tobytes() == want[k].tobytes(), k
        n = traj.n_events
        assert walked == list(range(n)) + list(range(n - 1, -1, -1))


class TestPropagators:
    def test_free_flight(self):
        dv = np.array([0.1, -0.2, 0.3, 0.4])
        tau = propagate_tangent(resting(), TangentVector(np.zeros(4), dv),
                                [2.0])[0]
        assert np.array_equal(tau.dq, 2.0 * dv)
        assert np.array_equal(tau.dv, dv)

    def test_free_flight_semigroup(self):
        traj = resting()
        rng = np.random.default_rng(2)
        xq, xv = rng.standard_normal(4), rng.standard_normal(4)
        one = transport_between(traj, xq, xv, 0.0, 0.7 + 1.3)
        half = transport_between(traj, xq, xv, 0.0, 0.7)
        two = transport_between(traj, *half, 0.7, 0.7 + 1.3)
        assert np.allclose(one[0], two[0], atol=1e-15)
        assert np.array_equal(one[1], two[1])

    def test_backward_transport_refused(self):
        # vectors are carried forward only
        traj = eventful(seed=7, t=6.0)
        x = np.ones(6)
        with pytest.raises(ValueError, match="forward only"):
            transport_between(traj, x, x, traj.t_end, 0.0)
        with pytest.raises(ValueError, match="forward only"):
            transport_between(traj, x, x, 2.0, 2.0 - 1e-9)

    def test_times_are_required(self):
        traj = eventful()
        with pytest.raises(TypeError):
            propagate_tangent(traj, TangentVector(np.zeros(6), np.zeros(6)))

    def test_transport_composition(self):
        traj = eventful(seed=11, t=6.0)
        rng = np.random.default_rng(5)
        xq = rng.standard_normal(6)
        xv = rng.standard_normal(6)
        mid = 0.5 * traj.t_end
        aq, av = transport_between(traj, xq, xv, 0.0, mid)
        aq, av = transport_between(traj, aq, av, mid, traj.t_end)
        bq, bv = transport_between(traj, xq, xv, 0.0, traj.t_end)
        scale = max(np.abs(bq).max(), np.abs(bv).max())
        assert np.allclose(aq, bq, atol=1e-10 * scale)
        assert np.allclose(av, bv, atol=1e-10 * scale)

    def test_flow_direction_transports_bitwise(self):
        traj = eventful(seed=5, t=10.0)
        v0 = traj.initial.v.reshape(-1)
        out = propagate_tangent(
            traj, TangentVector(v0, np.zeros_like(v0)), [traj.t_end])[0]
        assert np.array_equal(out.dq, traj.final.v.reshape(-1))
        assert not np.any(out.dv)

    def test_times_must_be_sorted(self):
        traj = eventful()
        tau = TangentVector(np.zeros(6), np.zeros(6))
        with pytest.raises(ValueError, match="nondecreasing"):
            propagate_tangent(traj, tau, [2.0, 1.0])
        with pytest.raises(ValueError, match="span"):
            propagate_tangent(traj, tau, [traj.t_end + 1.0])

    def test_nan_walk_bounds_refused(self):
        # NaN is outside the span, as state_at has it, rather than a
        # silent NaN vector, a numerical failure or a bare IndexError
        traj = simulate(sample_state(1, P3M), 20.0, P3M)
        x = np.ones(6)
        for t_from, t_to in ((0.0, math.nan), (math.nan, 5.0)):
            with pytest.raises(ValueError, match="span"):
                transport_between(traj, x, x, t_from, t_to)
        tau = TangentVector(x, x)
        for times in ([1.0, math.nan], [math.nan, 2.0]):
            with pytest.raises(ValueError, match="finite"):
                propagate_tangent(traj, tau, times)

    def test_singular_segment_refused(self):
        traj = eventful()
        flags = np.array(traj.ev_flags)
        flags[0] = 1
        import dataclasses
        bad = dataclasses.replace(traj, ev_flags=flags)
        with pytest.raises(SingularSegmentError):
            propagate_tangent(bad, TangentVector(np.zeros(6), np.zeros(6)),
                              [bad.t_end])


def assert_names_event(err, traj, k=None):
    """The failure message names the event index, its time and pair."""
    msg = str(err.value)
    got = int(re.search(r"at event (\d+) ", msg).group(1))
    assert k is None or got == k
    i, j = traj.ev_pair[got]
    assert f"at event {got} (t = {float(traj.ev_t[got]):.17g}, " \
           f"pair ({i}, {j}))" in msg
    assert "non-finite" in msg


class TestNonFiniteTransport:
    def test_tangent_map_overflow_raises(self):
        # 1,115 events: a basis vector of Z, carried as (dq, 0), passes
        # the float range at event 430
        traj = simulate(sample_state(3, P3M), 800.0, P3M)
        assert traj.n_events == 1115 and not traj.singular
        dq = reduced_space(P3M).basis[:, 0]
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalFailureError) as err:
                propagate_tangent(traj, TangentVector(dq, np.zeros(6)),
                                  [traj.t_end])
        assert_names_event(err, traj, 430)

    def test_nan_input_refused_at_first_event(self):
        traj = eventful()
        bad = np.zeros(6)
        bad[0] = np.nan
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalFailureError) as err:
                transport_between(traj, bad, np.zeros(6), 0.0, traj.t_end)
            assert_names_event(err, traj, 0)
            with pytest.raises(NumericalFailureError) as err:
                propagate_tangent(traj, TangentVector(bad, np.zeros(6)),
                                  [traj.t_end])
            assert_names_event(err, traj, 0)
            with pytest.raises(NumericalFailureError) as err:
                propagate_normal(traj, NormalVector(bad, np.zeros(6)))
            assert_names_event(err, traj, 0)
            with pytest.raises(NumericalFailureError) as err:
                q_evolution_audit(traj, TangentVector(bad, np.zeros(6)))
            assert_names_event(err, traj, 0)


class TestTangentMap:
    """The end-to-end tangent map on Z + Z, as the reference walk
    ``ref_tangent_map`` builds it in the mass-orthonormal basis."""

    def test_unit_determinant(self):
        for seed in (3, 5, 7):
            matrix = ref_tangent_map(eventful(seed=seed, t=6.0))
            det = np.linalg.det(matrix)
            cond = np.linalg.cond(matrix)
            assert abs(abs(det) - 1.0) <= 1e-12 * cond + 1e-12

    def test_matrix_matches_transport(self):
        traj = eventful(seed=9, t=4.0)
        matrix = ref_tangent_map(traj)
        zb = reduced_space(P3).basis
        rng = np.random.default_rng(6)
        a = rng.standard_normal(zb.shape[1])
        b = rng.standard_normal(zb.shape[1])
        out = propagate_tangent(traj, TangentVector(zb @ a, zb @ b),
                                [traj.t_end])[0]
        proj = zb.T * traj.params.mass_weights
        expect = np.concatenate([proj @ out.dq, proj @ out.dv])
        got = matrix @ np.concatenate([a, b])
        assert np.allclose(got, expect, atol=1e-9 * max(1.0, np.abs(expect).max()))


def carry_orbit(case):
    """A table orbit (N = 2, 3, 5 or 8) or the orbit with an event at t = 0."""
    return contact_traj() if case == "contact" else table_orbit(case)


class TestCarryMatchesReference:
    """The forward carry reproduces the per-walk reference loops
    (tests/conftest.py): bit for bit per vector, and to roundoff the
    tangent map that the reference walks as one stack."""

    CASES = (2, 3, 5, 8, "contact")

    @pytest.mark.parametrize("case", CASES)
    def test_tangent_map(self, case):
        # a stacked walk multiplies through other BLAS kernels than a
        # vector's, so the columns agree to roundoff, not bit for bit
        traj = carry_orbit(case)
        params = traj.params
        zb = reduced_space(params).basis
        zero = np.zeros(2 * params.n)
        proj = zb.T * params.mass_weights
        taus = ([TangentVector(c, zero) for c in zb.T]
                + [TangentVector(zero, c) for c in zb.T])
        got = np.column_stack([
            np.concatenate([proj @ out.dq, proj @ out.dv])
            for out in (propagate_tangent(traj, tau, [traj.t_end])[0]
                        for tau in taus)])
        want = ref_tangent_map(traj)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", CASES)
    def test_propagate_tangent(self, case):
        traj = carry_orbit(case)
        n2 = 2 * traj.params.n
        rng = np.random.default_rng(n2)
        tau = TangentVector(rng.standard_normal(n2), rng.standard_normal(n2))
        # grid points and every third event time, whose stops sit on the
        # outgoing side
        times = np.sort(np.r_[np.linspace(0.0, traj.t_end, 33), traj.ev_t[::3]])
        got = propagate_tangent(traj, tau, times)
        want = ref_propagate_tangent(traj, tau, times)
        assert len(got) == len(want) == times.size
        for a, b in zip(got, want):
            assert a.dq.tobytes() == b.dq.tobytes()
            assert a.dv.tobytes() == b.dv.tobytes()


class TestFiniteDifferenceOracle:
    def test_certified_windows(self):
        errors = []
        seed = 0
        while len(errors) < 5 and seed < 60:
            err = fd_check_window(seed)
            if err is not None:
                errors.append(err)
            seed += 1
        assert len(errors) >= 3
        assert max(errors) <= 1e-5


class TestQForm:
    def test_frozen_values(self):
        u = np.array([0.3, -0.4, 0.1, 0.2])
        assert q_of(TangentVector(u, np.zeros(4)), P2) == 0.0
        assert math.isclose(q_of(TangentVector(u, u), P2),
                            mass_norm(u, P2) ** 2, rel_tol=1e-15)

    def test_rejects_other_types(self):
        with pytest.raises(ValueError, match="tangent or normal"):
            q_of(np.zeros(4), P2)

    def test_reverse_normal_flips_sign_exactly(self):
        rng = np.random.default_rng(7)
        n = NormalVector(rng.standard_normal(6), rng.standard_normal(6))
        assert q_of(reverse_normal(n), P3) == -q_of(n, P3)


class TestNormalTransport:
    def test_collisionless_drop_is_linear(self):
        c = 1.0 / math.sqrt(2)
        state = PhaseState(q=[[0.25, 0.0], [0.75, 0.0]],
                           v=[[0.0, c], [0.0, -c]])
        traj = simulate(state, 4.0, P2)
        assert traj.n_events == 0
        tb = transverse_basis(state.v, P2)
        z = tb @ np.array([0.7, 0.1, -0.2])[:tb.shape[1]]
        n0 = NormalVector(z, 0.3 * z)
        res = propagate_normal(traj, n0)
        expect = res.q_initial - traj.t_end * res.zz_initial
        assert math.isclose(res.final_q, expect, abs_tol=1e-12)

    def test_flight_drop_and_collision_monotonicity(self):
        traj = eventful(seed=13, t=6.0)
        tb = transverse_basis(traj.initial.v, P3)
        rng = np.random.default_rng(8)
        n0 = NormalVector(tb @ rng.standard_normal(tb.shape[1]),
                          tb @ rng.standard_normal(tb.shape[1]))
        res = propagate_normal(traj, n0)
        # free flight: the form drops by dt * |z|^2, exactly
        assert math.isclose(
            res.q_pre[0], res.q_initial - res.times[0] * res.zz_initial,
            abs_tol=1e-12)
        for k in range(len(res.times) - 1):
            dt = res.times[k + 1] - res.times[k]
            assert math.isclose(
                res.q_pre[k + 1], res.q_start[k] - dt * res.zz_start[k],
                abs_tol=1e-12)
        # collisions never increase the form
        assert np.all(res.q_post <= res.q_pre + 1e-12)

    def test_non_transverse_rejected(self):
        traj = eventful()
        v0 = traj.initial.v.reshape(-1)
        with pytest.raises(ValueError, match="transverse"):
            propagate_normal(traj, NormalVector(v0, np.zeros_like(v0)))

    def test_matches_outgoing_side_rule(self):
        # the tangent step on (w, -z) against the normal loop with its
        # own outgoing-side scattering, on criterion 04's orbits and
        # normal vectors
        rng = make_generator(9, 0)
        for traj in clean_segments(P3, 4.0, 20, min_events=2):
            tb = transverse_basis(traj.initial.v, P3)
            n0 = NormalVector(tb @ rng.standard_normal(tb.shape[1]),
                              tb @ rng.standard_normal(tb.shape[1]))
            assert_values_close(
                dataclasses.asdict(ref_propagate_normal(traj, n0)),
                dataclasses.asdict(propagate_normal(traj, n0)), rel=1e-12)

    def test_long_window_stays_finite(self):
        # the per-event renormalization keeps a long window finite
        traj = simulate(sample_state(3, P3), 200.0, P3)
        assert traj.n_events > 250 and not traj.singular
        tb = transverse_basis(traj.initial.v, P3)
        rng = np.random.default_rng(200)
        n0 = NormalVector(tb @ rng.standard_normal(tb.shape[1]),
                          tb @ rng.standard_normal(tb.shape[1]))
        got = dataclasses.asdict(propagate_normal(traj, n0))
        for name in ("q_pre", "q_post", "log_scale", "q_start", "zz_start"):
            assert np.isfinite(got[name]).all(), name
        assert math.isfinite(got["final_log_scale"]) \
            and got["final_log_scale"] > 100.0
        assert_values_close(dataclasses.asdict(ref_propagate_normal(traj, n0)),
                            got, rel=1e-11)


@functools.lru_cache(maxsize=None)
def analysis_orbits():
    """The nonsingular orbits of seeds 1-40 at N = 3, t_max 20, with the
    masses (1, 1.3, 0.7) and r = 0.1."""
    orbits = (simulate(sample_state(seed, P3M), 20.0, P3M)
              for seed in range(1, 41))
    return tuple(traj for traj in orbits if not traj.singular)


def omega(xi, eta, params):
    """Symplectic form <dq_xi, dv_eta> - <dq_eta, dv_xi>, mass metric."""
    mw = params.mass_weights
    return float((mw * xi[0]) @ eta[1] - (mw * eta[0]) @ xi[1])


class TestSymplectic:
    """The tangent map preserves the symplectic form exactly, so its
    roundoff-level drift bounds any error that breaks the symmetry of
    the scattering term."""

    def test_form_constant_along_carry(self):
        orbits = analysis_orbits()
        assert len(orbits) >= 35
        rng = np.random.default_rng(11)
        events = 0
        for traj in orbits:
            params = traj.params
            n2 = 2 * params.n
            xi0, eta0 = rng.standard_normal((2, 2, n2))
            w0 = omega(xi0, eta0, params)
            t_a, _, xi_q, xi_v, _ = _carry(traj, *xi0)
            _, _, eta_q, eta_v, _ = _carry(traj, *eta0)
            # row f is the start of flight f, after f collisions
            for f in range(t_a.size):
                xi, eta = (xi_q[f], xi_v[f]), (eta_q[f], eta_v[f])
                size = math.hypot(mass_norm(xi[0], params), mass_norm(xi[1], params)) \
                    * math.hypot(mass_norm(eta[0], params), mass_norm(eta[1], params))
                assert abs(omega(xi, eta, params) - w0) <= 1e-14 * size, (t_a[f], f)
            events += traj.n_events
        assert events > 800

    def test_pair_blocks_preserve_form(self):
        j = np.block([[np.zeros((4, 4)), np.eye(4)],
                      [-np.eye(4), np.zeros((4, 4))]])
        blocks = 0
        for traj in analysis_orbits():
            for k in range(traj.n_events):
                m = frame_for_event(traj, k).block
                assert np.abs(m.T @ j @ m - j).max() <= 1e-12, k
                blocks += 1
        assert blocks > 800
