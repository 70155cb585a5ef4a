import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (ref_min_image, ref_pair_distance, ref_torus_delta,
                      ref_transverse_basis)
from hardtorus import geometry
from hardtorus.errors import FeasibilityError, ValidationError
from hardtorus.events import simulate
from hardtorus.geometry import (PhaseState, SystemParams, _pair_gaps, energy,
                                mass_inner, mass_norm, min_gap, momentum,
                                project_to_Z, reduced_space, sample_state,
                                transverse_basis, validate_params,
                                validate_state)
from hardtorus.rng import make_generator
from hardtorus.tangent import frame_for_event

P2 = SystemParams(masses=(1.0, 1.0), radius=0.1)
P3 = SystemParams(masses=(1.0, 2.0, 0.5), radius=0.1)

masses_st = st.lists(st.floats(0.1, 10.0), min_size=2, max_size=5)
vec_st = st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4)


class TestMassMetric:
    def test_unit_blocks(self):
        u = np.array([1.0, 0.0, 0.0, 1.0])
        assert mass_inner(u, u, P2) == 2.0

    def test_signed(self):
        p = SystemParams(masses=(2.0, 3.0), radius=0.1)
        u = np.array([1.0, 0.0, 1.0, 0.0])
        w = np.array([1.0, 0.0, -1.0, 0.0])
        assert mass_inner(u, w, p) == -1.0

    def test_zero(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        assert mass_inner(u, np.zeros(4), P2) == 0.0

    @given(masses_st, st.integers(0, 2 ** 32 - 1))
    def test_norm_positive_and_bilinear(self, masses, seed):
        p = SystemParams(masses=tuple(masses), radius=0.01)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(2 * p.n)
        w = rng.standard_normal(2 * p.n)
        a = rng.standard_normal()
        assert mass_norm(u, p) >= 0.0
        assert np.isclose(mass_inner(a * u, w, p), a * mass_inner(u, w, p))
        assert np.isclose(mass_inner(u + w, w, p),
                          mass_inner(u, w, p) + mass_inner(w, w, p))
        assert np.isclose(mass_norm(u, p) ** 2, mass_inner(u, u, p))


def frame_base_radius(masses, r):
    """Base radius of the overlap cylinder of two disks, as the collision
    frame of their first, head-on collision reads it."""
    p = SystemParams(masses=masses, radius=r)
    m0, m1 = p.masses
    state = PhaseState(q=[[0.25, 0.5], [0.75, 0.5]],
                       v=[[m1, 0.0], [-m0, 0.0]])
    return frame_for_event(simulate(state, 10.0, p, max_events=1), 0).base_radius


class TestCylinderRadius:
    def test_equal_unit_masses(self):
        assert math.isclose(frame_base_radius((1.0, 1.0), 0.1), 0.2 / math.sqrt(2))

    def test_one_three(self):
        assert math.isclose(frame_base_radius((1.0, 3.0), 0.1), 0.2 * math.sqrt(0.75))

    def test_equal_double_masses(self):
        assert math.isclose(frame_base_radius((2.0, 2.0), 0.1), 0.2)

    @given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.01, 0.2))
    def test_formula(self, mi, mj, r):
        assert math.isclose(frame_base_radius((mi, mj), r),
                            2 * r * math.sqrt(mi * mj / (mi + mj)))


class TestProjectToZ:
    def test_uniform_translation_killed(self):
        u = np.tile([0.3, -0.7], 3)
        assert np.allclose(project_to_Z(u, P3), 0.0)

    def test_mean_subtraction(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(project_to_Z(u, P2), [0.5, 0.0, -0.5, 0.0])

    @given(st.integers(0, 2 ** 32 - 1))
    def test_idempotent_zero_momentum(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(6)
        z = project_to_Z(u, P3)
        assert np.allclose(project_to_Z(z, P3), z)
        blocks = z.reshape(3, 2)
        assert np.allclose(P3.mass_array @ blocks, 0.0, atol=1e-12)


class TestMinImage:
    def test_wrap(self):
        out, lat = ref_min_image((0.6, 0.0))
        assert np.allclose(out, (-0.4, 0.0)) and tuple(lat) == (-1, 0)

    def test_tie_break(self):
        out, lat = ref_min_image((0.5, 0.5))
        assert np.allclose(out, (-0.5, -0.5)) and tuple(lat) == (-1, -1)

    def test_already_minimal(self):
        out, lat = ref_min_image((0.1, -0.2))
        assert np.allclose(out, (0.1, -0.2)) and tuple(lat) == (0, 0)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_minimality(self, dx, dy):
        out, lat = ref_min_image((dx, dy))
        assert np.allclose((dx + lat[0], dy + lat[1]), out)
        best = min(np.hypot(dx + kx, dy + ky)
                   for kx in range(-4, 5) for ky in range(-4, 5))
        assert np.hypot(*out) <= best + 1e-12

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            ref_min_image(np.zeros((3, 2)))


class TestReducedSpace:
    def test_dimension_and_orthonormality(self):
        red = reduced_space(P3)
        assert red.dimension == 4
        basis = red.basis
        gram = np.array([[mass_inner(basis[:, i], basis[:, j], P3)
                          for j in range(4)] for i in range(4)])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_basis_projection_is_project_to_Z(self):
        # the mass-orthonormal basis projects as B B^T M, which is the
        # mass-weighted mean subtraction of project_to_Z
        basis = reduced_space(P3).basis
        x = np.random.default_rng(3).standard_normal((2 * P3.n, 20))
        proj = basis @ ((basis.T * P3.mass_weights) @ x)
        want = np.column_stack([project_to_Z(col, P3) for col in x.T])
        assert np.allclose(proj, want, rtol=0.0, atol=1e-12)

    def test_transverse_basis(self):
        state = sample_state(0, P3)
        v = state.v.reshape(-1)
        basis = transverse_basis(v, P3)
        assert basis.shape == (6, 3)
        for col in basis.T:
            assert abs(mass_inner(col, v, P3)) < 1e-12
            assert np.allclose(P3.mass_array @ col.reshape(3, 2), 0.0,
                               atol=1e-12)
        gram = (basis.T * P3.mass_weights) @ basis
        assert np.allclose(gram, np.eye(3), rtol=0.0, atol=1e-14)
        # the projector form spans the same space: its mass projector
        # onto the span is the same matrix
        ref = ref_transverse_basis(v, P3)
        assert np.allclose(basis @ (basis.T * P3.mass_weights),
                           ref @ (ref.T * P3.mass_weights), rtol=0.0,
                           atol=1e-14)

    def test_transverse_basis_zero_velocity(self):
        with pytest.raises(ValidationError, match="at rest"):
            transverse_basis(np.zeros(6), P3)

    def test_transverse_basis_translation(self):
        # every disk moving alike has no part in Z, so no direction to
        # exclude: a 2(N-1) - 1 = 3 column basis cannot exist
        v = np.tile([0.3, 0.1], 3)
        with pytest.raises(ValidationError, match="pure translation"):
            transverse_basis(v, P3)
        # any part in Z above roundoff is enough
        basis = transverse_basis(v + 1e-6 * project_to_Z(np.arange(6.0), P3), P3)
        assert basis.shape == (6, 3)


class TestValidation:
    def test_ok(self):
        assert validate_params(P3).status == "ok"

    def test_crowded_warning(self):
        p = SystemParams(masses=(1.0,) * 6, radius=0.1)
        assert validate_params(p).status == "warning"

    def test_negative_mass(self):
        with pytest.raises(ValidationError):
            validate_params(SystemParams(masses=(1.0, -1.0), radius=0.1))

    def test_overlapping_state(self):
        state = PhaseState(q=[[0.5, 0.5], [0.55, 0.5]],
                           v=[[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            validate_state(state, P2)


class TestSampleState:
    def test_deterministic(self):
        a = sample_state(7, P3)
        b = sample_state(7, P3)
        assert np.array_equal(a.q, b.q) and np.array_equal(a.v, b.v)

    def test_streams_differ(self):
        a = sample_state(7, P3)
        b = sample_state(7, P3, stream=1)
        assert not np.array_equal(a.q, b.q)

    def test_shell(self):
        for seed in range(10):
            state = sample_state(seed, P3)
            assert abs(2.0 * energy(state, P3) - 1.0) <= 1e-12
            assert np.max(np.abs(momentum(state, P3))) <= 1e-12
            assert min_gap(state, P3)[0] > 2 * P3.radius

    def test_infeasible(self, monkeypatch):
        monkeypatch.setattr(geometry, "_SAMPLE_TRIES", 200)
        with pytest.raises(FeasibilityError, match="in 200 draws"):
            sample_state(0, SystemParams(masses=(1.0, 1.0), radius=0.45))


def sample_state_reference(seed, params, *, stream=0, max_tries=10000):
    """The sampler with one ``ref_torus_delta`` call per pair and draw."""
    rng = make_generator(seed, stream)
    two_r = 2.0 * params.radius
    for _ in range(max_tries):
        q = rng.random((params.n, 2))
        ok = True
        for i in range(params.n):
            for j in range(i + 1, params.n):
                d, _ = ref_torus_delta(q[i], q[j])
                if np.hypot(d[0], d[1]) <= two_r:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            break
    else:
        raise FeasibilityError("no admissible configuration")
    while True:
        v = rng.standard_normal((params.n, 2)) / np.sqrt(params.mass_array)[:, None]
        v = project_to_Z(v, params)
        norm = math.sqrt(float(np.sum(params.mass_array[:, None] * v**2)))
        if norm > 1e-8:
            break
    return PhaseState(q, v / norm)


def min_gap_reference(state, params):
    """Smallest ``ref_pair_distance`` over a double loop; first pair on ties."""
    best, pair = math.inf, (0, 1)
    for i in range(params.n):
        for j in range(i + 1, params.n):
            d = ref_pair_distance(state, i, j)
            if d < best:
                best, pair = d, (i, j)
    return best, pair


class TestSamplerIdentity:
    @pytest.mark.parametrize("stream", [0, 3])
    @pytest.mark.parametrize("n, radius", [(2, 0.2), (3, 0.1), (5, 0.1),
                                           (8, 0.08), (16, 0.04), (32, 0.02)])
    def test_matches_per_pair_reference(self, n, radius, stream):
        params = SystemParams(masses=tuple(1.0 + 0.1 * k for k in range(n)),
                              radius=radius)
        for seed in range(20):
            a = sample_state(seed, params, stream=stream)
            b = sample_state_reference(seed, params, stream=stream)
            assert np.array_equal(a.q, b.q) and np.array_equal(a.v, b.v), seed

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_min_gap_matches_double_loop(self, n):
        # a dyadic radius makes the seam contacts below exact
        params = SystemParams(masses=(1.0,) * n, radius=2.0 ** -7)
        r = params.radius
        rng = np.random.default_rng(n)
        for _ in range(50):
            # positions on a coarse dyadic grid make exact ties common
            q = rng.integers(0, 16, size=(n, 2)) / 16.0
            state = PhaseState(q, np.zeros((n, 2)))
            assert min_gap(state, params) == min_gap_reference(state, params)
            q = rng.random((n, 2))
            state = PhaseState(q, np.zeros((n, 2)))
            assert min_gap(state, params) == min_gap_reference(state, params)
            # the edges of [0, 1), where a difference wraps or rounds
            q = rng.choice([0.0, 0.5, 1.0 - 2.0 ** -53], size=(n, 2))
            state = PhaseState(q, np.zeros((n, 2)))
            assert min_gap(state, params) == min_gap_reference(state, params)
            # disks 0 and 1 exactly 2r apart across the x = 0, then y = 0 seam
            for axis in (0, 1):
                q = rng.integers(0, 16, size=(n, 2)) / 16.0
                q[0, axis], q[1, axis] = r, 1.0 - r
                q[1, 1 - axis] = q[0, 1 - axis]
                state = PhaseState(q, np.zeros((n, 2)))
                assert min_gap(state, params) == min_gap_reference(state, params)
                gaps, iu, ju = _pair_gaps(state.q)
                assert gaps[0] == 2.0 * r
        # the pair indices are built once per N and shared read-only
        assert _pair_gaps(state.q)[1] is iu
        assert not iu.flags.writeable and not ju.flags.writeable

    def test_min_gap_tie_takes_first_pair(self):
        # (1, 2) and (0, 3) are both 0.25 apart, (0, 3) across the seam
        q = [[0.875, 0.5], [0.5, 0.0], [0.75, 0.0], [0.125, 0.5]]
        state = PhaseState(q, np.zeros((4, 2)))
        params = SystemParams(masses=(1.0,) * 4, radius=0.01)
        assert min_gap(state, params) == (0.25, (0, 3))
        assert min_gap_reference(state, params) == (0.25, (0, 3))


class TestTorusDistances:
    @given(st.integers(0, 2 ** 32 - 1))
    def test_torus_delta_antisymmetric(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random(2), rng.random(2)
        d1, _ = ref_torus_delta(a, b)
        d2, _ = ref_torus_delta(b, a)
        assert np.allclose(d1, -d2)
        assert np.hypot(*d1) <= math.hypot(0.5, 0.5) + 1e-12

    def test_pair_distance_matches_delta(self):
        state = sample_state(1, P3)
        for i in range(3):
            for j in range(i + 1, 3):
                d, _ = ref_torus_delta(state.q[i], state.q[j])
                assert np.isclose(ref_pair_distance(state, i, j), np.hypot(*d))
