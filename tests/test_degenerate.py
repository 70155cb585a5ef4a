import json
import math

import numpy as np
import pytest
from conftest import (ref_components, ref_degeneracy_report, ref_in_L,
                      ref_parallel_audit)
from hypothesis import given, settings
from hypothesis import strategies as st

from hardtorus import degenerate
from hardtorus.degenerate import (RADIUS_MATCH_TOL, LatticeDirection,
                                  admissible_directions,
                                  degeneracy_report, degenerate_radius_check,
                                  in_L, perpendicular_speed)
from hardtorus.errors import ValidationError
from hardtorus.events import simulate
from hardtorus.geometry import PhaseState, SystemParams, sample_state

C = 1.0 / math.sqrt(2.0)
P2 = SystemParams(masses=(1.0, 1.0), radius=0.1)


def bouncing_member():
    """Vertical head-on pair in two disjoint vertical tubes."""
    return PhaseState(q=[[0.25, 0.0], [0.75, 0.0]],
                      v=[[0.0, C], [0.0, -C]])


def shared_member():
    """Vertical head-on pair in one shared tube."""
    return PhaseState(q=[[0.5, 0.2], [0.5, 0.7]], v=[[0.0, C], [0.0, -C]])


def brute_force_directions(r):
    bound = 1.0 / (4.0 * r)
    out = set()
    span = int(bound) + 1
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            if (a, b) == (0, 0) or math.gcd(abs(a), abs(b)) != 1:
                continue
            if a < 0 or (a == 0 and b < 0):
                a, b = -a, -b
            if math.hypot(a, b) <= bound:
                out.add((a, b))
    return out


class TestLatticeDirection:
    def test_norm(self):
        assert LatticeDirection(1, -2).norm == math.hypot(1, 2)
        assert LatticeDirection(1, -2).norm_sq == 5
        assert LatticeDirection(2, 1).width == 1.0 / math.hypot(2, 1)

    @pytest.mark.parametrize("bad", [(0, 0), (2, 2), (0, 2), (-1, 0), (0, -1)])
    def test_invalid_refused(self, bad):
        with pytest.raises(ValidationError):
            LatticeDirection(*bad)

    def test_from_vector_canonicalizes_sign(self):
        assert LatticeDirection.from_vector((-1, 2)).as_tuple() == (1, -2)
        assert LatticeDirection.from_vector((0, -1)).as_tuple() == (0, 1)

    def test_from_vector_keeps_integral_inputs(self):
        for l0 in ((1.0, 0.0), (np.int64(1), np.int32(0)), (-1, 0),
                   np.array([-1.0, 0.0])):
            assert LatticeDirection.from_vector(l0).as_tuple() == (1, 0)

    def test_near_integers_refused_everywhere(self):
        # one integer rule for l0, the one the config and the cone
        # ratios apply: an entry 1e-10 off an integer is refused, never
        # rounded onto (1, 0)
        params = SystemParams(masses=(1.0, 1.0), radius=0.1)
        state = sample_state(1, params)
        l0 = (1 + 1e-10, 0)
        calls = (lambda: LatticeDirection.from_vector(l0),
                 lambda: degeneracy_report(state, params, l0=l0),
                 lambda: in_L(state, l0, params),
                 lambda: perpendicular_speed(state, l0, params),
                 lambda: degenerate_radius_check(params, l0))
        for call in calls:
            with pytest.raises(ValidationError, match="l0 entries must be integers"):
                call()
        for bad in ((math.inf, 0), (math.nan, 1), (0.5, 1)):
            with pytest.raises(ValidationError, match="l0 entries must be integers"):
                LatticeDirection.from_vector(bad)

    def test_from_vector_rejects_non_primitive(self):
        with pytest.raises(ValidationError):
            LatticeDirection.from_vector((2, 4))


class TestAdmissibleDirections:
    def test_frozen_r_01(self):
        got = [l.as_tuple() for l in admissible_directions(0.1)]
        assert got == [(0, 1), (1, 0), (1, -1), (1, 1), (1, -2), (1, 2),
                       (2, -1), (2, 1)]

    def test_large_radius_empty(self):
        assert admissible_directions(0.3) == ()

    @pytest.mark.parametrize("r", [0.05, 0.1, 0.2])
    def test_matches_brute_force(self, r):
        got = {l.as_tuple() for l in admissible_directions(r)}
        assert got == brute_force_directions(r)

    def test_sorted_and_unique(self):
        dirs = admissible_directions(0.05)
        norms = [l.norm for l in dirs]
        assert norms == sorted(norms)
        assert len({l.as_tuple() for l in dirs}) == len(dirs)


class TestMembership:
    def test_member_detected(self):
        member = bouncing_member()
        assert perpendicular_speed(member, (0, 1), P2) == 0.0
        assert in_L(member, (0, 1), P2)

    def test_wrong_direction_rejected(self):
        assert not in_L(bouncing_member(), (1, 0), P2)

    def test_generic_state_rejected(self):
        assert not in_L(sample_state(3, P2), (0, 1), P2, horizon=5.0)

    def test_membership_survives_long_horizon(self):
        member = bouncing_member()
        assert in_L(member, (0, 1), P2, horizon=100.0)
        assert in_L(shared_member(), (0, 1), P2, horizon=100.0)

    def test_diagonal_member(self):
        # head-on pair along (1, 1), offset perpendicular by half a width
        e = np.array([1.0, 1.0]) / math.sqrt(2.0)
        width = 1.0 / math.sqrt(2.0)
        perp = np.array([-e[1], e[0]]) * (0.5 * width)
        q0 = np.array([0.3, 0.3])
        state = PhaseState(q=[q0, (q0 + perp) % 1.0],
                           v=[e, -e])
        assert perpendicular_speed(state, (1, 1), P2) <= 1e-15
        assert in_L(state, (1, 1), P2, horizon=20.0)


def entry_for(state, l0, params, **kwargs):
    """The report entry of one direction."""
    return degeneracy_report(state, params, l0=l0, **kwargs)["entries"][0]


def audit_ok(tubes):
    return (tubes["coincide_ok"] and tubes["disjoint_ok"]
            and tubes["singleton_ok"])


class TestTubeAudit:
    def test_disjoint_tubes(self):
        tubes = entry_for(bouncing_member(), (0, 1), P2)["tubes"]
        assert len(tubes["components"]) == 2 and audit_ok(tubes)
        assert abs(tubes["tubes"][0]["offset"] - 0.75) < 1e-15
        assert abs(tubes["tubes"][1]["offset"] - 0.25) < 1e-15
        assert tubes["width"] == 1.0

    def test_shared_tube_single_component(self):
        tubes = entry_for(shared_member(), (0, 1), P2)["tubes"]
        assert len(tubes["components"]) == 1
        assert tubes["coincide_ok"] and audit_ok(tubes)

    def test_singletons_same_tube_equal_velocity(self):
        drift = PhaseState(q=[[0.5, 0.0], [0.5, 0.5]],
                           v=[[0.0, C], [0.0, C]])
        tubes = entry_for(drift, (0, 1), P2)["tubes"]
        assert len(tubes["components"]) == 2
        assert tubes["singleton_ok"] and audit_ok(tubes)

    def test_non_member_gets_no_audit(self):
        # tubes are only flow-invariant on the degenerate set
        entry = entry_for(sample_state(3, P2), (0, 1), P2, horizon=5.0)
        assert not entry["member"] and "tubes" not in entry

    def test_overlapping_tube_violation_detected(self):
        # a bouncing pair in one tube and a frozen disk whose tube sits
        # only 0.1 away: closer than the disk diameter, so the open
        # tubes intersect.  Such a state is a member only over a short
        # horizon (the sweeping pair eventually hits the frozen disk),
        # which is exactly when the audit must flag the intersection.
        p3 = SystemParams(masses=(1.0, 1.0, 1.0), radius=0.1)
        state = PhaseState(q=[[0.5, 0.2], [0.5, 0.7], [0.6, 0.0]],
                           v=[[0.0, C], [0.0, -C], [0.0, 0.0]])
        assert in_L(state, (0, 1), p3, horizon=0.25)
        entry = entry_for(state, (0, 1), p3, horizon=0.25)
        assert entry["member"]
        tubes = entry["tubes"]
        assert len(tubes["components"]) == 2
        assert not tubes["disjoint_ok"]
        assert not audit_ok(tubes)
        assert tubes["disjoint_violations"]

    def test_singleton_violation_detected(self):
        # two drifting singletons share overlapping tubes but move at
        # different velocities: neither disjointness nor the common
        # velocity escape applies
        state = PhaseState(q=[[0.5, 0.0], [0.55, 0.5]],
                           v=[[0.0, C], [0.0, -C]])
        tubes = entry_for(state, (0, 1), P2, horizon=0.2)["tubes"]
        assert not tubes["singleton_ok"]
        assert not audit_ok(tubes)


class TestDistance:
    def test_member_at_zero(self):
        assert entry_for(bouncing_member(), (0, 1), P2)["distance"] == 0.0

    def test_rotated_velocity_frozen_value(self):
        theta = 0.3
        member = bouncing_member()
        rot = PhaseState(q=member.q,
                         v=[[C * math.sin(theta), C * math.cos(theta)],
                            [0.0, -C]])
        d = entry_for(rot, (0, 1), P2, horizon=2.0)["distance"]
        assert abs(d - C * math.sin(theta)) < 1e-12

    def test_mass_scaling(self):
        theta = 0.3
        member = bouncing_member()
        rot = PhaseState(q=member.q,
                         v=[[C * math.sin(theta), C * math.cos(theta)],
                            [0.0, -C]])
        heavy = SystemParams(masses=(4.0, 1.0), radius=0.1)
        d = entry_for(rot, (0, 1), heavy, horizon=2.0)["distance"]
        assert abs(d - 2.0 * C * math.sin(theta)) < 1e-12

    def test_generic_orbits_bounded_away(self):
        vals = [entry_for(sample_state(50 + k, P2), (0, 1), P2,
                          horizon=2.0)["distance"] for k in range(5)]
        assert min(vals) > 1e-3


class TestRadiusFlags:
    def test_exact_length_and_width_match(self):
        p = SystemParams(masses=(1.0, 1.0), radius=0.25)
        fl = degenerate_radius_check(p, (1, 0), max_group=3)
        assert fl.length_matches == (2,)
        assert fl.width_matches == (2,)
        assert fl.degenerate

    def test_five_disk_chain(self):
        p = SystemParams(masses=(1.0,) * 5, radius=0.1)
        fl = degenerate_radius_check(p, (1, 0), max_group=6)
        assert 5 in fl.length_matches
        assert fl.width_matches == (5,)

    @pytest.mark.parametrize("r", [0.24, 0.26])
    def test_near_miss_radii_clean(self, r):
        p = SystemParams(masses=(1.0, 1.0), radius=r)
        assert not degenerate_radius_check(p, (1, 0), max_group=2).degenerate

    @given(st.integers(2, 9))
    @settings(max_examples=8)
    def test_constructed_match_always_fires(self, h):
        # radius chosen so h disks exactly span the direction's period
        l0 = LatticeDirection(1, 0)
        r = l0.norm / (2.0 * h)
        if r >= 0.5:
            return
        p = SystemParams(masses=(1.0,) * 2, radius=r)
        fl = degenerate_radius_check(p, (1, 0), max_group=h)
        assert h in fl.length_matches


    @pytest.mark.parametrize("l0", [(1, 0), (1, 1), (2, 1), (3, -2)])
    def test_flags_equal_the_full_loop(self, l0):
        # the search tests only the group sizes next to target / 2r; it
        # must flag what testing every size 1..max_group flags, on exact
        # matches, their neighbouring floats, plain radii, and a radius
        # so small that target / 2r overflows
        l = LatticeDirection.from_vector(l0)
        radii = [0.25, math.sqrt(2) / 4, 1e-310,
                 *np.linspace(0.01, 0.49, 25)]
        for h in range(1, 13):
            for target in (l.norm, l.width):
                base = target / (2.0 * h)
                radii += [base, math.nextafter(base, 0.0),
                          math.nextafter(base, 1.0), base * (1.0 + 1e-11)]
        for r in radii:
            p = SystemParams(masses=(1.0, 1.0), radius=r)
            for max_group in range(1, 13):
                fl = degenerate_radius_check(p, l0, max_group=max_group)
                for got, target in ((fl.length_matches, l.norm),
                                    (fl.width_matches, l.width)):
                    assert got == tuple(
                        h for h in range(1, max_group + 1)
                        if abs(2.0 * r * h - target) <= RADIUS_MATCH_TOL)

    def test_huge_max_group_returns_at_once(self):
        # testing every size up to 10**12 would not finish
        p = SystemParams(masses=(1.0, 1.0), radius=0.1)
        fl = degenerate_radius_check(p, (1, 0), max_group=10 ** 12)
        assert fl.length_matches == (5,) and fl.width_matches == (5,)


class TestReport:
    def test_member_report(self):
        rep = degeneracy_report(bouncing_member(), P2, l0=(0, 1),
                                horizon=10.0)
        entry = rep["entries"][0]
        assert entry["member"]
        assert entry["distance"] == 0.0
        assert "tubes" in entry
        assert len(rep["admissible_directions"]) == 8
        json.dumps(rep)

    def test_report_simulates_once(self, monkeypatch):
        calls = []
        original = degenerate.simulate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(degenerate, "simulate", counting)
        rep = degeneracy_report(sample_state(3, P2), P2, horizon=2.0)
        assert len(rep["entries"]) == 8
        assert len(calls) == 1

    def test_generic_report_scans_all_directions(self):
        rep = degeneracy_report(sample_state(3, P2), P2, horizon=2.0)
        assert len(rep["entries"]) == 8
        assert all(not e["member"] for e in rep["entries"])
        json.dumps(rep)


P3 = SystemParams(masses=(1.0, 1.3, 0.7), radius=0.1)   # analysis_n3
P4 = SystemParams(masses=(1.0, 1.1, 0.9, 1.2), radius=0.1)


def refuted_late_n2():
    """Starts parallel to (0, 1); the 1e-15 offset grows until the sixth
    collision turns a velocity off the line, after the graph connected
    at the first one."""
    return PhaseState(q=[[0.5, 0.2], [0.5 + 1e-15, 0.7]],
                      v=[[0.0, C], [0.0, -C]])


def refuted_late_n3():
    """Three disks on one vertical line, one of them 1e-14 off it: the
    graph connects at the third collision, (0, 1) is refuted at the
    twelfth."""
    return PhaseState(q=[[0.5, 0.1], [0.5 + 1e-14, 0.4], [0.5, 0.7]],
                      v=[[0.0, 0.6], [0.0, -0.5], [0.0, 0.2]])


def connected_late_n3():
    """A head-on pair sweeping its band slowly up to a disk at rest: the
    graph connects only at the 118th collision (t = 35.1)."""
    return PhaseState(q=[[0.2, 0.5], [0.7, 0.5], [0.55, 0.05]],
                      v=[[1.0, 0.01], [-1.0, 0.01], [0.0, 0.0]])


def collisionless_n2():
    """Equal velocities off every lattice direction: no collision, so
    the graph never connects."""
    return PhaseState(q=[[0.25, 0.2], [0.75, 0.6]],
                      v=[[0.3, 0.4], [0.3, 0.4]])


SURVEY_CASES = (
    [(f"n3-seed{s}", lambda s=s: sample_state(s, P3), P3) for s in range(1, 41)]
    + [(f"n2-seed{s}", lambda s=s: sample_state(s, P2), P2) for s in (1, 2, 3)]
    + [(f"n4-seed{s}", lambda s=s: sample_state(s, P4), P4) for s in (1, 2, 3)]
    + [("bouncing-member", bouncing_member, P2),
       ("shared-member", shared_member, P2),
       ("refuted-late-n2", refuted_late_n2, P2),
       ("refuted-late-n3", refuted_late_n3, P3),
       ("connected-late-n3", connected_late_n3, P3),
       ("collisionless", collisionless_n2, P2)])


def canonical(report):
    return json.dumps(report, sort_keys=True)


class TestSettledSurvey:
    """The survey stops simulating once its answer is settled; every
    answer must equal that of the full-horizon survey."""

    @pytest.mark.parametrize("name, make, params", SURVEY_CASES,
                             ids=[c[0] for c in SURVEY_CASES])
    def test_report_equals_full_horizon(self, name, make, params):
        state = make()
        assert (canonical(degeneracy_report(state, params))
                == canonical(ref_degeneracy_report(state, params)))
        for l0 in ((0, 1), (2, -1)):
            assert (canonical(degeneracy_report(state, params, l0=l0))
                    == canonical(ref_degeneracy_report(state, params, l0=l0)))
        for l in admissible_directions(params.radius):
            assert in_L(state, l, params) == ref_in_L(state, l, params)

    def test_cases_exercise_the_settle_rule(self):
        # the constructed cases sit where a one-sided rule goes wrong:
        # connected while (0, 1) still reads parallel, and refuted
        # while the graph is still split, both past the first cap
        for make, params in ((refuted_late_n2, P2), (refuted_late_n3, P3)):
            full = ref_degeneracy_report(make(), params, l0=(0, 1))
            assert not full["entries"][0]["member"]
            cap = degenerate._SETTLE_EVENTS_PER_DISK * (params.n - 1)
            prefix = simulate(make(), 100.0, params, max_events=cap)
            assert len(ref_components(prefix)[0]) == 1
            assert ref_parallel_audit(make(), LatticeDirection(0, 1), params,
                                      prefix)
        cap = degenerate._SETTLE_EVENTS_PER_DISK * (P3.n - 1)
        prefix = simulate(connected_late_n3(), 100.0, P3, max_events=cap)
        assert len(ref_components(prefix)[0]) == 2
        assert simulate(collisionless_n2(), 100.0, P2).n_events == 0

    @pytest.mark.parametrize("survey, capped", [
        (lambda state: degeneracy_report(state, P2, l0=(0, 1))[
            "entries"][0]["member"], True),
        (lambda state: in_L(state, (0, 1), P2), False)],
        ids=["report", "in_L"])
    @pytest.mark.parametrize("make, caps", [
        (bouncing_member, [4]),          # collisionless: the cap reaches
        (shared_member, [4, None])],     # the horizon, else one more call
        ids=["bouncing", "shared"])
    def test_member_makes_one_full_horizon_call(self, survey, capped, make,
                                                caps, monkeypatch):
        # a member is never refuted: the report's capped run is followed
        # by one uncapped call unless it reached the horizon, in_L makes
        # the uncapped call alone, and exactly one call reaches the horizon
        if not capped:
            caps = [None]
        calls = []
        original = degenerate.simulate

        def recording(*args, **kwargs):
            traj = original(*args, **kwargs)
            calls.append((kwargs.get("max_events"), traj))
            return traj

        monkeypatch.setattr(degenerate, "simulate", recording)
        assert survey(make())
        assert [cap for cap, _ in calls] == caps
        reached = [traj for _, traj in calls if not traj.stopped_by_count]
        assert len(reached) == 1 and reached[0] is calls[-1][1]
        assert reached[0].t_end == 100.0

    def test_generic_report_settles_in_one_call(self, monkeypatch):
        # at N = 3 the first cap covers the 2-4 events that refute and
        # connect an analysis_n3 orbit
        caps = []
        original = degenerate.simulate

        def recording(*args, **kwargs):
            caps.append(kwargs.get("max_events"))
            return original(*args, **kwargs)

        monkeypatch.setattr(degenerate, "simulate", recording)
        for seed in range(1, 41):
            caps.clear()
            degeneracy_report(sample_state(seed, P3), P3)
            assert caps == [8]

    def test_one_velocity_pass_per_direction_and_run(self, monkeypatch):
        # each engine run's velocity history is read once per target
        # direction: 8 passes on each settled analysis_n3 orbit, 320 for
        # the 40 of a benchmark pass
        passes, runs = [], []
        perp_norms, simulate_ = degenerate._perp_norms, degenerate.simulate

        def counting_perp(*args):
            passes.append(args[1])
            return perp_norms(*args)

        def counting_simulate(*args, **kwargs):
            runs.append(kwargs.get("max_events"))
            return simulate_(*args, **kwargs)

        monkeypatch.setattr(degenerate, "_perp_norms", counting_perp)
        monkeypatch.setattr(degenerate, "simulate", counting_simulate)
        total = 0
        for seed in range(1, 41):
            passes.clear()
            degeneracy_report(sample_state(seed, P3), P3)
            assert len(passes) == 8
            total += len(passes)
        assert total == 320
        for _, make, params in SURVEY_CASES:
            for l0 in (None, (0, 1)):
                passes.clear()
                runs.clear()
                rep = degeneracy_report(make(), params, l0=l0)
                targets = [tuple(e["direction"]) for e in rep["entries"]]
                assert len(passes) == len(targets) * len(runs)
                assert [l.as_tuple() for l in passes] == targets * len(runs)
