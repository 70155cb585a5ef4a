import json
import multiprocessing
import os
from collections import Counter

import numpy as np
import pytest

from hardtorus import cli, hyperbolic, tangent
from hardtorus.config import parse_config
from hardtorus.errors import NumericalFailureError
from hardtorus.events import simulate
from hardtorus.geometry import sample_state
from hardtorus.serialize import canonical_json

BASE = """\
[system]
masses = 1.0, 1.5
radius = 0.15

[run]
seed = 3
t_max = 6.0
"""

SCAN = """\
[system]
masses = 1.0, 1.0
radius = 0.1

[run]
seed = 1
t_max = 4.0

[analysis]
l0 = 1, 0

[scan]
radius_grid = 0.24, 0.25, 0.26
"""

ENSEMBLE = (BASE.replace("t_max = 6.0", "t_max = 30.0")
            + "\n[analysis]\nensemble = 3\n")

# No collision happens before t_max.
COLLISIONLESS = """\
[system]
masses = 1, 1.3, 0.7
radius = 0.1

[run]
seed = 1
t_max = 0.01
"""

# The segment ends 5e-7 after its 11th and last collision, inside the
# guard that keeps window ends off collision moments.
LATE_END = COLLISIONLESS.replace("t_max = 0.01", "t_max = 11.204321810272152")


def write_config(tmp_path, text=BASE, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(tmp_path, subcommand, text=BASE, out="out"):
    cfg = write_config(tmp_path, text)
    out_dir = tmp_path / out
    code = cli.main([subcommand, "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    return json.loads((out_dir / "summary.json").read_text())


class TestSubcommands:
    def test_simulate(self, tmp_path):
        summary = run_cli(tmp_path, "simulate")
        assert summary["subcommand"] == "simulate"
        assert summary["conservation"]["max_energy_drift"] <= 1e-9
        assert (tmp_path / "out" / "events.jsonl").exists()
        n_lines = len((tmp_path / "out" / "events.jsonl")
                      .read_text().splitlines())
        assert n_lines == summary["conservation"]["n_events"]
        assert summary["collision_rate"]["count"] == n_lines
        assert 0.0 < summary["conservation"]["min_cos_phi"] <= 1.0

    def test_neutral(self, tmp_path):
        summary = run_cli(tmp_path, "neutral")
        assert summary["neutral"]["dimension"] >= 1
        assert summary["neutral"]["verdict"] in ("sufficient",
                                                 "not_sufficient",
                                                 "undecidable")

    def test_lyapunov(self, tmp_path):
        text = BASE.replace("t_max = 6.0", "t_max = 60.0")
        summary = run_cli(tmp_path, "lyapunov", text)
        lyap = summary["lyapunov"]
        assert len(lyap["exponents"]) == 2
        assert lyap["exponents"][0] > 0.0

    def test_lyapunov_ensemble_seed_wraps(self, tmp_path):
        # member k walks with seed (seed + k) mod 2**64, so an ensemble
        # that starts on the largest seed runs instead of overflowing
        top = 2**64 - 1
        text = (COLLISIONLESS.replace("seed = 1", f"seed = {top}")
                .replace("t_max = 0.01", "t_max = 50")
                + "[analysis]\nensemble = 2\n")
        summary = run_cli(tmp_path, "lyapunov", text)
        assert len(summary["ensemble"]) == 2
        params = parse_config(text).params
        spec = hyperbolic.lyapunov_spectrum(
            sample_state(top, params, stream=1), 50.0, params, seed=0)
        want = hyperbolic.summary_dict(spectrum=spec)["lyapunov"]
        assert summary["ensemble"][1] == json.loads(canonical_json(want))

    def test_audit(self, tmp_path):
        summary = run_cli(tmp_path, "audit")
        assert summary["q_audit"]["q_monotone"]
        assert summary["expansion"]["ok"]
        assert summary["curvature"]["min_eig_min"] > 0.0
        assert (tmp_path / "out" / "series.csv").exists()

    def test_audit_runs_each_pass_once(self, tmp_path, monkeypatch):
        # the series reads the audit's rows, so the seed vector goes
        # through propagate_tangent once, for the expansion check
        calls = Counter()
        for name, modules in (("q_evolution_audit", (hyperbolic, cli)),
                              ("curvature_propagate", (hyperbolic, cli)),
                              ("propagate_tangent", (tangent, hyperbolic))):
            def counting(*args, _name=name, _fn=getattr(hyperbolic, name),
                         **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for module in modules:
                monkeypatch.setattr(module, name, counting)
        config = parse_config(BASE + "\n[analysis]\nl0 = 1, 0\n")
        cli.run("audit", config, tmp_path / "out")
        assert calls == {"q_evolution_audit": 1, "curvature_propagate": 1,
                         "propagate_tangent": 1}

    def test_degeneracy(self, tmp_path):
        summary = run_cli(tmp_path, "degeneracy")
        assert len(summary["degeneracy"]["entries"]) >= 1

    def test_scan_flags_degenerate_radius(self, tmp_path):
        summary = run_cli(tmp_path, "scan", SCAN)
        rows = summary["rows"]
        assert [row["radius"] for row in rows] == [0.24, 0.25, 0.26]
        flags = [row["radius_flags"]["degenerate"] for row in rows]
        assert flags == [False, True, False]
        assert all("error" not in row for row in rows)

    def test_scan_records_point_runtime_failure(self, tmp_path, monkeypatch):
        def drift(state, t_max, params, **kwargs):
            raise NumericalFailureError("conservation drift at event 7")

        monkeypatch.setattr(cli, "simulate", drift)
        text = SCAN.replace("0.24, 0.25, 0.26", "0.24")
        [row] = run_cli(tmp_path, "scan", text)["rows"]
        assert row["error"] == "conservation drift at event 7"
        assert row["radius"] == 0.24 and "radius_flags" in row
        assert "conservation" not in row


class TestDefaultNeutralWindow:
    def test_segment_ending_just_after_a_collision(self, tmp_path):
        summary = run_cli(tmp_path, "neutral", LATE_END)
        config = parse_config(LATE_END)
        traj = simulate(sample_state(config.seed, config.params),
                        config.t_max, config.params)
        assert summary["conservation"]["n_events"] == traj.n_events == 11
        assert summary["neutral"]["window"]["b"] < traj.ev_t[-1]


class TestCollisionless:
    @pytest.mark.parametrize("subcommand", ["simulate", "neutral", "audit"])
    def test_min_cos_phi_is_null(self, tmp_path, subcommand):
        conservation = run_cli(tmp_path, subcommand,
                               COLLISIONLESS)["conservation"]
        assert conservation["n_events"] == 0
        assert conservation["min_cos_phi"] is None

    def test_neutral_has_one_empty_advance_row_per_basis_vector(self,
                                                                tmp_path):
        neutral = run_cli(tmp_path, "neutral", COLLISIONLESS)["neutral"]
        assert neutral["dimension"] == 4
        assert neutral["advances_per_basis_vector"] == [[]] * 4

    def test_two_point_scan(self, tmp_path):
        text = COLLISIONLESS + "\n[scan]\nradius_grid = 0.1, 0.09\n"
        rows = run_cli(tmp_path, "scan", text)["rows"]
        assert len(rows) == 2
        for row in rows:
            assert "error" not in row
            assert row["conservation"]["n_events"] == 0
            assert row["conservation"]["min_cos_phi"] is None


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(out)]) == 0
            blobs.append(((out / "summary.json").read_bytes(),
                          (out / "events.jsonl").read_bytes()))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("subcommand", ["audit", "neutral", "degeneracy"])
    def test_analysis_rerun_byte_identical(self, tmp_path, subcommand):
        cfg = write_config(tmp_path, BASE + "\n[analysis]\nl0 = 1, 0\n")
        files = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main([subcommand, "--config", str(cfg),
                             "--out", str(out)]) == 0
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert "summary.json" in files[0]
        assert subcommand != "audit" or "series.csv" in files[0]
        assert files[0] == files[1]

    def test_scan_worker_count_invariant(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SCAN)
        out_multi = tmp_path / "multi"
        assert cli.main(["scan", "--config", str(cfg),
                         "--out", str(out_multi)]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        out_single = tmp_path / "single"
        assert cli.main(["scan", "--config", str(cfg),
                         "--out", str(out_single)]) == 0
        assert (out_multi / "summary.json").read_bytes() == \
            (out_single / "summary.json").read_bytes()

    def test_ensemble_worker_count_invariant(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, ENSEMBLE)
        out_multi = tmp_path / "multi"
        assert cli.main(["lyapunov", "--config", str(cfg),
                         "--out", str(out_multi)]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        out_single = tmp_path / "single"
        assert cli.main(["lyapunov", "--config", str(cfg),
                         "--out", str(out_single)]) == 0
        assert (out_multi / "summary.json").read_bytes() == \
            (out_single / "summary.json").read_bytes()

    def test_ensemble_member_zero_is_the_single_run(self, tmp_path):
        pair = run_cli(tmp_path, "lyapunov",
                       ENSEMBLE.replace("ensemble = 3", "ensemble = 2"),
                       out="pair")
        single = run_cli(tmp_path, "lyapunov",
                         ENSEMBLE.replace("ensemble = 3", "ensemble = 1"),
                         out="single")
        assert pair["ensemble"][0] == single["lyapunov"]

    def test_config_hash_tracks_content(self, tmp_path):
        s1 = run_cli(tmp_path, "simulate")
        s2 = run_cli(tmp_path, "simulate",
                     BASE.replace("seed = 3", "seed = 4"), out="out2")
        assert s1["config_hash"] != s2["config_hash"]


class TestExitCodes:
    def test_bad_config_is_two(self, tmp_path):
        cfg = write_config(tmp_path, "[system]\nmasses = 1.0\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2

    def test_non_finite_t_max_is_two_with_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("t_max = 6.0", "t_max = nan"))
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert "line 7: t_max expects a finite number" in capsys.readouterr().err

    def test_missing_file_is_two(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        assert cli.main(["simulate", "--config", str(missing)]) == 2

    def test_unwritable_output_is_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(taken)]) == 2
        assert "error: cannot write output: " in capsys.readouterr().err

    def test_unknown_subcommand_is_two(self, tmp_path, capsys):
        assert cli.main(["frobnicate", "--config", "x"]) == 2
        capsys.readouterr()

    def test_runtime_failure_is_three(self, tmp_path, monkeypatch):
        def boom(config, out_dir):
            raise RuntimeError("numerical failure")

        monkeypatch.setitem(cli._RUNNERS, "simulate", boom)
        cfg = write_config(tmp_path)
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 3

    def test_linalg_failure_is_three(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, yet it is a numerical failure
        def boom(config, out_dir):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(cli._RUNNERS, "simulate", boom)
        cfg = write_config(tmp_path)
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_env_out_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        target = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "ignored")]) == 0
        assert (target / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()


def set_lanes(monkeypatch, lanes):
    # this many usable CPUs on any host
    monkeypatch.setattr(os, "cpu_count", lambda: lanes)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(lanes)), raising=False)


# the fault is patched into this process, and only a forked worker
# inherits the patch
forked_workers = pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork",
    reason="workers are not forked on this platform")


def failing_members(monkeypatch, config_seed, members):
    real = cli.lyapunov_spectrum

    def spectrum(state, t_max, params, *, seed, **kwargs):
        k = seed - config_seed
        if k in members:
            raise NumericalFailureError(f"member {k} drifted")
        return real(state, t_max, params, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "lyapunov_spectrum", spectrum)


def counted(monkeypatch, name):
    """Patch cli.<name> to count the calls made in this process."""
    real, calls = getattr(cli, name), []

    def wrapper(*args, **kwargs):
        calls.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


def lane_config(subcommand, tasks):
    if subcommand == "lyapunov":
        return ENSEMBLE.replace("ensemble = 3", f"ensemble = {tasks}")
    radii = ", ".join(str(0.1 + 0.01 * k) for k in range(tasks))
    return BASE + f"\n[scan]\nradius_grid = {radii}\n"


class TestLanes:
    """Ensemble members and scan points run on the usable CPUs; results
    and errors come back as the plain loop would give them.  With two
    lanes, ENSEMBLE's member 0 runs in this process, member 1 in the
    lane's worker and member 2 in a worker of its own."""

    def test_one_usable_cpu_creates_no_pool(self, tmp_path, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a worker process was created")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "Process", no_process)
        text = COLLISIONLESS + "\n[scan]\nradius_grid = 0.1, 0.09\n"
        assert len(run_cli(tmp_path, "scan", text)["rows"]) == 2
        summary = run_cli(tmp_path, "lyapunov", ENSEMBLE, out="lyap")
        assert len(summary["ensemble"]) == 3

    @pytest.mark.parametrize("subcommand", ["lyapunov", "scan"])
    @pytest.mark.parametrize("tasks, lanes", [(3, 2), (5, 2), (4, 3)])
    def test_lanes_match_one_lane(self, tmp_path, monkeypatch, subcommand,
                                  tasks, lanes):
        # T = qL + r: this process runs the q tasks 0, L, ..., (q - 1)L,
        # and L - 1 lane workers and r partial-round workers run the rest
        text = lane_config(subcommand, tasks)
        inner = "lyapunov_spectrum" if subcommand == "lyapunov" else "simulate"
        set_lanes(monkeypatch, lanes)
        calls = counted(monkeypatch, inner)
        real_start, starts = multiprocessing.Process.start, []

        def start(proc):
            starts.append(proc)
            real_start(proc)

        monkeypatch.setattr(multiprocessing.Process, "start", start)
        run_cli(tmp_path, subcommand, text, out="lanes")
        assert calls == [os.getpid()] * (tasks // lanes)
        assert len(starts) == lanes - 1 + tasks % lanes
        assert multiprocessing.active_children() == []
        set_lanes(monkeypatch, 1)
        run_cli(tmp_path, subcommand, text, out="one")
        assert len(calls) == tasks // lanes + tasks
        assert (tmp_path / "lanes" / "summary.json").read_bytes() == \
            (tmp_path / "one" / "summary.json").read_bytes()

    @forked_workers
    def test_worker_lane_failure_is_three(self, tmp_path, monkeypatch,
                                          capsys):
        set_lanes(monkeypatch, 2)
        failing_members(monkeypatch, 3, {1})
        cfg = write_config(tmp_path, ENSEMBLE)
        assert cli.main(["lyapunov", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 3
        assert "numerical failure: member 1 drifted" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @forked_workers
    def test_lowest_failing_member_wins(self, tmp_path, monkeypatch):
        # members 1 and 2 fail, each in a worker of its own
        set_lanes(monkeypatch, 2)
        failing_members(monkeypatch, 3, {1, 2})
        with pytest.raises(NumericalFailureError, match="member 1 drifted"):
            cli.run("lyapunov", parse_config(ENSEMBLE), tmp_path / "out")
        assert multiprocessing.active_children() == []

    @forked_workers
    def test_partial_round_failure_is_raised(self, tmp_path, monkeypatch):
        set_lanes(monkeypatch, 2)
        failing_members(monkeypatch, 3, {2})
        with pytest.raises(NumericalFailureError, match="member 2 drifted"):
            cli.run("lyapunov", parse_config(ENSEMBLE), tmp_path / "out")
        assert multiprocessing.active_children() == []

    @forked_workers
    def test_dead_worker_is_three(self, tmp_path, monkeypatch, capsys):
        # member 2's worker dies without sending its result
        set_lanes(monkeypatch, 2)
        real, here = cli.lyapunov_spectrum, os.getpid()

        def spectrum(state, t_max, params, *, seed, **kwargs):
            if seed - 3 == 2 and os.getpid() != here:
                os._exit(9)
            return real(state, t_max, params, seed=seed, **kwargs)

        monkeypatch.setattr(cli, "lyapunov_spectrum", spectrum)
        cfg = write_config(tmp_path, ENSEMBLE)
        assert cli.main(["lyapunov", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 3
        assert ("numerical failure: the worker for task(s) 2 exited with "
                "code 9 before sending its results") in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_passing_run(self, tmp_path, monkeypatch):
        set_lanes(monkeypatch, 2)
        summary = run_cli(tmp_path, "lyapunov", ENSEMBLE)
        assert len(summary["ensemble"]) == 3
        assert multiprocessing.active_children() == []
