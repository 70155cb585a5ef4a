"""Command-line front end for reproducible experiments.

Usage:

    hardtorus {simulate|neutral|lyapunov|audit|degeneracy|scan}
              --config experiment.cfg [--out DIR]

Every subcommand reads one config file (grammar in config.py), writes
a canonical summary.json into the output directory, and exits 0 on
success, 2 on configuration or validation errors, 3 on numerical
failures.  simulate additionally writes events.jsonl, audit writes
series.csv.  The HARDTORUS_OUT environment variable overrides the
output directory and nothing else.  Identical configs produce byte-
identical summaries.  Lyapunov ensemble members and scan points run
on every CPU this process may use, in this process and in worker
processes started with multiprocessing, and are merged in member and
grid order, so the output does not depend on worker count.

The layers only some subcommands use (neutral, degenerate and
multiprocessing) are imported inside their runners, so a run loads
only what it calls.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, parse_config, serialize_config
from .errors import ConfigError
from .events import simulate, write_events_jsonl
from .geometry import (PhaseState, SystemParams, energy, momentum,
                       project_to_Z, sample_state, validate_params)
from .hyperbolic import (collision_rate, curvature_propagate, expansion_check,
                         hyperbolicity_series, lyapunov_spectrum,
                         q_evolution_audit, summary_dict, write_series_csv)
from .rng import make_generator
from .serialize import canonical_json
from .tangent import TangentVector

SUBCOMMANDS = ("simulate", "neutral", "lyapunov", "audit", "degeneracy",
               "scan")

OUT_ENV_VAR = "HARDTORUS_OUT"


@dataclass(frozen=True)
class RunSummary:
    """Summary of one subcommand run, serialized as summary.json."""

    subcommand: str
    config_text: str
    config_hash: str
    data: dict

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "config": self.config_text,
            "config_hash": self.config_hash,
            **self.data,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict()) + "\n"


def _conservation(traj) -> dict:
    # a collisionless orbit has no angle to report; its min_cos_phi of
    # inf would not serialize
    return {
        "n_events": traj.n_events,
        "t_end": traj.t_end,
        "max_energy_drift": traj.max_energy_drift,
        "max_momentum_drift": traj.max_momentum_drift,
        "min_cos_phi": traj.min_cos_phi if traj.n_events else None,
        "singular": traj.singular,
        "stopped_by_count": traj.stopped_by_count,
    }


def _state_dict(state: PhaseState, params: SystemParams) -> dict:
    return {
        "q": np.asarray(state.q, dtype=float).tolist(),
        "v": np.asarray(state.v, dtype=float).tolist(),
        "energy": energy(state, params),
        "momentum": list(momentum(state, params)),
    }


def _run_simulate(config: ExperimentConfig, out_dir: Path) -> dict:
    params = config.params
    state = sample_state(config.seed, params)
    traj = simulate(state, config.t_max, params)
    write_events_jsonl(traj, out_dir / "events.jsonl")
    rate = collision_rate(traj)
    return {
        "conservation": _conservation(traj),
        "initial_state": _state_dict(state, params),
        "final_state": _state_dict(traj.final, params),
        **summary_dict(rate=rate),
    }


def _run_neutral(config: ExperimentConfig, out_dir: Path) -> dict:
    from .neutral import neutral_report
    params = config.params
    state = sample_state(config.seed, params)
    traj = simulate(state, config.t_max, params)
    return {
        "conservation": _conservation(traj),
        "neutral": neutral_report(traj, params),
    }


def _run_share(fn, tasks) -> tuple:
    """fn over tasks in order up to the first failure: (results, error)."""
    results = []
    for task in tasks:
        try:
            results.append(fn(task))
        except Exception as exc:
            return results, exc
    return results, None


def _share_worker(fn, tasks, conn) -> None:
    conn.send(_run_share(fn, tasks))
    conn.close()


def _in_order(fn, tasks) -> list:
    """[fn(task) for task in tasks], spread over the usable CPUs.

    With L lanes and T = qL + r tasks, this process runs tasks 0, L,
    ..., (q - 1)L, so a profiler of this process still sees task 0.
    One worker process per further lane runs that lane's q tasks, and
    each of the r tasks of the last, partial round gets a worker of its
    own, so no lane idles through that round; at most 2L - 1 processes
    run at once.  Every worker starts before this process begins its
    share, and sends its results once, through a pipe, when it is done.
    Workers come from the default start method; where that is fork
    (Linux before Python 3.14) a worker starts without importing numpy
    again.  As in the plain loop, a failure raises the error of the
    lowest-index failing task.  A worker that dies without sending its
    results counts as a RuntimeError at its first task, naming its tasks
    and exit code.  Workers still running when the outcome is known are
    terminated, and every worker has exited on return.
    """
    cpus = os.cpu_count() or 1
    # the affinity mask (taskset, a container's cpuset) may allow fewer
    if hasattr(os, "sched_getaffinity"):
        cpus = min(cpus, len(os.sched_getaffinity(0)))
    lanes = min(len(tasks), cpus)
    if lanes <= 1:
        return [fn(task) for task in tasks]
    import multiprocessing
    full = len(tasks) // lanes * lanes
    shares = ([range(lane, full, lanes) for lane in range(1, lanes)]
              + [range(i, i + 1) for i in range(full, len(tasks))])
    workers = []
    try:
        for share in shares:
            receive, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_share_worker,
                args=(fn, [tasks[i] for i in share], send), daemon=True)
            with send:  # this process keeps only the receiving end
                proc.start()
            workers.append((share, receive, proc))
        done, failed = {}, {}

        def record(share, results, error):
            done.update(zip(share, results))
            if error is not None:
                failed[share[len(results)]] = error

        own = range(0, full, lanes)
        record(own, *_run_share(fn, [tasks[i] for i in own]))
        # workers are listed by first task, so task i's worker has been
        # heard from once every worker up to it has
        pending = iter(workers)
        results = []
        for i in range(len(tasks)):
            while i not in done and i not in failed:
                share, receive, proc = next(pending)
                try:
                    record(share, *receive.recv())
                except EOFError:
                    proc.join()
                    failed[share[0]] = RuntimeError(
                        f"the worker for task(s) "
                        f"{', '.join(map(str, share))} exited with code "
                        f"{proc.exitcode} before sending its results")
            if i in failed:
                raise failed[i]
            results.append(done[i])
        return results
    finally:
        for _, receive, proc in workers:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            receive.close()


def _lyapunov_member(task) -> dict:
    config, k = task
    params = config.params
    state = sample_state(config.seed, params, stream=k)
    spec = lyapunov_spectrum(state, config.t_max, params,
                             reorth_interval=config.reorth_interval,
                             seed=(config.seed + k) % 2**64)
    return summary_dict(spectrum=spec)["lyapunov"]


def _run_lyapunov(config: ExperimentConfig, out_dir: Path) -> dict:
    runs = _in_order(_lyapunov_member,
                     [(config, k) for k in range(config.ensemble)])
    data = {"lyapunov": runs[0], "ensemble": runs}
    if len(runs) > 1:
        tops = [run["exponents"][0] for run in runs]
        data["top_exponent_mean"] = float(np.mean(tops))
        data["top_exponent_std"] = float(np.std(tops, ddof=1))
    return data


def _audit_seed_vector(state: PhaseState, params: SystemParams,
                       config: ExperimentConfig) -> TangentVector:
    # dv = c0 dq puts the seed on the curvature cone boundary, so the
    # expansion check's premise Q(0) >= 0 holds by construction
    rng = make_generator(config.seed, 7)
    dq = project_to_Z(rng.standard_normal((params.n, 2)), params).reshape(-1)
    dq *= config.delta0 / np.linalg.norm(dq)
    return TangentVector(dq=dq, dv=config.c0 * dq)


def _run_audit(config: ExperimentConfig, out_dir: Path) -> dict:
    params = config.params
    state = sample_state(config.seed, params)
    traj = simulate(state, config.t_max, params)
    tau0 = _audit_seed_vector(state, params, config)
    audit = q_evolution_audit(traj, tau0)
    path = curvature_propagate(config.c0, traj)
    expansion = expansion_check(traj, tau0, config.c0)
    series = hyperbolicity_series(traj, audit, path=path, l0=config.l0)
    write_series_csv(out_dir / "series.csv", series)
    rate = collision_rate(traj)
    data = {
        "conservation": _conservation(traj),
        "q_audit": {
            "max_flight_residual": audit.max_flight_residual,
            "max_midpoint_residual": audit.max_midpoint_residual,
            "max_jump_defect": audit.max_jump_defect,
            "min_jump": audit.min_jump,
            "min_jump_relative": audit.min_jump_relative,
            "q_monotone": audit.q_monotone,
            "n_jumps": len(audit.jumps),
        },
        **summary_dict(rate=rate, expansion=expansion, curvature=path),
    }
    return data


def _run_degeneracy(config: ExperimentConfig, out_dir: Path) -> dict:
    from .degenerate import degeneracy_report
    params = config.params
    state = sample_state(config.seed, params)
    return {
        "degeneracy": degeneracy_report(state, params, l0=config.l0,
                                        horizon=config.horizon,
                                        max_group=config.max_group),
    }


def _scan_axes(config: ExperimentConfig):
    mass_rows = config.mass_grid or (config.masses,)
    radii = config.radius_grid or (config.radius,)
    return mass_rows, radii


def _scan_point(task) -> dict:
    from .degenerate import degenerate_radius_check
    config, index, masses, radius = task
    row: dict = {"index": index, "masses": list(masses), "radius": radius}
    try:
        point = replace(config, masses=masses, radius=radius)
        params = point.params
        row["status"] = validate_params(params).status
        if config.l0 is not None:
            flags = degenerate_radius_check(params, config.l0,
                                            max_group=config.max_group)
            row["radius_flags"] = flags.to_dict()
        state = sample_state(point.seed, params, stream=index)
        traj = simulate(state, point.t_max, params)
        rate = collision_rate(traj)
        row["conservation"] = _conservation(traj)
        row["collision_rate"] = summary_dict(rate=rate)["collision_rate"]
    # a numerical failure at one point (RuntimeError: drift, overlap) is
    # that point's result, like an invalid point, and not the scan's
    except (ValueError, RuntimeError) as exc:
        row["error"] = str(exc)
    return row


def _run_scan(config: ExperimentConfig, out_dir: Path) -> dict:
    mass_rows, radii = _scan_axes(config)
    tasks = [(config, idx, masses, radius)
             for idx, (masses, radius) in enumerate(product(mass_rows, radii))]
    return {
        "grid": {"mass_rows": [list(m) for m in mass_rows],
                 "radii": list(radii)},
        "rows": _in_order(_scan_point, tasks),
    }


_RUNNERS = {
    "simulate": _run_simulate,
    "neutral": _run_neutral,
    "lyapunov": _run_lyapunov,
    "audit": _run_audit,
    "degeneracy": _run_degeneracy,
    "scan": _run_scan,
}


def run(subcommand: str, config: ExperimentConfig,
        out_dir) -> RunSummary:
    """Run one subcommand, write its artifacts, return the summary."""
    if subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; expected one "
                          f"of {', '.join(SUBCOMMANDS)}")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    config_text = serialize_config(config)
    config_hash = hashlib.sha256(config_text.encode()).hexdigest()
    data = _RUNNERS[subcommand](config, out_path)
    summary = RunSummary(subcommand=subcommand, config_text=config_text,
                         config_hash=config_hash, data=data)
    (out_path / "summary.json").write_text(summary.to_json(),
                                           encoding="utf-8")
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardtorus",
        description="Hard-disk dynamics on the unit torus: simulation and "
                    "hyperbolicity analysis.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to the experiment config file")
        p.add_argument("--out", default="out",
                       help=f"output directory (overridden by "
                            f"${OUT_ENV_VAR})")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    out_dir = os.environ.get(OUT_ENV_VAR) or args.out
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        run(args.subcommand, config, out_dir)
    # LinAlgError subclasses ValueError but is a numerical failure, so
    # this clause comes first
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
