"""hardtorus benchmark: CLI workloads timed end to end, plus a traced run
that breaks the time down by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from
``src/``.  Workloads (see workloads.py and README.md): simulate_n32,
lyapunov_n3, analysis_n3.  One pass runs a workload's items once
through ``hardtorus.cli.run``; passes repeat, one at a time in this
process, until the next one would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
the median of eleven fresh-interpreter set-ups of one fixed config, the
median pass time, collisions per second, and peak resident memory.
Times are scaled to a reference host speed by a kernel that runs in a
child process of its own, set-ups after a bare interpreter start is
taken off them (hostspeed.py); the raw medians are printed beside them.  Pass k
runs the items of seed ``--seed + k * seeds_per_pass``, so the medians
cover many inputs.  ``--trace 1`` repeats the items of ``--seed`` in
every pass: half the time untraced, half traced.  It reports the
per-layer metrics of BENCHMARK.json: counts from the first traced pass, which
every later traced pass must repeat exactly, and times as medians over
the traced passes.

Every item's outputs are checked; a failed item is listed on stderr
with its subcommand, seed and message.  Report lines go to stdout, the
last line is one JSON object {"correct", "attempted", "failed",
"metrics"}, and a full record is written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import hostspeed
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 11
SETUP_SEED = 0              # every run probes the same config
PROBE_TIMEOUT_S = 120.0
MIN_PASSES = 3              # untraced run: at least a median of three
MIN_TRACED_PASSES = 2       # traced run: two passes for the count self-check
TIMED_UNITS = ("s", "us")   # per-layer metrics that are times, not counts
CALIBRATE_EVERY_S = 0.5     # re-time the host kernel at least this often


# -- environment -------------------------------------------------------------

def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": list(os.getloadavg()),
        "trace_overhead": None,
    }


# -- set-up ------------------------------------------------------------------

class SetupProbe:
    """Times fresh interpreters that import, parse and sample.

    One probe runs before each pass until SETUP_PROBES are taken, and the
    rest after the last pass, so the probes spread over the run.  Every
    probe of every run samples the first config of seed SETUP_SEED.  The
    rejection sampler's cost at N = 32 ranges from under 0.01 s to 1.4 s
    by seed, so probes of varying seeds would measure which draws a run
    got rather than the set-up code; seed 0 costs about 0.4 s there.
    """

    def __init__(self, workload: str, clock: hostspeed.HostClock):
        self.clock = clock
        self.cfg = OUT / "setup.cfg"
        self.cfg.write_text(workloads.items_for(workload, SETUP_SEED)[0]
                            .config_text, encoding="utf-8")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.start: list[float] = []     # hostspeed.START_COMMAND
        self.wall: list[float] = []
        self.times: list[float] = []     # at reference host speed

    def _timed(self, args) -> float:
        """Wall time of one child process from start to exit."""
        t0 = perf_counter()
        proc = subprocess.Popen(args, env=self.env, cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        # A blocking wait returns as the child exits.  Popen.wait(timeout)
        # polls instead, and would round each time up by as much as 50 ms,
        # so a watchdog thread enforces the time limit.
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = perf_counter() - t0
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        return wall

    def probe(self) -> None:
        if len(self.times) >= SETUP_PROBES:
            return
        before = self.clock.kernel_s()
        start = self._timed(hostspeed.START_COMMAND)
        wall = self._timed([sys.executable,
                            str(BENCH_DIR / "setup_probe.py"), str(self.cfg)])
        scale = hostspeed.scale(before, self.clock.kernel_s())
        self.start.append(start)
        self.wall.append(wall)
        self.times.append(hostspeed.START_REFERENCE_S
                          + (wall - start) * scale)


# -- passes ------------------------------------------------------------------

class Runner:
    """Runs passes over one workload's items and checks every item.

    With ``repeat`` every pass runs the items of the workload seed, so
    passes are exact repeats (the traced run).  Otherwise pass k runs
    the items of the next seeds, ``seed + k * seeds_per_pass``, so a run's
    median covers many draws of the inputs.
    """

    def __init__(self, workload: str, seed: int, clock: hostspeed.HostClock,
                 *, repeat: bool, layer_names=()):
        import hardtorus.cli
        import hardtorus.config
        self.workload, self.seed, self.repeat = workload, seed, repeat
        self.clock = clock
        self.layer_names = [n for n in layer_names if n != "trace.overhead"]
        self.cli = hardtorus.cli
        self.config = hardtorus.config
        self.work = OUT / "work"

    def items(self, k: int) -> list[workloads.Item]:
        stride = 0 if self.repeat else workloads.SEEDS_PER_PASS[self.workload]
        return workloads.items_for(self.workload, self.seed + k * stride)

    def run_pass(self, items, tracer=None) -> dict:
        """One pass; item times are kept raw and at reference host speed."""
        if tracer is not None:
            tracer.reset()
        rec = {"collisions": 0, "artifact_bytes": 0, "failures": [],
               "verdicts": Counter()}
        raw, scales = [], []
        kernel, t_kernel = self.clock.kernel_s(), perf_counter()
        for n, item in enumerate(items):
            out_dir = self.work / f"item{n}"
            t0 = perf_counter()
            try:
                # module attributes are looked up per call, so the traced
                # run sees its spans
                config = self.config.parse_config(item.config_text)
                data = self.cli.run(item.subcommand, config, out_dir).data
            except Exception as exc:  # an item that raises is a failed item
                data, problems = None, [f"{type(exc).__name__}: {exc}"]
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_item()
            raw.append((item.subcommand, dt))
            if data is not None:
                # malformed output (a missing file or key) fails the item
                try:
                    problems = workloads.check_item(item.subcommand, data,
                                                    out_dir)
                    collisions = workloads.collisions(data)
                    nbytes = sum(f.stat().st_size for f in out_dir.iterdir())
                    verdict = data["neutral"]["verdict"] \
                        if item.subcommand == "neutral" else None
                except Exception as exc:
                    problems = [f"output check raised "
                                f"{type(exc).__name__}: {exc}"]
                else:
                    rec["collisions"] += collisions
                    rec["artifact_bytes"] += nbytes
                    if verdict is not None:
                        rec["verdicts"][verdict] += 1
            if problems:
                rec["failures"].append({"subcommand": item.subcommand,
                                        "seed": item.seed,
                                        "message": "; ".join(problems)})
            shutil.rmtree(out_dir, ignore_errors=True)
            if (n == len(items) - 1
                    or perf_counter() - t_kernel >= CALIBRATE_EVERY_S):
                after = self.clock.kernel_s()
                scales += [hostspeed.scale(kernel, after)] * (len(raw)
                                                              - len(scales))
                kernel, t_kernel = after, perf_counter()
        rec["wall_s"] = sum(dt for _, dt in raw)
        rec["item_s"] = [(sub, dt * k) for (sub, dt), k in zip(raw, scales)]
        rec["run_s"] = sum(t for _, t in rec["item_s"])
        rec["host_scale"] = rec["run_s"] / rec["wall_s"]
        if tracer is not None:
            rec["layers"] = spans.layer_metrics(
                tracer, self.layer_names,
                artifact_bytes=rec["artifact_bytes"],
                verdicts=rec["verdicts"])
            rec["shares"] = spans.module_shares(tracer, rec["wall_s"])
            rec["span_calls"] = dict(tracer.calls)
        return rec

    def run_passes(self, budget_s: float, min_passes: int, tracer=None,
                   before_pass=None) -> list[dict]:
        """Repeat passes until the next one would overrun the budget."""
        passes, elapsed = [], []
        start = perf_counter()
        while True:
            if before_pass is not None:
                before_pass()
            t0 = perf_counter()
            passes.append(self.run_pass(self.items(len(passes)), tracer))
            elapsed.append(perf_counter() - t0)
            if (len(passes) >= min_passes and perf_counter() - start
                    + median(elapsed) > budget_s):
                return passes


# -- metrics -----------------------------------------------------------------

def end_to_end(passes, setup: SetupProbe) -> tuple[dict, dict]:
    """Declared end-to-end values (at reference host speed), and the
    figures reported beside them: raw wall times, the host's speed, and
    the analysis timings that exist on one workload only."""
    declared = {
        "setup_s": median(setup.times),
        "run_s": median([p["run_s"] for p in passes]),
        "events_per_s": median([p["collisions"] / p["run_s"]
                                 for p in passes]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    items = [it for p in passes for it in p["item_s"]]
    attempted = len(items)
    failed = sum(len(p["failures"]) for p in passes)
    extra = {"failed_ratio": (failed / attempted, "ratio"),
             "items": (attempted, "count"),
             "run_wall_s": (median([p["wall_s"] for p in passes]), "s"),
             "setup_wall_s": (median(setup.wall), "s"),
             "host_scale": (median([p["host_scale"] for p in passes]),
                            "ratio")}
    if attempted >= 100:
        extra["item_s_p90"] = (quantiles([t for _, t in items], n=10)[-1],
                               "s")
    kinds = sorted({s for s, _ in items})
    if len(kinds) > 1:
        for kind in kinds:
            extra[f"{kind}_s_p50"] = (
                median([t for s, t in items if s == kind]), "s")
    return declared, extra


def run_traced(runner, args, names, units, errors):
    """Per-layer metrics: untraced passes, then traced passes."""
    half = args.seconds / 2.0
    plain = runner.run_passes(half, MIN_TRACED_PASSES)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = runner.run_passes(half, MIN_TRACED_PASSES, tracer)
    finally:
        tracer.uninstall()
    first = traced[0]
    for span in workloads.EXPECTED_SPANS[args.workload]:
        if not first["span_calls"].get(span):
            errors.append(f"expected span {span} recorded no calls on "
                          f"{args.workload}")
    metrics = {}
    for name in names:
        if name == "trace.overhead":
            metrics[name] = (median([p["run_s"] for p in traced])
                             / median([p["run_s"] for p in plain]) - 1.0)
            continue
        values = [p["layers"][name] for p in traced]
        if units[name] in TIMED_UNITS:
            metrics[name] = median(values)
            continue
        metrics[name] = values[0]
        if any(v != values[0] for v in values[1:]):
            errors.append(f"count {name} differs between traced passes at "
                          f"one seed: {values}")
    return metrics, plain + traced, first["shares"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hardtorus" / "__init__.py").is_file():
        print(f"error: no hardtorus sources under {SRC}; run from the root "
              f"of a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    errors: list[str] = []
    record = {"env": env}
    with hostspeed.HostClock() as clock:
        if args.trace == 0:
            runner = Runner(args.workload, args.seed, clock, repeat=False)
            setup = SetupProbe(args.workload, clock)
            passes = runner.run_passes(args.seconds, MIN_PASSES,
                                       before_pass=setup.probe)
            while len(setup.times) < SETUP_PROBES:
                setup.probe()
            record["setup_s"] = {"reference": setup.times,
                                 "wall": setup.wall, "start": setup.start}
            declared, extra = end_to_end(passes, setup)
            metrics = {m["name"]: declared[m["name"]]
                       for m in spec["end_to_end"]}
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            record["workload_only"] = extra
        else:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            runner = Runner(args.workload, args.seed, clock, repeat=True,
                            layer_names=names)
            metrics, passes, shares = run_traced(runner, args, names, units,
                                                 errors)
            env["trace_overhead"] = metrics["trace.overhead"]
            record["layer_shares"] = shares
            extra = {}
    attempted = sum(len(p["item_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures:
        print(f"FAILED item: subcommand={f['subcommand']} seed={f['seed']}: "
              f"{f['message']}", file=sys.stderr)
    for e in errors:
        print(f"ERROR: {e}", file=sys.stderr)
    shutil.rmtree(runner.work, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {len(passes)}; items attempted {attempted}, "
          f"failed {len(failures)}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if "layer_shares" in record:
        for layer, share in record["layer_shares"].items():
            print(f"share {layer} = {100.0 * share:.1f} %")
    result = {"correct": not failures and not errors, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record.update(result=result, failures=failures, errors=errors,
                  passes=[{k: p[k] for k in ("run_s", "wall_s", "host_scale",
                                             "collisions")}
                          for p in passes])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True, default=str),
                  encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
