"""Span recording for the traced benchmark run.

The tracer wraps every public function of the hardtorus layer modules,
plus four ``numpy.linalg`` kernels, in a span that records calls,
inclusive time and self time (inclusive time minus the time of child
spans).  Spans are aggregated in memory by name, with parent -> child
call counts, and read out once per pass.  Nothing inside the program
changes: the wrappers are bound, for the length of the traced passes,
to every module attribute that refers to a wrapped function, so a
function imported by name into another module (``simulate`` in
``neutral``, ``hyperbolic``, ``degenerate`` and ``cli``, say) is traced
on both paths.

A few counters that need a call's arguments or result are kept at the
same boundaries: engine events and record bytes, repeated engine calls
within one item, distinct (trajectory, event) frames, and events walked
by ``transport_between``.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "hardtorus"
LAYER_MODULES = ("cli", "config", "geometry", "events", "tangent", "neutral",
                 "hyperbolic", "degenerate")
LINALG_KERNELS = ("svd", "qr", "eigvalsh", "inv")


class Tracer:
    """In-memory span aggregator; one instance per traced run."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._signatures: dict[str, inspect.Signature] = {}
        self.span_names: set[str] = set()
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded; called at the start of each pass."""
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.sim_events = 0
        self.record_bytes = 0
        self.sim_repeats = 0
        self.distinct_frames = 0
        self.walked = 0
        self.walk_events = 0
        self._stack: list[list] = []
        self._begin_item()

    def _begin_item(self) -> None:
        self._sim_keys: set = set()
        self._frames: set = set()
        # trajectories are held for the item so that their ids stay unique
        self._walk_trajs: dict[int, object] = {}
        self._frame_trajs: dict[int, object] = {}

    def end_item(self) -> None:
        """Close per-item bookkeeping (repeat keys, distinct frames)."""
        self.distinct_frames += len(self._frames)
        self.walk_events += sum(t.n_events for t in self._walk_trajs.values())
        self._begin_item()

    def _span(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = self._stack
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    self.edges[(stack[-1][0], name)] += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return span

    def _bind(self, name: str, fn, args, kwargs) -> dict:
        sig = self._signatures.get(name)
        if sig is None:
            sig = self._signatures[name] = inspect.signature(fn)
        return sig.bind(*args, **kwargs).arguments

    # -- counters at layer boundaries --------------------------------------

    def _hooks(self, name: str, fn):
        if name == "events.simulate":
            def before(args, kwargs):
                a = self._bind(name, fn, args, kwargs)
                state = a["state"]
                key = (state.q.tobytes(), state.v.tobytes(), float(a["t_max"]),
                       a["params"], a.get("max_events"))
                if key in self._sim_keys:
                    self.sim_repeats += 1
                self._sim_keys.add(key)

            def after(args, kwargs, traj):
                self.sim_events += traj.n_events
                self.record_bytes += sum(
                    getattr(traj, f.name).nbytes
                    for f in dataclasses.fields(traj)
                    if isinstance(getattr(traj, f.name), np.ndarray))
            return before, after
        if name == "tangent.frame_for_event":
            def before(args, kwargs):
                if len(args) == 2 and not kwargs:
                    traj, k = args
                else:
                    a = self._bind(name, fn, args, kwargs)
                    traj, k = a["traj"], a["k"]
                self._frame_trajs[id(traj)] = traj
                self._frames.add((id(traj), int(k)))
            return before, None
        if name == "tangent.transport_between":
            def before(args, kwargs):
                a = self._bind(name, fn, args, kwargs)
                traj = a["traj"]
                ev_t = traj.ev_t
                self.walked += abs(
                    int(np.searchsorted(ev_t, a["t_to"], side="right"))
                    - int(np.searchsorted(ev_t, a["t_from"], side="right")))
                self._walk_trajs[id(traj)] = traj
            return before, None
        return None, None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Bind spans in place of the public layer functions."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals: dict[int, tuple[object, object]] = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    self.span_names.add(name)
                    originals[id(fn)] = (fn, self._span(name, fn,
                                                        *self._hooks(name, fn)))
        for attr in LINALG_KERNELS:
            fn = getattr(np.linalg, attr)
            self.span_names.add(f"linalg.{attr}")
            originals[id(fn)] = (fn, self._span(f"linalg.{attr}", fn))
        owners = [m for key, m in list(sys.modules.items())
                  if key == PACKAGE or key.startswith(PACKAGE + ".")]
        owners.append(np.linalg)
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, names, *, artifact_bytes: int,
                  verdicts: Counter) -> dict[str, float]:
    """Per-layer values of one traced pass for the declared metric names.

    ``<span>.calls`` is a call count, ``<span>.s`` inclusive and
    ``<span>.self_s`` self time; the other names are derived below.
    """
    calls, total, self_time = tracer.calls, tracer.total, tracer.self_time
    sim, ev = calls["events.simulate"], tracer.sim_events
    reports = calls["degenerate.degeneracy_report"]
    derived = {
        "events.simulate.events": ev,
        "events.us_per_event": 1e6 * _ratio(total["events.simulate"], ev),
        "events.events_per_call": _ratio(ev, sim),
        "events.repeat_call_ratio": _ratio(tracer.sim_repeats, sim),
        "events.record_bytes_per_event": _ratio(tracer.record_bytes, ev),
        "cli.artifact_bytes": artifact_bytes,
        "tangent.frames_per_event": _ratio(calls["tangent.frame_for_event"],
                                           tracer.distinct_frames),
        "tangent.events_walked_per_event": _ratio(tracer.walked,
                                                  tracer.walk_events),
        "neutral.validation_simulates":
            tracer.edges[("neutral.neutral_space", "events.simulate")],
        "degenerate.simulates_per_report": _ratio(
            tracer.edges[("degenerate.degeneracy_report", "events.simulate")],
            reports),
        "linalg.s": sum(total[f"linalg.{k}"] for k in LINALG_KERNELS),
    }
    derived.update({f"neutral.verdict.{v}": verdicts[v]
                    for v in ("sufficient", "not_sufficient", "undecidable")})
    kinds = {"calls": calls, "s": total, "self_s": self_time}
    out = {}
    for name in names:
        if name in derived:
            out[name] = float(derived[name])
            continue
        span, _, kind = name.rpartition(".")
        if kind not in kinds or span not in tracer.span_names:
            raise KeyError(f"per-layer metric {name!r} has no source")
        out[name] = float(kinds[kind][span])
    return out


def module_shares(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Share of a pass's wall time spent as self time in each layer;
    ``(outside spans)`` is benchmark code and item bookkeeping."""
    shares: defaultdict = defaultdict(float)
    for name, t in tracer.self_time.items():
        shares[name.split(".", 1)[0]] += t / wall_s
    shares["(outside spans)"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
