"""Workload definitions and per-item output checks for the benchmark.

Every workload is a list of items generated from a seed.  An item is
one call of ``hardtorus.cli.run(subcommand, config, out_dir)`` on a
config text; one pass runs the list once and covers SEEDS_PER_PASS
seeds.  The `scan` subcommand is left out because it forks a pool of
cpu_count workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Drift limit of the acceptance criteria (energy and momentum, per event).
DRIFT_TOL = 1e-9
# Lyapunov acceptance: pairing residual within 2 % of the top exponent,
# flow exponent within 3 standard errors of zero.
PAIRING_SHARE = 0.02
FLOW_SIGMAS = 3.0
VERDICTS = ("sufficient", "not_sufficient", "undecidable")

N32_MASSES = tuple(1.0 + 0.05 * k for k in range(32))
N3_MASSES = (1.0, 1.3, 0.7)
ANALYSIS_SEEDS = 40


@dataclass(frozen=True)
class Item:
    subcommand: str
    seed: int
    config_text: str


def config_text(masses, radius: float, seed: int, t_max: float,
                **analysis) -> str:
    lines = ["[system]",
             "masses = " + ", ".join(repr(float(m)) for m in masses),
             f"radius = {radius!r}",
             "[run]",
             f"seed = {seed}",
             f"t_max = {t_max!r}"]
    if analysis:
        lines.append("[analysis]")
        lines += [f"{key} = {value}" for key, value in analysis.items()]
    return "\n".join(lines) + "\n"


def _simulate_n32(seed: int) -> list[Item]:
    return [Item("simulate", seed, config_text(N32_MASSES, 0.03, seed, 250.0))]


def _lyapunov_n3(seed: int) -> list[Item]:
    return [Item("lyapunov", seed,
                 config_text(N3_MASSES, 0.1, seed, 1500.0, ensemble=3))]


def _analysis_n3(seed: int) -> list[Item]:
    items = []
    for s in range(seed, seed + ANALYSIS_SEEDS):
        items.append(Item("neutral", s, config_text(N3_MASSES, 0.1, s, 20.0)))
        items.append(Item("audit", s,
                          config_text(N3_MASSES, 0.1, s, 20.0, l0="1, 0")))
        # degeneracy uses the default horizon of 100 and no l0, so it
        # surveys every admissible direction
        items.append(Item("degeneracy", s,
                          config_text(N3_MASSES, 0.1, s, 20.0)))
    return items


WORKLOADS = {
    "simulate_n32": _simulate_n32,
    "lyapunov_n3": _lyapunov_n3,
    "analysis_n3": _analysis_n3,
}
SEEDS_PER_PASS = {"simulate_n32": 1, "lyapunov_n3": 1,
                  "analysis_n3": ANALYSIS_SEEDS}


# Spans that must record calls in a traced pass of each workload; a
# refactor that stops one of them from being reached (a renamed import,
# say) fails the traced run instead of silently reading zero.
_ALWAYS = ("cli.run", "config.parse_config", "geometry.sample_state",
           "geometry.validate_state", "events.simulate")
EXPECTED_SPANS = {
    "simulate_n32": _ALWAYS + ("events.write_events_jsonl",),
    "lyapunov_n3": _ALWAYS + ("hyperbolic.lyapunov_spectrum",
                              "tangent.frame_for_event",
                              "geometry.reduced_space", "linalg.qr"),
    "analysis_n3": _ALWAYS + (
        "neutral.neutral_report", "neutral.neutral_space", "neutral.advance",
        "tangent.frame_for_event", "tangent.transport_between",
        "tangent.propagate_tangent", "hyperbolic.q_evolution_audit",
        "hyperbolic.curvature_propagate", "hyperbolic.expansion_check",
        "hyperbolic.hyperbolicity_series", "degenerate.degeneracy_report",
        "geometry.reduced_space", "linalg.svd", "linalg.eigvalsh",
        "linalg.inv"),
}


def items_for(workload: str, seed: int) -> list[Item]:
    return WORKLOADS[workload](seed)


def collisions(data: dict) -> int:
    """Collisions reported in one returned summary."""
    if "ensemble" in data:
        return sum(run["n_collisions"] for run in data["ensemble"])
    if "conservation" in data:
        return data["conservation"]["n_events"]
    return 0


def _check_drift(data: dict) -> list[str]:
    cons = data["conservation"]
    return [f"{key} = {cons[key]:.3g} > {DRIFT_TOL:g}"
            for key in ("max_energy_drift", "max_momentum_drift")
            if not cons[key] <= DRIFT_TOL]


def check_item(subcommand: str, data: dict, out_dir: Path) -> list[str]:
    """Problems with one item's outputs; empty when the item passes."""
    problems = []
    if subcommand in ("simulate", "neutral", "audit"):
        problems += _check_drift(data)
    if subcommand == "simulate":
        with open(out_dir / "events.jsonl", encoding="utf-8") as fh:
            lines = sum(1 for line in fh if line.strip())
        n_events = data["conservation"]["n_events"]
        if lines != n_events:
            problems.append(f"events.jsonl has {lines} lines for "
                            f"{n_events} events")
    elif subcommand == "lyapunov":
        for k, run in enumerate(data["ensemble"]):
            top, se = run["exponents"][0], run["standard_errors"][0]
            if not run["pairing_residual"] <= PAIRING_SHARE * top:
                problems.append(f"member {k}: pairing residual "
                                f"{run['pairing_residual']:.3g} > "
                                f"{PAIRING_SHARE:g} * {top:.3g}")
            if not abs(run["flow_exponent"]) <= FLOW_SIGMAS * se:
                problems.append(f"member {k}: |flow exponent| "
                                f"{abs(run['flow_exponent']):.3g} > "
                                f"{FLOW_SIGMAS:g} * SE {se:.3g}")
    elif subcommand == "neutral":
        verdict = data["neutral"]["verdict"]
        if verdict not in VERDICTS:
            problems.append(f"verdict {verdict!r} not one of {VERDICTS}")
    elif subcommand == "audit":
        if data["q_audit"]["q_monotone"] is not True:
            problems.append("q_monotone is false")
        if data["expansion"]["ok"] is not True:
            problems.append("expansion.ok is false")
    elif subcommand == "degeneracy":
        report = data["degeneracy"]
        expected = report["admissible_directions"]
        got = [entry["direction"] for entry in report["entries"]]
        if got != expected:
            problems.append(f"entries cover {got}, expected one per "
                            f"admissible direction {expected}")
    return problems
