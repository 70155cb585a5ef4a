"""Experiment configuration: INI-style text in, frozen dataclass out.

Grammar, line by line:

    # comment (also ';'); blank lines ignored
    [section]
    key = value

Sections and keys:

    [system]      masses (comma-separated floats), radius (float)
    [run]         seed (unsigned 64-bit int), t_max (float)
    [tolerances]  collision_root_tol, tangency_tol, double_event_tol,
                  rank_rel_tol (floats)
    [analysis]    c0 (float), l0 (two comma-separated ints, a primitive
                  lattice direction: gcd 1),
                  delta0 (float), horizon (float), ensemble (int),
                  reorth_interval (int), max_group (int)
    [scan]        radius_grid (comma-separated floats),
                  mass_grid (semicolon-separated mass lists)

[system] with masses and radius is required; everything else has
documented defaults.  Unknown sections or keys, malformed values and
non-finite numbers (nan, inf) raise ConfigError with the offending line
number.  serialize_config writes every field back in a fixed order with
17-significant-digit floats, so parse -> serialize is a canonical
normal form and serializing twice is byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .geometry import SystemParams, Tolerances, validate_params
from .serialize import fmt17


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the disk system plus subcommand options."""

    masses: tuple[float, ...]
    radius: float
    seed: int = 0
    t_max: float = 10.0
    tolerances: Tolerances = field(default_factory=Tolerances)
    c0: float = 1.0
    l0: tuple[int, int] | None = None
    delta0: float = 1e-7
    horizon: float = 100.0
    ensemble: int = 1
    reorth_interval: int = 10
    max_group: int | None = None
    radius_grid: tuple[float, ...] = ()
    mass_grid: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "masses",
                           tuple(float(m) for m in self.masses))
        object.__setattr__(self, "radius_grid",
                           tuple(float(r) for r in self.radius_grid))
        object.__setattr__(self, "mass_grid",
                           tuple(tuple(float(m) for m in row)
                                 for row in self.mass_grid))
        if self.l0 is not None:
            object.__setattr__(self, "l0",
                               (int(self.l0[0]), int(self.l0[1])))
            if math.gcd(*self.l0) != 1:
                raise ConfigError(f"l0 must be a nonzero primitive lattice "
                                  f"direction (gcd 1), got {self.l0}")
        validate_params(self.params)
        if not all(map(math.isfinite, self.radius_grid)):
            raise ConfigError(f"radius_grid must hold finite numbers, got "
                              f"{self.radius_grid}")
        for k, row in enumerate(self.mass_grid):
            if not all(map(math.isfinite, row)):
                raise ConfigError(f"mass_grid row {k} must hold finite "
                                  f"numbers, got {row}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        for name in ("t_max", "c0", "delta0", "horizon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        for name in ("ensemble", "reorth_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.max_group is not None and self.max_group < 1:
            raise ConfigError("max_group must be at least 1")
        for tf in fields(Tolerances):
            if not 0.0 < getattr(self.tolerances, tf.name) < math.inf:
                raise ConfigError(
                    f"tolerance {tf.name} must be positive and finite")

    @property
    def params(self) -> SystemParams:
        return SystemParams(masses=self.masses, radius=self.radius,
                            tolerances=self.tolerances)


_FLOAT_KEYS = {
    ("system", "radius"): "radius",
    ("run", "t_max"): "t_max",
    ("analysis", "c0"): "c0",
    ("analysis", "delta0"): "delta0",
    ("analysis", "horizon"): "horizon",
}
_INT_KEYS = {
    ("run", "seed"): "seed",
    ("analysis", "ensemble"): "ensemble",
    ("analysis", "reorth_interval"): "reorth_interval",
    ("analysis", "max_group"): "max_group",
}
_TOL_KEYS = {tf.name for tf in fields(Tolerances)}
_SECTIONS = ("system", "run", "tolerances", "analysis", "scan")


def _parse_float(raw: str, line: int, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {raw!r}",
                          line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} expects a finite number, got {raw!r}", line)
    return value


def _parse_int(raw: str, line: int, key: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {raw!r}",
                          line) from None


def _parse_float_list(raw: str, line: int, key: str) -> tuple[float, ...]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{key} expects a comma-separated list", line)
    return tuple(_parse_float(s, line, key) for s in items)


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; see the module docstring for the grammar."""
    section = None
    values: dict[str, object] = {}
    tol_values: dict[str, float] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            section = stripped[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip().lower()
        raw = raw.strip()
        if (section, key) in seen:
            raise ConfigError(f"duplicate key {key} in [{section}]", lineno)
        seen.add((section, key))
        if (section, key) in _FLOAT_KEYS:
            values[_FLOAT_KEYS[(section, key)]] = _parse_float(raw, lineno,
                                                               key)
        elif (section, key) in _INT_KEYS:
            values[_INT_KEYS[(section, key)]] = _parse_int(raw, lineno, key)
        elif section == "system" and key == "masses":
            values["masses"] = _parse_float_list(raw, lineno, key)
        elif section == "analysis" and key == "l0":
            parts = [s.strip() for s in raw.split(",")]
            if len(parts) != 2:
                raise ConfigError("l0 expects two comma-separated integers",
                                  lineno)
            values["l0"] = (_parse_int(parts[0], lineno, key),
                            _parse_int(parts[1], lineno, key))
        elif section == "tolerances" and key in _TOL_KEYS:
            tol_values[key] = _parse_float(raw, lineno, key)
        elif section == "scan" and key == "radius_grid":
            values["radius_grid"] = _parse_float_list(raw, lineno, key)
        elif section == "scan" and key == "mass_grid":
            rows = [s.strip() for s in raw.split(";") if s.strip()]
            if not rows:
                raise ConfigError("mass_grid expects ';'-separated mass "
                                  "lists", lineno)
            values["mass_grid"] = tuple(_parse_float_list(row, lineno, key)
                                        for row in rows)
        else:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
    for required in ("masses", "radius"):
        if required not in values:
            raise ConfigError(f"missing required key {required} in [system]")
    if tol_values:
        values["tolerances"] = Tolerances(**tol_values)
    try:
        return ExperimentConfig(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(c)) reproduces c exactly."""
    tol = config.tolerances
    lines = [
        "[system]",
        "masses = " + ", ".join(fmt17(m) for m in config.masses),
        f"radius = {fmt17(config.radius)}",
        "",
        "[run]",
        f"seed = {config.seed}",
        f"t_max = {fmt17(config.t_max)}",
        "",
        "[tolerances]",
    ]
    lines += [f"{tf.name} = {fmt17(getattr(tol, tf.name))}"
              for tf in fields(Tolerances)]
    lines += [
        "",
        "[analysis]",
        f"c0 = {fmt17(config.c0)}",
        f"delta0 = {fmt17(config.delta0)}",
        f"horizon = {fmt17(config.horizon)}",
        f"ensemble = {config.ensemble}",
        f"reorth_interval = {config.reorth_interval}",
    ]
    if config.l0 is not None:
        lines.append(f"l0 = {config.l0[0]}, {config.l0[1]}")
    if config.max_group is not None:
        lines.append(f"max_group = {config.max_group}")
    if config.radius_grid or config.mass_grid:
        lines += ["", "[scan]"]
        if config.radius_grid:
            lines.append("radius_grid = "
                         + ", ".join(fmt17(r) for r in config.radius_grid))
        if config.mass_grid:
            rows = "; ".join(", ".join(fmt17(m) for m in row)
                             for row in config.mass_grid)
            lines.append(f"mass_grid = {rows}")
    return "\n".join(lines) + "\n"


def with_point(config: ExperimentConfig, *, masses=None,
               radius=None) -> ExperimentConfig:
    """Config for one scan grid point."""
    out = config
    if masses is not None:
        out = replace(out, masses=tuple(float(m) for m in masses))
    if radius is not None:
        out = replace(out, radius=float(radius))
    return out
