"""Experiment configuration: INI-style text in, frozen dataclass out.

Grammar, line by line:

    # comment (also ';'); blank lines ignored
    [section]
    key = value

The key table ``_KEYS`` defines the keys, their parsers and writers:

    [system]      masses (comma-separated floats), radius (float)
    [run]         seed (unsigned 64-bit int), t_max (float)
    [tolerances]  collision_root_tol, tangency_tol, double_event_tol,
                  rank_rel_tol (floats)
    [analysis]    c0, delta0, horizon (floats), ensemble,
                  reorth_interval (ints), l0 (two comma-separated ints,
                  a primitive lattice direction: gcd 1), max_group (int)
    [scan]        radius_grid (comma-separated floats),
                  mass_grid (semicolon-separated mass lists)

[system] with masses and radius is required; everything else has
documented defaults.  Unknown sections or keys, malformed values and
non-finite numbers (nan, inf) raise ConfigError with the offending line
number.  serialize_config writes every field back in the table's order
with 17-significant-digit floats, so parse -> serialize is a canonical
normal form and serializing twice is byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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
            if not all(float(c).is_integer() for c in self.l0):
                raise ConfigError(f"l0 entries must be integers, got "
                                  f"{tuple(self.l0)}")
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


def _parse_l0(raw: str, line: int, key: str) -> tuple[int, int]:
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError("l0 expects two comma-separated integers", line)
    return _parse_int(parts[0], line, key), _parse_int(parts[1], line, key)


def _parse_mass_grid(raw: str, line: int,
                     key: str) -> tuple[tuple[float, ...], ...]:
    rows = [s.strip() for s in raw.split(";") if s.strip()]
    if not rows:
        raise ConfigError("mass_grid expects ';'-separated mass lists", line)
    return tuple(_parse_float_list(row, line, key) for row in rows)


def _write_floats(values) -> str:
    return ", ".join(map(fmt17, values))


# The grammar: one (section, key, parser, writer) row per key, in the
# order serialize_config writes them.  Each key is its field's name, on
# Tolerances in [tolerances] and on ExperimentConfig elsewhere.
_KEYS = (
    ("system", "masses", _parse_float_list, _write_floats),
    ("system", "radius", _parse_float, fmt17),
    ("run", "seed", _parse_int, str),
    ("run", "t_max", _parse_float, fmt17),
    *(("tolerances", tf.name, _parse_float, fmt17)
      for tf in fields(Tolerances)),
    ("analysis", "c0", _parse_float, fmt17),
    ("analysis", "delta0", _parse_float, fmt17),
    ("analysis", "horizon", _parse_float, fmt17),
    ("analysis", "ensemble", _parse_int, str),
    ("analysis", "reorth_interval", _parse_int, str),
    ("analysis", "l0", _parse_l0, lambda l0: f"{l0[0]}, {l0[1]}"),
    ("analysis", "max_group", _parse_int, str),
    ("scan", "radius_grid", _parse_float_list, _write_floats),
    ("scan", "mass_grid", _parse_mass_grid,
     lambda rows: "; ".join(map(_write_floats, rows))),
)
_PARSERS = {(section, key): parse for section, key, parse, _ in _KEYS}
_SECTIONS = {section for section, *_ in _KEYS}


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
        if (section, key) in seen:
            raise ConfigError(f"duplicate key {key} in [{section}]", lineno)
        seen.add((section, key))
        parse = _PARSERS.get((section, key))
        if parse is None:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        target = tol_values if section == "tolerances" else values
        target[key] = parse(raw.strip(), lineno, key)
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
    """Canonical text form; parse(serialize(c)) reproduces c exactly.

    Keys follow the table's order; a key set to None or to an empty
    grid is left out, and so is a section left without keys.
    """
    sections: dict[str, list[str]] = {}
    for section, key, _, write in _KEYS:
        owner = config.tolerances if section == "tolerances" else config
        value = getattr(owner, key)
        if value is not None and value != ():
            sections.setdefault(section, []).append(f"{key} = {write(value)}")
    return "\n\n".join("\n".join([f"[{section}]", *lines])
                       for section, lines in sections.items()) + "\n"
