"""Hard disks on the unit 2-torus: event-driven dynamics and
hyperbolicity analysis.

Core layers:

- geometry: mass metric, parameters, states, validation, sampling
- events: event-driven simulation, collision log, reversibility
- tangent: collision frames, tangent and normal transport, Q-form
- neutral: neutral spaces, advances, sufficiency, collision graphs
- hyperbolic: Q-evolution audits and their series (cone ratios
  included), curvature operators, expansion, Lyapunov spectra,
  collision rates
- degenerate: parallel-velocity sets L(l0), tubes, radius degeneracies
- config / cli: reproducible experiment front end

Names are exported lazily (PEP 562): ``import hardtorus`` loads no
layer, and the first use of a name imports only the module that
defines it, so a run that parses a config and samples a state never
loads the analysis layers.
"""
from importlib import import_module

__version__ = "0.1.0"

# The export table: each layer module and the public names the package
# re-exports from it.  ``__getattr__`` imports a name's module on first
# use and caches the object in this module's globals, so later lookups
# are plain attribute reads.  A module name in this table (say
# ``hardtorus.events``) resolves after a bare ``import hardtorus`` too.
_EXPORTS = {
    "config": ("ExperimentConfig", "parse_config", "serialize_config"),
    "errors": ("ConfigError", "FeasibilityError",
               "IllConditionedAdvanceError", "NumericalFailureError",
               "PerturbationTooLargeError", "SingularSegmentError",
               "StateCorruptionError", "TangentialFrameError",
               "ValidationError"),
    "events": ("TrajectorySegment", "reverse_state", "simulate",
               "symbolic_sequence"),
    "geometry": ("PhaseState", "ReducedSpace", "SystemParams", "Tolerances",
                 "energy", "mass_inner", "mass_norm", "min_gap", "momentum",
                 "project_to_Z", "reduced_space", "sample_state",
                 "transverse_basis", "validate_params", "validate_state"),
    "neutral": ("AdvanceReport", "CollisionGraph", "NeutralSpaceResult",
                "SufficiencyVerdict", "advance", "advance_report",
                "collision_graph", "is_sufficient", "neutral_report",
                "neutral_space", "neutral_translate"),
    "tangent": ("CollisionFrame", "NormalVector", "TangentVector",
                "frame_for_event", "propagate_normal", "propagate_tangent",
                "q_of", "reverse_normal", "transport_between"),
    "hyperbolic": ("CollisionRateReport", "CurvatureOperator",
                   "CurvaturePath", "ExpansionCheck", "LyapunovSpectrum",
                   "QEvolutionAudit", "collision_rate",
                   "curvature_consistency", "curvature_propagate",
                   "expansion_check", "hyperbolicity_series",
                   "lyapunov_spectrum", "q_evolution_audit", "summary_dict",
                   "write_series_csv"),
    "degenerate": ("LatticeDirection", "RadiusFlags", "admissible_directions",
                   "degeneracy_report", "degenerate_radius_check", "in_L",
                   "perpendicular_speed"),
    "rng": ("make_generator",),
    "serialize": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_OWNER) | set(_EXPORTS))
