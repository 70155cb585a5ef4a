"""Hard disks on the unit 2-torus: event-driven dynamics and
hyperbolicity analysis.

Core layers:

- geometry: mass metric, torus wrapping, parameters, states, sampling
- events: event-driven simulation, collision log, reversibility
- tangent: collision frames, tangent and normal transport, Q-form
- neutral: neutral spaces, advances, sufficiency, collision graphs
- hyperbolic: Q-evolution audits, curvature operators, cone
  decompositions, Lyapunov spectra, collision rates, z-length
- degenerate: parallel-velocity sets L(l0), tubes, radius degeneracies
- config / cli: reproducible experiment front end
"""
from .config import ExperimentConfig, parse_config, serialize_config
from .errors import (ConfigError, FeasibilityError,
                     IllConditionedAdvanceError, NumericalFailureError,
                     PerturbationTooLargeError, ResolutionError,
                     SingularSegmentError, StateCorruptionError,
                     TangentialFrameError, ValidationError)
from .events import (TrajectorySegment, reverse_state, simulate,
                     symbolic_sequence)
from .geometry import (PhaseState, ReducedSpace, SystemParams, Tolerances,
                       cylinder_radius, energy, mass_inner, mass_norm,
                       min_gap, min_image, momentum, pair_distance,
                       project_to_Z, reduced_space, sample_state,
                       torus_delta, transverse_basis, validate_params,
                       validate_state)
from .neutral import (AdvanceReport, CollisionGraph, NeutralSpaceResult,
                      SufficiencyVerdict, advance, advance_report,
                      collision_graph, component_stats, is_sufficient,
                      neutral_report, neutral_space, neutral_translate,
                      richness_count)
from .tangent import (CollisionFrame, NormalVector, TangentVector,
                      collision_frame, frame_for_event, propagate_normal,
                      propagate_tangent, q_of, reverse_normal,
                      tangent_map, transport_between)
from .hyperbolic import (CollisionRateReport, ConeDecomposition,
                         CurvatureOperator, CurvaturePath, ExpansionCheck,
                         JumpRecord, LyapunovSpectrum, QEvolutionAudit,
                         collision_rate, cone_decompose,
                         curvature_consistency, curvature_propagate,
                         expansion_check, hyperbolicity_series,
                         lyapunov_spectrum, q_evolution_audit, summary_dict,
                         write_series_csv, z_length)
from .degenerate import (LatticeDirection, RadiusFlags, Tube, TubeStructure,
                         admissible_directions, degeneracy_report,
                         degenerate_radius_check, distance_to_L, in_L,
                         perpendicular_speed, tube_structure)
from .rng import make_generator

__version__ = "0.1.0"
