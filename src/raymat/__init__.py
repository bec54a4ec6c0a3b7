"""raymat: reflection-loss modelling and map-assisted material identification.

Models specular reflection of 28 GHz-1 THz radio waves off building materials
(complex permittivity, Fresnel and thin-slab coefficients, settling thickness)
and identifies surface materials from total reflection-loss measurements along
multi-bounce ray-traced trajectories in user-supplied 3D scenes.
"""

from .em import (
    FITTED_ROUGHNESS_KAPPA,
    SPEED_OF_LIGHT,
    InconsistentMeasurementError,
    ReflectionCoefficients,
    amplitude_db,
    extract_total_rl,
    fresnel_thick,
    fspl,
    reflection_loss,
    relative_permittivity,
    slab_coefficient,
)
from .identify import (
    BeliefState,
    IdentificationReport,
    MeasurementRecord,
    RPKey,
    SequenceCandidate,
    enumerate_sequences,
    identify_loop,
    match_measurement,
    merge_candidates,
    simulate_measurement,
)
from .materials import GLASS, PLASTER, PRESETS, WOOD, MaterialParams, load_material_table
from .rldb import DatabaseFormatError, DatabaseVersionError, OutOfRangeError, RLDatabase, build, load
from .scene import Facet, Scene, SceneValidationError, load_scene, save_scene
from .settling import (
    NotSettledError,
    SettlingQuery,
    settling_thickness,
    thickness_sweep,
)
from .tracer import Hop, Trajectory, trace, trace_pairs

__version__ = "0.1.0"
