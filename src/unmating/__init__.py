"""Unmating of expanding Thurston maps along a fully invariant oriented curve.

The pipeline turns a combinatorial description of the curve and its pullback
into circle parameters for the marked postcritical visits, critical portraits
for the white and black polynomials of the mating, and finite-depth
lamination approximations with validity certificates.
"""

from .circle import frac, orbit, q_apply
from .errors import (
    LaminationError,
    MapfileError,
    PortraitError,
    SpectralError,
    UnmatingError,
    ValidationFailure,
)
from .laminations import AngleClasses, depth1, join, moore_check, pullback_step
from .mapspec import (
    CriticalVertex,
    LevelMap,
    MapSpec,
    ValidationReport,
    chord_diagram,
    critical_vertices,
    faces,
    parse,
    parse_file,
    validate,
)
from .parameterize import (
    MarkerParameters,
    PullbackParameters,
    marker_images,
    pullback_parameters,
    solve_parameters,
)
from .pipeline import PipelineResult, run_pipeline
from .portraits import (
    CriticalPortrait,
    PreargumentSet,
    Sectors,
    certify,
    extract_portraits,
    sectors,
)
from .spectral import LengthVector, TransitionMatrix, certify_perron, deformation_words, transition_matrix

__version__ = "0.1.0"
