"""Symplectic invariants of a four-parameter coupled-spin family on S2 x S2:
singularity classification, height invariant, polygon representatives and
momentum-map image data, each closed form paired with an independent
numerical oracle.
"""

from .cartography import (ImageBoundary, Polygon, act_flip_cut, act_shear,
                          image_boundary, polygon_representative)
from .errors import (ConsistencyError, DegenerateSystemError,
                     NonconvergenceError, SemitoricError)
from .height import (HeightInvariant, case_id, closed_form_F, gamma_B,
                     height_both, height_closed, height_oracle,
                     height_quadrature)
from .model import (FIXED_POINTS, ModelParams, MomentumValue, ParamGrid,
                    PhasePoint, momentum_map)
from .reduced import (DHFunction, dh_function, ff_levels, physical_interval,
                      chart, reduced_A, reduced_B, roots_P0)
from .singularity import (SemitoricVerdict, SingularityReport,
                          check_semitoric, classify_fixed_points,
                          discriminant_E, n_ff, rank1_margin)

__all__ = [
    "ConsistencyError", "DegenerateSystemError",
    "DHFunction", "FIXED_POINTS", "HeightInvariant", "ImageBoundary",
    "ModelParams", "MomentumValue", "NonconvergenceError", "ParamGrid",
    "PhasePoint",
    "Polygon",
    "SemitoricError", "SemitoricVerdict", "SingularityReport",
    "act_flip_cut", "act_shear", "case_id", "chart",
    "check_semitoric", "classify_fixed_points", "closed_form_F",
    "dh_function", "discriminant_E", "ff_levels", "gamma_B",
    "height_both", "height_closed", "height_oracle", "height_quadrature",
    "image_boundary", "momentum_map", "n_ff",
    "physical_interval", "polygon_representative",
    "rank1_margin", "reduced_A", "reduced_B", "roots_P0",
]

__version__ = "0.1.0"
