"""Surrogate modeling of time-series simulator outputs via curve registration.

Workflow: sample a space-filling design (``doe``), run the simulator (or the
synthetic stand-ins in ``synth``), register the output curves to a common
shape (``registration``), model the per-curve deformation parameters with
kriging (``gp``) and predict full curves at new inputs (``emulator``).
"""

from .doe import (
    DesignMatrix,
    InputBox,
    lhd_sample,
    maximin_lhd,
    min_pairwise_distance,
    scale_to_box,
)
from .gp import (
    FitConfig,
    GpModel,
    corr_gaussian,
    fit_gp,
    loo_metrics,
    predict,
)
from .registration import (
    CurveSet,
    EstimationConfig,
    Pattern,
    TransformParams,
    align_curves,
    contrast,
    estimate_params,
    estimate_params_blocked,
    extract_pattern,
    make_weights,
    rephase,
    to_fourier,
)
from .synth import (
    SimSpec,
    co2_default_box,
    co2_style_spec,
    generate_analytical,
    generate_functional_sim,
    parabola_pattern,
)

__version__ = "0.1.0"
