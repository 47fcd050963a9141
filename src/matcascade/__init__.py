"""Matrix-weighted multiplicative cascades on Galton-Watson trees.

Finite-atom cascade models are the exact-computation substrate: mean
matrices, tilted moment matrices and their n-step analogues are finite
sums, so moment criteria can be evaluated exactly.  A reproducible
Monte Carlo engine simulates the associated vector martingale, and the
estimators confront the exact predictions with sample data.
"""

from .model import (
    Atom,
    CascadeModel,
    load_model,
    save_model,
    scale_model,
    validate_model,
    normalize_model,
    tilt_model,
)
from .spectral import (
    PerronTriple,
    IntensityMeasure,
    perron,
    moment_matrix,
    intensity_measure,
    n_step_moment_matrix,
)
from .conditions import (
    ConditionReport,
    check_alpha_moments,
    positive_column_probability,
    check_harmonic,
    exponential_profile,
    check_complex,
)
from .engine import (
    SampleBatch,
    simulate_batch,
)
from .estimate import (
    MomentEstimate,
    DecayFit,
    estimate_moment,
    estimate_harmonic,
    estimate_laplace,
    fit_power_decay,
    fit_stretched_exponential,
    tail_curve,
    fixed_point_check,
)
from .mbrw import (
    MbrwSpec,
    MbrwSpectral,
    load_mbrw_spec,
    mbrw_spectral,
    build_cascade_from_mbrw,
    mbrw_condition_report,
)

__version__ = "0.1.0"
