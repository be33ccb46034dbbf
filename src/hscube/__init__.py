"""Denoising of complex-valued hyperspectral cubes.

The package filters a cube in the eigen-subspace of its band correlation
matrix: noise statistics are estimated by inter-band regression, a
minimum-error subspace is selected, and each eigenimage is cleaned by a
block-matching collaborative filter with data-adaptive tensor transforms.
Synthetic phase objects, baseline filters and a benchmarking harness are
included for end-to-end accuracy studies.
"""

from .ccf import WindowSpec, ccf_denoise, ccf_sliding, sliding_plan
from .cdbm3d import (
    DenoiseConfig,
    Stages,
    Variant,
    denoise_image,
    estimate_sigma,
    hosvd,
    inverse_hosvd,
)
from .cube import (
    ComplexCube,
    read_cube,
    reshape_to_cube,
    reshape_to_matrix,
    write_cube,
)
from .evaluate import (
    MetricsReport,
    baseline_average,
    baseline_separate,
    per_slice_cdbm3d,
    rrmse_amplitude,
    rrmse_phase,
    run_experiment,
    snr_db,
)
from .subspace import EigenBasis, back_project, identify_subspace, project
from .synth import (
    DispersionModel,
    NoiseSpec,
    ObjectKind,
    PhaseObjectSpec,
    add_noise,
    bk7,
    compound_spec,
    default_wavelengths,
    generate_truth,
    phase_at,
    refractive_index,
    two_peak_spec,
    wrap_phase,
    wrapped_peak_spec,
)

__version__ = "0.1.0"
