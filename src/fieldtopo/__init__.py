"""Topological statistics of excursion sets of Gaussian random fields.

The package covers the full chain from a parametric power spectrum to the
statistics of excursion-set topology: spectral moments and length scales
(`spectrum`), periodic field synthesis and smoothing (`grf`), the hole-count
spectrum and Betti numbers in 2D (`topo2d`) and 3D (`topo3d`), seeded
ensembles folded into per-threshold moments (`ensemble`), Binomial fits and
diagnostics on those moments (`inference`), and the count of coefficient
states behind a (b0, b1) pair by partition number and closed form
(`states`).  The `fieldtopo` command exposes the pipeline from the shell.
"""

from .ensemble import EnsembleConfig, EnsembleResult, ThresholdSummary, run_ensemble
from .grf import FieldGrid, generate, load_field, sample_moments, save_field, smooth
from .inference import (
    BinomialFit,
    analytic_chi_amplitude,
    analytic_chi_gaussian,
    duality_check,
    expected_chi,
    fit_binomial_chi,
    fit_binomial_moments,
    normality_trend,
    pdf_compare,
    variance_split,
)
from .spectrum import (
    PowerSpectrumModel,
    SpectralParams,
    eval_power,
    packing_fraction,
    spectral_moment,
    spectral_params,
)
from .states import (
    StateCount,
    count_all,
    count_states_formula,
    vector_states,
)
from .topo2d import (
    ExcursionMask,
    HoleSpectrum,
    TopoStats,
    betti_from_h,
    euler_closed_cell,
    excursion_mask,
    generating_function,
    hole_spectrum,
    topo_stats_from_spectrum,
)
from .topo3d import betti3d

__version__ = "0.1.0"

__all__ = [
    "BinomialFit",
    "EnsembleConfig",
    "EnsembleResult",
    "ExcursionMask",
    "FieldGrid",
    "HoleSpectrum",
    "PowerSpectrumModel",
    "SpectralParams",
    "StateCount",
    "ThresholdSummary",
    "TopoStats",
    "analytic_chi_amplitude",
    "analytic_chi_gaussian",
    "betti3d",
    "betti_from_h",
    "count_all",
    "count_states_formula",
    "duality_check",
    "euler_closed_cell",
    "eval_power",
    "excursion_mask",
    "expected_chi",
    "fit_binomial_chi",
    "fit_binomial_moments",
    "generate",
    "generating_function",
    "hole_spectrum",
    "load_field",
    "normality_trend",
    "packing_fraction",
    "pdf_compare",
    "run_ensemble",
    "sample_moments",
    "save_field",
    "smooth",
    "spectral_moment",
    "spectral_params",
    "topo_stats_from_spectrum",
    "variance_split",
    "vector_states",
]
