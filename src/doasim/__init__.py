"""Sparse linear arrays, directive element patterns, and coarray MUSIC."""

from .geometry import (ArrayGeometry, Coarray, GeometryError, difference_coarray,
                       is_perfect, make_mra, make_ula, named_geometry)
from .patterns import (ElementPattern, PatternError, PatternPerturbation,
                       TableError, evaluate, export_tabulated, load_tabulated,
                       make_dipole_ref, make_isotropic, make_patch, make_pattern,
                       make_vivaldi, perturb, perturbed_gains)
from .manifold import (ArrayManifold, CouplingError, SourceScenario,
                       apply_coupling_model, generate_snapshots, make_manifold,
                       phase_ramp, sample_covariance, steering_matrix, steering_vector)
from .estimators import (DoaEstimateSet, Pseudospectrum, RankError, azimuth_grid,
                         coarray_covariance, coarray_music, hermitian_eig,
                         music_pseudospectrum, pick_peaks, virtual_steering)
from .config import (ConfigError, ExperimentConfig, SweepResult, parse_config,
                     parse_config_text, read_results, serialize_config, write_results)
from .experiments import rmse, run_overloaded_demo, run_point, run_sweep
from .coverage import LinkBudget, range_ratio, required_snr_for_rmse, snr_to_range
from .svgplot import render_plot

__version__ = "0.1.0"
