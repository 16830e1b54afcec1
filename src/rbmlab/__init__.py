"""Numerical laboratory for d-dimensional Gaussian random band matrices:
model construction, exact-identity verification, propagator synthesis, a
diagrammatic graph calculus, spectral statistics, and an experiment CLI.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ContractError,
    NumericError,
    ParameterError,
    ProfilePositivityError,
    RbmlabError,
    ValidationError,
    WindowError,
)
from .lattice import TorusLattice, representative, torus_distance
from .profile import (
    ShapeFunction,
    VarianceProfile,
    band_truncation_mass,
    build_profile,
    get_shape,
    mean_field_profile,
)
from .sampler import HermitianSample, ou_evolve, sample_band, sample_gue
from .seeding import seed_substream, substream_rng
from .spectral import (
    ResolventContext,
    SpectralData,
    eigensolve,
    resolvent,
    semicircle_m,
    t_three,
    ward_residual,
    zero_mode_split,
)
from .propagators import PropagatorSet, b_profile, s_pm, theta_circ
from .graphs import (
    AtomicGraph,
    evaluate,
    is_doubly_connected,
    is_normal,
    molecular_graph,
    molecules,
    scaling_order,
    second_order_graphs,
)
from .stats import (
    TestDiagonal,
    deloc_supnorm,
    gap_ratio_mean,
    local_law_ratios,
    overlap_bound_check,
    que_bound_ratio,
    que_trace,
    semicircle_distance,
)
from .harness import EXPERIMENTS, ExperimentConfig, ResultRecord, StatReport, rerun, run
