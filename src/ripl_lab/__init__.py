"""Multilevel subsampling of isometries with level-structured sparsity:
coherence profiles, restricted-isometry-in-levels certification,
measurement allocation calculators, and weighted l1 recovery."""

from .levels import (
    LevelError,
    LevelStructure,
    SparsityPattern,
    best_approx_in_levels,
    count_supports,
    random_sparse_vector,
    support_blocks,
    validate_boundaries,
)
from .operators import (
    dft_matrix,
    fourier_haar_matrix,
    fourier_haar_table,
    gaussian_matrix,
    haar_matrix,
    is_isometry,
    load_matrix,
    matrix_content_hash,
    save_matrix,
)
from .coherence import (
    CoherenceProfile,
    fourier_haar_local_coherence,
    global_coherence,
    local_coherence,
    nonuniform_local_coherence,
)
from .sampling import (
    AllocationResult,
    MeasurementOperator,
    SamplingScheme,
    allocate_haar,
    allocate_uniform,
    build_measurement,
    draw_scheme,
    haar_interference_weights,
)
from .ripl import (
    CertificationReport,
    EnumerationBudgetError,
    RiclReport,
    certify_recovery,
    ricl_exact,
    ricl_monte_carlo,
    ripl_threshold,
)
from .recovery import (
    ExperimentResult,
    QcbpProblem,
    SolveResult,
    exact_recovery_experiment,
    gaussian_recovery_experiment,
    inverse_sqrt_level_weights,
    recovery_metrics,
    solve_qcbp,
)

__version__ = "0.1.0"
