"""Fixed-rank matrix completion on a quotient geometry.

Factors X = U R VT with orthonormal U, V evolve under a metric weighted
by the middle factor's spectrum; a nonlinear conjugate-gradient solver,
a rank-updating homotopy, and a truncated-column warm start sit on top,
with synthetic generators, ratings ingestion, and Matrix Market I/O.
"""

from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateDirectionError,
    DimensionError,
    ParseError,
    RetractionError,
    SingularMatrixError,
)
from .manifold import (
    FixedRankPoint,
    HorizontalVector,
    TangentTriple,
    metric,
    norm,
    project_to_horizontal,
    project_to_tangent,
    random_point,
    retract,
    transport_to,
)
from .problem import (
    CompletionProblem,
    ObservedEntries,
    PointEvaluation,
    SparseResidual,
    cost,
    degrees_of_freedom,
    direction_values,
    evaluate,
    initial_step,
    masked_values,
    mean_squared_error,
    op_count,
    reset_op_count,
    residual,
    riemannian_gradient,
    sparse_apply,
)
from .solver import (
    RankStep,
    SolverConfig,
    SolverTrace,
    TraceRow,
    ValidationMonitor,
    cg_solve,
    cost_plateau,
    early_stopped_solve,
    initial_rank_one_point,
    pr_plus_beta,
    rank_incremental_solve,
    rank_one_update,
    truncated_oversampling,
    truncated_warm_start,
)
from .data_io import (
    RatingsDataset,
    SyntheticSpec,
    parse_movielens,
    read_dense_matrix_market,
    read_matrix_market,
    required_count,
    sample_mask,
    split_train_val_test,
    synth_conditioned,
    synth_gaussian,
    synthesize,
    to_entries,
    write_dense_matrix_market,
    write_matrix_market,
)
from .rng import CounterRng

__version__ = "0.1.0"
